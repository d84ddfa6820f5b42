"""``import repro`` stays light: networkx and http.server load on use.

networkx backs only the Shasha-Snir delay-set analyses and http.server
only the live ``/metrics`` endpoint, so neither may be imported by the
package itself.  Checked in a fresh interpreter, since this test
process has imported both long before.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro
assert "networkx" not in sys.modules, "import repro loaded networkx"
assert "http.server" not in sys.modules, "import repro loaded http.server"
from repro import delay_pairs
from repro.delayset import minimal_delay_pairs
from repro.litmus.catalog import fig1_dekker
program = fig1_dekker().program
assert delay_pairs(program), "Dekker must have delay pairs"
assert minimal_delay_pairs(program) <= delay_pairs(program)
assert "networkx" in sys.modules
print("ok")
"""


def test_import_repro_defers_networkx_and_http_server():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"

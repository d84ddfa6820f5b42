"""Pool workers exit when the process holding their pool is SIGKILLed."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The child builds a two-worker pool, occupies both workers, prints
#: their pids and waits to be killed.
_CHILD = textwrap.dedent(
    """
    import sys, time
    from repro.campaign.executor import ParallelExecutor, worker_pool

    if sys.argv[1] == "executor":
        pool = ParallelExecutor(jobs=2)._ensure_pool()
    else:
        pool = worker_pool(2)  # the bare pool ParallelExecutor runs on
    futures = [pool.submit(time.sleep, 60) for _ in range(2)]
    while len(pool._processes) < 2:
        time.sleep(0.01)
    print(" ".join(str(pid) for pid in pool._processes), flush=True)
    time.sleep(60)
    """
)


def _alive(pid: int) -> bool:
    """Running, as opposed to gone or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state from /proc"
)
@pytest.mark.parametrize("pool", ["executor", "worker_pool"])
def test_workers_exit_after_parent_sigkill(pool):
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, pool],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = child.stdout.readline()
        workers = [int(pid) for pid in line.split()]
        assert len(workers) == 2, line
        assert all(_alive(pid) for pid in workers)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"workers {workers} outlived their SIGKILLed parent"
            )
            time.sleep(0.05)
    finally:
        child.kill()
        child.wait(timeout=10)
        child.stdout.close()



def test_worker_already_reparented_exits_at_once():
    """A worker whose pool owner died before its initializer ran is
    handed a pid that is no longer its parent: it exits straight away
    instead of watching its new parent."""
    code = textwrap.dedent(
        """
        import os, time
        from repro.campaign.executor import exit_with_parent

        exit_with_parent(os.getpid())  # never this process's own parent
        time.sleep(60)
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, stderr=subprocess.PIPE,
        timeout=30,
    )
    assert (done.returncode, done.stderr) == (1, b"")
    assert time.monotonic() - start < 10

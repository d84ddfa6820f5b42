"""Snapshot of the ``python -m repro`` command-line surface.

``tests/data/cli_surface.json`` records, for the top-level parser and
every subcommand, each argument's option strings, dest, default,
choices, nargs, const, type, required flag and action class (help text
is deliberately left out).  It was generated with :func:`surface` from
the parser as it stood before the flag declarations were shared, so a
flag lost, renamed or given a new default in a refactor fails here.
Regenerate it only for a deliberate surface change, and say so in the
changelog.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.api import machine_names
from repro.cli import build_parser

SNAPSHOT = Path(__file__).parent / "data" / "cli_surface.json"


def _describe(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(action, argparse._SubParsersAction):
        choices = sorted(action.choices)
    return {
        "strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": list(choices) if choices is not None else None,
        "nargs": action.nargs,
        "const": action.const,
        "type": getattr(action.type, "__name__", None),
        "required": action.required,
        "action": type(action).__name__,
    }


def surface(parser: argparse.ArgumentParser) -> dict:
    """``{"repro <sub> ...": [argument, ...]}`` for every parser level."""
    levels = {}

    def walk(level: argparse.ArgumentParser, path: str) -> None:
        levels[path] = [_describe(action) for action in level._actions]
        for action in level._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, f"{path} {name}")

    walk(parser, "repro")
    # A JSON round trip turns tuples into lists, as in the snapshot.
    return json.loads(json.dumps(levels))


#: The deliberate differences from the snapshot: ``--machine`` takes its
#: choices from the machine table, and ``--runs``/``--jobs`` reject
#: counts below 1.
def _allowed(expected: dict, actual: dict) -> dict:
    expected = dict(expected)
    if expected["strings"] == ["--machine"]:
        expected["choices"] = actual["choices"]
        assert actual["choices"] == list(machine_names())
    if expected["strings"] in (["--runs"], ["--jobs"]):
        assert (expected["type"], actual["type"]) == ("int", "positive_int")
        expected["type"] = actual["type"]
    return expected


class TestCliSurface:
    def test_matches_snapshot(self):
        expected = json.loads(SNAPSHOT.read_text())
        actual = surface(build_parser())
        assert sorted(actual) == sorted(expected)
        for path, arguments in expected.items():
            # Declaration order only moves lines in --help; compare by dest.
            got = {a["dest"]: a for a in actual[path]}
            assert sorted(got) == sorted(a["dest"] for a in arguments), path
            for want in arguments:
                have = got[want["dest"]]
                assert _allowed(want, have) == have, (path, want["dest"])

    @pytest.mark.parametrize(
        "path", sorted(json.loads(SNAPSHOT.read_text()))
    )
    def test_help_renders(self, path, capsys):
        argv = path.split()[1:] + ["--help"]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: repro")

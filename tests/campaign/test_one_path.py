"""One way to run a batch: every batch entry point takes an executor.

Each of the eight library calls that runs a batch of seeded runs hands
its specs to :func:`~repro.campaign.run_campaign`, and an
:class:`~repro.campaign.executor.Executor` is the only argument that
says how they run.  These tests hold every entry point to the same
result on a shared parallel executor as on its serial default, and
check that the executor really ran the batch — an entry point that
dropped its executor would still return the right answer, serially.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro.api as api
from repro.analysis.comparison import compare_policies, sweep
from repro.analysis.figure3 import figure3_sweep
from repro.axiomatic.crosscheck import crosscheck_models
from repro.campaign import (
    Executor,
    ParallelExecutor,
    PolicySpec,
    run_campaign,
)
from repro.conformance import run_conformance
from repro.litmus.catalog import fig1_dekker
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import Def2Policy, RelaxedPolicy, SCPolicy

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _dekker_specs():
    return LitmusRunner().campaign_specs(
        fig1_dekker(), PolicySpec.of(RelaxedPolicy), NET_NOCACHE, 4, 7
    )


def _program():
    return fig1_dekker().program


#: name -> (entry point, keyword arguments, comparable view of its result)
ENTRY_POINTS = {
    "run_campaign": (
        run_campaign,
        lambda: {"specs": _dekker_specs()},
        lambda campaign: campaign.results,
    ),
    "LitmusRunner.run": (
        LitmusRunner().run,
        lambda: {
            "test": fig1_dekker(), "policy_factory": RelaxedPolicy,
            "config": NET_NOCACHE, "runs": 4,
        },
        lambda result: result,
    ),
    "run_conformance": (
        run_conformance,
        lambda: {
            "configs": [NET_NOCACHE], "policies": [SCPolicy, RelaxedPolicy],
            "tests": [fig1_dekker()], "runs_per_test": 2,
        },
        lambda report: report,
    ),
    "crosscheck_models": (
        crosscheck_models,
        lambda: {
            "tests": [fig1_dekker()], "policies": ["SC", "TSO"],
            "configs": [NET_NOCACHE], "runs_per_test": 2,
        },
        lambda report: report,
    ),
    "api.crosscheck": (
        api.crosscheck,
        lambda: {
            "tests": ["message_passing"], "policies": ["SC"],
            "configs": ["net_nocache"], "runs_per_test": 2,
        },
        lambda report: report,
    ),
    "figure3_sweep": (
        figure3_sweep,
        lambda: {"latencies": [4, 8], "seeds": [1]},
        lambda rows: rows,
    ),
    "compare_policies": (
        compare_policies,
        lambda: {
            "program_factory": _program,
            "policies": [SCPolicy, Def2Policy], "runs": 2,
        },
        lambda rows: rows,
    ),
    "sweep": (
        sweep,
        lambda: {
            "parameter_values": [4, 8],
            "program_for": lambda value: _program,
            "config_for": lambda value: NET_NOCACHE.with_overrides(
                network_base_latency=value
            ),
            "policies": [SCPolicy, Def2Policy], "runs": 2,
        },
        lambda points: points,
    ),
}


@pytest.fixture(scope="module")
def shared_pool():
    with ParallelExecutor(jobs=2) as executor:
        yield executor


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_runs_on_the_executor_it_is_given(
    name, shared_pool, monkeypatch
):
    call, kwargs, view = ENTRY_POINTS[name]
    serial = view(call(**kwargs()))

    batches = []
    real_map = shared_pool.map

    def spy(specs, on_result=None):
        specs = list(specs)
        batches.append(len(specs))
        return real_map(specs, on_result=on_result)

    monkeypatch.setattr(shared_pool, "map", spy)
    parallel = view(call(executor=shared_pool, **kwargs()))

    assert parallel == serial
    # Batches of two or more specs take the pool path on jobs=2.
    assert batches and max(batches) >= 2
    assert shared_pool._pool is not None


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_has_no_worker_count_options(name):
    parameters = inspect.signature(ENTRY_POINTS[name][0]).parameters
    assert "executor" in parameters
    assert not {"jobs", "run_timeout", "retries"} & set(parameters)


def test_executor_carries_no_per_call_state():
    assert not hasattr(Executor, "result_callback")
    parameters = inspect.signature(ParallelExecutor).parameters
    assert "backoff_jitter" not in parameters
    assert "on_result" in inspect.signature(Executor.map).parameters


#: The modules allowed to import the ``repro.api`` facade: the facade
#: itself, the CLI built on it, and the package root re-exporting it.
FACADE_IMPORTERS = {"api.py", "cli.py", "__init__.py"}


def _imports_facade(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.api" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.api":
                return True
            if node.module == "repro" and any(
                alias.name == "api" for alias in node.names
            ):
                return True
    return False


def test_library_modules_do_not_import_the_facade():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if str(relative) in FACADE_IMPORTERS:
            continue
        if _imports_facade(ast.parse(path.read_text(), str(path))):
            offenders.append(str(relative))
    assert offenders == []

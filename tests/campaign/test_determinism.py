"""Serial/parallel equivalence: the campaign layer's core guarantee.

For a fixed ``(test, policy, config, base_seed)`` the parallel executor
must reproduce the serial executor's histograms and ``sc_violations``
exactly — scheduling (worker count, completion order) can never leak
into results.  The quick tests cover representative cells; the ``slow``
test sweeps the whole litmus catalog.
"""

import pytest

from repro.campaign import ParallelExecutor, SerialExecutor
from repro.conformance import run_conformance
from repro.litmus.catalog import (
    fig1_dekker,
    fig1_dekker_all_sync,
    message_passing_sync,
    standard_catalog,
)
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_CACHE, NET_NOCACHE
from repro.models.policies import Def2Policy, RelaxedPolicy, SCPolicy


@pytest.fixture(scope="module")
def parallel():
    with ParallelExecutor(jobs=2) as executor:
        yield executor


def _assert_equivalent(runner, parallel, test, policy, config, runs=15, seed=77):
    serial_result = runner.run(
        test, policy, config, runs=runs, base_seed=seed,
        executor=SerialExecutor(),
    )
    parallel_result = runner.run(
        test, policy, config, runs=runs, base_seed=seed, executor=parallel
    )
    assert serial_result.histogram == parallel_result.histogram
    assert serial_result.sc_violations == parallel_result.sc_violations
    assert serial_result.completed_runs == parallel_result.completed_runs
    assert serial_result.mean_cycles == parallel_result.mean_cycles


class TestRunnerEquivalence:
    def test_relaxed_on_network(self, parallel):
        _assert_equivalent(
            LitmusRunner(), parallel, fig1_dekker(), RelaxedPolicy, NET_NOCACHE
        )

    def test_def2_on_caches(self, parallel):
        _assert_equivalent(
            LitmusRunner(), parallel, message_passing_sync(), Def2Policy,
            NET_CACHE, runs=10,
        )

    @pytest.mark.slow
    def test_full_catalog_equivalence(self, parallel):
        runner = LitmusRunner()
        for test in standard_catalog():
            for policy, config in (
                (RelaxedPolicy, NET_NOCACHE),
                (SCPolicy, NET_NOCACHE),
                (Def2Policy, NET_CACHE),
            ):
                _assert_equivalent(
                    runner, parallel, test, policy, config, runs=12
                )


class TestConformanceEquivalence:
    def test_small_grid_equivalence(self, parallel):
        kwargs = dict(
            configs=[NET_NOCACHE, NET_CACHE],
            policies=[RelaxedPolicy, SCPolicy, Def2Policy],
            tests=[fig1_dekker(), fig1_dekker_all_sync()],
            runs_per_test=8,
        )
        serial_report = run_conformance(executor=SerialExecutor(), **kwargs)
        parallel_report = run_conformance(executor=parallel, **kwargs)
        for s_cell, p_cell in zip(serial_report.cells, parallel_report.cells):
            assert s_cell.config_name == p_cell.config_name
            assert s_cell.policy_name == p_cell.policy_name
            assert s_cell.verdict == p_cell.verdict
            assert s_cell.violations == p_cell.violations
            assert s_cell.incomplete == p_cell.incomplete


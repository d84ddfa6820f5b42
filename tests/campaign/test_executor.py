"""Serial and parallel executors: ordering, equivalence, lifecycle."""

import pickle

from repro.campaign import (
    ParallelExecutor,
    PolicySpec,
    RunSpec,
    SerialExecutor,
    default_executor,
    run_campaign,
)
from repro.litmus.catalog import fig1_dekker
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy


def _specs(n):
    program = fig1_dekker().program
    policy = PolicySpec.of(RelaxedPolicy)
    return [
        RunSpec(program=program, policy=policy, config=NET_NOCACHE, seed=seed)
        for seed in range(n)
    ]


class TestSerialExecutor:
    def test_preserves_spec_order(self):
        specs = _specs(6)
        results = SerialExecutor().map(specs)
        assert len(results) == 6
        # Same seed -> same result; order must match the spec list.
        again = SerialExecutor().map(specs)
        assert pickle.dumps(results) == pickle.dumps(again)


class TestParallelExecutor:
    def test_byte_identical_to_serial(self):
        specs = _specs(8)
        serial = SerialExecutor().map(specs)
        with ParallelExecutor(jobs=2) as executor:
            parallel = executor.map(specs)
            assert executor._pool is not None
        # Per-result pickles (list-level pickling shares memoised
        # sub-objects between in-process results, which is layout, not
        # data).
        assert [pickle.dumps(r) for r in serial] == [
            pickle.dumps(r) for r in parallel
        ]

    def test_single_spec_short_circuits(self):
        executor = ParallelExecutor(jobs=2)
        try:
            results = executor.map(_specs(1))
            assert len(results) == 1
            assert executor._pool is None  # never spawned workers
        finally:
            executor.close()

    def test_pool_reused_across_batches(self):
        with ParallelExecutor(jobs=2) as executor:
            executor.map(_specs(3))
            pool = executor._pool
            executor.map(_specs(3))
            assert executor._pool is pool

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(jobs=2)
        executor.map(_specs(2))
        executor.close()
        executor.close()


class TestDefaultExecutor:
    def test_serial_for_one_job(self):
        assert isinstance(default_executor(1), SerialExecutor)
        assert isinstance(default_executor(None), SerialExecutor)

    def test_parallel_above_one(self):
        executor = default_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 3


class TestRunCampaign:
    def test_metrics_summarise_the_batch(self):
        campaign = run_campaign(_specs(5), label="unit")
        assert len(campaign) == 5
        metrics = campaign.metrics
        assert metrics.label == "unit"
        assert metrics.runs == 5
        assert metrics.completed_runs == 5
        assert metrics.completion_rate == 1.0
        assert metrics.wall_clock_seconds > 0
        assert metrics.runs_per_second > 0
        assert metrics.jobs == 1

    def test_metrics_hooks_observe_campaigns(self):
        from repro.campaign import register_metrics_hook, unregister_metrics_hook

        seen = []
        hook = seen.append
        register_metrics_hook(hook)
        try:
            run_campaign(_specs(2), label="observed")
        finally:
            unregister_metrics_hook(hook)
        assert [m.label for m in seen] == ["observed"]
        assert "runs_per_second" in seen[0].to_dict()

    def test_parallel_executor_matches_serial_default(self):
        specs = _specs(4)
        serial = run_campaign(specs).results
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_campaign(specs, executor=executor).results
        assert [pickle.dumps(r) for r in serial] == [
            pickle.dumps(r) for r in parallel
        ]

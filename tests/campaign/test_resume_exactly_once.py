"""Exactly-once resume, at every kill point and for every result shape.

The journal's contract is that a campaign killed at *any* instant
resumes executing only the remainder, journals each spec exactly once,
and ends with results byte-identical to an uninterrupted campaign.
``test_journal.py`` checks that at one or two kill points on one
program; this module sweeps the axes the contract quantifies over:

* every record boundary of a batch (kill after 0, 1, ..., n-1 results);
* a torn final record cut from its first byte to its last (the kill
  landed mid-append);
* every catalog program, whose observables differ in shape;
* every policy on both cores, whose stall tables hold different
  :class:`~repro.sim.stats.StallReason` members, through the result
  cache as well as the journal.
"""

import json
import pickle

import pytest

from repro.campaign import (
    CampaignJournal,
    PolicySpec,
    ResultCache,
    RunSpec,
    SerialExecutor,
    execute_spec_guarded,
    run_campaign,
)
from repro.litmus.catalog import catalog_by_name
from repro.memsys.config import NET_CACHE, NET_NOCACHE
from repro.models.base import registered_policies
from repro.models.policies import RelaxedPolicy, policy_by_name
from repro.testing.chaos import assert_exactly_once

CATALOG = catalog_by_name()
BATCH = 8


def _specs(program=None, policy=None, config=NET_NOCACHE, n=BATCH):
    program = program or CATALOG["fig1_dekker"].executable_program()
    policy = policy or PolicySpec.of(RelaxedPolicy)
    return [
        RunSpec(program=program, policy=policy, config=config, seed=seed)
        for seed in range(n)
    ]


def _pickles(results):
    return [pickle.dumps(result) for result in results]


def _baseline(specs):
    return {spec.digest(): execute_spec_guarded(spec) for spec in specs}


class CountingExecutor(SerialExecutor):
    """Counts real executions, so replays are observable."""

    def __init__(self):
        super().__init__()
        self.executed = 0

    def map(self, batch, on_result=None):
        self.executed += len(batch)
        return super().map(batch, on_result)


class KillingExecutor(SerialExecutor):
    """Dies (in-process stand-in for SIGKILL) before run ``after``."""

    def __init__(self, after):
        super().__init__()
        self.after = after

    def map(self, batch, on_result=None):
        out = []
        for i, spec in enumerate(batch):
            if i == self.after:
                raise KeyboardInterrupt("simulated kill")
            result = execute_spec_guarded(spec)
            on_result(i, result)
            out.append(result)
        return out


class TestKillAtEveryRecordBoundary:
    @pytest.mark.parametrize("after", range(BATCH))
    def test_resume_executes_the_remainder_exactly_once(
        self, tmp_path, after
    ):
        path = tmp_path / "j.jsonl"
        specs = _specs()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(specs, executor=KillingExecutor(after), journal=path)
        with CampaignJournal(path) as journal:
            assert len(journal) == after
            assert journal.torn_records == 0

        counting = CountingExecutor()
        resumed = run_campaign(specs, executor=counting, journal=path)
        assert counting.executed == BATCH - after
        assert resumed.metrics.journal_replayed == after
        assert resumed.metrics.journal_appends == BATCH - after

        baseline = _baseline(specs)
        assert_exactly_once(path, baseline)
        assert _pickles(resumed.results) == _pickles(
            baseline[spec.digest()] for spec in specs
        )


def _tear_last_record(path, keep):
    """Truncate ``path`` inside its final result record.

    ``keep`` is the fraction of that record's bytes (newline excluded)
    left on disk, as a kill mid-append would leave them.
    """
    raw = path.read_bytes()
    body = raw[:-1]  # the final newline
    start = body.rindex(b"\n") + 1
    assert json.loads(body[start:])["type"] == "result"
    cut = start + max(1, int((len(body) - start) * keep))
    cut = min(cut, len(body) - 1)
    path.write_bytes(raw[:cut])


class TestTornFinalRecord:
    @pytest.mark.parametrize(
        "keep", [0.0, 0.05, 0.25, 0.5, 0.75, 0.99],
        ids=lambda keep: f"keep{int(keep * 100)}",
    )
    def test_torn_record_is_rerun_and_its_fragment_stays_sealed(
        self, tmp_path, keep
    ):
        path = tmp_path / "j.jsonl"
        specs = _specs(n=4)
        run_campaign(specs, journal=path, label="t")
        _tear_last_record(path, keep)
        with CampaignJournal(path) as journal:
            assert journal.torn_records == 1
            assert len(journal) == 3
            assert specs[-1].digest() not in journal

        counting = CountingExecutor()
        resumed = run_campaign(
            specs, executor=counting, journal=path, label="resume"
        )
        assert counting.executed == 1
        assert resumed.metrics.journal_appends == 1

        # The fragment stays one unparseable line: the resume's header
        # and re-run record after it are whole, so a second reopen sees
        # both campaigns and replays all four results.
        with CampaignJournal(path) as journal:
            assert journal.torn_records == 1
            assert len(journal) == 4
            assert [c["label"] for c in journal.campaigns] == [
                "t", "resume",
            ]
        baseline = _baseline(specs)
        assert_exactly_once(path, baseline)
        assert _pickles(resumed.results) == _pickles(
            baseline[spec.digest()] for spec in specs
        )

    def test_record_missing_only_its_newline_is_kept(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = _specs(n=4)
        run_campaign(specs, journal=path, label="t")
        path.write_bytes(path.read_bytes()[:-1])
        with CampaignJournal(path) as journal:
            assert journal.torn_records == 0
            assert len(journal) == 4

        # A new campaign header must not fuse with the unterminated
        # record: both survive the next reopen.
        counting = CountingExecutor()
        run_campaign(specs, executor=counting, journal=path, label="again")
        assert counting.executed == 0
        with CampaignJournal(path) as journal:
            assert journal.torn_records == 0
            assert len(journal) == 4
            assert [c["label"] for c in journal.campaigns] == ["t", "again"]
        assert_exactly_once(path, _baseline(specs))


class TestEveryCatalogProgram:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_journal_replay_is_byte_identical(self, tmp_path, name):
        path = tmp_path / "j.jsonl"
        specs = _specs(
            program=CATALOG[name].executable_program(),
            config=NET_CACHE,
            n=3,
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(specs, executor=KillingExecutor(2), journal=path)
        counting = CountingExecutor()
        resumed = run_campaign(specs, executor=counting, journal=path)
        assert counting.executed == 1

        baseline = _baseline(specs)
        assert all(result.ok for result in baseline.values())
        assert_exactly_once(path, baseline)
        assert _pickles(resumed.results) == _pickles(
            baseline[spec.digest()] for spec in specs
        )


POLICY_CORES = [
    (name, core)
    for name, cls in sorted(registered_policies().items())
    for core in cls.supported_cores
]


class TestEveryPolicyThroughTheCache:
    @pytest.mark.parametrize(
        "policy,core", POLICY_CORES,
        ids=[f"{name}-{core}" for name, core in POLICY_CORES],
    )
    def test_cached_and_journaled_results_are_byte_identical(
        self, tmp_path, policy, core
    ):
        specs = _specs(
            program=CATALOG["fig1_dekker_sync"].executable_program(),
            policy=PolicySpec.of(policy_by_name(policy, core=core)),
            config=NET_CACHE,
            n=3,
        )
        assert all(spec.policy.core == core for spec in specs)
        baseline = _baseline(specs)
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "j.jsonl"
        run_campaign(specs, cache=cache, journal=path)

        # A fresh cache object over the same directory, and a fresh
        # journal over the same file, each answer every spec alone.
        reopened = ResultCache(tmp_path / "cache")
        for spec in specs:
            assert pickle.dumps(reopened.get(spec)) == pickle.dumps(
                baseline[spec.digest()]
            )
        assert_exactly_once(path, baseline)

        counting = CountingExecutor()
        cached = run_campaign(
            specs, executor=counting, cache=ResultCache(tmp_path / "cache")
        )
        assert counting.executed == 0
        assert cached.metrics.cache_hits == len(specs)
        assert _pickles(cached.results) == _pickles(
            baseline[spec.digest()] for spec in specs
        )

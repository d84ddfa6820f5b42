"""Durable exploration: a journaled walk, killed or preempted, then resumed.

A journaled search records its identity once and each schedule's result
as it is folded.  Walked again over its journal, it folds every
journaled schedule without running it and runs the rest, forking as
usual.  Killing the search at any point and resuming must visit the
identical schedule set and produce the identical report, with only the
schedules missing from the journal executed again.
"""

import dataclasses
import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.api import catalog_by_name
from repro.campaign import (
    CampaignJournal,
    JournalError,
    PolicySpec,
    RunSpec,
    current_token,
    execute_spec_guarded,
    register_metrics_hook,
    unregister_metrics_hook,
)
from repro.explore import explorer
from repro.explore.explorer import SEARCH_CHECKPOINT, explore_program
from repro.litmus.catalog import fig1_dekker
from repro.memsys.config import NET_CACHE, NET_NOCACHE
from repro.memsys.system import ConfigurationError, ensure_compatible
from repro.models.policies import RelaxedPolicy, policy_by_name
from repro.trace.tracer import TraceSpec
from tests.explore.replay_reference import replay_search, report_key

#: A journal the breadth-first wave explorer of earlier releases wrote
#: for ``fig1_dekker`` x RELAXED at delay bound 2, killed after five
#: schedules: two frontier checkpoints, two campaign headers, five
#: results.
WAVE_JOURNAL = Path(__file__).parents[1] / "data" / "explore_wave_journal.jsonl"
CATALOG = catalog_by_name()


class _Runs:
    """Counts schedules executed (``RunSpec.run_system`` calls); with
    ``kill_after`` set, the next call raises ``KeyboardInterrupt`` (an
    in-process stand-in for SIGKILL), and with ``preempt_after`` set it
    requests a graceful stop instead."""

    def __init__(self):
        self.executed = 0
        self.kill_after = self.preempt_after = None

    def install(self, monkeypatch):
        run_system = RunSpec.run_system

        def counted(spec, system):
            if self.executed == self.kill_after:
                raise KeyboardInterrupt("simulated kill")
            if self.executed == self.preempt_after:
                current_token().request()
            self.executed += 1
            return run_system(spec, system)

        monkeypatch.setattr(RunSpec, "run_system", counted)


@pytest.fixture
def runs(monkeypatch):
    counter = _Runs()
    counter.install(monkeypatch)
    return counter


def _explore(**kwargs):
    return explore_program(
        fig1_dekker().program, RelaxedPolicy, max_delays=2, **kwargs
    )


def _journaled(path):
    """The result records and the identity checkpoints in a journal."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return (
        sum(record["type"] == "result" for record in records),
        sum(record.get("kind") == SEARCH_CHECKPOINT for record in records),
    )


class TestJournaledExploration:
    def test_journaled_search_matches_plain_search(self, tmp_path):
        plain = _explore()
        path = tmp_path / "j.jsonl"
        journaled = _explore(journal=path)
        assert report_key(journaled) == report_key(plain)
        assert journaled.exhausted
        assert _journaled(path) == (plain.runs, 1)

    def test_resume_of_finished_search_executes_nothing(self, tmp_path, runs):
        path = tmp_path / "j.jsonl"
        first = _explore(journal=path)
        runs.executed = 0
        again = _explore(journal=path, resume=True)
        assert runs.executed == 0
        assert report_key(again) == report_key(first)
        # Nothing new to record: not even the identity again.
        assert _journaled(path) == (first.runs, 1)

    def test_campaign_metrics_count_appends_and_replays(self, tmp_path):
        records = []
        hook = lambda metrics: records.append(metrics)
        register_metrics_hook(hook)
        try:
            path = tmp_path / "j.jsonl"
            first = _explore(journal=path)
            _explore(journal=path, resume=True)
        finally:
            unregister_metrics_hook(hook)
        assert [
            (m.runs, m.journal_appends, m.journal_replayed) for m in records
        ] == [(first.runs, first.runs, 0), (first.runs, 0, first.runs)]


class TestCrashResume:
    @pytest.mark.parametrize("after", (0, 3, 20))
    def test_kill_then_resume_is_byte_identical(self, tmp_path, runs, after):
        path = tmp_path / "j.jsonl"
        runs.kill_after = after
        with pytest.raises(KeyboardInterrupt):
            _explore(journal=path)
        # The journal survived the kill: it holds the identity and one
        # record per schedule that finished (its ancestors were still
        # running).
        journaled, identities = _journaled(path)
        assert identities == 1
        assert journaled < after or after == 0 == journaled

        runs.kill_after, runs.executed = None, 0
        resumed = _explore(journal=path, resume=True)
        executed = runs.executed
        clean = _explore()
        assert report_key(resumed) == report_key(clean)
        assert resumed.exhausted
        # Only the remainder re-executed.
        assert executed == clean.runs - journaled

    def test_double_kill_then_resume(self, tmp_path, runs):
        path = tmp_path / "j.jsonl"
        for after in (2, 4):
            runs.kill_after, runs.executed = after, 0
            with pytest.raises(KeyboardInterrupt):
                _explore(journal=path, resume=path.exists())
        runs.kill_after = None
        resumed = _explore(journal=path, resume=True)
        assert report_key(resumed) == report_key(_explore())

    def test_resume_rejects_changed_search_parameters(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _explore(journal=path)
        with pytest.raises(JournalError, match="different exploration"):
            explore_program(
                fig1_dekker().program, RelaxedPolicy, max_delays=3,
                journal=path, resume=True,
            )

    def test_resume_of_a_wave_mode_journal(self, tmp_path, runs):
        """A journal the wave explorer wrote resumes to the plain report,
        folding the five schedules it holds."""
        path = tmp_path / "j.jsonl"
        shutil.copy(WAVE_JOURNAL, path)
        with CampaignJournal(path) as journal:
            assert len(journal) == 5
            assert journal.last_checkpoint(SEARCH_CHECKPOINT) is not None
        resumed = _explore(journal=path, resume=True)
        executed = runs.executed
        clean = _explore()
        assert report_key(resumed) == report_key(clean)
        assert executed == clean.runs - 5


class TestTruncatedExploration:
    def test_journaled_and_resumed_searches_truncate_alike(
        self, tmp_path, runs
    ):
        """A search cut short by ``max_runs`` keeps the same depth-first
        prefix of the tree, journaled or resumed after a kill."""
        program = CATALOG["iriw"].executable_program()
        search = dict(max_delays=2, max_runs=7)
        plain = explore_program(program, PolicySpec("DEF2"), **search)
        assert plain.runs == 7 and not plain.exhausted
        path = tmp_path / "j.jsonl"
        journaled = explore_program(
            program, PolicySpec("DEF2"), journal=path, **search
        )
        killed = tmp_path / "killed.jsonl"
        runs.kill_after, runs.executed = 4, 0
        with pytest.raises(KeyboardInterrupt):
            explore_program(
                program, PolicySpec("DEF2"), journal=killed, **search
            )
        runs.kill_after = None
        resumed = explore_program(
            program, PolicySpec("DEF2"), journal=killed, resume=True,
            **search,
        )
        assert report_key(journaled) == report_key(plain)
        assert report_key(resumed) == report_key(plain)


class TestPreemptedExploration:
    def test_preempted_search_is_resumable(self, tmp_path, runs):
        path = tmp_path / "j.jsonl"
        runs.preempt_after = 3
        report = _explore(journal=path)
        assert report.preempted
        assert not report.exhausted
        assert "PREEMPTED" in report.describe()

        runs.preempt_after = None
        resumed = _explore(journal=path, resume=True)
        clean = _explore()
        assert not resumed.preempted
        assert report_key(resumed) == report_key(clean)


# -- plain, journaled, killed-and-resumed and replayed searches agree ------

MODES = {
    "plain": {},
    "traced": {"trace": TraceSpec()},
    "sanitize-strict": {"sanitize": "strict"},
}
TIER1_PROGRAMS = ("fig1_dekker_sync_warm", "message_passing", "iriw")


def _assert_searches_agree(monkeypatch, tmp_path, program, policy, config,
                           options):
    policy_spec = PolicySpec(policy)
    search = dict(max_delays=2, config=config, **options)
    plain = explore_program(program, policy_spec, **search)
    reference = replay_search(program, policy_spec, **search)
    assert report_key(plain) == report_key(reference)

    journal = tmp_path / f"{program.name}-{policy}-{config.name}.jsonl"
    journaled = explore_program(program, policy_spec, journal=journal,
                                **search)
    assert report_key(journaled) == report_key(plain)

    # Kill a fresh journaled search halfway through, then resume it.
    killed = journal.with_suffix(".killed.jsonl")
    counter = _Runs()
    counter.kill_after = plain.runs // 2
    with monkeypatch.context() as patch:
        counter.install(patch)
        with pytest.raises(KeyboardInterrupt):
            explore_program(program, policy_spec, journal=killed, **search)
    with CampaignJournal(killed) as held:
        journaled = set(held.replayed)
    folded = []
    fold = explorer._Walk._fold
    with monkeypatch.context() as patch:
        patch.setattr(
            explorer._Walk, "_fold",
            lambda self, prefix, result: (
                folded.append((prefix, result)), fold(self, prefix, result)
            ),
        )
        resumed = explore_program(program, policy_spec, journal=killed,
                                  resume=True, **search)
    assert report_key(resumed) == report_key(plain)
    assert len(folded) == plain.runs
    # Every folded schedule equals a fresh replay, pickled per result (a
    # pickled list would memoize strings shared across results).  One
    # read back from the journal equals the fresh replay's journal
    # record read back: a pickle round trip drops the sharing between a
    # trace event's name and an interned string of the same value.
    base = RunSpec(
        program=program, policy=policy_spec,
        config=config.with_overrides(start_skew=0), seed=0,
        max_cycles=200_000, schedule=(), **options,
    )
    for prefix, result in folded:
        spec = dataclasses.replace(base, schedule=prefix)
        fresh = execute_spec_guarded(spec)
        if spec.digest() in journaled:
            fresh = pickle.loads(pickle.dumps(fresh))
        assert pickle.dumps(result) == pickle.dumps(fresh), prefix


def _buildable(policy, config):
    try:
        ensure_compatible(policy_by_name(policy), config, "simple")
    except ConfigurationError:
        return False
    return True


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", (NET_CACHE, NET_NOCACHE),
                         ids=lambda c: c.name)
@pytest.mark.parametrize("policy", ("SC", "DEF2", "RELAXED"))
def test_searches_agree(monkeypatch, tmp_path, policy, config, mode):
    if not _buildable(policy, config):
        with pytest.raises(ConfigurationError, match="requires caches"):
            explore_program(
                CATALOG["iriw"].executable_program(), PolicySpec(policy),
                config=config, journal=tmp_path / "j.jsonl", **MODES[mode],
            )
        return
    for name in TIER1_PROGRAMS:
        _assert_searches_agree(
            monkeypatch, tmp_path, CATALOG[name].executable_program(),
            policy, config, MODES[mode],
        )


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", (NET_CACHE, NET_NOCACHE),
                         ids=lambda c: c.name)
@pytest.mark.parametrize("policy", ("SC", "DEF2", "RELAXED"))
def test_searches_agree_full_catalog(monkeypatch, tmp_path, policy, config,
                                     mode):
    if not _buildable(policy, config):
        pytest.skip("the policy needs caches")
    for test in CATALOG.values():
        _assert_searches_agree(
            monkeypatch, tmp_path, test.executable_program(), policy,
            config, MODES[mode],
        )

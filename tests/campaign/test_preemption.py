"""Graceful preemption: cooperative stop, drain, distinct exit status.

In-process tests drive the :class:`PreemptionToken` programmatically
(the signal handler is just one way to flip it); subprocess tests send
real SIGTERM/SIGINT at a running CLI campaign and check the promised
behaviour: journal flushed, exit status 75, no orphaned workers.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.campaign import (
    ParallelExecutor,
    PolicySpec,
    RunSpec,
    SerialExecutor,
    current_token,
    graceful_preemption,
    preempted_result,
    run_campaign,
)
from repro.campaign.spec import DETERMINISTIC_FAILURES
from repro.litmus.catalog import fig1_dekker
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _specs(n=6):
    return [
        RunSpec(
            program=fig1_dekker().program,
            policy=PolicySpec.of(RelaxedPolicy),
            config=NET_NOCACHE,
            seed=seed,
        )
        for seed in range(n)
    ]


def _preempted(results):
    """How many results a preemption filled in."""
    return sum(
        r.failure is not None and r.failure.kind == "preempted"
        for r in results
    )


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestToken:
    def test_preempted_is_a_failure_kind_but_not_deterministic(self):
        result = preempted_result()
        assert result.failure.kind == "preempted"
        assert "preempted" not in DETERMINISTIC_FAILURES

    def test_nested_contexts_share_the_outermost_token(self):
        with graceful_preemption() as outer:
            with graceful_preemption() as inner:
                assert inner is outer
                assert current_token() is outer
            assert current_token() is outer
        assert current_token() is None

    def test_token_records_first_signum_only(self):
        from repro.campaign import PreemptionToken

        token = PreemptionToken()
        token.request(signal.SIGTERM)
        token.request(signal.SIGINT)
        assert token.signum == signal.SIGTERM


class TestSerialPreemption:
    def test_requested_token_stops_the_batch(self):
        specs = _specs(6)

        class PreemptingSpec(type(specs[2])):
            def execute(self):
                current_token().request()
                return super().execute()

        specs[2] = PreemptingSpec(
            program=specs[2].program, policy=specs[2].policy,
            config=specs[2].config, seed=specs[2].seed,
        )
        executor = SerialExecutor()
        results = executor.map(specs)
        assert len(results) == 6
        # Specs 0-2 ran (2 requested the stop *during* its own run, so
        # it still finished); 3-5 were skipped as preempted.
        for i in (0, 1, 2):
            assert results[i].failure is None
        for i in (3, 4, 5):
            assert results[i].failure is not None
            assert results[i].failure.kind == "preempted"
        assert _preempted(results) == 3

    def test_campaign_reports_preempted_metrics(self, tmp_path):
        specs = _specs(4)

        class PreemptAfterFirst(SerialExecutor):
            def map(self, batch, on_result=None):
                with graceful_preemption() as token:
                    results = []
                    for i, spec in enumerate(batch):
                        if i >= 1:
                            result = preempted_result(token)
                        else:
                            result = spec.execute()
                        on_result(i, result)
                        results.append(result)
                    return results

        campaign = run_campaign(
            specs, executor=PreemptAfterFirst(),
            journal=tmp_path / "j.jsonl",
        )
        assert campaign.preempted
        assert campaign.metrics.preempted
        assert campaign.metrics.preempted_runs == 3
        assert campaign.metrics.journal_appends == 1
        assert "PREEMPTED" in campaign.metrics.describe()
        # The preempted slots are environmental: a resume re-runs them.
        resumed = run_campaign(specs, journal=tmp_path / "j.jsonl")
        assert not resumed.preempted
        assert resumed.metrics.journal_replayed == 1
        clean = run_campaign(specs)
        assert [pickle.dumps(r) for r in clean.results] == [
            pickle.dumps(r) for r in resumed.results
        ]


class TestParallelPreemption:
    def test_preexisting_request_preempts_whole_batch(self):
        specs = _specs(4)
        with graceful_preemption() as token:
            token.request()
            with ParallelExecutor(jobs=2) as executor:
                results = executor.map(specs)
        assert all(
            r.failure is not None and r.failure.kind == "preempted"
            for r in results
        )
        assert _preempted(results) == 4

    def test_small_batch_short_circuit_honours_preemption(self):
        # A single-spec batch runs in-process, through the serial loop:
        # a stop requested before it starts preempts it too.
        specs = _specs(1)
        with graceful_preemption() as token:
            token.request()
            with ParallelExecutor(jobs=2) as executor:
                results = executor.map(specs)
        assert results[0].failure.kind == "preempted"
        assert _preempted(results) == 1

    @pytest.mark.parametrize(
        "make",
        [SerialExecutor, lambda: ParallelExecutor(jobs=1)],
        ids=["serial", "parallel-jobs-1"],
    )
    def test_in_process_path_stops_on_a_mid_batch_request(self, make):
        # The first result asks for a stop, as SIGTERM would: the
        # in-process loop must see a token and skip the other three.
        seen = []

        def request_once(index, result):
            token = current_token()
            seen.append(token)
            if index == 0:
                token.request()

        with make() as executor:
            results = executor.map(_specs(4), on_result=request_once)
        assert all(token is not None for token in seen)
        assert results[0].failure is None
        assert [r.failure.kind for r in results[1:]] == ["preempted"] * 3
        assert _preempted(results) == 3

    def test_mid_batch_request_drains_and_preempts_remainder(self):
        from tests.campaign.test_robustness import SleepingSpec, _spec

        # A fast head and a slow tail: when the first result fires the
        # callback, the tail futures are still queued behind two busy
        # workers, so the cancel provably catches some of them.
        specs = _specs(2) + [
            _spec(SleepingSpec, seed=s, sleep_seconds=0.3)
            for s in range(2, 8)
        ]
        with ParallelExecutor(jobs=2, preempt_drain=10.0) as executor:
            fired = []

            def request_once(index, result):
                if not fired:
                    fired.append(index)
                    current_token().request()

            results = executor.map(specs, on_result=request_once)
        preempted = [
            r for r in results
            if r.failure is not None and r.failure.kind == "preempted"
        ]
        completed = [r for r in results if r.failure is None]
        # Every spec is accounted for: finished runs keep real results,
        # the rest are preempted (how many of each is a race between
        # the two workers and the cancel).
        assert len(preempted) + len(completed) == 8
        assert len(preempted) >= 1


class TestSubprocessSignals:
    def _wait_for_journal(self, journal, proc, records=1, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail(
                    f"campaign exited early with {proc.returncode}"
                )
            try:
                lines = journal.read_bytes().splitlines()
            except FileNotFoundError:
                lines = []
            if sum(1 for l in lines if b'"result"' in l) >= records:
                return
            time.sleep(0.01)
        pytest.fail("journal never grew; campaign appears stuck")

    def test_sigterm_flushes_journal_and_exits_preempted(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "litmus", "fig1_dekker",
                "--machine", "net_nocache", "--runs", "300",
                "--journal", str(journal),
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self._wait_for_journal(journal, proc, records=2)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 75, (out, err)
        assert b"resume with" in err
        # The journal is valid JSONL holding every completed run.
        records = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        results = [r for r in records if r["type"] == "result"]
        assert 2 <= len(results) < 300

    def test_sigint_interrupt_reaps_worker_processes(self, tmp_path):
        # The orphan regression: KeyboardInterrupt out of
        # ParallelExecutor.map must shut the pool down (children
        # reaped), not strand workers on a dead parent.  preemptible
        # off so SIGINT raises instead of being absorbed gracefully.
        root = str(Path(__file__).resolve().parents[2])
        script = tmp_path / "interrupt_me.py"
        script.write_text(textwrap.dedent(
            """
            import os
            import sys

            from repro.campaign import ParallelExecutor
            from tests.campaign.test_robustness import SleepingSpec, _spec


            def children_of(pid):
                count = 0
                for entry in os.listdir("/proc"):
                    if not entry.isdigit():
                        continue
                    try:
                        with open(f"/proc/{entry}/stat") as fh:
                            stat = fh.read()
                        ppid = int(stat.rsplit(")", 1)[1].split()[1])
                    except (OSError, IndexError, ValueError):
                        continue
                    if ppid == pid:
                        count += 1
                return count


            specs = [
                _spec(SleepingSpec, seed=s, sleep_seconds=2.0)
                for s in range(4)
            ]
            executor = ParallelExecutor(jobs=2, preemptible=False)
            print("MAPPING", flush=True)
            try:
                executor.map(specs)
            except KeyboardInterrupt:
                print("CHILDREN", children_of(os.getpid()), flush=True)
                sys.exit(42)
            print("NOT INTERRUPTED", flush=True)
            sys.exit(1)
            """
        ))
        env = _env()
        env["PYTHONPATH"] = (
            SRC + os.pathsep + root + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            env=env,
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        assert proc.stdout.readline().strip() == "MAPPING"
        time.sleep(1.0)  # let the pool spin up and start sleeping
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 42, out
        lines = dict(
            line.split(" ", 1) for line in out.splitlines() if " " in line
        )
        assert lines.get("CHILDREN") == "0", out

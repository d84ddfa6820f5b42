"""Chaos/soak harness: kill a journaled campaign, resume it, prove it.

The crash-safety claim of :mod:`repro.campaign.journal` is behavioural:
*any* campaign may die at *any* instant — ``SIGKILL`` included — and
re-running it against its journal must finish the remainder and end with
byte-identical results, every spec's result recorded exactly once.  This
module tests that claim against a real subprocess, not a simulated one:

* :class:`ChaosPlan` draws seeded kill points (journal record counts at
  which to strike, and which signal to use);
* :func:`run_supervised` launches the campaign command, watches its
  journal grow, kills it at each planned point, and relaunches it until
  the plan is exhausted — then lets the final attempt run to completion;
* :func:`assert_exactly_once` replays the raw journal and checks each
  expected digest appears exactly once with the byte-exact result;
* :func:`soak` wires the above around ``python -m repro litmus`` with an
  in-process clean baseline.

Kill points are expressed in *journal records*, not wall-clock seconds,
so a plan is meaningful on any machine speed: "kill once 7 results are
durable" lands mid-campaign whether a run takes a millisecond or a
minute.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.journal import _decode_result
from repro.campaign.spec import RunResult


@dataclass(frozen=True)
class KillPoint:
    """Strike once the journal holds ``after_records`` results."""

    after_records: int
    signum: int = signal.SIGKILL

    def describe(self) -> str:
        name = signal.Signals(self.signum).name
        return f"{name} after {self.after_records} journaled result(s)"


@dataclass
class ChaosPlan:
    """A seeded sequence of kill points for one campaign."""

    seed: int
    kills: List[KillPoint]

    @classmethod
    def seeded(
        cls,
        seed: int,
        total_runs: int,
        kills: int = 3,
        signals: Sequence[int] = (signal.SIGKILL, signal.SIGTERM),
    ) -> "ChaosPlan":
        """Draw ``kills`` strictly increasing kill points in
        ``[1, total_runs - 1]``, alternating through ``signals``.

        Increasing points matter: every relaunch starts with all prior
        records already journaled, so a later kill point is reached by
        *new* work, and each attempt makes progress before dying.
        """
        if total_runs < 2:
            raise ValueError("chaos needs a campaign of at least 2 runs")
        rnd = random.Random(seed)
        universe = list(range(1, total_runs))
        count = min(kills, len(universe))
        points = sorted(rnd.sample(universe, count))
        return cls(
            seed=seed,
            kills=[
                KillPoint(after_records=p, signum=signals[i % len(signals)])
                for i, p in enumerate(points)
            ],
        )


@dataclass
class SoakAttempt:
    """One supervised launch of the campaign command."""

    kill: Optional[KillPoint]
    records_at_kill: Optional[int]
    returncode: Optional[int]
    killed: bool

    def describe(self) -> str:
        if self.killed:
            return (
                f"killed ({self.kill.describe()}), journal held "
                f"{self.records_at_kill}, exit {self.returncode}"
            )
        return f"ran to completion, exit {self.returncode}"


@dataclass
class SoakReport:
    """What the harness did and whether the claim held."""

    plan: ChaosPlan
    journal: Path
    attempts: List[SoakAttempt] = field(default_factory=list)
    #: Result records in the journal after the final attempt.
    journaled_results: int = 0
    #: Torn (unparseable) lines tolerated across all loads.
    torn_records: int = 0
    exactly_once: bool = False
    byte_identical: bool = False

    @property
    def ok(self) -> bool:
        return self.exactly_once and self.byte_identical

    def describe(self) -> str:
        lines = [
            f"soak: {len(self.attempts)} attempt(s), "
            f"{len(self.plan.kills)} kill(s) planned (seed {self.plan.seed})"
        ]
        for i, attempt in enumerate(self.attempts):
            lines.append(f"  attempt {i}: {attempt.describe()}")
        lines.append(
            f"  journal: {self.journaled_results} result(s), "
            f"{self.torn_records} torn line(s)"
        )
        lines.append(
            "  exactly-once: " + ("PASS" if self.exactly_once else "FAIL")
        )
        lines.append(
            "  byte-identical: " + ("PASS" if self.byte_identical else "FAIL")
        )
        return "\n".join(lines)


def _journal_records(path: Path) -> Dict[str, List[RunResult]]:
    """Every decodable result record, per digest, in file order.

    Reads the *raw* lines rather than going through
    :class:`CampaignJournal` — the whole point is to check what is
    actually on disk, duplicates and all.
    """
    records: Dict[str, List[RunResult]] = {}
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return records
    for line in raw.splitlines():
        try:
            record = json.loads(line.decode("utf-8"))
            if record.get("type") != "result":
                continue
            records.setdefault(record["digest"], []).append(
                _decode_result(record["result"])
            )
        except Exception:
            continue
    return records


def _count_results(path: Path) -> int:
    """A cheap poll: complete result lines currently durable."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return 0
    return sum(
        1
        for line in raw.splitlines()
        if line.startswith(b'{"digest"') or b'"type": "result"' in line
    )


def run_supervised(
    argv: Sequence[str],
    journal: Union[str, Path],
    plan: ChaosPlan,
    env: Optional[Dict[str, str]] = None,
    poll_interval: float = 0.01,
    attempt_timeout: float = 300.0,
) -> List[SoakAttempt]:
    """Run ``argv`` under the chaos plan: kill, relaunch, repeat.

    Each planned kill gets one launch: the supervisor polls the journal
    until it holds the kill point's record count, strikes, and reaps the
    child.  A child that finishes before its kill point is recorded as a
    completed attempt and ends the plan early (the campaign is done).
    After the plan, one final unkilled launch runs to completion.
    """
    journal = Path(journal)
    attempts: List[SoakAttempt] = []
    finished = False
    for kill in plan.kills:
        proc = subprocess.Popen(
            list(argv),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        killed = False
        records = 0
        deadline = time.monotonic() + attempt_timeout
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                records = _count_results(journal)
                if records >= kill.after_records:
                    proc.send_signal(kill.signum)
                    killed = True
                    break
                time.sleep(poll_interval)
            else:
                proc.kill()
            returncode = proc.wait(timeout=attempt_timeout)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
                proc.wait()
        attempts.append(
            SoakAttempt(
                kill=kill if killed else None,
                records_at_kill=records if killed else None,
                returncode=returncode,
                killed=killed,
            )
        )
        if not killed and returncode == 0:
            # The campaign outran the kill point; nothing left to kill.
            finished = True
            break
    if not finished:
        completed = subprocess.run(
            list(argv),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=attempt_timeout,
        )
        attempts.append(
            SoakAttempt(
                kill=None,
                records_at_kill=None,
                returncode=completed.returncode,
                killed=False,
            )
        )
    return attempts


def assert_exactly_once(
    journal: Union[str, Path],
    expected: Dict[str, RunResult],
) -> None:
    """The journal must hold each expected digest exactly once, with the
    byte-exact pickled result; raises ``AssertionError`` otherwise."""
    records = _journal_records(Path(journal))
    duplicated = sorted(d for d, r in records.items() if len(r) > 1)
    assert not duplicated, (
        f"{len(duplicated)} digest(s) journaled more than once: "
        f"{duplicated[:3]}..."
    )
    missing = sorted(set(expected) - set(records))
    assert not missing, (
        f"{len(missing)} expected digest(s) missing from the journal"
    )
    for digest, result in expected.items():
        got = records[digest][0]
        assert pickle.dumps(got) == pickle.dumps(result), (
            f"journaled result for {digest[:12]} differs from the "
            f"clean-run baseline"
        )


def default_repo_env() -> Dict[str, str]:
    """A child environment whose ``PYTHONPATH`` resolves this package."""
    src = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{existing}" if existing else str(src)
    )
    return env


def soak(
    test: str = "fig1_dekker",
    policy: str = "RELAXED",
    machine: str = "net_nocache",
    runs: int = 24,
    base_seed: int = 12345,
    kills: int = 3,
    seed: int = 0,
    workdir: Union[str, Path, None] = None,
    python: str = sys.executable,
    attempt_timeout: float = 300.0,
    jobs: int = 1,
    progress=None,
) -> SoakReport:
    """Soak one litmus campaign: seeded kills, resumes, exact-once proof.

    Computes the clean baseline in-process (no journal; ``jobs``
    parallelises it and is forwarded to the supervised child, which
    exercises kill/resume under the parallel executor too), then
    drives ``python -m repro litmus ... --journal J`` through
    :func:`run_supervised` under a :class:`ChaosPlan`, and finally
    checks the journal against the baseline with
    :func:`assert_exactly_once` — reported, not raised, so callers can
    print :meth:`SoakReport.describe` before deciding to fail.
    ``progress`` prints a heartbeat while the baseline runs.
    """
    import tempfile

    from repro.campaign import (
        CampaignJournal,
        PolicySpec,
        default_executor,
        run_campaign,
    )
    from repro.litmus import load_test
    from repro.litmus.runner import LitmusRunner
    from repro.memsys.config import config_by_name
    from repro.models.policies import policy_by_name

    workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="soak-"))
    workdir.mkdir(parents=True, exist_ok=True)
    journal_path = workdir / "soak-journal.jsonl"

    # The baseline mirrors the CLI's spec construction exactly: same
    # catalog test, same policy coercion, same seed stream — so digests
    # agree between this process and the supervised child.
    runner = LitmusRunner()
    specs = runner.campaign_specs(
        load_test(test),
        PolicySpec.of(lambda: policy_by_name(policy)),
        config_by_name(machine),
        runs,
        base_seed,
    )
    with default_executor(jobs) as executor:
        baseline = run_campaign(
            specs, executor=executor, label="soak-baseline",
            progress=progress,
        )
    expected = {
        spec.digest(): result
        for spec, result in zip(specs, baseline.results)
    }

    plan = ChaosPlan.seeded(seed, total_runs=len(specs), kills=kills)
    argv = [
        python, "-m", "repro", "litmus", test,
        "--policy", policy,
        "--machine", machine,
        "--runs", str(runs),
        "--seed", str(base_seed),
        "--journal", str(journal_path),
    ]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    attempts = run_supervised(
        argv,
        journal_path,
        plan,
        env=default_repo_env(),
        attempt_timeout=attempt_timeout,
    )

    report = SoakReport(plan=plan, journal=journal_path, attempts=attempts)
    final = CampaignJournal(journal_path)
    report.journaled_results = len(final.replayed)
    report.torn_records = final.torn_records
    final.close()
    try:
        assert_exactly_once(journal_path, expected)
        report.exactly_once = True
        report.byte_identical = True
    except AssertionError:
        records = _journal_records(journal_path)
        report.exactly_once = all(len(r) == 1 for r in records.values()) and (
            set(expected) <= set(records)
        )
        report.byte_identical = False
    return report

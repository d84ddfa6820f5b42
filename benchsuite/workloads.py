"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

A workload is three functions.  ``build`` makes the inputs from the seed;
it is what ``setup_s`` times.  ``run`` is one timed pass over the inputs;
it calls ``tick()`` between items, where the timer may take a host-speed
probe.  ``check`` verifies the pass's outputs and distils its
deterministic counts, outside the timed region.  Sizes are keyword
arguments of ``build`` whose defaults are the benchmark's sizes, so tests
shrink them without a command-line flag.

Every workload keeps its cost nearly independent of the seed, because the
benchmark's spread is taken across seeds: the grid and durable workloads
vary only simulation timing seeds, and the explore and check workloads
pair the fixed litmus catalog with seeded random programs that are drawn
to a fixed shape (a candidate-space size, a lock pattern) known before
anything runs.  The shape filters read only the program text, never the
code under test, so a change to the checkers cannot change the inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.axiomatic import (
    axiomatic_model_names,
    is_straightline,
    model_by_name,
    model_for_policy,
)
from repro.core.instructions import MemInstruction
from repro.core.operation import OpKind
from repro.core.program import Program

#: Draws a seeded filter may take before its shape is declared unmet.
MAX_DRAWS = 100_000


@dataclass
class PassReport:
    """What one pass did: items attempted and failed, counts, errors."""

    items: int
    failed: int = 0
    #: Deterministic counts: equal on every pass of one seed.
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: What ``items_per_ref_s`` counts on this workload.
    item: str
    build: Callable[..., Any]
    run: Callable[[Any, Callable[[], None]], Any]
    check: Callable[[Any, Any], PassReport]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _catalog(tests: Optional[Sequence[str]]):
    """Named catalog tests, or ``None`` for the library's default list."""
    if tests is None:
        return None
    by_name = api.catalog_by_name()
    return [by_name[name] for name in tests]


def _catalog_programs(tests: Optional[Sequence[str]]) -> List[Program]:
    """Executable programs (warm-up loads included) of catalog tests."""
    by_name = api.catalog_by_name()
    names = sorted(by_name) if tests is None else list(tests)
    return [by_name[name].executable_program() for name in names]


def _mem_instructions(program: Program):
    for thread in program.threads:
        for instr in thread.instructions:
            if isinstance(instr, MemInstruction):
                yield instr


def candidate_bound(program: Program) -> int:
    """Upper bound on the axiomatic candidates of a straight-line program.

    Π over locations of (writes to it)! times Π over reads of (writes to
    the read's location + 1): every coherence order times every
    reads-from choice.
    """
    writes: Counter = Counter()
    reads: List[str] = []
    for instr in _mem_instructions(program):
        if instr.kind.writes_memory:
            writes[instr.location] += 1
        if instr.kind.reads_memory:
            reads.append(instr.location)
    bound = 1
    for count in writes.values():
        bound *= math.factorial(count)
    for location in reads:
        bound *= writes[location] + 1
    return bound


def lock_set(program: Program) -> frozenset:
    """Locations acquired by test-and-set anywhere in the program."""
    return frozenset(
        instr.location
        for instr in _mem_instructions(program)
        if instr.kind is OpKind.SYNC_RMW
    )


def _draw(make: Callable[[int], Program], seed: int, accept) -> Program:
    """The first program ``make(seed * MAX_DRAWS + i)`` that ``accept``s.

    ``accept`` returns True to take the program; the sequence of draws
    is a pure function of the seed.
    """
    for i in range(MAX_DRAWS):
        program = make(seed * MAX_DRAWS + i)
        if accept(program):
            return program
    raise ValueError(f"no program of the wanted shape in {MAX_DRAWS} draws")


def _guarded(fn, *args):
    """``fn(*args)``, or the exception it raised (an item's failure)."""
    try:
        return fn(*args)
    except Exception as exc:  # an item's failure is data, not an abort
        return exc


def _result_digests(results) -> List[str]:
    """Per-result pickle digests (never pickle the whole list: shared
    strings would be memoised across results and differ on reload)."""
    return [hashlib.sha256(pickle.dumps(r)).hexdigest() for r in results]


class _Ticker:
    """A campaign's ``progress=`` reporter that ticks the timer per run."""

    def __init__(self, tick: Callable[[], None]) -> None:
        self._tick = tick

    def add_total(self, count: int) -> None:
        pass

    def note_skipped(self, count: int) -> None:
        pass

    def tick(self, result=None) -> None:
        self._tick()


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# ----------------------------------------------------------------------
# grid: the conformance audit
# ----------------------------------------------------------------------
@dataclass
class GridInputs:
    seed: int
    runs_per_test: int
    tests: Optional[list]
    max_cycles: Optional[int]

    @property
    def test_count(self) -> int:
        return len(self.tests) if self.tests is not None else len(
            api.standard_catalog()
        )


def build_grid(seed, scratch, runs_per_test=4, tests=None, max_cycles=None):
    return GridInputs(seed, runs_per_test, _catalog(tests), max_cycles)


def run_grid(inputs: GridInputs, tick):
    # The three steps of run_conformance, kept apart to see the results.
    plan = api.plan_conformance(
        tests=inputs.tests,
        runs_per_test=inputs.runs_per_test,
        base_seed=inputs.seed,
    )
    if inputs.max_cycles is not None:
        plan.specs[:] = [
            replace(spec, max_cycles=inputs.max_cycles) for spec in plan.specs
        ]
    campaign = api.campaign(
        plan.specs, label="conformance", progress=_Ticker(tick)
    )
    return campaign, api.judge_conformance(plan, campaign)


def check_grid(inputs: GridInputs, outcome) -> PassReport:
    campaign, report = outcome
    results = campaign.results
    bad_runs = [r for r in results if not r.ok]
    report_out = PassReport(items=len(results), failed=len(bad_runs))
    if bad_runs:
        first = bad_runs[0].failure
        report_out.errors.append(
            f"{len(bad_runs)} of {len(results)} simulations failed"
            + (f": {first.describe()}" if first is not None else "")
        )
    # Definition 2's contract, not a pinned table: the SC row is SC
    # everywhere, and only RELAXED may break a model-conformant program.
    cell_items = inputs.runs_per_test * inputs.test_count
    for cell in report.cells:
        broken = (
            cell.policy_name == "SC" and cell.verdict != api.VERDICT_SC
        ) or (
            cell.policy_name != "RELAXED" and cell.verdict == api.VERDICT_BROKEN
        )
        if broken:
            report_out.failed += cell_items
            report_out.errors.append(
                f"{cell.policy_name} on {cell.config_name} is {cell.verdict}"
            )
    verdicts = Counter(cell.verdict for cell in report.cells)
    report_out.counts = {
        "simulations": len(results),
        "failed_runs": len(bad_runs),
        "sim_cycles": sum(r.cycles for r in results),
        "messages": sum(r.timings.messages for r in results),
        "stall_cycles": sum(r.timings.stall_cycles for r in results),
        "cells_sc": verdicts[api.VERDICT_SC],
        "cells_weak": verdicts[api.VERDICT_WEAK],
        "cells_broken": verdicts[api.VERDICT_BROKEN],
        "cells_na": verdicts[api.VERDICT_NA],
    }
    return report_out


# ----------------------------------------------------------------------
# explore: delay-bounded schedule search
# ----------------------------------------------------------------------
@dataclass
class ExploreInputs:
    programs: List[Program]
    max_delays: int
    #: Program index -> outcomes DEF2 may show; filled by the first check.
    reference: Optional[Dict[int, frozenset]] = None


def build_explore(
    seed, scratch, tests=None, random_programs=2, max_delays=2,
    max_bound=5000,
):
    programs = _catalog_programs(tests)
    for i in range(random_programs):
        # The bound cap keeps the reference check's candidate space small.
        programs.append(
            _draw(
                lambda s: api.random_racy_program(
                    s, num_procs=2, ops_per_proc=4
                ),
                seed * random_programs + i,
                lambda p: candidate_bound(p) <= max_bound,
            )
        )
    return ExploreInputs(programs, max_delays)


def run_explore(inputs: ExploreInputs, tick):
    reports = []
    for program in inputs.programs:
        reports.append(_guarded(
            lambda p: api.explore(p, "DEF2", max_delays=inputs.max_delays),
            program,
        ))
        tick()
    return reports


def _explore_reference(programs: Sequence[Program]) -> Dict[int, frozenset]:
    """DEF2's axiomatic outcome set per straight-line program.

    The conditional model promises SC exactly to DRF0 programs, so the
    program's DRF0 verdict is passed in.
    """
    model = model_for_policy("DEF2")
    return {
        i: api.allowed_outcomes(
            p, model, drf0=api.check_drf0(p).obeys
        )
        for i, p in enumerate(programs)
        if is_straightline(p)
    }


def check_explore(inputs: ExploreInputs, reports) -> PassReport:
    if inputs.reference is None:
        inputs.reference = _explore_reference(inputs.programs)
    out = PassReport(items=0)
    counts: Counter = Counter()
    for i, (program, report) in enumerate(zip(inputs.programs, reports)):
        if isinstance(report, Exception):
            out.items += 1
            out.failed += 1
            out.errors.append(f"{program.name}: {report!r}")
            continue
        out.items += report.runs
        counts["schedules"] += report.runs
        counts["pruned_decisions"] += report.pruned_decisions
        counts["outcomes"] += len(report.outcomes)
        counts["incomplete_runs"] += report.incomplete_runs
        problem = None
        if not report.exhausted:
            problem = "search not exhausted"
        elif report.incomplete_runs:
            problem = f"{report.incomplete_runs} schedules did not complete"
        elif i in inputs.reference:
            extra = report.observables - inputs.reference[i]
            if extra:
                problem = f"{len(extra)} outcome(s) DEF2 does not allow"
        if problem is not None:
            out.failed += max(report.runs, 1)
            out.errors.append(f"{program.name}: {problem}")
    out.counts = dict(counts)
    return out


# ----------------------------------------------------------------------
# check: the software-side checkers, no simulator
# ----------------------------------------------------------------------
@dataclass
class CheckInputs:
    #: ``(program, kind)`` with kind ``catalog``, ``racy`` or ``drf0``.
    programs: List[Tuple[Program, str]]


def build_check(
    seed, scratch, tests=None, racy_bounds=(972, 648, 384), drf_programs=3,
):
    programs = [(p, "catalog") for p in _catalog_programs(tests)]
    for i, bound in enumerate(racy_bounds):
        # A fixed candidate-space size per slot keeps the axiomatic work
        # (and so the pass time) nearly the same for every seed.
        programs.append((
            _draw(
                lambda s: api.random_racy_program(
                    s, num_procs=3, ops_per_proc=3
                ),
                seed * len(racy_bounds) + i,
                lambda p, b=bound: candidate_bound(p) == b,
            ),
            "racy",
        ))
    for i in range(drf_programs):
        # One lock for every critical section: the lock pattern is what
        # sets how many executions the DRF0 check has to explore.
        programs.append((
            _draw(
                lambda s: api.random_drf0_program(
                    s, num_procs=2, sections_per_proc=2
                ),
                seed * drf_programs + i,
                lambda p: len(lock_set(p)) == 1,
            ),
            "drf0",
        ))
    return CheckInputs(programs)


MODEL_NAMES = axiomatic_model_names()


def _check_program(program: Program, tick):
    sc = api.verify_sc(program)
    drf0 = api.check_drf0(program)
    drf0_r = api.check_drf0(program, model=api.DRF0_R)
    allowed = {}
    if is_straightline(program):
        for name in MODEL_NAMES:
            allowed[name] = api.allowed_outcomes(
                program, model_by_name(name),
                drf0=drf0.obeys, drf0_r=drf0_r.obeys,
            )
            tick()
    return sc, drf0, drf0_r, allowed


def run_check(inputs: CheckInputs, tick):
    results = []
    for program, _kind in inputs.programs:
        results.append(_guarded(_check_program, program, tick))
        tick()
    return results


def check_check(inputs: CheckInputs, results) -> PassReport:
    out = PassReport(items=len(results))
    counts: Counter = Counter()
    for (program, kind), result in zip(inputs.programs, results):
        if isinstance(result, Exception):
            out.failed += 1
            out.errors.append(f"{program.name}: {result!r}")
            continue
        sc, drf0, drf0_r, allowed = result
        counts["programs"] += 1
        counts["sc_outcomes"] += len(sc)
        counts["allowed_outcomes"] += sum(len(s) for s in allowed.values())
        counts["drf_executions"] += (
            drf0.executions_checked + drf0_r.executions_checked
        )
        counts["obeys_drf0"] += drf0.obeys
        # The SC enumerator and the axiomatic SC model are independent
        # paths to the same set.
        if allowed and set(allowed["SC"]) != set(sc):
            out.failed += 1
            out.errors.append(f"{program.name}: axiomatic SC != enumerated SC")
        elif kind == "drf0" and not drf0.obeys:
            out.failed += 1
            out.errors.append(f"{program.name}: lock-disciplined but not DRF0")
    out.counts = dict(counts)
    return out


# ----------------------------------------------------------------------
# durable: the journaled, cached conformance campaign
# ----------------------------------------------------------------------
@dataclass
class DurableInputs:
    seed: int
    runs_per_test: int
    tests: Optional[list]
    scratch: str
    #: Per-result pickle digests every phase must reproduce.
    reference: Optional[List[str]] = None
    #: durable_read only: the directory holding the journal and cache.
    store: Optional[str] = None
    journal_bytes: int = 0

    def specs(self):
        """A fresh spec list, as a new invocation builds it (fresh specs
        recompute their digests)."""
        return api.plan_conformance(
            tests=self.tests,
            runs_per_test=self.runs_per_test,
            base_seed=self.seed,
        ).specs


def _journal(store: str) -> str:
    return os.path.join(store, "journal.jsonl")


def _cache(store: str) -> str:
    return os.path.join(store, "cache")


def _write(inputs: DurableInputs, store: str, progress=None):
    return api.campaign(
        inputs.specs(), cache=_cache(store), journal=_journal(store),
        label="conformance", progress=progress,
    )


def _read(inputs: DurableInputs, store: str):
    resumed = api.campaign(
        inputs.specs(), journal=_journal(store), label="conformance"
    )
    rerun = api.campaign(inputs.specs(), cache=_cache(store), label="conformance")
    return resumed, rerun


def _compare(reference, phase: str, results, out: PassReport) -> None:
    digests = _result_digests(results)
    bad = sum(1 for a, b in zip(reference, digests) if a != b)
    bad += abs(len(reference) - len(digests))
    if bad:
        out.failed += bad
        out.errors.append(f"{bad} {phase} result(s) differ from the write phase")


def build_durable_write(seed, scratch, runs_per_test=1, tests=None):
    return DurableInputs(seed, runs_per_test, _catalog(tests), scratch)


def run_durable_write(inputs: DurableInputs, tick):
    store = tempfile.mkdtemp(dir=inputs.scratch)
    return store, _write(inputs, store, _Ticker(tick))


def check_durable_write(inputs: DurableInputs, outcome) -> PassReport:
    # The store stays until the run ends: deleting many files makes a
    # device's next writes slower, and the next pass would pay for it.
    store, written = outcome
    results = written.results
    written_bytes = _tree_bytes(store)
    out = PassReport(items=len(results))
    bad_runs = sum(1 for r in results if not r.ok)
    if bad_runs:
        out.failed += bad_runs
        out.errors.append(f"{bad_runs} of {len(results)} runs failed")
    if inputs.reference is None:
        inputs.reference = _result_digests(results)
        resumed, rerun = _read(inputs, store)
        _compare(inputs.reference, "journal-replay", resumed.results, out)
        _compare(inputs.reference, "cache-hit", rerun.results, out)
    else:
        _compare(inputs.reference, "write", results, out)
    out.counts = {
        "specs": len(results),
        "failed_runs": bad_runs,
        "journal_appends": written.metrics.journal_appends,
        "cache_misses": written.metrics.cache_misses,
        "bytes_written": written_bytes,
    }
    return out


#: Journal resumes and cache re-runs per durable_read pass.
READ_ROUNDS = 3


def build_durable_read(seed, scratch, runs_per_test=1, tests=None):
    inputs = DurableInputs(seed, runs_per_test, _catalog(tests), scratch)
    inputs.store = os.path.join(scratch, "store")
    written = _write(inputs, inputs.store)
    inputs.reference = _result_digests(written.results)
    inputs.journal_bytes = os.path.getsize(_journal(inputs.store))
    return inputs


def run_durable_read(inputs: DurableInputs, tick):
    rounds = []
    for _ in range(READ_ROUNDS):
        rounds.append(_read(inputs, inputs.store))
        tick()
    return rounds


def check_durable_read(inputs: DurableInputs, rounds) -> PassReport:
    out = PassReport(items=0)
    counts: Counter = Counter()
    for resumed, rerun in rounds:
        out.items += len(resumed.results) + len(rerun.results)
        _compare(inputs.reference, "journal-replay", resumed.results, out)
        _compare(inputs.reference, "cache-hit", rerun.results, out)
        counts["journal_replayed"] += resumed.metrics.journal_replayed
        counts["cache_hits"] += rerun.metrics.cache_hits
    read = counts["journal_replayed"] + counts["cache_hits"]
    misses = 2 * READ_ROUNDS * len(inputs.reference) - read
    if misses:
        out.failed += misses
        out.errors.append(f"{misses} result(s) were not read back")
    journal_bytes = os.path.getsize(_journal(inputs.store))
    # A resume appends only its campaign header.
    counts["bytes_written"] = journal_bytes - inputs.journal_bytes
    inputs.journal_bytes = journal_bytes
    out.counts = dict(counts)
    return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("grid", "simulations", build_grid, run_grid, check_grid),
        Workload("explore", "schedules", build_explore, run_explore,
                 check_explore),
        Workload("check", "programs", build_check, run_check, check_check),
        Workload("durable_write", "specs", build_durable_write,
                 run_durable_write, check_durable_write),
        Workload("durable_read", "results", build_durable_read,
                 run_durable_read, check_durable_read),
    )
}

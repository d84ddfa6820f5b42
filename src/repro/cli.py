"""Command-line interface: ``python -m repro <command> ...``.

Subcommands:

``litmus``    run a catalog or ``.litmus``-file test on a machine/policy
              and print the classified outcome histogram;
              (``--faults`` injects adversarial message timings)
``drf``       check a litmus program against DRF0 (Definition 3);
``conformance`` audit every (machine, policy) pair in the zoo
              (``--faults`` audits under an adversarial interconnect);
``crosscheck`` hold every policy accountable to its axiomatic model
              (po/rf/co/fr acyclicity) cell-by-cell over the catalog;
``explore``   systematic (delay-bounded) exploration of a test;
``figure1``   regenerate the Figure-1 violation matrix;
``figure3``   regenerate the Figure-3 release-stall sweep;
``catalog``   list the built-in litmus tests;
``delays``    print the Shasha-Snir delay set of a straight-line test;
``trace``     replay one litmus run with tracing and show its timeline;
``fuzz``      run random programs, triaging failures into repro bundles;
``replay``    re-execute a repro bundle and check its failure signature;
``soak``      chaos-test crash safety: kill a journaled campaign at
              seeded points, resume it, and prove exactly-once results;
``metrics``   pretty-print, export, or diff runtime-metrics snapshots
              (flight-recorder JSONL or snapshot JSON).

A flag that means the same thing on several subcommands is declared
once, as a module-level :class:`_Flag`; each subcommand adds it with
its own default.  ``litmus``, ``explore`` and ``conformance`` take
``--trace FILE`` (with ``--trace-format``/``--trace-filter``) and,
like ``trace`` and ``fuzz``, ``--sanitize {off,log,strict}``;
``litmus``, ``explore``, ``conformance`` and ``fuzz`` take
``--journal PATH``/``--resume PATH``; every campaign command takes
``--metrics-out DIR`` and all but ``drf`` and ``explore`` (which run
in-process) take ``--jobs``; most take ``--progress``; ``litmus``,
``conformance``, ``crosscheck`` and ``fuzz`` take ``--cache DIR`` with
``--cache-max-bytes N``.  ``-v``/``-q`` raise/lower progress logging
on stderr.

``--metrics-out DIR`` is the one way a command's metrics leave the
process: it writes ``DIR/metrics.prom`` (Prometheus text, final
state), ``DIR/flight.jsonl`` (periodic registry samples; the last is
the final state) and ``DIR/campaigns.json`` (each campaign's
:class:`CampaignMetrics` record).  ``repro metrics`` reads the JSON
artifacts; ``.prom`` is written, never read.

Every command that takes those flags runs in one :class:`_Session`: it
checks every flag before it opens anything, then opens the result
cache, journal, metrics and executor, hands the library verb its
keyword arguments, and on exit closes the journal, writes the traces,
and turns a campaign stopped by SIGTERM/SIGINT into exit status 75
(``EX_TEMPFAIL``): resume it with ``--resume``.

Examples::

    python -m repro litmus fig1_dekker_warm --policy RELAXED --machine net_cache
    python -m repro litmus my_test.litmus --policy DEF2 --runs 200
    python -m repro litmus fig1_dekker_sync --policy DEF2 --faults heavy
    python -m repro litmus fig1_dekker --trace out.json --trace-format chrome
    python -m repro litmus fig1_dekker_sync --policy DEF2 --sanitize strict
    python -m repro conformance --faults jitter=12,reorder=20 --jobs 4
    python -m repro crosscheck --policy TSO --policy PSO --jobs 4
    python -m repro drf fig1_dekker
    python -m repro explore fig1_dekker_sync_warm --policy DEF2 --delays 3
    python -m repro trace fig1_dekker_sync --policy DEF2 --filter stall,msg
    python -m repro fuzz --family spin --seeds 20 --triage-dir bundles/
    python -m repro replay bundles/fuzz-spin-sim-timeout.json
    python -m repro figure1
    python -m repro conformance --jobs 4 --progress --metrics-out obs/
    python -m repro metrics show obs/flight.jsonl
    python -m repro metrics diff before/flight.jsonl obs/flight.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

# The CLI is a consumer of the stable facade: the library comes through
# repro.api, apart from ensure_compatible and the lazy import of
# repro.testing.chaos (soak).
import repro.api as api
from repro.api import (
    EXIT_PREEMPTED,
    CampaignMetrics,
    DEFAULT_MAX_CANDIDATES,
    FIGURE1_CONFIGS,
    FORMATS,
    FlightRecorder,
    JournalError,
    LitmusRunner,
    METRICS,
    ResultCache,
    TraceSpec,
    catalog_by_name,
    config_by_name,
    configure_cli_logging,
    core_names,
    crosscheck_run,
    default_executor,
    emit_metrics,
    enable_metrics,
    fig1_dekker,
    figure3_sweep,
    format_table,
    format_timeline,
    get_logger,
    load_snapshot,
    load_test,
    machine_names,
    open_journal,
    parse_fault_plan,
    policy_by_name,
    policy_names,
    register_metrics_hook,
    to_prometheus,
    unregister_metrics_hook,
    write_trace,
)
from repro.memsys.system import ensure_compatible

_log = get_logger("cli")


@contextlib.contextmanager
def _observability(out: Optional[str]):
    """Turn the runtime metrics registry on for the command's lifetime.

    ``--metrics-out DIR`` enables the registry (workers inherit the
    flag through the environment) and runs a flight recorder appending
    periodic samples to ``DIR/flight.jsonl``.  On exit it writes the
    final Prometheus snapshot to ``DIR/metrics.prom`` and every
    :class:`CampaignMetrics` record the command emitted, in order, to
    ``DIR/campaigns.json``.
    """
    if out is None:
        yield
        return
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"error: cannot create {out}: {exc.strerror}")
    enable_metrics()
    # The artifacts describe THIS command: drop whatever an earlier
    # in-process command left in the process-wide registry.
    METRICS.reset()
    records: List[dict] = []
    hook = lambda metrics: records.append(metrics.to_dict())
    register_metrics_hook(hook)
    recorder = FlightRecorder(out_dir / "flight.jsonl", METRICS).start()
    try:
        yield
    finally:
        unregister_metrics_hook(hook)
        recorder.stop()
        artifacts = {
            "metrics.prom": to_prometheus(METRICS),
            "campaigns.json": json.dumps(records, indent=2, sort_keys=True),
        }
        for name, text in artifacts.items():
            try:
                (out_dir / name).write_text(text)
            except OSError as exc:
                # Metrics are auxiliary telemetry; never let a bad path
                # destroy the campaign results themselves.
                print(
                    f"repro: warning: cannot write {name}: {exc}",
                    file=sys.stderr,
                )


class _Preempted(Exception):
    """Ends a command whose campaign SIGTERM/SIGINT stopped."""


class _Session:
    """The shared flags of one command: checked, then opened, then closed.

    Entering checks every flag the command declares — the test and
    machine names, ``--faults``, ``--trace``/``--trace-filter``,
    ``--journal``/``--resume`` and ``--cache``/``--cache-max-bytes`` —
    so a bad one exits with ``error: ...`` before anything exists on
    disk.  Only then does it open the result cache, the journal, the
    ``--metrics-out`` registry and the executor.  ``kwargs`` holds the
    keyword arguments the library verb takes; ``test`` and ``config``
    are the loaded test and machine.  Exiting closes all of it, then prints the resume hint
    and writes the ``--trace`` file for the result :meth:`settle` saw.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.test = self.config = self.journal = self.result = None
        self.kwargs: dict = {}
        self._stack = contextlib.ExitStack()

    def __enter__(self) -> "_Session":
        self._check()
        try:
            self._open()
        except BaseException:
            self._stack.close()
            raise
        return self

    def _check(self) -> None:
        args, flags, kwargs = self.args, vars(self.args), self.kwargs
        if "test" in flags:
            try:
                self.test = load_test(args.test, warm=flags.get("warm", False))
            except OSError as exc:
                raise SystemExit(
                    f"error: cannot read {args.test}: {exc.strerror}"
                )
            except ValueError as exc:
                raise SystemExit(f"error: {exc}")
        if flags.get("tests"):
            catalog = catalog_by_name()
            for name in args.tests:
                if name not in catalog:
                    raise SystemExit(
                        f"error: {name!r} is not a catalog test "
                        f"({', '.join(sorted(catalog))})"
                    )
        if "machine" in flags:
            self.config = config_by_name(args.machine)
            if "policy" in flags:  # an unbuildable pair is a usage error
                core = flags.get("core") or "simple"
                try:
                    policy = policy_by_name(args.policy, core=core)
                    ensure_compatible(policy, self.config, core)
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    raise SystemExit(2)
        if "faults" in flags:
            try:
                kwargs["faults"] = parse_fault_plan(args.faults)
            except ValueError as exc:
                raise SystemExit(f"error: bad --faults value: {exc}")
        if "trace_filter" in flags:
            kwargs["trace"] = None
            if args.trace:
                try:
                    kwargs["trace"] = TraceSpec.parse_filter(args.trace_filter)
                except ValueError as exc:
                    raise SystemExit(f"error: bad --trace-filter value: {exc}")
            elif args.trace_filter:
                raise SystemExit("error: --trace-filter requires --trace")
        if flags.get("journal") and flags.get("resume"):
            raise SystemExit(
                "error: --journal and --resume are mutually exclusive "
                "(--resume PATH already continues the journal at PATH)"
            )
        if "cache" in flags and not args.cache:
            if args.cache_max_bytes is not None:
                raise SystemExit("error: --cache-max-bytes requires --cache")
        if "sanitize" in flags:
            kwargs["sanitize"] = None if args.sanitize == "off" else args.sanitize
        if "progress" in flags:
            kwargs["progress"] = args.progress or None

    def _open(self) -> None:
        # The cache and the journal may still refuse (a bad size bound,
        # a missing journal to resume), so they open first.
        args, flags, kwargs = self.args, vars(self.args), self.kwargs
        if "cache" in flags:
            kwargs["cache"] = None
            if args.cache:
                try:
                    kwargs["cache"] = ResultCache(
                        args.cache, max_bytes=args.cache_max_bytes
                    )
                except ValueError as exc:
                    raise SystemExit(
                        f"error: bad --cache-max-bytes value: {exc}"
                    )
                kwargs["cache"].sweep_stale()
        if "journal" in flags:
            try:
                self.journal = open_journal(
                    args.resume or args.journal, resume=bool(args.resume)
                )
            except JournalError as exc:
                raise SystemExit(f"error: {exc}")
            kwargs["journal"] = self.journal
            if self.journal is not None:
                self._stack.callback(self.journal.close)
        if "metrics_out" in flags:
            self._stack.enter_context(_observability(args.metrics_out))
        # Commands with --run-timeout/--retries hand their verb the
        # executor --jobs asks for; soak passes a bare jobs count.
        if "retries" in flags:
            kwargs["executor"] = self._stack.enter_context(
                default_executor(
                    args.jobs, run_timeout=args.run_timeout,
                    retries=args.retries,
                )
            )
        elif "jobs" in flags:
            kwargs["jobs"] = args.jobs

    def settle(self, result) -> None:
        """Record the verb's result; a preempted one ends the command."""
        self.result = result
        if result.preempted:
            raise _Preempted

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stack.close()
        if exc_type not in (None, _Preempted) or self.result is None:
            return False
        if self.result.preempted and self.journal is not None:
            print(
                f"preempted: progress saved; resume with "
                f"--resume {self.journal.path}",
                file=sys.stderr,
            )
        path = getattr(self.args, "trace", None)
        if path:
            run_traces = self.result.run_traces
            write_trace(path, run_traces, fmt=self.args.trace_format)
            _log.info(
                "trace written to %s (%s format, %d run(s), %d events)",
                path, self.args.trace_format, len(run_traces),
                sum(len(events) for _, events in run_traces),
            )
        return exc_type is _Preempted


def _in_session(run):
    """A command that runs ``run(args, session)`` in a :class:`_Session`."""

    @functools.wraps(run)
    def command(args: argparse.Namespace) -> int:
        with _Session(args) as session:
            return run(args, session)
        # Reached only when the session ended a preempted campaign.
        return EXIT_PREEMPTED

    return command


@_in_session
def _cmd_litmus(args: argparse.Namespace, session: _Session) -> int:
    faults = session.kwargs["faults"]
    result = LitmusRunner().run(
        session.test,
        lambda: policy_by_name(args.policy, core=args.core),
        session.config,
        runs=args.runs,
        base_seed=args.seed,
        **session.kwargs,
    )
    if faults is not None:
        print(faults.describe())
    print(result.describe())
    if result.trace_summary is not None:
        print(result.trace_summary.describe())
    session.settle(result)
    return 1 if result.violated_sc and args.expect_sc else 0


@_in_session
def _cmd_drf(args: argparse.Namespace, session: _Session) -> int:
    started = time.perf_counter()
    report = api.check_drf0(
        session.test.program, max_executions=args.max_executions
    )
    wall = time.perf_counter() - started
    # check_drf0 is also a conformance-grid subroutine, so the library
    # stays silent; the CLI emits the metrics record itself.
    emit_metrics(
        CampaignMetrics(
            label=f"drf:{session.test.name}",
            runs=report.executions_checked,
            completed_runs=report.executions_checked,
            wall_clock_seconds=wall,
            runs_per_second=(
                report.executions_checked / wall if wall > 0 else 0.0
            ),
            completion_rate=1.0,
            jobs=1,
        )
    )
    print(report.describe())
    return 0 if report.obeys else 1


@_in_session
def _cmd_explore(args: argparse.Namespace, session: _Session) -> int:
    program = session.test.executable_program()
    report = api.explore(
        program,
        args.policy,
        core=args.core,
        max_delays=args.delays,
        prune=not args.no_prune,
        max_runs=args.max_runs,
        resume=bool(args.resume),
        **session.kwargs,
    )
    print(report.describe())
    session.settle(report)
    violations = api.verify_sc(program, report.observables)
    if violations:
        print(f"\n{len(violations)} outcome(s) are NOT sequentially consistent:")
        for violation in violations:
            print(f"  {violation.observed.describe()}")
        return 1
    print("\nall reachable outcomes are sequentially consistent "
          f"(within delay bound {args.delays})")
    return 0


@_in_session
def _cmd_figure1(args: argparse.Namespace, session: _Session) -> int:
    runner = LitmusRunner()
    rows = []
    for config in FIGURE1_CONFIGS:
        test = fig1_dekker(warm=config.has_caches)
        for policy_name in ("RELAXED", "SC"):
            result = runner.run(
                test, lambda name=policy_name: policy_by_name(name),
                config, runs=args.runs, **session.kwargs,
            )
            rows.append(
                [
                    config.name,
                    result.policy_name,
                    result.forbidden_seen,
                    args.runs,
                    "VIOLATES SC" if result.violated_sc else "appears SC",
                ]
            )
    print(format_table(["machine", "policy", "(0,0) seen", "runs", "verdict"], rows))
    return 0


@_in_session
def _cmd_figure3(args: argparse.Namespace, session: _Session) -> int:
    rows = figure3_sweep(
        latencies=args.latencies,
        seeds=list(range(1, args.seeds + 1)),
        **session.kwargs,
    )
    print(
        format_table(
            ["latency", "DEF1 stall", "DEF2 stall", "DEF1 P0 done",
             "DEF2 P0 done"],
            [
                [r.network_latency, r.def1_release_stall, r.def2_release_stall,
                 r.def1_releaser_finish, r.def2_releaser_finish]
                for r in rows
            ],
        )
    )
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    rows = [
        [test.name, test.program.num_procs,
         "warm" if test.warm_caches else "cold", test.description]
        for test in catalog_by_name().values()
    ]
    rows.sort()
    print(format_table(["name", "procs", "caches", "description"], rows))
    return 0


@_in_session
def _cmd_conformance(args: argparse.Namespace, session: _Session) -> int:
    faults = session.kwargs["faults"]
    report = api.run_conformance(runs_per_test=args.runs, **session.kwargs)
    if faults is not None:
        print(faults.describe())
    print(report.describe())
    session.settle(report)
    broken = [
        cell
        for cell in report.cells
        if cell.verdict == api.VERDICT_BROKEN and cell.policy_name != "RELAXED"
    ]
    for cell in broken:
        print(
            f"\nCONTRACT BROKEN: {cell.policy_name} on {cell.config_name}: "
            f"{', '.join(cell.violated_tests)}"
        )
    return 1 if broken else 0


@_in_session
def _cmd_crosscheck(args: argparse.Namespace, session: _Session) -> int:
    report = api.crosscheck(
        tests=args.tests or None,
        policies=args.policies or None,
        configs=args.machines or None,
        runs_per_test=args.runs,
        base_seed=args.seed,
        max_candidates=args.max_candidates,
        **session.kwargs,
    )
    print(report.describe())
    return 0 if report.ok else 1


@_in_session
def _cmd_delays(args: argparse.Namespace, session: _Session) -> int:
    print(api.describe_delay_set(api.delay_pairs(session.test.program)))
    return 0


@_in_session
def _cmd_trace(args: argparse.Namespace, session: _Session) -> int:
    if args.format != "pretty" and not args.out:
        raise SystemExit(f"error: --out is required with --format {args.format}")
    try:
        spec = TraceSpec.parse_filter(args.filter, ring=args.ring)
    except ValueError as exc:
        raise SystemExit(f"error: bad --filter value: {exc}")
    test = session.test
    system = api.System(
        test.executable_program(),
        policy_by_name(args.policy, core=args.core),
        session.config,
        seed=args.seed,
        trace=spec,
        **session.kwargs,
    )
    run = system.run(max_cycles=args.max_cycles)
    events = run.trace_events or ()
    if run.deadlock is not None:
        print(run.deadlock.describe())

    if args.format == "pretty":
        print(format_timeline(events, limit=args.limit))
    else:
        write_trace(args.out, [(test.name, events)], fmt=args.format)
        _log.info(
            "trace written to %s (%s format, %d events)",
            args.out, args.format, len(events),
        )
    if run.trace_summary is not None:
        print(run.trace_summary.describe())

    # The observability dividend: with the full proc stream recorded,
    # assert the trace-reconstructed happens-before agrees with hb's.
    wants_proc = spec.categories is None or "proc" in spec.categories
    if wants_proc and spec.ring is None and run.completed:
        report = crosscheck_run(run)
        print(report.describe())
        if not report.ok:
            return 1
    if not run.completed:
        print(
            f"warning: run did not complete within {args.max_cycles} cycles",
            file=sys.stderr,
        )
        return 1
    return 0


#: Random-program families ``fuzz`` can draw from.
_FUZZ_FAMILIES = ("racy", "drf0", "mixed", "spin", "all")


def _fuzz_program(family: str, seed: int):
    generators = {
        "racy": api.random_racy_program,
        "drf0": api.random_drf0_program,
        "mixed": api.random_mixed_sync_program,
        "spin": api.random_spin_program,
    }
    if family == "all":
        family = _FUZZ_FAMILIES[seed % 4]
    return generators[family](seed)


@_in_session
def _cmd_fuzz(args: argparse.Namespace, session: _Session) -> int:
    kwargs = dict(session.kwargs)
    faults, sanitize = kwargs.pop("faults"), kwargs.pop("sanitize")
    policy_spec = api.PolicySpec.of(
        lambda: policy_by_name(args.policy, core=args.core)
    )
    specs = [
        api.RunSpec(
            program=_fuzz_program(args.family, program_seed),
            policy=policy_spec,
            config=session.config,
            seed=args.seed + program_seed,
            max_cycles=args.max_cycles,
            faults=faults,
            sanitize=sanitize,
        )
        for program_seed in range(args.seeds)
    ]
    triage = None
    if args.triage_dir:
        triage = api.TriageConfig(
            directory=Path(args.triage_dir),
            shrink=not args.no_shrink,
            max_bundles=args.max_bundles,
        )
    campaign = api.campaign(
        specs, label=f"fuzz:{args.family}", triage=triage, **kwargs
    )
    print(campaign.metrics.describe())
    if campaign.triage is not None:
        print(campaign.triage.describe())
    failures = campaign.failures
    if failures and not args.triage_dir:
        print(f"{len(failures)} failing run(s); re-run with --triage-dir "
              f"to shrink them into repro bundles")
    session.settle(campaign)
    return 0


@_in_session
def _cmd_soak(args: argparse.Namespace, session: _Session) -> int:
    from repro.testing.chaos import soak

    report = soak(
        test=args.test,
        policy=args.policy,
        machine=args.machine,
        runs=args.runs,
        base_seed=args.seed,
        kills=args.kills,
        seed=args.chaos_seed,
        workdir=args.workdir,
        attempt_timeout=args.attempt_timeout,
        **session.kwargs,
    )
    print(report.describe())
    if report.ok:
        print(
            "crash-safety holds: every result journaled exactly once, "
            "byte-identical to an uninterrupted campaign"
        )
        return 0
    print("CRASH-SAFETY VIOLATION: see the journal at", report.journal)
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.bundle)
    try:
        bundle = api.ReproBundle.from_json(path.read_text())
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error: cannot load bundle {path}: {exc}")
    shrunk = ""
    if bundle.original_instructions:
        shrunk = (
            f", shrunk {bundle.original_instructions} -> "
            f"{bundle.minimized_instructions} instruction(s)"
        )
    print(
        f"bundle {path.name}: expecting {bundle.signature!r} "
        f"({bundle.kind}{shrunk})"
    )
    if bundle.message:
        print(f"  recorded: {bundle.message}")
    result, signature, ok = bundle.replay()
    print(f"  replayed: {signature!r} after {result.cycles} cycles")
    if result.failure is not None and result.failure.message:
        print(f"  {result.failure.message.splitlines()[0]}")
    if result.diagnosis:
        print(result.diagnosis)
    if ok:
        print("replay reproduces the recorded failure signature")
        return 0
    print("REPLAY MISMATCH: the failure did not reproduce identically")
    return 1


def _load_snapshot_arg(path: str):
    try:
        return load_snapshot(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read snapshot {path}: {exc}")
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"error: cannot parse snapshot {path}: {exc}")


def _format_sample(value, signed: bool) -> str:
    if isinstance(value, float) and value == int(value):
        value = int(value)
    if signed and isinstance(value, (int, float)) and value > 0:
        return f"+{value}"
    return str(value)


def _format_snapshot(snap, signed: bool = False) -> str:
    """A snapshot (or diff) as a terminal table.

    ``signed`` prefixes positive counter/histogram deltas with ``+`` —
    gauges always show their latest reading, never a delta.
    """
    rows = []
    for name in snap.names():
        metric = snap.data[name]
        is_gauge = metric["type"] == "gauge"
        for key, value in sorted(metric["samples"].items()):
            if metric["type"] == "histogram":
                mean = value["sum"] / value["count"] if value["count"] else 0.0
                shown = (
                    f"count={_format_sample(value['count'], signed)} "
                    f"sum={value['sum']:.6g} mean={mean:.6g}"
                )
            else:
                shown = _format_sample(value, signed and not is_gauge)
            rows.append([name, key or "-", metric["type"], shown])
    return format_table(["metric", "labels", "type", "value"], rows)


def _cmd_metrics_show(args: argparse.Namespace) -> int:
    snap = _load_snapshot_arg(args.snapshot)
    if not snap:
        print("(empty snapshot)")
        return 0
    print(_format_snapshot(snap))
    return 0


def _cmd_metrics_export(args: argparse.Namespace) -> int:
    snap = _load_snapshot_arg(args.snapshot)
    if args.format == "prom":
        text = to_prometheus(snap)
    else:
        text = json.dumps(snap.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metrics_diff(args: argparse.Namespace) -> int:
    before = _load_snapshot_arg(args.before)
    after = _load_snapshot_arg(args.after)
    delta = after.diff(before)
    if not delta:
        print("no change between snapshots")
        return 0
    print(_format_snapshot(delta, signed=True))
    return 0


def positive_int(text: str) -> int:
    """An argparse type for a count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Flag:
    """A flag declared once and added to every subcommand that takes it.

    Calling a flag gives the same flag with some settings replaced — a
    subcommand's own default, say: ``_RUNS(default=30)``.  A callable
    ``choices`` is read when the parser is built, so a policy class
    declared after this module is imported is still a legal value.
    """

    def __init__(self, *names: str, **settings) -> None:
        self.names, self.settings = names, settings

    def __call__(self, **overrides) -> "_Flag":
        return _Flag(*self.names, **{**self.settings, **overrides})

    def add_to(self, cmd: argparse.ArgumentParser) -> None:
        settings = dict(self.settings)
        if callable(settings.get("choices")):
            settings["choices"] = tuple(settings["choices"]())
        cmd.add_argument(*self.names, **settings)


_TEST = _Flag("test", help="catalog name or .litmus file")
_POLICY = _Flag(
    "--policy", choices=policy_names, metavar="POLICY",
    help="ordering policy, one of %(choices)s (default %(default)s)",
)
_MACHINE = _Flag(
    "--machine", choices=machine_names, default="net_cache", metavar="NAME",
    help="machine configuration, one of %(choices)s (default %(default)s)",
)
_CORE = _Flag(
    "--core", choices=core_names, default=None,
    help="processor-core shape: simple (one access at a time; default) "
    "or pipelined (issue window with store-to-load forwarding)",
)
_RUNS = _Flag(
    "--runs", type=positive_int, metavar="N",
    help="seeded runs per test (default %(default)s)",
)
_SEED = _Flag("--seed", type=int, help="base timing seed (default %(default)s)")
_WARM = _Flag("--warm", action="store_true",
              help="warm caches (for .litmus files)")
_MAX_CYCLES = _Flag("--max-cycles", type=int,
                    help="cycle watchdog budget per run")
_JOBS = _Flag(
    "--jobs", type=positive_int, default=1, metavar="N",
    help="run on N worker processes (1 = serial)",
)
_RUN_TIMEOUT = _Flag(
    "--run-timeout", type=float, default=None, metavar="SECONDS",
    help="per-run wall-clock budget; a run over budget is retried, then "
    "reported as a failure (parallel runs only — serial runs rely on "
    "the simulation cycle watchdog)",
)
_RETRIES = _Flag(
    "--retries", type=int, default=2, metavar="N",
    help="retry budget per run for transient worker failures "
    "(exponential backoff; default %(default)s)",
)
_PROGRESS = _Flag(
    "--progress", action="store_true",
    help="print a live heartbeat on stderr while the campaign runs: "
    "done/total, rate, ETA, cache hits, failures",
)
_METRICS_OUT = _Flag(
    "--metrics-out", metavar="DIR",
    help="enable the runtime metrics registry and write DIR/metrics.prom "
    "(Prometheus text exposition), DIR/flight.jsonl (periodic samples) "
    "and DIR/campaigns.json (each campaign's metrics record) for this "
    "command",
)
_CACHE = _Flag(
    "--cache", metavar="DIR",
    help="memoise run results on disk in DIR, keyed by spec digest; "
    "reuse the directory to skip already-computed runs",
)
_CACHE_MAX_BYTES = _Flag(
    "--cache-max-bytes", type=int, default=None, metavar="N",
    help="bound the result cache to about N bytes, evicting "
    "least-recently-used entries",
)
_JOURNAL = _Flag(
    "--journal", metavar="PATH",
    help="journal campaign progress durably to PATH (append-only "
    "fsync'd JSONL); rerunning with the same path resumes, executing "
    "only what is not yet journaled",
)
_RESUME = _Flag(
    "--resume", metavar="PATH",
    help="resume a killed or preempted campaign from its journal at "
    "PATH (must exist; otherwise identical to --journal)",
)
_FAULTS = _Flag(
    "--faults", metavar="PLAN",
    help="inject adversarial message timings: a preset (light, heavy) "
    "or key=value pairs, e.g. 'jitter=12,reorder=20,duplicate=5,salt=1'",
)
_TRACE = _Flag("--trace", metavar="PATH",
               help="record a structured event trace of every run to PATH")
_TRACE_FORMAT = _Flag(
    "--trace-format", choices=FORMATS, default="chrome",
    help="trace file format: chrome (Perfetto-loadable JSON) or jsonl "
    "(one event per line; default chrome)",
)
_TRACE_FILTER = _Flag(
    "--trace-filter", metavar="CATS",
    help="comma-separated event categories to record "
    "(e.g. 'stall,msg'; default all)",
)
_SANITIZE = _Flag(
    "--sanitize", choices=("off", "log", "strict"), default=None,
    help="check protocol invariants every cycle: log records violations "
    "on the result, strict fails the run on the first one (default off)",
)

#: Flag groups, in the order a subcommand's help lists them.
_EXECUTOR = (_JOBS, _RUN_TIMEOUT, _RETRIES)
_OBS = (_PROGRESS, _METRICS_OUT)
_CACHING = (_CACHE, _CACHE_MAX_BYTES)
_JOURNALING = (_JOURNAL, _RESUME)
_TRACING = (_TRACE, _TRACE_FORMAT, _TRACE_FILTER)


def _command(sub, name: str, run, help: str, *flags: _Flag):
    """Add subcommand ``name``, running ``run``, with ``flags``."""
    cmd = sub.add_parser(name, help=help)
    for flag in flags:
        flag.add_to(cmd)
    cmd.set_defaults(func=run)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weak Ordering - A New Definition (Adve & Hill): "
        "litmus tests, DRF0 checking, and weakly ordered hardware simulation.",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more progress logging on stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="less progress logging on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(_command, sub)

    litmus = command(
        "litmus", _cmd_litmus, "run a litmus campaign",
        _TEST, _POLICY(default="RELAXED"), _MACHINE, _RUNS(default=100),
        _SEED(default=12345), _WARM, *_EXECUTOR, *_OBS, *_CACHING,
        *_JOURNALING, _FAULTS, *_TRACING, _SANITIZE, _CORE,
    )
    litmus.add_argument("--expect-sc", action="store_true",
                        help="exit nonzero if any outcome violates SC")

    drf = command("drf", _cmd_drf, "check a program against DRF0",
                  _TEST, _METRICS_OUT)
    drf.add_argument("--max-executions", type=int, default=None)

    explore = command(
        "explore", _cmd_explore, "systematic schedule exploration",
        _TEST, _POLICY(default="DEF2"), _WARM, *_OBS,
        *_JOURNALING, *_TRACING, _SANITIZE, _CORE,
    )
    explore.add_argument("--delays", type=int, default=2)
    explore.add_argument("--max-runs", type=int, default=20_000)
    explore.add_argument(
        "--no-prune", action="store_true",
        help="disable conflict-aware pruning of provably redundant delay "
        "decisions (prune is on by default and never changes the "
        "outcome set)",
    )

    command("figure1", _cmd_figure1, "regenerate the Figure-1 matrix",
            _RUNS(default=80), *_EXECUTOR, _METRICS_OUT)

    fig3 = command("figure3", _cmd_figure3, "regenerate the Figure-3 sweep",
                   *_EXECUTOR, _METRICS_OUT)
    fig3.add_argument("--latencies", type=int, nargs="+",
                      default=[4, 8, 16, 32, 64])
    fig3.add_argument("--seeds", type=int, default=5)

    command("catalog", _cmd_catalog, "list built-in litmus tests")

    command(
        "conformance", _cmd_conformance,
        "audit every (machine, policy) pair",
        _RUNS(default=30), *_EXECUTOR, *_OBS, *_CACHING, *_JOURNALING,
        _FAULTS, *_TRACING, _SANITIZE,
    )

    crosscheck = command(
        "crosscheck", _cmd_crosscheck,
        "check every policy against its axiomatic model over the litmus "
        "catalog",
        _POLICY(action="append", dest="policies", default=None,
                help="check only this policy (repeatable; default all of "
                "%(choices)s)"),
        _MACHINE(action="append", dest="machines", default=None,
                 help="run on this machine configuration (repeatable; "
                 "default net_nocache and net_cache)"),
        _RUNS(default=12), _SEED(default=2026), *_EXECUTOR, *_OBS, *_CACHING,
    )
    crosscheck.add_argument(
        "tests", nargs="*", metavar="TEST",
        help="catalog tests to check (default: the whole catalog; "
        "control-flow tests are reported as skipped)",
    )
    crosscheck.add_argument(
        "--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES,
        metavar="N",
        help="abort a test whose axiomatic candidate space, "
        "prod(writes per location)! x prod(writes to each read's "
        "location + 1), exceeds N executions; checked before any "
        "candidate is built (default %(default)s)",
    )

    command("delays", _cmd_delays, "Shasha-Snir delay set of a test", _TEST)

    trace = command(
        "trace", _cmd_trace,
        "replay one litmus run with tracing and show its timeline",
        _TEST, _POLICY(default="DEF2"), _MACHINE, _SEED(default=7), _WARM,
        _MAX_CYCLES(default=1_000_000), _SANITIZE, _CORE,
    )
    trace.add_argument("--out", metavar="PATH",
                       help="trace output file (for jsonl/chrome formats)")
    trace.add_argument(
        "--format", choices=("pretty",) + FORMATS, default="pretty",
        help="pretty (terminal timeline), chrome (Perfetto JSON), or jsonl",
    )
    trace.add_argument(
        "--filter", metavar="CATS",
        help="comma-separated event categories to record (default all)",
    )
    trace.add_argument(
        "--ring", type=int, default=None, metavar="N",
        help="retain only the newest N events (bounded-memory mode)",
    )
    trace.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most N timeline lines (pretty format)",
    )

    fuzz = command(
        "fuzz", _cmd_fuzz,
        "run random programs and triage failures into repro bundles",
        _SEED(default=0), _POLICY(default="DEF2"), _MACHINE,
        _MAX_CYCLES(default=60_000), *_EXECUTOR, *_OBS, *_CACHING,
        *_JOURNALING, _FAULTS, _SANITIZE, _CORE,
    )
    fuzz.add_argument(
        "--family", choices=_FUZZ_FAMILIES, default="spin",
        help="random-program family (spin seeds deterministic hangs; "
        "all cycles through every family)",
    )
    fuzz.add_argument("--seeds", type=int, default=20, metavar="N",
                      help="number of random programs to generate")
    fuzz.add_argument(
        "--triage-dir", metavar="DIR",
        help="deduplicate failures by signature, shrink each, and write "
        "replayable repro bundles into DIR",
    )
    fuzz.add_argument("--max-bundles", type=int, default=8, metavar="N",
                      help="bundle at most N distinct failure signatures")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="bundle failing specs without shrinking them")

    command("replay", _cmd_replay,
            "re-execute a repro bundle and verify its failure signature"
            ).add_argument("bundle", help="path to a repro bundle JSON file")

    soak = command(
        "soak", _cmd_soak,
        "chaos-test crash safety: kill a journaled campaign at seeded "
        "points, resume it, and prove exactly-once results",
        _POLICY(default="RELAXED"), _MACHINE(default="net_nocache"),
        _RUNS(default=24), _SEED(default=12345), _JOBS, *_OBS,
    )
    soak.add_argument("--test", default="fig1_dekker",
                      help="catalog litmus test to campaign on")
    soak.add_argument("--kills", type=int, default=3, metavar="N",
                      help="SIGKILL/SIGTERM strikes before the final "
                      "unkilled attempt")
    soak.add_argument("--chaos-seed", type=int, default=0, metavar="SEED",
                      help="seed for drawing the kill points")
    soak.add_argument("--workdir", metavar="DIR", default=None,
                      help="directory for the journal (default: temp dir)")
    soak.add_argument("--attempt-timeout", type=float, default=300.0,
                      metavar="SECONDS",
                      help="wall-clock budget per supervised attempt")

    msub = sub.add_parser(
        "metrics",
        help="pretty-print, export, or diff runtime-metrics snapshots",
    ).add_subparsers(dest="metrics_command", required=True)
    metrics = functools.partial(_command, msub)
    snapshot_help = (
        "a metrics artifact: flight-recorder JSONL (last sample wins) "
        "or snapshot JSON"
    )
    snapshot = _Flag("snapshot", help=snapshot_help)
    metrics("show", _cmd_metrics_show, "pretty-print a snapshot", snapshot)
    export = metrics("export", _cmd_metrics_export,
                     "convert a snapshot between formats", snapshot)
    export.add_argument("--format", choices=("prom", "json"), default="prom",
                        help="output format (default prom)")
    export.add_argument("--out", metavar="PATH",
                        help="write to PATH instead of stdout")
    diff = metrics("diff", _cmd_metrics_diff,
                   "per-metric deltas between two snapshots")
    for name in ("before", "after"):
        diff.add_argument(name, help=snapshot_help)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(args.verbose - args.quiet)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

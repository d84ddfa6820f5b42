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
              (``.prom`` files, flight-recorder JSONL, snapshot JSON);
``serve``     run the verification job service over HTTP (durable
              state dir, graceful drain on SIGTERM, exit 0);
``submit``    submit a job to a running service (429 shed → exit 75);
``status``    list service jobs or long-poll one;
``result``    fetch a finished service job's result document.

``litmus``, ``explore``, and ``conformance`` accept ``--trace FILE``
(with ``--trace-format`` and ``--trace-filter``) to record every run's
event stream, and ``--sanitize {log,strict}`` to run the protocol
sanitizer; ``-v``/``-q`` raise/lower progress logging on stderr.

``litmus``, ``explore``, ``conformance``, and ``fuzz`` accept
``--journal PATH`` (journal progress durably; reuse the path to resume)
and ``--resume PATH`` (like ``--journal``, but the file must already
exist).  A campaign stopped by SIGTERM/SIGINT flushes its journal and
exits with status 75 (``EX_TEMPFAIL``): resume it with ``--resume``.

``litmus``, ``explore``, ``conformance``, ``fuzz``, and ``soak``
accept ``--progress`` (a live heartbeat on stderr: rate, ETA, cache
hits, failures) and ``--metrics-out DIR``, which enables the runtime
metrics registry and leaves ``DIR/metrics.prom`` (Prometheus text
exposition) plus ``DIR/flight.jsonl`` (periodic samples) behind;
``--metrics-port N`` additionally serves live ``/metrics`` over HTTP
while the command runs.  ``litmus``, ``conformance``, and ``fuzz``
also accept ``--cache DIR`` (an on-disk result cache keyed by spec
digest) with ``--cache-max-bytes N`` for LRU size bounding.

Examples::

    python -m repro litmus fig1_dekker_warm --policy RELAXED --machine net_cache
    python -m repro litmus my_test.litmus --policy DEF2 --runs 200
    python -m repro litmus fig1_dekker_sync --policy DEF2 --faults heavy
    python -m repro litmus fig1_dekker --trace out.json --trace-format chrome
    python -m repro litmus fig1_dekker_sync --policy DEF2 --sanitize strict
    python -m repro conformance --faults jitter=12,reorder=20 --jobs 4
    python -m repro crosscheck --policy TSO --policy PSO --jobs 4
    python -m repro drf fig1_dekker --jobs 4
    python -m repro explore fig1_dekker_sync_warm --policy DEF2 --delays 3
    python -m repro trace fig1_dekker_sync --policy DEF2 --filter stall,msg
    python -m repro fuzz --family spin --seeds 20 --triage-dir bundles/
    python -m repro replay bundles/fuzz-spin-sim-timeout.json
    python -m repro figure1
    python -m repro conformance --jobs 4 --progress --metrics-out obs/
    python -m repro metrics show obs/metrics.prom
    python -m repro metrics diff before.prom obs/metrics.prom
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

# The CLI is a consumer of the stable facade: everything it needs comes
# through repro.api, nothing from internal modules directly.
import repro.api as api
from repro.api import (
    CampaignMetrics,
    DEFAULT_MAX_CANDIDATES,
    FIGURE1_CONFIGS,
    FORMATS,
    FlightRecorder,
    LitmusRunner,
    LitmusTest,
    METRICS,
    ResultCache,
    TraceEvent,
    TraceSpec,
    catalog_by_name,
    config_by_name,
    configure_cli_logging,
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
    parse_fault_plan,
    parse_litmus,
    policy_by_name,
    policy_names,
    register_metrics_hook,
    serve_metrics,
    to_prometheus,
    unregister_metrics_hook,
    write_prometheus,
    write_trace,
)

_log = get_logger("cli")

#: Exit status of a campaign stopped by SIGTERM/SIGINT with its journal
#: flushed — EX_TEMPFAIL: "try again", here via ``--resume``.
EXIT_PREEMPTED = 75


def _load_test(name_or_path: str, warm: bool = False) -> LitmusTest:
    """A catalog entry by name, or a ``.litmus`` file by path."""
    catalog = catalog_by_name()
    if name_or_path in catalog:
        return catalog[name_or_path]
    path = Path(name_or_path)
    if path.suffix == ".litmus" or path.exists():
        return parse_litmus(path.read_text(), warm_caches=warm)
    raise SystemExit(
        f"error: {name_or_path!r} is neither a catalog test "
        f"({', '.join(sorted(catalog))}) nor a .litmus file"
    )


@contextlib.contextmanager
def _campaign_metrics(args: argparse.Namespace):
    """Collect campaign metrics and write them as JSON if requested."""
    path = getattr(args, "metrics_json", None)
    records: List[dict] = []
    hook = lambda metrics: records.append(metrics.to_dict())
    register_metrics_hook(hook)
    try:
        yield
    finally:
        unregister_metrics_hook(hook)
        if path:
            try:
                Path(path).write_text(
                    json.dumps(records, indent=2, sort_keys=True)
                )
            except OSError as exc:
                # Metrics are auxiliary telemetry; never let a bad path
                # destroy the campaign results themselves.
                print(
                    f"repro: warning: cannot write metrics JSON: {exc}",
                    file=sys.stderr,
                )


def _parse_faults(args: argparse.Namespace):
    try:
        return parse_fault_plan(getattr(args, "faults", None))
    except ValueError as exc:
        raise SystemExit(f"error: bad --faults value: {exc}")


def _executor_for(args: argparse.Namespace):
    return default_executor(
        args.jobs,
        run_timeout=getattr(args, "run_timeout", None),
        retries=getattr(args, "retries", 2),
    )


def _trace_spec(args: argparse.Namespace) -> Optional[TraceSpec]:
    """The tracing request a ``--trace``/``--trace-filter`` pair asks for."""
    if not getattr(args, "trace", None):
        if getattr(args, "trace_filter", None):
            raise SystemExit("error: --trace-filter requires --trace")
        return None
    try:
        return TraceSpec.parse_filter(getattr(args, "trace_filter", None))
    except ValueError as exc:
        raise SystemExit(f"error: bad --trace-filter value: {exc}")


def _write_traces(
    args: argparse.Namespace,
    run_traces: Sequence[Tuple[str, Tuple[TraceEvent, ...]]],
) -> None:
    """Write collected per-run traces to the ``--trace`` path, if any."""
    path = getattr(args, "trace", None)
    if not path:
        return
    write_trace(path, run_traces, fmt=args.trace_format)
    total = sum(len(events) for _, events in run_traces)
    _log.info(
        "trace written to %s (%s format, %d run(s), %d events)",
        path, args.trace_format, len(run_traces), total,
    )


def _sanitize_mode(args: argparse.Namespace) -> Optional[str]:
    mode = getattr(args, "sanitize", None)
    return None if mode in (None, "off") else mode


def _journal_for(args: argparse.Namespace):
    """The campaign journal a ``--journal``/``--resume`` pair asks for."""
    from repro.api import JournalError, open_journal

    journal = getattr(args, "journal", None)
    resume = getattr(args, "resume", None)
    if journal and resume:
        raise SystemExit(
            "error: --journal and --resume are mutually exclusive "
            "(--resume PATH already continues the journal at PATH)"
        )
    try:
        return open_journal(resume or journal, resume=bool(resume))
    except JournalError as exc:
        raise SystemExit(f"error: {exc}")


def _finish_journal(journal, preempted: bool) -> None:
    if journal is not None:
        journal.close()
        if preempted:
            print(
                f"preempted: progress saved; resume with "
                f"--resume {journal.path}",
                file=sys.stderr,
            )


def _progress(args: argparse.Namespace):
    """The ``progress=`` argument a ``--progress`` flag asks for."""
    return True if getattr(args, "progress", False) else None


def _cache_for(args: argparse.Namespace) -> Optional[ResultCache]:
    """The result cache a ``--cache``/``--cache-max-bytes`` pair asks for."""
    directory = getattr(args, "cache", None)
    max_bytes = getattr(args, "cache_max_bytes", None)
    if not directory:
        if max_bytes is not None:
            raise SystemExit("error: --cache-max-bytes requires --cache")
        return None
    try:
        cache = ResultCache(directory, max_bytes=max_bytes)
    except ValueError as exc:
        raise SystemExit(f"error: bad --cache-max-bytes value: {exc}")
    cache.sweep_stale()
    return cache


@contextlib.contextmanager
def _obs_session(args: argparse.Namespace):
    """Turn the runtime metrics registry on for the command's lifetime.

    ``--metrics-out DIR`` enables the registry (workers inherit the
    flag through the environment), runs a flight recorder appending
    periodic samples to ``DIR/flight.jsonl``, and writes the final
    Prometheus snapshot to ``DIR/metrics.prom`` on exit.
    ``--metrics-port N`` additionally serves live ``/metrics``.
    """
    out = getattr(args, "metrics_out", None)
    port = getattr(args, "metrics_port", None)
    if out is None and port is None:
        yield
        return
    enable_metrics()
    # The artifacts describe THIS command: drop whatever an earlier
    # in-process command left in the process-wide registry.
    METRICS.reset()
    recorder = None
    server = None
    try:
        if out is not None:
            out_dir = Path(out)
            out_dir.mkdir(parents=True, exist_ok=True)
            recorder = FlightRecorder(out_dir / "flight.jsonl", METRICS)
            recorder.start()
        if port is not None:
            server = serve_metrics(METRICS, port=port)
            print(
                f"metrics: serving "
                f"http://127.0.0.1:{server.port}/metrics",
                file=sys.stderr,
            )
        yield
    finally:
        if server is not None:
            server.stop()
        if recorder is not None:
            recorder.stop()
        if out is not None:
            try:
                write_prometheus(Path(out) / "metrics.prom", METRICS)
            except OSError as exc:
                print(
                    f"repro: warning: cannot write metrics.prom: {exc}",
                    file=sys.stderr,
                )


def _cmd_litmus(args: argparse.Namespace) -> int:
    test = _load_test(args.test, warm=args.warm)
    runner = LitmusRunner()
    config = config_by_name(args.machine)
    faults = _parse_faults(args)
    trace = _trace_spec(args)
    journal = _journal_for(args)
    cache = _cache_for(args)
    with _campaign_metrics(args), _obs_session(args), \
            _executor_for(args) as executor:
        result = runner.run(
            test,
            lambda: policy_by_name(args.policy, core=args.core),
            config,
            runs=args.runs,
            base_seed=args.seed,
            executor=executor,
            cache=cache,
            faults=faults,
            trace=trace,
            sanitize=_sanitize_mode(args),
            journal=journal,
            progress=_progress(args),
        )
    _finish_journal(journal, result.preempted)
    _write_traces(args, result.run_traces)
    if faults is not None:
        print(faults.describe())
    print(result.describe())
    if result.trace_summary is not None:
        print(result.trace_summary.describe())
    if result.preempted:
        return EXIT_PREEMPTED
    return 1 if result.violated_sc and args.expect_sc else 0


def _cmd_drf(args: argparse.Namespace) -> int:
    test = _load_test(args.test)
    with _campaign_metrics(args):
        started = time.perf_counter()
        report = api.check_drf0(
            test.program, max_executions=args.max_executions, jobs=args.jobs
        )
        wall = time.perf_counter() - started
        # check_drf0 is also a conformance-grid subroutine, so the
        # library stays silent; the CLI emits the metrics record itself.
        emit_metrics(
            CampaignMetrics(
                label=f"drf:{test.name}",
                runs=report.executions_checked,
                completed_runs=report.executions_checked,
                wall_clock_seconds=wall,
                runs_per_second=(
                    report.executions_checked / wall if wall > 0 else 0.0
                ),
                completion_rate=1.0,
                jobs=args.jobs,
            )
        )
    print(report.describe())
    return 0 if report.obeys else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    test = _load_test(args.test, warm=args.warm)
    program = test.executable_program()
    trace = _trace_spec(args)
    journal = _journal_for(args)
    with _campaign_metrics(args), _obs_session(args), \
            _executor_for(args) as executor:
        report = api.explore(
            program,
            args.policy,
            core=args.core,
            max_delays=args.delays,
            prune=not args.no_prune,
            max_runs=args.max_runs,
            executor=executor,
            trace=trace,
            sanitize=_sanitize_mode(args),
            journal=journal,
            resume=bool(getattr(args, "resume", None)),
            progress=_progress(args),
        )
    _finish_journal(journal, report.preempted)
    _write_traces(args, report.run_traces)
    print(report.describe())
    if report.preempted:
        return EXIT_PREEMPTED
    violations = api.verify_sc(program, report.observables)
    if violations:
        print(f"\n{len(violations)} outcome(s) are NOT sequentially consistent:")
        for violation in violations:
            print(f"  {violation.observed.describe()}")
        return 1
    print("\nall reachable outcomes are sequentially consistent "
          f"(within delay bound {args.delays})")
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    runner = LitmusRunner()
    rows = []
    with _campaign_metrics(args), _executor_for(args) as executor:
        for config in FIGURE1_CONFIGS:
            warm = config.has_caches
            test = fig1_dekker(warm=warm)
            for policy_name in ("RELAXED", "SC"):
                result = runner.run(
                    test, lambda name=policy_name: policy_by_name(name),
                    config, runs=args.runs, executor=executor,
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


def _cmd_figure3(args: argparse.Namespace) -> int:
    with _campaign_metrics(args), _executor_for(args) as executor:
        rows = figure3_sweep(
            latencies=args.latencies,
            seeds=list(range(1, args.seeds + 1)),
            executor=executor,
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


def _cmd_conformance(args: argparse.Namespace) -> int:
    faults = _parse_faults(args)
    trace = _trace_spec(args)
    journal = _journal_for(args)
    cache = _cache_for(args)
    with _campaign_metrics(args), _obs_session(args), \
            _executor_for(args) as executor:
        report = api.run_conformance(
            runs_per_test=args.runs, executor=executor, cache=cache,
            faults=faults, trace=trace, sanitize=_sanitize_mode(args),
            journal=journal, progress=_progress(args),
        )
    _finish_journal(journal, report.preempted)
    _write_traces(args, report.run_traces)
    if faults is not None:
        print(faults.describe())
    print(report.describe())
    if report.preempted:
        return EXIT_PREEMPTED
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


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    catalog = catalog_by_name()
    for name in args.tests:
        if name not in catalog:
            raise SystemExit(
                f"error: {name!r} is not a catalog test "
                f"({', '.join(sorted(catalog))})"
            )
    cache = _cache_for(args)
    with _campaign_metrics(args), _obs_session(args), \
            _executor_for(args) as executor:
        report = api.crosscheck(
            tests=args.tests or None,
            policies=args.policies or None,
            configs=args.machines or None,
            runs_per_test=args.runs,
            base_seed=args.seed,
            max_candidates=args.max_candidates,
            executor=executor,
            cache=cache,
            progress=_progress(args),
        )
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_delays(args: argparse.Namespace) -> int:
    test = _load_test(args.test)
    print(api.describe_delay_set(api.delay_pairs(test.program)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    test = _load_test(args.test, warm=args.warm)
    config = config_by_name(args.machine)
    try:
        spec = TraceSpec.parse_filter(args.filter, ring=args.ring)
    except ValueError as exc:
        raise SystemExit(f"error: bad --filter value: {exc}")
    system = api.System(
        test.executable_program(),
        policy_by_name(args.policy, core=args.core),
        config,
        seed=args.seed,
        trace=spec,
        sanitize=_sanitize_mode(args),
    )
    run = system.run(max_cycles=args.max_cycles)
    events = run.trace_events or ()
    if run.deadlock is not None:
        print(run.deadlock.describe())

    if args.format == "pretty":
        print(format_timeline(events, limit=args.limit))
    else:
        if not args.out:
            raise SystemExit(
                f"error: --out is required with --format {args.format}"
            )
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


def _cmd_fuzz(args: argparse.Namespace) -> int:
    config = config_by_name(args.machine)
    policy_spec = api.PolicySpec.of(
        lambda: policy_by_name(args.policy, core=args.core)
    )
    faults = _parse_faults(args)
    specs = [
        api.RunSpec(
            program=_fuzz_program(args.family, program_seed),
            policy=policy_spec,
            config=config,
            seed=args.seed + program_seed,
            max_cycles=args.max_cycles,
            faults=faults,
            sanitize=_sanitize_mode(args),
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
    journal = _journal_for(args)
    cache = _cache_for(args)
    with _campaign_metrics(args), _obs_session(args), \
            _executor_for(args) as executor:
        campaign = api.campaign(
            specs,
            executor=executor,
            cache=cache,
            label=f"fuzz:{args.family}",
            triage=triage,
            journal=journal,
            progress=_progress(args),
        )
    _finish_journal(journal, campaign.preempted)
    print(campaign.metrics.describe())
    if campaign.triage is not None:
        print(campaign.triage.describe())
    failures = campaign.failures
    if failures and not args.triage_dir:
        print(f"{len(failures)} failing run(s); re-run with --triage-dir "
              f"to shrink them into repro bundles")
    return EXIT_PREEMPTED if campaign.preempted else 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.testing.chaos import soak

    with _campaign_metrics(args), _obs_session(args):
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
            jobs=args.jobs,
            progress=_progress(args),
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


def _service_client(args: argparse.Namespace):
    """Build a ServiceClient from --state (endpoint file) or host/port."""
    from repro.service import ServiceClient

    if getattr(args, "state", None):
        try:
            return ServiceClient.from_state_dir(args.state)
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"repro: no serving endpoint under {args.state}: {exc}"
            )
    return ServiceClient(host=args.host, port=args.port)


def _parse_job_params(pairs: Optional[Sequence[str]]) -> dict:
    """``-p key=value`` pairs; values parse as JSON, else stay strings."""
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(
                f"repro: bad --param {pair!r} (expected key=value)"
            )
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import VerificationService, serve_blocking

    # The service always runs with the registry on: its own counters
    # (queue depth, breaker state, dedup hits) back /metrics and
    # /readyz, and campaign workers inherit the flag.
    enable_metrics()
    engine = VerificationService(
        args.state,
        capacity=args.capacity,
        per_client=args.per_client,
        workers=args.workers,
        campaign_jobs=args.campaign_jobs,
        run_timeout=args.run_timeout,
        retries=args.retries,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        max_done=args.max_done,
        cache_max_bytes=args.cache_max_bytes,
    )

    def ready(host: str, port: int) -> None:
        print(
            f"repro serve: http://{host}:{port} (state: {args.state})",
            file=sys.stderr,
            flush=True,
        )

    with _obs_session(args):
        code = serve_blocking(
            engine, host=args.host, port=args.port, ready_message=ready
        )
    if code == 0:
        print("repro serve: drained cleanly", file=sys.stderr)
    return code


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import Rejected, ServiceError, Unavailable

    client = _service_client(args)
    params = _parse_job_params(args.param)
    try:
        doc = client.submit(
            args.kind, params,
            client=args.client_id, deadline_s=args.deadline,
        )
    except Rejected as exc:
        print(
            f"repro submit: shed (429): {exc}; "
            f"retry after {exc.retry_after:.3g}s",
            file=sys.stderr,
        )
        return EXIT_PREEMPTED
    except Unavailable as exc:
        print(f"repro submit: draining (503): {exc}", file=sys.stderr)
        return EXIT_PREEMPTED
    except ServiceError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    job = doc["job"]
    print(
        f"job {job['id']}: {doc.get('verdict')} (state {job['state']})",
        file=sys.stderr,
    )
    if not args.wait:
        print(job["id"])
        return 0
    try:
        job = client.wait_done(job["id"], timeout=args.wait)
    except ServiceError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1
    if job["state"] != "done":
        print(
            f"repro submit: job {job['id']} {job['state']}: "
            f"{job.get('error')}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(client.result(job["id"])["result"], indent=2,
                     sort_keys=True))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.job_id:
            job = client.status(args.job_id, wait=args.wait)
            print(json.dumps(job, indent=2, sort_keys=True))
        else:
            jobs = client.jobs()
            for job in jobs:
                flags = []
                if job.get("degraded"):
                    flags.append("degraded")
                if job.get("recovered"):
                    flags.append("recovered")
                suffix = f" [{', '.join(flags)}]" if flags else ""
                print(f"{job['id']}  {job['kind']:<12} {job['state']}"
                      f"{suffix}")
            if not jobs:
                print("(no jobs)")
    except ServiceError as exc:
        print(f"repro status: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        doc = client.result(args.job_id)
    except ServiceError as exc:
        if exc.status == 409:
            print(f"repro result: {exc}", file=sys.stderr)
            return 2
        print(f"repro result: {exc}", file=sys.stderr)
        return 1
    job = doc["job"]
    if job["state"] != "done":
        print(
            f"repro result: job {job['id']} {job['state']}: "
            f"{job.get('error')}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(doc["result"], indent=2, sort_keys=True))
    return 0


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

    def add_campaign_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="run the campaign on N worker processes (1 = serial)",
        )
        cmd.add_argument(
            "--metrics-json", metavar="PATH",
            help="write campaign metrics (wall-clock, runs/sec, "
            "completion/failure counts) to PATH as JSON",
        )
        cmd.add_argument(
            "--run-timeout", type=float, default=None, metavar="SECONDS",
            help="per-run wall-clock budget; a run over budget is "
            "retried, then reported as a failure (parallel campaigns "
            "only — serial runs rely on the simulation cycle watchdog)",
        )
        cmd.add_argument(
            "--retries", type=int, default=2, metavar="N",
            help="retry budget per run for transient worker failures "
            "(exponential backoff; default 2)",
        )

    def add_obs_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--progress", action="store_true",
            help="print a live heartbeat on stderr while the campaign "
            "runs: done/total, rate, ETA, cache hits, failures",
        )
        cmd.add_argument(
            "--metrics-out", metavar="DIR",
            help="enable the runtime metrics registry and write "
            "DIR/metrics.prom (Prometheus text exposition) plus "
            "DIR/flight.jsonl (periodic samples) for this command",
        )
        cmd.add_argument(
            "--metrics-port", type=int, default=None, metavar="PORT",
            help="also serve live metrics at "
            "http://127.0.0.1:PORT/metrics while the command runs",
        )

    def add_cache_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--cache", metavar="DIR",
            help="memoise run results on disk in DIR, keyed by spec "
            "digest; reuse the directory to skip already-computed runs",
        )
        cmd.add_argument(
            "--cache-max-bytes", type=int, default=None, metavar="N",
            help="bound the --cache directory to about N bytes, "
            "evicting least-recently-used entries",
        )

    def add_journal_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--journal", metavar="PATH",
            help="journal campaign progress durably to PATH (append-only "
            "fsync'd JSONL); rerunning with the same path resumes, "
            "executing only what is not yet journaled",
        )
        cmd.add_argument(
            "--resume", metavar="PATH",
            help="resume a killed or preempted campaign from its journal "
            "at PATH (must exist; otherwise identical to --journal)",
        )

    def add_trace_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--trace", metavar="PATH",
            help="record a structured event trace of every run to PATH",
        )
        cmd.add_argument(
            "--trace-format", choices=FORMATS, default="chrome",
            help="trace file format: chrome (Perfetto-loadable JSON) "
            "or jsonl (one event per line; default chrome)",
        )
        cmd.add_argument(
            "--trace-filter", metavar="CATS",
            help="comma-separated event categories to record "
            "(e.g. 'stall,msg'; default all)",
        )

    def add_faults_option(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--faults", metavar="PLAN",
            help="inject adversarial message timings: a preset "
            "(light, heavy) or key=value pairs, e.g. "
            "'jitter=12,reorder=20,duplicate=5,salt=1'",
        )

    def add_sanitize_option(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--sanitize", choices=("off", "log", "strict"), default=None,
            help="check protocol invariants every cycle: log records "
            "violations on the result, strict fails the run on the "
            "first one (default off)",
        )

    def add_policy_option(
        cmd: argparse.ArgumentParser, default: str
    ) -> None:
        # Choices come from the policy registry, so a policy registered
        # in repro.models is immediately a legal --policy value here.
        cmd.add_argument(
            "--policy", choices=policy_names(), default=default,
            metavar="POLICY",
            help="ordering policy, one of "
            f"{', '.join(policy_names())} (default {default})",
        )

    def add_core_option(cmd: argparse.ArgumentParser) -> None:
        from repro.cpu.core import core_names

        cmd.add_argument(
            "--core", choices=tuple(core_names()), default=None,
            help="processor-core shape: simple (one access at a time; "
            "default) or pipelined (issue window with store-to-load "
            "forwarding)",
        )

    litmus = sub.add_parser("litmus", help="run a litmus campaign")
    litmus.add_argument("test", help="catalog name or .litmus file")
    add_policy_option(litmus, "RELAXED")
    litmus.add_argument("--machine", default="net_cache")
    litmus.add_argument("--runs", type=int, default=100)
    litmus.add_argument("--seed", type=int, default=12345)
    litmus.add_argument("--warm", action="store_true",
                        help="warm caches (for .litmus files)")
    litmus.add_argument("--expect-sc", action="store_true",
                        help="exit nonzero if any outcome violates SC")
    add_campaign_options(litmus)
    add_obs_options(litmus)
    add_cache_options(litmus)
    add_journal_options(litmus)
    add_faults_option(litmus)
    add_trace_options(litmus)
    add_sanitize_option(litmus)
    add_core_option(litmus)
    litmus.set_defaults(func=_cmd_litmus)

    drf = sub.add_parser("drf", help="check a program against DRF0")
    drf.add_argument("test")
    drf.add_argument("--max-executions", type=int, default=None)
    drf.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="check idealized executions on N worker processes",
    )
    drf.add_argument(
        "--metrics-json", metavar="PATH",
        help="write check metrics (wall-clock, executions/sec) to PATH",
    )
    drf.set_defaults(func=_cmd_drf)

    explore = sub.add_parser("explore", help="systematic schedule exploration")
    explore.add_argument("test")
    add_policy_option(explore, "DEF2")
    explore.add_argument("--delays", type=int, default=2)
    explore.add_argument("--max-runs", type=int, default=20_000)
    explore.add_argument(
        "--no-prune", action="store_true",
        help="disable conflict-aware pruning of provably redundant "
        "delay decisions (prune is on by default and never changes "
        "the outcome set)",
    )
    explore.add_argument("--warm", action="store_true")
    add_campaign_options(explore)
    add_obs_options(explore)
    add_journal_options(explore)
    add_trace_options(explore)
    add_sanitize_option(explore)
    add_core_option(explore)
    explore.set_defaults(func=_cmd_explore)

    fig1 = sub.add_parser("figure1", help="regenerate the Figure-1 matrix")
    fig1.add_argument("--runs", type=int, default=80)
    add_campaign_options(fig1)
    fig1.set_defaults(func=_cmd_figure1)

    fig3 = sub.add_parser("figure3", help="regenerate the Figure-3 sweep")
    fig3.add_argument("--latencies", type=int, nargs="+",
                      default=[4, 8, 16, 32, 64])
    fig3.add_argument("--seeds", type=int, default=5)
    add_campaign_options(fig3)
    fig3.set_defaults(func=_cmd_figure3)

    catalog = sub.add_parser("catalog", help="list built-in litmus tests")
    catalog.set_defaults(func=_cmd_catalog)

    conformance = sub.add_parser(
        "conformance", help="audit every (machine, policy) pair"
    )
    conformance.add_argument("--runs", type=int, default=30)
    add_campaign_options(conformance)
    add_obs_options(conformance)
    add_cache_options(conformance)
    add_journal_options(conformance)
    add_faults_option(conformance)
    add_trace_options(conformance)
    add_sanitize_option(conformance)
    conformance.set_defaults(func=_cmd_conformance)

    crosscheck = sub.add_parser(
        "crosscheck",
        help="check every policy against its axiomatic model "
        "over the litmus catalog",
    )
    crosscheck.add_argument(
        "tests", nargs="*", metavar="TEST",
        help="catalog tests to check (default: the whole catalog; "
        "control-flow tests are reported as skipped)",
    )
    crosscheck.add_argument(
        "--policy", action="append", dest="policies",
        choices=policy_names(), metavar="POLICY", default=None,
        help="check only this policy (repeatable; default all of "
        f"{', '.join(policy_names())})",
    )
    crosscheck.add_argument(
        "--machine", action="append", dest="machines", metavar="NAME",
        default=None,
        help="run on this machine configuration (repeatable; default "
        "net_nocache and net_cache)",
    )
    crosscheck.add_argument("--runs", type=int, default=12,
                            help="hardware runs per (test, policy, "
                            "machine) cell (default 12)")
    crosscheck.add_argument("--seed", type=int, default=2026)
    crosscheck.add_argument(
        "--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES,
        metavar="N",
        help="abort a test whose axiomatic candidate space, "
        "prod(writes per location)! x prod(writes to each read's "
        "location + 1), exceeds N executions; checked before any "
        f"candidate is built (default {DEFAULT_MAX_CANDIDATES})",
    )
    add_campaign_options(crosscheck)
    add_obs_options(crosscheck)
    add_cache_options(crosscheck)
    crosscheck.set_defaults(func=_cmd_crosscheck)

    delays = sub.add_parser("delays", help="Shasha-Snir delay set of a test")
    delays.add_argument("test")
    delays.set_defaults(func=_cmd_delays)

    trace = sub.add_parser(
        "trace",
        help="replay one litmus run with tracing and show its timeline",
    )
    trace.add_argument("test", help="catalog name or .litmus file")
    add_policy_option(trace, "DEF2")
    trace.add_argument("--machine", default="net_cache")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--warm", action="store_true",
                       help="warm caches (for .litmus files)")
    trace.add_argument("--max-cycles", type=int, default=1_000_000)
    trace.add_argument("--out", metavar="PATH",
                       help="trace output file (for jsonl/chrome formats)")
    trace.add_argument(
        "--format", choices=("pretty",) + FORMATS, default="pretty",
        help="pretty (terminal timeline), chrome (Perfetto JSON), "
        "or jsonl",
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
    add_sanitize_option(trace)
    add_core_option(trace)
    trace.set_defaults(func=_cmd_trace)

    fuzz = sub.add_parser(
        "fuzz",
        help="run random programs and triage failures into repro bundles",
    )
    fuzz.add_argument(
        "--family", choices=_FUZZ_FAMILIES, default="spin",
        help="random-program family (spin seeds deterministic hangs; "
        "all cycles through every family)",
    )
    fuzz.add_argument("--seeds", type=int, default=20, metavar="N",
                      help="number of random programs to generate")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base timing seed (program seed is added)")
    add_policy_option(fuzz, "DEF2")
    fuzz.add_argument("--machine", default="net_cache")
    fuzz.add_argument("--max-cycles", type=int, default=60_000,
                      help="cycle watchdog budget per run")
    fuzz.add_argument(
        "--triage-dir", metavar="DIR",
        help="deduplicate failures by signature, shrink each, and "
        "write replayable repro bundles into DIR",
    )
    fuzz.add_argument("--max-bundles", type=int, default=8, metavar="N",
                      help="bundle at most N distinct failure signatures")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="bundle failing specs without shrinking them")
    add_campaign_options(fuzz)
    add_obs_options(fuzz)
    add_cache_options(fuzz)
    add_journal_options(fuzz)
    add_faults_option(fuzz)
    add_sanitize_option(fuzz)
    add_core_option(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    replay = sub.add_parser(
        "replay",
        help="re-execute a repro bundle and verify its failure signature",
    )
    replay.add_argument("bundle", help="path to a repro bundle JSON file")
    replay.set_defaults(func=_cmd_replay)

    soak = sub.add_parser(
        "soak",
        help="chaos-test crash safety: kill a journaled campaign at "
        "seeded points, resume it, and prove exactly-once results",
    )
    soak.add_argument("--test", default="fig1_dekker",
                      help="catalog litmus test to campaign on")
    add_policy_option(soak, "RELAXED")
    soak.add_argument("--machine", default="net_nocache")
    soak.add_argument("--runs", type=int, default=24,
                      help="seeds in the campaign under chaos")
    soak.add_argument("--seed", type=int, default=12345,
                      help="campaign base seed")
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
    soak.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run the baseline and the supervised campaign on N "
        "worker processes (1 = serial)",
    )
    soak.add_argument(
        "--metrics-json", metavar="PATH",
        help="write the baseline campaign's metrics to PATH as JSON",
    )
    add_obs_options(soak)
    soak.set_defaults(func=_cmd_soak)

    serve = sub.add_parser(
        "serve",
        help="run the verification job service over HTTP "
        "(drain on SIGTERM, exit 0)",
    )
    serve.add_argument("--state", required=True, metavar="DIR",
                       help="durable state directory: job log, campaign "
                       "journal, result cache, endpoint file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral; the bound port "
                       "lands in DIR/endpoint)")
    serve.add_argument("--capacity", type=int, default=32,
                       help="admission queue bound; beyond it submissions "
                       "shed with 429")
    serve.add_argument("--per-client", type=int, default=None, metavar="N",
                       help="fairness cap: at most N queued/running jobs "
                       "per client id")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent jobs (engine worker threads)")
    serve.add_argument("--campaign-jobs", type=int, default=2, metavar="N",
                       help="worker processes per campaign (1 = serial)")
    serve.add_argument("--run-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per run (deadlines may "
                       "shrink it further)")
    serve.add_argument("--retries", type=int, default=2,
                       help="environmental-failure retries per run")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive pool failures before the circuit "
                       "breaker opens (degraded serial execution)")
    serve.add_argument("--breaker-reset", type=float, default=30.0,
                       metavar="SECONDS",
                       help="open-state dwell before a half-open probe")
    serve.add_argument("--max-done", type=int, default=256,
                       help="terminal jobs kept in memory (LRU; results "
                       "stay durable in the job log)")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       metavar="N", help="LRU bound for the result cache")
    add_obs_options(serve)
    serve.set_defaults(func=_cmd_serve)

    def add_conn_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--state", metavar="DIR", default=None,
            help="server state dir; connect via its endpoint file",
        )
        cmd.add_argument("--host", default="127.0.0.1")
        cmd.add_argument("--port", type=int, default=8787)

    submit = sub.add_parser(
        "submit", help="submit a job to a running verification service"
    )
    add_conn_options(submit)
    submit.add_argument("kind",
                        help="job kind: litmus, explore, verify, "
                        "or conformance")
    submit.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="job parameter; VALUE parses as JSON when it can "
        "(repeatable), e.g. -p test=fig1_dekker -p runs=50",
    )
    submit.add_argument("--client", dest="client_id", default="",
                        metavar="ID",
                        help="client id for per-client fairness caps")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="end-to-end budget; queue wait counts "
                        "against it")
    submit.add_argument("--wait", type=float, default=None,
                        metavar="SECONDS", nargs="?", const=600.0,
                        help="block until the job is terminal and print "
                        "its result (default budget 600s)")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="show service job status (all jobs, or one)"
    )
    add_conn_options(status)
    status.add_argument("job_id", nargs="?", default="",
                        help="job id; omit to list every known job")
    status.add_argument("--wait", type=float, default=None,
                        metavar="SECONDS", nargs="?", const=600.0,
                        help="long-poll until the job is terminal "
                        "(default budget 600s)")
    status.set_defaults(func=_cmd_status)

    result = sub.add_parser(
        "result", help="fetch a finished service job's result document"
    )
    add_conn_options(result)
    result.add_argument("job_id")
    result.set_defaults(func=_cmd_result)

    metrics = sub.add_parser(
        "metrics",
        help="pretty-print, export, or diff runtime-metrics snapshots",
    )
    msub = metrics.add_subparsers(dest="metrics_command", required=True)
    snapshot_help = (
        "a metrics artifact: .prom text exposition, flight-recorder "
        "JSONL (last sample wins), or snapshot JSON"
    )
    mshow = msub.add_parser("show", help="pretty-print a snapshot")
    mshow.add_argument("snapshot", help=snapshot_help)
    mshow.set_defaults(func=_cmd_metrics_show)
    mexport = msub.add_parser(
        "export", help="convert a snapshot between formats"
    )
    mexport.add_argument("snapshot", help=snapshot_help)
    mexport.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="output format (default prom)",
    )
    mexport.add_argument(
        "--out", metavar="PATH",
        help="write to PATH instead of stdout",
    )
    mexport.set_defaults(func=_cmd_metrics_export)
    mdiff = msub.add_parser(
        "diff", help="per-metric deltas between two snapshots"
    )
    mdiff.add_argument("before", help=snapshot_help)
    mdiff.add_argument("after", help=snapshot_help)
    mdiff.set_defaults(func=_cmd_metrics_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(args.verbose - args.quiet)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

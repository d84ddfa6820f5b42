"""The repository benchmark: one command, five workloads, bounded metrics.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchsuite/suite.py run --seed 1 --out R.json   # end-to-end
    python3 benchsuite/suite.py trace --seed 1 --out T.json # per layer
    python3 benchsuite/suite.py compare A.json B.json       # verdicts
    python3 benchsuite/suite.py measure --workload grid --seed 1 \\
        --seconds 10 --trace 0                              # one workload

``run`` and ``trace`` measure every workload of ``BENCHMARK.json``, each
in a fresh single-threaded process running ``measure``.  ``measure``
builds the workload's inputs from the seed, times that set-up in fresh
processes, runs one untimed warm-up pass, then timed passes until
``--seconds`` have passed, checking every pass's outputs.  Its last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  It exits 1 when an output check fails and 2 when
it cannot run at all.  See ``benchsuite/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Everything a run writes lives here, inside the checkout.
SCRATCH_ROOT = os.path.join(ROOT, ".bench_build")

#: Fresh processes timed per measurement of ``setup_s``.
SETUP_REPEATS = 5
#: Share of a ``--trace 1`` run spent on untraced passes, whose median
#: is the baseline of ``trace.overhead_frac``.
UNTRACED_SHARE = 1 / 3
#: Seconds the CPU probe's three loops take on a quiet host (about
#: their fastest on the measurement host of ``README.md``, a shared
#: 2-vCPU Xeon virtual machine): the reference speed.
CPU_PROBE_REF_S = (0.0025, 0.0024, 0.0013)
#: Seconds one fsync counts for: a round figure near the median fsync
#: of the durable workloads on that machine's virtio disk (0.16 ms).
FSYNC_REF_S = 0.0002
#: Shortest stretch of a timed region between two CPU probes.  The
#: host's speed changes within a second, so probes far apart miss it.
SEGMENT_S = 0.25
#: A pass whose CPU probe is this far off the run's median probe ran on
#: a host of different speed; reports flag it.
PROBE_TOLERANCE = 0.10
#: The CPU probe's reads loop walks this table: 4 MiB, larger than a
#: core's private caches.
_PROBE_TABLE = bytes(range(256)) * (1 << 14)


class SuiteError(Exception):
    """The benchmark cannot run here (exit code 2)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SuiteError(f"cannot read {path}: {exc}")


def _workloads():
    """The workload module, with the checkout's ``src/`` importable."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    try:
        import workloads
    except ImportError as exc:
        raise SuiteError(f"cannot import the program from {src}: {exc}")
    return workloads


def host_info() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _arith() -> None:
    total = 0
    for i in range(50_000):
        total += i * i


def _reads() -> None:
    table, j, total = _PROBE_TABLE, 1, 0
    for _ in range(20_000):
        j = (j * 1_103_515_245 + 12_345) & 0x3FFFFF
        total += table[j]


def _alloc() -> None:
    table = {i: str(i * 7919 % 100_003) for i in range(5_000)}
    sorted(table.values())


def cpu_slowdown() -> float:
    """How many times slower than the reference host the CPU runs now.

    Three fixed pure-Python loops stand for what the workloads do:
    integer arithmetic, reads scattered over a table larger than a
    core's private caches, and building and sorting a dict of strings.
    Other tenants slow memory-bound code more than arithmetic, so each
    loop alone tracks some workloads and misses others; the mean of
    their three slowdowns tracks all of them.  No loop allocates more
    than two objects the garbage collector tracks, so no probe starts a
    collection over the workload's heap.
    """
    slowdowns = []
    for loop, reference in zip((_arith, _reads, _alloc), CPU_PROBE_REF_S):
        start = time.perf_counter()
        loop()
        slowdowns.append((time.perf_counter() - start) / reference)
    return statistics.mean(slowdowns)


class FsyncMeter:
    """While entered, counts ``os.fsync`` calls and the time spent in them."""

    def __init__(self) -> None:
        self.calls = 0
        self.wait_s = 0.0

    def __enter__(self) -> "FsyncMeter":
        real = self._real = os.fsync

        def fsync(fd):
            start = time.perf_counter()
            try:
                real(fd)
            finally:
                self.calls += 1
                self.wait_s += time.perf_counter() - start

        os.fsync = fsync
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real


def _user_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class SegmentTimer:
    """A region's wall time, and its time on the reference host.

    That time is the region's user CPU time at the reference CPU speed
    plus ``FSYNC_REF_S`` per fsync.  Other tenants of a shared host
    change three speeds under the benchmark, and none is the program's:

    - the CPU's, in phases from under a second to minutes.  A probe run
      beside the workload slows by about the same factor.  So user CPU
      time is cut into segments of at least ``SEGMENT_S`` at the points
      where the workload calls :meth:`tick`, and each segment is divided
      by the mean of the :func:`cpu_slowdown` probes on both sides of it;
    - the disk's.  A pass's mean fsync took from 0.12 ms to 0.52 ms on
      the measurement host, depending on the neighbours, and no probe
      tracked it.  So each fsync counts ``FSYNC_REF_S``;
    - the kernel's.  The same durable pass spent from 0.09 s to 0.5 s in
      the kernel outside fsync, from one pass to the next of one
      process, and no probe tracked that either.  So kernel time is not
      counted.

    The wall time, and the time the fsyncs really took, are kept beside.
    Probe time is excluded from every figure.
    """

    def __init__(self, fsyncs: FsyncMeter) -> None:
        self.fsyncs = fsyncs
        self.wall_s = self.user_s = self.cpu_ref_s = 0.0
        self.slowdowns = [cpu_slowdown()]
        self._open()

    def _open(self) -> None:
        self._wall0 = time.perf_counter()
        self._user0 = _user_s()

    def _close(self) -> None:
        wall = time.perf_counter() - self._wall0
        user = _user_s() - self._user0
        slowdown = cpu_slowdown()
        self.cpu_ref_s += user / ((self.slowdowns[-1] + slowdown) / 2)
        self.slowdowns.append(slowdown)
        self.wall_s += wall
        self.user_s += user

    def tick(self) -> None:
        """A point where the region may be cut (between two items)."""
        if time.perf_counter() - self._wall0 >= SEGMENT_S:
            self._close()
            self._open()

    def stop(self) -> dict:
        self._close()
        return {
            "wall_s": self.wall_s,
            "user_s": self.user_s,
            "ref_s": self.cpu_ref_s + self.fsyncs.calls * FSYNC_REF_S,
            "fsyncs": self.fsyncs.calls,
            "fsync_s": self.fsyncs.wait_s,
            "cpu_slowdown": statistics.median(self.slowdowns),
        }


def timed(fn, cut: bool = True):
    """``(fn(tick), timing)``: see :class:`SegmentTimer`.

    With ``cut=False`` the region is one segment: a traced pass may tick
    inside a span, which must not time the probe.
    """
    with FsyncMeter() as fsyncs:
        timer = SegmentTimer(fsyncs)
        result = fn(timer.tick if cut else lambda: None)
        return result, timer.stop()


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def flagged_passes(passes: Sequence[dict]) -> int:
    """Passes whose CPU probe is off the run's median probe."""
    probes = [p["cpu_slowdown"] for p in passes]
    if not probes:
        return 0
    median = statistics.median(probes)
    return sum(1 for p in probes if abs(p - median) > PROBE_TOLERANCE * median)


# ----------------------------------------------------------------------
# measure: one workload in this process
# ----------------------------------------------------------------------
def _setup_in_child(name: str, seed: int, sizes: dict, scratch: str) -> dict:
    """The set-up timing of one fresh process: import, build inputs.

    The child leaves what it wrote in ``scratch`` for the run to delete
    at its end: deleting many files makes a device's next writes slower.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "_setup", name,
         str(seed), json.dumps(sizes), tempfile.mkdtemp(dir=scratch)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise SuiteError(f"set-up of {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_child(name: str, seed: int, sizes: dict, scratch: str) -> dict:
    _, timing = timed(
        lambda _tick: _workloads().WORKLOADS[name].build(
            seed, scratch, **sizes
        )
    )
    return timing


class _Tracing:
    """Spans and the metrics registry, on for the traced passes only."""

    def __init__(self) -> None:
        from repro.obs import METRICS
        from spans import SpanRecorder

        self.metrics = METRICS
        self.recorder = SpanRecorder()

    def __enter__(self) -> "_Tracing":
        from repro.obs import enable_metrics

        self.recorder.install()
        enable_metrics(propagate=False)
        return self

    def __exit__(self, *exc) -> None:
        from repro.obs import disable_metrics

        disable_metrics()
        self.recorder.uninstall()

    def begin(self) -> None:
        self._before = self.metrics.snapshot()
        self.recorder.begin()

    def end(self, timing: dict) -> Dict[str, float]:
        """The pass's per-layer metrics, taken before its outputs are
        checked (a check may call into the program too)."""
        from spans import layer_metrics

        delta = self.metrics.snapshot().diff(self._before)
        return layer_metrics(self.recorder, delta, timing["wall_s"])


class _Run:
    """The passes of one workload run and what their checks found."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.passes: List[dict] = []
        self.errors: List[str] = []
        self.reference: Optional[Dict[str, int]] = None

    def one(self, tracing: Optional[_Tracing] = None) -> dict:
        from workloads import PassReport

        def body(tick):
            if tracing is not None:
                tracing.begin()
            try:
                return self.workload.run(self.inputs, tick), None
            except Exception as exc:  # a failed pass is reported, not raised
                return None, exc

        (outcome, error), timing = timed(body, cut=tracing is None)
        layers = tracing.end(timing) if tracing is not None else None
        if error is None:
            try:
                report = self.workload.check(self.inputs, outcome)
            except Exception as exc:
                report = PassReport(1, 1, errors=[f"check raised {exc!r}"])
        else:
            report = PassReport(1, 1, errors=[f"pass raised {error!r}"])
        if self.reference is None:
            self.reference = report.counts
        elif report.counts != self.reference:
            report.failed = report.items
            report.errors.append(
                f"deterministic counts changed: {report.counts} "
                f"!= {self.reference}"
            )
        self.errors.extend(report.errors)
        record = {
            **timing,
            "items": report.items,
            "failed": report.failed,
            "traced": tracing is not None,
        }
        if layers is not None:
            layers["campaign.bytes_written"] = report.counts.get(
                "bytes_written", 0
            )
            record["layers"] = layers
        self.passes.append(record)
        return record

    def until(self, seconds: float, min_passes: int,
              tracing: Optional[_Tracing] = None) -> List[dict]:
        done: List[dict] = []
        start = time.perf_counter()
        while len(done) < min_passes or time.perf_counter() - start < seconds:
            done.append(self.one(tracing))
        return done


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    sizes: Optional[dict] = None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Measure one workload in this process; returns the full record."""
    spec = load_spec()
    workload = _workloads().WORKLOADS[name]
    sizes = dict(sizes or {})
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH_ROOT)
    try:
        inputs = workload.build(seed, scratch, **sizes)
        setup = [
            _setup_in_child(name, seed, sizes, scratch)
            for _ in range(setup_repeats)
        ]
        run = _Run(workload, inputs)
        run.one()  # warm-up: lazy imports, first-touch allocation
        untraced = run.until(
            seconds * UNTRACED_SHARE if trace else seconds, min_passes=1
        )
        if trace:
            with _Tracing() as tracing:
                traced = run.until(
                    seconds * (1 - UNTRACED_SHARE), min_passes=2,
                    tracing=tracing,
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        untraced_ref = statistics.median(p["ref_s"] for p in untraced)
        for p in traced:
            p["layers"]["trace.overhead_frac"] = p["ref_s"] / untraced_ref - 1
        wanted = spec["per_layer"]
        values = {m["name"]: [p["layers"][m["name"]] for p in traced]
                  for m in wanted}
        _check_layer_counts(run, wanted, values)
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": [t["ref_s"] for t in setup],
            "items_per_ref_s": [p["items"] / p["ref_s"] for p in untraced],
            "peak_rss_mb": [
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SuiteError(f"{name} does not compute {missing}")
    failed = sum(p["failed"] for p in run.passes)
    return {
        "workload": name,
        "item": workload.item,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "host": host_info(),
        "correct": not run.errors and failed == 0,
        "attempted": sum(p["items"] for p in run.passes),
        "failed": failed,
        "errors": run.errors[:20],
        "metrics": {
            m["name"]: {
                # Counts repeat exactly, so they report as whole numbers.
                "value": (
                    values[m["name"]][0] if m["unit"] == "count"
                    else statistics.median(values[m["name"]])
                ),
                "unit": m["unit"],
                "samples": values[m["name"]],
            }
            for m in wanted
        },
        "counts": run.reference,
        "setup": setup,
        "passes": run.passes,
    }


def _check_layer_counts(run: _Run, wanted, values) -> None:
    """Per-layer counts are deterministic: equal on every traced pass."""
    for metric in wanted:
        seen = set(values[metric["name"]])
        if metric["unit"] == "count" and len(seen) > 1:
            run.errors.append(
                f"{metric['name']} differs across traced passes: {sorted(seen)}"
            )
            for p in run.passes:
                if p["traced"]:
                    p["failed"] = p["items"]


def exit_status(record: dict) -> int:
    """``measure``'s exit code: 1 when a run failed or a check did."""
    return 0 if record["correct"] else 1


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


# ----------------------------------------------------------------------
# run / trace: every workload, each in a fresh process
# ----------------------------------------------------------------------
def run_suite(seed: int, seconds: float, trace: bool, out: str) -> int:
    spec = load_spec()
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    records = {}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        fd, path = tempfile.mkstemp(suffix=".json", dir=SCRATCH_ROOT)
        os.close(fd)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "measure",
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--out", path],
            stdout=subprocess.DEVNULL,
        )
        try:
            with open(path) as fh:
                records[name] = json.load(fh)
        except ValueError:
            raise SuiteError(f"measure {name} wrote no record "
                             f"(exit {proc.returncode})")
        finally:
            os.unlink(path)
        status = max(status, proc.returncode)
    document = {
        "host": host_info(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workloads": records,
    }
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1)
    print(format_run(document))
    print(f"wrote {out}")
    return status


def format_run(document: dict) -> str:
    host = document["host"]
    lines = [
        f"seed {document['seed']}, {document['seconds']} s per workload, "
        f"nproc {host['nproc']}, python {host['python']}"
    ]
    for name, record in document["workloads"].items():
        attempted = record["attempted"]
        lines.append("")
        lines.append(
            f"{name} ({record['item']}): "
            f"{'ok' if record['correct'] else 'FAILED'}, "
            f"failed_frac {record['failed'] / max(attempted, 1):.4g} "
            f"({record['failed']}/{attempted}), "
            f"{len(record['passes'])} passes, "
            f"{flagged_passes(record['passes'])} flagged by the host probe"
        )
        for error in record["errors"]:
            lines.append(f"  ! {error}")
        for metric, m in record["metrics"].items():
            q1, median, q3 = quartiles(m["samples"])
            lines.append(
                f"  {metric:28s} {median:14.6g} {m['unit']:9s} "
                f"[{q1:.6g}, {q3:.6g}] n={len(m['samples'])}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# compare: a verdict per (workload, metric)
# ----------------------------------------------------------------------
def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """``better``/``worse``/``unchanged``/``unresolved`` for B against A.

    The medians decide against the bound; a side whose quartile spread
    exceeds the bound leaves the pair unresolved, unless every sample of
    one side beats every sample of the other.
    """
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    a_wins = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not (a_wins or b_wins):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict):
    """``(rows, problems)``: one row per compared (workload, metric)."""
    rows = []
    problems = []
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in rec_a["metrics"] or key not in rec_b["metrics"]:
                continue
            a_s = rec_a["metrics"][key]["samples"]
            b_s = rec_b["metrics"][key]["samples"]
            v = verdict(a_s, b_s, metric["better"], metric["bound"])
            rows.append((name, key, statistics.median(a_s),
                         statistics.median(b_s), metric["bound"], v))
            if v == "worse":
                problems.append(f"{name} {key} is worse")
        counts_a, counts_b = rec_a.get("counts"), rec_b.get("counts")
        if counts_a is not None and counts_b is not None:
            for key in sorted(set(counts_a) | set(counts_b)):
                if counts_a.get(key) != counts_b.get(key):
                    problems.append(
                        f"{name} count {key}: {counts_a.get(key)} "
                        f"!= {counts_b.get(key)}"
                    )
    return rows, problems


def compare_files(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    rows, problems = compare(a, b, spec)
    print(f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for name, key, med_a, med_b, bound, v in rows:
        print(f"{name:14s} {key:16s} {med_a:12.6g} {med_b:12.6g} "
              f"{(med_b - med_a) / med_a:+8.1%} {bound:6.0%}  {v}")
    for side, doc in (("A", a), ("B", b)):
        for name, record in doc["workloads"].items():
            flagged = flagged_passes(record["passes"])
            if flagged:
                print(f"{side} {name}: {flagged} of {len(record['passes'])} "
                      f"passes ran at a host speed >10% off the median")
    for problem in problems:
        print(f"! {problem}")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def _parser(spec: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suite.py", description=__doc__.split("\n\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser(
        "measure", help="measure one workload (the BENCHMARK.json command)"
    )
    m.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.add_argument("--out", help="also write the full record here")

    for command, help_text in (
        ("run", "every workload untraced: end-to-end metrics"),
        ("trace", "every workload traced: per-layer metrics"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=spec["run_seconds"])
        p.add_argument("--out", default=os.path.join(
            SCRATCH_ROOT, f"{command}.json"))

    c = sub.add_parser("compare", help="verdicts of B against A")
    c.add_argument("a")
    c.add_argument("b")

    s = sub.add_parser("_setup", help=argparse.SUPPRESS)
    s.add_argument("workload")
    s.add_argument("seed", type=int)
    s.add_argument("sizes")
    s.add_argument("scratch")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        spec = load_spec()
        args = _parser(spec).parse_args(argv)
        if args.command == "_setup":
            print(json.dumps(setup_child(args.workload, args.seed,
                                         json.loads(args.sizes),
                                         args.scratch)))
            return 0
        if args.command == "measure":
            record = measure(args.workload, args.seed, args.seconds,
                             trace=bool(args.trace))
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(record, fh)
            for error in record["errors"]:
                print(f"! {error}", file=sys.stderr)
            print(result_line(record))
            return exit_status(record)
        if args.command in ("run", "trace"):
            return run_suite(args.seed, args.seconds,
                             args.command == "trace", args.out)
        return compare_files(args.a, args.b)
    except SuiteError as exc:
        print(f"suite.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

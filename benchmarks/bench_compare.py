"""Diff two ``BENCH_prN.json`` snapshots with per-metric tolerance.

The committed perf trajectory (one snapshot per PR at the repo root) is
only useful if a regression in it fails loudly.  This tool compares a
baseline snapshot against a candidate, metric by metric::

    python benchmarks/bench_compare.py BENCH_pr7.json BENCH_pr8.json

Comparison rules, chosen to match what the numbers mean:

* keys ending in ``_s`` (wall-clock seconds) and ``_pct`` (overhead
  percentages) are noisy — the candidate may be *slower* by up to the
  tolerance band (default 50%, ``--tolerance``) before the gate fails;
  getting faster never fails.  Percentages additionally get an absolute
  grace band (``--pct-grace``, default 5 points) because a 1% → 2%
  overhead is a doubling that means nothing.
* every other numeric key is a count or configuration value
  (``runs``, ``sc_outcomes``, ``group_commit``) and must match exactly
  — a changed count is a changed workload, not a perf delta.
* ``schema``, ``pr``, and the ``host`` block identify the snapshot
  rather than measure it and are never compared.
* keys present on only one side are reported but do not fail: the
  trajectory grows a section per PR by design.

Exit status is 0 when every compared metric is within tolerance, 1
otherwise, so CI can use the comparison as a gate.

The repository benchmark is ``BENCHMARK.json``, run by
``benchsuite/suite.py``; this tool only diffs the older per-kernel
snapshots.
"""

import argparse
import json
import sys

#: Identity keys: they say *which* snapshot this is, not how fast.
SKIP_KEYS = ("schema", "pr", "host")

#: Default slack for wall-clock metrics: CI boxes are noisy, and the
#: trajectory is advisory between machines.  Regressions far outside
#: this band are real even through the noise.
DEFAULT_TOLERANCE = 0.5

#: Absolute grace (in points) for ``_pct`` overhead metrics.
DEFAULT_PCT_GRACE = 5.0


def flatten(snapshot, prefix=""):
    """Numeric leaves as dotted keys: ``{"cores.simple.campaign_s": x}``."""
    flat = {}
    for key, value in snapshot.items():
        if not prefix and key in SKIP_KEYS:
            continue
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            flat[dotted] = value
    return flat


def compare(
    baseline,
    candidate,
    tolerance=DEFAULT_TOLERANCE,
    pct_grace=DEFAULT_PCT_GRACE,
    ignore=(),
):
    """Compare two snapshot dicts; returns (report_lines, violations)."""
    base = flatten(baseline)
    cand = flatten(candidate)
    lines = []
    violations = []
    for key in sorted(set(base) | set(cand)):
        if any(key == pat or key.startswith(pat + ".") for pat in ignore):
            continue
        if key not in cand:
            lines.append(f"  - {key}: removed (was {base[key]})")
            continue
        if key not in base:
            lines.append(f"  + {key}: added ({cand[key]})")
            continue
        old, new = base[key], cand[key]
        leaf = key.rsplit(".", 1)[-1]
        if leaf.endswith("_s"):
            limit = old * (1 + tolerance)
            ok = new <= limit
            delta = (new - old) / old * 100 if old else 0.0
            verdict = "ok" if ok else f"REGRESSION (> +{tolerance:.0%})"
            lines.append(
                f"    {key}: {old:g} -> {new:g} ({delta:+.1f}%) {verdict}"
            )
        elif leaf.endswith("_pct"):
            limit = max(old * (1 + tolerance), old + pct_grace)
            ok = new <= limit
            lines.append(
                f"    {key}: {old:g} -> {new:g} "
                f"({'ok' if ok else f'REGRESSION (> {limit:g})'})"
            )
        else:
            ok = new == old
            lines.append(
                f"    {key}: {old:g} -> {new:g} "
                f"({'ok' if ok else 'MISMATCH (counts must agree)'})"
            )
        if not ok:
            violations.append(key)
    return lines, violations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="previous BENCH_prN.json")
    parser.add_argument("candidate", help="new BENCH_prN.json")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        metavar="FRAC",
        help="allowed slowdown fraction for _s/_pct metrics "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--pct-grace", type=float, default=DEFAULT_PCT_GRACE,
        metavar="POINTS",
        help="absolute grace band for _pct metrics, in percentage "
        "points (default %(default)s)",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="KEY",
        help="dotted key (or prefix) to exclude; repeatable",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.candidate) as handle:
        candidate = json.load(handle)

    lines, violations = compare(
        baseline, candidate,
        tolerance=args.tolerance,
        pct_grace=args.pct_grace,
        ignore=tuple(args.ignore),
    )
    print(f"bench-compare: {args.baseline} -> {args.candidate} "
          f"(tolerance +{args.tolerance:.0%} on _s metrics)")
    for line in lines:
        print(line)
    if violations:
        print(f"FAIL: {len(violations)} metric(s) out of tolerance: "
              f"{', '.join(violations)}")
        return 1
    print("PASS: all compared metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

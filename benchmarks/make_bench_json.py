"""Generate ``BENCH_prN.json`` — the committed perf-trajectory snapshot.

The ROADMAP asks for a committed perf trajectory: one JSON per PR at the
repo root recording the wall-clock of the three headline benchmarks
(figure3, verify, explore) plus, from PR 6 on, the same litmus campaign
timed on both processor cores and the disabled-tracing baseline that
``bench_trace`` budgets against, from PR 7 on, the campaign-journal
durability overhead measured by ``bench_journal``, from PR 8 on,
the metrics-registry overhead (the same campaign with the registry off
and on) plus a ``host`` block stamping where the numbers came from,
and, from PR 10 on, the axiomatic checker's candidate-enumeration
kernel (Dekker across every model, warm IRIW's 4096 candidates).
The PR number is derived from the output filename.  Run from the repo
root::

    PYTHONPATH=src python benchmarks/make_bench_json.py BENCH_pr8.json

Numbers are best-of-N wall-clock on whatever box runs the script —
comparable *along* the trajectory only when the box stays the same,
which is why CI regenerates its own copy as an artifact instead of
diffing against the committed one, and why
``benchmarks/bench_compare.py`` (which *does* diff two snapshots)
applies generous tolerance bands to ``_s``-suffixed timings.
"""

import json
import os
import platform
import re
import sys
import tempfile
import time

from repro.analysis.figure3 import figure3_sweep
from repro.explore.explorer import explore_program
from repro.litmus.catalog import (
    fig1_dekker,
    store_forward_chain,
    store_forward_dekker,
)
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_CACHE
from repro.models.policies import RelaxedPolicy, policy_by_name
from repro.sc.verifier import SCVerifier

REPEATS = 3
CAMPAIGN_RUNS = 40


def best_of(fn, repeats=REPEATS):
    result = fn()  # warm caches outside the timed region
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def core_campaign(core):
    runner = LitmusRunner()
    results = []
    for make_test in (store_forward_dekker, store_forward_chain):
        results.append(
            runner.run(
                make_test(),
                lambda: policy_by_name("DEF1", core=core),
                NET_CACHE,
                runs=CAMPAIGN_RUNS,
                base_seed=7,
            )
        )
    return results


def obs_overhead():
    """The metrics registry's campaign-level cost, off and on.

    The disabled number is the one the ≤5% budget protects (one
    attribute load and one branch per site); the enabled number is
    informational — turning observability on is allowed to cost more.
    """
    from repro.litmus.catalog import fig1_dekker as make_dekker
    from repro.obs import METRICS

    runner = LitmusRunner()

    def campaign():
        return runner.run(
            make_dekker(), RelaxedPolicy, NET_CACHE,
            runs=CAMPAIGN_RUNS, base_seed=11,
        )

    was_enabled = METRICS.enabled
    try:
        METRICS.disable()
        disabled_s, _ = best_of(campaign)
        METRICS.enable()
        enabled_s, _ = best_of(campaign)
    finally:
        METRICS.enabled = was_enabled
    return {
        "campaign_disabled_s": round(disabled_s, 4),
        "campaign_enabled_s": round(enabled_s, 4),
        "overhead_enabled_pct": round(
            (enabled_s - disabled_s) / disabled_s * 100, 4
        ),
        "runs": CAMPAIGN_RUNS,
    }


def axiomatic_kernel():
    """The cross-checker's unit of work, on its bounding shapes."""
    from repro.axiomatic import (
        axiomatic_model_names,
        enumerate_candidates,
        model_by_name,
    )
    from repro.axiomatic.crosscheck import allowed_outcomes
    from repro.litmus.catalog import iriw

    runner = LitmusRunner()
    dekker = runner.executable(fig1_dekker())
    iriw_program = runner.executable(iriw(warm=True))
    models = ("SC", "TSO", "PSO", "WO", "RELAXED")

    dekker_s, sets = best_of(
        lambda: {
            name: allowed_outcomes(dekker, model_by_name(name))
            for name in models
        }
    )
    iriw_s, candidates = best_of(
        lambda: sum(1 for _ in enumerate_candidates(iriw_program))
    )
    iriw_models_s, _ = best_of(
        lambda: [
            allowed_outcomes(iriw_program, model_by_name(name))
            for name in axiomatic_model_names()
        ]
    )
    return {
        "dekker_all_models_s": round(dekker_s, 4),
        "iriw_enumerate_s": round(iriw_s, 4),
        "iriw_candidates": candidates,
        "iriw_all_models_s": round(iriw_models_s, 4),
        "sc_outcomes": len(sets["SC"]),
    }


def pr_number(out_path):
    """The PR number a ``BENCH_prN.json`` filename names (None if odd)."""
    match = re.search(r"pr(\d+)", os.path.basename(str(out_path)))
    return int(match.group(1)) if match else None


def host_metadata():
    """Where the numbers came from — the context that decides whether
    two snapshots are comparable at all."""
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.system(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
    }


def main(out_path):
    fig3_s, _ = best_of(
        lambda: figure3_sweep(latencies=[4, 16, 64], seeds=[1, 2])
    )
    verify_s, sc_set = best_of(
        lambda: SCVerifier().sc_result_set(fig1_dekker().program)
    )
    explore_s, report = best_of(
        lambda: explore_program(
            fig1_dekker().executable_program(), RelaxedPolicy, max_delays=1
        )
    )

    cores = {}
    for core in ("simple", "pipelined"):
        campaign_s, results = best_of(lambda: core_campaign(core))
        cores[core] = {
            "campaign_s": round(campaign_s, 4),
            "mean_cycles": round(
                sum(r.mean_cycles for r in results) / len(results), 1
            ),
            "runs": sum(r.runs for r in results),
        }

    from bench_journal import measure_journal_overhead

    with tempfile.TemporaryDirectory(prefix="bench-journal-") as tmp:
        journal = {
            key: round(value, 4)
            for key, value in measure_journal_overhead(tmp).items()
        }

    obs = obs_overhead()

    snapshot = {
        "schema": "repro-bench/1",
        "pr": pr_number(out_path),
        "host": host_metadata(),
        "bench_figure3": {"sweep_s": round(fig3_s, 4)},
        "bench_verify": {
            "dekker_sc_set_s": round(verify_s, 4),
            "sc_outcomes": len(sc_set),
        },
        "bench_explore": {
            "dekker_1delay_s": round(explore_s, 4),
            "runs": report.runs,
        },
        "cores": cores,
        "bench_axiomatic": axiomatic_kernel(),
        "bench_journal": journal,
        "bench_obs": obs,
        "trace_baseline_untraced_s": 0.028,
    }
    with open(out_path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(snapshot, indent=2, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_pr10.json")

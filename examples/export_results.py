"""Export experiment results to CSV/JSON for external analysis.

Runs a small battery (a litmus campaign, a policy comparison, the
Figure-3 sweep) and writes each to ``results/`` as both CSV and JSON.

Run:  python examples/export_results.py
"""

from pathlib import Path

from repro import Def1Policy, Def2Policy, LitmusRunner, NET_CACHE, RelaxedPolicy, SCPolicy
from repro.analysis import compare_policies, figure3_sweep
from repro.analysis.export import (
    comparison_rows,
    figure3_rows,
    litmus_rows,
    write_csv,
    write_json,
)
from repro.litmus import fig1_dekker
from repro.workloads import critical_section_program


def main() -> None:
    out = Path("results")
    out.mkdir(exist_ok=True)

    runner = LitmusRunner()
    litmus = litmus_rows(
        runner.run(fig1_dekker(warm=True), RelaxedPolicy, NET_CACHE, runs=60)
    )
    write_csv(out / "litmus_fig1.csv", litmus)
    write_json(out / "litmus_fig1.json", litmus)

    comparisons = comparison_rows(
        compare_policies(
            lambda: critical_section_program(2, 2, private_writes=6),
            [SCPolicy, Def1Policy, Def2Policy],
            config=NET_CACHE.with_overrides(
                network_base_latency=16, network_jitter=4
            ),
            runs=5,
        )
    )
    write_csv(out / "quant_critical_sections.csv", comparisons)
    write_json(out / "quant_critical_sections.json", comparisons)

    fig3 = figure3_rows(figure3_sweep(latencies=[4, 8, 16, 32, 64]))
    write_csv(out / "figure3_sweep.csv", fig3)
    write_json(out / "figure3_sweep.json", fig3)

    for path in sorted(out.iterdir()):
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()

"""End-to-end walkthrough of the 2-out-of-4 reference system (r = 0.7,
BC3, Erlang-2 inter-shock times): tie-sets, consolidated chain, shock-count
law, failure-time law, and a Monte Carlo cross-check.

Usage: python scripts/descriptive_case.py [OUTDIR]
"""

import sys
from pathlib import Path

from ckngb.chain import build_consolidated, build_count_chain, build_state_chain, chain_csv
from ckngb.experiments import ExperimentSpec, rows_to_csv, run_sntf_pmf, run_ttf
from ckngb.montecarlo import simulate_ttf
from ckngb.sntf import mean_closed
from ckngb.system import BalanceCondition
from ckngb.tiesets import enumerate_min_tiesets, system_reliability_exact, tieset_members
from ckngb.ttf import failure_time_moments, ph_from_preset


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    outdir.mkdir(parents=True, exist_ok=True)
    spec = ExperimentSpec(
        n=(4,), k=(2,), r=(0.7,), bc=(BalanceCondition.BC3,), shock=ph_from_preset("ER"),
        m_max=30, z_max=12.0, z_steps=240,
    )
    config = spec.single()

    masks = enumerate_min_tiesets(config.n, config.k, config.bc)
    print(f"minimum tie-sets ({len(masks)}):", ", ".join(tieset_members(masks, config.n)))
    reliability = system_reliability_exact(config.n, config.k, config.bc, config.r)
    print(f"one-shock reliability: {reliability:.6f}")

    masks, blocks = build_consolidated(config)
    with open(outdir / "descriptive_chain.csv", "w") as fh:
        chain_csv(fh, config.n, masks, blocks)
    print(f"consolidated chain: {masks.size} transient states -> descriptive_chain.csv")

    # the sntf-pmf and ttf tables, as the commands write them
    (outdir / "descriptive_sntf_pmf.csv").write_text(rows_to_csv(run_sntf_pmf(spec)))
    print(f"mean shock count: {mean_closed(build_state_chain(config)):.6f}")

    rows, summary = run_ttf(spec)
    (outdir / "descriptive_ttf_pdf.csv").write_text(rows_to_csv(rows))
    # E[Z^p] for p = 1..4 from the random sum: the shock count's factorial
    # moments and the inter-shock moments, with no block solve
    moments = failure_time_moments(build_count_chain(config), config.shock, 4)
    print("failure-time moments p=1..4:", ", ".join(f"{m:.6f}" for m in moments))
    print(f"failure-time SCV: {summary['scv']:.6f}")

    # one pass: the failure times are drawn on the same shock counts
    times = simulate_ttf(config, seed=20240, reps=200_000, with_sntf=True)
    counts = times.sntf
    print(
        f"simulated mean shock count {counts.mean:.4f} +/- {counts.half_width(0.95):.4f}, "
        f"simulated mean failure time {times.mean:.4f} +/- {times.half_width(0.95):.4f}"
    )


if __name__ == "__main__":
    main()

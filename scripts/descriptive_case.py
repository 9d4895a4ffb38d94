"""End-to-end walkthrough of the 2-out-of-4 reference system (r = 0.7,
BC3, Erlang-2 inter-shock times): tie-sets, consolidated chain, shock-count
law, failure-time law, and a Monte Carlo cross-check.

Usage: python scripts/descriptive_case.py [OUTDIR]
"""

import sys
from pathlib import Path

import numpy as np

from ckngb.chain import build_consolidated, chain_csv
from ckngb.montecarlo import simulate_sntf, simulate_ttf
from ckngb.sntf import mean_closed, pmf_direct, sntf_distribution, survival_direct
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.tiesets import enumerate_min_tiesets, system_reliability_exact
from ckngb.ttf import compound_from_config, failure_time_moments, pdf_grid, ph_from_preset


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    outdir.mkdir(parents=True, exist_ok=True)
    config = SystemConfig(4, 2, 0.7, BalanceCondition.BC3, ph_from_preset("ER"))

    collection = enumerate_min_tiesets(config.n, config.k, config.bc)
    print(f"minimum tie-sets ({len(collection)}):", ", ".join(map(str, collection.tiesets)))
    print(f"one-shock reliability: {system_reliability_exact(collection, config.r):.6f}")

    chain = build_consolidated(config.n, config.k, config.bc, config.r)
    (outdir / "descriptive_chain.csv").write_text(chain_csv(chain))
    print(f"consolidated chain: {chain.size} transient states -> descriptive_chain.csv")

    ms = np.arange(1, 31)
    pmf, survival = pmf_direct(config, ms), survival_direct(config, ms)
    with open(outdir / "descriptive_sntf_pmf.csv", "w") as fh:
        fh.write("m,pmf,survival\n")
        for m, p, s in zip(ms.tolist(), pmf.tolist(), survival.tolist()):
            fh.write(f"{m},{p:.12g},{s:.12g}\n")
    print(f"mean shock count: {mean_closed(sntf_distribution(config)):.6f}")

    Z = compound_from_config(config)
    zs = np.linspace(0.0, 12.0, 241)
    dens, surv = pdf_grid(Z, zs)
    with open(outdir / "descriptive_ttf_pdf.csv", "w") as fh:
        fh.write("z,pdf,survival\n")
        for z, d, s in zip(zs, dens, surv):
            fh.write(f"{z:.12g},{d:.12g},{s:.12g}\n")
    # E[Z^p] for p = 1..4 from the random sum: the shock count's factorial
    # moments and the inter-shock moments, with no block solve
    moments = failure_time_moments(Z.chain, config.shock, 4)
    print("failure-time moments p=1..4:", ", ".join(f"{m:.6f}" for m in moments))
    m1, m2 = moments[:2]
    print(f"failure-time SCV: {(m2 - m1**2) / m1**2:.6f}")

    counts = simulate_sntf(config, seed=20240, reps=200_000)
    times = simulate_ttf(config, seed=20240, reps=200_000)
    print(
        f"simulated mean shock count {counts.mean:.4f} +/- {counts.half_width(0.95):.4f}, "
        f"simulated mean failure time {times.mean:.4f} +/- {times.half_width(0.95):.4f}"
    )


if __name__ == "__main__":
    main()

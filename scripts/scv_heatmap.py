"""Failure-time SCV over (n, k) at r = 0.9 for each inter-shock preset
and balance condition; plot-ready CSV per the sweep-scv schema.

Usage: python scripts/scv_heatmap.py [OUTDIR] [N_MAX]
"""

import sys
from pathlib import Path

from ckngb.experiments import ExperimentSpec, rows_to_csv, run_sweep_scv
from ckngb.system import BalanceCondition


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    n_max = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    outdir.mkdir(parents=True, exist_ok=True)
    spec = ExperimentSpec(
        n=tuple(range(3, n_max + 1)),
        k=tuple(range(2, n_max)),
        r=(0.9,),
        bc=(BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3),
        presets=("ER", "EXP", "HE"),
    )
    rows = run_sweep_scv(spec)
    path = outdir / "scv_heatmap.csv"
    path.write_text(rows_to_csv(rows))
    print(f"{len(rows)} grid points -> {path}")


if __name__ == "__main__":
    main()

"""Mean shock count over (n, k) grids for each balance condition and a
few unit-reliability levels; plot-ready CSV per the sweep-msntf schema.

Usage: python scripts/msntf_surfaces.py [OUTDIR] [N_MAX]
"""

import sys
from pathlib import Path

from ckngb.experiments import INFEASIBLE, ExperimentSpec, rows_to_csv, run_sweep_msntf
from ckngb.system import BalanceCondition


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    n_max = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    outdir.mkdir(parents=True, exist_ok=True)
    spec = ExperimentSpec(
        n=tuple(range(3, n_max + 1)),
        k=tuple(range(2, n_max)),
        r=(0.5, 0.7, 0.9),
        bc=(BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3),
    )
    rows = run_sweep_msntf(spec)
    path = outdir / "msntf_surfaces.csv"
    path.write_text(rows_to_csv(rows))
    feasible = sum(1 for row in rows if row["msntf"] != INFEASIBLE)
    print(f"{len(rows)} grid points ({feasible} feasible) -> {path}")


if __name__ == "__main__":
    main()

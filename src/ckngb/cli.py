"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 infeasible system (no tie-sets), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .chain import build_consolidated, chain_csv
from .errors import (
    CapacityExceeded,
    ConfigError,
    InvariantViolation,
    NoTieSets,
    NonConvergence,
    SingularSystem,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckngb",
        description="Lifetime analysis of circular k-out-of-n balanced systems under shocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, help="master simulation seed")
        p.add_argument("--reps", type=int, help="simulation replications")
        p.add_argument("--m-max", type=int, dest="m_max", help="largest shock count to tabulate")
        p.add_argument("--z-max", type=float, dest="z_max", help="largest time on the pdf grid")
        return p

    add("tiesets", "enumerate the minimum tie-sets")
    p = add("sntf-pmf", "tabulate pmf and survival of the shock count")
    p.add_argument("--matrix", action="store_true", help="use the matrix-power route (cross-check)")
    p.add_argument("--dump-chain", dest="dump_chain", help="also write the consolidated chain as CSV")
    add("sntf-moments", "mean and second moment of the shock count")
    add("ttf", "pdf/survival grid and moments of the failure time")
    add("sweep-msntf", "mean shock count over a parameter grid")
    add("sweep-scv", "failure-time mean and SCV over a parameter grid")
    p = add("simulate", "Monte Carlo estimate with histogram output")
    p.add_argument("--target", choices=["sntf", "ttf"], default="sntf")
    add("validate", "run the analytic/oracle cross-check suite")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(args: argparse.Namespace) -> int:
    # each flag given stands in for the config key of its name
    flags = ("out", "seed", "reps", "m_max", "z_max")
    spec = experiments.load_config(args.config, **{name: getattr(args, name) for name in flags})

    if args.command == "tiesets":
        _emit(experiments.run_tiesets(spec), spec.out)
        return EXIT_OK

    if args.command == "sntf-pmf":
        if args.dump_chain:
            # built first, so a chain over the state cap fails before any output
            config = spec.single()
            chain = build_consolidated(config.n, config.k, config.bc, config.r)
        rows = experiments.run_sntf_pmf(spec, use_matrix=args.matrix)
        _emit(experiments.rows_to_csv(["m", "pmf", "survival"], rows), spec.out)
        if args.dump_chain:
            with open(args.dump_chain, "w", encoding="utf-8") as fh:
                fh.write(chain_csv(chain))
        return EXIT_OK

    if args.command == "sntf-moments":
        rows = experiments.run_sntf_moments(spec)
        header = ["n", "k", "r", "bc", "msntf", "second_moment", "variance"]
        _emit(experiments.rows_to_csv(header, rows), spec.out)
        return EXIT_OK

    if args.command == "ttf":
        rows, summary = experiments.run_ttf(spec)
        _emit(experiments.rows_to_csv(["z", "pdf", "survival"], rows), spec.out)
        line = ",".join(f"{key}={experiments.format_value(val)}" for key, val in summary.items())
        print(line)
        return EXIT_OK

    if args.command == "sweep-msntf":
        rows = experiments.run_sweep_msntf(spec)
        _emit(experiments.rows_to_csv(["bc", "n", "k", "r", "msntf"], rows), spec.out)
        return EXIT_OK

    if args.command == "sweep-scv":
        rows = experiments.run_sweep_scv(spec)
        header = ["bc", "preset", "n", "k", "r", "mttf", "mttf_wald", "scv"]
        _emit(experiments.rows_to_csv(header, rows), spec.out)
        return EXIT_OK

    if args.command == "simulate":
        result, rows = experiments.run_simulate(spec, target=args.target)
        _emit(experiments.rows_to_csv(["bin_left", "bin_right", "count"], rows), spec.out)
        print(
            f"target={result.kind} reps={result.replications} seed={result.seed} "
            f"mean={result.mean:.12g} variance={result.variance:.12g} "
            f"half_width_95={result.half_width(0.95):.12g}"
        )
        return EXIT_OK

    if args.command == "validate":
        checks = experiments.run_validate(spec)
        _emit(experiments.rows_to_csv(["check", "result", "detail"], checks), spec.out)
        failed = [c for c in checks if c["result"] != "pass"]
        return EXIT_VALIDATION if failed else EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:  # includes OddNUnsupported
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoTieSets as exc:
        print(f"infeasible system: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (
        NonConvergence, SingularSystem, CapacityExceeded, InvariantViolation, np.linalg.LinAlgError
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

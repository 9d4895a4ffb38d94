"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 infeasible system (no tie-sets), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
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
from .experiments import format_value

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
    add("sntf-moments", "mean, second moment and variance of the shock count")
    add("ttf", "pdf/survival grid and moments of the failure time")
    add("sweep-msntf", "mean shock count over a parameter grid")
    add("sweep-scv", "failure-time mean and SCV over a parameter grid")
    p = add("simulate", "Monte Carlo estimate with histogram output")
    p.add_argument("--target", choices=["sntf", "ttf"], default="sntf")
    add("validate", "run the analytic/oracle cross-check suite")
    return parser


def _open(path: str, option: str):
    """The file at path opened for writing: an unwritable path is a config error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{option}: cannot write {path}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with _open(out, "out") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(args: argparse.Namespace) -> int:
    # each flag given stands in for the config key of its name
    flags = ("out", "seed", "reps", "m_max", "z_max")
    spec = experiments.load_config(args.config, **{name: getattr(args, name) for name in flags})
    # an output path that resolves to the config or to the other output
    # would be written over: refused before any run or output
    taken = {os.path.realpath(args.config): "the config file"}
    for option, path in (("out", spec.out), ("dump-chain", getattr(args, "dump_chain", None))):
        if path:
            real = os.path.realpath(path)
            if real in taken:
                raise ConfigError(f"{option}: {path} is also {taken[real]}")
            taken[real] = "the out path"

    if args.command == "tiesets":
        _emit(experiments.run_tiesets(spec), spec.out)
        return EXIT_OK

    if args.command == "sntf-pmf":
        dump = contextlib.nullcontext()
        if args.dump_chain:
            # the state cap and the dump path fail before any output
            config = spec.single()
            masks, blocks = build_consolidated(config)
            dump = _open(args.dump_chain, "dump-chain")
        with dump as fh:
            rows = experiments.run_sntf_pmf(spec, use_matrix=args.matrix)
            _emit(experiments.rows_to_csv(rows), spec.out)
            if fh:
                chain_csv(fh, config.n, masks, blocks)
        return EXIT_OK

    if args.command == "ttf":
        rows, summary = experiments.run_ttf(spec)
        _emit(experiments.rows_to_csv(rows), spec.out)
        print(",".join(f"{key}={format_value(val)}" for key, val in summary.items()))
        return EXIT_OK

    if args.command == "simulate":
        result, rows = experiments.run_simulate(spec, target=args.target)
        _emit(experiments.rows_to_csv(rows), spec.out)
        print(
            f"target={result.kind} reps={result.replications} seed={result.seed} "
            f"mean={format_value(result.mean)} variance={format_value(result.variance)} "
            f"half_width_95={format_value(result.half_width(0.95))}"
        )
        return EXIT_OK

    # every other command prints the one table of its run_* driver:
    # sntf-moments, sweep-msntf, sweep-scv and validate
    rows = getattr(experiments, "run_" + args.command.replace("-", "_"))(spec)
    _emit(experiments.rows_to_csv(rows), spec.out)
    failed = args.command == "validate" and any(row["result"] != "pass" for row in rows)
    return EXIT_VALIDATION if failed else EXIT_OK


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

"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 infeasible system (no tie-sets), 4 numerical failure, 143 ended by
SIGTERM.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import signal
import sys
import threading
from collections.abc import Iterator
from typing import TextIO

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
EXIT_TERMINATED = 128 + signal.SIGTERM


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


@contextlib.contextmanager
def _staged(path: str, option: str) -> Iterator[TextIO]:
    """A new file beside path's resolved target, open for writing, that
    replaces the target when the block succeeds and is removed when it
    raises, so a failed run leaves an existing target as it was.  A path
    that cannot be written is a config error, raised before any run."""
    real = os.path.realpath(path)
    # a device or a pipe, such as /dev/null or /dev/stdout, is written in place
    special = os.path.exists(path) and not os.path.isfile(path)
    staged = path if special else f"{os.path.dirname(real)}/.{os.path.basename(real)}.{os.getpid()}.tmp"
    try:
        if os.path.isfile(path) and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        fh = open(staged, "w" if special else "x", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{option}: cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
    except BaseException:
        if not special:
            os.remove(staged)
        raise
    if not special:
        os.replace(staged, real)


def _dispatch(args: argparse.Namespace, outputs: contextlib.ExitStack) -> int:
    # each flag given stands in for the config key of its name
    flags = ("out", "seed", "reps", "m_max", "z_max")
    spec = experiments.load_config(args.config, **{name: getattr(args, name) for name in flags})
    # an output path that resolves to the config or to the other output
    # would be written over: refused before any run or output
    taken = {os.path.realpath(args.config): "the config file"}
    paths = {"out": spec.out, "dump-chain": getattr(args, "dump_chain", None)}
    for option, path in paths.items():
        if path:
            real = os.path.realpath(path)
            if real in taken:
                raise ConfigError(f"{option}: {path} is also {taken[real]}")
            taken[real] = "the out path"
    if args.command == "sntf-pmf" and args.dump_chain:
        # the state cap fails before any output file is made
        config = spec.single()
        masks, blocks = build_consolidated(config)
    # every output is staged before the run, and takes its path once the
    # command succeeds
    files = {option: outputs.enter_context(_staged(path, option)) for option, path in paths.items() if path}
    out = files.get("out", sys.stdout)

    if args.command == "tiesets":
        out.write(experiments.run_tiesets(spec))
        return EXIT_OK

    if args.command == "sntf-pmf":
        rows = experiments.run_sntf_pmf(spec, use_matrix=args.matrix)
        out.write(experiments.rows_to_csv(rows))
        if args.dump_chain:
            chain_csv(files["dump-chain"], config.n, masks, blocks)
        return EXIT_OK

    if args.command == "ttf":
        rows, summary = experiments.run_ttf(spec)
        out.write(experiments.rows_to_csv(rows))
        print(",".join(f"{key}={format_value(val)}" for key, val in summary.items()))
        return EXIT_OK

    if args.command == "simulate":
        result, rows = experiments.run_simulate(spec, target=args.target)
        out.write(experiments.rows_to_csv(rows))
        print(
            f"target={result.kind} reps={result.replications} seed={result.seed} "
            f"mean={format_value(result.mean)} variance={format_value(result.variance)} "
            f"half_width_95={format_value(result.half_width(0.95))}"
        )
        return EXIT_OK

    # every other command prints the one table of its run_* driver:
    # sntf-moments, sweep-msntf, sweep-scv and validate
    rows = getattr(experiments, "run_" + args.command.replace("-", "_"))(spec)
    out.write(experiments.rows_to_csv(rows))
    failed = args.command == "validate" and any(row["result"] != "pass" for row in rows)
    return EXIT_VALIDATION if failed else EXIT_OK


def _terminate(signum, frame) -> None:
    raise SystemExit(EXIT_TERMINATED)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # SIGTERM unwinds the run as SystemExit, so a staged output is removed
    # and its target left as it was; only the main thread may set a handler
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        with contextlib.ExitStack() as outputs:
            return _dispatch(args, outputs)
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
    finally:
        if on_main:  # previous is None when it was not set from Python
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

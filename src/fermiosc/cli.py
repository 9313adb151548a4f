"""Batch front end for partition-function computations.

Subcommands pick the route: `exact` prints the continuum closed form
1 +- e^{-beta*omega}, `chain` contracts the sliced propagator symbolically,
`determinant` reduces the discrete action, `sweep` tabulates the
determinant route over a list of step counts, and `selftest` runs the
internal invariant checks.  Rows go to standard output as JSON lines or
CSV; identical invocations produce byte-identical output.

reference_z is `oscillator.closed_form_partition`, which `exact` also
prints as z_value.  `oscillator.validate_point` is the one domain rule
(exit 2); beta = 0 passes it on every route (Z- = 2, Z+ = 0).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .oscillator import BoundaryCondition, closed_form_partition
from .path_integral import (
    DiscretizedChain,
    SliceScheme,
    _ActionGaussian,
    close_boundary,
    contract_chain,
    partition_via_determinant,
)
from .selftest import run_selftest

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
# one encoder for every row: json.dumps builds a new one whenever a keyword is not its default
_JSON = json.JSONEncoder(allow_nan=False)


class ResultRow(NamedTuple):
    """One output row; the field order is the JSON key order and the CSV header."""

    route: str
    beta: float
    omega: float
    n_steps: Optional[int]
    bc: str
    z_value: float
    reference_z: float
    abs_error: float


def _cell(value) -> str:
    """CSV text of one field: floats as %.17g, which round-trips every double."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return "%d" % value
    if not math.isfinite(value):
        raise ValueError("non-finite value %r" % value)
    return "%.17g" % value


def emit(rows: Sequence[ResultRow], format: str) -> str:
    """Render rows as JSON lines or CSV with lossless float formatting.

    A field that is None (the exact route's n_steps) is left out of the
    JSON object and empty in CSV; a non-finite value raises ValueError.
    """
    if not rows:
        raise ValueError("no rows to emit")
    if format == "json":
        lines = [_JSON.encode({k: v for k, v in row._asdict().items() if v is not None})
                 for row in rows]
    elif format == "csv":
        lines = [",".join(ResultRow._fields)]
        lines += [",".join(map(_cell, row)) for row in rows]
    else:
        raise ValueError("unknown format: %r" % format)
    return "\n".join(lines) + "\n"


def _boundary_conditions(choice: str) -> Tuple[BoundaryCondition, ...]:
    if choice == "both":
        return (BoundaryCondition.ANTIPERIODIC, BoundaryCondition.PERIODIC)
    return (BoundaryCondition(choice),)


def _row(route: str, beta: float, omega: float, n_steps: Optional[int],
         bc: BoundaryCondition, z_value: float, reference: float) -> ResultRow:
    """One row; each route takes ``reference`` once per (beta, bc).

    It is the continuum closed form, which route-relative-accuracy holds to
    a 50-digit model.
    """
    return ResultRow(
        route, beta, omega, n_steps, bc.value, z_value, reference, abs(z_value - reference)
    )


def run_exact(args: argparse.Namespace) -> List[ResultRow]:
    rows = []
    for beta in args.beta:
        for bc in _boundary_conditions(args.bc):
            z = closed_form_partition(beta, args.omega, bc)
            rows.append(_row("exact", beta, args.omega, None, bc, z, z))
    return rows


def _rows(route: str, args: argparse.Namespace, step: Callable) -> List[ResultRow]:
    """Route rows in the order beta, then boundary condition, then N.

    ``step(chain)`` runs once per chain, before the chain's first row, and
    returns the chain's value as a function of bc, which each row calls; so
    rows are evaluated, and a failing row raises, in output order.
    """
    scheme = SliceScheme(args.scheme)
    rows = []
    for beta in args.beta:
        chains = [DiscretizedChain(n, beta, args.omega, scheme) for n in args.steps]
        values = [step(chain) for chain in chains]
        for bc in _boundary_conditions(args.bc):
            reference = closed_form_partition(beta, args.omega, bc)
            for chain, value in zip(chains, values):
                rows.append(_row(route, beta, args.omega, chain.n_steps, bc, value(bc), reference))
    return rows


def _shared_determinant(chain: DiscretizedChain) -> Callable:
    gaussian = _ActionGaussian(chain.n_steps, chain.step_coefficient)
    return partial(partition_via_determinant, chain, gaussian=gaussian)


def run_chain(args: argparse.Namespace) -> List[ResultRow]:
    return _rows("chain", args, lambda chain: partial(close_boundary, contract_chain(chain)))


def run_determinant(args: argparse.Namespace) -> List[ResultRow]:
    return _rows("determinant", args, _shared_determinant)


def run_sweep(args: argparse.Namespace) -> List[ResultRow]:
    if any(b <= a for a, b in zip(args.steps, args.steps[1:])):
        raise ValueError("--steps must be strictly ascending")
    return _rows("sweep", args, _shared_determinant)


def run_selftest_command(args: argparse.Namespace) -> int:
    results = run_selftest()
    failed = sum(not result.passed for result in results)
    lines = [result.verdict() for result in results]
    lines.append("selftest: %d passed, %d failed" % (len(results) - failed, failed))
    sys.stdout.write("\n".join(lines) + "\n")
    return _EXIT_CHECK_FAILED if failed else _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiosc",
        description="Partition functions of a single fermionic mode, "
        "by continuum closed form, symbolic chain contraction, or action determinant.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("exact", "continuum closed form 1 +- e^{-beta*omega}"),
        ("chain", "symbolic chain contraction"),
        ("determinant", "discrete-action determinant"),
        ("sweep", "error table over step counts"),
    ):
        many = name == "sweep"  # only sweep takes lists of beta and N
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("--beta", type=float, nargs="+" if many else 1, required=True,
                         help="inverse temperature (one value%s)" % (" or more" if many else ""))
        sub.add_argument("--omega", type=float, required=True, help="mode frequency")
        if name != "exact":
            sub.add_argument("--steps", type=int, nargs="+" if many else 1, default=(16,),
                             help="number of imaginary-time slices (default 16)")
            sub.add_argument("--scheme", choices=[s.value for s in SliceScheme],
                             default=SliceScheme.EXACT.value,
                             help="per-slice weight (default %(default)s)")
        sub.add_argument("--bc", choices=["antiperiodic", "periodic", "both"], default="both",
                         help="boundary condition rows to emit (default %(default)s)")
        sub.add_argument("--format", choices=["json", "csv"], default="json",
                         help="output table format (default %(default)s)")
    commands.add_parser("selftest", help="run the invariant checks")
    return parser


_RUNNERS = {
    "exact": run_exact,
    "chain": run_chain,
    "determinant": run_determinant,
    "sweep": run_sweep,
}

# built by the first main() call, not at import, and reused by every later call;
# parse_args leaves a parser unchanged, so one parser serves any number of calls
_parser: Optional[argparse.ArgumentParser] = None
# the subcommand parsers of _parser by name, built with it
_commands: Optional[Dict[str, argparse.ArgumentParser]] = None


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv in one argparse pass.

    A request that names a subcommand goes to that subcommand's parser
    alone; the top-level parser would only hand it the same strings after
    scanning them once more.  Any other argv (help, a missing or unknown
    command, a leading option or `--`) goes through the top-level parser,
    which also reports unrecognized arguments, so every message reads as
    before.
    """
    global _parser, _commands
    if _parser is None:
        _parser = build_parser()
        # argparse's action list is private; the subparsers action in it holds the map
        _commands = next(a.choices for a in _parser._actions if a.dest == "command")
    if argv and argv[0] in _commands:
        args, extras = _commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            _parser.error("unrecognized arguments: %s" % " ".join(extras))
        return args
    return _parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.command == "selftest":
        return run_selftest_command(args)
    try:
        rows = _RUNNERS[args.command](args)
    except ValueError as exc:  # validate_point refused the point, or sweep its step list
        _parser.error(str(exc))
    except ArithmeticError as exc:  # the message names the failed check or overflow
        sys.stderr.write("%s\n" % exc)
        return _EXIT_CHECK_FAILED
    sys.stdout.write(emit(rows, args.format))
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

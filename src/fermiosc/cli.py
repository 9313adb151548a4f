"""Batch front end for partition-function computations.

Subcommands pick the route: `exact` reads values off the two-level
oracle, `chain` contracts the sliced propagator symbolically,
`determinant` reduces the discrete action, `sweep` tabulates the
determinant route over a list of step counts, and `selftest` runs the
internal invariant checks.  Rows go to standard output as JSON lines or
CSV; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .oscillator import density_matrix, partition_trace, supertrace, thermal_observables
from .path_integral import (
    BoundaryCondition,
    DiscretizedChain,
    SliceScheme,
    close_boundary,
    contract_chain,
    convergence_sweep,
    partition_via_determinant,
)
from .selftest import run_selftest

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: one command plus the knobs it consumes."""

    command: str
    beta: Tuple[float, ...] = ()
    omega: float = 1.0
    steps: Tuple[int, ...] = (16,)
    scheme: SliceScheme = SliceScheme.EXACT
    bc: str = "both"
    format: str = "json"


@dataclass(frozen=True)
class ResultRow:
    route: str
    beta: float
    omega: float
    n_steps: Optional[int]
    bc: str
    z_value: float
    reference_z: float
    abs_error: float

    def as_dict(self) -> dict:
        out = {"route": self.route, "beta": self.beta, "omega": self.omega}
        if self.n_steps is not None:
            out["n_steps"] = self.n_steps
        out["bc"] = self.bc
        out["z_value"] = self.z_value
        out["reference_z"] = self.reference_z
        out["abs_error"] = self.abs_error
        return out


def _float17(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("non-finite value %r" % value)
    return "%.17g" % value


def emit(rows: Sequence[ResultRow], format: str) -> str:
    """Render rows as JSON lines or CSV with lossless float formatting."""
    if not rows:
        raise ValueError("no rows to emit")
    lines = []
    if format == "json":
        for row in rows:
            lines.append(json.dumps(row.as_dict(), allow_nan=False))
    elif format == "csv":
        lines.append("route,beta,omega,n_steps,bc,z_value,reference_z,abs_error")
        for row in rows:
            lines.append(
                ",".join(
                    [
                        row.route,
                        _float17(row.beta),
                        _float17(row.omega),
                        "" if row.n_steps is None else "%d" % row.n_steps,
                        row.bc,
                        _float17(row.z_value),
                        _float17(row.reference_z),
                        _float17(row.abs_error),
                    ]
                )
            )
    else:
        raise ValueError("unknown format: %r" % format)
    return "\n".join(lines) + "\n"


def _boundary_conditions(choice: str) -> Tuple[BoundaryCondition, ...]:
    if choice == "both":
        return (BoundaryCondition.ANTIPERIODIC, BoundaryCondition.PERIODIC)
    return (BoundaryCondition(choice),)


def _oracle_partition(beta: float, omega: float, bc: BoundaryCondition) -> float:
    rho = density_matrix(beta, omega)
    if bc is BoundaryCondition.ANTIPERIODIC:
        return partition_trace(rho)
    return supertrace(rho)


def _make_row(
    route: str,
    beta: float,
    omega: float,
    n_steps: Optional[int],
    bc: BoundaryCondition,
    z_value: float,
) -> ResultRow:
    reference = _oracle_partition(beta, omega, bc)
    return ResultRow(
        route=route,
        beta=beta,
        omega=omega,
        n_steps=n_steps,
        bc=bc.value,
        z_value=z_value,
        reference_z=reference,
        abs_error=abs(z_value - reference),
    )


def run_exact(config: RunConfig) -> List[ResultRow]:
    rows = []
    for beta in config.beta:
        if beta > 0.0:
            # also exercises the observable layer's own validation
            thermal_observables(beta, config.omega)
        for bc in _boundary_conditions(config.bc):
            z = _oracle_partition(beta, config.omega, bc)
            rows.append(_make_row("exact", beta, config.omega, None, bc, z))
    return rows


def run_chain(config: RunConfig) -> List[ResultRow]:
    rows = []
    for beta in config.beta:
        chain = DiscretizedChain(config.steps[0], beta, config.omega, config.scheme)
        kernel = contract_chain(chain)
        for bc in _boundary_conditions(config.bc):
            z = close_boundary(kernel, bc)
            rows.append(_make_row("chain", beta, config.omega, chain.n_steps, bc, z))
    return rows


def run_determinant(config: RunConfig) -> List[ResultRow]:
    rows = []
    for beta in config.beta:
        chain = DiscretizedChain(config.steps[0], beta, config.omega, config.scheme)
        for bc in _boundary_conditions(config.bc):
            z = partition_via_determinant(chain, bc)
            rows.append(
                _make_row("determinant", beta, config.omega, chain.n_steps, bc, z)
            )
    return rows


def run_sweep(config: RunConfig) -> List[ResultRow]:
    rows = []
    for beta in config.beta:
        for bc in _boundary_conditions(config.bc):
            points = convergence_sweep(
                beta, config.omega, config.steps, config.scheme, bc
            )
            for point in points:
                rows.append(
                    _make_row(
                        "sweep", beta, config.omega, point.n_steps, bc, point.z_value
                    )
                )
    return rows


def run_selftest_command(config: RunConfig) -> int:
    results = run_selftest()
    failed = sum(not result.passed for result in results)
    lines = [result.verdict() for result in results]
    lines.append(
        "selftest: %d passed, %d failed" % (len(results) - failed, failed)
    )
    sys.stdout.write("\n".join(lines) + "\n")
    return _EXIT_CHECK_FAILED if failed else _EXIT_OK


def _add_physics_arguments(
    sub: argparse.ArgumentParser, multi_beta: bool = False
) -> None:
    sub.add_argument(
        "--beta",
        type=float,
        nargs="+" if multi_beta else 1,
        required=True,
        help="inverse temperature (one value%s)" % (" or more" if multi_beta else ""),
    )
    sub.add_argument("--omega", type=float, required=True, help="mode frequency")


def _add_route_arguments(sub: argparse.ArgumentParser, multi_steps: bool) -> None:
    sub.add_argument(
        "--steps",
        type=int,
        nargs="+" if multi_steps else 1,
        default=[16],
        help="number of imaginary-time slices (default 16)",
    )
    sub.add_argument(
        "--scheme",
        choices=[s.value for s in SliceScheme],
        default=SliceScheme.EXACT.value,
        help="per-slice weight (default exact)",
    )


def _add_output_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--bc",
        choices=["antiperiodic", "periodic", "both"],
        default="both",
        help="boundary condition rows to emit (default both)",
    )
    sub.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="output table format (default json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiosc",
        description="Partition functions of a single fermionic mode, "
        "by oracle, symbolic chain contraction, or action determinant.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    exact = commands.add_parser("exact", help="two-level oracle values")
    _add_physics_arguments(exact)
    _add_output_arguments(exact)
    exact.add_argument(
        "--allow-beta-zero",
        action="store_true",
        help="permit beta = 0 (partition values only, no observables)",
    )

    chain = commands.add_parser("chain", help="symbolic chain contraction")
    _add_physics_arguments(chain)
    _add_route_arguments(chain, multi_steps=False)
    _add_output_arguments(chain)

    det = commands.add_parser("determinant", help="discrete-action determinant")
    _add_physics_arguments(det)
    _add_route_arguments(det, multi_steps=False)
    _add_output_arguments(det)

    sweep = commands.add_parser("sweep", help="error table over step counts")
    _add_physics_arguments(sweep, multi_beta=True)
    _add_route_arguments(sweep, multi_steps=True)
    _add_output_arguments(sweep)

    commands.add_parser("selftest", help="run the invariant checks")
    return parser


def _config_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> RunConfig:
    betas = tuple(getattr(args, "beta", []) or ())
    # the library refuses every other invalid point with ValueError
    if 0.0 in betas and not getattr(args, "allow_beta_zero", False):
        parser.error(
            "beta must be > 0 for observables; use --allow-beta-zero for Z only"
            if args.command == "exact"
            else "beta must be > 0"
        )
    return RunConfig(
        command=args.command,
        beta=betas,
        omega=getattr(args, "omega", 1.0),
        steps=tuple(getattr(args, "steps", [16])),
        scheme=SliceScheme(getattr(args, "scheme", SliceScheme.EXACT.value)),
        bc=getattr(args, "bc", "both"),
        format=getattr(args, "format", "json"),
    )


_RUNNERS = {
    "exact": run_exact,
    "chain": run_chain,
    "determinant": run_determinant,
    "sweep": run_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args, parser)
    if config.command == "selftest":
        return run_selftest_command(config)
    try:
        rows = _RUNNERS[config.command](config)
    except ValueError as exc:
        parser.error(str(exc))
    except ArithmeticError as exc:  # the message names the failed check or overflow
        sys.stderr.write("%s\n" % exc)
        return _EXIT_CHECK_FAILED
    sys.stdout.write(emit(rows, config.format))
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

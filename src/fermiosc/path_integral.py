"""Euclidean time-sliced path integral for the fermionic oscillator.

The imaginary-time propagator is built from per-step coherent-state kernels
1 + lambda * c_k* c_{k-1}, contracted pair by pair with Berezin integration
until only the boundary generators c*(beta), c(beta), c(0) survive.  Closing
the boundary antiperiodically gives the physical partition function
1 + e^{-beta*omega}; closing it periodically gives the graded partition
function 1 - e^{-beta*omega}.  The same numbers come out of the determinant
of the discrete action's quadratic form, which doubles as an independent
route for cross-validation.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .grassmann import (
    GAUSSIAN_CAP,
    GeneratorRegistry,
    GrassmannElement,
    add,
    coefficient,
    determinant,
    gaussian_integral_expand,
    integrate_pair,
    monomial,
    mul,
    one,
    register_generators,
    substitute,
)
from .oscillator import validate_point

__all__ = [
    "SYMBOLIC_CHAIN_CAP",
    "SliceScheme",
    "BoundaryCondition",
    "DiscretizedChain",
    "PropagatorKernel",
    "step_kernel",
    "contract_chain",
    "kernel_paper_form",
    "paper_normalized",
    "close_boundary",
    "closed_form_partition",
    "action_matrix",
    "partition_via_determinant",
    "convergence_sweep",
    "SweepPoint",
]

logger = logging.getLogger(__name__)

# Symbolic chains keep at most three live conjugate pairs thanks to eager
# contraction, but the registry itself grows with N; cap it.
SYMBOLIC_CHAIN_CAP = 64


class SliceScheme(enum.Enum):
    """Per-step kernel coefficient: first order in the step, or exact."""

    FIRST_ORDER = "first-order"
    EXACT = "exact"


class BoundaryCondition(enum.Enum):
    """Closure of the Euclidean time circle: c(0) = -c(beta) or c(0) = +c(beta)."""

    ANTIPERIODIC = "antiperiodic"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class DiscretizedChain:
    """A beta-interval split into N slices, with one generator pair per time point.

    The registry holds c_0, c_0*, ..., c_N, c_N* in time order; c_0 and the
    pair at N are the boundary generators, everything between gets contracted.
    """

    n_steps: int
    beta: float
    omega: float
    scheme: SliceScheme = SliceScheme.EXACT
    epsilon: float = field(init=False)
    registry: GeneratorRegistry = field(init=False)

    def __post_init__(self) -> None:
        validate_point(self.beta, self.omega, self.n_steps)
        object.__setattr__(self, "epsilon", self.beta / self.n_steps)
        labels: list[str] = []
        pairs: list[tuple[str, str]] = []
        for k in range(self.n_steps + 1):
            labels += [f"c{k}", f"c{k}*"]
            pairs.append((f"c{k}", f"c{k}*"))
        object.__setattr__(self, "registry", register_generators(labels, pairs))

    def c_index(self, k: int) -> int:
        return 2 * k

    def cstar_index(self, k: int) -> int:
        return 2 * k + 1

    @property
    def step_coefficient(self) -> float:
        """lambda: 1 - epsilon*omega (FIRST_ORDER) or e^{-epsilon*omega} (EXACT)."""
        x = self.epsilon * self.omega
        if self.scheme is SliceScheme.FIRST_ORDER:
            return 1.0 - x
        return math.exp(-x)


@dataclass(frozen=True)
class PropagatorKernel:
    """Boundary kernel over {c*(beta), c(beta), c(0)} with extracted coefficients.

    coeff_id is the scalar term, coeff_diag the coefficient on c*(beta)c(beta)
    and coeff_prop the coefficient on c*(beta)c(0), both in that written order.
    """

    element: GrassmannElement
    g_c0: int
    g_cb: int
    g_cb_star: int
    coeff_id: float
    coeff_diag: float
    coeff_prop: float

    @classmethod
    def from_element(
        cls, element: GrassmannElement, g_c0: int, g_cb: int, g_cb_star: int
    ) -> PropagatorKernel:
        diag_mask = (1 << g_cb_star) | (1 << g_cb)
        prop_mask = (1 << g_cb_star) | (1 << g_c0)
        allowed = {0, diag_mask, prop_mask}
        stray = [m for m in element.terms if m not in allowed]
        if stray:
            raise ValueError(f"unexpected monomials in boundary kernel: {stray}")
        return cls(
            element=element,
            g_c0=g_c0,
            g_cb=g_cb,
            g_cb_star=g_cb_star,
            coeff_id=element.scalar_part(),
            coeff_diag=coefficient(element, [g_cb_star, g_cb]),
            coeff_prop=coefficient(element, [g_cb_star, g_c0]),
        )


def step_kernel(chain: DiscretizedChain, k: int) -> GrassmannElement:
    """Single-slice kernel 1 + lambda * c_k* c_{k-1}."""
    if not 1 <= k <= chain.n_steps:
        raise ValueError(f"step index {k} outside 1..{chain.n_steps}")
    lam = chain.step_coefficient
    return add(
        one(chain.registry),
        monomial(chain.registry, [chain.cstar_index(k), chain.c_index(k - 1)], lam),
    )


def contract_chain(chain: DiscretizedChain) -> PropagatorKernel:
    """Multiply the slice kernels and integrate out every intermediate pair.

    Pairs are contracted eagerly in ascending time order, so only the
    newest slice and the boundary generators are ever simultaneously live.
    The resulting kernel's coefficient signs are whatever this convention
    produces; they are reported, not forced into any particular form.
    """
    if chain.n_steps > SYMBOLIC_CHAIN_CAP:
        raise ValueError(
            f"symbolic chains are capped at N = {SYMBOLIC_CHAIN_CAP}; "
            "use the determinant route for larger N"
        )
    registry = chain.registry
    element = step_kernel(chain, 1)
    for k in range(2, chain.n_steps + 1):
        element = mul(element, step_kernel(chain, k))
        mid_star = chain.cstar_index(k - 1)
        mid = chain.c_index(k - 1)
        weight = add(one(registry), monomial(registry, [mid_star, mid], -1.0))
        element = integrate_pair(mul(element, weight), mid_star, mid)
    last = chain.n_steps
    endpoint = add(
        one(registry),
        monomial(registry, [chain.cstar_index(last), chain.c_index(last)], 1.0),
    )
    element = mul(element, endpoint)
    kernel = PropagatorKernel.from_element(
        element,
        g_c0=chain.c_index(0),
        g_cb=chain.c_index(last),
        g_cb_star=chain.cstar_index(last),
    )
    logger.debug(
        "contracted chain N=%d scheme=%s: coeff_id=%.17g coeff_diag=%.17g coeff_prop=%.17g",
        chain.n_steps,
        chain.scheme.value,
        kernel.coeff_id,
        kernel.coeff_diag,
        kernel.coeff_prop,
    )
    return kernel


def _boundary_registry() -> tuple[GeneratorRegistry, int, int, int]:
    registry = register_generators(
        ["c(0)", "c(b)", "c*(b)"], pairs=[("c(b)", "c*(b)")]
    )
    return registry, 0, 1, 2


def kernel_paper_form(beta: float, omega: float) -> PropagatorKernel:
    """The closed-form boundary kernel 1 + c*(b)c(b) - e^{-beta*omega} c*(b)c(0).

    This is the full exponential: both exponent terms share c*(beta), so
    every cross and square term vanishes and the expansion stops at first
    order.
    """
    validate_point(beta, omega)
    registry, g_c0, g_cb, g_cb_star = _boundary_registry()
    element = add(
        add(one(registry), monomial(registry, [g_cb_star, g_cb], 1.0)),
        monomial(registry, [g_cb_star, g_c0], -math.exp(-beta * omega)),
    )
    return PropagatorKernel.from_element(element, g_c0, g_cb, g_cb_star)


def paper_normalized(kernel: PropagatorKernel) -> PropagatorKernel:
    """Rebuild a contracted kernel in the closed form 1 + c*c - prop c*c(0).

    The chain contraction's sign bookkeeping differs from the closed form
    by exactly the minus sign the trace closure expects, so normalization
    negates coeff_prop and pins the other two coefficients to 1.  For the
    exact scheme this reproduces the closed-form kernel literally.
    """
    registry = kernel.element.registry
    element = add(
        add(one(registry), monomial(registry, [kernel.g_cb_star, kernel.g_cb], 1.0)),
        monomial(registry, [kernel.g_cb_star, kernel.g_c0], -kernel.coeff_prop),
    )
    return PropagatorKernel.from_element(
        element, kernel.g_c0, kernel.g_cb, kernel.g_cb_star
    )


def close_boundary(kernel: PropagatorKernel, bc: BoundaryCondition) -> float:
    """Close the time circle and return the scalar partition value.

    Substitutes c(0) -> -c(beta) (antiperiodic) or c(0) -> +c(beta)
    (periodic) and integrates the boundary pair.  The closure's measure is
    the reverse of the module's dc* dc convention, hence the final sign
    flip; applied to the closed-form kernel this returns exactly
    1 -+ e^{-beta*omega}.
    """
    allowed = (1 << kernel.g_c0) | (1 << kernel.g_cb) | (1 << kernel.g_cb_star)
    if kernel.element.support() & ~allowed:
        raise ValueError("kernel references generators outside the boundary set")
    factor = -1.0 if bc is BoundaryCondition.ANTIPERIODIC else 1.0
    closed = substitute(kernel.element, kernel.g_c0, kernel.g_cb, factor)
    reduced = integrate_pair(closed, kernel.g_cb_star, kernel.g_cb)
    return -reduced.scalar_part()


def closed_form_partition(beta: float, omega: float, bc: BoundaryCondition) -> float:
    """1 + e^{-beta*omega} (antiperiodic) or 1 - e^{-beta*omega} (periodic)."""
    boltzmann = math.exp(-beta * omega)
    if bc is BoundaryCondition.ANTIPERIODIC:
        return 1.0 + boltzmann
    return 1.0 - boltzmann


def action_matrix(chain: DiscretizedChain, bc: BoundaryCondition) -> np.ndarray:
    """Quadratic form of the closed discrete action after boundary elimination.

    Unit diagonal, -lambda on the subdiagonal, and a +lambda (antiperiodic)
    or -lambda (periodic) corner; its determinant is 1 +- lambda^N.
    """
    n = chain.n_steps
    lam = chain.step_coefficient
    m = np.eye(n)
    for k in range(1, n):
        m[k, k - 1] = -lam
    corner = lam if bc is BoundaryCondition.ANTIPERIODIC else -lam
    m[0, n - 1] += corner
    return m


def partition_via_determinant(chain: DiscretizedChain, bc: BoundaryCondition) -> float:
    """Partition value as the determinant of the action matrix.

    A determinant that overflows is raised as ArithmeticError.  For chains
    small enough to expand symbolically, the Gaussian-integral expansion
    of the same matrix is computed as well and must agree to 1e-10
    relative (absolute below magnitude 1); a mismatch means the algebra
    engine and the numeric route have diverged and is raised as an error.
    """
    m = action_matrix(chain, bc)
    with np.errstate(over="ignore", invalid="ignore"):
        det = determinant(m)
    if not math.isfinite(det):
        raise ArithmeticError(
            f"determinant of the N={chain.n_steps} action matrix is not finite: {det!r}"
        )
    if chain.n_steps <= GAUSSIAN_CAP:
        symbolic = gaussian_integral_expand(m)
        if abs(symbolic - det) > 1e-10 * max(1.0, abs(det)):
            raise ArithmeticError(
                f"Gaussian expansion {symbolic!r} disagrees with determinant {det!r}"
            )
    return det


class SweepPoint(NamedTuple):
    n_steps: int
    z_value: float
    abs_error: float


def convergence_sweep(
    beta: float,
    omega: float,
    n_list: Sequence[int],
    scheme: SliceScheme,
    bc: BoundaryCondition,
) -> list[SweepPoint]:
    """Determinant-route partition values against the closed form, per N."""
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    reference = closed_form_partition(beta, omega, bc)
    points = []
    for n in n_list:
        chain = DiscretizedChain(n_steps=n, beta=beta, omega=omega, scheme=scheme)
        z = partition_via_determinant(chain, bc)
        points.append(SweepPoint(n, z, abs(z - reference)))
    return points

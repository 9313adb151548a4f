"""Euclidean time-sliced path integral for the fermionic oscillator.

The imaginary-time propagator is built from per-step coherent-state kernels
1 + lambda * c_k* c_{k-1}, contracted pair by pair with Berezin integration
into the kernel <c(beta)|e^{-beta H}|c(0)> = 1 + lambda^N c*(beta) c(0).
The closure is the coherent-state trace int dc* dc e^{-c* c} K(c*, -+c)
(Negele & Orland, ch. 1-2): antiperiodic gives the physical partition
function 1 + e^{-beta*omega}, periodic the graded partition function
1 - e^{-beta*omega}.  The same numbers come out of the determinant of the
discrete action's quadratic form, which doubles as an independent route
for cross-validation; that matrix is unit lower-bidiagonal plus one corner,
so the determinant is 1 +- lambda^N in closed form (Blankenbecler,
Scalapino & Sugar, PRD 24, 2278 (1981)).
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

from .grassmann import (
    GAUSSIAN_CAP,
    GrassmannElement,
    add,
    coefficient,
    gaussian_integral_expand,
    integrate_pair,
    monomial,
    mul,
    one,
    register_generators,
    substitute,
)
from .oscillator import BoundaryCondition, validate_point

__all__ = [
    "SliceScheme",
    "DiscretizedChain",
    "PropagatorKernel",
    "contract_chain",
    "kernel_paper_form",
    "close_boundary",
    "action_matrix",
    "partition_via_determinant",
]

logger = logging.getLogger(__name__)

# Every chain lives on these five generators: c(0), the boundary pair and a
# spare pair, laid out in _PAIRS alone.  Interior time points alternate between the two pairs, and
# each pair is integrated out before its slot is used again.
_REGISTRY = register_generators(["c(0)", "c(b)", "c*(b)", "c(t)", "c*(t)"])
_C0 = 0
_PAIRS = ((1, 2), (3, 4))  # (c, c*): the boundary pair, then the spare pair
_CB, _CB_STAR = _PAIRS[0]
# e^{-c* c} = 1 - c* c, the coherent-state measure weight of each pair
_WEIGHTS = tuple(
    add(one(_REGISTRY), monomial(_REGISTRY, [star, c], -1.0)) for c, star in _PAIRS
)


class SliceScheme(enum.Enum):
    """Per-step kernel coefficient: first order in the step, or exact."""

    FIRST_ORDER = "first-order"
    EXACT = "exact"


@dataclass(frozen=True)
class DiscretizedChain:
    """A beta-interval split into N slices of width epsilon = beta / N."""

    n_steps: int
    beta: float
    omega: float
    scheme: SliceScheme = SliceScheme.EXACT
    epsilon: float = field(init=False)

    def __post_init__(self) -> None:
        validate_point(self.beta, self.omega, self.n_steps)
        object.__setattr__(self, "epsilon", self.beta / self.n_steps)

    @property
    def step_coefficient(self) -> float:
        """lambda: 1 - epsilon*omega (FIRST_ORDER) or e^{-epsilon*omega} (EXACT)."""
        x = self.epsilon * self.omega
        if self.scheme is SliceScheme.FIRST_ORDER:
            return 1.0 - x
        return math.exp(-x)


@dataclass(frozen=True)
class PropagatorKernel:
    """The kernel <c(beta)|e^{-beta H}|c(0)> = coeff_id + coeff_prop c*(beta) c(0).

    The one check of the kernel's shape: ``element`` must live on the
    module's fixed registry and hold no monomial but 1 and c*(beta) c(0);
    both coefficients are read from it.
    """

    element: GrassmannElement

    def __post_init__(self) -> None:
        if self.element.registry != _REGISTRY:
            raise ValueError("boundary kernel lives on another generator registry")
        stray = sorted(set(self.element.terms) - {0, (1 << _CB_STAR) | (1 << _C0)})
        if stray:
            raise ValueError(f"unexpected monomials in boundary kernel: {stray}")

    @property
    def coeff_id(self) -> float:
        return self.element.scalar_part()

    @property
    def coeff_prop(self) -> float:
        """Coefficient of c*(beta) c(0) in that written order."""
        return coefficient(self.element, [_CB_STAR, _C0])


def _slice_kernel(lam: float, star: int, c: int) -> GrassmannElement:
    """1 + lambda c_k* c_{k-1}, with c_k* and c_{k-1} at the given generators."""
    return add(one(_REGISTRY), monomial(_REGISTRY, [star, c], lam))


def contract_chain(chain: DiscretizedChain) -> PropagatorKernel:
    """Multiply the slice kernels and integrate out every interior pair.

    Time point k sits in pair (N - k) % 2, so c_N = c(beta) ends in the
    boundary pair.  Pairs are weighed by e^{-c_k* c_k} and integrated out
    eagerly in ascending time order, so a chain of any length needs only
    the five generators of the fixed registry.  The result is
    1 + lambda^N c*(beta) c(0).
    """
    lam = chain.step_coefficient
    n = chain.n_steps
    element = _slice_kernel(lam, _PAIRS[(n - 1) % 2][1], _C0)
    # hops[p] carries c_{k-1} in pair p to c_k in the other pair; it is weighed
    # by pair p's measure here, once, since mul is associative
    hops = [mul(_slice_kernel(lam, _PAIRS[1 - p][1], _PAIRS[p][0]), _WEIGHTS[p]) for p in (0, 1)]
    for k in range(2, n + 1):
        p = (n - k + 1) % 2
        c, star = _PAIRS[p]
        element = integrate_pair(mul(element, hops[p]), star, c)
    kernel = PropagatorKernel(element)
    logger.debug(
        "contracted chain N=%d scheme=%s: coeff_id=%.17g coeff_prop=%.17g",
        chain.n_steps,
        chain.scheme.value,
        kernel.coeff_id,
        kernel.coeff_prop,
    )
    return kernel


def kernel_paper_form(beta: float, omega: float) -> PropagatorKernel:
    """The closed-form kernel 1 + e^{-beta*omega} c*(beta) c(0).

    This is the full exponential exp(e^{-beta*omega} c*(beta) c(0)): the
    exponent squares to zero, so the expansion stops at first order.
    """
    validate_point(beta, omega)
    element = _slice_kernel(math.exp(-beta * omega), _CB_STAR, _C0)
    return PropagatorKernel(element)


def close_boundary(kernel: PropagatorKernel, bc: BoundaryCondition) -> float:
    """Close the time circle with the coherent-state trace and return the scalar.

    Computes int dc*(beta) dc(beta) e^{-c*(beta) c(beta)} K(c*(beta), -+c(beta)):
    substitutes c(0) -> -c(beta) (antiperiodic) or c(0) -> +c(beta)
    (periodic), weighs by 1 - c*(beta) c(beta) and integrates the boundary
    pair.  On 1 + q c*(beta) c(0) this returns 1 + q or 1 - q.
    """
    factor = -1.0 if bc is BoundaryCondition.ANTIPERIODIC else 1.0
    closed = substitute(kernel.element, _C0, _CB, factor)
    return integrate_pair(mul(closed, _WEIGHTS[0]), _CB_STAR, _CB).scalar_part()


def action_matrix(chain: DiscretizedChain, bc: BoundaryCondition) -> list[list[float]]:
    """Quadratic form of the closed discrete action after boundary elimination, as rows.

    Unit diagonal, -lambda on the subdiagonal, and a +lambda (antiperiodic)
    or -lambda (periodic) corner; its determinant is 1 +- lambda^N.
    """
    n, lam = chain.n_steps, chain.step_coefficient
    # 0.0 - lam: never -0.0, so a zero lambda leaves plain zeros below the diagonal
    m = [[1.0 if j == i else 0.0 - lam if j == i - 1 else 0.0 for j in range(n)] for i in range(n)]
    m[0][-1] += lam if bc is BoundaryCondition.ANTIPERIODIC else -lam
    return m


def _one_plus(chain: DiscretizedChain, sign: float) -> float:
    """1 + sign * lambda^N, to full relative accuracy in x = epsilon*omega.

    A sum that is a difference is -expm1(N log|lambda|), which does not
    cancel.  A first-order lambda that holds 1 - x exactly is powered
    directly, so dyadic values stay exact, unless the sum would cancel.
    """
    n, x, lam = chain.n_steps, chain.epsilon * chain.omega, chain.step_coefficient
    if chain.scheme is SliceScheme.EXACT:
        log_abs = -x
    else:
        term = sign * lam**n
        if 1.0 - lam == x and not -2.0 < term < -0.5:
            return 1.0 + term
        log_abs = math.log1p(-x) if x < 1.0 else math.log(x - 1.0)
    if (lam < 0.0 and n % 2 == 1) == (sign > 0.0):
        return -math.expm1(n * log_abs) + 0.0  # + 0.0: never -0.0
    return 1.0 + math.exp(n * log_abs)


def partition_via_determinant(chain: DiscretizedChain, bc: BoundaryCondition) -> float:
    """Partition value as the determinant 1 +- lambda^N of the action matrix.

    Overflow raises ArithmeticError, and so does, for N <= GAUSSIAN_CAP, a
    Gaussian-integral expansion of the dense matrix that differs from the
    closed form by more than 1e-10 relative (absolute below magnitude 1).
    """
    try:
        det = _one_plus(chain, 1.0 if bc is BoundaryCondition.ANTIPERIODIC else -1.0)
    except OverflowError:  # float ** int and math.exp raise where they would give inf
        det = math.inf
    if not math.isfinite(det):
        raise ArithmeticError(f"determinant of the N={chain.n_steps} action matrix is not finite")
    if chain.n_steps <= GAUSSIAN_CAP:
        symbolic = gaussian_integral_expand(action_matrix(chain, bc))
        if abs(symbolic - det) > 1e-10 * max(1.0, abs(det)):
            raise ArithmeticError(
                "cross-check failure: "
                f"Gaussian expansion {symbolic!r} disagrees with determinant {det!r}"
            )
    return det

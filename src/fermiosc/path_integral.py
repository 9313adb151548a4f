"""Euclidean time-sliced path integral for the fermionic oscillator.

The imaginary-time propagator is the N-th power of the one-slice
coherent-state kernel 1 + lambda c*(beta) c(0) under one composition, which
traces the shared time point out under its measure and builds one element.
A composition reads each product term's mask and sign from ``_COMPOSE``,
which the Grassmann product loop builds at import, so the measure is still
stated once, in the engine.  Repeated squaring gives the kernel
<c(beta)|e^{-beta H}|c(0)> = 1 + lambda^N c*(beta) c(0) in about 2 log2 N
compositions, with lambda^N held in signed-log form so that it neither
rounds per step nor cancels when the trace is closed.
The closure is the coherent-state trace int dc* dc e^{-c* c} K(c*, -+c)
(Negele & Orland, ch. 1-2), the same traced product run over the boundary
pair: antiperiodic gives the physical partition function 1 + e^{-beta*omega},
periodic the graded partition function 1 - e^{-beta*omega}.  The same
numbers come out of the determinant of the discrete action's quadratic
form, which doubles as an independent route for cross-validation; that
matrix is unit lower-bidiagonal plus one corner, so the determinant is
1 +- lambda^N in closed form (Blankenbecler, Scalapino & Sugar, PRD 24,
2278 (1981)).  Only the corner depends on the boundary condition, so the
Gaussian cross-check expands a chain's other N - 1 columns once and wedges
each boundary condition's corner column onto that product.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import namedtuple

from .grassmann import (
    GeneratorRegistry,
    GrassmannElement,
    _build,
    _exterior,
    _relabelled,
    _right,
    _wedge,
    add,
    coefficient,
    monomial,
    mul,
    one,
    substitute,
)
from .oscillator import BoundaryCondition, _bc_sign, validate_point

__all__ = [
    "SliceScheme",
    "DiscretizedChain",
    "PropagatorKernel",
    "contract_chain",
    "close_boundary",
    "partition_via_determinant",
    "GAUSSIAN_CAP",
]

# Every kernel lives on these five generators: c(0), the boundary pair and a
# spare pair.  A kernel is 1 + q c*(beta) c(0); a composition moves the shared
# time point of two kernels to the spare pair and traces it out there, so
# kernels of any N need only these five.
_REGISTRY = GeneratorRegistry(["c(0)", "c(b)", "c*(b)", "c(t)", "c*(t)"])
_C0 = 0
_CB, _CB_STAR = 1, 2  # (c, c*) of the boundary pair
_CT, _CT_STAR = 3, 4  # (c, c*) of the spare pair
# 1 + c*(beta) c(0), the slice kernel before c(0) is scaled by its coefficient
_UNIT_KERNEL = add(one(_REGISTRY), monomial(_REGISTRY, [_CB_STAR, _C0]))


class SliceScheme(enum.Enum):
    """Per-step kernel coefficient: first order in the step, or exact."""

    FIRST_ORDER = "first-order"
    EXACT = "exact"


class DiscretizedChain(namedtuple("DiscretizedChain", "n_steps beta omega scheme")):
    """A beta-interval split into N slices of width epsilon = beta / N."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, n_steps: int, beta: float, omega: float,
                scheme: SliceScheme = SliceScheme.EXACT) -> DiscretizedChain:
        validate_point(beta, omega, n_steps)
        # a string would reach step_coefficient as the exact scheme and _log_step as first order
        if not isinstance(scheme, SliceScheme):
            raise ValueError(f"scheme must be a SliceScheme, got {scheme!r}")
        # a numpy N would carry numpy arithmetic, and its overflow warnings, into the routes
        return super().__new__(cls, operator.index(n_steps), beta, omega, scheme)

    @property
    def epsilon(self) -> float:
        return self.beta / self.n_steps

    @property
    def step_coefficient(self) -> float:
        """lambda: 1 - epsilon*omega (FIRST_ORDER) or e^{-epsilon*omega} (EXACT)."""
        x = self.epsilon * self.omega
        if self.scheme is SliceScheme.FIRST_ORDER:
            return 1.0 - x
        return math.exp(-x)


class _SignedLog(float):
    """A float that also carries log|value|: the chain's kernel coefficient.

    It reads as a float wherever the engine and callers read a coefficient
    (compared, subtracted, printed, tested for zero and finiteness).  Only a
    product or sum of two coefficients is taken on the logs: a product adds
    them, so lambda^N is not rounded once per factor, and its value is
    sign * e^log, which is 0.0 once e^log underflows and +-inf once it
    overflows, as a float product would be.  A sum keeps its value, which
    is |big| + |small|, or |big| * -expm1(d) for opposite signs with d the
    difference of the logs, so 1 - lambda^N keeps its digits and is never
    read back through exp (Higham, *Accuracy and Stability of Numerical
    Algorithms*, on expm1 and log1p).
    """

    __slots__ = ("log",)

    def __new__(cls, sign: float, log: float, size: float | None = None) -> _SignedLog:
        if size is None:
            try:
                size = math.exp(log)
            except OverflowError:
                size = math.inf
        self = super().__new__(cls, math.copysign(size, sign))
        self.log = log
        return self

    def __getnewargs__(self) -> tuple[float, float, float]:  # so copy and pickle rebuild it
        return math.copysign(1.0, self), self.log, abs(self)

    def __neg__(self) -> _SignedLog:  # the negated float, exactly: no exp to take
        negated = float.__new__(_SignedLog, -float(self))
        negated.log = self.log
        return negated

    def __mul__(self, other) -> _SignedLog:
        if type(other) is not _SignedLog:
            if other == 1:  # the engine's signs and weights: no log to take
                return self
            if other == -1:
                return -self
            other = _signed_log(other)
        sign = math.copysign(1.0, self) * math.copysign(1.0, other)
        return _SignedLog(sign, self.log + other.log)

    __rmul__ = __mul__

    def __add__(self, other) -> _SignedLog:
        if not other:  # the engine's 0.0 accumulators, or an underflowed term
            return self
        big, small = self, _signed_log(other)
        if big.log < small.log:
            big, small = small, big
        if not small:
            return big
        d = small.log - big.log
        if (big < 0.0) == (small < 0.0):
            return _SignedLog(big, big.log + math.log1p(math.exp(d)), abs(big) + abs(small))
        if not d:
            return _SignedLog(1.0, -math.inf)
        shrink = -math.expm1(d)
        return _SignedLog(big, big.log + math.log(shrink), abs(big) * shrink)

    __radd__ = __add__


def _signed_log(x) -> _SignedLog:
    if type(x) is _SignedLog:
        return x
    return _SignedLog(x, math.log(abs(x)) if x else -math.inf)


def _log_step(chain: DiscretizedChain) -> tuple[int, float]:
    """(sign, log|lambda|) of the step coefficient, from x = epsilon*omega.

    -x for the exact scheme; log1p(-x) or log(x - 1) for first order, whose
    lambda = 1 - x is 0 at x = 1 (log -inf) and negative above it.
    """
    x = chain.epsilon * chain.omega
    if chain.scheme is SliceScheme.EXACT:
        return 1, -x
    if x < 1.0:
        return 1, math.log1p(-x)
    if x > 1.0:
        return -1, math.log(x - 1.0)
    return 1, -math.inf


class PropagatorKernel(namedtuple("PropagatorKernel", "element")):
    """The kernel <c(beta)|e^{-beta H}|c(0)> = coeff_id + coeff_prop c*(beta) c(0).

    The one check of the kernel's shape: ``element`` must live on the
    module's fixed registry and hold no monomial but 1 and c*(beta) c(0);
    both coefficients are read from it as floats.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, element: GrassmannElement) -> PropagatorKernel:
        if element.registry != _REGISTRY:
            raise ValueError("boundary kernel lives on another generator registry")
        stray = sorted(set(element.terms) - {0, (1 << _CB_STAR) | (1 << _C0)})
        if stray:
            raise ValueError(f"unexpected monomials in boundary kernel: {stray}")
        return super().__new__(cls, element)

    @property
    def coeff_id(self) -> float:
        return float(self.element.scalar_part())

    @property
    def coeff_prop(self) -> float:
        """Coefficient of c*(beta) c(0) in that written order."""
        return float(coefficient(self.element, [_CB_STAR, _C0]))


def _kernel(q) -> GrassmannElement:
    """1 + q c*(beta) c(0); q scales c(0) through ``substitute``, which keeps its type."""
    return substitute(_UNIT_KERNEL, _C0, _C0, q)


def _composed(ma: int, mb: int) -> tuple[int, int] | None:
    """(mask, sign) of unit monomial ma, then unit monomial mb, under the composition.

    The shared time point is relabelled onto the spare pair and traced out
    there by the product loop, under its coherent-state measure; None where
    the traced product is zero.
    """
    first = _relabelled({ma: 1.0}, _CB_STAR, _CT_STAR)
    second = _relabelled({mb: 1.0}, _C0, _CT)
    traced = _wedge(first, _right(second), (_CT_STAR, _CT))
    if not traced:
        return None
    ((mask, sign),) = traced.items()
    return mask, int(sign)


# _COMPOSE[ma][mb] for every pair of monomials on c(0), c(beta) and c*(beta)
_COMPOSE = [[_composed(ma, mb) for mb in range(8)] for ma in range(8)]


def _compose(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """The kernel of a, then b: int dc_t* dc_t e^{-c_t* c_t} b(c*(beta), c_t) a(c_t*, c(0)).

    The shared time point c_t is traced out under its coherent-state
    measure (Negele & Orland, ch. 1, the resolution of the identity), so
    1 + p c*(beta) c(0) and 1 + q c*(beta) c(0) compose to
    1 + pq c*(beta) c(0).  Each pair of terms reads its product's mask and
    sign from ``_COMPOSE``, which the product loop built at import on unit
    monomials, so the measure and every sign are still stated once, in the
    engine.  a and b hold no generator but c(0), c(beta) and c*(beta); only
    the product is built (and checked for a non-finite coefficient).
    """
    out: dict[int, float] = {}
    right = b.terms.items()
    for ma, ca in a.terms.items():
        row = _COMPOSE[ma]
        for mb, cb in right:
            entry = row[mb]
            if entry is not None:
                mask, sign = entry
                out[mask] = out.get(mask, 0.0) + ca * cb * sign
    return _build(_REGISTRY, out)


def contract_chain(chain: DiscretizedChain) -> PropagatorKernel:
    """The N-slice kernel: the N-th power of the slice kernel under ``_compose``.

    The semigroup law e^{-(a+b)H} = e^{-aH} e^{-bH} holds for the kernels,
    so repeated squaring takes at most 2 floor(log2 N) compositions.  The
    coefficient is a signed log throughout, so the result
    1 + lambda^N c*(beta) c(0) carries lambda^N without per-step rounding.
    """
    n = chain.n_steps
    power = _kernel(_SignedLog(*_log_step(chain)))  # the slice kernel to the 2^i
    element = power if n & 1 else None
    while n > 1:
        n >>= 1
        power = _compose(power, power)
        if n & 1:
            element = power if element is None else _compose(element, power)
    return PropagatorKernel(element)


def close_boundary(kernel: PropagatorKernel, bc: BoundaryCondition) -> float:
    """Close the time circle with the coherent-state trace and return the scalar.

    Computes int dc*(beta) dc(beta) e^{-c*(beta) c(beta)} K(c*(beta), -+c(beta)):
    substitutes c(0) -> -c(beta) (antiperiodic) or c(0) -> +c(beta)
    (periodic), then traces the boundary pair out of the product with 1
    under its measure, as ``_compose`` traces the spare pair.  On
    1 + q c*(beta) c(0) this returns 1 + q or 1 - q.  A bc that is not a
    member raises ValueError.
    """
    closed = substitute(kernel.element, _C0, _CB, -_bc_sign(bc))
    return float(mul(closed, one(_REGISTRY), (_CB_STAR, _CB)).scalar_part())


def _nonzero(column: list[tuple[int, float]]) -> list[tuple[int, float]]:
    return [(i, value) for i, value in column if value]


def _free_columns(n: int, lam) -> list[list[tuple[int, float]]]:
    """The N - 1 columns of the action matrix that hold no corner; see ``_action_columns``."""
    return [_nonzero([(j, 1.0), (j + 1, -lam)]) for j in range(n - 1)]


def _corner_column(n: int, lam, bc: BoundaryCondition) -> list[tuple[int, float]]:
    """The last column of the action matrix, the only one that depends on bc."""
    corner = _bc_sign(bc) * lam  # for the signed log, +-1 * lam is +-lam exactly: no log taken
    if n == 1:
        return _nonzero([(0, 1.0 + corner)])
    return _nonzero([(0, corner), (n - 1, 1.0)])


def _action_columns(n: int, lam, bc: BoundaryCondition) -> list[list[tuple[int, float]]]:
    """The N x N action matrix by columns, as its nonzero (row, value) entries in row order.

    The one statement of the closed discrete action, in two parts.  Column j
    holds the unit diagonal and -lambda below it (``_free_columns``); the
    last column holds the +lambda (antiperiodic) or -lambda (periodic)
    corner in row 0 (``_corner_column``), which at N = 1 adds to the
    diagonal, so the determinant is 1 +- lambda^N.  lambda keeps the
    caller's type, a float or the chain's signed log.  A zero entry, such
    as -0.0 at lambda = 0, is left out.
    """
    return _free_columns(n, lam) + [_corner_column(n, lam, bc)]


class _ActionGaussian:
    """The Gaussian integral of one chain's action, expanded once for both bcs.

    Calling it with a bc gives ``_gaussian_columns(_action_columns(n, lam,
    bc))`` to the bit: the first call wedges the N - 1 bc-free columns and
    keeps their product, and every call wedges only its own bc's corner
    column onto it, in the same column order.  The caller owns an instance,
    one per chain and lambda, and drops it with the chain.
    """

    __slots__ = ("n", "lam", "_free")

    def __init__(self, n: int, lam) -> None:
        self.n, self.lam, self._free = n, lam, None

    def __call__(self, bc: BoundaryCondition) -> float:
        if self._free is None:
            self._free = _exterior(_free_columns(self.n, self.lam))
        closed = _exterior([_corner_column(self.n, self.lam, bc)], self._free)
        return closed.get((1 << self.n) - 1, 0.0)


def _one_plus(chain: DiscretizedChain, sign: float) -> float:
    """1 + sign * lambda^N, to full relative accuracy in x = epsilon*omega.

    A sum that is a difference is -expm1(N log|lambda|), which does not
    cancel.  A first-order lambda that holds 1 - x exactly is powered
    directly, so dyadic values stay exact, unless the sum would cancel.
    """
    n = chain.n_steps
    if chain.scheme is SliceScheme.FIRST_ORDER:
        lam = chain.step_coefficient
        term = sign * lam**n
        if 1.0 - lam == chain.epsilon * chain.omega and not -2.0 < term < -0.5:
            return 1.0 + term
    step_sign, log_abs = _log_step(chain)
    if (step_sign < 0 and n % 2 == 1) == (sign > 0.0):
        return -math.expm1(n * log_abs) + 0.0  # + 0.0: never -0.0
    return 1.0 + math.exp(n * log_abs)


# Largest action dimension whose Gaussian integral the determinant route expands.
GAUSSIAN_CAP = 8


def partition_via_determinant(chain: DiscretizedChain, bc: BoundaryCondition) -> float:
    """Partition value as the determinant 1 +- lambda^N of the action matrix.

    Overflow raises ArithmeticError, and so does, for N <= GAUSSIAN_CAP, a
    Gaussian-integral expansion of the action's nonzero column entries that
    differs from the closed form by more than its own rounding,
    4 (N + 1) ulp * (1 + |lambda^N|).  No dense matrix is built.  A bc
    that is not a member raises ValueError.
    """
    return _determinant(chain, bc)


def _determinant(chain: DiscretizedChain, bc: BoundaryCondition,
                 gaussian: _ActionGaussian | None = None) -> float:
    """``partition_via_determinant``, cross-checked against ``gaussian``, the chain's own.

    A caller that evaluates both bcs of a chain passes the same ``gaussian``
    to both, so the bc-free columns are expanded once; without one, the
    cross-check expands the chain's float-lambda action for this bc alone.
    """
    try:
        det = _one_plus(chain, _bc_sign(bc))
    except OverflowError:  # float ** int and math.exp raise where they would give inf
        det = math.inf
    if not math.isfinite(det):
        raise ArithmeticError(f"determinant of the N={chain.n_steps} action matrix is not finite")
    if chain.n_steps <= GAUSSIAN_CAP:
        if gaussian is None:
            gaussian = _ActionGaussian(chain.n_steps, chain.step_coefficient)
        symbolic = gaussian(bc)
        # 1 + |det - 1| is 1 + |lambda^N|, the expansion's scale, and never overflows
        if abs(symbolic - det) > 4 * (chain.n_steps + 1) * 2.0**-52 * (1.0 + abs(det - 1.0)):
            raise ArithmeticError(
                "cross-check failure: "
                f"Gaussian expansion {symbolic!r} disagrees with determinant {det!r}"
            )
    return det

"""One catalogue of named invariants, shared by ``fermiosc selftest`` and pytest.

Each entry has a grid of points, a tolerance and a function that returns
the defect at one point; it passes when the worst defect over its grid is
within the tolerance.  Randomized entries seed one generator per draw from
the entry name and the draw index, so every entry gives the same result
alone or in any order.  Route accuracy is stated once, in the entry
``route-relative-accuracy``: every route against one 50-digit model.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Callable, List, NamedTuple, Sequence

from .grassmann import (
    GAUSSIAN_CAP,
    GrassmannElement,
    _gaussian_columns,
    add,
    monomial,
    mul,
    register_generators,
)
from .oscillator import (
    BoundaryCondition,
    closed_form_partition,
    density_matrix,
    hamiltonian,
    ladder_matrices,
    partition_trace,
    supertrace,
)
from .path_integral import (
    DiscretizedChain,
    SliceScheme,
    _action_columns,
    _log_step,
    _SignedLog,
    close_boundary,
    contract_chain,
    kernel_paper_form,
    partition_via_determinant,
)

__all__ = ["CheckResult", "Invariant", "INVARIANTS", "run_selftest"]

_BETAS = (0.1, 0.5, 1.0, 2.0)
_OMEGAS = (0.5, 1.0, 2.0)
_GRID = tuple(itertools.product(_BETAS + (5.0,), _OMEGAS))
_ONCE = (None,)
_AP, _P = BoundaryCondition.ANTIPERIODIC, BoundaryCondition.PERIODIC
_REG6 = register_generators(["g%d" % k for k in range(6)])
_GENERATORS = tuple(monomial(_REG6, [i]) for i in range(_REG6.size))


class CheckResult(NamedTuple):
    """Outcome of one catalogue entry."""

    name: str
    passed: bool
    detail: str
    defect: float

    def verdict(self) -> str:
        """``PASS <name>: <detail>`` or ``FAIL <name>: <detail>``."""
        return "%s %s: %s" % ("PASS" if self.passed else "FAIL", self.name, self.detail)


class Invariant(NamedTuple):
    """A named invariant: the worst ``defect(point)`` over ``grid`` is at most ``tolerance``."""

    name: str
    quantity: str
    grid: Sequence[Any]
    tolerance: float
    defect: Callable[[Any], float]

    def check(self) -> CheckResult:
        try:
            defects = [float(self.defect(point)) for point in self.grid]
            # max alone may pass over a NaN defect; a NaN must fail the entry
            worst = math.nan if any(map(math.isnan, defects)) else max(defects)
        except Exception as exc:  # one broken entry must not hide the others' report
            detail = "raised %s: %s" % (type(exc).__name__, exc)
            return CheckResult(self.name, False, detail, math.inf)
        detail = "defect %.3e tol %.0e (max %s over %d points)" % (
            worst, self.tolerance, self.quantity, len(self.grid)
        )
        return CheckResult(self.name, worst <= self.tolerance, detail, worst)


def _size(a: GrassmannElement) -> float:
    return max((abs(c) for c in a.terms.values()), default=0.0)


def _max_coefficient_difference(a: GrassmannElement, b: GrassmannElement) -> float:
    """Largest coefficient-wise |a - b| over the union of stored monomials."""
    masks = a.terms.keys() | b.terms.keys()
    return max((abs(a.terms.get(m, 0.0) - b.terms.get(m, 0.0)) for m in masks), default=0.0)


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def _random_elements(
    name: str, draw: int, count: int = 1, lowest: int = 0
) -> List[GrassmannElement]:
    """``count`` random elements on six generators; ``lowest=1`` omits the constant."""
    rng = random.Random("%s:%d" % (name, draw))
    out = []
    for _ in range(count):
        # a mask is the ascending product of its generators, so its sign is +1
        terms: dict[int, float] = {}
        for _ in range(rng.randint(1, 6)):
            mask = rng.randint(lowest, 63)
            terms[mask] = terms.get(mask, 0.0) + rng.uniform(-1.0, 1.0)
        out.append(GrassmannElement(_REG6, {m: c for m, c in terms.items() if c}))
    return out


def _anticommutator(ij) -> float:
    gi, gj = _GENERATORS[ij[0]], _GENERATORS[ij[1]]
    return _size(add(mul(gi, gj), mul(gj, gi)))


def _power_of_constant_free(draw: int) -> float:
    (a,) = _random_elements("constant-free-power-vanishes", draw, lowest=1)
    power = a
    for _ in range(_REG6.size):
        power = mul(power, a)
    return _size(power)


def _associativity(draw: int) -> float:
    a, b, c = _random_elements("product-associativity", draw, 3)
    return _max_coefficient_difference(mul(mul(a, b), c), mul(a, mul(b, c)))


def _canonical_anticommutation(_) -> float:
    import numpy as np

    c_dag, c = ladder_matrices()
    return float(max(np.max(np.abs(m)) for m in (c @ c_dag + c_dag @ c - np.eye(2),
                                                 c @ c, c_dag @ c_dag)))


def _density_spectrum(point) -> float:
    import numpy as np

    rho, h = density_matrix(*point), hamiltonian(point[1])
    if not np.array_equal(rho @ h, h @ rho):
        return math.inf
    eigs = np.sort(np.linalg.eigvalsh(rho))
    return float(np.max(np.abs(eigs - np.sort([math.exp(-point[0] * point[1]), 1.0]))))


def _density_semigroup(point) -> float:
    import numpy as np

    beta_1, beta_2, omega = point
    combined = density_matrix(beta_1 + beta_2, omega)
    product = density_matrix(beta_1, omega) @ density_matrix(beta_2, omega)
    return float(np.max(np.abs(combined - product)))


def _graded_duality(point) -> float:
    beta, omega = point
    z_plus = closed_form_partition(beta, omega, _P)
    cutoff = int(math.ceil(40.0 / (beta * omega)))
    bosonic = math.fsum(math.exp(-beta * omega * n) for n in range(cutoff + 1))
    return abs(z_plus * bosonic - 1.0)


def _route_accuracy(point) -> float:
    """Each route's worst relative error against a 50-digit model, over the route's bound.

    The model is lambda^N, lambda = e^{-x} or 1 - x on the exact double
    x = epsilon*omega, so it shares no float step log with a route; at N = 1
    in the exact scheme x is beta*omega, so 1 +- lambda is also
    ``closed_form_partition``'s Z-+.  For N <= ``GAUSSIAN_CAP`` the Gaussian
    expansion of the action's columns, on the chain's signed-log lambda, is
    a third route.  Bounds: 1e-15 (determinant, closed form, exact-scheme
    chain), min(1e-14, 16 ulp * L) (first-order chain) and 4 ulp * L
    (``coeff_prop``), L = max(1, |ln lambda^N|); the Gaussian is held to
    the chain's bound.  Errors are relative to at least 2^-1022, for an
    underflowed lambda^N.  ``coeff_id`` must be 1.0 exactly.
    """
    import decimal

    chain = DiscretizedChain(*point)
    kernel = contract_chain(chain)
    if kernel.coeff_id != 1.0:
        return math.inf
    exact = chain.scheme is SliceScheme.EXACT
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(chain.epsilon * chain.omega)
        power = ((-x).exp() if exact else 1 - x) ** chain.n_steps
        floor = decimal.Decimal(2.0**-1022)
        scaled_ulp = 2.0**-52 * max(1.0, abs(math.log(max(abs(power), floor))))
        chain_bound = 1e-15 if exact else min(1e-14, 16 * scaled_ulp)
        checks = [(kernel.coeff_prop, power, 4 * scaled_ulp)]
        for bc, z in ((_AP, 1 + power), (_P, 1 - power)):
            checks += [(close_boundary(kernel, bc), z, chain_bound),
                       (partition_via_determinant(chain, bc), z, 1e-15)]
            if chain.n_steps <= GAUSSIAN_CAP:
                columns = _action_columns(chain.n_steps, _SignedLog(*_log_step(chain)), bc)
                checks.append((_gaussian_columns(columns), z, chain_bound))
            if exact and chain.n_steps == 1:
                checks.append((closed_form_partition(chain.beta, chain.omega, bc), z, 1e-15))
        return max(float(abs(decimal.Decimal(got) - want) / max(abs(want), floor)) / bound
                   for got, want, bound in checks)


def _halving_defect(bc: BoundaryCondition) -> float:
    """First-order errors at N = 32, 64, 128: how far each ratio is from 2."""
    closed = closed_form_partition(1.0, 1.0, bc)
    chains = (DiscretizedChain(n, 1.0, 1.0, SliceScheme.FIRST_ORDER) for n in (32, 64, 128))
    errors = [abs(partition_via_determinant(chain, bc) - closed) for chain in chains]
    return max(abs(a / b - 2.0) for a, b in zip(errors, errors[1:]))


def _accuracy_draw(draw: int) -> tuple:
    """One seeded exact-scheme point of the hypothesis property's domain.

    N is log-uniform in 1..10^6, beta*omega log-uniform in [1e-12, 700] and
    omega in [1/4, 4], so the entry sees faults between its grid points.
    """
    rng = random.Random("route-relative-accuracy:%d" % draw)
    n = round(10.0 ** rng.uniform(0.0, 6.0))
    beta_omega = 10.0 ** rng.uniform(-12.0, math.log10(700.0))
    omega = 2.0 ** rng.uniform(-2.0, 2.0)
    return n, beta_omega / omega, omega, SliceScheme.EXACT


# N x beta*omega x scheme with omega cycling, then _GRID as N = 1 exact-scheme
# points, then 50 seeded draws
_ACCURACY_GRID = tuple(
    (n, bw / w, w, s) for (n, bw, s), w in zip(
        itertools.product((1, 2, 3, 7, 8, 9, 64, 10**4, 10**6),
                          (1e-12, 1e-6, 0.3, 1.0, 35.5, 700.0), SliceScheme),
        itertools.cycle(_OMEGAS))
) + tuple((1, b, w, SliceScheme.EXACT) for b, w in _GRID) + tuple(map(_accuracy_draw, range(50)))

INVARIANTS = (
    Invariant("generator-anticommutation", "|g_i g_j + g_j g_i|",
              tuple(itertools.product(range(6), repeat=2)), 0.0, _anticommutator),
    Invariant("generator-nilpotency", "|g_i g_i|", range(6), 0.0,
              lambda i: _size(mul(_GENERATORS[i], _GENERATORS[i]))),
    Invariant("constant-free-power-vanishes", "|a^7| for constant-free a", range(50), 0.0,
              _power_of_constant_free),
    Invariant("product-associativity", "|(ab)c - a(bc)|", range(200), 1e-12, _associativity),
    Invariant("trace-normalization", "|trace of the zero-beta kernel - 2|", _ONCE, 1e-14,
              lambda _: abs(close_boundary(kernel_paper_form(0.0, 1.0), _AP) - 2.0)),
    Invariant("canonical-anticommutation", "|{c, c+} - 1|, |c c|, |c+ c+|", _ONCE, 0.0,
              _canonical_anticommutation),
    Invariant("density-matrix-spectrum", "eigenvalue deviation", _GRID, 1e-12, _density_spectrum),
    Invariant("density-semigroup", "entrywise semigroup defect",
              tuple(itertools.product(_BETAS + (5.0,), _BETAS + (5.0,), _OMEGAS)), 1e-14,
              _density_semigroup),
    Invariant("route-relative-accuracy", "route error over its bound", _ACCURACY_GRID, 1.0,
              _route_accuracy),
    Invariant("antiperiodic-matches-trace", "relative closure/trace mismatch", _GRID, 1e-12,
              lambda p: _rel(close_boundary(kernel_paper_form(*p), _AP),
                             partition_trace(density_matrix(*p)))),
    Invariant("periodic-matches-supertrace", "relative closure/supertrace mismatch", _GRID,
              1e-12, lambda p: _rel(close_boundary(kernel_paper_form(*p), _P),
                                    supertrace(density_matrix(*p)))),
    Invariant("graded-partition-duality", "|Z+ * sum_n e^(-bwn) - 1|", _GRID, 1e-12,
              _graded_duality),
    Invariant("step-count-convergence", "|error ratio - 2| per doubling", (_AP, _P), 0.2,
              _halving_defect),
)


def run_selftest() -> List[CheckResult]:
    """Check every catalogue entry and return one result per entry."""
    return [invariant.check() for invariant in INVARIANTS]

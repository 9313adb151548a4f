"""One catalogue of named invariants, shared by ``fermiosc selftest`` and pytest.

Each entry has a grid of points, a tolerance and a function that returns
the defect at one point; it passes when the worst defect over its grid is
within the tolerance.  Randomized entries seed one generator per draw from
the entry name and the draw index, so every entry gives the same result
alone or in any order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

import numpy as np

from .grassmann import (
    GrassmannElement,
    add,
    berezin_integrate,
    gaussian_integral_expand,
    left_derivative,
    max_coefficient_difference,
    monomial,
    mul,
    register_generators,
)
from .oscillator import (
    density_matrix,
    hamiltonian,
    ladder_matrices,
    partition_trace,
    supertrace,
    thermal_observables,
)
from .path_integral import (
    BoundaryCondition,
    DiscretizedChain,
    SliceScheme,
    action_matrix,
    close_boundary,
    contract_chain,
    convergence_sweep,
    kernel_paper_form,
    partition_via_determinant,
)

__all__ = ["CheckResult", "Invariant", "INVARIANTS", "run_selftest"]

_BETAS = (0.1, 0.5, 1.0, 2.0)
_OMEGAS = (0.5, 1.0, 2.0)
_GRID = tuple(itertools.product(_BETAS + (5.0,), _OMEGAS))
_ONCE = (None,)
_REG6 = register_generators(["g%d" % k for k in range(6)])
_GENERATORS = tuple(monomial(_REG6, [i]) for i in range(_REG6.size))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one catalogue entry."""

    name: str
    passed: bool
    detail: str
    defect: float

    def verdict(self) -> str:
        """``PASS <name>: <detail>`` or ``FAIL <name>: <detail>``."""
        return "%s %s: %s" % ("PASS" if self.passed else "FAIL", self.name, self.detail)


@dataclass(frozen=True)
class Invariant:
    """A named invariant: the worst ``defect(point)`` over ``grid`` is at most ``tolerance``."""

    name: str
    quantity: str
    grid: Sequence[Any]
    tolerance: float
    defect: Callable[[Any], float]

    def check(self) -> CheckResult:
        try:
            # np.max, unlike max, lets a NaN defect through to fail the entry
            worst = float(np.max([self.defect(point) for point in self.grid]))
        except Exception as exc:  # one broken entry must not hide the others' report
            detail = "raised %s: %s" % (type(exc).__name__, exc)
            return CheckResult(self.name, False, detail, math.inf)
        detail = "defect %.3e tol %.0e (max %s over %d points)" % (
            worst, self.tolerance, self.quantity, len(self.grid)
        )
        return CheckResult(self.name, worst <= self.tolerance, detail, worst)


def _size(a: GrassmannElement) -> float:
    return max((abs(c) for c in a.terms.values()), default=0.0)


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def _random_elements(
    name: str, draw: int, count: int = 1, lowest: int = 0
) -> List[GrassmannElement]:
    """``count`` random elements on six generators; ``lowest=1`` omits the constant."""
    rng = random.Random("%s:%d" % (name, draw))
    out = []
    for _ in range(count):
        element = GrassmannElement(_REG6, {})
        for _ in range(rng.randint(1, 6)):
            mask = rng.randint(lowest, 63)
            indices = [i for i in range(6) if mask >> i & 1]
            element = add(element, monomial(_REG6, indices, rng.uniform(-1.0, 1.0)))
        out.append(element)
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
    return max_coefficient_difference(mul(mul(a, b), c), mul(a, mul(b, c)))


def _derivative_squared(draw: int) -> float:
    (a,) = _random_elements("derivative-squares-to-zero", draw)
    return max(_size(left_derivative(left_derivative(a, g), g)) for g in range(6))


def _integration_vs_derivative(draw: int) -> float:
    (a,) = _random_elements("integration-is-differentiation", draw)
    return max(
        max_coefficient_difference(berezin_integrate(a, g), left_derivative(a, g))
        for g in range(6)
    )


def _integral_vs_det(m) -> float:
    return abs(gaussian_integral_expand(m) - float(np.linalg.det(m)))


def _random_matrix(draw: int) -> List[List[float]]:
    rng = random.Random("gaussian-determinant-identity:%d" % draw)
    n = draw % 4 + 1
    return [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]


def _canonical_anticommutation(_) -> float:
    c_dag, c = ladder_matrices()
    return float(max(np.max(np.abs(m)) for m in (c @ c_dag + c_dag @ c - np.eye(2),
                                                 c @ c, c_dag @ c_dag)))


def _density_spectrum(point) -> float:
    rho, h = density_matrix(*point), hamiltonian(point[1])
    if not np.array_equal(rho @ h, h @ rho):
        return math.inf
    eigs = np.sort(np.linalg.eigvalsh(rho))
    return float(np.max(np.abs(eigs - np.sort([math.exp(-point[0] * point[1]), 1.0]))))


def _density_semigroup(point) -> float:
    beta_1, beta_2, omega = point
    combined = density_matrix(beta_1 + beta_2, omega)
    product = density_matrix(beta_1, omega) @ density_matrix(beta_2, omega)
    return float(np.max(np.abs(combined - product)))


def _mean_energy_derivative(point, step: float = 1e-5) -> float:
    beta, omega = point
    up = math.log(partition_trace(density_matrix(beta + step, omega)))
    down = math.log(partition_trace(density_matrix(beta - step, omega)))
    return abs(thermal_observables(beta, omega).mean_energy + (up - down) / (2.0 * step))


def _route_equivalence(point) -> float:
    chain = DiscretizedChain(*point)
    kernel = contract_chain(chain)
    return max(
        abs(close_boundary(kernel, bc) - partition_via_determinant(chain, bc))
        for bc in BoundaryCondition
    )


def _graded_duality(point) -> float:
    beta, omega = point
    z_plus = supertrace(density_matrix(beta, omega))
    cutoff = int(math.ceil(40.0 / (beta * omega)))
    bosonic = math.fsum(math.exp(-beta * omega * n) for n in range(cutoff + 1))
    return abs(z_plus * bosonic - 1.0)


def _chain_coefficient(n_steps: int) -> float:
    """contract_chain gives coeff_id = 1 exactly and coeff_prop = lambda^N, both schemes."""
    worst = 0.0
    for scheme in SliceScheme:
        chain = DiscretizedChain(n_steps, 1.0, 1.0, scheme)
        kernel = contract_chain(chain)
        if kernel.coeff_id != 1.0:
            return math.inf
        prop = chain.step_coefficient**n_steps
        worst = max(worst, abs(kernel.coeff_prop - prop) / (abs(prop) or 1.0))
    return worst


def _interior_contraction(point) -> float:
    """Integrating out the interior pairs leaves exactly 1 + lambda^N c*(beta) c(0)."""
    chain = DiscretizedChain(*point)
    kernel = contract_chain(chain)
    return max(
        abs(len(kernel.element.terms) - 2),
        abs(kernel.coeff_id - 1.0),
        abs(kernel.coeff_prop - chain.step_coefficient**chain.n_steps),
    )


def _halving_defect(bc: BoundaryCondition) -> float:
    """First-order errors at N = 32, 64, 128: how far each ratio is from 2."""
    points = convergence_sweep(1.0, 1.0, [32, 64, 128], SliceScheme.FIRST_ORDER, bc)
    errors = [point.abs_error for point in points]
    return max(abs(a / b - 2.0) for a, b in zip(errors, errors[1:]))


_AP, _P = BoundaryCondition.ANTIPERIODIC, BoundaryCondition.PERIODIC
_ACTION_POINTS = ((0.0, 1.0), (1e-9, 1.0), (0.5, 2.0), (1.0, 1.0), (2.0, 2.0))
_ACTION_GRID = tuple(
    (n, b, w, s, bc) for b, w in _ACTION_POINTS for s in SliceScheme
    for n in range(1, 5) for bc in BoundaryCondition
)

INVARIANTS = (
    Invariant("generator-anticommutation", "|g_i g_j + g_j g_i|",
              tuple(itertools.product(range(6), repeat=2)), 0.0, _anticommutator),
    Invariant("generator-nilpotency", "|g_i g_i|", range(6), 0.0,
              lambda i: _size(mul(_GENERATORS[i], _GENERATORS[i]))),
    Invariant("constant-free-power-vanishes", "|a^7| for constant-free a", range(50), 0.0,
              _power_of_constant_free),
    Invariant("product-associativity", "|(ab)c - a(bc)|", range(200), 1e-12, _associativity),
    Invariant("derivative-squares-to-zero", "|d/dg d/dg a|", range(100), 0.0,
              _derivative_squared),
    Invariant("integration-is-differentiation", "|int dg a - d/dg a|", range(100), 0.0,
              _integration_vs_derivative),
    Invariant("gaussian-determinant-identity", "|integral - det|", range(200), 1e-10,
              lambda draw: _integral_vs_det(_random_matrix(draw))),
    Invariant("trace-normalization", "|trace of the zero-beta kernel - 2|", _ONCE, 1e-14,
              lambda _: abs(close_boundary(kernel_paper_form(0.0, 1.0), _AP) - 2.0)),
    Invariant("canonical-anticommutation", "|{c, c+} - 1|, |c c|, |c+ c+|", _ONCE, 0.0,
              _canonical_anticommutation),
    Invariant("density-matrix-spectrum", "eigenvalue deviation", _GRID, 1e-12, _density_spectrum),
    Invariant("partition-closed-form", "relative |Tr rho - (1 + e^-bw)|", _GRID, 1e-15,
              lambda p: _rel(partition_trace(density_matrix(*p)), 1.0 + math.exp(-p[0] * p[1]))),
    Invariant("supertrace-closed-form", "relative |Str rho - (1 - e^-bw)|", _GRID, 1e-14,
              lambda p: _rel(supertrace(density_matrix(*p)), 1.0 - math.exp(-p[0] * p[1]))),
    Invariant("trace-supertrace-sum", "|Tr rho + Str rho - 2|", _GRID, 1e-14,
              lambda p: abs(partition_trace(density_matrix(*p))
                            + supertrace(density_matrix(*p)) - 2.0)),
    Invariant("density-semigroup", "entrywise semigroup defect",
              tuple(itertools.product(_BETAS + (5.0,), _BETAS + (5.0,), _OMEGAS)), 1e-14,
              _density_semigroup),
    Invariant("mean-energy-derivative", "|<E> + dlnZ/dbeta|", _GRID, 1e-8,
              _mean_energy_derivative),
    Invariant("entropy-high-temperature-limit", "|S(beta=1e-4) - ln 2|", _ONCE, 1e-6,
              lambda _: abs(thermal_observables(1e-4, 1.0).entropy - math.log(2.0))),
    Invariant("route-equivalence", "|chain route - determinant route|",
              tuple(itertools.product((1, 2, 4, 8), _BETAS, _OMEGAS, SliceScheme)), 1e-10,
              _route_equivalence),
    Invariant("antiperiodic-matches-trace", "relative closure/trace mismatch", _GRID, 1e-12,
              lambda p: _rel(close_boundary(kernel_paper_form(*p), _AP),
                             partition_trace(density_matrix(*p)))),
    Invariant("periodic-matches-supertrace", "relative closure/supertrace mismatch", _GRID,
              1e-12, lambda p: _rel(close_boundary(kernel_paper_form(*p), _P),
                                    supertrace(density_matrix(*p)))),
    Invariant("graded-partition-duality", "|Z+ * sum_n e^(-bwn) - 1|", _GRID, 1e-12,
              _graded_duality),
    Invariant("chain-coefficient-exactness", "coefficient defect", range(1, 65), 1e-13,
              _chain_coefficient),
    Invariant("interior-contraction-form", "stray or wrong coefficient",
              ((2, 2.0, 0.25, SliceScheme.FIRST_ORDER), (3, 3.0, 1.0, SliceScheme.EXACT)),
              0.0, _interior_contraction),
    Invariant("action-matrix-routes", "|integral - det| over action matrices", _ACTION_GRID,
              1e-10, lambda p: _integral_vs_det(action_matrix(DiscretizedChain(*p[:4]), p[4]))),
    Invariant("step-count-convergence", "|error ratio - 2| per doubling", (_AP, _P), 0.2,
              _halving_defect),
)


def run_selftest() -> List[CheckResult]:
    """Check every catalogue entry and return one result per entry."""
    return [invariant.check() for invariant in INVARIANTS]

"""One catalogue of named invariants, shared by ``fermiosc selftest`` and pytest.

Each entry has a grid of points, a tolerance and a function that returns
the defect at one point; it passes when the worst defect over its grid is
within the tolerance.  Randomized entries seed one generator per draw from
the entry name and the draw index, so every entry gives the same result
alone or in any order.  Route accuracy is stated once, in the entry
``route-relative-accuracy``: every route against one decimal model.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from typing import Any, Callable, List, NamedTuple, Sequence

from .grassmann import (
    GeneratorRegistry,
    GrassmannElement,
    add,
    monomial,
    mul,
)
from .oscillator import (
    BoundaryCondition,
    closed_form_partition,
    density_matrix,
    hamiltonian,
    ladder_matrices,
    number_operator,
    partition_trace,
    supertrace,
)
from .path_integral import (
    GAUSSIAN_CAP,
    DiscretizedChain,
    SliceScheme,
    _ActionGaussian,
    _log_step,
    _SignedLog,
    close_boundary,
    contract_chain,
    partition_via_determinant,
)

__all__ = ["CheckResult", "Invariant", "INVARIANTS", "run_selftest"]

_OMEGAS = (0.5, 1.0, 2.0)
_GRID = tuple(itertools.product((0.1, 0.5, 1.0, 2.0, 5.0), _OMEGAS))
_AP, _P = BoundaryCondition.ANTIPERIODIC, BoundaryCondition.PERIODIC
_REG6 = GeneratorRegistry(["g%d" % k for k in range(6)])
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
        """The worst defect over the grid, and the first grid point that gives it."""
        try:
            defects = [float(self.defect(point)) for point in self.grid]
        except Exception as exc:  # one broken entry must not hide the others' report
            detail = "raised %s: %s" % (type(exc).__name__, exc)
            return CheckResult(self.name, False, detail, math.inf)
        # max alone may pass over a NaN defect; a NaN must fail the entry
        nans = [k for k, defect in enumerate(defects) if math.isnan(defect)]
        at = nans[0] if nans else max(range(len(defects)), key=defects.__getitem__)
        worst = defects[at]
        detail = "defect %.3e tol %.0e (max %s over %d points, worst at %s)" % (
            worst, self.tolerance, self.quantity, len(self.grid), _point_text(self.grid[at])
        )
        return CheckResult(self.name, worst <= self.tolerance, detail, worst)


def _point_text(point) -> str:
    """A grid point as text: floats by repr, enum members by value, tuples in parentheses."""
    if isinstance(point, tuple):
        return "(%s)" % ", ".join(map(_point_text, point))
    if isinstance(point, enum.Enum):
        return str(point.value)
    return repr(point)


def _size(a: GrassmannElement) -> float:
    return max((abs(c) for c in a.terms.values()), default=0.0)


def _max_coefficient_difference(a: GrassmannElement, b: GrassmannElement) -> float:
    """Largest coefficient-wise |a - b| over the union of stored monomials."""
    masks = a.terms.keys() | b.terms.keys()
    return max((abs(a.terms.get(m, 0.0) - b.terms.get(m, 0.0)) for m in masks), default=0.0)


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 2.0**-1022)


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


def _ladder_commutator(omega: float) -> float:
    import numpy as np

    c_dag, _ = ladder_matrices()
    h = hamiltonian(omega)
    return float(np.max(np.abs(h @ c_dag - c_dag @ h - omega * c_dag)))


def _density_is_boltzmann(point) -> float:
    """|rho - V diag(e^{-beta E}) V^-1|, with E, V numpy's eigensystem of H."""
    import numpy as np

    beta, omega = point
    energies, vectors = np.linalg.eig(hamiltonian(omega))
    boltzmann = vectors @ np.diag(np.exp(-beta * energies)) @ np.linalg.inv(vectors)
    return float(np.max(np.abs(density_matrix(beta, omega) - boltzmann)))


def _kernel_is_density(point) -> float:
    """Worst error over its bound of the exact-scheme kernels at N = 1 and 7 against rho.

    A diagonal A has the kernel <0|A|0> + <1|A|1> c* c' (Negele & Orland, ch. 1),
    so ``coeff_id`` and ``coeff_prop`` are held to Tr((1 - n) rho) and Tr(n rho)
    at 4 ulp * max(1, beta*omega), and the closures to Tr rho and Str rho at 1e-12.
    """
    rho, n = density_matrix(*point), number_operator()
    ulps = 4 * 2.0**-52 * max(1.0, point[0] * point[1])
    wants = ((float((rho - n @ rho).trace()), ulps), (float((n @ rho).trace()), ulps),
             (partition_trace(rho), 1e-12), (supertrace(rho), 1e-12))
    kernels = [contract_chain(DiscretizedChain(steps, *point)) for steps in (1, 7)]
    return max(_rel(got, want) / bound for k in kernels for got, (want, bound) in zip(
        (k.coeff_id, k.coeff_prop, close_boundary(k, _AP), close_boundary(k, _P)), wants))


def _route_accuracy(point) -> float:
    """Each route's worst relative error against a decimal model, over the route's bound.

    The model is lambda^N, lambda = e^{-x} or 1 - x on the exact double
    x = epsilon*omega, to 50 digits plus one per decade of x below 1 and over
    the widest exponents, so it keeps x and shares no float step log with a
    route.  In the exact scheme lambda^N is e^{-N x}, and N x is beta*omega
    to three roundings, which move 1 +- e^{-N x} by at most as much,
    relatively, as they move N x; so 1 +- lambda^N is also
    ``closed_form_partition``'s Z-+ wherever x is a normal double
    (x >= 2^-1022), and at N = 1, where x is beta*omega itself.  For
    N <= ``GAUSSIAN_CAP`` the Gaussian expansion of the action's columns, on
    the chain's signed-log lambda, is a third route.  Bounds: 1e-15
    (determinant, closed form, exact-scheme chain), min(1e-14, 16 ulp * L)
    (first-order chain) and 4 ulp * L (``coeff_prop``), L = max(1,
    |ln lambda^N|); the Gaussian is held to the chain's bound.  Errors are
    relative to at least 2^-1022, for an underflowed lambda^N.  ``coeff_id``
    must be 1.0 exactly.
    """
    import decimal

    chain = DiscretizedChain(*point)
    kernel = contract_chain(chain)
    if kernel.coeff_id != 1.0:
        return math.inf
    exact = chain.scheme is SliceScheme.EXACT
    with decimal.localcontext() as ctx:
        x = decimal.Decimal(chain.epsilon * chain.omega)  # exact at any precision
        ctx.prec = 50 + max(0, -x.adjusted())
        ctx.Emin, ctx.Emax = decimal.MIN_EMIN, decimal.MAX_EMAX
        power = ((-x).exp() if exact else 1 - x) ** chain.n_steps
        floor = decimal.Decimal(2.0**-1022)
        scaled_ulp = 2.0**-52 * max(1.0, abs(math.log(max(abs(power), floor))))
        chain_bound = 1e-15 if exact else min(1e-14, 16 * scaled_ulp)
        checks = [(kernel.coeff_prop, power, 4 * scaled_ulp)]
        # each Gaussian expands the chain's bc-free columns once, for both bcs
        determinant = _ActionGaussian(chain.n_steps, chain.step_coefficient)
        gaussian = (_ActionGaussian(chain.n_steps, _SignedLog(*_log_step(chain)))
                    if chain.n_steps <= GAUSSIAN_CAP else None)
        for bc, z in ((_AP, 1 + power), (_P, 1 - power)):
            checks += [(close_boundary(kernel, bc), z, chain_bound),
                       (partition_via_determinant(chain, bc, determinant), z, 1e-15)]
            if gaussian is not None:
                checks.append((gaussian(bc), z, chain_bound))
            if exact and (chain.n_steps == 1 or x >= floor):
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
# points, then 50 seeded draws; a point the product already holds is kept once
_ACCURACY_GRID = tuple(dict.fromkeys(itertools.chain(
    ((n, bw / w, w, s) for (n, bw, s), w in zip(
        itertools.product((1, 2, 3, 7, 8, 9, 64, 10**4, 10**6),
                          (1e-12, 1e-6, 0.3, 1.0, 35.5, 700.0), SliceScheme),
        itertools.cycle(_OMEGAS))),
    ((1, b, w, SliceScheme.EXACT) for b, w in _GRID),
    map(_accuracy_draw, range(50)),
)))

INVARIANTS = (
    Invariant("generator-anticommutation", "|g_i g_j + g_j g_i|",
              tuple(itertools.product(range(6), repeat=2)), 0.0, _anticommutator),
    Invariant("constant-free-power-vanishes", "|a^7| for constant-free a", range(50), 0.0,
              _power_of_constant_free),
    Invariant("product-associativity", "|(ab)c - a(bc)|", range(200), 1e-12, _associativity),
    Invariant("canonical-anticommutation", "|{c, c+} - 1|, |c c|, |c+ c+|", (None,), 0.0,
              _canonical_anticommutation),
    Invariant("ladder-commutator", "|[H, c+] - omega c+|", _OMEGAS, 0.0, _ladder_commutator),
    Invariant("density-is-boltzmann", "|rho - e^(-beta H)| on eig(H)", _GRID, 1e-15,
              _density_is_boltzmann),
    Invariant("chain-kernel-is-density-operator", "kernel error over its bound against rho",
              _GRID + ((0.0, 1.0),), 1.0, _kernel_is_density),
    Invariant("route-relative-accuracy", "route error over its bound", _ACCURACY_GRID, 1.0,
              _route_accuracy),
    Invariant("step-count-convergence", "|error ratio - 2| per doubling", (_AP, _P), 0.2,
              _halving_defect),
)


def run_selftest() -> List[CheckResult]:
    """Check every catalogue entry and return one result per entry."""
    return [invariant.check() for invariant in INVARIANTS]

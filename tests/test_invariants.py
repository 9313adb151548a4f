"""The invariant catalogue under pytest, one test per entry.

``pytest -s tests/test_invariants.py`` prints the line ``fermiosc selftest``
prints for each entry: PASS or FAIL, the name, the worst defect and the
tolerance.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiosc import oscillator, path_integral, selftest
from fermiosc.grassmann import GrassmannElement, add, monomial
from fermiosc.oscillator import density_matrix, ladder_matrices, number_operator, parity_operator
from fermiosc.path_integral import GAUSSIAN_CAP, PropagatorKernel, SliceScheme
from fermiosc.selftest import INVARIANTS, Invariant, run_selftest


@pytest.mark.parametrize("invariant", INVARIANTS, ids=[inv.name for inv in INVARIANTS])
def test_invariant(invariant):
    result = invariant.check()
    print(result.verdict())
    assert result.passed, result.detail


def test_invariant_names_are_unique():
    # a repeated name prints two indistinguishable PASS lines and a suffixed pytest id
    names = [inv.name for inv in INVARIANTS]
    assert len(names) == len(set(names))


def test_nan_defect_fails_the_entry():
    # in the middle of the grid, where max(0.0, nan, 0.5) would return 0.5
    result = Invariant("nan", "defect", (0, 1, 2), 1.0, lambda p: (0.0, math.nan, 0.5)[p]).check()
    assert not result.passed and math.isnan(result.defect)
    assert result.detail.endswith(", worst at 1)")


def test_route_accuracy_names_its_worst_point(monkeypatch):
    # a determinant 8 ulp off at one first-order N = 7 point: past the route's 1e-15,
    # inside the cross-check's 32 ulp, so the entry fails with a defect, not a raise
    one_plus = path_integral._one_plus

    def skewed(chain, sign):
        z = one_plus(chain, sign)
        if chain[:3] == (7, 2.0, 0.5) and chain.scheme is SliceScheme.FIRST_ORDER:
            return z * (1.0 + 2.0**-49)
        return z

    monkeypatch.setattr(path_integral, "_one_plus", skewed)
    results = {result.name: result for result in run_selftest()}
    verdict = results["route-relative-accuracy"].verdict()
    assert verdict.startswith("FAIL route-relative-accuracy: defect ")
    assert verdict.endswith(", worst at (7, 2.0, 0.5, first-order))")


# the entries that read the 2x2 operators; no other entry calls them
_OPERATOR_ENTRIES = ("canonical-anticommutation", "ladder-commutator", "density-is-boltzmann",
                     "chain-kernel-is-density-operator")


def _scaled_prop(chain):
    """The chain's kernel with coeff_prop off by 1e-13 relative."""
    element = path_integral.contract_chain(chain).element
    terms = {m: c * (1.0 + 1e-13) if m else c for m, c in element.terms.items()}
    return PropagatorKernel(GrassmannElement(element.registry, terms))


def _swapped_closure(kernel, bc):
    """The closure under the other boundary condition."""
    swapped = selftest._P if bc is selftest._AP else selftest._AP
    return path_integral.close_boundary(kernel, swapped)


@pytest.mark.parametrize("module, name, fault, failing", [
    (selftest, "hamiltonian", lambda w: w * (number_operator() + 0.5 * np.eye(2)),
     ["density-is-boltzmann"]),
    (selftest, "hamiltonian", lambda w: w * number_operator() + 0.1 * ladder_matrices()[0],
     ["density-is-boltzmann"]),
    (selftest, "density_matrix", lambda b, w: density_matrix(b, w) * (1.0 + 1e-13),
     ["density-is-boltzmann", "chain-kernel-is-density-operator"]),
    (selftest, "density_matrix", lambda b, w: density_matrix(b, w) + 1e-3 * (1.0 - np.eye(2)),
     ["density-is-boltzmann"]),
    # H = omega (1 - n) keeps the eigenvectors and the size of the level spacing
    (selftest, "hamiltonian", lambda w: w * (np.eye(2) - number_operator()),
     ["ladder-commutator", "density-is-boltzmann"]),
    (oscillator, "parity_operator", lambda: -parity_operator(),
     ["chain-kernel-is-density-operator"]),
    (selftest, "density_matrix", lambda b, w: density_matrix(b, w)[::-1, ::-1],
     ["density-is-boltzmann", "chain-kernel-is-density-operator"]),
    (selftest, "contract_chain", _scaled_prop, ["chain-kernel-is-density-operator"]),
    (selftest, "close_boundary", _swapped_closure, ["chain-kernel-is-density-operator"]),
], ids=["H=w(n+1/2)", "H=wn+0.1c+", "rho*(1+1e-13)", "rho+1e-3-off-diagonal", "H=w(1-n)",
        "flipped-parity", "rho-in-swapped-basis", "coeff_prop*(1+1e-13)", "swapped-closure"])
def test_operator_entries_see_the_fault(monkeypatch, module, name, fault, failing):
    entries = [invariant for invariant in INVARIANTS if invariant.name in _OPERATOR_ENTRIES]
    assert len(entries) == len(_OPERATOR_ENTRIES)
    monkeypatch.setattr(module, name, fault)
    failed = {result.name: result for result in map(Invariant.check, entries)
              if not result.passed}
    assert list(failed) == failing
    if "ladder-commutator" in failed:  # [H, c+] = -omega c+ where it should be omega c+
        assert failed["ladder-commutator"].defect == 2.0 * max(selftest._OMEGAS)


def test_route_accuracy_sees_a_skewed_step_log(monkeypatch):
    # a fault in the step log the chain and the determinant share moves both
    # routes alike, so only a reference of its own can see it
    log_step = path_integral._log_step

    def skewed(chain):
        sign, log_abs = log_step(chain)
        if chain.scheme is SliceScheme.EXACT:
            log_abs *= 1.0 + 2.0**-44
        return sign, log_abs

    monkeypatch.setattr(path_integral, "_log_step", skewed)
    results = {result.name: result for result in run_selftest()}
    assert not results["route-relative-accuracy"].passed


def test_route_accuracy_sees_a_float_gaussian(monkeypatch):
    # a float lambda rounds once, and 1 - lambda^N cancels where beta*omega is
    # small, so the action's Gaussian holds the chain's bound on the signed log only
    action_gaussian = selftest._ActionGaussian
    monkeypatch.setattr(selftest, "_ActionGaussian",
                        lambda n, lam: action_gaussian(n, float(lam)))
    results = {result.name: result for result in run_selftest()}
    assert not results["route-relative-accuracy"].passed


def test_route_accuracy_sees_an_opposite_sign_sum_read_back_through_exp(monkeypatch):
    # 1 - lambda^N as e^log carries about |log| half-ulps; the grid alone passes that
    signed_log = path_integral._SignedLog
    add = signed_log.__add__

    def through_exp(self, other):
        total = add(self, other)
        if self and other and (self < 0.0) != (other < 0.0):
            return signed_log(total, total.log)
        return total

    monkeypatch.setattr(signed_log, "__add__", through_exp)
    monkeypatch.setattr(signed_log, "__radd__", through_exp)
    results = {result.name: result for result in run_selftest()}
    assert not results["route-relative-accuracy"].passed


def test_route_accuracy_where_the_gaussian_runs():
    # N up to the cap at zero beta, at beta*omega = 1e-9 (Z+ about 1e-9) and at
    # three moderate points, both schemes; _route_accuracy takes both bcs itself
    beta_omegas = ((0.0, 1.0), (1e-9, 1.0), (0.5, 2.0), (1.0, 1.0), (2.0, 2.0))
    for (beta, omega), scheme, n in itertools.product(
        beta_omegas, SliceScheme, range(1, GAUSSIAN_CAP + 1)
    ):
        assert selftest._route_accuracy((n, beta, omega, scheme)) <= 1.0, (n, beta, omega, scheme)


def test_route_accuracy_where_x_is_below_the_model_digits():
    # x = epsilon*omega is about 5.5e-52, so a 50-digit e^{-x} rounds to 1 and
    # the model reads 1 - lambda^N = 0 where both routes are 1.6e-16 off
    point = (77418786712550, 9.468619383790343e-38, 0.4521471948356784, SliceScheme.EXACT)
    assert selftest._route_accuracy(point) <= 1.0


# between the entry's grid points, over the domain validate_point accepts:
# N log-uniform in 1..10^18, beta*omega log-uniform in [5e-324, 1e300] or
# beta = 0 (None), omega in [1/4, 4]
@given(st.floats(0.0, 18.0), st.none() | st.floats(math.log10(5e-324), 300.0),
       st.floats(-2.0, 2.0))
@settings(max_examples=200)
def test_exact_scheme_route_accuracy_between_grid_points(log_n, log_bw, log_omega):
    omega = 2.0**log_omega
    beta = 0.0 if log_bw is None else 10.0**log_bw / omega
    point = (round(10.0**log_n), beta, omega, SliceScheme.EXACT)
    assert selftest._route_accuracy(point) <= 1.0


def test_accuracy_draws_lie_in_the_property_domain():
    draws = [selftest._accuracy_draw(k) for k in range(50)]
    assert selftest._ACCURACY_GRID[-50:] == tuple(draws)
    assert len(set(draws)) == 50
    for n, beta, omega, scheme in draws:
        assert scheme is SliceScheme.EXACT and isinstance(n, int) and 1 <= n <= 10**6
        assert 0.25 <= omega <= 4.0
        assert 1e-12 * (1 - 1e-15) <= beta * omega <= 700.0 * (1 + 1e-15)


def test_accuracy_grid_holds_each_point_once():
    # the product's N = 1 row and _GRID share (1, 1.0, 1.0, exact)
    assert len(set(selftest._ACCURACY_GRID)) == len(selftest._ACCURACY_GRID) == 172


def test_max_coefficient_difference_of_equal_elements_is_zero():
    a = add(monomial(selftest._REG6, [0, 1], 1.5), monomial(selftest._REG6, [2], -0.25))
    assert selftest._max_coefficient_difference(a, a) == 0.0
    empty = GrassmannElement(selftest._REG6, {})
    assert selftest._max_coefficient_difference(empty, empty) == 0.0


def test_max_coefficient_difference_counts_a_monomial_one_side_holds():
    a, b = monomial(selftest._REG6, [0], 2.5), monomial(selftest._REG6, [1], -1.0)
    assert selftest._max_coefficient_difference(a, b) == 2.5
    assert selftest._max_coefficient_difference(b, a) == 2.5


def test_max_coefficient_difference_is_the_largest_over_monomials():
    a = GrassmannElement(selftest._REG6, {1: 1.0, 2: 5.0, 3: -2.0})
    b = GrassmannElement(selftest._REG6, {1: 1.5, 2: 5.0, 3: -2.125})
    assert selftest._max_coefficient_difference(a, b) == 0.5


def _folded_elements(name, draw, count, lowest):
    """The catalogue's random elements as one add of one monomial per term."""
    rng = random.Random("%s:%d" % (name, draw))
    out = []
    for _ in range(count):
        element = GrassmannElement(selftest._REG6, {})
        for _ in range(rng.randint(1, 6)):
            mask = rng.randint(lowest, 63)
            indices = [i for i in range(6) if mask >> i & 1]
            element = add(element, monomial(selftest._REG6, indices, rng.uniform(-1.0, 1.0)))
        out.append(element)
    return out


# (count, lowest) of each entry's _random_elements call
_DRAWN = {
    "constant-free-power-vanishes": (1, 1),
    "product-associativity": (3, 0),
}


@pytest.mark.parametrize("name", sorted(_DRAWN))
def test_random_elements_are_the_fold(name):
    (grid,) = [invariant.grid for invariant in INVARIANTS if invariant.name == name]
    for draw in grid:
        built = selftest._random_elements(name, draw, *_DRAWN[name])
        folded = _folded_elements(name, draw, *_DRAWN[name])
        assert built == folded
        # the same order too, so the products sum their terms alike
        assert [list(a.terms.items()) for a in built] == [list(a.terms.items()) for a in folded]

"""The invariant catalogue under pytest, one test per entry.

``pytest -s tests/test_invariants.py`` prints the line ``fermiosc selftest``
prints for each entry: PASS or FAIL, the name, the worst defect and the
tolerance.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fermiosc import path_integral, selftest
from fermiosc.grassmann import GAUSSIAN_CAP, GrassmannElement, add, monomial
from fermiosc.path_integral import SliceScheme
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
    action_columns = selftest._action_columns
    monkeypatch.setattr(selftest, "_action_columns",
                        lambda n, lam, bc: action_columns(n, float(lam), bc))
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


# between the entry's grid points: N log-uniform in 1..10^6, beta*omega
# log-uniform in [1e-12, 700], omega in [1/4, 4]
@given(st.floats(0.0, 6.0), st.floats(-12.0, math.log10(700.0)), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_exact_scheme_route_accuracy_between_grid_points(log_n, log_bw, log_omega):
    omega = 2.0**log_omega
    point = (round(10.0**log_n), 10.0**log_bw / omega, omega, SliceScheme.EXACT)
    assert selftest._route_accuracy(point) <= 1.0


def test_accuracy_draws_lie_in_the_property_domain():
    draws = [selftest._accuracy_draw(k) for k in range(50)]
    assert selftest._ACCURACY_GRID[-50:] == tuple(draws)
    assert len(set(draws)) == 50
    for n, beta, omega, scheme in draws:
        assert scheme is SliceScheme.EXACT and isinstance(n, int) and 1 <= n <= 10**6
        assert 0.25 <= omega <= 4.0
        assert 1e-12 * (1 - 1e-15) <= beta * omega <= 700.0 * (1 + 1e-15)


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

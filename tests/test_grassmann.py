import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiosc.grassmann import (
    GAUSSIAN_CAP,
    GrassmannElement,
    add,
    coefficient,
    gaussian_integral_expand,
    integrate_pair,
    left_derivative,
    max_coefficient_difference,
    monomial,
    mul,
    one,
    register_generators,
    substitute,
)

REG6 = register_generators(["g%d" % i for i in range(6)])


def zero6():
    return GrassmannElement(REG6, {})


@st.composite
def elements(draw, max_terms=6):
    el = zero6()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mask = draw(st.integers(min_value=0, max_value=63))
        coeff = draw(
            st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
        )
        indices = [i for i in range(6) if mask >> i & 1]
        el = add(el, monomial(REG6, indices, coeff))
    return el


class TestRegistry:
    def test_plain_construction(self):
        reg = register_generators(["c0", "c0*", "c1", "c1*"])
        assert reg.size == 4
        assert reg.labels == ("c0", "c0*", "c1", "c1*")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_generators(["c", "c"])


class TestMonomial:
    def test_reordering_flips_sign(self):
        a = monomial(REG6, [1, 0])
        assert coefficient(a, [0, 1]) == -1.0
        assert coefficient(a, [1, 0]) == 1.0

    def test_coefficient_carried(self):
        a = monomial(REG6, [0], 2.5)
        assert a.terms == {1: 2.5}

    def test_repeated_index_vanishes(self):
        assert monomial(REG6, [0, 0]).is_zero

    def test_non_finite_coefficient_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ArithmeticError, match="non-finite"):
                monomial(REG6, [0], bad)


class TestLinearOps:
    def test_additive_identity(self):
        a = monomial(REG6, [0, 2], 1.5)
        assert add(a, zero6()) == a

    def test_scale_by_zero(self):
        assert monomial(REG6, [1], 0.0).is_zero

    def test_cancellation(self):
        c0, c1 = monomial(REG6, [0]), monomial(REG6, [1])
        total = add(add(c0, c1), add(c0, monomial(REG6, [1], -1.0)))
        assert total == monomial(REG6, [0], 2.0)


class TestProduct:
    def test_anticommuting_generators(self):
        c0, c1 = monomial(REG6, [0]), monomial(REG6, [1])
        assert coefficient(mul(c0, c1), [0, 1]) == 1.0
        assert coefficient(mul(c1, c0), [0, 1]) == -1.0

    def test_overflowing_product_rejected(self):
        big = monomial(REG6, [0], 1e200)
        with pytest.raises(ArithmeticError, match="non-finite"):
            mul(big, monomial(REG6, [1], 1e200))

    def test_even_element_square(self):
        # (1 + c0c1)^2 = 1 + 2 c0c1, the bilinear square drops out
        a = add(one(REG6), monomial(REG6, [0, 1]))
        sq = mul(a, a)
        assert sq.scalar_part() == 1.0
        assert coefficient(sq, [0, 1]) == 2.0
        assert len(sq.terms) == 2


class TestDerivative:
    def test_matching_generator(self):
        assert left_derivative(monomial(REG6, [0]), 0) == one(REG6)

    def test_anticommutes_past_front(self):
        a = monomial(REG6, [0, 1])
        assert left_derivative(a, 1) == monomial(REG6, [0], -1.0)

    def test_absent_generator(self):
        assert left_derivative(monomial(REG6, [1]), 0).is_zero


class TestBerezin:
    """Berezin integration in a generator is the left derivative in it."""

    def test_constant_drops(self):
        assert left_derivative(one(REG6), 0).is_zero

    def test_leftmost_passthrough(self):
        a = monomial(REG6, [0, 1])
        assert left_derivative(a, 0) == monomial(REG6, [1])


class TestIntegratePair:
    REG = register_generators(["c", "c*"])

    def test_oriented_pair_is_unity(self):
        cc_star = monomial(self.REG, [0, 1])
        assert integrate_pair(cc_star, 1, 0) == one(self.REG)

    def test_gaussian_weight_is_unity(self):
        weight = add(one(self.REG), monomial(self.REG, [1, 0], -1.0))
        assert integrate_pair(weight, 1, 0) == one(self.REG)

    def test_constant_drops(self):
        assert integrate_pair(one(self.REG), 1, 0).is_zero

    @given(elements())
    @settings(max_examples=100, deadline=None)
    def test_is_the_left_derivative_in_g_then_g_star(self, a):
        for g_star, g in itertools.product(range(REG6.size), repeat=2):
            nested = left_derivative(left_derivative(a, g), g_star)
            # same monomials, coefficients and order, so later sums round alike
            assert list(integrate_pair(a, g_star, g).terms.items()) == list(nested.terms.items())

    @pytest.mark.parametrize("g_star, g", [(6, 0), (0, 6), (-1, 7), (2, -1)])
    def test_out_of_range_generator_message(self, g_star, g):
        a = monomial(REG6, [0, 1, 2])
        with pytest.raises(ValueError) as nested:
            left_derivative(left_derivative(a, g), g_star)
        with pytest.raises(ValueError) as paired:
            integrate_pair(a, g_star, g)
        assert str(paired.value) == str(nested.value)


class TestGaussianIntegral:
    def test_one_pair(self):
        assert gaussian_integral_expand([[0.3]]) == pytest.approx(0.3, abs=1e-15)

    def test_identity_matrix(self):
        for n in (1, 2, 3):
            assert gaussian_integral_expand(np.eye(n)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        # the product of the entries at any magnitude: 1e-16 is no dust to prune
        for d in ((2.0, 3.0), (1e-8, 1e-8)):
            assert gaussian_integral_expand(np.diag(d)) == d[0] * d[1]

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            gaussian_integral_expand(np.eye(9))

    @pytest.mark.parametrize(
        "m, message",
        [
            ([], "square matrix"),
            ([1.0, 2.0], "square matrix"),
            ([[1.0, 2.0]], "square matrix"),
            (np.ones((2, 3)), "square matrix"),
            ([[1.0, math.nan], [0.0, 1.0]], "finite"),
            (np.diag([1.0, math.inf]), "finite"),
            # float() parses text, but text is no number
            (["12", "34"], "numbers"),
            ([["1", "2"], ["3", "4"]], "numbers"),
            ([b"\x01\x02", b"\x03\x04"], "numbers"),
            # beyond the float range, where math.isfinite raises OverflowError
            ([[10**400]], "finite"),
            ([[1.0, 10**400], [0.0, 1.0]], "finite"),
        ],
    )
    def test_malformed_matrix_rejected(self, m, message):
        with pytest.raises(ValueError, match=message):
            gaussian_integral_expand(m)

    def test_any_number_type_accepted(self):
        m = [[True, Fraction(1, 2)], [np.float64(3.0), np.int64(2)]]
        assert gaussian_integral_expand(m) == 0.5

    @given(st.integers(1, GAUSSIAN_CAP).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(-1e150, 1e150)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_the_product_of_column_elements(self, m):
        # the product psi_1 ... psi_n by mul, on one element per column
        n = len(m)
        registry = register_generators([f"c{i}*" for i in range(1, n + 1)])
        columns = [GrassmannElement(registry, {1 << i: row[j] for i, row in enumerate(m) if row[j]})
                   for j in range(n)]
        try:
            want = repr(functools.reduce(mul, columns).terms.get((1 << n) - 1, 0.0))
        except ArithmeticError as error:  # a product beyond the float range
            with pytest.raises(ArithmeticError) as got:
                gaussian_integral_expand(m)
            assert str(got.value) == str(error)
        else:
            assert repr(gaussian_integral_expand(m)) == want


class TestSubstitute:
    def test_plain_relabel(self):
        a = monomial(REG6, [0, 1])
        out = substitute(a, 0, 2)
        assert coefficient(out, [2, 1]) == 1.0

    def test_sign_factor(self):
        a = monomial(REG6, [3, 0])
        out = substitute(a, 0, 2, -1.0)
        assert coefficient(out, [3, 2]) == -1.0

    def test_collision_annihilates(self):
        a = monomial(REG6, [0, 1])
        assert substitute(a, 0, 1).is_zero


@given(st.permutations(range(40)), st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_product_sign_matches_written_order(order, split, end):
    # monomial() sorts the written order by its own transposition count
    reg = register_generators(["h%d" % i for i in range(40)])
    left, right = order[:split], order[split:max(split, end)]
    assert mul(monomial(reg, left), monomial(reg, right)) == monomial(reg, left + right)


@given(elements(), elements(), elements())
@settings(max_examples=150, deadline=None)
def test_product_associative(a, b, c):
    assert max_coefficient_difference(mul(mul(a, b), c), mul(a, mul(b, c))) <= 1e-12


@given(elements(), elements(), elements())
@settings(max_examples=100, deadline=None)
def test_product_distributes(a, b, c):
    left = mul(a, add(b, c))
    right = add(mul(a, b), mul(a, c))
    assert max_coefficient_difference(left, right) <= 1e-12


@given(elements(), st.integers(min_value=0, max_value=5))
@settings(max_examples=150, deadline=None)
def test_derivative_squares_to_zero(a, g):
    assert left_derivative(left_derivative(a, g), g).is_zero


@given(elements(), elements(), st.integers(min_value=0, max_value=5))
@settings(max_examples=100, deadline=None)
def test_derivative_additive(a, b, g):
    combined = left_derivative(add(a, b), g)
    split = add(left_derivative(a, g), left_derivative(b, g))
    assert combined == split

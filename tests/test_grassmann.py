import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fermiosc.grassmann import (
    GAUSSIAN_CAP,
    GeneratorRegistry,
    GrassmannElement,
    _gaussian_columns,
    add,
    coefficient,
    integrate_pair,
    monomial,
    mul,
    one,
    register_generators,
    substitute,
)
from fermiosc.selftest import _max_coefficient_difference

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

    def test_built_from_a_list_is_hashable_and_keeps_its_size(self):
        labels = ["a", "b"]
        reg = GeneratorRegistry(labels)
        labels.append("c")
        assert hash(reg) == hash(register_generators(["a", "b"]))
        assert reg.size == 2 and reg.labels == ("a", "b")


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


def _left_derivative(a, g):
    """Berezin integral in ``g``: move ``g`` to the front of each monomial holding it, drop it."""
    bit = 1 << g
    return GrassmannElement(a.registry, {
        mask ^ bit: -coeff if (mask & (bit - 1)).bit_count() & 1 else coeff
        for mask, coeff in a.terms.items() if mask & bit})


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
            nested = _left_derivative(_left_derivative(a, g), g_star)
            # same monomials, coefficients and order, so later sums round alike
            assert list(integrate_pair(a, g_star, g).terms.items()) == list(nested.terms.items())

    def test_rest_of_the_monomial_passes_through(self):
        assert integrate_pair(monomial(REG6, [0, 1, 2, 3]), 1, 0) == monomial(REG6, [2, 3])

    def test_pair_anticommutes_past_a_generator_between(self):
        # d/dg1 d/dg0 (g0 g2 g1) = d/dg1 (g2 g1) = -g2
        assert integrate_pair(monomial(REG6, [0, 2, 1]), 1, 0) == monomial(REG6, [2], -1.0)

    def test_absent_generator(self):
        for indices in ([0, 2], [1, 2], [2, 3]):
            assert integrate_pair(monomial(REG6, indices), 1, 0).is_zero

    @given(elements(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_same_generator_twice_gives_zero(self, a, g):
        # the left derivative squares to zero
        assert integrate_pair(a, g, g).is_zero

    @given(elements(), elements(), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_additive(self, a, b, g_star, g):
        combined = integrate_pair(add(a, b), g_star, g)
        assert combined == add(integrate_pair(a, g_star, g), integrate_pair(b, g_star, g))

    @given(elements(), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_swapping_the_pair_flips_the_sign(self, a, g_star, g):
        # left derivatives anticommute
        swapped = integrate_pair(a, g, g_star)
        negated = GrassmannElement(REG6, {mask: -coeff for mask, coeff in swapped.terms.items()})
        assert integrate_pair(a, g_star, g) == negated

    @pytest.mark.parametrize("g_star, g", [(6, 0), (0, 6), (-1, 7), (2, -1)])
    def test_out_of_range_generator_message(self, g_star, g):
        # the innermost generator, g, is checked first
        bad = g_star if 0 <= g < REG6.size else g
        with pytest.raises(ValueError, match=f"^generator index {bad} outside registry of size 6$"):
            integrate_pair(monomial(REG6, [0, 1, 2]), g_star, g)


# no subnormal entry, so doubling a column is exact in every product
_ENTRIES = st.one_of(st.just(0.0), st.floats(2.0**-20, 4.0), st.floats(-4.0, -(2.0**-20)))
_MATRICES = st.integers(1, GAUSSIAN_CAP).flatmap(lambda n: st.lists(
    st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))


def _columns(m):
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(len(m))]


def _exact_determinant(m):
    """det m in exact rationals, by elimination with row swaps."""
    rows = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


class TestGaussianIntegral:
    def test_one_pair(self):
        assert _gaussian_columns([[(0, 0.3)]]) == 0.3

    def test_identity_matrix(self):
        for n in (1, 2, 3):
            assert _gaussian_columns([[(j, 1.0)] for j in range(n)]) == 1.0

    def test_diagonal(self):
        # the product of the entries at any magnitude: 1e-16 is no dust to prune
        for d in ((2.0, 3.0), (1e-8, 1e-8)):
            assert _gaussian_columns([[(0, d[0])], [(1, d[1])]]) == d[0] * d[1]

    def test_no_columns_is_one(self):
        # the determinant of the empty matrix
        assert _gaussian_columns([]) == 1.0

    def test_zero_column_gives_zero(self):
        assert _gaussian_columns([[(0, 2.0)], []]) == 0.0

    def test_columns_on_one_row_give_zero(self):
        # c0* c0* = 0
        assert _gaussian_columns([[(0, 2.0)], [(0, 3.0)]]) == 0.0

    @pytest.mark.parametrize("rows", list(itertools.permutations(range(3))), ids=str)
    def test_permutation_matrix_is_its_sign(self, rows):
        # column j holds a one in row rows[j]
        inversions = sum(a > b for a, b in itertools.combinations(rows, 2))
        assert _gaussian_columns([[(i, 1.0)] for i in rows]) == (-1.0) ** inversions

    @given(st.integers(1, GAUSSIAN_CAP).flatmap(lambda n: st.lists(
        st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=100, deadline=None)
    def test_upper_triangular_is_the_diagonal_product(self, m):
        # at most one monomial survives each column, so the result is the product's own bits
        n = len(m)
        columns = [[(i, m[i][j]) for i in range(j + 1) if m[i][j]] for j in range(n)]
        assert _gaussian_columns(columns) == math.prod(m[j][j] for j in range(n))

    @given(_MATRICES, st.data())
    @settings(max_examples=100, deadline=None)
    def test_doubling_a_column_doubles_the_integral(self, m, data):
        columns = _columns(m)
        j = data.draw(st.integers(0, len(m) - 1))
        doubled = [[(i, 2.0 * v) for i, v in column] if k == j else column
                   for k, column in enumerate(columns)]
        assert _gaussian_columns(doubled) == 2.0 * _gaussian_columns(columns)

    @given(_MATRICES)
    @settings(max_examples=100, deadline=None)
    def test_is_the_exact_determinant_to_rounding(self, m):
        # every product and sum rounds once, so the error is a few ulp of the permanent's bound
        n = len(m)
        bound = math.prod(sum(abs(row[j]) for row in m) for j in range(n))
        got = _gaussian_columns(_columns(m))
        assert abs(Fraction(got) - _exact_determinant(m)) <= 4 * n * 2.0**-52 * bound

    @given(st.integers(1, GAUSSIAN_CAP).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(-1e150, 1e150)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_the_product_of_column_elements(self, m):
        # the product psi_1 ... psi_n by mul, on one element per column
        n = len(m)
        columns = [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(n)]
        registry = register_generators([f"c{i}*" for i in range(1, n + 1)])
        elements = [GrassmannElement(registry, {1 << i: v for i, v in column}) for column in columns]
        try:
            want = repr(functools.reduce(mul, elements).terms.get((1 << n) - 1, 0.0))
        except ArithmeticError as error:  # a product beyond the float range
            with pytest.raises(ArithmeticError) as got:
                _gaussian_columns(columns)
            assert str(got.value) == str(error)
        else:
            assert repr(_gaussian_columns(columns)) == want


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
    assert _max_coefficient_difference(mul(mul(a, b), c), mul(a, mul(b, c))) <= 1e-12


@given(elements(), elements(), elements())
@settings(max_examples=100, deadline=None)
def test_product_distributes(a, b, c):
    left = mul(a, add(b, c))
    right = add(mul(a, b), mul(a, c))
    assert _max_coefficient_difference(left, right) <= 1e-12


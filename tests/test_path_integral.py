import copy
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiosc import path_integral
from fermiosc.grassmann import (
    GAUSSIAN_CAP,
    add,
    coefficient,
    monomial,
    mul,
    one,
    register_generators,
)
from fermiosc.oscillator import BoundaryCondition, closed_form_partition
from fermiosc.path_integral import (
    DiscretizedChain,
    PropagatorKernel,
    SliceScheme,
    close_boundary,
    contract_chain,
    kernel_paper_form,
    partition_via_determinant,
)
from fermiosc.selftest import _max_coefficient_difference

AP = BoundaryCondition.ANTIPERIODIC
P = BoundaryCondition.PERIODIC
REGISTRY = kernel_paper_form(1.0, 1.0).element.registry
C0, CB_STAR, CT = (REGISTRY.labels.index(label) for label in ("c(0)", "c*(b)", "c(t)"))


def boundary_kernel(q):
    """1 + q c*(beta) c(0) on the chain registry."""
    return PropagatorKernel(add(one(REGISTRY), monomial(REGISTRY, [CB_STAR, C0], q)))


def _rel_error(z, want):
    return abs(Fraction(z) - want) / abs(want)


class TestDiscretizedChain:
    def test_epsilon_times_steps_recovers_beta(self):
        chain = DiscretizedChain(7, 2.3, 1.0)
        assert abs(chain.epsilon * chain.n_steps - chain.beta) <= 1e-12

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            DiscretizedChain(0, 1.0, 1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            DiscretizedChain(4, -1.0, 1.0)

    def test_zero_omega_rejected(self):
        with pytest.raises(ValueError, match="omega"):
            DiscretizedChain(4, 1.0, 0.0)


class TestStepKernel:
    def test_free_overlap(self):
        # at beta = 0 each slice, and so the chain, is the overlap 1 + c* c'
        kernel = contract_chain(DiscretizedChain(2, 0.0, 1.0))
        assert (kernel.coeff_id, kernel.coeff_prop) == (1.0, 1.0)

    def test_first_order_coefficient(self):
        chain = DiscretizedChain(1, 1.0, 0.5, SliceScheme.FIRST_ORDER)
        assert chain.step_coefficient == 0.5

    def test_exact_coefficient(self):
        chain = DiscretizedChain(1, math.log(2.0), 1.0)
        assert chain.step_coefficient == pytest.approx(0.5, rel=1e-15)


class TestContractChain:
    def test_first_order_two_steps(self):
        kernel = contract_chain(
            DiscretizedChain(2, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        )
        assert kernel.coeff_prop == pytest.approx(0.25, rel=1e-14)

    def test_prints_like_the_paper_form(self):
        chain_kernel = contract_chain(DiscretizedChain(4, 1.0, 1.0)).element
        assert repr(chain_kernel) == repr(kernel_paper_form(1.0, 1.0).element)

    def test_coefficients_compare_as_floats(self):
        chain = DiscretizedChain(4, 1.0, 1.0)
        element = contract_chain(chain).element
        assert _max_coefficient_difference(element, kernel_paper_form(1.0, 1.0).element) == 0.0
        assert element == contract_chain(chain).element
        assert coefficient(element, [CB_STAR, C0]) == math.exp(-1.0)

    def test_pickled_kernel_keeps_its_digits(self):
        kernel = contract_chain(DiscretizedChain(8, 1e-12, 1.0))
        copied = pickle.loads(pickle.dumps(kernel))
        assert copied == kernel
        assert close_boundary(copied, P) == close_boundary(kernel, P)

    def test_underflowed_coefficient_is_dropped(self):
        kernel = contract_chain(DiscretizedChain(8, 800.0, 1.0))
        assert list(kernel.element.terms) == [0]
        assert kernel.coeff_prop == 0.0

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 64, 10**6])
    def test_compositions_grow_with_log_steps(self, monkeypatch, n_steps):
        compose = path_integral._compose
        calls = []

        def counting(a, b):
            calls.append(None)
            return compose(a, b)

        monkeypatch.setattr(path_integral, "_compose", counting)
        contract_chain(DiscretizedChain(n_steps, 1.0, 1.0))
        assert len(calls) <= 2 * (n_steps.bit_length() - 1)

    @pytest.mark.parametrize("scheme", list(SliceScheme))
    @pytest.mark.parametrize("n_steps", [2, 3, 7, 64, 10**6])
    def test_coefficient_stays_a_signed_log(self, n_steps, scheme):
        kernel = contract_chain(DiscretizedChain(n_steps, 1.0, 1.0, scheme))
        q = kernel.element.terms[1 << CB_STAR | 1 << C0]
        assert type(q) is path_integral._SignedLog
        negated = -q
        assert type(negated) is path_integral._SignedLog and negated.log == q.log
        assert negated.hex() == (-float(q)).hex()
        for rebuilt in (copy.copy(q), pickle.loads(pickle.dumps(q))):
            assert type(rebuilt) is path_integral._SignedLog
            assert (rebuilt.hex(), rebuilt.log) == (q.hex(), q.log)

    def test_a_sum_keeps_its_value(self):
        # 1 - e^{-x} is -expm1(-x) itself, not read back through exp of its log
        q = path_integral._SignedLog(1.0, -5e-5)
        for total in (q + -1.0, -1.0 + q):
            assert total.hex() == math.expm1(-5e-5).hex()
            for rebuilt in (copy.copy(total), pickle.loads(pickle.dumps(total))):
                assert type(rebuilt) is path_integral._SignedLog
                assert (rebuilt.hex(), rebuilt.log) == (total.hex(), total.log)


@pytest.mark.parametrize(
    "element, message",
    [
        (monomial(REGISTRY, [C0]), "unexpected monomials"),
        (add(one(REGISTRY), monomial(REGISTRY, [CB_STAR, CT])), "unexpected monomials"),
        (one(register_generators(["c", "c*"])), "another generator registry"),
    ],
    ids=["stray-c0", "stray-cb-star-ct", "foreign-registry"],
)
def test_propagator_kernel_validates_element(element, message):
    with pytest.raises(ValueError, match=message):
        PropagatorKernel(element)


class TestPaperFormKernel:
    def test_zero_beta_coefficients(self):
        kernel = kernel_paper_form(0.0, 1.0)
        assert (kernel.coeff_id, kernel.coeff_prop) == (1.0, 1.0)

    def test_propagation_coefficient(self):
        kernel = kernel_paper_form(math.log(2.0), 1.0)
        assert kernel.coeff_prop == pytest.approx(0.5, rel=1e-15)

    def test_exponent_squares_to_zero(self):
        exponent = monomial(REGISTRY, [CB_STAR, C0], math.exp(-1.0))
        assert mul(exponent, exponent).is_zero
        assert add(one(REGISTRY), exponent) == kernel_paper_form(1.0, 1.0).element


class TestCloseBoundary:
    def test_antiperiodic_value(self):
        z = close_boundary(kernel_paper_form(1.0, 1.0), AP)
        assert z == pytest.approx(1.0 + math.exp(-1.0), rel=1e-14)

    def test_periodic_value(self):
        z = close_boundary(kernel_paper_form(1.0, 1.0), P)
        assert z == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_zero_beta_counts_states(self):
        kernel = kernel_paper_form(0.0, 1.0)
        assert close_boundary(kernel, AP) == 2.0
        assert close_boundary(kernel, P) == 0.0

    def test_bare_identity_kernel(self):
        kernel = PropagatorKernel(one(REGISTRY))
        assert [close_boundary(kernel, bc) for bc in (AP, P)] == [1.0, 1.0]

    @given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    def test_linear_in_kernel_coefficient(self, q):
        kernel = boundary_kernel(q)
        assert close_boundary(kernel, AP) == pytest.approx(1.0 + q, rel=1e-14, abs=1e-14)
        assert close_boundary(kernel, P) == pytest.approx(1.0 - q, rel=1e-14, abs=1e-14)


def test_raw_contraction_pins_coefficients():
    for scheme in SliceScheme:
        chain = DiscretizedChain(4, 1.0, 1.0, scheme)
        kernel = contract_chain(chain)
        assert kernel.coeff_id == 1.0
        assert kernel.coeff_prop == pytest.approx(chain.step_coefficient**4, rel=1e-14)


def _dense(chain, bc):
    """The float action matrix as rows, filled from ``_action_columns``."""
    n = chain.n_steps
    m = [[0.0] * n for _ in range(n)]
    for j, column in enumerate(path_integral._action_columns(n, chain.step_coefficient, bc)):
        for i, value in column:
            m[i][j] = value
    return m


class TestActionMatrix:
    def test_structure(self):
        chain = DiscretizedChain(4, 1.0, 1.0)
        m = _dense(chain, AP)
        lam = chain.step_coefficient
        assert np.array_equal(np.diag(m), np.ones(4))
        assert np.array_equal(np.diag(m, k=-1), [-lam] * 3)
        assert m[0][3] == lam

    def test_first_order_closed_form(self):
        chain = DiscretizedChain(2, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        assert np.linalg.det(_dense(chain, AP)) == pytest.approx(1.25, abs=1e-15)

    def test_zero_mode_at_zero_beta(self):
        assert partition_via_determinant(DiscretizedChain(3, 0.0, 1.0), P) == 0.0
        for n_steps in (1, 2, 4, 8):
            assert partition_via_determinant(DiscretizedChain(n_steps, 0.0, 1.0), AP) == 2.0

    @pytest.mark.parametrize("n_steps", range(1, GAUSSIAN_CAP + 1))
    def test_one_statement_of_the_matrix(self, n_steps):
        # lambda = e^{-x} or 1 - x at x = 0, 1 (first-order lambda = 0) and 3 (lambda < 0)
        betas = (0.0, n_steps, 3.0 * n_steps)
        for beta, scheme, bc in itertools.product(betas, SliceScheme, (AP, P)):
            chain = DiscretizedChain(n_steps, beta, 1.0, scheme)
            columns = path_integral._action_columns(n_steps, chain.step_coefficient, bc)
            m = _dense(chain, bc)
            # each column is the dense matrix's nonzero entries, in row order
            assert columns == [[(i, row[j]) for i, row in enumerate(m) if row[j]]
                               for j in range(n_steps)]
            assert path_integral._gaussian_columns(columns) == pytest.approx(
                np.linalg.det(m), rel=1e-13, abs=1e-15)

    def test_first_order_four_steps(self):
        chain = DiscretizedChain(4, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        assert partition_via_determinant(chain, AP) == 1.31640625
        assert partition_via_determinant(chain, P) == 0.68359375


class TestDeterminantRoute:
    """partition_via_determinant evaluates 1 +- lambda^N without a dense matrix."""

    @pytest.mark.parametrize("n_steps", [*range(1, 65), 2048, 10**6])
    def test_exact_scheme_matches_closed_form(self, n_steps):
        for beta_omega in np.geomspace(1e-12, 700.0, 15):
            chain = DiscretizedChain(n_steps, float(beta_omega), 1.0)
            boltzmann = Fraction(math.exp(-beta_omega))
            assert _rel_error(partition_via_determinant(chain, AP), 1 + boltzmann) <= 1e-15
            assert _rel_error(
                partition_via_determinant(chain, P), Fraction(-math.expm1(-beta_omega))
            ) <= 1e-15

    # in the last point x = beta/2048 is a tie of 1 - x, so lambda holds 1 - x
    # only to half an ulp, which powering 2048 times would carry past 1e-13
    @pytest.mark.parametrize(
        "n_steps,beta_omega",
        [(n, bw) for n in (1, 2, 7, 9, 64, 2048) for bw in (1e-12, 1e-6, 0.3, 1, 5, 30, 700)]
        + [(2048, 2048 * (round(3.39e-4 * 2.0**53) + 0.5) / 2.0**53)],
    )
    def test_first_order_matches_exact_power(self, n_steps, beta_omega):
        chain = DiscretizedChain(n_steps, beta_omega, 1.0, SliceScheme.FIRST_ORDER)
        lam_n = (1 - Fraction(chain.epsilon * chain.omega)) ** n_steps
        assert _rel_error(partition_via_determinant(chain, AP), 1 + lam_n) <= 1e-13
        assert _rel_error(partition_via_determinant(chain, P), 1 - lam_n) <= 1e-13

    @given(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.integers(min_value=1, max_value=64),
        st.sampled_from(list(SliceScheme)),
        st.sampled_from(list(BoundaryCondition)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_determinant(self, beta, omega, n_steps, scheme, bc):
        chain = DiscretizedChain(n_steps, beta, omega, scheme)
        z = partition_via_determinant(chain, bc)
        dense = np.linalg.det(_dense(chain, bc))
        assert abs(dense - z) <= 1e-11 * max(1.0, abs(z))

    def test_exact_zero_is_positive(self):
        # lambda = -1: lambda^N = +1 for even N, -1 for odd N
        for n_steps, bc in ((4, P), (3, AP)):
            chain = DiscretizedChain(n_steps, 2.0 * n_steps, 1.0, SliceScheme.FIRST_ORDER)
            assert repr(partition_via_determinant(chain, bc)) == "0.0"
        assert repr(partition_via_determinant(DiscretizedChain(10, 0.0, 1.0), P)) == "0.0"

    def test_no_dense_matrix_and_the_kernel_only_up_to_the_cap(self, monkeypatch):
        sizes = []
        kernel = path_integral._gaussian_columns
        monkeypatch.setattr(path_integral, "_gaussian_columns",
                            lambda columns: sizes.append(len(columns)) or kernel(columns))
        for n_steps in (1, GAUSSIAN_CAP, GAUSSIAN_CAP + 1):
            chain = DiscretizedChain(n_steps, 1.0, 1.0)
            assert partition_via_determinant(chain, AP) == pytest.approx(1.0 + math.exp(-1.0))
        assert sizes == [1, GAUSSIAN_CAP]


@pytest.mark.parametrize("beta_omega", [1e-12, 1e-6])
def test_periodic_closed_form_keeps_digits(beta_omega):
    want = Fraction(-math.expm1(-beta_omega))
    assert _rel_error(closed_form_partition(beta_omega, 1.0, P), want) <= 1e-15


# off the catalogue's accuracy grid: random points
@given(
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(list(SliceScheme)),
    st.sampled_from(list(BoundaryCondition)),
)
@settings(max_examples=60, deadline=None)
def test_routes_agree(beta, omega, n_steps, scheme, bc):
    chain = DiscretizedChain(n_steps, beta, omega, scheme)
    symbolic = close_boundary(contract_chain(chain), bc)
    direct = partition_via_determinant(chain, bc)
    assert abs(symbolic - direct) <= 1e-10

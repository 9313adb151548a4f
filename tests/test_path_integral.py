import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiosc import path_integral
from fermiosc.grassmann import GAUSSIAN_CAP, add, monomial, mul, one, register_generators
from fermiosc.oscillator import BoundaryCondition, closed_form_partition, thermal_observables
from fermiosc.path_integral import (
    DiscretizedChain,
    PropagatorKernel,
    SliceScheme,
    action_matrix,
    close_boundary,
    contract_chain,
    kernel_paper_form,
    partition_via_determinant,
)

AP = BoundaryCondition.ANTIPERIODIC
P = BoundaryCondition.PERIODIC
REGISTRY = kernel_paper_form(1.0, 1.0).element.registry
C0, CB_STAR, CT = (REGISTRY.labels.index(label) for label in ("c(0)", "c*(b)", "c(t)"))


def boundary_kernel(q):
    """1 + q c*(beta) c(0) on the chain registry."""
    return PropagatorKernel(add(one(REGISTRY), monomial(REGISTRY, [CB_STAR, C0], q)))


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
    def test_single_step_passthrough(self):
        kernel = contract_chain(DiscretizedChain(1, math.log(2.0), 1.0))
        assert kernel.coeff_prop == pytest.approx(0.5, rel=1e-15)
        assert kernel.coeff_id == 1.0

    def test_first_order_two_steps(self):
        kernel = contract_chain(
            DiscretizedChain(2, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        )
        assert kernel.coeff_prop == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 8, 17, 64])
    def test_exact_scheme_is_step_count_independent(self, n_steps):
        kernel = contract_chain(DiscretizedChain(n_steps, 1.0, 1.0))
        assert kernel.coeff_prop == pytest.approx(math.exp(-1.0), abs=1e-13)

    def test_logs_extracted_coefficients(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="fermiosc.path_integral"):
            contract_chain(DiscretizedChain(4, 1.0, 1.0))
        assert any("coeff_prop" in record.message for record in caplog.records)

    def test_ten_thousand_steps_match_closed_form(self):
        for scheme in SliceScheme:
            chain = DiscretizedChain(10**4, 1.0, 1.0, scheme)
            kernel = contract_chain(chain)
            lam_n = chain.step_coefficient**chain.n_steps
            assert close_boundary(kernel, AP) == pytest.approx(1.0 + lam_n, rel=1e-11)
            assert close_boundary(kernel, P) == pytest.approx(1.0 - lam_n, rel=1e-11)


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


class TestActionMatrix:
    def test_structure(self):
        chain = DiscretizedChain(4, 1.0, 1.0)
        m = action_matrix(chain, AP)
        lam = chain.step_coefficient
        assert np.array_equal(np.diag(m), np.ones(4))
        assert np.array_equal(np.diag(m, k=-1), [-lam] * 3)
        assert m[0][3] == lam

    def test_first_order_closed_form(self):
        chain = DiscretizedChain(2, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        assert np.linalg.det(action_matrix(chain, AP)) == pytest.approx(1.25, abs=1e-15)

    @pytest.mark.parametrize("n_steps", [1, 3, 16])
    def test_exact_scheme_determinant(self, n_steps):
        z = partition_via_determinant(DiscretizedChain(n_steps, 1.0, 1.0), AP)
        assert z == pytest.approx(1.0 + math.exp(-1.0), rel=1e-14)

    def test_zero_mode_at_zero_beta(self):
        assert partition_via_determinant(DiscretizedChain(3, 0.0, 1.0), P) == 0.0
        for n_steps in (1, 2, 4, 8):
            assert partition_via_determinant(DiscretizedChain(n_steps, 0.0, 1.0), AP) == 2.0

    def test_first_order_four_steps(self):
        chain = DiscretizedChain(4, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        assert partition_via_determinant(chain, AP) == 1.31640625
        assert partition_via_determinant(chain, P) == 0.68359375


def _rel_error(z, want):
    return abs(Fraction(z) - want) / abs(want)


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
        dense = np.linalg.det(action_matrix(chain, bc))
        assert abs(dense - z) <= 1e-11 * max(1.0, abs(z))

    def test_exact_zero_is_positive(self):
        # lambda = -1: lambda^N = +1 for even N, -1 for odd N
        for n_steps, bc in ((4, P), (3, AP)):
            chain = DiscretizedChain(n_steps, 2.0 * n_steps, 1.0, SliceScheme.FIRST_ORDER)
            assert repr(partition_via_determinant(chain, bc)) == "0.0"
        assert repr(partition_via_determinant(DiscretizedChain(10, 0.0, 1.0), P)) == "0.0"

    def test_dense_matrix_only_for_the_cross_check(self, monkeypatch):
        def refuse(chain, bc):
            raise AssertionError("dense action matrix built")

        monkeypatch.setattr(path_integral, "action_matrix", refuse)
        chain = DiscretizedChain(GAUSSIAN_CAP + 1, 1.0, 1.0)
        assert partition_via_determinant(chain, AP) == pytest.approx(1.0 + math.exp(-1.0))
        with pytest.raises(AssertionError, match="dense"):
            partition_via_determinant(DiscretizedChain(GAUSSIAN_CAP, 1.0, 1.0), AP)


@pytest.mark.parametrize("beta_omega", [1e-12, 1e-6])
def test_periodic_closed_form_keeps_digits(beta_omega):
    want = Fraction(-math.expm1(-beta_omega))
    assert _rel_error(closed_form_partition(beta_omega, 1.0, P), want) <= 1e-15
    assert _rel_error(thermal_observables(beta_omega, 1.0).z_plus, want) <= 1e-15


# the chain forms 1 - lambda^N by subtraction, losing digits at small beta*omega
@pytest.mark.xfail(reason="ROADMAP item 2")
@pytest.mark.parametrize("n_steps", [8, 64])
def test_chain_periodic_value_keeps_digits(n_steps):
    chain = DiscretizedChain(n_steps, 1e-12, 1.0)
    want = Fraction(partition_via_determinant(chain, P))
    assert _rel_error(close_boundary(contract_chain(chain), P), want) <= 1e-15


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


@pytest.mark.parametrize("bc", [AP, P])
@pytest.mark.parametrize("beta,omega", [(0.1, 2.0), (1.0, 1.0), (2.0, 0.5)])
def test_symbolic_route_matches_closed_form(beta, omega, bc):
    chain = DiscretizedChain(6, beta, omega)
    z = close_boundary(contract_chain(chain), bc)
    assert z == pytest.approx(closed_form_partition(beta, omega, bc), abs=1e-13)

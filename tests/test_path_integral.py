import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiosc.grassmann import (
    add,
    coefficient,
    integrate_pair,
    monomial,
    mul,
    one,
)
from fermiosc.oscillator import exact_kernel_coefficient
from fermiosc.path_integral import (
    SYMBOLIC_CHAIN_CAP,
    BoundaryCondition,
    DiscretizedChain,
    PropagatorKernel,
    SliceScheme,
    action_matrix,
    close_boundary,
    closed_form_partition,
    contract_chain,
    convergence_sweep,
    kernel_paper_form,
    paper_normalized,
    partition_via_determinant,
    step_kernel,
)
from fermiosc.selftest import Invariant

AP = BoundaryCondition.ANTIPERIODIC
P = BoundaryCondition.PERIODIC


class TestDiscretizedChain:
    def test_registry_spans_all_time_points(self):
        chain = DiscretizedChain(5, 1.0, 1.0)
        assert chain.registry.size == 12
        assert chain.registry.labels[0] == "c0"
        assert chain.registry.labels[-1] == "c5*"

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
        chain = DiscretizedChain(2, 0.0, 1.0)
        k = step_kernel(chain, 1)
        assert k.scalar_part() == 1.0
        assert coefficient(k, [chain.cstar_index(1), chain.c_index(0)]) == 1.0

    def test_first_order_coefficient(self):
        chain = DiscretizedChain(1, 1.0, 0.5, SliceScheme.FIRST_ORDER)
        assert chain.step_coefficient == 0.5

    def test_exact_coefficient(self):
        chain = DiscretizedChain(1, math.log(2.0), 1.0)
        assert chain.step_coefficient == pytest.approx(0.5, rel=1e-15)

    def test_index_bounds(self):
        chain = DiscretizedChain(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            step_kernel(chain, 0)
        with pytest.raises(ValueError):
            step_kernel(chain, 3)


class TestContractChain:
    def test_single_step_passthrough(self):
        kernel = contract_chain(DiscretizedChain(1, math.log(2.0), 1.0))
        assert abs(kernel.coeff_prop) == pytest.approx(0.5, rel=1e-15)
        assert kernel.coeff_id == 1.0
        assert kernel.coeff_diag == 1.0

    def test_first_order_two_steps(self):
        kernel = contract_chain(
            DiscretizedChain(2, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        )
        assert abs(kernel.coeff_prop) == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 8, 17, 64])
    def test_exact_scheme_is_step_count_independent(self, n_steps):
        kernel = contract_chain(DiscretizedChain(n_steps, 1.0, 1.0))
        assert abs(kernel.coeff_prop) == pytest.approx(
            exact_kernel_coefficient(1.0, 1.0), abs=1e-13
        )

    def test_logs_extracted_coefficients(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="fermiosc.path_integral"):
            contract_chain(DiscretizedChain(4, 1.0, 1.0))
        assert any("coeff_prop" in record.message for record in caplog.records)

    def test_chain_cap(self):
        with pytest.raises(ValueError, match="capped"):
            contract_chain(DiscretizedChain(SYMBOLIC_CHAIN_CAP + 1, 1.0, 1.0))

    def test_parity_violating_kernel_rejected(self):
        chain = DiscretizedChain(1, 1.0, 1.0)
        lone = monomial(chain.registry, [chain.c_index(0)])
        with pytest.raises(ValueError, match="monomial"):
            PropagatorKernel.from_element(
                lone, chain.c_index(0), chain.c_index(1), chain.cstar_index(1)
            )


def test_three_slice_interior_reduces_to_two_monomials():
    # multiply three step kernels, integrate out both interior pairs
    chain = DiscretizedChain(3, 3.0, 1.0)
    lam = chain.step_coefficient
    element = one(chain.registry)
    for k in (1, 2, 3):
        element = mul(element, step_kernel(chain, k))
    for k in (1, 2):
        weight = add(
            one(chain.registry),
            monomial(
                chain.registry, [chain.cstar_index(k), chain.c_index(k)], -1.0
            ),
        )
        element = integrate_pair(
            mul(element, weight), chain.cstar_index(k), chain.c_index(k)
        )
    survivor = coefficient(element, [chain.cstar_index(3), chain.c_index(0)])
    assert element.scalar_part() == 1.0
    assert survivor == pytest.approx(lam**3, rel=1e-14)
    assert len(element.terms) == 2


class TestPaperFormKernel:
    def test_zero_beta_coefficients(self):
        kernel = kernel_paper_form(0.0, 1.0)
        assert (kernel.coeff_id, kernel.coeff_diag, kernel.coeff_prop) == (
            1.0,
            1.0,
            -1.0,
        )

    def test_propagation_coefficient(self):
        kernel = kernel_paper_form(math.log(2.0), 1.0)
        assert kernel.coeff_prop == pytest.approx(-0.5, rel=1e-15)

    def test_exponent_squares_to_zero(self):
        kernel = kernel_paper_form(1.0, 1.0)
        registry = kernel.element.registry
        exponent = add(
            monomial(registry, [kernel.g_cb_star, kernel.g_cb], 1.0),
            monomial(
                registry, [kernel.g_cb_star, kernel.g_c0], -math.exp(-1.0)
            ),
        )
        assert mul(exponent, exponent).is_zero


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

    def test_foreign_generators_rejected(self):
        chain = DiscretizedChain(2, 1.0, 1.0)
        element = add(
            one(chain.registry),
            monomial(
                chain.registry, [chain.cstar_index(2), chain.c_index(1)], 0.5
            ),
        )
        bad = PropagatorKernel(
            element=element,
            g_c0=chain.c_index(0),
            g_cb=chain.c_index(2),
            g_cb_star=chain.cstar_index(2),
            coeff_id=1.0,
            coeff_diag=0.0,
            coeff_prop=0.0,
        )
        with pytest.raises(ValueError, match="boundary"):
            close_boundary(bad, AP)


def test_paper_normalized_pins_coefficients():
    kernel = contract_chain(DiscretizedChain(4, 1.0, 1.0))
    fixed = paper_normalized(kernel)
    assert fixed.coeff_id == 1.0
    assert fixed.coeff_diag == 1.0
    assert fixed.coeff_prop == -kernel.coeff_prop


class TestActionMatrix:
    def test_structure(self):
        chain = DiscretizedChain(4, 1.0, 1.0)
        m = action_matrix(chain, AP)
        lam = chain.step_coefficient
        assert np.array_equal(np.diag(m), np.ones(4))
        assert np.array_equal(np.diag(m, k=-1), [-lam] * 3)
        assert m[0, 3] == lam

    def test_first_order_closed_form(self):
        chain = DiscretizedChain(2, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        from fermiosc.grassmann import determinant

        assert determinant(action_matrix(chain, AP)) == pytest.approx(1.25, abs=1e-15)

    @pytest.mark.parametrize("n_steps", [1, 3, 16])
    def test_exact_scheme_determinant(self, n_steps):
        z = partition_via_determinant(DiscretizedChain(n_steps, 1.0, 1.0), AP)
        assert z == pytest.approx(1.0 + math.exp(-1.0), rel=1e-14)

    def test_zero_mode_at_zero_beta(self):
        z = partition_via_determinant(DiscretizedChain(3, 0.0, 1.0), P)
        assert z == 0.0

    def test_first_order_four_steps(self):
        chain = DiscretizedChain(4, 1.0, 1.0, SliceScheme.FIRST_ORDER)
        assert partition_via_determinant(chain, AP) == 1.31640625
        assert partition_via_determinant(chain, P) == 0.68359375


class TestConvergenceSweep:
    def test_exact_scheme_errors_vanish(self):
        for bc in (AP, P):
            points = convergence_sweep(1.0, 1.0, list(range(1, 65)), SliceScheme.EXACT, bc)
            assert max(p.abs_error for p in points) <= 1e-12

    def test_first_order_halves_error_per_doubling(self):
        # O(N^3) determinants up to N = 128 keep this out of the selftest catalogue
        def ratio_defect(bc):
            points = convergence_sweep(1.0, 1.0, [32, 64, 128], SliceScheme.FIRST_ORDER, bc)
            errors = [p.abs_error for p in points]
            return max(abs(a / b - 2.0) for a, b in zip(errors, errors[1:]))

        result = Invariant(
            "step-count-convergence", "|error ratio - 2| per doubling", (AP, P), 0.2,
            ratio_defect,
        ).check()
        print(result.verdict())
        assert result.passed, result.detail

    def test_zero_beta_is_flat(self):
        points = convergence_sweep(0.0, 1.0, [1, 2, 4, 8], SliceScheme.EXACT, AP)
        assert all(p.z_value == 2.0 for p in points)

    def test_validates_step_list(self):
        with pytest.raises(ValueError):
            convergence_sweep(1.0, 1.0, [], SliceScheme.EXACT, AP)
        with pytest.raises(ValueError):
            convergence_sweep(1.0, 1.0, [4, 2], SliceScheme.EXACT, AP)


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
    symbolic = close_boundary(paper_normalized(contract_chain(chain)), bc)
    direct = partition_via_determinant(chain, bc)
    assert abs(symbolic - direct) <= 1e-10


@pytest.mark.parametrize("bc", [AP, P])
@pytest.mark.parametrize("beta,omega", [(0.1, 2.0), (1.0, 1.0), (2.0, 0.5)])
def test_symbolic_route_matches_closed_form(beta, omega, bc):
    chain = DiscretizedChain(6, beta, omega)
    z = close_boundary(paper_normalized(contract_chain(chain)), bc)
    assert z == pytest.approx(closed_form_partition(beta, omega, bc), abs=1e-13)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fermiosc
from fermiosc import oscillator
from fermiosc.oscillator import (
    BoundaryCondition,
    closed_form_partition,
    density_matrix,
    hamiltonian,
    ladder_matrices,
    number_operator,
    parity_operator,
    partition_trace,
    supertrace,
    validate_point,
)
from fermiosc.selftest import _GRID as GRID

betas = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)
omegas = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)


def test_ladder_entries():
    c_dag, c = ladder_matrices()
    assert np.array_equal(c_dag, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(c, [[0.0, 0.0], [1.0, 0.0]])


def test_number_operator_projects_occupied_state():
    # occupied state first in the basis ordering, so N = diag(1, 0)
    assert np.array_equal(number_operator(), np.diag([1.0, 0.0]))


def test_operators_follow_the_ladder_basis(monkeypatch):
    # ladder_matrices is the one statement of the basis: swap its pair, and n, P, H
    # and rho follow it into the empty-first basis
    c_dag, c = ladder_matrices()
    monkeypatch.setattr(oscillator, "ladder_matrices", lambda: (c, c_dag))
    assert np.array_equal(number_operator(), np.diag([0.0, 1.0]))
    assert np.array_equal(parity_operator(), np.diag([1.0, -1.0]))
    assert np.array_equal(hamiltonian(2.0), np.diag([0.0, 2.0]))
    assert np.array_equal(density_matrix(1.0, 2.0), np.diag([1.0, math.exp(-2.0)]))


def test_parity_flips_occupied_state():
    assert np.array_equal(parity_operator(), np.diag([-1.0, 1.0]))


@pytest.mark.parametrize("omega", [1.0, 2.0])
def test_hamiltonian_spectrum(omega):
    h = hamiltonian(omega)
    assert sorted(np.linalg.eigvalsh(h)) == pytest.approx([0.0, omega])
    assert np.trace(h) == omega


@pytest.mark.parametrize(
    "point",
    [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, -math.inf),
     (1.0, math.inf), (1.0, 0.0), (1.0, -1.0), (1.0, 1.0, 0), (1.0, 1.0, 9.5),
     (1.0, 1.0, math.inf), (1.0, 1.0, math.nan), (1.0, 1.0, 10**400)],
)
def test_validate_point_refuses(point):
    with pytest.raises(ValueError):
        validate_point(*point)
    if len(point) == 2:  # the closed form checks its own point
        for bc in BoundaryCondition:
            with pytest.raises(ValueError):
                closed_form_partition(*point, bc)


def test_validate_point_accepts_the_domain():
    for point in [(0.0, 1e-300), (1e300, 1e300), (1.0, 1.0, 1), (1.0, 1.0, np.int64(8))]:
        validate_point(*point)


def test_hamiltonian_rejects_bad_frequency():
    with pytest.raises(ValueError):
        hamiltonian(0.0)
    with pytest.raises(ValueError):
        hamiltonian(-1.0)


def test_density_matrix_infinite_temperature():
    assert np.array_equal(density_matrix(0.0, 1.0), np.eye(2))


def test_density_matrix_ground_state_limit():
    rho = density_matrix(500.0, 1.0)
    assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-200)


def test_density_matrix_boltzmann_weight():
    rho = density_matrix(1.0, 1.0)
    assert np.array_equal(rho, np.diag([math.exp(-1.0), 1.0]))


def test_density_matrix_preconditions():
    with pytest.raises(ValueError):
        density_matrix(-0.1, 1.0)
    with pytest.raises(ValueError):
        density_matrix(1.0, 0.0)


def test_partition_trace_endpoints():
    assert partition_trace(density_matrix(0.0, 1.0)) == 2.0
    assert partition_trace(density_matrix(1.0, 1.0)) == pytest.approx(
        1.0 + math.exp(-1.0), rel=1e-15
    )
    assert partition_trace(density_matrix(800.0, 1.0)) == 1.0


def test_supertrace_endpoints():
    assert supertrace(density_matrix(0.0, 1.0)) == 0.0
    assert supertrace(density_matrix(1.0, 1.0)) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-15
    )
    assert supertrace(density_matrix(800.0, 1.0)) == 1.0


@pytest.mark.parametrize("beta,omega", GRID)
def test_closed_forms_on_grid(beta, omega):
    # Tr rho is the closed form's Z- to the bit, which ties the operator algebra to the
    # value route-relative-accuracy holds to 1e-15; Str rho cancels digits at small
    # beta*omega, so it meets Z+ = 1 - e^{-beta*omega} only to a relative tolerance
    assert partition_trace(density_matrix(beta, omega)) == closed_form_partition(
        beta, omega, BoundaryCondition.ANTIPERIODIC
    )
    assert supertrace(density_matrix(beta, omega)) == pytest.approx(
        1.0 - math.exp(-beta * omega), rel=1e-14
    )


@given(betas, omegas, betas)
def test_density_semigroup(beta_1, omega, beta_2):
    combined = density_matrix(beta_1 + beta_2, omega)
    product = density_matrix(beta_1, omega) @ density_matrix(beta_2, omega)
    assert np.max(np.abs(combined - product)) <= 1e-14


def test_oscillator_owns_the_boundary_condition():
    assert fermiosc.path_integral.BoundaryCondition is BoundaryCondition

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fermiosc
from fermiosc.oscillator import (
    BoundaryCondition,
    ThermalPoint,
    density_matrix,
    hamiltonian,
    ladder_matrices,
    number_operator,
    parity_operator,
    partition_trace,
    supertrace,
    thermal_observables,
    validate_point,
)

GRID = [(b, w) for b in (0.1, 0.5, 1.0, 2.0, 5.0) for w in (0.5, 1.0, 2.0)]

betas = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)
omegas = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)


def test_ladder_entries():
    c_dag, c = ladder_matrices()
    assert np.array_equal(c_dag, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(c, [[0.0, 0.0], [1.0, 0.0]])


def test_number_operator_projects_occupied_state():
    # occupied state first in the basis ordering, so N = diag(1, 0)
    assert np.array_equal(number_operator(), np.diag([1.0, 0.0]))


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
     (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)],
)
def test_validate_point_refuses(point):
    with pytest.raises(ValueError):
        validate_point(*point)


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
    rho = density_matrix(beta, omega)
    q = math.exp(-beta * omega)
    assert partition_trace(rho) == pytest.approx(1.0 + q, rel=1e-14)
    assert supertrace(rho) == pytest.approx(1.0 - q, rel=1e-14)
    assert partition_trace(rho) + supertrace(rho) == pytest.approx(2.0, abs=1e-14)


@given(betas, omegas, betas)
def test_density_semigroup(beta_1, omega, beta_2):
    combined = density_matrix(beta_1 + beta_2, omega)
    product = density_matrix(beta_1, omega) @ density_matrix(beta_2, omega)
    assert np.max(np.abs(combined - product)) <= 1e-14


def test_mean_energy_value():
    point = thermal_observables(1.0, 1.0)
    q = math.exp(-1.0)
    assert point.mean_energy == pytest.approx(q / (1.0 + q), rel=1e-14)


def test_ground_state_observables():
    point = thermal_observables(60.0, 1.0)
    assert abs(point.mean_energy) < 1e-20
    assert abs(point.entropy) < 1e-20


@given(betas, omegas)
def test_thermal_point_internal_consistency(beta, omega):
    point = thermal_observables(beta, omega)
    assert point.z_minus == pytest.approx(partition_trace(density_matrix(beta, omega)))
    assert point.free_energy == pytest.approx(-math.log(point.z_minus) / beta)
    assert point.entropy >= 0.0
    # S = beta * (<E> - F) by construction
    assert point.entropy == pytest.approx(
        beta * (point.mean_energy - point.free_energy), abs=1e-12
    )


@pytest.mark.parametrize("beta", [1e-310, 5e-324])
def test_entropy_at_subnormal_beta_is_ln2(beta):
    # S = beta<E> + ln Z- never forms ln(Z-)/beta, so S is ln 2 at beta = 1e-300;
    # at subnormal beta F = -ln(Z-)/beta itself overflows and the record is refused
    entropy = thermal_observables(1e-300, 1.0).entropy
    assert abs(entropy - math.log(2.0)) <= 1e-15 * math.log(2.0)
    with pytest.raises(ArithmeticError, match="free_energy"):
        thermal_observables(beta, 1.0)


def test_thermal_observables_preconditions():
    with pytest.raises(ValueError):
        thermal_observables(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_observables(1.0, -2.0)


def test_thermal_point_rejects_inconsistent_record():
    records = [
        ((1.0, 1.0, 2.5, 0.5, 0.0, 0.0, 0.0), ValueError, "partition"),  # z_minus outside (1, 2)
        ((1.0, 1.0, 1.5, 0.5, math.nan, math.inf, 0.1), ArithmeticError, "free_energy"),
    ]
    for fields, error, message in records:
        with pytest.raises(error, match=message):
            ThermalPoint(*fields)


def test_oscillator_owns_the_boundary_condition():
    assert fermiosc.path_integral.BoundaryCondition is BoundaryCondition


def test_package_exports_each_name_once():
    assert len(fermiosc.__all__) == len(set(fermiosc.__all__))

"""Exact two-level operator oracle for the fermionic harmonic oscillator.

Everything here is closed-form 2x2 linear algebra in the basis (|1>, |0>),
the ordering in which the thermal density matrix reads diag(e^{-beta*omega}, 1).
These values serve as ground truth for the path-integral routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ThermalPoint",
    "ladder_matrices",
    "number_operator",
    "parity_operator",
    "hamiltonian",
    "density_matrix",
    "partition_trace",
    "supertrace",
    "exact_kernel_coefficient",
    "thermal_observables",
    "validate_point",
]


def validate_point(beta: float, omega: float, n_steps: int | None = None) -> None:
    """Refuse a (beta, omega, N) point outside the physical domain.

    beta must be finite and nonnegative, omega finite and positive, and
    n_steps, when given, at least 1; anything else raises ValueError.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega!r}")
    if n_steps is not None and n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps!r}")


@dataclass(frozen=True)
class ThermalPoint:
    """Thermal-equilibrium record at one (beta, omega) point (hbar = k_B = 1)."""

    beta: float
    omega: float
    z_minus: float
    z_plus: float
    free_energy: float
    mean_energy: float
    entropy: float

    def __post_init__(self) -> None:
        if not (self.beta > 0 and self.omega > 0):
            raise ValueError("ThermalPoint requires beta > 0 and omega > 0")
        # open intervals mathematically, but float rounding reaches the
        # endpoints once beta*omega exceeds ~37
        if not (1.0 <= self.z_minus <= 2.0 and 0.0 <= self.z_plus <= 1.0):
            raise ValueError("partition values outside their physical ranges")
        if self.entropy < 0:
            raise ValueError("negative entropy")


def ladder_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Creation and annihilation matrices (c_dagger, c) in the (|1>, |0>) basis."""
    c_dagger = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = np.array([[0.0, 0.0], [1.0, 0.0]])
    return c_dagger, c


def number_operator() -> np.ndarray:
    c_dagger, c = ladder_matrices()
    return c_dagger @ c


def parity_operator() -> np.ndarray:
    """(-1)^N, realized as diag(-1, 1) in the (|1>, |0>) basis."""
    return np.diag([-1.0, 1.0])


def hamiltonian(omega: float) -> np.ndarray:
    """omega * c_dagger c, with eigenvalues {0, omega}."""
    validate_point(0.0, omega)
    return omega * number_operator()


def density_matrix(beta: float, omega: float) -> np.ndarray:
    """Unnormalized thermal operator exp(-beta H): diag(e^{-beta*omega}, 1)."""
    validate_point(beta, omega)
    return np.diag([math.exp(-beta * omega), 1.0])


def partition_trace(rho: np.ndarray) -> float:
    """Sum of diagonal entries; the fermionic partition function 1 + e^{-beta*omega}."""
    return float(np.trace(rho))


def supertrace(rho: np.ndarray) -> float:
    """Parity-weighted trace Tr[(-1)^N rho]; equals 1 - e^{-beta*omega}."""
    return float(np.trace(parity_operator() @ rho))


def exact_kernel_coefficient(beta: float, omega: float) -> float:
    """Magnitude of the propagating term of the boundary kernel: e^{-beta*omega}."""
    validate_point(beta, omega)
    return math.exp(-beta * omega)


def thermal_observables(beta: float, omega: float) -> ThermalPoint:
    """Canonical-ensemble observables from the closed-form partition functions.

    F = -ln(Z-)/beta, <E> = omega e^{-beta*omega}/(1 + e^{-beta*omega}),
    S = beta(<E> - F).
    """
    validate_point(beta, omega)
    if beta == 0:
        raise ValueError("observables need beta > 0")
    boltzmann = math.exp(-beta * omega)
    z_minus = 1.0 + boltzmann
    z_plus = -math.expm1(-beta * omega) + 0.0  # + 0.0: never -0.0
    free_energy = -math.log(z_minus) / beta
    mean_energy = omega * boltzmann / z_minus
    entropy = beta * (mean_energy - free_energy)
    return ThermalPoint(
        beta=beta,
        omega=omega,
        z_minus=z_minus,
        z_plus=z_plus,
        free_energy=free_energy,
        mean_energy=mean_energy,
        entropy=entropy,
    )

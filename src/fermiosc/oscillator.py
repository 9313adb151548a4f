"""Exact two-level operator oracle for the fermionic harmonic oscillator.

Everything here is closed-form 2x2 linear algebra in the basis (|1>, |0>),
the ordering in which the thermal density matrix reads diag(e^{-beta*omega}, 1).
These values serve as ground truth for the path-integral routes.  The
module owns Z-+: the trace/supertrace choice (BoundaryCondition), the
closed form 1 +- e^{-beta*omega} and the oracle value, oracle_partition.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BoundaryCondition",
    "ThermalPoint",
    "ladder_matrices",
    "number_operator",
    "parity_operator",
    "hamiltonian",
    "density_matrix",
    "density_matrix_expm1",
    "partition_trace",
    "supertrace",
    "closed_form_partition",
    "oracle_partition",
    "thermal_observables",
    "validate_point",
]


class BoundaryCondition(enum.Enum):
    """Closure of the Euclidean time circle: c(0) = -c(beta) or c(0) = +c(beta)."""

    ANTIPERIODIC = "antiperiodic"
    PERIODIC = "periodic"


def validate_point(beta: float, omega: float, n_steps: int | None = None) -> None:
    """Refuse a (beta, omega, N) point outside the physical domain.

    beta must be finite and nonnegative, omega finite and positive, and
    n_steps, when given, an integer >= 1; anything else raises ValueError.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega!r}")
    if n_steps is not None:
        try:
            n_steps = operator.index(n_steps)  # a numpy integer passes
        except TypeError:  # a float, even 9.0, inf or nan
            raise ValueError(f"n_steps must be an integer, got {n_steps!r}") from None
        if n_steps < 1:
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
        bad = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if bad:  # an overflow, as in the engine and the determinant
            raise ArithmeticError(f"ThermalPoint fields not finite: {', '.join(bad)}")
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
    import numpy as np

    c_dagger = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = np.array([[0.0, 0.0], [1.0, 0.0]])
    return c_dagger, c


def number_operator() -> np.ndarray:
    c_dagger, c = ladder_matrices()
    return c_dagger @ c


def parity_operator() -> np.ndarray:
    """(-1)^N, realized as diag(-1, 1) in the (|1>, |0>) basis."""
    import numpy as np

    return np.diag([-1.0, 1.0])


def hamiltonian(omega: float) -> np.ndarray:
    """omega * c_dagger c, with eigenvalues {0, omega}."""
    validate_point(0.0, omega)
    return omega * number_operator()


def density_matrix(beta: float, omega: float) -> np.ndarray:
    """Unnormalized thermal operator exp(-beta H): diag(e^{-beta*omega}, 1)."""
    import numpy as np

    validate_point(beta, omega)
    return np.diag([math.exp(-beta * omega), 1.0])


def density_matrix_expm1(beta: float, omega: float) -> np.ndarray:
    """D = exp(-beta H) - I = diag(expm1(-beta*omega), 0), formed without subtraction.

    Since Str I = 0, supertrace(D) is 1 - e^{-beta*omega} to full relative
    accuracy where supertrace(density_matrix(...)) cancels at small beta*omega.
    """
    import numpy as np

    validate_point(beta, omega)
    return np.diag([math.expm1(-beta * omega), 0.0])


def partition_trace(rho: np.ndarray) -> float:
    """Sum of diagonal entries; the fermionic partition function 1 + e^{-beta*omega}."""
    return float(rho.trace())


def supertrace(rho: np.ndarray) -> float:
    """Parity-weighted trace Tr[(-1)^N rho]; equals 1 - e^{-beta*omega}."""
    return float((parity_operator() @ rho).trace())


def closed_form_partition(beta: float, omega: float, bc: BoundaryCondition) -> float:
    """1 + e^{-beta*omega} (antiperiodic) or 1 - e^{-beta*omega} (periodic)."""
    if bc is BoundaryCondition.ANTIPERIODIC:
        return 1.0 + math.exp(-beta * omega)
    return -math.expm1(-beta * omega) + 0.0  # + 0.0: never -0.0


def oracle_partition(beta: float, omega: float, bc: BoundaryCondition) -> float:
    """Tr rho, or Str D with D = rho - I (Str I = 0), so no digits cancel."""
    if bc is BoundaryCondition.ANTIPERIODIC:
        return partition_trace(density_matrix(beta, omega))
    return supertrace(density_matrix_expm1(beta, omega))


def thermal_observables(beta: float, omega: float) -> ThermalPoint:
    """Canonical-ensemble observables from the closed-form partition functions.

    F = -ln(Z-)/beta, <E> = omega e^{-beta*omega}/(1 + e^{-beta*omega}),
    S = beta<E> + ln(Z-), which equals beta(<E> - F) without forming ln(Z-)/beta.
    An F that overflows (beta below about 3.9e-309) raises ArithmeticError.
    """
    validate_point(beta, omega)
    if beta == 0:
        raise ValueError("observables need beta > 0")
    z_minus = closed_form_partition(beta, omega, BoundaryCondition.ANTIPERIODIC)
    z_plus = closed_form_partition(beta, omega, BoundaryCondition.PERIODIC)
    log_z = math.log(z_minus)
    mean_energy = omega * math.exp(-beta * omega) / z_minus
    free_energy = -log_z / beta
    entropy = beta * mean_energy + log_z
    return ThermalPoint(
        beta=beta,
        omega=omega,
        z_minus=z_minus,
        z_plus=z_plus,
        free_energy=free_energy,
        mean_energy=mean_energy,
        entropy=entropy,
    )

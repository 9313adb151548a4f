"""Two-level operator algebra for the fermionic harmonic oscillator.

Everything here is closed-form 2x2 linear algebra.  ``ladder_matrices``
states the basis, occupied first (|1>, |0>); the number operator n, the
parity P, the Hamiltonian H and the thermal density matrix rho are derived
from it, so in that basis rho reads diag(e^{-beta*omega}, 1).
The module owns Z-+: the trace/supertrace choice (BoundaryCondition) and
the continuum closed form 1 +- e^{-beta*omega} (closed_form_partition),
which equals Tr rho and Str rho and is the ground truth for the
path-integral routes.
"""

from __future__ import annotations

import enum
import math
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BoundaryCondition",
    "ladder_matrices",
    "number_operator",
    "parity_operator",
    "hamiltonian",
    "density_matrix",
    "partition_trace",
    "supertrace",
    "closed_form_partition",
    "validate_point",
]


class BoundaryCondition(enum.Enum):
    """Closure of the Euclidean time circle: c(0) = -c(beta) or c(0) = +c(beta)."""

    ANTIPERIODIC = "antiperiodic"
    PERIODIC = "periodic"


def _bc_sign(bc: BoundaryCondition) -> float:
    """+1.0 (antiperiodic) or -1.0 (periodic): the sign of e^{-beta*omega} in Z-+.

    Anything but a member, such as the string "antiperiodic", raises ValueError.
    """
    if bc is BoundaryCondition.ANTIPERIODIC:
        return 1.0
    if bc is BoundaryCondition.PERIODIC:
        return -1.0
    raise ValueError(f"bc must be a BoundaryCondition, got {bc!r}")


def validate_point(beta: float, omega: float, n_steps: int | None = None) -> None:
    """Refuse a (beta, omega, N) point outside the physical domain.

    beta must be finite and nonnegative, omega finite and positive, and
    n_steps, when given, an integer >= 1 that a float can hold; anything
    else raises ValueError.
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
        try:
            float(n_steps)  # epsilon = beta / N needs N as a float
        except OverflowError:
            raise ValueError("n_steps must be within the float range") from None


def ladder_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Creation and annihilation matrices (c_dagger, c) in the (|1>, |0>) basis."""
    import numpy as np

    c_dagger = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = np.array([[0.0, 0.0], [1.0, 0.0]])
    return c_dagger, c


def number_operator() -> np.ndarray:
    """n = c_dagger c, the projector onto the occupied state."""
    c_dagger, c = ladder_matrices()
    return c_dagger @ c


def parity_operator() -> np.ndarray:
    """(-1)^n = 1 - 2n, exact since n^2 = n."""
    import numpy as np

    return np.eye(2) - 2.0 * number_operator()


def hamiltonian(omega: float) -> np.ndarray:
    """omega * c_dagger c, with eigenvalues {0, omega}."""
    validate_point(0.0, omega)
    return omega * number_operator()


def density_matrix(beta: float, omega: float) -> np.ndarray:
    """Unnormalized thermal operator exp(-beta H) = e^{-beta*omega} n + (1 - n), as n^2 = n."""
    import numpy as np

    validate_point(beta, omega)
    n = number_operator()
    return math.exp(-beta * omega) * n + (np.eye(2) - n)


def partition_trace(rho: np.ndarray) -> float:
    """Sum of diagonal entries; the fermionic partition function 1 + e^{-beta*omega}."""
    return float(rho.trace())


def supertrace(rho: np.ndarray) -> float:
    """Parity-weighted trace Tr[(-1)^N rho]; equals 1 - e^{-beta*omega}."""
    return float((parity_operator() @ rho).trace())


def closed_form_partition(beta: float, omega: float, bc: BoundaryCondition) -> float:
    """1 + e^{-beta*omega} (antiperiodic) or 1 - e^{-beta*omega} (periodic).

    A point that ``validate_point`` refuses, or a bc that is not a
    member, raises ValueError.
    """
    validate_point(beta, omega)
    if _bc_sign(bc) > 0.0:
        return 1.0 + math.exp(-beta * omega)
    return -math.expm1(-beta * omega) + 0.0  # + 0.0: never -0.0

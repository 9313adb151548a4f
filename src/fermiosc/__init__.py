"""Grassmann-variable partition functions for a two-level fermionic mode.

The package exposes three layers: a sparse symbolic engine for
anticommuting generators (`grassmann`), the 2x2 operator algebra of the
single fermionic oscillator with its closed-form partition functions
(`oscillator`), and a time-sliced evaluator that recovers the same
partition functions by contracting the discretized propagator chain or by
reducing its quadratic action to a determinant (`path_integral`).  A
fourth module, `selftest`, holds the invariant catalogue that
`fermiosc selftest` and pytest share.
"""

from . import grassmann, oscillator, path_integral, selftest
from .grassmann import *  # noqa: F401,F403
from .oscillator import *  # noqa: F401,F403
from .path_integral import *  # noqa: F401,F403
from .selftest import *  # noqa: F401,F403

__all__ = grassmann.__all__ + oscillator.__all__ + path_integral.__all__ + selftest.__all__

__version__ = "0.1.0"

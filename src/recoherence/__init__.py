"""Interference contrast of a driven charge in squeezed vacuum.

A charged particle sent around a closed loop radiates, and the which-path
record it imprints on the electromagnetic field suppresses its
interference contrast.  In vacuum that suppression is monotone.  In a
squeezed vacuum the suppression acquires an oscillatory piece in the
emission time, and timed right the squeezed contribution turns positive:
the field interferometrically *recohere*s part of what the vacuum term
destroys.  This package computes those contrast shifts.

Layout
------
``squeezed_state``
    Squeeze parametrisation, mode geometry, energy densities.
``trajectory``
    The smooth out-and-back loop arm and its kinematics.
``single_mode``
    Closed-form coherence shift of one squeezed mode: t0 dependence,
    emission window, windowed average, bounds, unitarity split.
``oracle_quadrature``
    Direct numerical double integral over the loop as an independent
    check of every closed form.
``multimode_band``
    Narrow-band continuum limit and the discrete mode-sum oracle.
``estimates``
    Order-of-magnitude ceilings for cavity and free-space scenarios.
``cli``
    The ``recoherence`` command line front end.

Natural units with hbar = c = 1 and Lorentz-Heaviside charges throughout;
the only dimensionful inputs are the trajectory and mode scales, and all
results are dimensionless contrast exponents.
"""

# each module's __all__ is its public API; the package re-exports all of them
from .constants import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimates import *  # noqa: F403
from .multimode_band import *  # noqa: F403
from .oracle_quadrature import *  # noqa: F403
from .single_mode import *  # noqa: F403
from .squeezed_state import *  # noqa: F403
from .trajectory import *  # noqa: F403
from . import constants, errors, estimates, multimode_band, oracle_quadrature
from . import single_mode, squeezed_state, trajectory

__version__ = "0.1.0"

__all__ = [
    name
    for module in (constants, errors, estimates, multimode_band, oracle_quadrature)
    + (single_mode, squeezed_state, trajectory)
    for name in module.__all__
] + ["__version__"]

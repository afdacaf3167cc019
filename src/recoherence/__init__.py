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

from .constants import E_SQUARED, FINE_STRUCTURE, SQUEEZE_CAP
from .errors import ConvergenceError, DomainError, RangeError
from .estimates import (
    CavityScenario,
    EmptySpaceScenario,
    cavity_estimate,
    cavity_estimate_exact,
    coupling_envelope,
    empty_space_estimate,
    locate_envelope_max,
)
from .multimode_band import (
    BandSpec,
    band_coherence_shift_exact,
    band_coherence_shift_leading,
    mode_sum_oracle,
)
from .oracle_quadrature import (
    QuadratureConfig,
    integrate_oscillatory,
    quad_coherence_shift,
    quad_coherence_shift_separable,
    quad_envelope,
    quad_vacuum_term,
)
from .single_mode import (
    CoherenceResult,
    EmissionWindow,
    UnitaritySplit,
    coherence_shift,
    emission_window,
    long_time_average,
    max_recoherence,
    mode_envelope,
    modulation,
    modulation_max,
    modulation_min,
    unitarity_sum,
    windowed_coherence_shift,
    windowed_modulation,
)
from .squeezed_state import (
    ModeSpec,
    SqueezeState,
    energy_density,
    mean_photon_number,
    total_energy,
)
from .trajectory import Trajectory

__version__ = "0.1.0"

__all__ = [
    "BandSpec",
    "CavityScenario",
    "CoherenceResult",
    "ConvergenceError",
    "DomainError",
    "E_SQUARED",
    "EmissionWindow",
    "EmptySpaceScenario",
    "FINE_STRUCTURE",
    "ModeSpec",
    "QuadratureConfig",
    "RangeError",
    "SQUEEZE_CAP",
    "SqueezeState",
    "Trajectory",
    "UnitaritySplit",
    "band_coherence_shift_exact",
    "band_coherence_shift_leading",
    "cavity_estimate",
    "cavity_estimate_exact",
    "coherence_shift",
    "coupling_envelope",
    "emission_window",
    "empty_space_estimate",
    "energy_density",
    "integrate_oscillatory",
    "locate_envelope_max",
    "long_time_average",
    "max_recoherence",
    "mean_photon_number",
    "mode_envelope",
    "mode_sum_oracle",
    "modulation",
    "modulation_max",
    "modulation_min",
    "quad_coherence_shift",
    "quad_coherence_shift_separable",
    "quad_envelope",
    "quad_vacuum_term",
    "total_energy",
    "unitarity_sum",
    "windowed_coherence_shift",
    "windowed_modulation",
    "__version__",
]

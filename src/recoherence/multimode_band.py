"""Coherence shift from a narrow band of squeezed modes.

Summing the single-mode result over every mode in a beam of solid angle
dOmega whose frequencies fill a top-hat band [center - hw, center + hw]
(all modes squeezed with the same r and theta), and trading the mode sum
for phase space via (1/V) * sum_k -> (dOmega/(2*pi)^3) * int domega omega^2,
gives the continuum shift

    W = -2*e^2 * (16*R/T^2)^2 * (dOmega/(2*pi)^3)
        * int_band domega  g(omega) * T^2 * j2(omega*T)^2 / omega,

where j2 is the spherical Bessel function (T^2*j2(x)^2/omega is the stable
form of (1/omega^3)*(sin x + 3*cos(x)/x - 3*sin(x)/x^2)^2 at x = omega*T)
and g is either the pointwise squeeze modulation at emission time t0 or
its window average.  For a narrow band the integral collapses to its
midpoint value, the leading-order formula; the difference shrinks
quadratically in the bandwidth.  A midpoint Riemann sum over n discrete
modes provides an independent oracle that converges to the same continuum
limit from the opposite (discrete) direction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import E_SQUARED
from .errors import DomainError, _finite_input
from .oracle_quadrature import QuadratureConfig, integrate_oscillatory
from .squeezed_state import SqueezeState
from .trajectory import Trajectory
from ._special import j2_over_x, phase_weight, windowed_phase_weight

#: fractional size above which "narrow" assumptions are flagged
_NARROW = 0.3

#: largest mode count of mode_sum_oracle (about 70 bytes of arrays a mode)
MAX_MODES = 10**7


@dataclass(frozen=True)
class BandSpec:
    """Top-hat frequency band of identically squeezed modes.

    Parameters
    ----------
    center : float
        Band-centre angular frequency; > 0.
    half_width : float
        Half the band width in angular frequency; 0 < half_width < center.
    solid_angle : float
        Solid angle of the mode beam in steradians.  Treated as small;
        values above a tenth of the full sphere are flagged with a warning
        (the phase-space replacement stays valid, the beam just is not a
        narrow pencil any more).
    """

    center: float
    half_width: float
    solid_angle: float

    def __post_init__(self) -> None:
        center = _finite_input("band centre", self.center, positive=True)
        half_width = _finite_input("band half-width", self.half_width, positive=True)
        solid_angle = _finite_input("solid angle", self.solid_angle, positive=True)
        if not half_width < center:
            raise DomainError(
                f"band half-width must be < center, got {half_width!r} "
                f"(center {center!r})"
            )
        if solid_angle > 0.4 * math.pi:
            warnings.warn(
                f"solid angle {solid_angle:g} sr is not small against the "
                "full sphere; the narrow-beam reading of the result degrades",
                stacklevel=2,
            )
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_width", half_width)
        object.__setattr__(self, "solid_angle", solid_angle)

    @property
    def edges(self) -> tuple[float, float]:
        return self.center - self.half_width, self.center + self.half_width

    @property
    def bandwidth_ratio(self) -> float:
        """Fractional half-width, half_width / center."""
        return self.half_width / self.center


def _phase_space_prefactor(band: BandSpec, traj: Trajectory) -> float:
    R, T = traj.apex, traj.half_time
    return (
        -2.0
        * E_SQUARED
        * (16.0 * R / T**2) ** 2
        * band.solid_angle
        / (2.0 * math.pi) ** 3
    )


def band_coherence_shift_exact(
    state: SqueezeState,
    band: BandSpec,
    traj: Trajectory,
    window_averaged: bool = True,
    t0: float = 0.0,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Continuum band shift with the frequency integral done numerically.

    With ``window_averaged`` the squeeze modulation is replaced by its
    window average (a constant over the band); otherwise the pointwise
    modulation at emission time ``t0`` is kept inside the integrand, each
    frequency contributing at its own phase 2*omega*t0 - theta.
    """
    t0 = _finite_input("emission time", t0)
    T = traj.half_time
    lo, hi = band.edges
    r, theta = state.r, state.theta

    if window_averaged:
        g_avg = windowed_phase_weight(r)

        def integrand(omega: np.ndarray) -> np.ndarray:
            s = j2_over_x(omega * T) * omega * T  # j2(omega*T) itself
            return g_avg * T * T * s * s / omega

        oscillations = 2.0 * band.half_width * T / math.pi
    else:

        def integrand(omega: np.ndarray) -> np.ndarray:
            s = j2_over_x(omega * T) * omega * T
            g = phase_weight(r, 2.0 * omega * t0 - theta)
            return g * T * T * s * s / omega

        oscillations = 2.0 * band.half_width * (T + abs(t0)) / math.pi

    integral = integrate_oscillatory(integrand, lo, hi, oscillations, cfg)
    return _phase_space_prefactor(band, traj) * integral


def band_coherence_shift_leading(
    state: SqueezeState, band: BandSpec, traj: Trajectory
) -> float:
    """Leading narrow-band shift: the midpoint value times the bandwidth.

        W = -e^2 * (R/T)^2 * g_avg * (dOmega/(2*pi)^3)
            * (32/(center^3*T^3))^2
            * ((center^2*T^2 - 3)*sin(center*T) + 3*center*T*cos(center*T))^2
            * (half_width/center),

    the square bracket being evaluated as 1024*j2(center*T)^2 times the
    remaining powers.  Relative deviation from the exact integral falls
    like the bandwidth ratio squared.  Emits warnings when the band is not
    actually narrow (half_width*T or half_width/center above 0.3).
    """
    T = traj.half_time
    if band.half_width * T > _NARROW:
        warnings.warn(
            f"half_width*T = {band.half_width * T:g} is not small; the "
            "leading-order band formula degrades",
            stacklevel=2,
        )
    if band.bandwidth_ratio > _NARROW:
        warnings.warn(
            f"half_width/center = {band.bandwidth_ratio:g} is not small; "
            "the leading-order band formula degrades",
            stacklevel=2,
        )
    x = band.center * T
    s = j2_over_x(x) * x  # j2(center*T)
    envelope = 1024.0 * s * s  # (32/x^3)^2 * bracket(x)^2
    return (
        -E_SQUARED
        * (traj.apex / T) ** 2
        * windowed_phase_weight(state.r)
        * band.solid_angle
        / (2.0 * math.pi) ** 3
        * envelope
        * band.bandwidth_ratio
    )


def mode_sum_oracle(
    state: SqueezeState,
    band: BandSpec,
    traj: Trajectory,
    n_modes: int,
    t0: float = 0.0,
) -> float:
    """Discrete mode-sum route to the t0-resolved band shift.

    Places ``n_modes`` modes at the midpoints of equal frequency cells
    across the band and adds their single-mode contributions, each with
    the phase-space cell weight (dOmega/(2*pi)^3) * omega^2 * cell_width
    standing in for 1/V.  Converges to the continuum integral as the cell
    count grows (midpoint-rule, error ~ 1/n_modes^2); with one mode it
    reproduces the single-mode shift at the band centre with the matched
    volume.
    """
    if int(n_modes) != n_modes or not 1 <= n_modes <= MAX_MODES:
        raise DomainError(
            f"n_modes must be an integer in [1, {MAX_MODES}], got {n_modes!r}"
        )
    t0 = _finite_input("emission time", t0)
    n = int(n_modes)
    T, R = traj.half_time, traj.apex
    r, theta = state.r, state.theta
    lo, _ = band.edges
    cell = 2.0 * band.half_width / n
    omegas = lo + (np.arange(n) + 0.5) * cell
    inv_volume = band.solid_angle / (2.0 * math.pi) ** 3 * omegas**2 * cell
    s = j2_over_x(omegas * T)
    envelope = 256.0 * R * R * s * s  # single-mode envelope M(omega)
    g = phase_weight(r, 2.0 * omegas * t0 - theta)
    # sum of single-mode shifts -(2 e^2 / (V omega)) g M, fixed index order
    contributions = -2.0 * E_SQUARED * inv_volume / omegas * g * envelope
    return float(np.sum(contributions))


__all__ = [
    "BandSpec",
    "band_coherence_shift_exact",
    "band_coherence_shift_leading",
    "mode_sum_oracle",
]

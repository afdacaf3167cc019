"""Decoherence and recoherence of the loop by one squeezed mode.

The interference contrast of a charged particle sent around the closed
loop formed by the two trajectory arms is Gamma = e^W, where W collects
the field-fluctuation contribution to the phase variance.  Splitting off
the vacuum part leaves the renormalized, state-dependent piece produced
by a single squeezed mode of frequency omega in volume V:

    W_R(t0) = -(8*pi*alpha / (V*omega)) * M * g(r, t0),

with t0 the emission (loop start) time and two cleanly separated factors:

* ``M`` is a positive envelope depending only on the trajectory and the
  mode frequency,

      M = (16*R/(omega^4*T^4))^2
          * ((omega^2*T^2 - 3)*sin(omega*T) + 3*omega*T*cos(omega*T))^2;

* ``g`` carries the entire squeeze and timing dependence,

      g(r, t0) = eta * (mu*cos(2*omega*t0 - theta) + eta),

  with mu = cosh r and eta = sinh r.

Because mu > eta, g dips negative on a window of emission times of width
arccos(tanh r)/omega: electrons launched inside that window *gain*
contrast relative to the vacuum (W_R > 0, recoherence).  Averaged over
its own window g lies in (-1/3, 0), which bounds the attainable windowed
recoherence by (8*pi*alpha/(3*V*omega))*M; adding the vacuum loss
-(4*pi*alpha/(V*omega))*M keeps the total negative, so no emission
strategy beats a fluctuation-free field.

The public functions take one state, mode and trajectory; the private closed
forms, and ``_table`` for a sweep and its range_error rows, take arrays too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import FINE_STRUCTURE
from .errors import _finite_input, _finite_result
from .squeezed_state import ModeSpec, SqueezeState
from .trajectory import Trajectory
from ._special import (
    _each,
    j2_over_x,
    phase_weight,
    phase_weight_max,
    phase_weight_min,
    window_half_angle,
    windowed_phase_weight,
)

#: largest argument of math.exp whose value is finite
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EmissionWindow:
    """Interval of emission times with negative modulation (recoherence).

    ``degenerate`` marks the r = 0 limit, where the modulation vanishes
    identically and the window collapses to its full-width limit
    pi/(2*omega) without strict interior negativity.
    """

    start: float
    end: float
    width: float
    degenerate: bool = False


@dataclass(frozen=True)
class CoherenceResult:
    """A coherence-functional contribution and its contrast factor."""

    value: float
    contrast_factor: float

    @property
    def is_recoherent(self) -> bool:
        """True when the contribution increases contrast (value > 0)."""
        return self.value > 0.0


class UnitaritySplit(NamedTuple):
    """Vacuum loss, best-case squeezed gain, and their (negative) total."""

    vacuum: float
    max_shift: float
    total: float


def mode_envelope(mode: ModeSpec, traj: Trajectory) -> float:
    """Positive envelope M of the single-mode coherence shift.

    M = (16*R/(omega^4*T^4))^2
        * ((omega^2*T^2 - 3)*sin(omega*T) + 3*omega*T*cos(omega*T))^2,

    evaluated in the cancellation-free form (16*R*j2(omega*T)/(omega*T))^2.
    Depends only on trajectory and frequency, never on the squeeze or the
    emission time; vanishes at the zeros of j2 and opens quadratically,
    M -> (256/225)*R^2*omega^2*T^2, for omega*T -> 0.
    """
    return _checked_envelope(mode.omega, traj)


def _envelope(s, apex):
    """M = (16*R*s)^2 at s = j2(omega*T)/(omega*T), scalars or arrays: squared
    as one amplitude, so M is inf only where M itself overflows."""
    amplitude = 16.0 * (apex * s)
    return amplitude * amplitude


def _checked_envelope(omega, traj: Trajectory):
    """M of one trajectory at a scalar or an array omega; RangeError once an
    M leaves double precision."""
    if isinstance(omega, float):
        s = j2_over_x(omega * traj.half_time)
        return _finite_result(_envelope(s, traj.apex), "mode envelope")
    with np.errstate(over="ignore"):
        m = _envelope(j2_over_x(omega * traj.half_time), traj.apex)
    _finite_result(m.max(), "mode envelope")  # M >= 0: the largest decides
    return m


def _mode_shift(omega, volume, traj: Trajectory):
    """-(8*pi*alpha/(V*omega)) * M of one trajectory at a scalar or an array
    omega, for the closed forms, the band and the estimates."""
    return _per_mode(omega, volume, _checked_envelope(omega, traj))


def _per_mode(omega, volume, envelope):
    """-(8*pi*alpha/(V*omega)) * M at scalars or arrays: the one place it is."""
    return -8.0 * math.pi * FINE_STRUCTURE / (volume * omega) * envelope


def _max_shift(omega, volume, envelope):
    """(8*pi*alpha/(3*V*omega)) * M, the windowed supremum, scalars or arrays."""
    return 8.0 * math.pi * FINE_STRUCTURE / (3.0 * volume * omega) * envelope


def modulation(state: SqueezeState, mode: ModeSpec, t0: float) -> float:
    """Squeeze modulation g = eta*(mu*cos(2*omega*t0 - theta) + eta).

    Ranges over [modulation_min, modulation_max] as t0 varies; negative
    values mark emission times at which the mode *restores* contrast.
    RangeError when the emission phase leaves double precision.
    """
    t0 = _finite_input("emission time", t0)
    return _modulation(state.r, state.theta, mode.omega, t0)


def _modulation(r, theta, omega, t0):
    """g at emission time t0 for scalars or arrays that broadcast.  A scalar
    phase outside double precision raises RangeError, an array one gives
    nan.  A finite phase past 2^53 rad keeps no fractional digits, so g
    there is rounding noise."""
    phase = _emission_phase(theta, omega, t0)
    if isinstance(phase, float):
        _finite_result(phase, "emission phase")
    return phase_weight(r, phase)


def _emission_phase(theta, omega, t0):
    """2*omega*t0 - theta, scalars or arrays: the one place it is written."""
    return 2.0 * omega * t0 - theta


def modulation_min(state: SqueezeState) -> float:
    """Most negative modulation eta*(eta - mu) = -(1 - e^{-2r})/2 in (-1/2, 0]."""
    return phase_weight_min(state.r)


def modulation_max(state: SqueezeState) -> float:
    """Largest modulation eta*(eta + mu) = (e^{2r} - 1)/2."""
    return phase_weight_max(state.r)


def coherence_shift(
    state: SqueezeState, mode: ModeSpec, traj: Trajectory, t0: float
) -> CoherenceResult:
    """Single-mode coherence shift W_R at emission time t0.

    W_R = -(8*pi*alpha/(V*omega)) * M * eta*(mu*cos(2*omega*t0 - theta) + eta).

    Returns the shift together with its contrast factor e^{W_R}; the shift
    is positive (recoherence) exactly when the modulation is negative.
    """
    value = _finite_result(
        _mode_shift(mode.omega, mode.volume, traj) * modulation(state, mode, t0),
        "coherence shift",
    )
    return CoherenceResult(
        value=value,
        contrast_factor=_finite_result(_contrast(value), "contrast factor"),
    )


def _contrast(value: float) -> float:
    """e^W, inf past double precision (``math.exp``: numpy's moves some bits)."""
    return math.exp(value) if value <= _LOG_MAX else math.inf


def long_time_average(
    state: SqueezeState, mode: ModeSpec, traj: Trajectory
) -> float:
    """Emission-time average of the shift: -(8*pi*alpha/(V*omega))*M*sinh(r)^2.

    The oscillatory part of the modulation averages away, leaving a value
    that is always <= 0 (zero only for r = 0 or at envelope zeros): with no
    control over the emission time, squeezing only ever deepens decoherence.
    """
    eta = state.eta
    return _finite_result(
        _mode_shift(mode.omega, mode.volume, traj) * eta * eta,
        "long-time average shift",
    )


def emission_window(state: SqueezeState, mode: ModeSpec) -> EmissionWindow:
    """Principal interval of emission times with negative modulation.

    The modulation is negative while cos(2*omega*t0 - theta) < -tanh(r),
    i.e. on a window centred at t0 = (pi + theta)/(2*omega) of width
    arccos(tanh r)/omega, which shrinks from pi/(2*omega) at r = 0 like
    (2/omega)*e^{-r} for large r.  At r = 0 the modulation vanishes
    identically; the full-width window is returned with ``degenerate=True``.
    """
    half = _window_half_width(state.r, mode.omega)
    centre = (math.pi + state.theta) / (2.0 * mode.omega)
    return EmissionWindow(
        start=centre - half,
        end=centre + half,
        width=2.0 * half,
        degenerate=(state.r == 0.0),
    )


def _window_half_width(r, omega):
    """arccos(tanh r)/(2*omega), half the window width; scalars or arrays."""
    return _each(window_half_angle, r) / (2.0 * omega)


def windowed_modulation(state: SqueezeState) -> float:
    """Average of the modulation over its own negative window.

    Equals sinh(r)^2 - sinh(r)/arccos(tanh r), evaluated stably; lies in
    (-1/3, 0) for r > 0, behaves as -(2/pi)*r for small r and saturates
    at -1/3 from above as r -> infinity.  Returns 0 at r = 0.
    """
    return windowed_phase_weight(state.r)


def windowed_coherence_shift(
    state: SqueezeState, mode: ModeSpec, traj: Trajectory
) -> float:
    """Coherence shift averaged over the recoherence window.

    -(8*pi*alpha/(V*omega)) * M * windowed_modulation(state); non-negative,
    and bounded by max_recoherence because the windowed modulation never
    drops below -1/3.
    """
    return _finite_result(
        _mode_shift(mode.omega, mode.volume, traj) * windowed_modulation(state),
        "windowed coherence shift",
    )


def max_recoherence(mode: ModeSpec, traj: Trajectory) -> float:
    """Supremum (8*pi*alpha/(3*V*omega))*M of the windowed coherence shift.

    Approached, never attained, as r -> infinity; independent of the
    squeeze state by construction.
    """
    return _finite_result(
        _max_shift(mode.omega, mode.volume, mode_envelope(mode, traj)),
        "max recoherence bound",
    )


def unitarity_sum(mode: ModeSpec, traj: Trajectory) -> UnitaritySplit:
    """Vacuum loss of the same mode plus the best-case squeezed gain.

    The vacuum term is w0 = -(4*pi*alpha/(V*omega))*M; adding the windowed
    supremum (8*pi*alpha/(3*V*omega))*M leaves

        total = -(4*pi*alpha/(3*V*omega))*M < 0:

    recoherence can win back at most two thirds of the vacuum loss, so the
    combined contrast factor never exceeds one.
    """
    # halving is exact, so this is -(4*pi*alpha/(V*omega))*M to the bit
    vacuum = _finite_result(
        0.5 * _mode_shift(mode.omega, mode.volume, traj), "vacuum coherence loss"
    )
    max_shift = max_recoherence(mode, traj)
    return UnitaritySplit(
        vacuum=vacuum, max_shift=max_shift, total=vacuum + max_shift
    )


def _table(r, theta, omega, volume, apex, t0) -> dict:
    """The sweep's columns at arrays that broadcast (T = 1), and ``refused``.

    Each factor takes the shape of the inputs it depends on, and the bits of
    the scalar functions above (kernels of r run per value, j2 as one array).
    ``refused`` marks the cells they refuse with RangeError: a volume not a
    positive double, or a w_r = shift * g or contrast factor inf or nan (w_r
    is not finite wherever the envelope M or the phase in g is not)."""
    with np.errstate(all="ignore"):
        envelope = _envelope(j2_over_x(omega), apex)
        shift = _per_mode(omega, volume, envelope)
        g = _modulation(r, theta, omega, t0)
        g_avg = _each(windowed_phase_weight, r)
        w_r_max = _max_shift(omega, volume, envelope)
        w_r = shift * g
        contrast_factor = _each(_contrast, w_r)
        return dict(
            g=g, w_r=w_r, contrast_factor=contrast_factor,
            window_width=2.0 * _window_half_width(r, omega), g_avg=g_avg,
            w_r_avg=shift * g_avg, w_r_max=w_r_max, w_total=0.5 * shift + w_r_max,
            refused=~(np.isfinite(volume) & (volume > 0.0) & np.isfinite(w_r)
                      & np.isfinite(contrast_factor)),
        )


__all__ = [
    "EmissionWindow",
    "CoherenceResult",
    "UnitaritySplit",
    "mode_envelope",
    "modulation",
    "modulation_min",
    "modulation_max",
    "coherence_shift",
    "long_time_average",
    "emission_window",
    "windowed_modulation",
    "windowed_coherence_shift",
    "max_recoherence",
    "unitarity_sum",
]

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

      g(r, t0) = eta * (mu*cos(offset + rate*t0) + eta),

  with mu = cosh r, eta = sinh r, rate = 2*omega and offset = -theta.

Because mu > eta, g dips negative on a window of emission times of width
(2/rate)*arccos(tanh r): electrons launched inside that window *gain*
contrast relative to the vacuum (W_R > 0, recoherence).  Averaged over
its own window g lies in (-1/3, 0), which bounds the attainable windowed
recoherence by (8*pi*alpha/(3*V*omega))*M; adding the vacuum loss
-(4*pi*alpha/(V*omega))*M keeps the total negative, so no emission
strategy beats a fluctuation-free field.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .constants import FINE_STRUCTURE
from .errors import _finite_input, _finite_result
from .squeezed_state import ModeSpec, SqueezeState
from .trajectory import Trajectory
from ._special import (
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
class PhaseFunctionParams:
    """Linear emission-time phase offset + rate * t0 entering the modulation.

    For a mode of frequency omega and squeeze phase theta the physical
    convention is rate = 2*omega and offset = -theta; ``from_mode`` builds
    that.
    """

    offset: float
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", _finite_input("phase offset", self.offset))
        object.__setattr__(
            self, "rate", _finite_input("phase rate", self.rate, positive=True)
        )

    @classmethod
    def from_mode(cls, mode: ModeSpec, state: SqueezeState) -> "PhaseFunctionParams":
        return cls(offset=-state.theta, rate=2.0 * mode.omega)


@dataclass(frozen=True)
class EmissionWindow:
    """Interval of emission times with negative modulation (recoherence).

    ``degenerate`` marks the r = 0 limit, where the modulation vanishes
    identically and the window collapses to its full-width limit
    pi/rate without strict interior negativity.
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

    evaluated in the cancellation-free form 256*R^2*(j2(omega*T)/(omega*T))^2.
    Depends only on trajectory and frequency, never on the squeeze or the
    emission time; vanishes at the zeros of j2 and opens quadratically,
    M -> (256/225)*R^2*omega^2*T^2, for omega*T -> 0.
    """
    return _envelope(mode.omega, traj)


def _envelope(omega, traj: Trajectory):
    """M at a scalar or an array of frequencies omega."""
    # apex * apex, not apex**2: float ** raises OverflowError past 1.3e154;
    # |j2(x)/x| < 1/8, so M is finite exactly when this coupling is
    coupling = _finite_result(256.0 * (traj.apex * traj.apex), "mode envelope")
    s = j2_over_x(omega * traj.half_time)
    return coupling * s * s


def _mode_shift(omega, volume, traj: Trajectory):
    """-(8*pi*alpha/(V*omega)) * M, the shift of one mode per unit modulation.

    The one place it is written: the closed forms here, the band and the
    estimates (with V a phase-space cell volume) use it, scalar or array.
    """
    envelope = _envelope(omega, traj)
    return -8.0 * math.pi * FINE_STRUCTURE / (volume * omega) * envelope


def modulation(state: SqueezeState, params: PhaseFunctionParams, t0: float) -> float:
    """Squeeze modulation g = eta*(mu*cos(offset + rate*t0) + eta).

    Ranges over [modulation_min, modulation_max] as t0 varies; negative
    values mark emission times at which the mode *restores* contrast.
    """
    t0 = _finite_input("emission time", t0)
    return phase_weight(state.r, params.offset + params.rate * t0)


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
    params = PhaseFunctionParams.from_mode(mode, state)
    value = _finite_result(
        _mode_shift(mode.omega, mode.volume, traj) * modulation(state, params, t0),
        "coherence shift",
    )
    contrast = math.exp(value) if value <= _LOG_MAX else math.inf
    return CoherenceResult(
        value=value, contrast_factor=_finite_result(contrast, "contrast factor")
    )


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


def emission_window(
    state: SqueezeState, params: PhaseFunctionParams
) -> EmissionWindow:
    """Principal interval of emission times with negative modulation.

    The modulation is negative while cos(offset + rate*t0) < -tanh(r),
    i.e. on a window centred where the phase passes pi, of width

        width = (2/rate) * arccos(tanh r),

    which shrinks from pi/rate at r = 0 like (4/rate)*e^{-r} for large r.
    At r = 0 the modulation vanishes identically; the full-width window is
    returned with ``degenerate=True``.
    """
    half = window_half_angle(state.r) / params.rate
    centre = (math.pi - params.offset) / params.rate
    return EmissionWindow(
        start=centre - half,
        end=centre + half,
        width=2.0 * half,
        degenerate=(state.r == 0.0),
    )


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
        8.0
        * math.pi
        * FINE_STRUCTURE
        / (3.0 * mode.volume * mode.omega)
        * mode_envelope(mode, traj),
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


__all__ = [
    "PhaseFunctionParams",
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

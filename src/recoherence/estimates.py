"""Order-of-magnitude recoherence estimates for concrete scenarios.

Two benchmark setups bound how large the windowed coherence gain can get:

* a single squeezed cavity mode of wavelength lambda in a cavity of
  volume V, with the charge driven over an apex R during a half time T;
* an empty-space beam of squeezed modes filling a solid angle and a
  fractional bandwidth around a band centre.

Both reduce to a dimensionless coupling envelope

    F(x) = (32/x^3)^2 * ((x^2 - 3)*sin(x) + 3*x*cos(x))^2
         = 1024 * j2(x)^2,

of the flight phase x (frequency times half flight time), maximised near
the first spherical-Bessel peak.  In the deep-saturation limit the window
average of the squeeze modulation tends to -1/3, which is what these
estimates assume; they are ceilings, not detailed predictions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import FINE_STRUCTURE
from .errors import DomainError, _finite_input, _finite_result, _representable
from .multimode_band import _cell_volume
from .single_mode import _mode_shift, max_recoherence
from .squeezed_state import ModeSpec
from .trajectory import Trajectory
from ._special import j2_over_x

_FULL_SPHERE = 4.0 * math.pi


def coupling_envelope(x):
    """Dimensionless envelope F(x) = 1024 * j2(x)^2 of the flight phase.

    Accepts a scalar or array, all entries finite and > 0.  Decays like
    1024/x^2 on average for large x (sin^2 -> 1/2 gives the 512/x^2
    averaged form) and opens like (1024/225) x^4 at small x.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"flight phase must be finite and > 0, got {x!r}")
    s = j2_over_x(arr) * arr
    out = 1024.0 * s * s
    return float(out) if out.ndim == 0 else out


#: the double nearest x* = 3.342093657365694158827..., the first root of j2'
_ENVELOPE_PEAK = 3.342093657365694


def locate_envelope_max() -> tuple[float, float]:
    """Position and height of the first maximum of the coupling envelope.

    F = 1024*j2^2 with j2 > 0 throughout [3.0, 3.7], so F' vanishes
    exactly where j2' does.  Its first root x* is a constant, stored as the
    nearest double; ``tests/test_special.py`` re-derives it from 50-digit
    mpmath and ``tests/test_estimates.py`` freezes the height.
    """
    return _ENVELOPE_PEAK, coupling_envelope(_ENVELOPE_PEAK)


@dataclass(frozen=True)
class CavityScenario:
    """Single squeezed cavity mode probed by a driven charge.

    Parameters
    ----------
    wavelength : float
        Mode wavelength; sets the angular frequency 2*pi/wavelength.
    volume : float
        Cavity volume.
    apex : float
        Peak displacement of the charge.
    half_time : float
        Half duration of the round trip.
    """

    wavelength: float
    volume: float
    apex: float
    half_time: float

    def __post_init__(self) -> None:
        for name in ("wavelength", "volume", "apex", "half_time"):
            value = _finite_input(name, getattr(self, name), positive=True)
            object.__setattr__(self, name, value)

    @classmethod
    def from_ratios(
        cls,
        ratio_rt: float,
        lambda3_over_volume: float = 1.0,
        apex_over_wavelength: float = 1.0,
    ) -> "CavityScenario":
        """Build from the dimensionless knobs the estimate depends on.

        ratio_rt fixes apex/half_time, lambda3_over_volume the mode
        confinement, apex_over_wavelength the excursion scale; lengths and
        times are in units of the wavelength.
        """
        knobs = (ratio_rt, lambda3_over_volume, apex_over_wavelength)
        names = "ratio_rt", "lambda3_over_volume", "apex_over_wavelength"
        ratio_rt, confinement, apex = (
            _finite_input(name, value, positive=True)
            for name, value in zip(names, knobs)
        )
        # a derived value that leaves double precision names the knob behind it
        return cls(
            wavelength=1.0,
            volume=_representable(
                1.0 / confinement, f"lambda3_over_volume={confinement!r} gives a volume"
            ),
            apex=apex,
            half_time=_representable(
                apex / ratio_rt, f"ratio_rt={ratio_rt!r} gives a half time"
            ),
        )

    @property
    def flight_phase(self) -> float:
        """Mode frequency times half flight time, 2*pi*half_time/wavelength."""
        return 2.0 * math.pi * self.half_time / self.wavelength


def cavity_estimate(scenario: CavityScenario) -> float:
    """Saturated cavity recoherence ceiling with the oscillation averaged.

        (alpha / (12*pi^2)) * (lambda^3/V) * (R/T)^2 * 512 / x^2

    with x the flight phase; the 512/x^2 factor is the envelope F(x) with
    sin^2 replaced by its mean 1/2, appropriate when x spans many cycles.
    """
    x = scenario.flight_phase
    if x < 2.0 * math.pi:
        warnings.warn(
            f"flight phase {x:g} is below one full cycle; the averaged "
            "envelope 512/x^2 is unreliable there, prefer the exact form",
            stacklevel=2,
        )
    w, ratio = scenario.wavelength, scenario.apex / scenario.half_time
    return _finite_result(
        FINE_STRUCTURE
        / (12.0 * math.pi**2)
        * (w * w * w / scenario.volume)
        * (ratio * ratio)
        * 512.0
        / x
        / x,
        "averaged cavity estimate",
    )


def cavity_estimate_exact(scenario: CavityScenario) -> float:
    """Cavity ceiling with the exact envelope F(x) kept.

    Equals the single-mode maximum recoherence bound for the matched mode
    and trajectory; can sit far below the averaged estimate when the
    flight phase lands near a zero of the envelope.
    """
    mode = ModeSpec(omega=2.0 * math.pi / scenario.wavelength, volume=scenario.volume)
    return max_recoherence(mode, Trajectory(scenario.apex, scenario.half_time))


@dataclass(frozen=True)
class EmptySpaceScenario:
    """Squeezed beam in free space, everything in dimensionless groups.

    Parameters
    ----------
    ratio_rt : float
        Apex over half time (peak excursion rate of the charge).
    bandwidth_ratio : float
        Fractional half-width of the squeezed band.
    solid_angle : float
        Beam solid angle in steradians.
    flight_phase : float
        Band-centre frequency times half flight time.
    """

    ratio_rt: float
    bandwidth_ratio: float
    solid_angle: float
    flight_phase: float

    def __post_init__(self) -> None:
        for name in ("ratio_rt", "bandwidth_ratio", "solid_angle", "flight_phase"):
            value = _finite_input(name, getattr(self, name), positive=True)
            object.__setattr__(self, name, value)
        traj = Trajectory(apex=self.ratio_rt, half_time=1.0)
        if traj.is_relativistic:
            warnings.warn(
                f"ratio_rt = {self.ratio_rt:g} gives a peak speed "
                f"{traj.max_speed:.6g} >= 1; the trajectory would be superluminal",
                stacklevel=2,
            )
        if self.bandwidth_ratio >= 1.0:
            warnings.warn(
                f"bandwidth_ratio = {self.bandwidth_ratio:g} is not a "
                "narrow band; the estimate degrades",
                stacklevel=2,
            )
        if self.solid_angle > _FULL_SPHERE:
            warnings.warn(
                f"solid_angle = {self.solid_angle:g} sr exceeds the full "
                "sphere",
                stacklevel=2,
            )


def empty_space_estimate(scenario: EmptySpaceScenario) -> float:
    """Saturated free-space recoherence ceiling for a narrow squeezed beam.

        (alpha / (6*pi^2)) * (R/T)^2 * bandwidth_ratio
            * F(flight_phase) * solid_angle

    i.e. the leading narrow-band shift with the window average pinned at
    its deep-squeezing value -1/3.  Units of the band centre (omega = 1,
    T = flight_phase) keep the cell volume within double precision.
    """
    x, ratio_rt = scenario.flight_phase, scenario.ratio_rt
    apex = _representable(
        ratio_rt * x, f"flight_phase={x!r} with ratio_rt={ratio_rt!r} gives an apex"
    )
    volume = _cell_volume(scenario.solid_angle, 1.0, 2.0 * scenario.bandwidth_ratio)
    shift = _mode_shift(1.0, volume, Trajectory(apex, x))
    return _finite_result(-shift / 3.0, "empty-space estimate")


__all__ = [
    "CavityScenario",
    "EmptySpaceScenario",
    "cavity_estimate",
    "cavity_estimate_exact",
    "coupling_envelope",
    "empty_space_estimate",
    "locate_envelope_max",
]

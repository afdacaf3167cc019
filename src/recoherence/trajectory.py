"""Smooth out-and-back electron path used in the interference loop.

One interferometer arm displaces the electron along z as

    z(t) = (R/T^4) * (t^2 - T^2)^2,      -T <= t <= T,

a quartic bump that starts and ends at rest (z and v vanish smoothly at
t = +-T) and peaks at z(0) = R.  The other arm is its mirror image -z(t),
so 2R is the maximum separation between the arms and 2T their common
flight time.  Only the velocity enters the coherence functional; it is

    v(t) = 4*R*t*(t^2 - T^2)/T^4,

with extreme speed 8R/(3*sqrt(3)*T) ~ 1.54 R/T reached at t = +-T/sqrt(3).
The construction is nonrelativistic: a trajectory whose extreme speed
reaches c = 1 is still representable (the formulas remain finite) but is
flagged so callers can warn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _finite_input

_MAX_SPEED_COEFF = 8.0 / (3.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class Trajectory:
    """Quartic out-and-back arm, parametrised by apex and half flight time.

    Parameters
    ----------
    apex : float
        Peak displacement R of one arm; half the maximum arm separation.
    half_time : float
        Half flight time T; the electron is in flight for t in [-T, T].
    """

    apex: float
    half_time: float
    max_speed: float = field(init=False)
    is_relativistic: bool = field(init=False)

    def __post_init__(self) -> None:
        apex = _finite_input("apex", self.apex, positive=True)
        half_time = _finite_input("half flight time", self.half_time, positive=True)
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "half_time", half_time)
        object.__setattr__(
            self, "max_speed", _MAX_SPEED_COEFF * apex / half_time
        )
        object.__setattr__(self, "is_relativistic", self.max_speed >= 1.0)

    def _check_time(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise DomainError("time must be finite")
        if np.any(np.abs(t) > self.half_time):
            raise DomainError(
                f"time outside the flight interval [-{self.half_time}, "
                f"{self.half_time}]"
            )
        return t

    # in the scaled time u = t/T no power of T is formed: T**4 would
    # overflow above T ~ 1e77 and underflow below 1e-77
    def position(self, t):
        """Displacement z(t) = R*(u^2 - 1)^2 of the +z arm, u = t/T.

        Accepts a scalar or array time in [-T, T]; z(+-T) = 0, z(0) = R.
        """
        u = self._check_time(t) / self.half_time
        w = u * u - 1.0
        out = self.apex * (w * w)
        return float(out) if out.ndim == 0 else out

    def velocity(self, t):
        """Velocity v(t) = 4*(R/T)*u*(u^2 - 1) of the +z arm, u = t/T.

        Odd in t; vanishes at t = 0 and t = +-T.
        """
        u = self._check_time(t) / self.half_time
        out = 4.0 * (self.apex / self.half_time) * u * (u * u - 1.0)
        return float(out) if out.ndim == 0 else out


__all__ = ["Trajectory"]

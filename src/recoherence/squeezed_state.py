"""Single-mode squeezed vacuum: Bogoliubov data and renormalized energy.

A squeezed vacuum state of one field mode is parametrised by the complex
squeeze parameter zeta = r * e^{i*theta}.  Its second moments are fixed by
the Bogoliubov coefficients

    mu  = cosh(r),
    nu  = e^{i*theta} * sinh(r),        |nu| = eta = sinh(r),

with mu^2 - |nu|^2 = 1, giving <a> = 0, <a^2> = -mu*nu and a mean photon
number <a'a> = eta^2.  Normal-ordering against the vacuum leaves the
renormalized energy density of the mode

    rho(x) = (omega/V) * eta * (mu*cos(phase) + eta),

where ``phase`` is the standing-wave argument 2*k.x - theta.  The density
dips negative over part of each cycle whenever r > 0, yet its spatial
average eta^2 * omega / V and the total energy eta^2 * omega stay positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import SQUEEZE_CAP
from .errors import DomainError, RangeError, _finite_input, _finite_result
from ._special import phase_weight


@dataclass(frozen=True)
class SqueezeState:
    """Squeeze parameter zeta = r * e^{i*theta} of a single-mode state.

    Parameters
    ----------
    r : float
        Squeeze magnitude, 0 <= r <= SQUEEZE_CAP.  The cap keeps e^{2r}
        inside double precision; larger values raise RangeError.
    theta : float
        Squeeze phase in radians.  Stored unreduced; only differences
        modulo 2*pi ever matter physically.

    The properties ``mu``, ``nu`` and ``eta`` are the Bogoliubov
    coefficients; they satisfy mu^2 - |nu|^2 = 1.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        r = _finite_input("r", self.r)
        theta = _finite_input("theta", self.theta)
        if r < 0.0:
            raise DomainError(f"squeeze magnitude must be >= 0, got {r}")
        if r > SQUEEZE_CAP:
            raise RangeError(
                f"squeeze magnitude {r} exceeds the overflow cap {SQUEEZE_CAP}"
            )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)

    @property
    def mu(self) -> float:
        """cosh(r)."""
        return math.cosh(self.r)

    @property
    def eta(self) -> float:
        """sinh(r) = |nu|."""
        return math.sinh(self.r)

    @property
    def nu(self) -> complex:
        """e^{i*theta} * sinh(r)."""
        return complex(math.cos(self.theta), math.sin(self.theta)) * self.eta


@dataclass(frozen=True)
class ModeSpec:
    """One quantised field mode: angular frequency and quantisation volume.

    Natural units (hbar = c = 1): ``omega`` carries inverse length,
    ``volume`` length cubed.  Shifts divide by omega*volume: a product that
    rounds to 0 raises RangeError, an infinite one gives shifts of 0.
    """

    omega: float
    volume: float

    def __post_init__(self) -> None:
        omega = _finite_input("mode frequency", self.omega, positive=True)
        volume = _finite_input("quantisation volume", self.volume, positive=True)
        if omega * volume == 0.0:
            raise RangeError(
                f"mode frequency {omega!r} times quantisation volume {volume!r} "
                "underflows double precision"
            )
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "volume", volume)

    @property
    def wavelength(self) -> float:
        """2*pi/omega."""
        return 2.0 * math.pi / self.omega


def mean_photon_number(state: SqueezeState) -> float:
    """<a'a> = sinh(r)^2."""
    eta = state.eta
    return eta * eta


def energy_density(state: SqueezeState, mode: ModeSpec, phase: float) -> float:
    """Renormalized energy density (omega/V) * eta * (mu*cos(phase) + eta).

    Parameters
    ----------
    phase : float
        Standing-wave argument 2*k.x - theta at the observation point.

    Notes
    -----
    Negative for part of each cycle whenever r > 0; the minimum over phase
    is -(omega/V)*(1 - e^{-2r})/2 and the average over a full cycle is
    the (positive) mean density sinh(r)^2 * omega / V.
    """
    phase = _finite_input("phase", phase)
    return _finite_result(
        mode.omega / mode.volume * phase_weight(state.r, phase), "energy density"
    )


def total_energy(state: SqueezeState, mode: ModeSpec) -> float:
    """Renormalized mode energy sinh(r)^2 * omega (volume-independent)."""
    return _finite_result(mean_photon_number(state) * mode.omega, "total energy")


__all__ = [
    "SqueezeState",
    "ModeSpec",
    "mean_photon_number",
    "energy_density",
    "total_energy",
]

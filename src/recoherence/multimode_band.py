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

from .errors import DomainError, RangeError, _count_input, _representable
from .errors import _finite_input, _finite_result
from .oracle_quadrature import integrate_oscillatory
from .single_mode import _emission_phase, _mode_shift, _per_mode
from .squeezed_state import SqueezeState
from .trajectory import Trajectory
from ._special import _J2_SERIES_CUT, _j2_series_into, _j2_squared_over_x
from ._special import _phase_weight_terms, phase_weight, windowed_phase_weight

#: fractional size above which "narrow" assumptions are flagged
_NARROW = 0.3

#: largest mode count of mode_sum_oracle: it bounds the time of one call
#: (about 0.2 s); the memory does not grow with the count
MAX_MODES = 10**7

#: modes mode_sum_oracle evaluates at a time: 128 KiB a real array of its
#: workspace, so one block's values stay in a core's L2 cache
_MODE_BLOCK = 2**14


@dataclass(frozen=True)
class BandSpec:
    """Top-hat frequency band of identically squeezed modes.

    Parameters
    ----------
    center : float
        Band-centre angular frequency; > 0.
    half_width : float
        Half the band width in angular frequency; 0 < half_width < center,
        and wide enough that center +- half_width differ from center.
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
        if not center - half_width < center < center + half_width:
            raise RangeError(
                f"band half-width {half_width!r} is below the resolution of the "
                f"center {center!r}: a band edge rounds to the center"
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


def _cell_volume(solid_angle: float, omega, width):
    """(2*pi)^3/(solid_angle*omega^2*width), the volume V one phase-space
    cell of the beam stands in for, at a scalar or an array omega.

    Divided factor by factor: a cell too sparse for double precision gets
    V = inf and a shift that rounds to 0; a V that underflows to 0 raises.
    """
    with np.errstate(over="ignore"):
        volume = (2.0 * math.pi) ** 3 / solid_angle / omega / omega / width
    if not np.min(volume) > 0.0:
        raise RangeError("phase-space cell volume underflows double precision")
    return volume


def band_coherence_shift_exact(
    state: SqueezeState,
    band: BandSpec,
    traj: Trajectory,
    window_averaged: bool = True,
    t0: float = 0.0,
) -> float:
    """Continuum band shift with the frequency integral done numerically.

    With ``window_averaged`` the squeeze modulation is replaced by its
    window average (a constant over the band); otherwise the pointwise
    modulation at emission time ``t0`` is kept inside the integrand, each
    frequency contributing at its own phase 2*omega*t0 - theta; RangeError
    when that phase exceeds 2^32 rad at a band edge.
    """
    t0 = _finite_input("emission time", t0)
    g_avg = windowed_phase_weight(state.r)
    # |2*omega*t0 - theta| is convex in omega: the band edges bound it
    for omega in () if window_averaged else band.edges:
        _emission_phase(state.theta, omega, t0)

    lo, hi = band.edges
    # integrated over u = omega/unit, unit a power of two at most the band
    # width: the integrand, a shift per unit of u, is then on the value's
    # scale, and each term w*f has the bits of the integral over omega
    unit = math.ldexp(0.5, math.frexp(hi - lo)[1])

    def integrand(u: np.ndarray) -> np.ndarray:
        # the modes per unit of u at omega fill a cell of width unit
        omega = u * unit
        shift = _mode_shift(omega, _cell_volume(band.solid_angle, omega, unit), traj)
        if window_averaged:
            return g_avg * shift
        return phase_weight(state.r, _emission_phase(state.theta, omega, t0)) * shift

    span = traj.half_time if window_averaged else traj.half_time + abs(t0)
    oscillations = 2.0 * band.half_width * span / math.pi
    return integrate_oscillatory(integrand, lo / unit, hi / unit, oscillations)


def band_coherence_shift_leading(
    state: SqueezeState, band: BandSpec, traj: Trajectory
) -> float:
    """Leading narrow-band shift: the midpoint value times the bandwidth.

        W = -e^2 * (R/T)^2 * g_avg * (dOmega/(2*pi)^3)
            * (32/(center^3*T^3))^2
            * ((center^2*T^2 - 3)*sin(center*T) + 3*center*T*cos(center*T))^2
            * (half_width/center),

    evaluated as g_avg times the single-mode shift of the centre mode in
    the cell of the whole band.  Relative deviation from the exact integral
    falls like the bandwidth ratio squared.  Emits warnings when the band is
    not actually narrow (half_width*T or half_width/center above 0.3).
    """
    for name, size in (
        ("half_width*T", band.half_width * traj.half_time),
        ("half_width/center", band.bandwidth_ratio),
    ):
        if size > _NARROW:
            warnings.warn(
                f"{name} = {size:g} is not small; the leading-order band "
                "formula degrades",
                stacklevel=2,
            )
    volume = _cell_volume(band.solid_angle, band.center, 2.0 * band.half_width)
    return _finite_result(
        windowed_phase_weight(state.r) * _mode_shift(band.center, volume, traj),
        "leading band shift",
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
    across the band and adds their single-mode shifts, each with the
    phase-space cell weight (dOmega/(2*pi)^3) * omega^2 * cell_width
    standing in for 1/V.  Converges to the continuum integral as the cell
    count grows (midpoint-rule, error ~ 1/n_modes^2); with one mode it
    reproduces the single-mode shift at the band centre with the matched
    volume.

    The sum is factored.  The shift of mode k is coupling * A^2 * a_k, with
    a_k = omega_k * (j2(x_k)/x_k)^2 at x_k = omega_k*T, A = 16*R the
    amplitude of the envelope M = (A * j2(x)/x)^2 and ``coupling`` the shift
    of a unit-frequency mode with M = 1 in one cell.  Its phase weight is
    g_min + sinh(2r) * c_k^2 with c_k = cos(phase_k/2), the rearrangement of
    ``_special.phase_weight``.  So the value is
    coupling * (g_min * sum(a) + sinh(2r) * sum(a * c^2)) * A * A, formed
    as -(g_min * (sum(a) * S * A) + sinh(2r) * (sum(a * c^2) * S * A)) with
    S = -coupling * A > 0: each sum is scaled to a shift at unit phase
    weight before it is weighted, so no partial product leaves double
    precision unless that shift does.

    Modes are evaluated in blocks of ``_MODE_BLOCK``, one after another in
    the calling thread.  No mode takes a sine or cosine of its own: the
    modes are equally spaced, so e^{i*omega*T} and e^{i*phase/2} of the
    block's mode j are the block's first phasors turned by the tables
    e^{i*j*cell*T} and e^{i*j*cell*t0}, built once a call by doubling
    (``_turns``); one complex multiply a mode and angle.  Its omega is the
    first mode's plus j*cell, from a table built once a call.  a comes from
    one of two j2 kernels, each in place: below the series cut of j2 at
    omega*T = 2 the series ``_special._j2_series_into``, from the cut on the
    bracket ``_special._j2_squared_over_x``; omega increases along the
    block, so one ``np.searchsorted`` splits it at the cut.  The sum ends at
    the first block whose top omega*T is past double precision: since
    half_width < center, the lowest omega is at least 2^-54 of the highest,
    so every mode then has omega*T >= 1e292, where a rounds to +0.  Every
    block is evaluated in one workspace of three block-sized real arrays
    and one complex one, and adds the ``np.sum`` of its a and of its a * c^2
    to the two sums.  The turn tables with the complex workspace, and the
    real workspace, are two arrays allocated once a call.  Memory is the
    128 KiB step table, 512 KiB of turn tables and 640 KiB of workspace,
    whatever the mode count; ``MAX_MODES`` bounds the time.
    RangeError when the cell width, the top mode's cell volume or the sum
    leaves double precision, or when an end mode's emission phase exceeds
    2^32 rad.
    """
    n = _count_input("n_modes", n_modes, MAX_MODES)
    t0 = _finite_input("emission time", t0)
    cell = _representable(2.0 * band.half_width / n, "mode cell width")
    lo = band.edges[0]
    half_time = traj.half_time
    ends = [lo + (k + 0.5) * cell for k in (0, n - 1)]
    # V falls with omega: the top mode's is the smallest
    _cell_volume(band.solid_angle, ends[1], cell)
    # |2*omega*t0 - theta| is convex in omega: within its bound at the end
    # modes, within it at every mode
    for omega in ends:
        _emission_phase(state.theta, omega, t0)
    coupling = _per_mode(1.0, _cell_volume(band.solid_angle, 1.0, cell), 1.0)
    amplitude = 16.0 * traj.apex  # M = (amplitude * s)^2, as _envelope forms it
    low, swing = _phase_weight_terms(state.r)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: RangeError below
        # a block's mode j lies j*cell above its first mode; e^{i*j*cell*T}
        # and e^{i*j*cell*t0} turn omega*T and the half phase that far; the
        # block's turned phasor and its omega, a and x are the workspace
        steps = np.arange(min(n, _MODE_BLOCK), dtype=float)
        steps *= cell
        turns_x, turns_half, turned = np.empty((3, steps.size), complex)
        workspace = np.empty((3, steps.size))
        _turns(turns_x, cell * half_time)
        _turns(turns_half, cell * t0)
        sum_a = sum_ac2 = 0.0
        for start in range(0, n, _MODE_BLOCK):
            size = min(_MODE_BLOCK, n - start)
            omegas, a, x = workspace[:, :size]
            z = turned[:size]
            first = lo + (start + 0.5) * cell
            np.add(steps[:size], first, out=omegas)
            if not float(omegas[-1]) * half_time < math.inf:
                break  # every a from here on rounds to +0
            # a = omega*(j2(x)/x)^2 at x = omega*T, in place: below the cut
            # x * series(x^2), squared and times omega
            cut = int(np.searchsorted(omegas, _J2_SERIES_CUT / half_time))
            if cut:
                q = np.multiply(omegas[:cut], half_time, out=x[:cut])
                q *= q
                value = _j2_series_into(q, a[:cut])
                value *= np.multiply(omegas[:cut], half_time, out=q)
                value *= value
                value *= omegas[:cut]
            # from the cut on the bracket, fed e^{i*x}/sqrt(T) (the first
            # mode's phasor turned j cells) so that it gives j2(x)^2/(x*T)
            if cut < size:
                phasor = _phasor(first * half_time) / math.sqrt(half_time)
                np.multiply(turns_x[cut:size], phasor, out=z[cut:])
                u = np.divide(1.0 / half_time, omegas[cut:], out=omegas[cut:])
                _j2_squared_over_x(u, z.imag[cut:], z.real[cut:], a[cut:])
            sum_a += np.sum(a)
            # e^{i*phase/2} alike, from the first mode's emission phase
            half = 0.5 * _emission_phase(state.theta, first, t0)
            np.multiply(turns_half[:size], _phasor(half), out=z)
            np.multiply(z.real, z.real, out=x)
            x *= a
            sum_ac2 += np.sum(x)
        scale = -coupling * amplitude  # coupling < 0 < amplitude
        value = -(low * (sum_a * scale * amplitude)
                  + swing * (sum_ac2 * scale * amplitude))
        return _finite_result(float(value), "mode sum")


def _turns(table, step):
    """Fill ``table`` with e^{i*j*step}, j = 0, 1, ..., one power-of-two span
    at a time: span [m, 2m) is span [0, m) turned by e^{i*m*step}, and
    m*step is exact since m is a power of two."""
    table[0] = 1.0
    span = 1
    while span < table.size:
        head = min(span, table.size - span)
        np.multiply(table[:head], _phasor(span * step), out=table[span : span + head])
        span *= 2
    return table


def _phasor(angle: float) -> complex:
    """e^{i*angle}; nan for an angle past double precision."""
    if not math.isfinite(angle):
        return complex(math.nan, math.nan)
    return complex(math.cos(angle), math.sin(angle))


__all__ = [
    "BandSpec",
    "band_coherence_shift_exact",
    "band_coherence_shift_leading",
    "mode_sum_oracle",
]

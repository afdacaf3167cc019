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

import contextvars
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, RangeError, _count_input
from .errors import _finite_input, _finite_result
from .oracle_quadrature import integrate_oscillatory
from .single_mode import _checked, _emission_phase, _envelope, _mode_shift
from .single_mode import _modulation, _per_mode
from .squeezed_state import SqueezeState
from .trajectory import Trajectory
from ._special import _div, _j2_over_x_at, _mul, _phase_weight_at
from ._special import windowed_phase_weight

#: fractional size above which "narrow" assumptions are flagged
_NARROW = 0.3

#: largest mode count of mode_sum_oracle: it bounds the time of one call
#: (about 0.3 s on one or two cores); the memory does not grow with the count
MAX_MODES = 10**7

#: modes each worker of mode_sum_oracle evaluates at a time: 128 KB a real
#: array of its workspace, so one block's values stay in a core's L2 cache
_MODE_BLOCK = 2**14

#: most worker threads of mode_sum_oracle, one per available CPU: it bounds
#: the workspaces held at once
_MAX_WORKERS = 4


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


def _cell_volume(solid_angle: float, omega, width, out=None):
    """(2*pi)^3/(solid_angle*omega^2*width), the volume V one phase-space
    cell of the beam stands in for, at a scalar or an array omega (written
    into ``out`` when given).

    Divided factor by factor: a cell too sparse for double precision gets
    V = inf and a shift that rounds to 0; a V that underflows to 0 raises.
    """
    with np.errstate(over="ignore"):
        volume = _div((2.0 * math.pi) ** 3 / solid_angle, omega, out)
        volume = _div(_div(volume, omega, out), width, out)
    if not np.min(volume) > 0.0:
        raise RangeError("phase-space cell volume underflows double precision")
    return volume


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _each_block(new_fill: Callable[[], Callable[[int], None]], n: int) -> None:
    """fill(start) for every block start of n modes, on up to _MAX_WORKERS
    threads, each worker with the fill that new_fill() gives it.

    Worker k takes every workers-th start from the k-th, in order; the
    calling thread is worker 0, so at one worker no thread starts.  Each
    thread runs in a copy of the caller's context and so keeps its
    ``np.errstate`` (a context variable since numpy 2).  A worker catches
    what it raises and stops; the exception of the lowest failing start is
    raised here, the one a serial loop would raise.
    """
    starts = range(0, n, _MODE_BLOCK)
    workers = min(_available_cpus(), len(starts), _MAX_WORKERS)
    failures = {}  # failing start -> its exception, at most one per worker

    def work(mine: range) -> None:
        start = mine[0]  # each worker has a start: workers <= len(starts)
        try:
            fill = new_fill()
            for start in mine:
                fill(start)
        except BaseException as exc:
            failures[start] = exc

    threads = [
        threading.Thread(
            target=contextvars.copy_context().run, args=(work, starts[k::workers])
        )
        for k in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    work(starts[::workers])
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]


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
    frequency contributing at its own phase 2*omega*t0 - theta.
    """
    t0 = _finite_input("emission time", t0)
    g_avg = windowed_phase_weight(state.r)

    def integrand(omega: np.ndarray) -> np.ndarray:
        # the modes per unit frequency at omega fill a cell of width 1
        shift = _mode_shift(omega, _cell_volume(band.solid_angle, omega, 1.0), traj)
        if window_averaged:
            return g_avg * shift
        return _modulation(state.r, state.theta, omega, t0) * shift

    span = traj.half_time if window_averaged else traj.half_time + abs(t0)
    lo, hi = band.edges
    oscillations = 2.0 * band.half_width * span / math.pi
    return integrate_oscillatory(integrand, lo, hi, oscillations)


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

    Modes are evaluated in blocks of ``_MODE_BLOCK``, shared out to one
    thread per available CPU, at most ``_MAX_WORKERS`` and at most one a
    block.  No mode takes a sine or cosine of its own: the modes are equally
    spaced, so e^{i*omega*T} and e^{i*phase/2} of the block's mode j are the
    block's first phasors turned by the tables e^{i*j*cell*T} and
    e^{i*j*cell*t0}, built once a call and shared by the workers; one
    complex multiply a mode and angle.  Each worker evaluates its blocks in
    one workspace of a few block-sized arrays, allocated once, and stores
    each block's ``np.sum`` at the block's index; the sum of those partial
    sums is the value, so it has the same bits at any thread count.  Memory
    is under 1 MB a worker, 640 KB of tables and 8 bytes a block, whatever
    the mode count; ``MAX_MODES`` bounds the time.  RangeError when the
    emission phase, a cell volume, an envelope or the sum leaves double
    precision.
    """
    n = _count_input("n_modes", n_modes, 1, MAX_MODES)
    t0 = _finite_input("emission time", t0)
    cell = 2.0 * band.half_width / n
    lo = band.edges[0]
    half_time = traj.half_time
    # 2*omega*t0 - theta is monotone in omega: finite at the end modes,
    # finite at every mode
    for k in (0, n - 1):
        _modulation(state.r, state.theta, lo + (k + 0.5) * cell, t0)
    partials = np.empty(-(-n // _MODE_BLOCK))

    def new_fill() -> Callable[[int], None]:
        workspace = np.empty((4, _MODE_BLOCK))
        turned = np.empty(_MODE_BLOCK, dtype=complex)

        def fill(start: int) -> None:
            size = min(_MODE_BLOCK, n - start)
            omegas, shift, m, x = workspace[:, :size]
            z = turned[:size]
            # lo + (k + 0.5)*cell at mode k = start + offset, exact in k
            np.add(offsets[:size], start + 0.5, out=omegas)
            omegas *= cell
            omegas += lo
            first = float(omegas[0])
            volume = _cell_volume(band.solid_angle, omegas, cell, out=shift)
            # e^{i*omega*T}: the first mode's phasor turned j cells
            np.multiply(turns_x[:size], _phasor(first * half_time), out=z)
            s = _j2_over_x_at(_mul(omegas, half_time, x), z.imag, z.real, m, x)
            _per_mode(omegas, volume, _checked(_envelope(s, traj.apex, m)), shift)
            # e^{i*phase/2} alike, from the first mode's emission phase
            half = 0.5 * _emission_phase(state.theta, first, t0)
            np.multiply(turns_half[:size], _phasor(half), out=z)
            shift *= _phase_weight_at(state.r, z.real, m)
            partials[start // _MODE_BLOCK] = np.sum(shift)

        return fill

    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: RangeError below
        # shared by every worker: the offsets j of a block and e^{i*j*cell*T},
        # e^{i*j*cell*t0}, the turns of omega*T and of the half phase
        offsets = np.arange(min(n, _MODE_BLOCK), dtype=float)
        turns_x, turns_half = (
            np.exp(1j * (offsets * (cell * step))) for step in (half_time, t0)
        )
        _each_block(new_fill, n)
        return _finite_result(float(np.sum(partials)), "mode sum")


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

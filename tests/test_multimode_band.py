import math
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoherence import (
    BandSpec,
    ConvergenceError,
    DomainError,
    ModeSpec,
    RangeError,
    SqueezeState,
    Trajectory,
    band_coherence_shift_exact,
    band_coherence_shift_leading,
    coherence_shift,
    mode_sum_oracle,
    modulation_max,
)
from recoherence import multimode_band, oracle_quadrature
from recoherence._special import j2_over_x
from recoherence.constants import FINE_STRUCTURE
from recoherence.multimode_band import MAX_MODES, _MODE_BLOCK, _cell_volume
from recoherence.single_mode import _envelope, _mode_shift, _modulation, _per_mode

# Frozen from a 30-digit mpmath evaluation of the continuum band integral
# at r = 1, theta = 0, center = 3.34, half_width = 0.334, solid angle 0.1,
# apex/half_time = 0.1.
WINDOWED_EXACT = 1.0042766019514201e-06
WINDOWED_LEADING = 1.0182873221274423e-06
T0_RESOLVED_AT_03 = -2.2337918238083988e-06

EPS = np.finfo(float).eps


def _setup(theta=0.0):
    state = SqueezeState(1.0, theta)
    band = BandSpec(center=3.34, half_width=0.334, solid_angle=0.1)
    traj = Trajectory(apex=0.1, half_time=1.0)
    return state, band, traj


def test_windowed_exact_frozen_value():
    state, band, traj = _setup()
    got = band_coherence_shift_exact(state, band, traj)
    assert math.isclose(got, WINDOWED_EXACT, rel_tol=1e-9)


def test_windowed_leading_frozen_value():
    state, band, traj = _setup()
    with pytest.warns(UserWarning):  # half_width*T = 0.334 trips the gate
        got = band_coherence_shift_leading(state, band, traj)
    assert math.isclose(got, WINDOWED_LEADING, rel_tol=1e-12)


def test_t0_resolved_frozen_value():
    state, band, traj = _setup()
    got = band_coherence_shift_exact(state, band, traj, window_averaged=False, t0=0.3)
    assert math.isclose(got, T0_RESOLVED_AT_03, rel_tol=1e-9)


def test_band_rounding_floor_stays_below_the_value(monkeypatch):
    # band --omega-bar-T 3000 --t0-omega 30 --delta-omega-ratio 0.01: the
    # rounding floor counts the rounding of the integrand's phase, ~6e3 x
    # the sum of its terms, yet stays <= 1e-10 of the value, so tolerances
    # below rounding pass the converged rule and fail a starved one or a
    # doubled budget moved by 1e-10
    state, traj = SqueezeState(1.0), Trajectory(apex=0.1, half_time=1.0)
    band = BandSpec(center=3000.0, half_width=30.0, solid_angle=0.1)
    args = (state, band, traj, False, 0.01)
    want = band_coherence_shift_exact(*args)
    monkeypatch.setattr(oracle_quadrature, "_REL_TOL", 1e-300)
    assert band_coherence_shift_exact(*args) == want
    with monkeypatch.context() as starved:
        starved.setattr(oracle_quadrature, "_ORDER", 2)
        starved.setattr(oracle_quadrature, "_NODES_PER_PERIOD", 16)
        with pytest.raises(ConvergenceError, match="did not stabilise"):
            band_coherence_shift_exact(*args)
    real = multimode_band.integrate_oscillatory

    def nudged(f, lo, hi, oscillations):
        calls = []

        def doubled_moved(x):  # the second call is the doubled budget
            calls.append(x)
            return f(x) * (1.0 + 1e-10 * (len(calls) == 2))

        return real(doubled_moved, lo, hi, oscillations)

    monkeypatch.setattr(multimode_band, "integrate_oscillatory", nudged)
    with pytest.raises(ConvergenceError, match="did not stabilise"):
        band_coherence_shift_exact(*args)


def test_windowed_shift_is_positive_for_squeezed_bands():
    state, band, traj = _setup()
    assert band_coherence_shift_exact(state, band, traj) > 0.0
    degenerate = SqueezeState(0.0)
    assert band_coherence_shift_exact(degenerate, band, traj) == 0.0


def test_leading_error_shrinks_quadratically():
    state, _, traj = _setup()
    errors = []
    for k in range(5):
        band = BandSpec(center=3.34, half_width=0.334 / 2**k, solid_angle=0.1)
        exact = band_coherence_shift_exact(state, band, traj)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k = 0 trips the narrowness gate
            leading = band_coherence_shift_leading(state, band, traj)
        errors.append(abs(exact - leading) / abs(exact))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    for ratio in ratios:
        assert 3.9 < ratio < 4.1


def test_mode_sum_converges_to_continuum():
    for theta in (0.0, 0.7):
        state, band, traj = _setup(theta)
        target = band_coherence_shift_exact(
            state, band, traj, window_averaged=False, t0=0.3
        )
        errors = {
            n: abs(mode_sum_oracle(state, band, traj, n, 0.3) - target) / abs(target)
            for n in (1, 16, 64, 256)
        }
        assert errors[1] < 0.05
        assert errors[16] < 1e-4
        assert errors[64] < 1e-5
        assert errors[256] < 1e-6
        assert errors[16] > errors[64] > errors[256]


def test_single_mode_limit_of_the_mode_sum():
    # one midpoint cell is the single-mode shift with the matched volume
    for theta in (0.0, 0.7):
        state, band, traj = _setup(theta)
        cell_inverse_volume = (
            band.solid_angle
            / (2.0 * math.pi) ** 3
            * band.center**2
            * (2.0 * band.half_width)
        )
        mode = ModeSpec(omega=band.center, volume=1.0 / cell_inverse_volume)
        one = mode_sum_oracle(state, band, traj, 1, 0.3)
        single = coherence_shift(state, mode, traj, 0.3).value
        assert math.isclose(one, single, rel_tol=1e-12)


def test_t0_resolved_tracks_the_modulation_sign():
    state, band, traj = _setup()
    # inside the emission window (phase near pi) the band shift turns positive
    t0_window = math.pi / (2.0 * band.center)
    assert band_coherence_shift_exact(state, band, traj, window_averaged=False, t0=t0_window) > 0.0
    assert band_coherence_shift_exact(state, band, traj, window_averaged=False, t0=0.0) < 0.0


def test_band_edges_and_ratio():
    band = BandSpec(center=2.0, half_width=0.5, solid_angle=0.2)
    assert band.edges == (1.5, 2.5)
    assert math.isclose(band.bandwidth_ratio, 0.25, rel_tol=1e-15)


def test_band_validation():
    with pytest.raises(DomainError):
        BandSpec(center=0.0, half_width=0.1, solid_angle=0.1)
    with pytest.raises(DomainError):
        BandSpec(center=1.0, half_width=1.0, solid_angle=0.1)  # not < center
    with pytest.raises(DomainError):
        BandSpec(center=1.0, half_width=0.1, solid_angle=-0.1)
    # a half-width below the centre's resolution: the edges round to it
    with pytest.raises(RangeError, match="rounds to the center"):
        BandSpec(center=3.34, half_width=3.34e-300, solid_angle=0.1)


def test_wide_solid_angle_warns():
    with pytest.warns(UserWarning):
        BandSpec(center=1.0, half_width=0.1, solid_angle=4.0)


def test_mode_sum_validation():
    state, band, traj = _setup()
    with pytest.raises(DomainError):
        mode_sum_oracle(state, band, traj, 0)
    with pytest.raises(DomainError):
        mode_sum_oracle(state, band, traj, 16, float("inf"))
    for count in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="n_modes must be an integer"):
            mode_sum_oracle(state, band, traj, count)


def test_overflow_is_a_range_error():
    # R/T = 1e160: R^2 leaves double precision in every route
    state, band, _ = _setup()
    traj = Trajectory(apex=1e160, half_time=1.0)
    with pytest.raises(RangeError):
        band_coherence_shift_exact(state, band, traj)
    with pytest.raises(RangeError):
        band_coherence_shift_exact(state, band, traj, window_averaged=False, t0=0.3)
    with pytest.warns(UserWarning), pytest.raises(RangeError):
        band_coherence_shift_leading(state, band, traj)  # warns: not narrow
    with pytest.raises(RangeError):
        mode_sum_oracle(state, band, traj, 64, 0.3)
    # a cell volume that underflows to 0 is refused, not divided by
    high = BandSpec(center=1e300, half_width=1e299, solid_angle=0.1)
    with pytest.raises(RangeError, match="cell volume"):
        mode_sum_oracle(state, high, Trajectory(0.1, 1.0), 4)


def test_mode_sum_cap_rejected_before_allocation():
    state, band, traj = _setup()
    with pytest.raises(DomainError, match=f"\\[1, {MAX_MODES}\\]"):
        mode_sum_oracle(state, band, traj, MAX_MODES + 1)


def _per_mode_terms(state, band, traj, n, t0):
    """The frequency, shift and modulation of each of n modes through the
    per-mode kernels: a sine and a cosine of each mode's own omega*T and
    half phase."""
    cell = 2.0 * band.half_width / n
    omegas = band.edges[0] + (np.arange(n) + 0.5) * cell
    shifts = _mode_shift(omegas, _cell_volume(band.solid_angle, omegas, cell), traj)
    return omegas, shifts, _modulation(state.r, state.theta, omegas, t0)


def _mp_mode_sum(state, band, traj, n, t0):
    """The discrete sum at 50 digits, at the float band edge and cell."""
    with mpmath.workdps(50):
        r, theta, t0, apex, half_time, solid_angle, lo, cell = map(
            mpmath.mpf,
            (state.r, state.theta, t0, traj.apex, traj.half_time,
             band.solid_angle, band.edges[0], 2.0 * band.half_width / n),
        )
        coupling = -8 * mpmath.pi * mpmath.mpf(FINE_STRUCTURE) * solid_angle * cell
        total = mpmath.mpf(0)
        for k in range(n):
            omega = lo + (k + mpmath.mpf(0.5)) * cell
            x = omega * half_time
            j2 = (3 / x**3 - 1 / x) * mpmath.sin(x) - 3 * mpmath.cos(x) / x**2
            g = mpmath.sinh(r) * (
                mpmath.cosh(r) * mpmath.cos(2 * omega * t0 - theta) + mpmath.sinh(r)
            )
            envelope = (16 * apex * j2 / x) ** 2
            total += coupling * omega / (2 * mpmath.pi) ** 3 * envelope * g
        return total


@pytest.mark.parametrize(
    "n", [1, 256, _MODE_BLOCK - 1, _MODE_BLOCK, _MODE_BLOCK + 1, 3 * _MODE_BLOCK + 7]
)
def test_mode_sum_is_the_per_mode_sum_to_rounding(n):
    # the mode sum turns each block's first phasor instead of taking a sine
    # and cosine a mode; a mode's frequency is rounded by up to eps*omega,
    # which moves omega*T by eps*omega*T and the phase 2*omega*t0 - theta by
    # eps*|phase|, and each route rounds them its own way
    traj = Trajectory(apex=0.1, half_time=1.0)
    for theta, center, half_width, t0 in (
        (0.7, 3.34, 0.334, 1e4),  # the half phase turns ~1e4 times over the band
        (1.3, 2.0, 0.5, 0.3),  # omega*T from 1.5 to 2.5: across the j2 series cut
    ):
        state = SqueezeState(1.0, theta)
        band = BandSpec(center=center, half_width=half_width, solid_angle=0.1)
        got = mode_sum_oracle(state, band, traj, n, t0)
        omegas, shifts, g = _per_mode_terms(state, band, traj, n, t0)
        phase = np.abs(2.0 * omegas * t0 - theta)
        x = omegas * traj.half_time
        scale = np.abs(shifts) * modulation_max(state) * (1.0 + x + phase)
        tol = 64 * EPS * math.fsum(scale)
        assert abs(got - math.fsum(shifts * g)) <= tol, (t0, "per-mode sum")
        if n <= 256:
            want = _mp_mode_sum(state, band, traj, n, t0)
            assert abs(got - want) <= tol, (t0, "mpmath")


@pytest.mark.parametrize("t0", [1e308, -1e308])
def test_emission_phase_overflow_is_named(t0):
    # refused before any block runs, so numpy warns nothing (pyproject turns
    # a RuntimeWarning into an error)
    state, band, traj = _setup()
    with pytest.raises(RangeError, match="emission phase overflows"):
        mode_sum_oracle(state, band, traj, 16, t0)


def test_mode_sum_memory_is_one_array_and_a_block(monkeypatch):
    # one workspace a worker (four real and one complex block-sized arrays,
    # 768 KiB), the shared offsets and turn tables (640 KiB) and 8 bytes a
    # block, whatever the mode count: a block-sized array allocated per
    # block, or 8 bytes a mode, breaks the bound
    state, band, traj = _setup()
    _pin_workers(monkeypatch, multimode_band._MAX_WORKERS)
    bound = multimode_band._MAX_WORKERS * 2**20 + 2**17
    for n in (10**6, 10**7):
        tracemalloc.start()
        try:
            mode_sum_oracle(state, band, traj, n, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, peak)


def _pin_workers(monkeypatch, cpus):
    """Report ``cpus`` CPUs to the mode sum; return the list of threads it
    starts."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(multimode_band, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(multimode_band.threading, "Thread", Thread)
    return started


@pytest.mark.parametrize(
    "n",
    [1, _MODE_BLOCK - 1, _MODE_BLOCK, _MODE_BLOCK + 1, 3 * _MODE_BLOCK + 7, 10**6],
)
def test_mode_sum_bits_do_not_depend_on_workers(monkeypatch, n):
    state, band, traj = _setup(0.7)
    bits = set()
    for cpus in (1, 2, 4):
        started = _pin_workers(monkeypatch, cpus)
        bits.add(mode_sum_oracle(state, band, traj, n, 0.3).hex())
        blocks = -(-n // _MODE_BLOCK)
        assert len(started) == min(cpus, blocks) - 1  # the caller is one
    assert len(bits) == 1


def test_workers_are_capped(monkeypatch):
    state, band, traj = _setup()
    started = _pin_workers(monkeypatch, 64)
    mode_sum_oracle(state, band, traj, 10**6, 0.3)
    assert len(started) == multimode_band._MAX_WORKERS - 1


@pytest.mark.parametrize("cpus", [2, 4])
def test_every_block_keeps_the_callers_errstate(monkeypatch, cpus):
    state, band, traj = _setup()
    seen = []

    def cell_volume(solid_angle, omega, width, out=None):
        seen.append((threading.current_thread(), np.geterr()["under"]))
        return _cell_volume(solid_angle, omega, width, out)

    monkeypatch.setattr(multimode_band, "_cell_volume", cell_volume)
    started = _pin_workers(monkeypatch, cpus)
    with np.errstate(under="raise"):
        mode_sum_oracle(state, band, traj, 4 * _MODE_BLOCK, 0.3)
    assert len(seen) == 4 and {under for _, under in seen} == {"raise"}
    assert {thread for thread, _ in seen} > set(started)


def _fail_blocks(monkeypatch, band, n, starts, before):
    """Make the blocks of an n-mode sum at ``starts`` raise RangeError, each
    after before(start)."""
    cell = 2.0 * band.half_width / n
    at = {band.edges[0] + (start + 0.5) * cell: start for start in starts}

    def cell_volume(solid_angle, omega, width, out=None):
        start = at.get(np.ravel(omega)[0])
        if start is None:
            return _cell_volume(solid_angle, omega, width, out)
        before(start)
        raise RangeError(f"injected at block {start}")

    monkeypatch.setattr(multimode_band, "_cell_volume", cell_volume)


@pytest.mark.parametrize("cpus", [2, 4])
def test_worker_failure_raises_the_serial_exception(monkeypatch, capfd, cpus):
    # blocks start at 0, B, 2B and 3B; worker 1 owns B at both counts, and
    # the serial loop stops at B
    state, band, traj = _setup()
    n = 3 * _MODE_BLOCK + 7
    raised_on = []
    _fail_blocks(
        monkeypatch,
        band,
        n,
        (_MODE_BLOCK, 3 * _MODE_BLOCK),
        lambda start: raised_on.append(threading.current_thread()),
    )
    for workers in (1, cpus):
        raised_on.clear()
        _pin_workers(monkeypatch, workers)
        with pytest.raises(RangeError, match=f"injected at block {_MODE_BLOCK}$"):
            mode_sum_oracle(state, band, traj, n, 0.3)
    assert threading.current_thread() not in raised_on
    assert capfd.readouterr().err == ""


def test_the_lowest_failing_block_wins_when_it_fails_first(monkeypatch):
    # at two workers the caller owns blocks 0 and 2B, the thread owns B and
    # 3B; B fails while the caller is inside 2B, which fails after it
    state, band, traj = _setup()
    n = 3 * _MODE_BLOCK + 7
    in_2b, b_raised = threading.Event(), threading.Event()
    b_thread = []

    def before(start):
        if start == _MODE_BLOCK:
            assert in_2b.wait(30)
            b_thread.append(threading.current_thread())
            b_raised.set()
        else:
            in_2b.set()
            assert b_raised.wait(30)
            b_thread[0].join(30)  # B's failure is recorded when it ends

    _fail_blocks(monkeypatch, band, n, (_MODE_BLOCK, 2 * _MODE_BLOCK), before)
    _pin_workers(monkeypatch, 2)
    with pytest.raises(RangeError, match=f"injected at block {_MODE_BLOCK}$"):
        mode_sum_oracle(state, band, traj, n, 0.3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40))
def test_per_mode_kernels_written_into_out_have_the_allocating_bits(omegas):
    # the mode sum's workspace route: the cell volume, the envelope over
    # j2(x)/x and the shift written into out, the same operations in the
    # same order as the allocating route
    omega = np.array(omegas)
    traj = Trajectory(apex=0.1, half_time=1.3)
    out = np.full(omega.size, np.nan)
    volume = _cell_volume(0.1, omega, 0.01)
    assert _cell_volume(0.1, omega, 0.01, out=out) is out
    assert out.tobytes() == volume.tobytes()
    m = j2_over_x(omega * traj.half_time)
    assert _envelope(m, traj.apex, m) is m
    shift = _per_mode(omega, out, m, out)
    assert shift is out and out.tobytes() == _mode_shift(omega, volume, traj).tobytes()

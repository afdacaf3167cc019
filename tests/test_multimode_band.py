import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recoherence import (
    BandSpec,
    ConvergenceError,
    DomainError,
    ModeSpec,
    RangeError,
    SQUEEZE_CAP,
    SqueezeState,
    Trajectory,
    band_coherence_shift_exact,
    band_coherence_shift_leading,
    coherence_shift,
    mode_sum_oracle,
    modulation_max,
    modulation_min,
)
from recoherence import multimode_band, oracle_quadrature
from recoherence._special import _j2_squared_over_x, phase_weight, phase_weight_min
from recoherence.constants import FINE_STRUCTURE
from recoherence.multimode_band import MAX_MODES, _MODE_BLOCK, _cell_volume, _turns
from recoherence.single_mode import _emission_phase, _mode_shift

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
    # at a power of two only the upper edge rounds to the centre (a tie to
    # even), where the doubles are twice as far apart as below it
    with pytest.raises(RangeError, match="rounds to the center"):
        BandSpec(center=4.0, half_width=2.0**-51, solid_angle=0.1)


def test_wide_solid_angle_warns():
    with pytest.warns(UserWarning):
        BandSpec(center=1.0, half_width=0.1, solid_angle=4.0)
    with warnings.catch_warnings():  # up to 0.4*pi sr the beam is narrow
        warnings.simplefilter("error")
        BandSpec(center=1.0, half_width=0.1, solid_angle=1.2)


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
    return omegas, shifts, phase_weight(state.r, _emission_phase(state.theta, omegas, t0))


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


@pytest.mark.parametrize(
    "step",
    [
        0.668 / 10**6,  # cell*T of the band 3.34 +- 0.334 at 10^6 modes, T = 1
        0.668 / 10**6 * 1e4,  # its cell*t0 at t0 = 1e4
        6.68,  # above 2*pi
    ],
)
def test_turn_table_is_e_to_the_i_j_step_to_rounding(step):
    # every entry of the doubled table within 4 eps of the 50-digit
    # e^{i*j*step} (1.6 eps measured is typical; the worst of these is
    # 2.9 eps); the reference turns by e^{i*step} one mode at a time
    table = _turns(np.empty(_MODE_BLOCK, dtype=complex), step)
    with mpmath.workdps(50):
        turn, ref = mpmath.expj(step), mpmath.mpc(1)
        errors = []
        for value in table.tolist():
            errors.append(complex(ref - value))
            ref *= turn
    assert np.max(np.abs(errors)) <= 4 * EPS


@pytest.mark.parametrize("t0", [1e308, -1e308])
def test_emission_phase_overflow_is_named(t0):
    # refused before any block runs, so numpy warns nothing (pyproject turns
    # a RuntimeWarning into an error)
    state, band, traj = _setup()
    with pytest.raises(RangeError, match="emission phase overflows"):
        mode_sum_oracle(state, band, traj, 16, t0)


@settings(max_examples=100, deadline=None)
@given(
    r=st.one_of(st.floats(0.01, 3.0), st.floats(0.01, 20.0)),
    theta=st.floats(-math.pi, math.pi),
    center=st.floats(0.1, 100.0),
    # t0 log-uniform up to 1e300, and often near the bound 2^32 rad
    exponent=st.one_of(st.floats(-3.0, 300.0), st.floats(6.0, 11.0)),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(r=1.0, theta=0.0, center=1.0, exponent=math.log10(2.0**31), sign=1.0)
@example(r=1.0, theta=-0.5, center=1.0, exponent=math.log10(2.0**31), sign=1.0)
@example(r=20.0, theta=1.0, center=3.34, exponent=300.0, sign=-1.0)
def test_mode_sum_and_single_mode_share_the_phase_bound(r, theta, center, exponent, sign):
    # one cell is the single mode at its midpoint in the matched volume, at
    # the same emission phase 2*omega*t0 - theta.  Above 2^32 rad both routes
    # refuse it, and so does the t0-resolved band integral.  Below, both stay
    # within 1e-6 of g's swing sinh(2r) of the value at the exact phase of
    # the double inputs (50-digit mpmath), the resolution the bound promises:
    # ulp(phase) <= 2^-20 rad
    t0 = sign * 10.0**exponent
    state = SqueezeState(r, theta)
    band = BandSpec(center=center, half_width=0.1 * center, solid_angle=0.1)
    traj = Trajectory(apex=0.1, half_time=1.0)
    cell = 2.0 * band.half_width
    omega = band.edges[0] + 0.5 * cell
    mode = ModeSpec(omega=omega, volume=_cell_volume(band.solid_angle, omega, cell))
    with mpmath.workdps(50):
        phase = 2 * mpmath.mpf(omega) * mpmath.mpf(t0) - mpmath.mpf(theta)
        if abs(phase) > 2**32:
            for route in (
                lambda: mode_sum_oracle(state, band, traj, 1, t0),
                lambda: coherence_shift(state, mode, traj, t0),
                # its upper edge's phase is larger still
                lambda: band_coherence_shift_exact(
                    state, band, traj, window_averaged=False, t0=t0
                ),
            ):
                with pytest.raises(RangeError, match="emission phase"):
                    route()
            return
        g = mpmath.sinh(r) * (mpmath.cosh(r) * mpmath.cos(phase) + mpmath.sinh(r))
        shift = _mode_shift(omega, mode.volume, traj)
        want = float(shift * g)
    tol = 1e-6 * abs(shift) * (modulation_max(state) - modulation_min(state))
    assert abs(mode_sum_oracle(state, band, traj, 1, t0) - want) <= tol
    assert abs(coherence_shift(state, mode, traj, t0).value - want) <= tol


def test_mode_sum_checks_the_phase_bound_at_its_top_mode():
    # modes at 0.925, 0.975, 1.025 and 1.075: at this t0 only the top mode's
    # phase 2*omega*t0 is above 2^32 rad, so checking the block's first mode
    # or any mode but the last is not enough
    state, traj = SqueezeState(1.0), Trajectory(apex=0.1, half_time=1.0)
    band = BandSpec(center=1.0, half_width=0.1, solid_angle=0.1)
    t0 = 2.0**31 / 1.05
    assert 2.0 * 1.025 * t0 < 2.0**32 < 2.0 * 1.075 * t0
    with pytest.raises(RangeError, match="above its bound"):
        mode_sum_oracle(state, band, traj, 4, t0)
    assert math.isfinite(mode_sum_oracle(state, band, traj, 1, t0))  # at 1.0


def test_mode_sum_memory_is_one_array_and_a_block():
    # the arrays alive at the peak: the block's mode steps and the two turn
    # tables (one real and two complex block-sized arrays), then the
    # workspace (three real and one complex), allocated once the tables are
    # built, so the tables' build temporaries are gone by then; under a
    # 64 KiB slack, whatever the mode count, so a block-sized array
    # allocated per block, or 8 bytes a mode, breaks the bound.  Also for
    # bands that reach below the j2 series cut at omega*T = 2 (2.0 +- 0.5)
    # or lie wholly below it (1.0 +- 0.5)
    state, _, traj = _setup()
    real, complex_ = 8 * _MODE_BLOCK, 16 * _MODE_BLOCK
    bound = (real + 2 * complex_) + (3 * real + complex_) + 2**16
    for center, half_width in ((3.34, 0.334), (2.0, 0.5), (1.0, 0.5)):
        band = BandSpec(center=center, half_width=half_width, solid_angle=0.1)
        for n in (10**6, 10**7):
            tracemalloc.start()
            try:
                mode_sum_oracle(state, band, traj, n, 0.3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (center, n, peak)


@pytest.mark.parametrize(
    "n",
    [1, _MODE_BLOCK - 1, _MODE_BLOCK, _MODE_BLOCK + 1, 3 * _MODE_BLOCK + 7, 10**6],
)
def test_mode_sum_bits_do_not_depend_on_concurrent_callers(n):
    # the mode sum holds no state between calls: called at once from 1, 2
    # and 4 of the caller's worker threads it gives the bits of a call in
    # this thread
    state, band, traj = _setup(0.7)
    want = mode_sum_oracle(state, band, traj, n, 0.3).hex()
    for workers in (1, 2, 4):
        with ThreadPoolExecutor(workers) as pool:
            calls = [
                pool.submit(mode_sum_oracle, state, band, traj, n, 0.3)
                for _ in range(workers)
            ]
            assert {call.result(timeout=60).hex() for call in calls} == {want}


def test_mode_sum_starts_no_thread(monkeypatch):
    # at no worker thread: the blocks run in the calling thread
    state, band, traj = _setup()
    started = []
    monkeypatch.setattr(threading.Thread, "start", started.append)
    mode_sum_oracle(state, band, traj, 10**6, 0.3)
    assert started == []


def _on_each_block(monkeypatch, each):
    """Call each(first mode's 1/(omega*T)) as every block of the mode sum
    starts its trigonometric bracket."""

    def j2_squared_over_x(u, *args):
        each(float(u[0]))
        return _j2_squared_over_x(u, *args)

    monkeypatch.setattr(multimode_band, "_j2_squared_over_x", j2_squared_over_x)


@pytest.mark.parametrize("blocks", [2, 4])
def test_every_block_keeps_the_callers_errstate(monkeypatch, blocks):
    state, band, traj = _setup()
    seen = []
    _on_each_block(monkeypatch, lambda u: seen.append(np.geterr()["under"]))
    with np.errstate(under="raise"):
        mode_sum_oracle(state, band, traj, blocks * _MODE_BLOCK, 0.3)
    assert seen == ["raise"] * blocks


def _fail_blocks(monkeypatch, band, traj, n, starts):
    """Make the blocks of an n-mode sum at ``starts`` raise RangeError; return
    the list of the blocks started."""
    cell = 2.0 * band.half_width / n
    at = {(1.0 / traj.half_time) / (band.edges[0] + (start + 0.5) * cell): start
          for start in range(0, n, _MODE_BLOCK)}
    started = []

    def each(u):
        started.append(at[u])
        if at[u] in starts:
            raise RangeError(f"injected at block {at[u]}")

    _on_each_block(monkeypatch, each)
    return started


@pytest.mark.parametrize("first", [2, 4])
def test_the_first_failing_block_ends_the_sum(monkeypatch, capfd, first):
    # blocks 0 to 5: the first failing block raises, and no later block runs
    state, band, traj = _setup()
    n = 5 * _MODE_BLOCK + 7
    fails = (first * _MODE_BLOCK, (first + 1) * _MODE_BLOCK)
    started = _fail_blocks(monkeypatch, band, traj, n, fails)
    with pytest.raises(RangeError, match=f"injected at block {fails[0]}$"):
        mode_sum_oracle(state, band, traj, n, 0.3)
    assert started == [k * _MODE_BLOCK for k in range(first + 1)]
    assert capfd.readouterr().err == ""


def test_the_lowest_failing_block_wins_when_it_fails_first(monkeypatch):
    state, band, traj = _setup()
    n = 3 * _MODE_BLOCK + 7
    started = _fail_blocks(
        monkeypatch, band, traj, n, (_MODE_BLOCK, 2 * _MODE_BLOCK)
    )
    with pytest.raises(RangeError, match=f"injected at block {_MODE_BLOCK}$"):
        mode_sum_oracle(state, band, traj, n, 0.3)
    assert started == [0, _MODE_BLOCK]


@pytest.mark.parametrize(
    "apex, half_time, center, message",
    [
        # the top mode's cell volume underflows to 0
        (0.1, 1.0, 1e300, "phase-space cell volume underflows double precision"),
        # R^2 past double precision: the sum overflows with it
        (1e160, 1.0, 3.34, "mode sum overflows double precision"),
        # (16*R)^2 overflows and M does not: the sum is finite
        (1e153, 1.0, 3.34, None),
        (1e155, 1.0, 1e3, None),
        # omega*T near 1e300, and past double precision at the top modes:
        # every shift rounds to 0
        (0.1, 1e300, 1.0, None),
        (1.0, 1.7e307, 10.0, None),
    ],
)
def test_mode_sum_at_the_edges_is_refused_or_finite(
    capfd, apex, half_time, center, message
):
    state = SqueezeState(1.0, 0.7)
    band = BandSpec(center=center, half_width=0.1 * center, solid_angle=0.1)
    traj = Trajectory(apex=apex, half_time=half_time)
    for n in (4, 3 * _MODE_BLOCK + 7):
        if message is None:
            got = mode_sum_oracle(state, band, traj, n, 0.3)
            assert math.isfinite(got)
            if band.edges[1] * half_time == math.inf:
                # the sum ends at the block past double precision: each a
                # rounds to +0, and the negative coupling gives -0.0
                assert got.hex() == "-0x0.0p+0", n
        else:
            with pytest.raises(RangeError, match=message):
                mode_sum_oracle(state, band, traj, n, 0.3)
    assert capfd.readouterr().err == ""


@settings(max_examples=60, deadline=None)
@given(
    r=st.one_of(st.floats(0.0, 3.0), st.floats(0.0, SQUEEZE_CAP)),
    theta=st.floats(-math.pi, math.pi),
    t0=st.floats(-1e4, 1e4),
    center=st.floats(0.1, 100.0),
    ratio=st.floats(1e-3, 0.9),
    n=st.integers(1, 200),
)
# every mode inside the recoherence window: the sum comes within 1e-4 of
# the bound
@example(r=2.0, theta=0.0, t0=math.pi / 6.68, center=3.34, ratio=1e-3, n=16)
def test_mode_sum_recoheres_at_most_the_paper_bound(r, theta, t0, center, ratio, n):
    # every shift is <= 0 and every weight >= g_min = -(1 - e^{-2r})/2, so
    # the sum is at most |g_min| * sum|shift_k|.  Slack: the mode sum forms
    # each j2(x)/x from turned phasors, off by rounding of order eps*x, and
    # adds |g_min| * sum(a) and the non-positive sinh(2r) * sum(a*c^2) apart
    state = SqueezeState(r, theta)
    band = BandSpec(center=center, half_width=ratio * center, solid_angle=0.1)
    traj = Trajectory(apex=0.1, half_time=1.0)
    got = mode_sum_oracle(state, band, traj, n, t0)
    omegas, shifts, _ = _per_mode_terms(state, band, traj, n, t0)
    size = np.abs(shifts)
    bound = -phase_weight_min(r) * math.fsum(size)
    slack = -phase_weight_min(r) * 64 * EPS * math.fsum(size * (1.0 + omegas))
    assert got <= bound + slack, (got, bound, slack)


@settings(max_examples=40, deadline=None)
@given(
    r=st.one_of(st.floats(0.0, 3.0), st.floats(0.0, SQUEEZE_CAP)),
    theta=st.floats(-math.pi, math.pi),
    t0=st.floats(-30.0, 30.0),
    center=st.floats(0.1, 30.0),
    ratio=st.floats(1e-3, 0.9),
)
# the whole band at the centre of the recoherence window (2*omega*t0 - theta
# = -pi at every omega): the t0-resolved value is |g_min| * integral|shift|
@example(r=2.0, theta=math.pi, t0=0.0, center=3.34, ratio=0.1)
# a subnormal r: every term lies below the least normal double and rounds by
# an absolute amount, which the refinement check counts
@example(r=2.2250738585e-313, theta=0.0, t0=0.0, center=1.0, ratio=0.5)
def test_band_recoheres_at_most_the_paper_bound(r, theta, t0, center, ratio):
    # the shift is <= 0 at every omega and g >= g_min = -(1 - e^{-2r})/2, so
    # the t0-resolved band is at most |g_min| * integral|shift|; the window
    # average g_avg > -1/3 keeps the windowed band below a third of it, two
    # thirds of the vacuum loss integral|shift|/2
    state = SqueezeState(r, theta)
    band = BandSpec(center=center, half_width=ratio * center, solid_angle=0.1)
    traj = Trajectory(apex=0.1, half_time=1.0)
    lo, hi = band.edges
    quad = oracle_quadrature

    def slack(span, scale):
        # what integrate_oscillatory accepts at panels sized by this span:
        # _REL_TOL of the value plus its rounding floor, _ROUNDING times the
        # phase factor times the sum of max(|term|, tiny).  The bound is met
        # only where the terms share one sign, so their sum is the bound
        oscillations = 2.0 * band.half_width * span / math.pi
        budget = 2 * quad._NODES_PER_PERIOD
        nodes = quad._panel_nodes(lo, hi, oscillations, budget)[0].size
        floor = (1.0 + 2.0 * span * hi) * (scale + nodes * np.finfo(float).tiny)
        return quad._REL_TOL * scale + quad._ROUNDING * floor

    size = quad.integrate_oscillatory(
        lambda omega: -_mode_shift(omega, _cell_volume(0.1, omega, 1.0), traj),
        lo,
        hi,
        2.0 * band.half_width / math.pi,  # the windowed band's panels
    )
    got = band_coherence_shift_exact(state, band, traj, window_averaged=False, t0=t0)
    bound = -phase_weight_min(r) * size
    tol = slack(1.0 + abs(t0), bound) + slack(1.0, bound)
    assert got <= bound + tol, (got, bound, tol)
    got = band_coherence_shift_exact(state, band, traj)
    bound = size / 3.0
    assert got <= bound + 2.0 * slack(1.0, bound), (got, bound)

import math

import numpy as np
import pytest

from recoherence import (
    CoherenceResult,
    ModeSpec,
    RangeError,
    SqueezeState,
    Trajectory,
    coherence_shift,
    emission_window,
    long_time_average,
    max_recoherence,
    mode_envelope,
    modulation,
    modulation_max,
    modulation_min,
    unitarity_sum,
    windowed_coherence_shift,
    windowed_modulation,
)
from recoherence.single_mode import _emission_phase

# Reference values frozen from an independent 50-digit mpmath evaluation
# of the closed forms (hyperbolics, arctan window average, spherical
# Bessel envelope), agreed to 30 digits with direct mpmath quadrature of
# the underlying loop double integral.
W_R_CASES = [
    # (r, theta, t0) -> shift, for omega = 3.34, V = (2 pi/omega)^3,
    # apex/half_time = 0.1
    (1.0, 0.0, 0.0, -5.6911352055136495e-04),
    (1.0, 0.0, 0.3, -1.1042876465755651e-04),
    (1.0, 0.0, 0.7, -2.3429269410663873e-04),
    (1.0, 0.7, 0.2, -5.0594678769481919e-04),
]

WINDOWED_MODULATION = [
    (0.1, -0.058062678145835273),
    (0.5, -0.2063467138049783),
    (1.0, -0.28579073378888868),
    (1.3, -0.30710426692716228),
    (2.0, -0.32683234929751891),
    (5.0, -0.33331719120587833),
    (10.0, -0.33333333260047871),
]

ENVELOPE_AT_PI = 2304.0 / math.pi**6  # omega*T = pi, apex = half_time = 1
WINDOW_WIDTH_R1_RATE2 = 0.70502684355523799  # 2*atan(1/e)


def _setup(r=1.0, theta=0.0):
    state = SqueezeState(r, theta)
    mode = ModeSpec(omega=3.34, volume=(2.0 * math.pi / 3.34) ** 3)
    traj = Trajectory(apex=0.1, half_time=1.0)
    return state, mode, traj


@pytest.mark.parametrize("r,theta,t0,want", W_R_CASES)
def test_coherence_shift_frozen_values(r, theta, t0, want):
    state, mode, traj = _setup(r, theta)
    result = coherence_shift(state, mode, traj, t0)
    assert isinstance(result, CoherenceResult)
    assert math.isclose(result.value, want, rel_tol=1e-13)
    assert math.isclose(result.contrast_factor, math.exp(want), rel_tol=1e-13)


def test_mode_envelope_frozen_value():
    mode = ModeSpec(omega=math.pi, volume=1.0)
    traj = Trajectory(apex=1.0, half_time=1.0)
    assert math.isclose(mode_envelope(mode, traj), ENVELOPE_AT_PI, rel_tol=1e-12)


def test_mode_envelope_small_frequency_limit():
    traj = Trajectory(apex=1.0, half_time=1.0)
    x = 1e-4
    got = mode_envelope(ModeSpec(omega=x, volume=1.0), traj)
    # M -> (256/225) R^2 (omega T)^2 as omega T -> 0
    assert math.isclose(got, 256.0 / 225.0 * x * x, rel_tol=1e-7)


def test_mode_envelope_vanishes_at_bessel_zero():
    # first positive zero of the spherical Bessel j2 (50-digit mpmath root)
    zero = 5.7634591968945498
    traj = Trajectory(apex=1.0, half_time=1.0)
    near = mode_envelope(ModeSpec(omega=zero, volume=1.0), traj)
    away = mode_envelope(ModeSpec(omega=3.34, volume=1.0), traj)
    assert near < 1e-25 * away


def test_modulation_extremes():
    state = SqueezeState(1.0)
    unit = ModeSpec(omega=1.0, volume=1.0)
    g0 = modulation(state, unit, 0.0)
    gpi = modulation(state, unit, math.pi / 2.0)  # phase = pi at omega = 1
    assert math.isclose(g0, modulation_max(state), rel_tol=1e-14)
    assert math.isclose(gpi, modulation_min(state), rel_tol=1e-14)
    assert math.isclose(modulation_max(state), 0.5 * math.expm1(2.0), rel_tol=1e-14)
    assert math.isclose(modulation_min(state), 0.5 * math.expm1(-2.0), rel_tol=1e-14)


def test_modulation_min_is_deep_but_bounded():
    # g_min lies in (-1/2, 0); the gap e^{-2r}/2 drops below one ulp of 1/2
    # around r = 18, where double precision pins the value to -1/2 exactly
    for r in (0.5, 2.0, 10.0):
        g = modulation_min(SqueezeState(r))
        assert -0.5 < g < 0.0
    assert modulation_min(SqueezeState(40.0)) == -0.5


def test_shift_periodicity_in_emission_time():
    state, mode, traj = _setup()
    period = math.pi / mode.omega
    a = coherence_shift(state, mode, traj, 0.17).value
    b = coherence_shift(state, mode, traj, 0.17 + period).value
    assert math.isclose(a, b, rel_tol=1e-12)


def test_squeeze_phase_shifts_the_emission_clock():
    # theta enters only through 2*omega*t0 - theta
    state_a, mode, traj = _setup(1.0, 0.7)
    state_b = SqueezeState(1.0, 0.0)
    delay = 0.7 / (2.0 * mode.omega)
    a = coherence_shift(state_a, mode, traj, 0.2).value
    b = coherence_shift(state_b, mode, traj, 0.2 - delay).value
    assert math.isclose(a, b, rel_tol=1e-12)


@pytest.mark.parametrize("r,want", WINDOWED_MODULATION)
def test_windowed_modulation_frozen_values(r, want):
    assert math.isclose(windowed_modulation(SqueezeState(r)), want, rel_tol=1e-13)


def test_windowed_modulation_limits():
    assert windowed_modulation(SqueezeState(0.0)) == 0.0
    # small r: -(2/pi) r + O(r^2)
    r = 1e-6
    got = windowed_modulation(SqueezeState(r))
    assert math.isclose(got, -2.0 * r / math.pi, rel_tol=1e-5)
    # deep squeezing approaches -1/3 from above; the gap is resolvable in
    # double precision up to r ~ 19 and saturates at -1/3 exactly beyond
    for r in (5.0, 10.0):
        g = windowed_modulation(SqueezeState(r))
        assert -1.0 / 3.0 < g < 0.0
    for r in (20.0, 100.0, 300.0):
        g = windowed_modulation(SqueezeState(r))
        assert -1.0 / 3.0 <= g < 0.0


def test_windowed_modulation_monotone_in_r():
    rs = [0.1, 0.3, 0.7, 1.5, 3.0, 6.0]
    vals = [windowed_modulation(SqueezeState(r)) for r in rs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_emission_window_geometry():
    state = SqueezeState(1.0)
    unit = ModeSpec(omega=1.0, volume=1.0)
    window = emission_window(state, unit)
    assert math.isclose(window.width, WINDOW_WIDTH_R1_RATE2, rel_tol=1e-13)
    centre = 0.5 * (window.start + window.end)
    assert math.isclose(centre, math.pi / 2.0, rel_tol=1e-13)  # phase pi at rate 2
    assert not window.degenerate


def test_emission_window_sign_structure():
    state = SqueezeState(1.0)
    unit = ModeSpec(omega=1.0, volume=1.0)
    window = emission_window(state, unit)
    centre = 0.5 * (window.start + window.end)
    assert modulation(state, unit, centre) < 0.0
    assert modulation(state, unit, window.start - 0.05) > 0.0
    assert modulation(state, unit, window.end + 0.05) > 0.0
    # the edges sit where the modulation changes sign
    assert abs(modulation(state, unit, window.start)) < 1e-12


def test_emission_window_degenerate_at_zero_squeeze():
    window = emission_window(SqueezeState(0.0), ModeSpec(omega=1.0, volume=1.0))
    assert window.degenerate
    assert math.isclose(window.width, math.pi / 2.0, rel_tol=1e-14)


def test_emission_window_offset_moves_the_centre():
    unit = ModeSpec(omega=1.0, volume=1.0)
    shifted = emission_window(SqueezeState(1.0, 0.7), unit)
    base = emission_window(SqueezeState(1.0), unit)
    assert math.isclose(shifted.width, base.width, rel_tol=1e-14)
    assert math.isclose(shifted.start - base.start, 0.35, rel_tol=1e-12)


def test_emission_window_below_the_resolution_of_t0():
    # the width 2*arccos(tanh r)/(2*omega) ~ 2e^{-r}/omega keeps its bits,
    # but from r = 37 on (omega = 1, theta = 0) both ends round to the
    # centre's double, so no double t0 selects the window
    unit = ModeSpec(omega=1.0, volume=1.0)
    resolved = emission_window(SqueezeState(36.0), unit)
    assert resolved.start < resolved.end
    for r in (37.0, 40.0):
        window = emission_window(SqueezeState(r), unit)
        assert window.start == window.end and window.width > 0.0, r
    assert emission_window(SqueezeState(40.0), unit).width < 1e-16


def test_emission_phase_bound():
    # |2*omega*t0 - theta| up to 2^32 rad is accepted and anything above it
    # refused: a scalar with RangeError, an array cell as nan
    state, unit = SqueezeState(1.0), ModeSpec(omega=1.0, volume=1.0)
    edge = 2.0**31  # phase 2^32 exactly
    above = math.nextafter(edge, math.inf)
    assert math.isfinite(modulation(state, unit, edge))
    assert math.isfinite(modulation(SqueezeState(1.0, -1.0), unit, edge - 0.5))
    for t0, theta in ((above, 0.0), (-above, 0.0), (edge, -1.0), (1e300, 0.0)):
        with pytest.raises(RangeError, match=r"emission phase .* above its bound 2\*\*32"):
            modulation(SqueezeState(1.0, theta), unit, t0)
    with pytest.raises(RangeError, match="emission phase overflows double precision"):
        modulation(state, unit, 1e308)
    with np.errstate(over="ignore"):  # as in its array callers
        phases = _emission_phase(0.0, 1.0, np.array([edge, above, -above, 1e308, 0.25]))
    assert phases[0] == 2.0**32 and phases[-1] == 0.5
    assert np.isnan(phases[1:4]).all()


def test_windowed_shift_positive_and_bounded():
    state, mode, traj = _setup(2.0)
    shift = windowed_coherence_shift(state, mode, traj)
    bound = max_recoherence(mode, traj)
    assert 0.0 < shift <= bound


def test_windowed_shift_approaches_the_bound():
    _, mode, traj = _setup()
    bound = max_recoherence(mode, traj)
    ratios = [
        windowed_coherence_shift(SqueezeState(r), mode, traj) / bound
        for r in (1.0, 3.0, 10.0)
    ]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.999


def test_long_time_average_never_positive():
    _, mode, traj = _setup()
    assert long_time_average(SqueezeState(0.0), mode, traj) == 0.0
    for r in (0.2, 1.0, 4.0):
        assert long_time_average(SqueezeState(r), mode, traj) < 0.0


def test_unitarity_split():
    _, mode, traj = _setup()
    split = unitarity_sum(mode, traj)
    assert math.isclose(
        split.total, split.vacuum + split.max_shift, rel_tol=1e-14
    )
    # the best squeezed gain wins back exactly two thirds of the vacuum loss
    assert math.isclose(split.max_shift, -2.0 * split.vacuum / 3.0, rel_tol=1e-12)
    assert split.vacuum < 0.0
    assert split.total < 0.0


def test_unitarity_pointwise():
    state, mode, traj = _setup(2.0)
    split = unitarity_sum(mode, traj)
    for k in range(16):
        t0 = k * math.pi / (mode.omega * 16)
        combined = split.vacuum + coherence_shift(state, mode, traj, t0).value
        assert combined < 0.0


def test_overflow_is_a_range_error():
    # at the window centre the shift is positive and grows like apex^2:
    # e^{W_R} is 1.1e301 at apex 300 and above double precision at 320
    state = SqueezeState(1.0)
    mode = ModeSpec(omega=3.34, volume=(2.0 * math.pi / 3.34) ** 3)
    t0 = math.pi / (2.0 * mode.omega)
    result = coherence_shift(state, mode, Trajectory(apex=300.0, half_time=1.0), t0)
    assert 690.0 < result.value < 700.0 and math.isfinite(result.contrast_factor)
    with pytest.raises(RangeError, match="contrast factor"):
        coherence_shift(state, mode, Trajectory(apex=320.0, half_time=1.0), t0)
    with pytest.raises(RangeError, match="mode envelope"):
        coherence_shift(state, mode, Trajectory(apex=1e160, half_time=1.0), t0)

import math
import warnings

import pytest

from recoherence import (
    BandSpec,
    DomainError,
    ModeSpec,
    RangeError,
    SqueezeState,
    Trajectory,
    band_coherence_shift_exact,
    band_coherence_shift_leading,
    coherence_shift,
    mode_sum_oracle,
)
from recoherence.multimode_band import MAX_MODES

# Frozen from a 30-digit mpmath evaluation of the continuum band integral
# at r = 1, theta = 0, center = 3.34, half_width = 0.334, solid angle 0.1,
# apex/half_time = 0.1.
WINDOWED_EXACT = 1.0042766019514201e-06
WINDOWED_LEADING = 1.0182873221274423e-06
T0_RESOLVED_AT_03 = -2.2337918238083988e-06


def _setup():
    state = SqueezeState(1.0)
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
    state, band, traj = _setup()
    target = band_coherence_shift_exact(state, band, traj, window_averaged=False, t0=0.3)
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
    state, band, traj = _setup()
    cell_inverse_volume = (
        band.solid_angle / (2.0 * math.pi) ** 3 * band.center**2 * (2.0 * band.half_width)
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

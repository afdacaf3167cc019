import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from recoherence import (
    CavityScenario,
    DomainError,
    EmptySpaceScenario,
    ModeSpec,
    RangeError,
    Trajectory,
    cavity_estimate,
    cavity_estimate_exact,
    coupling_envelope,
    empty_space_estimate,
    locate_envelope_max,
    max_recoherence,
)

# Frozen from 50-digit mpmath evaluations of the envelope
# F(x) = (32/x^3)^2 * ((x^2-3) sin x + 3 x cos x)^2 and its first maximum.
F_AT_PI = 94.611292459170833  # 9216/pi^4 exactly
F_AT_01 = 4.5446136502382289e-04
X_STAR = 3.342093657365694
F_STAR = 96.380125114124957

# frozen scenario values: cavity at ratio_rt = 0.1 (flight phase 20 pi),
# empty space at ratio_rt = bandwidth = solid angle = 0.1, flight phase 3.34
CAVITY_AVERAGED = 7.9908791447938859e-08
CAVITY_EXACT = 3.6434039998198724e-10
EMPTY_SPACE = 1.1876840892488410e-06


def test_envelope_frozen_values():
    assert math.isclose(coupling_envelope(math.pi), F_AT_PI, rel_tol=1e-13)
    assert math.isclose(coupling_envelope(0.1), F_AT_01, rel_tol=1e-12)
    assert math.isclose(coupling_envelope(X_STAR), F_STAR, rel_tol=1e-12)


def test_envelope_small_x_opening():
    # F -> (1024/225) x^4 for small x
    x = 1e-3
    assert math.isclose(coupling_envelope(x), 1024.0 / 225.0 * x**4, rel_tol=1e-6)


def test_envelope_array_input():
    x = np.array([0.5, 1.0, math.pi, 10.0])
    assert_allclose(coupling_envelope(x), [coupling_envelope(v) for v in x], rtol=1e-15)


def test_envelope_domain():
    with pytest.raises(DomainError):
        coupling_envelope(0.0)
    with pytest.raises(DomainError):
        coupling_envelope(-1.0)
    with pytest.raises(DomainError):
        coupling_envelope(float("nan"))
    with pytest.raises(DomainError):
        coupling_envelope(np.array([1.0, -2.0]))


def test_locate_envelope_max():
    x_star, f_star = locate_envelope_max()
    assert math.isclose(x_star, X_STAR, rel_tol=1e-10)
    assert math.isclose(f_star, F_STAR, rel_tol=1e-12)
    # genuine local maximum
    assert coupling_envelope(x_star - 1e-3) < f_star
    assert coupling_envelope(x_star + 1e-3) < f_star


def test_cavity_frozen_values():
    scenario = CavityScenario.from_ratios(0.1)
    assert math.isclose(scenario.flight_phase, 20.0 * math.pi, rel_tol=1e-13)
    assert math.isclose(cavity_estimate(scenario), CAVITY_AVERAGED, rel_tol=1e-12)
    assert math.isclose(cavity_estimate_exact(scenario), CAVITY_EXACT, rel_tol=1e-12)


def test_cavity_exact_equals_single_mode_bound():
    scenario = CavityScenario.from_ratios(0.37, 2.0, 1.5)
    mode = ModeSpec(omega=2.0 * math.pi / scenario.wavelength, volume=scenario.volume)
    traj = Trajectory(apex=scenario.apex, half_time=scenario.half_time)
    assert math.isclose(
        cavity_estimate_exact(scenario), max_recoherence(mode, traj), rel_tol=1e-12
    )


def test_cavity_scaling():
    base = cavity_estimate(CavityScenario.from_ratios(0.1))
    # (R/T)^2 at fixed flight phase: doubling R at fixed R/lambda doubles T too,
    # so double the ratio instead and pick up 2^2 in the rate and 2^2 in 1/x^2
    doubled = cavity_estimate(CavityScenario.from_ratios(0.2))
    assert math.isclose(doubled, 16.0 * base, rel_tol=1e-12)
    confined = cavity_estimate(
        CavityScenario.from_ratios(0.1, lambda3_over_volume=3.0)
    )
    assert math.isclose(confined, 3.0 * base, rel_tol=1e-12)


def test_cavity_averaged_warns_below_one_cycle():
    scenario = CavityScenario(wavelength=1.0, volume=1.0, apex=0.01, half_time=0.1)
    with pytest.warns(UserWarning):
        cavity_estimate(scenario)


def test_empty_space_frozen_value():
    scenario = EmptySpaceScenario(
        ratio_rt=0.1, bandwidth_ratio=0.1, solid_angle=0.1, flight_phase=3.34
    )
    assert math.isclose(empty_space_estimate(scenario), EMPTY_SPACE, rel_tol=1e-12)


def test_empty_space_scaling_is_linear_in_band_and_angle():
    base = EmptySpaceScenario(
        ratio_rt=0.1, bandwidth_ratio=0.1, solid_angle=0.1, flight_phase=3.34
    )
    wider = EmptySpaceScenario(
        ratio_rt=0.1, bandwidth_ratio=0.2, solid_angle=0.1, flight_phase=3.34
    )
    brighter = EmptySpaceScenario(
        ratio_rt=0.1, bandwidth_ratio=0.1, solid_angle=0.3, flight_phase=3.34
    )
    value = empty_space_estimate(base)
    assert math.isclose(empty_space_estimate(wider), 2.0 * value, rel_tol=1e-12)
    assert math.isclose(empty_space_estimate(brighter), 3.0 * value, rel_tol=1e-12)


def test_empty_space_warnings():
    with pytest.warns(UserWarning):
        EmptySpaceScenario(
            ratio_rt=1.5, bandwidth_ratio=0.1, solid_angle=0.1, flight_phase=3.34
        )
    with pytest.warns(UserWarning):
        EmptySpaceScenario(
            ratio_rt=0.1, bandwidth_ratio=1.0, solid_angle=0.1, flight_phase=3.34
        )


def test_scenario_validation():
    with pytest.raises(DomainError):
        CavityScenario(wavelength=1.0, volume=0.0, apex=0.1, half_time=1.0)
    with pytest.raises(DomainError):
        CavityScenario.from_ratios(-0.1)
    with pytest.raises(DomainError):
        EmptySpaceScenario(
            ratio_rt=0.1, bandwidth_ratio=0.1, solid_angle=0.1, flight_phase=0.0
        )


def test_overflow_is_a_range_error():
    # R/T = 1e160 squares past double precision in all three ceilings
    cavity = CavityScenario(wavelength=1.0, volume=1.0, apex=1e160, half_time=1.0)
    with pytest.raises(RangeError):
        cavity_estimate(cavity)
    with pytest.raises(RangeError):
        cavity_estimate_exact(cavity)
    with pytest.warns(UserWarning, match="superluminal"):
        empty = EmptySpaceScenario(
            ratio_rt=1e160, bandwidth_ratio=0.1, solid_angle=0.1, flight_phase=3.34
        )
    with pytest.raises(RangeError):
        empty_space_estimate(empty)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from recoherence import DomainError, Trajectory

# the peak speed coefficient 8/(3*sqrt(3)), from maximising
# |4*t*(t^2 - T^2)|/T^4 at t = T/sqrt(3); cross-checked on a dense grid
MAX_SPEED_COEFF = 1.5396007178390020


def test_position_endpoints_and_apex():
    traj = Trajectory(apex=0.3, half_time=2.0)
    assert traj.position(-2.0) == 0.0
    assert traj.position(2.0) == 0.0
    assert math.isclose(traj.position(0.0), 0.3, rel_tol=1e-15)


def test_velocity_vanishes_at_endpoints_and_apex():
    traj = Trajectory(apex=0.3, half_time=2.0)
    for t in (-2.0, 0.0, 2.0):
        assert traj.velocity(t) == 0.0


def test_velocity_is_position_derivative():
    traj = Trajectory(apex=0.7, half_time=1.5)
    h = 1e-6
    for t in (-1.2, -0.5, 0.3, 0.9, 1.4):
        numeric = (traj.position(t + h) - traj.position(t - h)) / (2 * h)
        assert math.isclose(numeric, traj.velocity(t), rel_tol=1e-7, abs_tol=1e-10)


def test_max_speed_value_and_location():
    traj = Trajectory(apex=0.4, half_time=2.0)
    want = MAX_SPEED_COEFF * 0.4 / 2.0
    assert math.isclose(traj.max_speed, want, rel_tol=1e-14)
    t_star = 2.0 / math.sqrt(3.0)
    assert math.isclose(abs(traj.velocity(t_star)), traj.max_speed, rel_tol=1e-14)


def test_max_speed_bounds_the_grid():
    traj = Trajectory(apex=1.0, half_time=1.0)
    t = np.linspace(-1.0, 1.0, 20001)
    speeds = np.abs(traj.velocity(t))
    assert speeds.max() <= traj.max_speed * (1 + 1e-12)
    # the grid comes within discretisation error of the bound
    assert speeds.max() > traj.max_speed * (1 - 1e-6)


def test_relativistic_flag():
    assert not Trajectory(apex=0.1, half_time=1.0).is_relativistic
    assert not Trajectory(apex=0.6, half_time=1.0).is_relativistic
    assert Trajectory(apex=0.7, half_time=1.0).is_relativistic


def test_array_evaluation_matches_scalars():
    traj = Trajectory(apex=0.2, half_time=1.0)
    t = np.array([-0.9, -0.3, 0.0, 0.4, 0.8])
    assert_allclose(traj.position(t), [traj.position(v) for v in t], rtol=1e-15)
    assert_allclose(traj.velocity(t), [traj.velocity(v) for v in t], rtol=1e-15)


def test_times_outside_the_flight_are_rejected():
    traj = Trajectory(apex=0.2, half_time=1.0)
    with pytest.raises(DomainError):
        traj.position(1.0001)
    with pytest.raises(DomainError):
        traj.velocity(-1.5)
    with pytest.raises(DomainError):
        traj.position(float("nan"))
    with pytest.raises(DomainError):
        traj.velocity(np.array([0.0, 2.0]))


def test_extreme_half_times():
    # u = t/T keeps T^4 out: it would overflow at T = 1e100 and underflow
    # at T = 1e-80, where the velocity is still a normal double
    assert Trajectory(1.0, 1e100).velocity(0.5e100) == -1.5e-100
    slow = Trajectory(1e-300, 1e-80)
    assert math.isclose(slow.velocity(0.5e-80), -1.5e-220, rel_tol=1e-15)
    assert math.isclose(slow.position(0.5e-80), 0.5625e-300, rel_tol=1e-15)


def test_bad_construction():
    with pytest.raises(DomainError):
        Trajectory(apex=0.0, half_time=1.0)
    with pytest.raises(DomainError):
        Trajectory(apex=0.1, half_time=-1.0)
    with pytest.raises(DomainError):
        Trajectory(apex=float("inf"), half_time=1.0)

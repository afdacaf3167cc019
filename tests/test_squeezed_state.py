import cmath
import math

import pytest

from recoherence import (
    DomainError,
    ModeSpec,
    RangeError,
    SqueezeState,
    energy_density,
    mean_photon_number,
    total_energy,
)

# frozen from a 50-digit mpmath evaluation of cosh/sinh at r = 1
COSH_1 = 1.5430806348152437
SINH_1 = 1.1752011936438014
SINH_SQ_1 = 1.3810978455418157


def test_bogoliubov_at_r1():
    state = SqueezeState(1.0)
    mu, nu, eta = state.mu, state.nu, state.eta
    assert math.isclose(mu, COSH_1, rel_tol=1e-15)
    assert math.isclose(eta, SINH_1, rel_tol=1e-15)
    assert nu == pytest.approx(SINH_1 + 0j, rel=1e-15)


def test_bogoliubov_carries_the_squeeze_phase():
    state = SqueezeState(0.5, theta=0.7)
    mu, nu, eta = state.mu, state.nu, state.eta
    assert math.isclose(abs(nu), eta, rel_tol=1e-15)
    assert math.isclose(cmath.phase(nu), 0.7, rel_tol=1e-15)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0, 5.0])
def test_hyperbolic_identity(r):
    state = SqueezeState(r)
    mu, nu, eta = state.mu, state.nu, state.eta
    # mu^2 - |nu|^2 = 1 keeps the transformation canonical
    assert math.isclose(mu * mu - abs(nu) ** 2, 1.0, rel_tol=1e-10)


def test_mean_photon_number():
    assert mean_photon_number(SqueezeState(0.0)) == 0.0
    assert math.isclose(
        mean_photon_number(SqueezeState(1.0)), SINH_SQ_1, rel_tol=1e-15
    )


def test_total_energy_is_photon_number_times_omega():
    state = SqueezeState(1.0)
    mode = ModeSpec(omega=3.34, volume=2.5)
    assert math.isclose(
        total_energy(state, mode), SINH_SQ_1 * 3.34, rel_tol=1e-14
    )


def test_energy_density_min_at_phase_pi():
    state = SqueezeState(1.0)
    mode = ModeSpec(omega=2.0, volume=1.0)
    want = (mode.omega / mode.volume) * 0.5 * math.expm1(-2.0)
    assert math.isclose(energy_density(state, mode, math.pi), want, rel_tol=1e-14)
    assert want < 0.0  # squeezed vacuum dips below zero at the right phase


def test_energy_density_never_below_vacuum_scale():
    state = SqueezeState(3.0)
    mode = ModeSpec(omega=2.0, volume=1.0)
    floor = -mode.omega / (2.0 * mode.volume)  # g is bounded below by -1/2
    for k in range(64):
        assert energy_density(state, mode, 2.0 * math.pi * k / 64) > floor


def test_energy_density_phase_average_is_total_over_volume():
    state = SqueezeState(1.3, theta=0.4)
    mode = ModeSpec(omega=1.7, volume=3.0)
    n = 16
    avg = sum(
        energy_density(state, mode, 2.0 * math.pi * k / n) for k in range(n)
    ) / n
    want = mean_photon_number(state) * mode.omega / mode.volume
    assert math.isclose(avg, want, rel_tol=1e-12)


def test_wavelength():
    mode = ModeSpec(omega=math.pi, volume=1.0)
    assert math.isclose(mode.wavelength, 2.0, rel_tol=1e-15)


def test_domain_errors():
    with pytest.raises(DomainError):
        SqueezeState(-0.1)
    with pytest.raises(DomainError):
        SqueezeState(float("nan"))
    with pytest.raises(DomainError):
        SqueezeState(1.0, theta=float("inf"))
    with pytest.raises(DomainError):
        ModeSpec(omega=0.0, volume=1.0)
    with pytest.raises(DomainError):
        ModeSpec(omega=1.0, volume=-2.0)


def test_squeeze_cap_is_a_range_error():
    with pytest.raises(RangeError):
        SqueezeState(351.0)
    SqueezeState(350.0)  # the cap itself is allowed


def test_energy_density_rejects_nonfinite_phase():
    state = SqueezeState(1.0)
    mode = ModeSpec(omega=1.0, volume=1.0)
    with pytest.raises(DomainError):
        energy_density(state, mode, float("nan"))

import math

import numpy as np
import pytest

from recoherence import (
    ConvergenceError,
    DomainError,
    ModeSpec,
    QuadratureConfig,
    SqueezeState,
    Trajectory,
    coherence_shift,
    integrate_oscillatory,
    mode_envelope,
    quad_coherence_shift,
    quad_coherence_shift_separable,
    quad_envelope,
    quad_vacuum_term,
    unitarity_sum,
)
from recoherence.constants import FINE_STRUCTURE
from recoherence.oracle_quadrature import (
    _loop_value,
    _MAX_NODES,
    _panel_nodes,
    _vacuum_form,
)

# frozen from 30-digit mpmath quadrature of the vacuum loop integral at
# omega = pi, volume = 1, apex = half_time = 1
W0_AT_PI = -6.9953356796548714e-02


def _mode(omega):
    return ModeSpec(omega=omega, volume=(2.0 * math.pi / omega) ** 3)


def _traj():
    return Trajectory(apex=0.1, half_time=1.0)


def _tensor_loop(kernel, mode, traj):
    """Literal loop double integral of an N x N kernel at the base budget.

    Sums the four (C1, C2) x (C1, C2) leg pairs with their orientation signs
    and z-velocities (+v, -v); the reference for the O(N) oracle.
    """
    t, w = _panel_nodes(
        -traj.half_time, traj.half_time, mode.omega * traj.half_time / math.pi,
        QuadratureConfig(),
    )
    v, k = traj.velocity(t), kernel(t)
    legs = ((1.0, v), (-1.0, -v))
    total = 0.0 + 0.0j
    for sign_a, va in legs:
        for sign_b, vb in legs:
            total += sign_a * sign_b * ((w * va) @ k @ (w * vb))
    return -math.pi * FINE_STRUCTURE * float(total.real)


def _tensor_shift(state, mode, traj, t0):
    def kernel(t):
        phase = np.exp(-1j * mode.omega * (t + t0))
        k_sum = (-state.mu * state.nu) * np.outer(phase, phase)
        k_diff = (state.eta * state.eta) * np.outer(phase, np.conj(phase))
        return (k_sum + k_diff + np.conj(k_sum) + np.conj(k_diff)) / (
            mode.volume * mode.omega
        )

    return _tensor_loop(kernel, mode, traj)


def _tensor_vacuum(mode, traj):
    def kernel(t):
        phase = np.exp(-1j * mode.omega * t)
        k_diff = np.outer(phase, np.conj(phase)) / (2.0 * mode.volume * mode.omega)
        return k_diff + np.conj(k_diff)

    return _tensor_loop(kernel, mode, traj)


@pytest.mark.parametrize("omega", [0.5, 3.34, 10.0])
@pytest.mark.parametrize("r,theta,t0", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.3), (2.0, 0.9, 0.11)])
def test_quadrature_matches_closed_form(omega, r, theta, t0):
    state = SqueezeState(r, theta)
    mode, traj = _mode(omega), _traj()
    closed = coherence_shift(state, mode, traj, t0).value
    direct = quad_coherence_shift(state, mode, traj, t0)
    assert math.isclose(direct, closed, rel_tol=1e-8, abs_tol=1e-30)
    # the O(N) line-integral route against the literal N x N assembly, node
    # for node at the base budget
    line = quad_coherence_shift_separable(state, mode, traj, t0)
    assert math.isclose(line, _tensor_shift(state, mode, traj, t0), rel_tol=1e-12)
    vacuum, _ = _vacuum_form(mode, traj)(QuadratureConfig())
    assert math.isclose(vacuum, _tensor_vacuum(mode, traj), rel_tol=1e-12)


def test_separable_route_agrees_with_tensor_route():
    state = SqueezeState(1.3, 0.4)
    mode, traj = _mode(3.34), _traj()
    full = quad_coherence_shift(state, mode, traj, 0.25)
    split = quad_coherence_shift_separable(state, mode, traj, 0.25)
    assert math.isclose(full, split, rel_tol=1e-10)
    closed = coherence_shift(state, mode, traj, 0.25).value
    assert math.isclose(split, closed, rel_tol=1e-8)


def test_vacuum_term_frozen_value():
    mode = ModeSpec(omega=math.pi, volume=1.0)
    traj = Trajectory(apex=1.0, half_time=1.0)
    assert math.isclose(quad_vacuum_term(mode, traj), W0_AT_PI, rel_tol=1e-10)


def test_vacuum_term_matches_unitarity_vacuum():
    mode, traj = _mode(3.34), _traj()
    assert math.isclose(
        quad_vacuum_term(mode, traj), unitarity_sum(mode, traj).vacuum, rel_tol=1e-9
    )


def test_quad_envelope_matches_closed_envelope():
    mode, traj = _mode(3.34), _traj()
    assert math.isclose(
        quad_envelope(mode, traj), mode_envelope(mode, traj), rel_tol=1e-10
    )


def test_refinement_detects_starved_quadrature():
    # a two-point rule at the minimum budget is genuinely under-resolved:
    # base and doubled budgets differ by ~1.7e-4 relative, far above the
    # default rel_tol (an over-resolved rule can agree bit for bit instead)
    state = SqueezeState(1.0)
    mode, traj = _mode(10.0), _traj()
    cfg = QuadratureConfig(nodes_per_period=16, scheme="gl2")
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        quad_coherence_shift(state, mode, traj, 0.0, cfg)
    # the base budget alone, unchecked, is the separable route
    value = quad_coherence_shift_separable(state, mode, traj, 0.0, cfg)
    assert math.isfinite(value)


def test_error_decreases_with_node_budget():
    state = SqueezeState(1.0)
    mode, traj = _mode(10.0), _traj()
    closed = coherence_shift(state, mode, traj, 0.05).value

    def err(npp):
        cfg = QuadratureConfig(nodes_per_period=npp, scheme="gl2")
        got = quad_coherence_shift_separable(state, mode, traj, 0.05, cfg)
        return abs(got - closed)

    coarse, fine = err(16), err(128)
    assert fine < coarse / 10.0


def test_integrate_oscillatory_known_integral():
    # int_0^{2 pi} sin^2(10 x) dx = pi
    value = integrate_oscillatory(
        lambda x: np.sin(10.0 * x) ** 2, 0.0, 2.0 * math.pi, oscillations=20.0
    )
    assert math.isclose(value, math.pi, rel_tol=1e-12)


def test_integrate_oscillatory_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_oscillatory(lambda x: x, 1.0, 1.0, oscillations=1.0)
    with pytest.raises(DomainError):
        integrate_oscillatory(lambda x: x, 0.0, float("inf"), oscillations=1.0)


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(nodes_per_period=8)
    with pytest.raises(DomainError):
        QuadratureConfig(scheme="simpson")
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=float("inf"))
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=float("nan"))
    for count in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="nodes_per_period must be an integer"):
            QuadratureConfig(nodes_per_period=count)


def test_nonfinite_emission_time_rejected():
    state = SqueezeState(1.0)
    mode, traj = _mode(3.34), _traj()
    with pytest.raises(DomainError):
        quad_coherence_shift(state, mode, traj, float("nan"))


def test_high_frequency_oracle_matches_closed_forms():
    # omega*T = 1000: about 2e4 nodes at the doubled budget, still O(N)
    state, t0, x = SqueezeState(1.0, 0.3), 0.3, 1000.0
    mode, traj = _mode(x), _traj()
    # closed-form magnitudes without the zeros of j2 and of the weight g
    vacuum_scale = (
        4.0 * math.pi * FINE_STRUCTURE / (mode.volume * mode.omega)
        * 256.0 * traj.apex**2 * (x / (15.0 + x**3)) ** 2
    )
    shift_scale = 2.0 * vacuum_scale * state.eta * (state.mu + state.eta)
    closed = coherence_shift(state, mode, traj, t0).value
    direct = quad_coherence_shift(state, mode, traj, t0)
    assert abs(direct - closed) <= 1e-6 * shift_scale
    vacuum = quad_vacuum_term(mode, traj)
    assert abs(vacuum - unitarity_sum(mode, traj).vacuum) <= 1e-6 * vacuum_scale


def test_refinement_detects_starved_quadrature_at_high_frequency():
    # omega*T = 1000: L cancels to ~8/(omega*T)^2 of sum |w*v|, so the
    # rounding floor must scale with |L|, not with (sum |w*v|)^2; a
    # two-point rule at 48 nodes per period is off by ~6e-6 of the value,
    # above the default rel_tol and far above rounding.  The values are
    # ~1e-10 here, so abs_tol is set below them
    state, t0 = SqueezeState(1.0, 0.3), 0.3
    mode, traj = _mode(1000.0), _traj()
    cfg = QuadratureConfig(nodes_per_period=48, scheme="gl2", abs_tol=1e-30)
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        quad_coherence_shift(state, mode, traj, t0, cfg)
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        quad_vacuum_term(mode, traj, cfg)
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        quad_envelope(mode, traj, cfg)


def test_imaginary_residue_is_reported():
    assert _loop_value(complex(2.0, 1e-12), "probe") == -2.0 * math.pi * FINE_STRUCTURE
    with pytest.raises(ConvergenceError, match="probe: imaginary residue"):
        _loop_value(complex(2.0, 1e-9), "probe")


def test_node_cap_rejected_before_allocation():
    # gl8 at 32 nodes per period: 131072 oscillations fill the cap exactly,
    # so the next float above asks for one panel more
    over = math.nextafter(_MAX_NODES / 32.0, math.inf)
    for oscillations in (1e300, math.inf, math.nan, over):
        with pytest.raises(DomainError, match=f"above the cap of {_MAX_NODES}"):
            integrate_oscillatory(np.sin, 0.0, 1.0, oscillations)
    with pytest.raises(DomainError, match="nodes"):
        quad_coherence_shift(SqueezeState(1.0), _mode(1e6), _traj(), 0.0)

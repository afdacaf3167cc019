import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recoherence import (
    ConvergenceError,
    DomainError,
    ModeSpec,
    RangeError,
    SqueezeState,
    Trajectory,
    coherence_shift,
    emission_window,
    integrate_oscillatory,
    mode_envelope,
    quad_coherence_shift,
    quad_coherence_shift_separable,
    quad_envelope,
    quad_vacuum_term,
    unitarity_sum,
)
from recoherence.constants import FINE_STRUCTURE
from recoherence import oracle_quadrature
from recoherence.oracle_quadrature import (
    _MAX_NODES,
    _NODES_PER_PERIOD,
    _kernel_weight,
    _loop_form,
    _panel_nodes,
    _refined,
)

# frozen from 30-digit mpmath quadrature of the vacuum loop integral at
# omega = pi, volume = 1, apex = half_time = 1
W0_AT_PI = -6.9953356796548714e-02

EPS = np.finfo(float).eps


def _mode(omega):
    return ModeSpec(omega=omega, volume=(2.0 * math.pi / omega) ** 3)


def _traj():
    return Trajectory(apex=0.1, half_time=1.0)


def _starve(monkeypatch, nodes_per_period):
    """A two-point rule at the given base budget in place of the fixed one."""
    monkeypatch.setattr(oracle_quadrature, "_ORDER", 2)
    monkeypatch.setattr(oracle_quadrature, "_NODES_PER_PERIOD", nodes_per_period)


def _tensor_loop(kernel, mode, traj):
    """Literal loop double integral of an N x N kernel at the base budget.

    Sums the four (C1, C2) x (C1, C2) leg pairs with their orientation signs
    and z-velocities (+v, -v); the reference for the O(N) oracle.
    """
    t, w = _panel_nodes(
        -traj.half_time, traj.half_time, mode.omega * traj.half_time / math.pi,
        _NODES_PER_PERIOD,
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
    vacuum, _ = _loop_form(1.0, 1.0, _kernel_weight(mode), mode, traj, 0.0)(_NODES_PER_PERIOD)
    assert math.isclose(vacuum, _tensor_vacuum(mode, traj), rel_tol=1e-12)


@pytest.mark.parametrize("r", [5.0, 10.0, 15.0, 20.0])
def test_shift_quadrature_holds_at_the_window_centre(r):
    # at the centre the anti-squeezed quadrature b vanishes and the gain is
    # e^{2r} below its coefficient expm1(2r); a form whose terms cancel there
    # gives rounding noise (-0.0 at r = 20)
    traj = _traj()
    for x in (0.7, 3.34, 10.0, 30.0):
        for theta in (0.0, 2.5):
            state, mode = SqueezeState(r, theta), _mode(x)
            window = emission_window(state, mode)
            t0 = 0.5 * (window.start + window.end)
            closed = coherence_shift(state, mode, traj, t0).value
            direct = quad_coherence_shift(state, mode, traj, t0)
            assert math.isclose(direct, closed, rel_tol=1e-9), (x, theta)


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(0.0, 20.0),
    x=st.floats(0.5, 30.0),
    theta=st.floats(-math.pi, math.pi),
    u=st.floats(-1.0, 1.0),
    in_window=st.booleans(),
)
def test_shift_quadrature_error_follows_the_squeezed_quadratures(r, x, theta, u, in_window):
    # t0 within one window width of its centre, or anywhere in one period of g
    state, mode = SqueezeState(r, theta), _mode(x)
    window = emission_window(state, mode)
    centre = 0.5 * (window.start + window.end)
    t0 = centre + u * window.width if in_window else (1.0 + u) * math.pi / (2.0 * x)
    _assert_shift_within_the_quadrature_bound(r, x, theta, t0)


@pytest.mark.parametrize(
    "x, theta, t0",
    [
        (5.76345919689455, 1.1639004477529493, 0.33002098139922237),
        (9.095011330476355, 0.0822546418814083, 0.1772316263837637),
    ],
)
def test_shift_quadrature_accepts_budgets_that_agree_to_second_order_rounding(
    x, theta, t0
):
    # near the window centre at r = 20 b is rounding alone, so the budgets
    # differ by q*d^2 (the doubled value here is -0.0 and -6.3e-23): a floor
    # of first order refuses them
    _assert_shift_within_the_quadrature_bound(20.0, x, theta, t0)


def _assert_shift_within_the_quadrature_bound(r, x, theta, t0):
    state, mode, traj = SqueezeState(r, theta), _mode(x), _traj()
    closed = coherence_shift(state, mode, traj, t0).value
    direct = quad_coherence_shift(state, mode, traj, t0)
    # a, b carry the rounding of the loop's phases (nodes, t0 and theta/2)
    # times the term size 4R of L, not |L|, which vanishes at the envelope's
    # zeros; q*b^2 turns it into sinh(2r)*|b| with |b| = |L'|*|cos(psi/2)|,
    # and into sinh(2r)*d^2 where b is rounding alone.  The closed form's
    # rounding, through dg/dpsi, is of the same shape.  K = 16: up to 0.71
    # was needed on 3e4 draws, about 1e8 for a complex form whose terms
    # cancel by e^{2r}
    weight = math.sqrt(math.pi * FINE_STRUCTURE / (mode.volume * mode.omega))
    line = 2.0 * weight * math.sqrt(mode_envelope(mode, traj))  # |L'|
    d = EPS * (1.0 + x * (traj.half_time + abs(t0)) + abs(theta)) * 4.0 * weight * traj.apex
    tilt = 1.0 + math.sinh(2.0 * r) * abs(math.cos(x * t0 - 0.5 * theta))
    bound = 16.0 * d * (line * tilt + d * math.sinh(2.0 * r))
    assert abs(direct - closed) <= 1e-9 * abs(closed) + bound
    # the paper's bound, shift + vacuum = -(e^{-2r}*a^2 + e^{2r}*b^2) <= 0,
    # to the same rounding: on the window centre at r = 17 it is -e^{-34}*a^2,
    # below the rounding of the two separate oracles
    assert direct + quad_vacuum_term(mode, traj) <= bound


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


@pytest.mark.parametrize("omega", [0.5, 10.0])
def test_loop_oracles_converge_on_their_rounding_floor_alone(monkeypatch, omega):
    # here the base and doubled budgets differ by rounding alone (4e-16 to
    # 3e-14 of each value); with no relative tolerance each loop oracle must
    # still accept its value, so its rounding scale is positive and counts
    # every term of the form
    state, mode, traj = SqueezeState(1.0, 0.3), _mode(omega), _traj()
    calls = (
        lambda: quad_coherence_shift(state, mode, traj, 0.2),
        lambda: quad_vacuum_term(mode, traj),
        lambda: quad_envelope(mode, traj),
    )
    want = [call() for call in calls]
    monkeypatch.setattr(oracle_quadrature, "_REL_TOL", 1e-300)
    assert [call() for call in calls] == want


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


def test_refinement_detects_starved_quadrature(monkeypatch):
    # a two-point rule at 16 nodes per period is genuinely under-resolved:
    # base and doubled budgets differ by ~1.7e-4 relative, far above
    # _REL_TOL (an over-resolved rule can agree bit for bit instead)
    state = SqueezeState(1.0)
    mode, traj = _mode(10.0), _traj()
    _starve(monkeypatch, 16)
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        quad_coherence_shift(state, mode, traj, 0.0)
    # the base budget alone, unchecked, is the separable route
    value = quad_coherence_shift_separable(state, mode, traj, 0.0)
    assert math.isfinite(value)


def test_error_decreases_with_node_budget(monkeypatch):
    state = SqueezeState(1.0)
    mode, traj = _mode(10.0), _traj()
    closed = coherence_shift(state, mode, traj, 0.05).value

    def err(npp):
        _starve(monkeypatch, npp)
        got = quad_coherence_shift_separable(state, mode, traj, 0.05)
        return abs(got - closed)

    coarse, fine = err(16), err(128)
    assert fine < coarse / 10.0


def test_integrate_oscillatory_known_integral():
    # int_0^{2 pi} sin^2(10 x) dx = pi
    value = integrate_oscillatory(
        lambda x: np.sin(10.0 * x) ** 2, 0.0, 2.0 * math.pi, oscillations=20.0
    )
    assert math.isclose(value, math.pi, rel_tol=1e-12)


def test_refinement_compares_two_node_sets_below_one_oscillation():
    # sin^2(40 x) over [0, 2 pi] is pi, but half an oscillation declared is
    # far too few nodes; the doubled budget must see that with more nodes
    # than the base, not the same four panels
    for oscillations in (0.0, 0.21, 0.5, 1.0, 3.3):
        base = _panel_nodes(0.0, 1.0, oscillations, _NODES_PER_PERIOD)[0]
        doubled = _panel_nodes(0.0, 1.0, oscillations, 2 * _NODES_PER_PERIOD)[0]
        assert doubled.size > base.size
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        integrate_oscillatory(
            lambda x: np.sin(40.0 * x) ** 2, 0.0, 2.0 * math.pi, oscillations=0.5
        )


def test_integrate_oscillatory_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_oscillatory(lambda x: x, 1.0, 1.0, oscillations=1.0)
    with pytest.raises(DomainError):
        integrate_oscillatory(lambda x: x, 0.0, float("inf"), oscillations=1.0)


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


def test_refinement_detects_starved_quadrature_at_high_frequency(monkeypatch):
    # omega*T = 1000: L cancels to ~8/(omega*T)^2 of sum |w*v|, so the
    # rounding floor must scale with |L|, not with (sum |w*v|)^2; a
    # two-point rule at 48 nodes per period is off by ~6e-6 of the value,
    # above _REL_TOL and far above rounding.  The values are ~1e-10 here,
    # so no absolute tolerance may hide that gap
    state, t0 = SqueezeState(1.0, 0.3), 0.3
    mode, traj = _mode(1000.0), _traj()
    _starve(monkeypatch, 48)
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        quad_coherence_shift(state, mode, traj, t0)
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        quad_vacuum_term(mode, traj)
    with pytest.raises(ConvergenceError, match="did not stabilise under refinement"):
        quad_envelope(mode, traj)


def test_non_finite_values_fail_the_check():
    # an overflowing loop raises RangeError, as coherence_shift does, and is
    # never certified as nan or inf; a nan base value fails the check even
    # when the doubled one is finite
    mode, traj = _mode(3.34), Trajectory(apex=1e300, half_time=1.0)
    for call in (
        lambda: quad_coherence_shift(SqueezeState(1.0), mode, traj, 0.0),
        lambda: quad_vacuum_term(mode, traj),
        lambda: quad_envelope(mode, traj),
    ):
        with pytest.raises(RangeError, match="overflows double precision"):
            call()

    def nan_at_base(n):
        return (math.nan if n == _NODES_PER_PERIOD else 1.0), 0.0

    with pytest.raises(ConvergenceError, match="did not stabilise"):
        _refined(nan_at_base, "probe")


def test_non_finite_rounding_scale_fails_the_check():
    # at r = 350 and R/T = 1e12 both budgets are finite (-1.51e293 and
    # -6.23e293, against a closed form of -3.39e293) but their rounding
    # scale is inf, so an inf tolerance would accept either
    omega = 3.34
    state, mode = SqueezeState(350.0, 0.0), _mode(omega)
    traj, t0 = Trajectory(apex=1e12, half_time=1.0), math.pi / (2.0 * omega)
    with pytest.raises(RangeError, match="rounding scale"):
        quad_coherence_shift(state, mode, traj, t0)


def test_node_cap_rejected_before_allocation():
    # gl8 at 32 nodes per period: 131072 oscillations fill the cap exactly,
    # so the next float above asks for one panel more
    over = math.nextafter(_MAX_NODES / 32.0, math.inf)
    for oscillations in (1e300, math.inf, math.nan, over):
        with pytest.raises(DomainError, match=f"above the cap of {_MAX_NODES}"):
            integrate_oscillatory(np.sin, 0.0, 1.0, oscillations)
    with pytest.raises(DomainError, match="nodes"):
        quad_coherence_shift(SqueezeState(1.0), _mode(1e6), _traj(), 0.0)

"""Every public shift at the edges of double precision: a finite float or
one of the package's own errors, never nan, inf, a ZeroDivisionError or a
numpy warning (tier-1 turns RuntimeWarning into an error)."""

import dataclasses
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from recoherence import (
    BandSpec,
    ConvergenceError,
    DomainError,
    ModeSpec,
    RangeError,
    SqueezeState,
    Trajectory,
    coherence_shift,
    mode_sum_oracle,
    quad_coherence_shift,
    quad_envelope,
    quad_vacuum_term,
    unitarity_sum,
    windowed_coherence_shift,
)

_REFUSED = (DomainError, RangeError, ConvergenceError)

_TINY, _HUGE = 5e-324, 1.7e308

#: log-uniform over [_TINY, _HUGE], with the ends and a few corners drawn often
_MAGNITUDE = st.one_of(
    st.sampled_from((_TINY, 1e-300, 1.0, 3.34, 1e300, _HUGE)),
    st.floats(math.log(_TINY), math.log(_HUGE)).map(math.exp),
)


#: one state, mode, trajectory and mode count that every call accepts
_CALM = dict(r=1.0, theta=0.0, omega=3.34, volume=1.0, apex=0.1, half_time=1.0,
             t0=0.0, n=4)


def _finite_or_refused(call) -> None:
    try:
        values = call()
    except _REFUSED:
        return
    assert all(isinstance(v, float) and math.isfinite(v) for v in values), values


@settings(max_examples=40, deadline=None)
@given(
    r=st.one_of(st.sampled_from((0.0, 1.0, 350.0)), st.floats(0.0, 350.0)),
    theta=st.floats(-10.0, 10.0),
    omega=_MAGNITUDE,
    volume=_MAGNITUDE,
    apex=_MAGNITUDE,
    half_time=_MAGNITUDE,
    t0=st.sampled_from((0.0, 0.3, -0.3, 1e3, 1e300, -1e300)),
    n=st.integers(1, 16),
)
# the loop quadratures turned an overflowing loop into nan or inf
@example(**{**_CALM, "apex": 1e300})
# omega * volume rounds to 0: every shift divided by zero
@example(**{**_CALM, "omega": 0.1, "volume": _TINY})
# omega*T overflows in the mode sum's array envelope
@example(**{**_CALM, "apex": 1.0, "half_time": 1e308})
# the mode sum's block overflows before its own RangeError
@example(**{**_CALM, "r": 350.0, "apex": 1e100})
# an infinite mode shift times a zero modulation in the mode sum
@example(**{**_CALM, "r": 0.0, "omega": math.exp(8.0), "apex": 1e300,
            "half_time": math.exp(161.0), "n": 1})
# a band a few ulps wide: the width of each of its n mode cells rounds to 0
@example(**{**_CALM, "r": 0.0, "omega": 1.53e-322, "apex": 5e-324,
            "half_time": 5e-324, "n": 12})
def test_shifts_are_finite_or_refused(r, theta, omega, volume, apex, half_time, t0, n):
    try:
        state, mode = SqueezeState(r, theta), ModeSpec(omega, volume)
        traj = Trajectory(apex, half_time)
    except _REFUSED:
        return
    _finite_or_refused(
        lambda: dataclasses.astuple(coherence_shift(state, mode, traj, t0))
    )
    _finite_or_refused(lambda: unitarity_sum(mode, traj))
    _finite_or_refused(lambda: (windowed_coherence_shift(state, mode, traj),))
    if omega * half_time <= 100.0:  # a bounded node count
        _finite_or_refused(lambda: (quad_coherence_shift(state, mode, traj, t0),))
        _finite_or_refused(lambda: (quad_vacuum_term(mode, traj),))
        _finite_or_refused(lambda: (quad_envelope(mode, traj),))
    try:
        band = BandSpec(omega, omega / 10.0, 0.1)
    except _REFUSED:
        return
    _finite_or_refused(lambda: (mode_sum_oracle(state, band, traj, n, t0),))

"""Units as a bit-exact property.

Every route is dimensionless in the units it is given: rescaling time and
length by lam and frequency by 1/lam, (omega, T, R, t0, V) ->
(omega/lam, lam*T, lam*R, lam*t0, lam^3*V), leaves each shift unchanged.
With lam = 4^k every rescaling is exact, sqrt(T) too, so each route must
return the same bits (a time or an envelope scaled back by a power of
two), or raise the same exception type, and warn alike on both sides.  No
tolerance."""

import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from recoherence import (
    BandSpec,
    CavityScenario,
    ConvergenceError,
    DomainError,
    ModeSpec,
    RangeError,
    SqueezeState,
    Trajectory,
    band_coherence_shift_exact,
    band_coherence_shift_leading,
    cavity_estimate,
    cavity_estimate_exact,
    coherence_shift,
    emission_window,
    long_time_average,
    max_recoherence,
    mode_envelope,
    mode_sum_oracle,
    modulation,
    quad_coherence_shift,
    quad_coherence_shift_separable,
    quad_envelope,
    quad_vacuum_term,
    unitarity_sum,
    windowed_coherence_shift,
)
from recoherence.constants import SQUEEZE_CAP


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _routes(r, theta, omega, half_time, ratio, t0, volume, n, lam):
    """name -> call of every public route, at the inputs scaled by ``lam``;
    lengths and times come back divided by lam, envelopes by lam^2."""
    state = SqueezeState(r, theta)
    omega, half_time, t0 = omega / lam, half_time * lam, t0 * lam
    apex, volume = ratio * half_time, volume * lam**3
    mode, traj = ModeSpec(omega, volume), Trajectory(apex, half_time)
    band = BandSpec(center=omega, half_width=0.2 * omega, solid_angle=0.1)
    cavity = CavityScenario(2.0 * math.pi / omega, volume, apex, half_time)

    def window():
        w = emission_window(state, mode)
        return w.start / lam, w.end / lam, w.width / lam, w.degenerate

    return {
        "coherence_shift": lambda: coherence_shift(state, mode, traj, t0),
        "modulation": lambda: modulation(state, mode, t0),
        "mode_envelope": lambda: mode_envelope(mode, traj) / lam**2,
        "long_time_average": lambda: long_time_average(state, mode, traj),
        "windowed_coherence_shift": lambda: windowed_coherence_shift(state, mode, traj),
        "max_recoherence": lambda: max_recoherence(mode, traj),
        "unitarity_sum": lambda: unitarity_sum(mode, traj),
        "emission_window": window,
        "band_windowed": lambda: band_coherence_shift_exact(state, band, traj),
        "band_t0": lambda: band_coherence_shift_exact(
            state, band, traj, window_averaged=False, t0=t0
        ),
        "band_leading": lambda: band_coherence_shift_leading(state, band, traj),
        "mode_sum": lambda: mode_sum_oracle(state, band, traj, n, t0),
        "quad_coherence_shift": lambda: quad_coherence_shift(state, mode, traj, t0),
        "quad_separable": lambda: quad_coherence_shift_separable(state, mode, traj, t0),
        "quad_vacuum_term": lambda: quad_vacuum_term(mode, traj),
        "quad_envelope": lambda: quad_envelope(mode, traj) / lam**2,
        "cavity_estimate": lambda: cavity_estimate(cavity),
        "cavity_estimate_exact": lambda: cavity_estimate_exact(cavity),
    }


def _outcome(route):
    """repr of the value (exact for floats, -0.0 and nan included) or the
    exception type, and the text of each warning (the narrow-band and
    flight-phase warnings print dimensionless sizes)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            result = repr(route())
        except (DomainError, RangeError, ConvergenceError) as exc:
            result = type(exc).__name__
    return result, [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(
    # r is 0 or in [1e-3, SQUEEZE_CAP]: each side rounds alike only while
    # its values stay normal doubles, and at a subnormal r the mode sum's
    # subnormal value depends on how its factors (each a power of lam)
    # round.  Near the cap a shift nears 1e300; each route scales its terms
    # to the value's units before it multiplies them, so both sides leave
    # double precision alike
    r=st.one_of(
        st.just(0.0), st.floats(1e-3, 3.0), st.floats(1e-3, 30.0),
        st.floats(1e-3, SQUEEZE_CAP),
    ),
    theta=st.floats(-10.0, 10.0),
    omega_t=_log_uniform(0.05, 50.0),  # omega*T: below and above j2's series cut 2
    half_time=_log_uniform(1e-6, 1e6),
    ratio=_log_uniform(1e-3, 1.0),  # R/T
    t0_over_t=st.floats(-30.0, 30.0),
    volume=_log_uniform(1e-6, 1e6),  # V/T^3
    n=st.sampled_from([1, 7, 100, 20_000]),
    k=st.integers(1, 20),
    sign=st.sampled_from([1, -1]),
)
# each survivor of a +/- and *// mutation audit moves one of these: the mode
# sum's frequency step and first phasor, the array envelope of the band
# integrand, and the centre of the emission window
@example(r=1.0, theta=0.3, omega_t=3.34, half_time=0.7, ratio=0.1, t0_over_t=0.4,
         volume=2.0, n=100, k=1, sign=1)
@example(r=0.5, theta=-1.0, omega_t=1.5, half_time=3.0, ratio=0.2, t0_over_t=-2.0,
         volume=0.5, n=7, k=3, sign=-1)
# at the cap: the mode sum's assembly and the loop oracle's squared L leave
# double precision on one side only unless each is scaled to the value first
@example(r=350.0, theta=0.0, omega_t=1.0, half_time=1.0, ratio=1.0, t0_over_t=0.0,
         volume=1.0, n=1, k=10, sign=-1)
@example(r=313.0, theta=0.0, omega_t=1.0, half_time=1e6, ratio=1.0, t0_over_t=0.0,
         volume=1.0, n=1, k=20, sign=1)
def test_rescaled_units_give_the_same_bits(
    r, theta, omega_t, half_time, ratio, t0_over_t, volume, n, k, sign
):
    lam = 4.0 ** (sign * k)
    inputs = (r, theta, omega_t / half_time, half_time, ratio, t0_over_t * half_time,
              volume * half_time**3, n)
    base = _routes(*inputs, 1.0)
    scaled = _routes(*inputs, lam)
    for name, route in base.items():
        assert _outcome(route) == _outcome(scaled[name]), (name, lam)

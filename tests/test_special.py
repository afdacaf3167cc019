import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recoherence import SQUEEZE_CAP, locate_envelope_max
from recoherence._special import (
    _J2_SERIES_CUT,
    _j2_squared_over_x,
    _j2_series_into,
    _phase_weight_terms,
    j2_over_x,
    phase_weight,
    phase_weight_max,
)

mpmath.mp.dps = 50


def _j2(x):
    """50-digit spherical j2 from the cylinder function J_{5/2}."""
    x = mpmath.mpf(x)
    return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(mpmath.mpf(5) / 2, x)


def _scale(x):
    """Size of j2(x)/x away from its zeros: x/15 near 0, 1/x^2 far out."""
    return x / (15.0 + x**3)


# the first three zeros of j2, from 50-digit root finding
_ZEROS = [float(mpmath.findroot(_j2, x0)) for x0 in (5.76, 9.10, 12.32)]

_POINTS = np.concatenate(
    [
        np.geomspace(1e-8, 200.0, 400),
        np.linspace(1.9, 2.1, 21),  # around the series / trig cross-over
        *(zero + np.linspace(-1e-6, 1e-6, 9) for zero in _ZEROS),
    ]
)

_REFS = [_j2(x) / x for x in _POINTS]


def _worst_scaled_error(values):
    return max(
        float(abs(mpmath.mpf(float(v)) - ref)) / _scale(x)
        for v, x, ref in zip(values, _POINTS, _REFS)
    )


def test_j2_over_x_scalar_matches_mpmath():
    assert _worst_scaled_error([j2_over_x(float(x)) for x in _POINTS]) <= 1e-14


def test_j2_over_x_array_matches_mpmath():
    values = j2_over_x(_POINTS)
    assert values.shape == _POINTS.shape
    assert _worst_scaled_error(values) <= 1e-14


@pytest.mark.parametrize("x", [1e-300, 1e-150, 1e154, 1e200, 1e300])
def test_j2_over_x_extreme_arguments(x):
    ref = _j2(x) / x
    # within 1e-14 relative, or one step of the smallest subnormal once
    # the true value leaves the normal range
    tol = 1e-14 * abs(ref) + math.ulp(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scalar = j2_over_x(x)
        array = j2_over_x(np.array([x, -x]))
    assert math.isfinite(scalar) and np.all(np.isfinite(array))
    assert abs(mpmath.mpf(scalar) - ref) <= tol
    assert abs(mpmath.mpf(float(array[0])) - ref) <= tol
    assert float(array[1]) == -float(array[0])  # odd in x


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.0, SQUEEZE_CAP),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
)
def test_phase_weight_array_equals_scalar(r, phases):
    values = phase_weight(r, np.array(phases))
    assert values.shape == (len(phases),)
    tol = 1e-15 * phase_weight_max(r)
    for got, phase in zip(values, phases):
        assert abs(got - phase_weight(r, phase)) <= tol


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(1e-300, 1e300),
            st.floats(-1e300, -1e-300),
            st.floats(-1.999, 1.999),
            st.sampled_from([math.inf, -math.inf]),
        ),
        min_size=1,
        max_size=40,
    )
)
# the edges, which the draws rarely hit: each side of the cut at +-2 (the
# series and the trigonometric form differ in the last bits there), the
# signed zeros, the infinities, nan (whose hex is "nan") and no point at all
@example([2.0, -2.0, math.nextafter(2.0, 0.0), math.nextafter(-2.0, 0.0)])
@example([0.0, -0.0])
@example([math.inf, -math.inf, math.nan])
@example([])
def test_j2_over_x_array_equals_scalar(xs):
    # bit for bit, each x on its side of the cut
    values = j2_over_x(np.array(xs))
    assert values.shape == (len(xs),)
    for got, x in zip(values.tolist(), xs):
        assert got.hex() == j2_over_x(x).hex(), x


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(2.0, 1e300), st.floats(-1e300, -2.0)),
        min_size=1,
        max_size=40,
    )
)
def test_j2_over_x_trig_only_array_has_the_masked_bits(xs):
    # a point below the cut leaves the bits of the points above it alone
    x = np.array(xs)
    masked = j2_over_x(np.append(x, 0.5))[:-1]
    assert j2_over_x(x).tobytes() == masked.tobytes()


def test_j2_over_x_array_edges():
    # +-inf, nan and empty arrays
    three = j2_over_x(np.array([3.0]))[0]
    assert j2_over_x(np.array([math.inf, -math.inf])).tolist() == [0.0, 0.0]
    assert j2_over_x(np.array([3.0, -math.inf])).tolist() == [three, 0.0]
    # an infinity at the far end of a one-signed array too
    assert j2_over_x(np.array([3.0, math.inf])).tolist() == [three, 0.0]
    assert j2_over_x(np.array([-math.inf, -3.0])).tolist() == [0.0, -three]
    with_nan = j2_over_x(np.array([math.nan, 3.0]))
    assert math.isnan(with_nan[0]) and with_nan[1] == three
    assert j2_over_x(np.array([])).shape == (0,)


def test_envelope_max_is_the_root_of_j2_prime():
    root = mpmath.findroot(lambda t: mpmath.diff(_j2, t), 3.34)
    x_star = locate_envelope_max()[0]
    assert abs(x_star - root) <= 1e-13
    assert abs(x_star - 3.342093657365694) <= 1e-15


def test_import_pulls_in_no_scipy():
    # nor a process or thread pool: concurrent.futures alone costs every CLI
    # call about 12 ms of import, and the mode sum runs in the calling thread
    heavy = "('scipy', 'concurrent', 'multiprocessing')"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, recoherence; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {heavy}))",
        ],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


def test_j2_squared_over_x_matches_mpmath():
    # j2(x)^2/x = x*(j2(x)/x)^2 as the mode sum forms it: from the series
    # written in place below the cut, and from the bracket u*(u*w)^2 at
    # u = 1/x from the cut on
    x = _POINTS
    below = x < _J2_SERIES_CUT
    values = np.empty_like(x)
    xb = x[below]
    values[below] = xb * (xb * _j2_series_into(xb * xb, np.empty(xb.size))) ** 2
    above = x[~below]
    values[~below] = _j2_squared_over_x(
        1.0 / above, np.sin(above), np.cos(above), np.empty(above.size)
    )
    worst = max(
        float(abs(mpmath.mpf(float(v)) - x0 * ref**2)) / (x0 * _scale(x0) ** 2)
        for v, x0, ref in zip(values, x, _REFS)
    )
    assert worst <= 1e-14


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(2.0, 1e300), min_size=1, max_size=40),
        st.lists(st.floats(-1e300, -2.0), min_size=1, max_size=40),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
        st.lists(st.floats(-1.999, 1.999), min_size=1, max_size=40),
    ),
    st.floats(0.0, SQUEEZE_CAP),
)
def test_kernels_written_into_out_have_the_allocating_bits(xs, r):
    # the mode sum's series of j2(x)/x, written into out at q = x^2, times
    # x has j2_over_x's bits below the cut; and the phase weight's two
    # terms, which the mode sum sums apart, recombined as phase_weight
    # combines them
    x = np.array(xs)
    below = x[np.abs(x) < _J2_SERIES_CUT]
    out = np.full(below.size, np.nan)
    assert _j2_series_into(below * below, out) is out
    assert (below * out).tobytes() == j2_over_x(below).tobytes()
    low, swing = _phase_weight_terms(r)
    c = np.cos(0.5 * x)
    assert (low + swing * c * c).tobytes() == phase_weight(r, x).tobytes()

"""Shared kernels, written once so every module agrees on numerics.

The expressions here are short but easy to get wrong in floating point:
naive forms lose all significant digits either for small arguments
(the j2 bracket) or for large squeeze magnitudes (window half-angle,
windowed phase weight).  Each function below uses a cancellation-free
rewrite that is exact over the full supported range.  Only ``math`` and
numpy are used: a Python float takes a ``math`` fast path, an array of x or
of the phase one numpy pass, and ``_each`` maps a kernel of r over an array.

The mode sum needs omega*(j2(x)/x)^2, not j2(x)/x, so it has a bracket of
its own: ``_j2_squared_over_x`` forms j2(x)^2/x = u*(u*w)^2 at u = 1/x,
w = 3u*(u*sin x - cos x) - sin x, in eight passes over one array once u
is formed, where j2(x)/x, squared and times omega, takes eleven.  Its bits
are its own: written that way, the shared ``_j2_over_x_trig`` would move
the bits of ``j2_over_x`` and of the frozen sweep output
(tests/golden_sweep.csv).  Below the cut the mode sum sums the series in
place with ``_j2_series_into``, which has the bits of
``_j2_over_x_series``.

j2(x)/x, with j2 the spherical Bessel function (DLMF 10.49.3, 10.53.1),
is evaluated in two pieces that meet at ``_J2_SERIES_CUT`` = 2:

* below the cut, the power series x/15 * (1 - x^2/14 + x^4/504 - ...),
  eleven terms; the first one left out is below 4e-18 at x = 2;
* from the cut on, the trigonometric form
  ((3/x^2 - 1)*sin(x) - 3*cos(x)/x) / x^2, written in powers of 1/x so
  that no intermediate overflows: it stays finite (and tends to 0) for
  |x| up to 1e300 and beyond, where ((3 - x^2)*sin x - 3x cos x)/x^4
  turns into inf/inf = NaN above x ~ 1e154.

The trigonometric form cancels as x -> 0 (at x = 1 its two terms are 27
times the result, at x = 2 only 1.6 times), which is why the cut sits at
2 and not lower.  Measured against 50-digit mpmath over [1e-8, 200] the
error stays below 1e-15 of the scale x/(15 + x^3).
"""

from __future__ import annotations

import math

import numpy as np

#: |x| below which j2(x)/x is summed from its power series
_J2_SERIES_CUT = 2.0

# j2(x)/x = x * sum_k t_k x^(2k) with t_k = (-1)^k / (15 * prod_{j<=k}
# 2j(2j+5)); the denominators are exact integers, so each t_k is the
# correctly rounded float.
_J2_SERIES = tuple(
    (-1) ** k / (15 * math.prod(2 * j * (2 * j + 5) for j in range(1, k + 1)))
    for k in range(11)
)


def _each(kernel, *args):
    """``kernel`` at each element of the broadcast arrays ``args`` through its
    scalar path, so each cell has the scalar bits; a float is passed through."""
    if isinstance(args[0], (float, int)):
        return kernel(*args)
    with np.errstate(all="ignore"):  # a kernel that returns inf warns nothing
        return np.asarray(np.frompyfunc(kernel, len(args), 1)(*args), dtype=float)


def _j2_over_x_series(x):
    q = x * x
    s = _J2_SERIES[-1]
    for coeff in _J2_SERIES[-2::-1]:
        s = coeff + q * s
    return x * s


def _j2_over_x_trig(u, sin_x, cos_x):
    """((3*u^2 - 1)*sin(x) - 3*cos(x)*u)*u^2 at u = 1/x, floats or arrays."""
    return ((3.0 * u * u - 1.0) * sin_x - 3.0 * cos_x * u) * u * u


def j2_over_x(x):
    """j2(x)/x with j2 the spherical Bessel function; -> x/15 as x -> 0.

    Accepts a scalar or an array; returns a float or an array of the same
    shape.  Odd in x, finite for every finite x, and 0 at +-inf.
    """
    if isinstance(x, (float, int)):
        x = float(x)
        if abs(x) < _J2_SERIES_CUT:
            return _j2_over_x_series(x)
        if math.isinf(x):
            return 0.0
        return _j2_over_x_trig(1.0 / x, math.sin(x), math.cos(x))
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return j2_over_x(float(x))
    if x.size:
        low, high = x.min(), x.max()
        # every point finite and on one trigonometric side (nan fails too)
        if (_J2_SERIES_CUT <= low and high < math.inf) or (
            -math.inf < low and high <= -_J2_SERIES_CUT
        ):
            return _j2_over_x_trig(1.0 / x, np.sin(x), np.cos(x))
    # otherwise each x takes its side of the cut, and +-inf gives 0
    value = np.empty_like(x)
    small = np.abs(x) < _J2_SERIES_CUT
    value[small] = _j2_over_x_series(x[small])
    xb = x[~small]
    with np.errstate(invalid="ignore"):  # sin/cos of +-inf, mended by the where
        trig = _j2_over_x_trig(1.0 / xb, np.sin(xb), np.cos(xb))
    value[~small] = np.where(np.isinf(xb), 0.0, trig)
    return value


def _j2_squared_over_x(u, sin_x, cos_x, out):
    """j2(x)^2/x at arrays u = 1/x, sin x and cos x, every |x| at or above
    the cut, written into ``out``: the mode sum's bracket.

    j2(x)/x is u^2 * w with w = 3u*(u*sin x - cos x) - sin x, so
    j2(x)^2/x = x * (j2(x)/x)^2 = u * (u*w)^2: eight passes over ``out``.
    w is linear in the sine and cosine: given k*sin x and k*cos x, the value
    is k^2 * j2(x)^2/x.
    """
    np.multiply(u, sin_x, out=out)
    out -= cos_x
    out *= u
    out *= 3.0
    out -= sin_x
    out *= u
    out *= out
    out *= u
    return out


def _j2_series_into(q, out):
    """The series of j2(x)/x over x, at an array q = x^2, written into
    ``out``: x times it is ``_j2_over_x_series(x)``, with its bits."""
    np.multiply(q, _J2_SERIES[-1], out=out)
    for coeff in _J2_SERIES[-2:0:-1]:
        out += coeff
        out *= q
    out += _J2_SERIES[0]
    return out


def window_half_angle(r: float) -> float:
    """Half-angle arccos(tanh r) of the negative-modulation phase window.

    Uses the exact identity arccos(tanh r) = 2*arctan(e^{-r}); the arccos
    form loses digits once tanh r approaches 1 (r > 15 or so), while the
    arctan form is uniformly accurate and decays smoothly as 2 e^{-r}.
    """
    return 2.0 * math.atan(math.exp(-r))


def phase_weight(r: float, phase):
    """eta*(mu*cos(phase) + eta) for mu = cosh r, eta = sinh r.

    Written as the exact rearrangement

        phase_weight = phase_weight_min(r) + sinh(2r)*cos(phase/2)^2

    because the direct form subtracts two O(e^{2r}) numbers near
    phase = pi and returns garbage already for r > 18.  The rewrite keeps
    full precision at the minimum for every admissible r.  Scalars give a
    float; arrays of r and of the phase broadcast to an array.
    """
    if isinstance(phase, (float, int)):
        c = math.cos(0.5 * phase)
    else:
        c = np.cos(0.5 * np.asarray(phase, dtype=float))
    low, swing = _phase_weight_terms(r)
    return low + swing * c * c


def _phase_weight_terms(r):
    """(phase_weight_min(r), sinh(2r)): phase_weight is the first plus the
    second times cos(phase/2)^2.  Floats, or arrays of each r."""
    return _each(phase_weight_min, r), _each(lambda x: math.sinh(2.0 * x), r)


def phase_weight_min(r: float) -> float:
    """Minimum of the phase weight over phase: -(1 - e^{-2r})/2."""
    return 0.5 * math.expm1(-2.0 * r)


def phase_weight_max(r: float) -> float:
    """Maximum of the phase weight over phase: (e^{2r} - 1)/2."""
    return 0.5 * math.expm1(2.0 * r)


# Coefficients 4k/((2k-1)(2k+1)) of the small-u expansion of
# ((1-u^2)*atan(u) - u)/u^3, u = e^{-r}; eight terms reach machine
# precision for u <= 0.1.
_WINDOW_SERIES = tuple(
    4.0 * k / ((2.0 * k - 1.0) * (2.0 * k + 1.0)) for k in range(1, 9)
)


def windowed_phase_weight(r: float) -> float:
    """Average of the phase weight over the negative half of its window.

    Equals sinh(r)^2 - sinh(r)/(2*arctan(e^{-r})), but that difference
    cancels catastrophically for large r (both terms grow like e^{2r}/4
    while the result stays in (-1/3, 0)).  With u = e^{-r} and
    a = arctan(u) the exact regrouping

        result = (1 - u^2) * S(u) * u / (4a),
        S(u)   = ((1 - u^2)*a - u) / u^3,

    is benign: S is evaluated directly for u > 0.1 and by its series
    -4/3 + (8/15)u^2 - ... below, so the result is accurate to machine
    precision for every r in [0, SQUEEZE_CAP].  Returns 0 at r = 0 and
    tends to -1/3 as r -> infinity.
    """
    if r == 0.0:
        return 0.0
    u = math.exp(-r)
    a = math.atan(u)
    if u > 0.1:
        s = ((1.0 - u * u) * a - u) / u**3
    else:
        usq = u * u
        s = 0.0
        for coeff in reversed(_WINDOW_SERIES[1:]):
            s = usq * (coeff - s)
        s = -(_WINDOW_SERIES[0] - s)
    return (1.0 - u * u) * s * u / (4.0 * a)

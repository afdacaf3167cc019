"""Independent references and output checks, in 50-digit mpmath.

Nothing here imports the package or reuses a saved copy of its output.
The single-mode formulas are the trigonometric forms of the module
docstrings (``single_mode``, ``estimates``); the band integral uses
j2(x) = sqrt(pi/(2x)) * J_{5/2}(x) from ``besselj`` and ``mpmath.quad``.
References are pure functions of their inputs and are cached, so each is
computed once per run, outside every timed section.

Errors are measured against a point's *scale*, not its value: the closed
forms vanish at the zeros of j2 and of the phase weight g, where relative
error is ill-conditioned.  The scale replaces j2(x)/x by x/(15 + x^3),
which follows its size without its zeros, and g by its largest magnitude
eta*(mu + eta).
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp, mpf

from inputs import (APEX, BAND_CENTER, BAND_RATIO, BAND_SOLID_ANGLE,
                    LADDER_MODES, LADDER_OMEGAS, SWEEP_HEADER)

mp.dps = 50

ALPHA = 1 / mpf("137.035999084")  # CODATA 2018, as documented in constants
E2 = 4 * mp.pi * ALPHA

#: closed form against mpmath, relative to the point's scale
CLOSED_TOL = 1e-12
#: quadrature oracle against mpmath, relative to the point's scale
QUAD_TOL = 1e-6
#: band integral against mpmath.quad, relative to its scale
BAND_TOL = 1e-10


class Checker:
    """Collects check failures; ``ok`` is true while none was seen."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def that(self, condition: bool, what: str) -> bool:
        if not condition:
            self.failures.append(what)
        return condition

    def close(self, value, ref, scale, tol: float, what: str) -> bool:
        """|value - ref| <= tol * scale, in mpmath arithmetic."""
        if not isinstance(value, (float, int)) or not math.isfinite(value):
            return self.that(False, f"{what}: not a finite number: {value!r}")
        err = abs(mpf(value) - ref)
        return self.that(
            err <= tol * abs(scale),
            f"{what}: {value!r} vs mpmath {mpmath.nstr(ref, 17)} "
            f"(error {mpmath.nstr(err, 3)}, allowed {tol:g} x {mpmath.nstr(scale, 3)})",
        )


# ------------------------------------------------------------------ kernels
def bracket(x):
    """(x^2 - 3)*sin(x) + 3*x*cos(x), the trigonometric envelope bracket."""
    return (x * x - 3) * mp.sin(x) + 3 * x * mp.cos(x)


def envelope(apex, x):
    """M = (16*R/x^4)^2 * bracket(x)^2 with T = 1 (single_mode docstring)."""
    return (16 * apex / x**4) ** 2 * bracket(x) ** 2


def envelope_scale(apex, x):
    """Size of M without its zeros: 256*R^2 * (x/(15 + x^3))^2."""
    return 256 * apex**2 * (x / (15 + x**3)) ** 2


def j2_bessel(x):
    """Spherical j2 from the cylinder function J_{5/2}."""
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(mpf(5) / 2, x)


def coupling(x):
    """F(x) = (32/x^3)^2 * bracket(x)^2 (estimates docstring)."""
    return (32 / x**3) ** 2 * bracket(x) ** 2


def coupling_scale(x):
    return 1024 * (x * x / (15 + x**3)) ** 2


def phase_weight(r, phase):
    """g = eta*(mu*cos(phase) + eta), mu = cosh r, eta = sinh r."""
    return mp.sinh(r) * (mp.cosh(r) * mp.cos(phase) + mp.sinh(r))


def weight_scale(r):
    """Largest |g| over the phase: eta*(mu + eta)."""
    return mp.sinh(r) * (mp.cosh(r) + mp.sinh(r))


def windowed_weight(r):
    """Window average sinh(r)^2 - sinh(r)/arccos(tanh r); 0 at r = 0."""
    if r == 0:
        return mpf(0)
    return mp.sinh(r) ** 2 - mp.sinh(r) / mp.acos(mp.tanh(r))


# -------------------------------------------------------------- single mode
@lru_cache(maxsize=None)
def single_mode(r: float, theta: float, omega: float, apex: float,
                lambda3: float, t0: float) -> dict:
    """Closed forms of one mode with T = 1 and V = (2*pi/omega)^3/lambda3.

    Returns each quantity with its scale as ``(ref, scale)`` pairs.
    """
    r, theta, omega, apex, lambda3, t0 = map(mpf, (r, theta, omega, apex, lambda3, t0))
    volume = (2 * mp.pi / omega) ** 3 / lambda3
    base = 8 * mp.pi * ALPHA / (volume * omega)
    pref = -base * envelope(apex, omega)
    pref_scale = base * envelope_scale(apex, omega)
    g = phase_weight(r, 2 * omega * t0 - theta)
    g_avg = windowed_weight(r)
    rate = 2 * omega
    half = mp.acos(mp.tanh(r)) / rate
    centre = (mp.pi + theta) / rate
    gs = weight_scale(r)
    return {
        "g": (g, gs),
        "w_r": (pref * g, pref_scale * gs),
        "g_avg": (g_avg, mpf(1)),
        "w_r_avg": (pref * g_avg, pref_scale),
        "w_r_max": (-pref / 3, pref_scale),
        "vacuum": (pref / 2, pref_scale),
        "w_total": (pref / 6, pref_scale),
        "window_width": (2 * half, 2 * half),
        "window_start": (centre - half, centre),
        "window_end": (centre + half, centre),
        "envelope": (envelope(apex, omega), envelope_scale(apex, omega)),
    }


def _floats(line: str) -> list[float]:
    return [float(cell) for cell in line.split(",")]


def check_sweep_table(check: Checker, text: str, columns, sample, what: str) -> int:
    """Check one sweep CSV; returns the number of data rows.

    Row count and row-major input columns against the generated product,
    the physics properties on every row, and mpmath on the sampled rows.
    """
    lines = text.split("\n")
    if not check.that(lines[0] == SWEEP_HEADER, f"{what}: header {lines[0]!r}"):
        return 0
    if not check.that(lines[-1] == "", f"{what}: output does not end in a newline"):
        return 0
    body = lines[1:-1]
    if not check.that(len(body) == len(columns),
                      f"{what}: {len(body)} rows, expected {len(columns)}"):
        return len(body)
    status = [line.rsplit(",", 1)[1] for line in body]
    table = np.array([_floats(line.rsplit(",", 1)[0]) for line in body])
    check.that(np.array_equal(table[:, :6], columns),
               f"{what}: input columns differ from the row-major product")
    check.that(all(s == "ok" for s in status), f"{what}: a row has status != ok")
    g, w_r, contrast, width, g_avg, w_r_avg, w_r_max, w_total = table[:, 6:].T
    check.that(bool(np.all((g_avg > -1.0 / 3.0) & (g_avg <= 0.0))),
               f"{what}: g_avg outside (-1/3, 0]")
    check.that(bool(np.all((w_r_avg >= 0.0) & (w_r_avg <= w_r_max))),
               f"{what}: w_r_avg outside [0, w_r_max]")
    check.that(bool(np.all(w_total <= 0.0)), f"{what}: w_total > 0")
    check.that(bool(np.allclose(contrast, np.exp(w_r), rtol=1e-15, atol=0.0)),
               f"{what}: contrast_factor != exp(w_r)")
    check.that(bool(np.all(width > 0.0)), f"{what}: window_width <= 0")
    for i in sample:
        ref = row_ref(columns[i])
        for col, key in ((g, "g"), (w_r, "w_r"), (width, "window_width"),
                         (g_avg, "g_avg"), (w_r_avg, "w_r_avg"),
                         (w_r_max, "w_r_max"), (w_total, "w_total")):
            check.close(float(col[i]), *ref[key], CLOSED_TOL, f"{what} row {i} {key}")
    return len(body)


def row_ref(row) -> dict:
    """References of one sweep row; t0 = t0_omega/omega as the CLI forms it."""
    return single_mode(*(float(v) for v in row[:5]), float(row[5] / row[2]))


def sweep_refs(plan: list[dict]) -> None:
    """Compute the sampled sweep references ahead of the timed passes."""
    for sweep in plan:
        for i in sweep["sample"]:
            row_ref(sweep["columns"][i])


# --------------------------------------------------------------------- band
@lru_cache(maxsize=None)
def band(r: float, theta: float, center: float, half_width: float,
         solid_angle: float, apex: float, t0: float) -> dict:
    """Band shifts with T = 1 (multimode_band docstring), as (ref, scale).

    The frequency integrals are ``mpmath.quad`` over [center - hw,
    center + hw] of j2(w)^2/w, j2 from ``besselj``; ``t0`` is the emission
    time itself.
    """
    r, theta, center, hw, solid_angle, apex, t0 = map(
        mpf, (r, theta, center, half_width, solid_angle, apex, t0))
    lo, hi = center - hw, center + hw
    pref = -2 * E2 * (16 * apex) ** 2 * solid_angle / (2 * mp.pi) ** 3
    plain = mp.quad(lambda w: j2_bessel(w) ** 2 / w, [lo, hi])
    resolved = mp.quad(
        lambda w: phase_weight(r, 2 * w * t0 - theta) * j2_bessel(w) ** 2 / w, [lo, hi])
    g_avg = windowed_weight(r)
    leading_pref = -E2 * apex**2 * solid_angle / (2 * mp.pi) ** 3 * (hw / center)
    scale_t0 = abs(pref) * weight_scale(r) * plain
    return {
        "windowed_exact": (pref * g_avg * plain, abs(pref * g_avg * plain)),
        "t0_exact": (pref * resolved, scale_t0),
        "windowed_leading": (leading_pref * g_avg * coupling(center),
                             abs(leading_pref * g_avg) * coupling_scale(center)),
    }


@lru_cache(maxsize=None)
def mode_sum(r: float, theta: float, center: float, half_width: float,
             solid_angle: float, apex: float, t0: float, n: int):
    """The discrete midpoint mode sum of the multimode_band docstring."""
    r, theta, center, hw, solid_angle, apex, t0 = map(
        mpf, (r, theta, center, half_width, solid_angle, apex, t0))
    cell = 2 * hw / n
    total = mpf(0)
    for k in range(n):
        w = center - hw + (k + mpf(1) / 2) * cell
        inv_volume = solid_angle / (2 * mp.pi) ** 3 * w * w * cell
        total += -2 * E2 * inv_volume / w * phase_weight(r, 2 * w * t0 - theta) * envelope(apex, w)
    return total


# ---------------------------------------------------------------- estimates
def cavity(ratio: float, lambda3: float, apex: float) -> dict:
    """Cavity ceilings of the estimates docstring, wavelength 1."""
    half_time = mpf(apex / ratio)  # the scenario stores R and T, not R/T
    x = 2 * mp.pi * half_time
    pref = ALPHA / (12 * mp.pi**2) * lambda3 * (mpf(apex) / half_time) ** 2
    return {
        "flight_phase": (x, x),
        "averaged": (pref * 512 / x**2, pref * 512 / x**2),
        "exact": (pref * coupling(x), pref * coupling_scale(x)),
    }


def empty_space(ratio: float, bandwidth: float, solid_angle: float, x: float):
    pref = ALPHA / (6 * mp.pi**2) * mpf(ratio) ** 2 * bandwidth * solid_angle
    x = mpf(x)
    return pref * coupling(x), pref * coupling_scale(x)


# ---------------------------------------------------------------- cli calls
def _table(check: Checker, text: str, header: str, rows: int | None, what: str):
    lines = text.split("\n")
    if not check.that(lines[0] == header, f"{what}: header {lines[0]!r}"):
        return []
    body = [_floats(line) for line in lines[1:-1]]
    check.that(lines[-1] == "", f"{what}: output does not end in a newline")
    if rows is not None:
        check.that(len(body) == rows, f"{what}: {len(body)} rows, expected {rows}")
    return body


def _summary(err: str, prefix: str) -> dict[str, float]:
    for line in err.splitlines():
        if line.startswith(prefix):
            return {k: float(v) for k, v in re.findall(r"(\w+)=([-+\w.]+)", line)
                    if v not in ("True", "False")}
    return {}


def _check_single_mode(check, out, err, v, what) -> None:
    r, theta, omega = v["r"], v["theta"], v["omega-bar-T"]
    apex, lambda3, n = v.get("ratio-RT", 0.1), v.get("lambda3-over-V", 1.0), v["t0-grid"]
    rows = _table(check, out, "t0,g,w_r,contrast_factor", n, what)
    period = math.pi / omega
    for k, (t0, g, w_r, contrast) in enumerate(rows):
        ref = single_mode(r, theta, omega, apex, lambda3, t0)
        check.close(t0, k * mp.pi / omega / n, period, 1e-14, f"{what} row {k} t0")
        check.close(g, *ref["g"], CLOSED_TOL, f"{what} row {k} g")
        check.close(w_r, *ref["w_r"], CLOSED_TOL, f"{what} row {k} w_r")
        check.that(abs(contrast - math.exp(w_r)) <= 1e-15 * contrast,
                   f"{what} row {k}: contrast_factor != exp(w_r)")
    ref = single_mode(r, theta, omega, apex, lambda3, 0.0)
    window = _summary(err, "window:")
    totals = _summary(err, "windowed shift=")
    expected = (("start", window, "window_start"), ("end", window, "window_end"),
                ("width", window, "window_width"), ("shift", totals, "w_r_avg"),
                ("bound", totals, "w_r_max"), ("vacuum", totals, "vacuum"),
                ("total", totals, "w_total"))
    for key, parsed, name in expected:
        if check.that(key in parsed, f"{what}: stderr summary lacks {key}="):
            check.close(parsed[key], *ref[name], CLOSED_TOL, f"{what} stderr {key}")


_BAND_HEADER = ("r,theta,omega_bar_T,ratio_RT,delta_omega_ratio,solid_angle,t0_omega,"
                "n_modes,windowed_exact,windowed_leading,leading_rel_err,t0_exact,"
                "mode_sum,mode_sum_rel_err")


def _check_band(check, out, v, what) -> None:
    rows = _table(check, out, _BAND_HEADER, 1, what)
    if not rows:
        return
    (*inputs, n, wx, wl, lerr, tx, ms, mserr) = rows[0]
    omega, t0w = v["omega-bar-T"], v["t0-omega"]
    solid_angle, apex = v.get("solid-angle", 0.1), v.get("ratio-RT", 0.1)
    check.that(inputs == [v["r"], v["theta"], omega, apex, v["delta-omega-ratio"],
                          solid_angle, t0w] and n == v["n-modes"],
               f"{what}: input columns {inputs + [n]}")
    args = (v["r"], v["theta"], omega, v["delta-omega-ratio"] * omega, solid_angle,
            apex, t0w / omega)
    ref = band(*args)
    check.close(wx, *ref["windowed_exact"], BAND_TOL, f"{what} windowed_exact")
    check.close(tx, *ref["t0_exact"], BAND_TOL, f"{what} t0_exact")
    check.close(wl, *ref["windowed_leading"], CLOSED_TOL, f"{what} windowed_leading")
    check.close(ms, mode_sum(*args, v["n-modes"]), ref["t0_exact"][1], CLOSED_TOL,
                f"{what} mode_sum")
    check.close(lerr, abs(wx - wl) / abs(wx), lerr, 1e-12, f"{what} leading_rel_err")
    check.close(mserr, abs(tx - ms) / abs(tx), mserr, 1e-12, f"{what} mode_sum_rel_err")


def _check_oracle(check, out, err, rows, what) -> None:
    for i, (omega, r, t0, closed, quad, rel_err) in enumerate(
            _table(check, out, "omega_bar_T,r,t0,closed,quadrature,rel_err", rows, what)):
        ref = single_mode(r, 0.0, omega, 0.1, 1.0, t0)
        check.close(closed, *ref["w_r"], CLOSED_TOL, f"{what} row {i} closed")
        check.close(quad, *ref["w_r"], QUAD_TOL, f"{what} row {i} quadrature")
        check.that(rel_err <= 1e-6, f"{what} row {i}: rel_err {rel_err!r} > 1e-6")
    check.that("max relative error" in err, f"{what}: no worst-point summary on stderr")


def _check_edge(check, out, omega, what) -> None:
    """A mended edge sweep: one range_error row, then the omega = 1 row."""
    lines = out.split("\n")
    check.that(lines[0] == SWEEP_HEADER and len(lines) == 4, f"{what}: table shape")
    if len(lines) != 4:
        return
    edge = lines[1].split(",")
    check.that(float(edge[2]) == omega and edge[-1] == "range_error"
               and all(math.isnan(float(c)) for c in edge[6:-1]),
               f"{what}: edge row {lines[1]!r}")
    check_sweep_table(check, "\n".join([lines[0], lines[2], ""]),
                      np.array([(1.0, 0.0, 1.0, 0.1, 1.0, 0.0)]), [0], what)


_ESTIMATES = {
    "cavity": ("kind,ratio_RT,lambda3_over_V,R_over_lambda,flight_phase,averaged,exact",
               ["cavity", "0.1", "1.0", "1.0"]),
    "empty-space": ("kind,ratio_RT,delta_omega_ratio,solid_angle,omega_bar_T,estimate",
                    ["empty-space", "0.1", "0.1", "0.1", "3.34"]),
}


def _check_estimate(check, out, kind, what) -> None:
    """The README estimate calls: defaults, so the inputs are fixed."""
    header, inputs = _ESTIMATES[kind]
    lines = out.split("\n")
    if not check.that(len(lines) == 3 and lines[0] == header and lines[2] == "",
                      f"{what}: table shape"):
        return
    cells = lines[1].split(",")
    check.that(cells[:len(inputs)] == inputs, f"{what}: input columns {cells[:len(inputs)]}")
    if kind == "cavity":
        ref = cavity(0.1, 1.0, 1.0)
        expected = [ref["flight_phase"], ref["averaged"], ref["exact"]]
    else:
        expected = [empty_space(0.1, 0.1, 0.1, 3.34)]
    names = header.split(",")[len(inputs):]
    for name, cell, (value, scale) in zip(names, cells[len(inputs):], expected):
        check.close(float(cell), value, scale, CLOSED_TOL, f"{what} {name}")


def check_call(check: Checker, call: dict, code: int, out: str, err: str,
               previous_out: str, output_file: bytes | None) -> bool:
    """Check one `cli_calls` invocation; returns True if the operation failed.

    A failed operation (exit status not 0) is counted, not checked.
    """
    kind, what = call["kind"], " ".join(call["argv"][:3])
    if code != 0:
        return True
    if kind == "edge":
        _check_edge(check, out, call["omega"], what)
    elif kind == "single-mode":
        _check_single_mode(check, out, err, call["values"], what)
    elif kind == "band":
        _check_band(check, out, call["values"], what)
    elif kind == "oracle":
        _check_oracle(check, out, err, call["rows"], what)
    elif kind in _ESTIMATES:
        _check_estimate(check, out, kind, what)
    elif kind == "sweep":
        check_sweep_table(check, out, call["columns"], range(len(call["columns"])), what)
    elif kind == "output":
        check.that(out == "", f"{what}: wrote to stdout with --output")
        check.that(output_file == previous_out.encode(),
                   f"{what}: --output bytes differ from the stdout of the same call")
    return False


# --------------------------------------------------------------- lib_verify
def check_lib(check: Checker, values: dict, plan: dict) -> None:
    """Check the results of one `lib_verify` pass."""
    r, theta, t0 = plan["r"], plan["theta"], plan["t0"]
    for x in LADDER_OMEGAS:
        ref = single_mode(r, theta, x, APEX, 1.0, t0)
        for key, name in (("quad_coherence_shift", "w_r"), ("quad_vacuum_term", "vacuum"),
                          ("quad_envelope", "envelope"),
                          ("quad_coherence_shift_separable", "w_r")):
            label = f"{key}@{x!r}"
            if label in values:
                check.close(values[label], *ref[name], QUAD_TOL, label)
    args = (r, theta, BAND_CENTER, BAND_RATIO * BAND_CENTER, BAND_SOLID_ANGLE, APEX, t0)
    ref = band(*args)
    if "band_windowed" in values:
        check.close(values["band_windowed"], *ref["windowed_exact"], BAND_TOL, "band_windowed")
    if "band_t0" in values:
        check.close(values["band_t0"], *ref["t0_exact"], BAND_TOL, "band_t0")
    # midpoint rule: error falls ~100x per decade of n, down to rounding
    exact, scale = ref["t0_exact"]
    errors = [float(abs(mpf(values[f"mode_sum@{n}"]) - exact) / scale)
              for n in LADDER_MODES if f"mode_sum@{n}" in values]
    if len(errors) == len(LADDER_MODES):
        check.that(errors[0] <= 1e-6, f"mode_sum@{LADDER_MODES[0]}: error {errors[0]:.3g}")
        for n, (coarse, fine) in zip(LADDER_MODES[1:], zip(errors, errors[1:])):
            check.that(fine <= max(coarse / 30.0, 1e-13),
                       f"mode_sum@{n}: error {fine:.3g} after {coarse:.3g}")
    if "locate_envelope_max" in values:
        x_star, height = values["locate_envelope_max"]
        root = envelope_peak()
        check.close(x_star, root, root, 1e-10, "locate_envelope_max position")
        check.close(height, 1024 * j2_bessel(root) ** 2, coupling_scale(root), 1e-10,
                    "locate_envelope_max height")
    for i, x in enumerate(plan["envelope_x"]):
        if "coupling_envelope" in values:
            x = mpf(x)
            check.close(values["coupling_envelope"][i], coupling(x), coupling_scale(x),
                        CLOSED_TOL, f"coupling_envelope({mpmath.nstr(x, 6)})")
    ratio, lambda3, apex_over_lambda = plan["cavity"]
    ref = cavity(ratio, lambda3, apex_over_lambda)
    if "cavity_estimate" in values:
        check.close(values["cavity_estimate"], *ref["averaged"], CLOSED_TOL, "cavity_estimate")
    if "cavity_estimate_exact" in values:
        check.close(values["cavity_estimate_exact"], *ref["exact"], CLOSED_TOL,
                    "cavity_estimate_exact")
    if "empty_space_estimate" in values:
        check.close(values["empty_space_estimate"], *empty_space(*plan["empty"]),
                    CLOSED_TOL, "empty_space_estimate")


@lru_cache(maxsize=None)
def envelope_peak():
    """First root of j2' (the envelope maximum), by ``mpmath.findroot``."""
    return mp.findroot(lambda x: mp.diff(j2_bessel, x), mpf("3.34"))


def lib_refs(plan: dict) -> None:
    """Compute the `lib_verify` references ahead of the timed passes."""
    check_lib(Checker(), {}, plan)
    band(plan["r"], plan["theta"], BAND_CENTER, BAND_RATIO * BAND_CENTER,
         BAND_SOLID_ANGLE, APEX, plan["t0"])
    envelope_peak()

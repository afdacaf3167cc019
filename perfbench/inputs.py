"""Seeded inputs of the three benchmark workloads.

Every workload draws its inputs from ``random.Random(seed)``, so one seed
always gives the same inputs; the program under test only ever sees the
generated command lines or arguments.  Sizes never depend on the seed.
This module imports nothing from the package, so the harness can build the
inputs and the references without loading the program.
"""

from __future__ import annotations

import math
import random

import numpy as np

# ---------------------------------------------------------------- cli_sweep
#: r x omega-bar-T x t0-omega of the `grid3` sweep (ROADMAP baseline size)
GRID3_SHAPE = (20, 50, 20)
#: rows of the `line_omega` sweep: one omega-bar-T axis, no shared envelope
LINE_ROWS = 10_000
#: rows per sweep that are checked against mpmath
SWEEP_SAMPLE = 40

SWEEP_HEADER = (
    "r,theta,omega_bar_T,ratio_RT,lambda3_over_V,t0_omega,g,w_r,"
    "contrast_factor,window_width,g_avg,w_r_avg,w_r_max,w_total,status"
)


def _uniform(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return sorted(rng.uniform(lo, hi) for _ in range(n))


def _log_uniform(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return sorted(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n))


def sweep_plan(seed: int) -> list[dict]:
    """The two sweeps of one `cli_sweep` pass, with their expected inputs.

    Each entry holds the CLI arguments and ``columns``: the six input
    columns (r, theta, omega_bar_T, ratio_RT, lambda3_over_V, t0_omega) of
    every row, in the row-major order of the Cartesian product.
    """
    rng = random.Random(seed)
    n_r, n_w, n_t = GRID3_SHAPE
    rs = _uniform(rng, n_r, 0.05, 3.0)
    omegas = _log_uniform(rng, n_w, 0.3, 50.0)
    t0s = _uniform(rng, n_t, 0.0, 2.0 * math.pi)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    grid = np.array(
        [(r, theta, w, 0.1, 1.0, t) for r in rs for w in omegas for t in t0s]
    )

    line_r = rng.uniform(0.05, 3.0)
    line_theta = rng.uniform(0.0, 2.0 * math.pi)
    line_t0 = rng.uniform(0.0, 2.0 * math.pi)
    line_lambda = rng.uniform(0.5, 2.0)
    lo, hi = rng.uniform(0.3, 1.0), rng.uniform(30.0, 50.0)
    line_omegas = np.linspace(lo, hi, LINE_ROWS)  # START:STOP:COUNT semantics
    line = np.empty((LINE_ROWS, 6))
    line[:] = (line_r, line_theta, 0.0, 0.1, line_lambda, line_t0)
    line[:, 2] = line_omegas

    def joined(values):
        return ",".join(repr(v) for v in values)

    return [
        {
            "name": "grid3",
            "argv": [
                "sweep",
                "--theta", repr(theta),
                "--vary", f"r={joined(rs)}",
                "--vary", f"omega-bar-T={joined(omegas)}",
                "--vary", f"t0-omega={joined(t0s)}",
            ],
            "columns": grid,
            "sample": sorted(rng.sample(range(len(grid)), SWEEP_SAMPLE)),
        },
        {
            "name": "line_omega",
            "argv": [
                "sweep",
                "--r", repr(line_r),
                "--theta", repr(line_theta),
                "--t0-omega", repr(line_t0),
                "--lambda3-over-V", repr(line_lambda),
                "--vary", f"omega-bar-T={lo!r}:{hi!r}:{LINE_ROWS}",
            ],
            "columns": line,
            "sample": sorted(rng.sample(range(LINE_ROWS), SWEEP_SAMPLE)),
        },
    ]


# ---------------------------------------------------------------- cli_calls
#: the two sweep edge invocations that fail today (exit 1, no table)
EDGE_OMEGAS = ("1e-300", "1e300")


def calls_plan(seed: int, config_path: str, output_path: str) -> list[dict]:
    """The invocations of one `cli_calls` pass, in the order they run.

    The first seven are the README's Command line block plus
    ``oracle --grid default``; the seed picks the values of the --config
    INI call and of the --output pair.  ``kind`` tells the checker what to
    expect.  Returns the plan; the INI text is under the ``ini`` key of the
    config call and must be written to ``config_path`` before it runs.
    """
    rng = random.Random(seed)
    cfg = {
        "r": rng.uniform(0.2, 2.5),
        "theta": rng.uniform(0.0, 2.0 * math.pi),
        "omega-bar-T": rng.uniform(0.5, 20.0),
        "ratio-RT": rng.uniform(0.05, 0.3),
        "lambda3-over-V": rng.uniform(0.5, 2.0),
        "t0-grid": 16,
    }
    ini = "[single-mode]\n" + "".join(
        f"{key} = {value!r}\n" for key, value in cfg.items()
    )
    band = {
        "r": rng.uniform(0.3, 2.0),
        "theta": rng.uniform(0.0, 2.0 * math.pi),
        "omega-bar-T": rng.uniform(2.0, 6.0),
        "t0-omega": rng.uniform(0.0, 3.0),
        "delta-omega-ratio": rng.uniform(0.02, 0.05),
        "n-modes": 128,
    }
    band_argv = ["band"] + [
        part for key, value in band.items() for part in (f"--{key}", repr(value))
    ]
    readme_single = {"r": 1.0, "theta": 0.0, "omega-bar-T": 3.34,
                     "ratio-RT": 0.1, "lambda3-over-V": 1.0, "t0-grid": 32}
    readme_band = {"r": 1.0, "theta": 0.0, "omega-bar-T": 3.34,
                   "t0-omega": 0.0, "delta-omega-ratio": 0.05, "n-modes": 256}
    sweep_columns = np.array(
        [(r, 0.0, 3.34, 0.1, 1.0, t)
         for r in (0.5, 1.0, 2.0) for t in np.linspace(0.0, 3.14, 8)]
    )
    plan = [
        {"kind": "single-mode", "values": readme_single,
         "argv": ["single-mode", "--r", "1.0", "--omega-bar-T", "3.34",
                  "--t0-grid", "32"]},
        {"kind": "band", "values": readme_band,
         "argv": ["band", "--delta-omega-ratio", "0.05", "--n-modes", "256"]},
        {"kind": "oracle", "rows": 16, "argv": ["oracle", "--grid", "quick"]},
        {"kind": "oracle", "rows": 128, "argv": ["oracle", "--grid", "default"]},
        {"kind": "cavity", "argv": ["estimate", "cavity", "--lambda3-over-V",
                                    "1.0", "--ratio-RT", "0.1"]},
        {"kind": "empty-space", "argv": ["estimate", "empty-space",
                                         "--solid-angle", "0.1"]},
        {"kind": "sweep", "columns": sweep_columns,
         "argv": ["sweep", "--vary", "r=0.5,1,2", "--vary", "t0-omega=0:3.14:8"]},
        {"kind": "single-mode", "values": cfg, "ini": ini,
         "argv": ["single-mode", "--config", config_path]},
        {"kind": "band", "values": band, "argv": band_argv},
        {"kind": "output", "argv": band_argv + ["--output", output_path],
         "path": output_path},
    ]
    for omega in EDGE_OMEGAS:
        plan.append(
            {"kind": "edge", "omega": float(omega),
             "argv": ["sweep", "--vary", f"omega-bar-T={omega},1"]}
        )
    return plan


# ---------------------------------------------------------------- lib_verify
#: omega*T of the oracle ladder; stops at 100 (the tensor route is O(N^2))
LADDER_OMEGAS = (3.34, 10.0, 30.0, 100.0)
#: modes of the mode-sum ladder
LADDER_MODES = (10**3, 10**4, 10**5, 10**6)
BAND_CENTER, BAND_RATIO, BAND_SOLID_ANGLE = 3.34, 0.05, 0.1
APEX = 0.1  # R/T of every lib_verify trajectory, T = 1


def lib_plan(seed: int) -> dict:
    """Scalar inputs of one `lib_verify` pass."""
    rng = random.Random(seed)
    return {
        "r": rng.uniform(0.3, 2.0),
        "theta": rng.uniform(0.0, 2.0 * math.pi),
        "t0": rng.uniform(0.0, 1.0),
        "envelope_x": _uniform(rng, 8, 0.5, 20.0),
        "cavity": (rng.uniform(0.05, 0.2), rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)),
        "empty": (rng.uniform(0.05, 0.2), rng.uniform(0.02, 0.1),
                  rng.uniform(0.05, 0.2), rng.uniform(2.0, 8.0)),
    }

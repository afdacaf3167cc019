"""Program-side process of the benchmark: runs the package in-process.

    python3 perfbench/worker.py lib SEED SECONDS
    python3 perfbench/worker.py trace WORKLOAD SEED PLAN.json SPANS.npz

``lib`` imports the package, builds the `lib_verify` inputs from SEED,
warms every operation up once at its smallest rung and prints ``ready``;
the harness times set-up up to that line.  It then runs whole passes,
at least one, until the next would end after SECONDS, printing one JSON
line per pass with its wall time and every result.

``trace`` runs two untraced passes (a warm-up, then the base of
``trace.overhead_s``), wraps the package with ``tracer.Tracer``, runs the
same pass traced, saves the spans and prints the per-layer metrics with
the traced pass's results.  CLI workloads call ``recoherence.cli.main``
in-process here; the argument lists come from PLAN.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import time
import traceback

import numpy as np

import recoherence as rc
from inputs import (APEX, BAND_CENTER, BAND_RATIO, BAND_SOLID_ANGLE,
                    LADDER_MODES, LADDER_OMEGAS, lib_plan)

def lib_ops(plan: dict) -> list[tuple[str, bool, str, tuple, dict]]:
    """(key, warm-up?, package function, args, kwargs) of one pass.

    Functions are looked up on the package at call time, so a traced pass
    goes through the wrappers.
    """
    state = rc.SqueezeState(plan["r"], plan["theta"])
    traj = rc.Trajectory(apex=APEX, half_time=1.0)
    t0 = plan["t0"]
    ops = []
    for rung, x in enumerate(LADDER_OMEGAS):
        mode = rc.ModeSpec(omega=x, volume=(2.0 * math.pi / x) ** 3)
        warm = rung == 0
        ops += [
            (f"quad_coherence_shift@{x!r}", warm, "quad_coherence_shift",
             (state, mode, traj, t0), {}),
            (f"quad_vacuum_term@{x!r}", warm, "quad_vacuum_term", (mode, traj), {}),
            (f"quad_envelope@{x!r}", warm, "quad_envelope", (mode, traj), {}),
            (f"quad_coherence_shift_separable@{x!r}", warm,
             "quad_coherence_shift_separable", (state, mode, traj, t0), {}),
        ]
    band = rc.BandSpec(center=BAND_CENTER, half_width=BAND_RATIO * BAND_CENTER,
                       solid_angle=BAND_SOLID_ANGLE)
    ops += [
        ("band_windowed", True, "band_coherence_shift_exact", (state, band, traj), {}),
        ("band_t0", True, "band_coherence_shift_exact", (state, band, traj),
         {"window_averaged": False, "t0": t0}),
    ]
    ops += [(f"mode_sum@{n}", rung == 0, "mode_sum_oracle", (state, band, traj, n, t0), {})
            for rung, n in enumerate(LADDER_MODES)]
    cavity = rc.CavityScenario.from_ratios(*plan["cavity"])
    ratio, bandwidth, solid_angle, phase = plan["empty"]
    empty = rc.EmptySpaceScenario(ratio_rt=ratio, bandwidth_ratio=bandwidth,
                                  solid_angle=solid_angle, flight_phase=phase)
    ops += [
        ("locate_envelope_max", True, "locate_envelope_max", (), {}),
        ("coupling_envelope", True, "coupling_envelope",
         (np.array(plan["envelope_x"]),), {}),
        ("cavity_estimate", True, "cavity_estimate", (cavity,), {}),
        ("cavity_estimate_exact", True, "cavity_estimate_exact", (cavity,), {}),
        ("empty_space_estimate", True, "empty_space_estimate", (empty,), {}),
    ]
    return ops


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [float(v) for v in value]
    return float(value)


def run_lib_pass(ops, warm_only: bool = False) -> tuple[float, dict, dict]:
    """Run the operations once; returns (wall s, results, errors)."""
    values, errors = {}, {}
    start = time.perf_counter()
    for key, warm, name, args, kwargs in ops:
        if warm_only and not warm:
            continue
        try:
            values[key] = getattr(rc, name)(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation
            errors[key] = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return wall, {k: _plain(v) for k, v in values.items()}, errors


def run_cli_pass(plan: list[list[str]]) -> tuple[float, list[dict]]:
    """Call ``cli.main`` once per argument list, capturing its streams.

    An exception escaping ``main`` is what the interpreter would turn into
    exit status 1 and a traceback, so it is recorded that way.
    """
    results = []
    wall = 0.0
    for argv in plan:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rc.cli.main(list(argv))
            except Exception:
                traceback.print_exc()
                code = 1
        wall += time.perf_counter() - start
        results.append({"code": code, "out": out.getvalue(), "err": err.getvalue()})
    return wall, results


def _sweep_rows(plan, results) -> int:
    return sum(res["out"].count("\n") - 1 for argv, res in zip(plan, results)
               if argv[0] == "sweep" and res["code"] == 0)


def trace(workload: str, seed: int, plan_path: str, spans_path: str) -> dict:
    from tracer import Tracer

    if workload == "lib_verify":
        ops = lib_ops(lib_plan(seed))
        untraced = [run_lib_pass(ops)[0] for _ in range(2)][-1]
        tracer = Tracer()
        tracer.install(rc)
        traced, values, errors = run_lib_pass(ops)
        result = {"values": values, "errors": errors}
        rows = 0
    else:
        import recoherence.cli  # noqa: F401  (binds rc.cli)

        with open(plan_path, encoding="utf-8") as fh:
            plan = json.load(fh)
        untraced = [run_cli_pass(plan)[0] for _ in range(2)][-1]
        tracer = Tracer()
        tracer.install(rc)
        traced, results = run_cli_pass(plan)
        result = {"results": results}
        rows = _sweep_rows(plan, results)
    metrics = tracer.layer_metrics(rows)
    metrics["trace.overhead_s"] = traced - untraced
    tracer.save(spans_path)
    result["metrics"] = metrics
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "trace":
        workload, seed, plan_path, spans_path = argv[1:5]
        print(json.dumps(trace(workload, int(seed), plan_path, spans_path)))
        return 0
    seed = int(argv[1])
    ops = lib_ops(lib_plan(seed))
    run_lib_pass(ops, warm_only=True)
    print("ready", flush=True)
    seconds = float(argv[2])
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall, values, errors = run_lib_pass(ops)
        walls.append(wall)
        print(json.dumps({"wall": wall, "values": values, "errors": errors}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans around the package's public functions, wrapped from outside.

``Tracer.install`` wraps every public function of the traced modules, and
the ``__post_init__``, public methods and properties of their classes.  A
name bound by ``from .x import name`` is a separate binding, so every
``recoherence`` module namespace that binds a wrapped object is patched.
Spans (function id, parent span, start and end in ns) live in flat arrays
in memory and are written out once, after the traced pass.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

#: traced modules; the metric prefix drops the leading underscore of _special
MODULES = ("cli", "single_mode", "_special", "squeezed_state", "trajectory",
           "oracle_quadrature", "multimode_band", "estimates")

#: calls whose arguments the per-layer metrics need
_NOTED = {
    "oracle_quadrature.quad_coherence_shift",
    "oracle_quadrature.quad_vacuum_term",
    "oracle_quadrature.quad_envelope",
    "oracle_quadrature.quad_coherence_shift_separable",
    "oracle_quadrature.integrate_oscillatory",
    "multimode_band.mode_sum_oracle",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.notes: dict[int, inspect.BoundArguments] = {}
        self._signatures: dict[int, inspect.Signature] = {}

    # ------------------------------------------------------------ install
    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter_ns
        noted = name in _NOTED
        if noted:
            self._signatures[fid] = inspect.signature(fn)
        notes, signatures = self.notes, self._signatures

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            if noted:
                notes[idx] = signatures[fid].bind(*args, **kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap the traced modules of an imported ``recoherence`` package."""
        replaced: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules.get(f"{package.__name__}.{short}")
            if module is None:  # not imported by this workload
                continue
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._wrap_class(short, obj)
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_class(self, short: str, cls) -> None:
        prefix = f"{short}.{cls.__name__}"
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            if inspect.isfunction(member):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, property) and member.fget is not None:
                fget = self._wrap(f"{prefix}.{attr}", member.fget)
                setattr(cls, attr, property(fget, member.fset, member.fdel, member.__doc__))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", member.__func__)))

    # ------------------------------------------------------------ results
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, sweep_rows: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far.

        ``sweep_rows`` is the number of CSV rows the traced ``cli.sweep``
        calls wrote; it is the base of the per-row figures.
        """
        a = self.arrays()
        fid, parent = a["fid"], a["parent"]
        dur = (a["end"] - a["start"]) * 1e-9
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - children
        n = len(self.names)
        calls = np.bincount(fid, minlength=n)
        total = np.bincount(fid, weights=dur, minlength=n)
        own = np.bincount(fid, weights=self_time, minlength=n)
        index = {name: i for i, name in enumerate(self.names)}

        def fn_calls(name):
            return int(calls[index[name]]) if name in index else 0

        def per_call(name, unit):
            i = index.get(name)
            return float(total[i] / calls[i] * unit) if i is not None and calls[i] else 0.0

        out: dict[str, float] = {}
        for short in MODULES:
            ids = [i for i, name in enumerate(self.names) if name.startswith(short + ".")]
            key = short.lstrip("_")
            out[f"{key}.self_s"] = float(own[ids].sum())
            out[f"{key}.calls"] = int(calls[ids].sum())

        sweep = index.get("cli.sweep")
        under_sweep = np.zeros(len(fid), dtype=bool)
        if sweep is not None:
            for i in np.flatnonzero(fid == sweep):
                under_sweep |= (a["start"] >= a["start"][i]) & (a["end"] <= a["end"][i])
        envelope = index.get("single_mode.mode_envelope", -1)
        rows = max(sweep_rows, 1)
        sweep_time = float(total[sweep]) if sweep is not None else 0.0
        out["cli.sweep.us_per_row"] = sweep_time / rows * 1e6 if sweep_rows else 0.0
        out["single_mode.mode_envelope.calls_per_row"] = (
            float(np.count_nonzero(under_sweep & (fid == envelope))) / rows
            if sweep_rows else 0.0
        )
        out["single_mode.coherence_shift.us_per_call"] = per_call(
            "single_mode.coherence_shift", 1e6)
        out["special.j2_over_x.us_per_call"] = per_call("_special.j2_over_x", 1e6)
        out["special.phase_weight.calls"] = fn_calls("_special.phase_weight")
        out["estimates.locate_envelope_max.us_per_call"] = per_call(
            "estimates.locate_envelope_max", 1e6)
        out.update(self._oracle_metrics(index, dur))
        out.update(self._mode_sum_metrics(index, dur))
        return out

    def _noted(self, index, name, dur):
        fid = index.get(name)
        for idx, bound in self.notes.items():
            if self.fid[idx] == fid:
                yield bound, float(dur[idx])

    def _oracle_metrics(self, index, dur) -> dict[str, float]:
        """Node and kernel counts from each call's QuadratureConfig.

        Uses the documented panel rule: max(4, ceil(periods * nodes per
        period / order)) panels of ``order`` nodes, evaluated at the base
        budget and, when refinement is on, again at the doubled budget.
        The tensor routes assemble one N x N complex128 kernel per
        evaluation.
        """
        nodes = 0
        kernel_bytes = 0
        shift_times: dict[float, list[float]] = {}
        for short in ("quad_coherence_shift", "quad_vacuum_term", "quad_envelope",
                      "quad_coherence_shift_separable", "integrate_oscillatory"):
            for bound, seconds in self._noted(index, f"oracle_quadrature.{short}", dur):
                args = bound.arguments
                if short == "integrate_oscillatory":
                    periods = args["oscillations"]
                else:
                    periods = args["mode"].omega * args["traj"].half_time / math.pi
                cfg = args.get("cfg")
                npp = cfg.nodes_per_period if cfg else 32
                order = int((cfg.scheme if cfg else "gl8")[2:])
                budgets = [npp, 2 * npp] if args.get("refine", True) and (
                    short != "quad_coherence_shift_separable") else [npp]
                for budget in budgets:
                    n = max(4, math.ceil(periods * budget / order)) * order
                    nodes += n
                    if short in ("quad_coherence_shift", "quad_vacuum_term"):
                        kernel_bytes += 16 * n * n
                if short == "quad_coherence_shift":
                    x = args["mode"].omega * args["traj"].half_time
                    shift_times.setdefault(x, []).append(seconds)
        slope = 0.0
        if len(shift_times) >= 2:
            (x1, t1), (x2, t2) = sorted(
                (x, sum(ts) / len(ts)) for x, ts in shift_times.items())[-2:]
            slope = math.log(t2 / t1) / math.log(x2 / x1)
        return {
            "oracle_quadrature.nodes_computed": nodes,
            "oracle_quadrature.kernel_mb_computed": kernel_bytes / 1e6,
            "oracle_quadrature.cost_exponent": slope,
        }

    def _mode_sum_metrics(self, index, dur) -> dict[str, float]:
        modes = 0
        seconds = 0.0
        for bound, t in self._noted(index, "multimode_band.mode_sum_oracle", dur):
            modes += int(bound.arguments["n_modes"])
            seconds += t
        return {"multimode_band.mode_sum_oracle.ns_per_mode":
                seconds / modes * 1e9 if modes else 0.0}

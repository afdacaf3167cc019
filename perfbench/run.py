"""Benchmark of the recoherence package: three workloads, one command.

    python3 perfbench/run.py --workload cli_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is loaded from
``src/`` and never installed.  ``--trace 0`` prints the end-to-end metrics
(setup_s, wall_s, peak_rss_mb), ``--trace 1`` the per-layer metrics of a
separate traced run.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; details go to
stderr and to ``perfbench/out/``.  Workloads, metrics and reference
figures are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread for this process and every process it starts
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import refs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = str(HERE / "worker.py")

#: timed set-ups per run; setup_s is their median
SETUP_SAMPLES = 5
#: fewest passes a CLI run makes, however short --seconds is
MIN_CLI_PASSES = 3
#: `python -X importtime` runs per traced run; import.* are their medians
IMPORTTIME_SAMPLES = 3

WORKLOADS = ("cli_sweep", "cli_calls", "lib_verify")


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


@dataclass
class Proc:
    code: int
    out: bytes
    err: str
    wall: float  # start to exit, s
    setup: float | None  # start to the worker's "ready" line, s
    rss_mb: float  # peak resident set of the process, MB (1e6 bytes)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _env()


def spawn(args: list[str], ready: bool = False) -> Proc:
    """Run ``python args`` from the checkout root and wait for it to end.

    Peak RSS comes from the child's own rusage (``os.wait4``).  With
    ``ready`` the child's first stdout line must be ``ready``, and the time
    to it is its set-up time.  stderr goes to a file, so a long traceback
    cannot block the child while stdout is read.
    """
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=err, env=ENV, cwd=ROOT)
        try:
            setup = None
            if ready:
                line = proc.stdout.readline()
                setup = time.perf_counter() - start
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_text = err.read().decode("utf-8", "replace")
    if ready and line != b"ready\n":
        raise BenchError(f"worker {args[1:3]} did not start: {err_text.strip()[-2000:]}")
    return Proc(proc.returncode, out, err_text, wall, setup, usage.ru_maxrss * 1024 / 1e6)


def import_once() -> float:
    """Wall time of one fresh ``python -c "import recoherence"`` process."""
    proc = spawn(["-c", "import recoherence"])
    if proc.code != 0:
        raise BenchError(f"import recoherence failed: {proc.err.strip()[-2000:]}")
    return proc.wall


# ------------------------------------------------------------------ workloads
def _cli_passes(plan: list[dict], seconds: float, check, check_pass) -> dict:
    """Whole passes of fresh ``python -m recoherence`` processes, one per call.

    Passes continue, at least MIN_CLI_PASSES, until the next one would end
    after ``seconds``.  setup_s is the median of SETUP_SAMPLES fresh imports, one before each
    pass and the rest after the last, so they spread over the run.  One
    untimed import first writes the bytecode cache and warms the page
    cache; users pay that once per install, not per call.
    """
    import_once()
    setups, walls, rss = [], [], 0.0
    attempted = failed = 0
    started = time.perf_counter()
    while len(walls) < MIN_CLI_PASSES or (
            time.perf_counter() - started + statistics.median(walls) <= seconds):
        setups.append(import_once())
        wall = 0.0
        results = []
        for call in plan:
            if "path" in call:
                (ROOT / call["path"]).unlink(missing_ok=True)
            proc = spawn(["-m", "recoherence", *call["argv"]])
            wall += proc.wall
            rss = max(rss, proc.rss_mb)
            results.append((proc.code, proc.out.decode(), proc.err))
        attempted += len(plan)
        failed += check_pass(check, plan, results)
        walls.append(wall)
    setups += [import_once() for _ in range(SETUP_SAMPLES - len(setups))]
    return {"attempted": attempted, "failed": failed, "walls": walls,
            "metrics": {"setup_s": statistics.median(setups),
                        "wall_s": statistics.median(walls), "peak_rss_mb": rss}}


def _report_failure(argv: list[str], code: int, err: str) -> None:
    tail = err.strip().splitlines()[-1:] or [""]
    print(f"perfbench: failed: recoherence {' '.join(argv)[:80]}: exit {code}: {tail[0]}",
          file=sys.stderr)


def _check_sweeps(check, plan, results, first: dict | None = None) -> int:
    """Check one pass of `cli_sweep`; returns its failed operations.

    With ``first``, the first output of each sweep is checked in full and
    later ones must repeat it byte for byte.
    """
    failed = 0
    for sweep, (code, out, err) in zip(plan, results):
        name = sweep["name"]
        if code != 0:
            failed += 1
            _report_failure(sweep["argv"], code, err)
        elif first is not None and name in first:
            check.that(out == first[name], f"sweep {name}: output differs from the first pass")
        else:
            if first is not None:
                first[name] = out
            refs.check_sweep_table(check, out, sweep["columns"], sweep["sample"],
                                   f"sweep {name}")
    return failed


def _check_calls(check, plan, results) -> int:
    """Check one pass of `cli_calls`; returns its failed operations."""
    failed = 0
    previous = ""
    for call, (code, out, err) in zip(plan, results):
        output_file = None
        if "path" in call and (ROOT / call["path"]).exists():
            output_file = (ROOT / call["path"]).read_bytes()
        if refs.check_call(check, call, code, out, err, previous, output_file):
            failed += 1
            _report_failure(call["argv"], code, err)
        previous = out
    return failed


def _sweep_plan(seed: int) -> list[dict]:
    plan = inputs.sweep_plan(seed)
    refs.sweep_refs(plan)
    return plan


def _calls_plan(seed: int) -> list[dict]:
    config = OUT / "cli_calls.ini"
    plan = inputs.calls_plan(seed, str(config.relative_to(ROOT)),
                             str((OUT / "cli_calls_output.csv").relative_to(ROOT)))
    for call in plan:
        if "ini" in call:
            config.write_text(call["ini"], encoding="utf-8")
    return plan


def cli_sweep(seed: int, seconds: float, check) -> dict:
    """Two sweeps per pass: `grid3` (shared envelopes) and `line_omega` (none)."""
    return _cli_passes(_sweep_plan(seed), seconds, check,
                       functools.partial(_check_sweeps, first={}))


def cli_calls(seed: int, seconds: float, check) -> dict:
    """Every subcommand at its README defaults, plus --config and --output."""
    return _cli_passes(_calls_plan(seed), seconds, check, _check_calls)


def lib_verify(seed: int, seconds: float, check) -> dict:
    """Oracle, band and mode-sum ladders and estimates, in-process.

    SETUP_SAMPLES fresh workers each set up once and then run whole passes
    for an equal share of the run, so set-up samples and passes spread over
    the run; setup_s is the median of their set-up times.
    """
    plan = inputs.lib_plan(seed)
    refs.lib_refs(plan)
    share = repr(seconds / SETUP_SAMPLES)
    workers = []
    for _ in range(SETUP_SAMPLES):
        proc = spawn([WORKER, "lib", str(seed), share], ready=True)
        if proc.code != 0:
            raise BenchError(f"lib_verify worker exited {proc.code}: "
                             f"{proc.err.strip()[-2000:]}")
        workers.append(proc)
    passes = [json.loads(line) for proc in workers for line in proc.out.decode().splitlines()]
    attempted = failed = 0
    for number, result in enumerate(passes):
        attempted += len(result["values"]) + len(result["errors"])
        failed += len(result["errors"])
        for key, error in result["errors"].items():
            print(f"perfbench: failed: lib_verify pass {number}: {key}: {error}",
                  file=sys.stderr)
        refs.check_lib(check, result["values"], plan)
    walls = [result["wall"] for result in passes]
    return {"attempted": attempted, "failed": failed, "walls": walls,
            "metrics": {"setup_s": statistics.median(p.setup for p in workers),
                        "wall_s": statistics.median(walls),
                        "peak_rss_mb": max(p.rss_mb for p in workers)}}


# ---------------------------------------------------------------------- trace
def import_layers() -> dict[str, float]:
    """import.total_s and import.scipy_s from ``python -X importtime``.

    scipy_s sums the cumulative times of the outermost scipy modules, the
    part that dropping scipy would remove.
    """
    totals, scipys = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = spawn(["-X", "importtime", "-c", "import recoherence"])
        if proc.code != 0:
            raise BenchError(f"import recoherence failed: {proc.err.strip()[-2000:]}")
        entries = []
        for line in proc.err.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                field = parts[2]
                depth = len(field) - len(field.lstrip())
                entries.append((depth, field.strip(), int(parts[1]) * 1e-6))
        # importtime prints children before parents; walk it parents first
        total = scipy = 0.0
        ancestors: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            if name == "recoherence":
                total = cumulative
            is_scipy = name.split(".")[0] == "scipy"
            if is_scipy and not any(a.split(".")[0] == "scipy" for _, a in ancestors):
                scipy += cumulative
            ancestors.append((depth, name))
        totals.append(total)
        scipys.append(scipy)
    return {"import.total_s": statistics.median(totals),
            "import.scipy_s": statistics.median(scipys)}


def traced(workload: str, seed: int, check) -> dict:
    """One traced pass in a fresh worker, after two untraced ones."""
    metrics = import_layers()
    plan_path = OUT / f"plan-{workload}.json"
    spans = OUT / f"spans-{workload}.npz"
    if workload == "lib_verify":
        plan = inputs.lib_plan(seed)
        refs.lib_refs(plan)
    else:
        plan = _sweep_plan(seed) if workload == "cli_sweep" else _calls_plan(seed)
        plan_path.write_text(json.dumps([call["argv"] for call in plan]), encoding="utf-8")
    proc = spawn([WORKER, "trace", workload, str(seed), str(plan_path), str(spans)])
    if proc.code != 0:
        raise BenchError(f"traced {workload} exited {proc.code}: {proc.err.strip()[-2000:]}")
    result = json.loads(proc.out.decode().splitlines()[-1])
    metrics.update(result["metrics"])
    if workload == "lib_verify":
        refs.check_lib(check, result["values"], plan)
        attempted = len(result["values"]) + len(result["errors"])
        failed = len(result["errors"])
        output_bytes = 0
    else:
        results = [(r["code"], r["out"], r["err"]) for r in result["results"]]
        attempted = len(results)
        check_pass = _check_sweeps if workload == "cli_sweep" else _check_calls
        failed = check_pass(check, plan, results)
        output_bytes = sum(len(out.encode()) for _, out, _ in results) + sum(
            (ROOT / c["path"]).stat().st_size for c in plan if "path" in c)
    metrics["cli.output_bytes"] = output_bytes
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "recoherence" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    check = refs.Checker()
    try:
        if args.trace:
            run = traced(args.workload, args.seed, check)
            listed = spec["per_layer"]
        else:
            run = globals()[args.workload](args.seed, args.seconds, check)
            listed = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in check.failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": check.ok,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  walls=run.get("walls"), failures=check.failures[:200])
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())

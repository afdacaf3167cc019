"""The CLI tables against frozen bytes, at any block size and in bounded
memory, and the sweep against the per-row scalar path."""

import contextlib
import io
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recoherence import (
    DomainError,
    ModeSpec,
    RangeError,
    SqueezeState,
    Trajectory,
    coherence_shift,
    emission_window,
    modulation,
    unitarity_sum,
    windowed_coherence_shift,
    windowed_modulation,
)
from recoherence import cli

# 3 x 4 x 3 rows with ok, degenerate (r = 0) and range_error rows (r above
# SQUEEZE_CAP, omega-bar-T at both edges of double precision)
_GOLDEN_ARGV = [
    "sweep", "--theta", "0.3", "--ratio-RT", "0.2",
    "--vary", "r=0,1.5,351",
    "--vary", "omega-bar-T=1e-300,0.5,3.34,1e300",
    "--vary", "t0-omega=0,1,2.5",
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_sweep_bytes_are_frozen(tmp_path):
    golden = (Path(__file__).parent / "golden_sweep.csv").read_bytes()
    code, out, err = _run(_GOLDEN_ARGV)
    assert (code, err) == (0, "") and out.encode() == golden
    path = tmp_path / "sweep.csv"
    assert _run(_GOLDEN_ARGV + ["--output", str(path)])[:2] == (0, "")
    assert path.read_bytes() == golden


# the closed-form tables; band and oracle are left out, since their
# quadrature may move in the last bits
@pytest.mark.parametrize(
    "argv",
    [["single-mode"], ["estimate", "cavity"], ["estimate", "empty-space"]],
    ids=["single-mode", "estimate-cavity", "estimate-empty-space"],
)
def test_closed_form_bytes_are_frozen(argv, tmp_path):
    name = "_".join(argv).replace("-", "_")
    golden = (Path(__file__).parent / f"golden_{name}.csv").read_bytes()
    code, out, err = _run(argv)
    assert code == 0 and out.encode() == golden
    path = tmp_path / "table.csv"
    assert _run(argv + ["--output", str(path)]) == (0, "", err)
    assert path.read_bytes() == golden


@pytest.mark.parametrize("rows", [1, 7, 4096])
def test_bytes_do_not_depend_on_the_block_size(rows, monkeypatch):
    # 1 and 7 split the golden sweep's 3 x 4 x 3 rows inside every axis
    golden = (Path(__file__).parent / "golden_sweep.csv").read_text(encoding="utf-8")
    single = _run(["single-mode", "--t0-grid", "20"])
    monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
    assert _run(_GOLDEN_ARGV) == (0, golden, "")
    assert _run(["single-mode", "--t0-grid", "20"]) == single


@pytest.mark.parametrize("rows", [1, 7])
def test_each_value_is_formatted_once_at_any_block_size(rows, monkeypatch):
    # at one row a block every column but g, w_r, the contrast factor and
    # status recurs from block to block; each is formatted once, in full
    formatted = []
    monkeypatch.setattr(
        cli, "repr", lambda value: formatted.append(value) or repr(value), raising=False
    )
    _run(_GOLDEN_ARGV)  # one block
    once = len(formatted)
    formatted.clear()
    monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
    assert _run(_GOLDEN_ARGV)[0] == 0 and len(formatted) == once


# 50,000 rows each.  Under tracemalloc they peak at 4.6, 6.4 and 8.2 MB;
# a writer that joins the table into one string peaks at 17.4 MB on the
# first, one that formats whole columns when the first axis is short at
# 52.6 MB on the second, and a status column of <U11 strings at 10.2 MB on
# the third, a one-axis sweep.
@pytest.mark.parametrize(
    "argv, peak_mb",
    [
        (["single-mode", "--t0-grid", "50000"], 10.0),
        (["sweep", "--vary", "r=1", "--vary", "t0-omega=0:3:50",
          "--vary", "omega-bar-T=0.5:4:1000"], 20.0),
        (["sweep", "--vary", "t0-omega=0:3:50000"], 9.2),
    ],
    ids=["single-mode", "sweep", "sweep-one-axis"],
)
def test_tables_are_written_in_bounded_memory(argv, peak_mb, tmp_path):
    tracemalloc.start()
    try:
        code = _run(argv + ["--output", str(tmp_path / "table.csv")])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < peak_mb * 1e6, f"peak {peak / 1e6:.1f} MB"


def _scalar_sweep(values, axes):
    """Exit code, stdout and stderr of the sweep, one row at a time through
    the scalar library calls: the reference the array path must match.

    Each value of r, theta, ratio-RT and t0-omega first goes once through
    the scalar check of it, in table order; a DomainError there ends the
    sweep before any row or warning."""
    each = {key: dict(axes).get(key, [value]) for key, value in values.items()}
    try:
        for r in each["r"]:
            try:
                SqueezeState(r)
            except RangeError:  # above the cap: range_error rows
                pass
        for theta in each["theta"]:
            SqueezeState(0.0, theta)
        trajs = [Trajectory(apex, 1.0) for apex in each["ratio-RT"]]
        for t0_omega in each["t0-omega"]:
            try:
                modulation(SqueezeState(0.0), ModeSpec(1.0, 1.0), t0_omega)
            except RangeError:  # an emission phase past double precision
                pass
    except DomainError as exc:
        return 1, "", f"recoherence: error: {exc}\n"
    fast = [traj.max_speed for traj in trajs if traj.is_relativistic]
    warned = fast and (
        f"warning: trajectory peak speed {fast[0]:.6g} exceeds 1 "
        "(units with c = 1); results are formal\n"
    )
    points = [{}]
    for name, axis in axes:
        points = [{**point, name: value} for point in points for value in axis]
    lines = [",".join(cli._SWEEP_HEADER)]
    for point in points:
        v = {**values, **point}
        inputs = [repr(v[key]) for key in cli._OPTIONS["sweep"]]
        try:
            state = SqueezeState(v["r"], v["theta"])
            mode = cli._mode_from(v["omega-bar-T"], v["lambda3-over-V"])
            traj = Trajectory(v["ratio-RT"], 1.0)
            t0 = cli._emission_time(v["t0-omega"], mode.omega)
            result = coherence_shift(state, mode, traj, t0)
            window = emission_window(state, mode)
            split = unitarity_sum(mode, traj)
            cells = [
                repr(value)
                for value in (
                    modulation(state, mode, t0),
                    result.value,
                    result.contrast_factor,
                    window.width,
                    windowed_modulation(state),
                    windowed_coherence_shift(state, mode, traj),
                    split.max_shift,
                    split.total,
                )
            ]
            cells.append("degenerate" if window.degenerate else "ok")
        except RangeError:
            cells = ["nan"] * 8 + ["range_error"]
        lines.append(",".join(inputs + cells))
    return 0, "\n".join(lines) + "\n", warned or ""


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# each option over its whole domain and over a typical range
_VALID = {
    "r": st.one_of(st.floats(0.0, 400.0), st.floats(0.0, 3.0), st.sampled_from([0.0, 350.0])),
    "theta": st.floats(-10.0, 10.0),
    "omega-bar-T": st.one_of(_log_uniform(-300.0, 300.0), _log_uniform(-3.0, 3.0)),
    "ratio-RT": st.one_of(_log_uniform(-300.0, 300.0), _log_uniform(-3.0, 0.0)),
    "lambda3-over-V": st.one_of(_log_uniform(-300.0, 300.0), st.just(1.0)),
    "t0-omega": st.one_of(st.floats(-1e308, 1e308), st.floats(-10.0, 10.0)),
}
# values the CLI accepts and the scalar path refuses with DomainError
_REFUSED = {
    "r": st.sampled_from([-1.0, math.inf, math.nan]),
    "theta": st.sampled_from([math.inf, math.nan]),
    "ratio-RT": st.sampled_from([0.0, -1.0, math.inf, math.nan]),
    "t0-omega": st.sampled_from([math.inf, -math.inf, math.nan]),
}


@st.composite
def _sweeps(draw):
    """Option values and up to three axes; one value in four sweeps is refused."""
    values = {name: draw(valid) for name, valid in _VALID.items()}
    names = draw(st.lists(st.sampled_from(list(_VALID)), max_size=3, unique=True))
    axes = {name: draw(st.lists(_VALID[name], min_size=1, max_size=4)) for name in names}
    if draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(list(_REFUSED)))
        if name in axes:
            axes[name].insert(draw(st.integers(0, len(axes[name]))), draw(_REFUSED[name]))
        else:
            values[name] = draw(_REFUSED[name])
    return values, list(axes.items())


_DEFAULTS = {key: default for key, (_, default, _) in cli._OPTIONS["sweep"].items()}


@settings(max_examples=80, deadline=None)
@given(_sweeps())
# every value is checked before any row: a refused value exits 1 without
# the speed warning, even behind a capped r; an emission phase 2*omega*t0
# past double precision is a range_error row
@example(({**_DEFAULTS, "ratio-RT": -1.0, "r": 351.0}, []))
@example(({**_DEFAULTS, "r": 351.0, "t0-omega": math.nan}, []))
@example(({**_DEFAULTS, "ratio-RT": 1e160, "t0-omega": math.nan}, []))
@example(({**_DEFAULTS, "ratio-RT": 1e160}, [("t0-omega", [0.0, math.nan])]))
@example((_DEFAULTS, [("t0-omega", [0.0, 1e308])]))
# phases 2*omega*t0 - theta at both sides of the bound 2^32 rad
@example(({**_DEFAULTS, "omega-bar-T": 1.0}, [("t0-omega", [2.0**31, 2.0**31 + 1e-6])]))
@example((_DEFAULTS, [("t0-omega", [-2.0**31, 2.0**31, 2.0**32])]))
@example(({**_DEFAULTS, "ratio-RT": -1.0}, [("r", [351.0, 1.0])]))
@example((_DEFAULTS, [("ratio-RT", [0.8, -1.0])]))
@example((_DEFAULTS, [("ratio-RT", [-1.0, 0.8])]))
# the warning names the first relativistic value of the axis, not the least
@example((_DEFAULTS, [("ratio-RT", [0.1, 2.0, 0.7, 0.3])]))
def test_array_sweep_equals_scalar_rows(sweep):
    values, axes = sweep
    argv = ["sweep"] + [f"--{name}={value!r}" for name, value in values.items()]
    for name, axis in axes:
        argv += ["--vary", f"{name}={','.join(map(repr, axis))}"]
    assert _run(argv) == _scalar_sweep(values, axes)


def test_emission_phase_above_its_bound_is_a_range_error_row():
    # |2*omega*t0 - theta| up to 2^32 rad gives an ok row, and above it a
    # range_error row with nan cells
    code, out, err = _run(["sweep", "--omega-bar-T", "1", "--vary",
                           f"t0-omega=0.5,{2.0**31!r},{2.0**31 + 1e-6!r},1e300"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "ok", "range_error", "range_error"]
    assert rows[2][6:-1] == ["nan"] * 8 and "nan" not in rows[1]

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from recoherence import (
    BandSpec,
    ConvergenceError,
    SqueezeState,
    Trajectory,
    band_coherence_shift_exact,
)
from recoherence import cli, oracle_quadrature
from recoherence.multimode_band import MAX_MODES


@pytest.fixture
def run_cli(capsys):
    """Call cli.main in-process; returns the exit code and both streams."""

    def run(*args):
        capsys.readouterr()
        code = cli.main(list(args))  # usage errors return 1 too, never exit
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return run


def test_module_entry_point(run_cli):
    # `python -m recoherence` passes the exit code and the bytes through
    argv = ["estimate", "cavity"]
    proc = subprocess.run(
        [sys.executable, "-m", "recoherence", *argv], capture_output=True, timeout=300
    )
    assert proc.returncode == 0
    assert proc.stdout.decode() == run_cli(*argv).stdout
    proc = subprocess.run(
        [sys.executable, "-m", "recoherence", "single-mode", "--r", "-1"],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 1 and proc.stdout == b""


def test_single_mode_default_table(run_cli):
    proc = run_cli("single-mode")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "t0,g,w_r,contrast_factor"
    assert len(lines) == 1 + 32  # default t0-grid
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) < 0.0  # t0 = 0 sits outside the window
    # summary (window, bounds) goes to stderr, never into the CSV stream
    assert "window" in proc.stderr


def test_single_mode_grid_size_flag(run_cli):
    proc = run_cli("single-mode", "--t0-grid", "5")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 6


def test_estimate_cavity_row(run_cli):
    proc = run_cli("estimate", "cavity")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0].startswith("kind,ratio_RT")
    cells = lines[1].split(",")
    assert cells[0] == "cavity"
    averaged, exact = float(cells[-2]), float(cells[-1])
    assert 3e-8 < averaged < 3e-7
    assert 0.0 < exact < averaged


def test_estimate_empty_space_row(run_cli):
    proc = run_cli("estimate", "empty-space")
    assert proc.returncode == 0
    cells = proc.stdout.strip().split("\n")[1].split(",")
    assert cells[0] == "empty-space"
    assert 3e-7 < float(cells[-1]) < 3e-6


def test_band_row_matches_library(run_cli):
    proc = run_cli("band", "--n-modes", "32")
    assert proc.returncode == 0
    header, row = proc.stdout.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    state = SqueezeState(1.0)
    band = BandSpec(center=3.34, half_width=0.334, solid_angle=0.1)
    traj = Trajectory(apex=0.1, half_time=1.0)
    want = band_coherence_shift_exact(state, band, traj)
    assert math.isclose(float(cells["windowed_exact"]), want, rel_tol=1e-12)
    assert float(cells["mode_sum_rel_err"]) < 1e-3


def test_oracle_quick_grid_passes(run_cli):
    proc = run_cli("oracle", "--grid", "quick")
    assert proc.returncode == 0
    assert "max relative error" in proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "omega_bar_T,r,t0,closed,quadrature,rel_err"
    assert len(lines) == 1 + 2 * 2 * 4
    worst = max(float(line.split(",")[-1]) for line in lines[1:])
    assert worst <= 1e-6


def test_oracle_tolerance_below_rounding_accepts_a_converged_grid(run_cli, monkeypatch):
    # the two budgets of the quick grid differ by rounding alone (2 ulp at
    # omega_bar_T=3.34, r=1, t0=0), which no tolerance may turn into exit 2
    default = run_cli("oracle", "--grid", "quick")
    monkeypatch.setattr(oracle_quadrature, "_REL_TOL", 1e-300)
    tiny = run_cli("oracle", "--grid", "quick")
    assert tiny.returncode == 0, tiny.stderr
    assert tiny.stdout == default.stdout


def test_band_tolerance_below_rounding_accepts_a_converged_integral(
    run_cli, monkeypatch
):
    # the integrand's phase 2*omega*t0 rounds at ~eps*60 and j2(omega*T) at
    # ~eps*3000, so the budgets differ by ~45 eps of the terms' sum; the
    # rounding floor counts that phase and no tolerance may turn it into exit 2
    argv = ("band", "--omega-bar-T", "3000", "--t0-omega", "30",
            "--delta-omega-ratio", "0.01")
    default = run_cli(*argv)
    monkeypatch.setattr(oracle_quadrature, "_REL_TOL", 1e-300)
    tiny = run_cli(*argv)
    assert tiny.returncode == 0, tiny.stderr
    assert tiny.stdout == default.stdout


# the loop line integral at omega*T = 2e4 sums about 4e5 nodes
_LONG_LOOP = (
    "import math; from recoherence import *; x = 2e4; "
    "print(repr(quad_coherence_shift(SqueezeState(1.0, 0.3), "
    "ModeSpec(x, (2 * math.pi / x) ** 3), Trajectory(0.1, 1.0), 0.3)))"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "recoherence", "band", "--omega-bar-T", "3000", "--t0-omega", "30"],
        ["-c", _LONG_LOOP],
    ],
    ids=["band", "oracle"],
)
def test_stdout_bytes_do_not_depend_on_blas_threads(argv):
    # a BLAS dot over these long node sets splits across threads and moves
    # the last digits; the sums must not follow the thread count
    procs = [
        subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env={**os.environ, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n},
        )
        for n in ("1", "2")
    ]
    outs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] == outs[1]


def test_oracle_starved_tolerance_exits_two(monkeypatch, capsys):
    # the CLI's fixed rule cannot be starved, so the refinement failure is
    # injected; that a starved rule really raises is checked in
    # test_oracle_quadrature.py
    def not_converged(*args, **kwargs):
        raise ConvergenceError("did not stabilise under refinement")

    monkeypatch.setattr(cli, "quad_coherence_shift", not_converged)
    assert cli.main(["oracle", "--grid", "quick"]) == 2
    out, err = capsys.readouterr()
    assert "did not converge" in err
    assert out == ""


@pytest.mark.parametrize("ratio", ["0.1", "1e-20"])
def test_oracle_disagreement_exits_two(monkeypatch, capsys, ratio):
    # a quadrature off by 1e-5 of the closed form: the table is written,
    # then the worst point and the verdict.  At R/T = 1e-20 every value is
    # below 1e-30, where an absolute floor would hide the gap
    quad = cli.quad_coherence_shift
    monkeypatch.setattr(cli, "quad_coherence_shift", lambda *a: quad(*a) * (1 + 1e-5))
    assert cli.main(["oracle", "--grid", "quick", "--ratio-RT", ratio]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 + 16
    assert err.endswith("recoherence: oracle disagreement above 1e-06\n")


def test_relative_error_has_no_floor():
    # the oracle and band columns and the oracle gate: relative at any size,
    # 0 for two equal values (signed zeros included), inf against a zero
    assert cli._rel_err(3 * 2.0**-140, 2.0**-139) == 0.5
    assert cli._rel_err(-0.0, 0.0) == 0.0
    assert cli._rel_err(5e-324, 0.0) == math.inf
    assert cli._rel_err(-5e-324, -0.0) == math.inf


def test_starved_band_integral_exits_two(monkeypatch, capsys):
    # a two-point rule at 16 nodes a period cannot settle the band integral;
    # main reports the ConvergenceError as one line
    monkeypatch.setattr(oracle_quadrature, "_ORDER", 2)
    monkeypatch.setattr(oracle_quadrature, "_NODES_PER_PERIOD", 16)
    assert cli.main(["band"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("recoherence: did not converge: oscillatory integral")


def test_unwritable_output_exits_one(run_cli, tmp_path):
    proc = run_cli("single-mode", "--output", str(tmp_path / "missing" / "x.csv"))
    assert proc.returncode == 1 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("recoherence: i/o error:")


def test_sweep_determinism(run_cli, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ("sweep", "--vary", "r=0:2:5", "--vary", "omega-bar-T=1,3.34")
    assert run_cli(*args, "--output", str(out_a)).returncode == 0
    assert run_cli(*args, "--output", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    streamed = run_cli(*args)
    assert streamed.returncode == 0
    assert streamed.stdout.encode() == out_a.read_bytes()


def test_sweep_row_major_order(run_cli):
    proc = run_cli("sweep", "--vary", "r=0,1", "--vary", "ratio-RT=0.05,0.1")
    lines = proc.stdout.strip().split("\n")
    header = lines[0].split(",")
    i_r, i_ratio = header.index("r"), header.index("ratio_RT")
    grid = [(row.split(",")[i_r], row.split(",")[i_ratio]) for row in lines[1:]]
    # first --vary axis is the slow (outer) index
    assert grid == [
        ("0.0", "0.05"),
        ("0.0", "0.1"),
        ("1.0", "0.05"),
        ("1.0", "0.1"),
    ]


def test_sweep_marks_overflowing_rows(run_cli):
    proc = run_cli("sweep", "--vary", "r=1,20", "--ratio-RT", "1e150")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    status = [row.split(",")[-1] for row in lines[1:]]
    assert status == ["ok", "range_error"]
    # overflowed cells are nan but the row survives
    assert "nan" in lines[2]


def test_sweep_degenerate_status(run_cli):
    proc = run_cli("sweep", "--vary", "r=0,1")
    lines = proc.stdout.strip().split("\n")
    assert lines[1].endswith("degenerate")
    assert lines[2].endswith("ok")


def test_config_file_supplies_defaults(run_cli, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[single-mode]\nr = 0.5\nt0-grid = 3\n", encoding="utf-8")
    proc = run_cli("single-mode", "--config", str(ini))
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 4
    g0 = float(lines[1].split(",")[1])
    assert math.isclose(g0, 0.5 * math.expm1(1.0), rel_tol=1e-12)  # g_max at r = 0.5


def test_flags_override_config(run_cli, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[single-mode]\nr = 0.5\nt0-grid = 3\n", encoding="utf-8")
    proc = run_cli("single-mode", "--config", str(ini), "--r", "1.0", "--t0-grid", "2")
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 3
    g0 = float(lines[1].split(",")[1])
    assert math.isclose(g0, 0.5 * math.expm1(2.0), rel_tol=1e-12)  # g_max at r = 1


def test_sweep_config_vary_axes(run_cli, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[sweep]\nvary = r=0:1:3 ; ratio-RT=0.05,0.1\n", encoding="utf-8")
    proc = run_cli("sweep", "--config", str(ini))
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 1 + 3 * 2
    # explicit --vary flags replace the config's axes rather than add to them
    proc = run_cli("sweep", "--config", str(ini), "--vary", "theta=0,1")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 1 + 2


def test_unknown_config_key_exits_one(run_cli, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[single-mode]\nnonsense = 1\n", encoding="utf-8")
    proc = run_cli("single-mode", "--config", str(ini))
    assert proc.returncode == 1
    assert "unknown key" in proc.stderr


@pytest.mark.parametrize(
    "text,message",
    [
        ("r = 1\n", "cannot parse config file"),
        ("[band]\nr = 1\n", "has no [single-mode] section"),
        ("[single-mode]\nr = 1\njunk\n", "cannot parse config file"),
    ],
    ids=["no-header", "no-section", "no-equals"],
)
def test_unusable_config_file_exits_one(run_cli, tmp_path, text, message):
    # configparser's own messages span lines; the error is one line
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    proc = run_cli("single-mode", "--config", str(ini))
    assert proc.returncode == 1 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("recoherence: config error:")
    assert message in line


def test_missing_config_file_exits_one(run_cli, tmp_path):
    proc = run_cli("single-mode", "--config", str(tmp_path / "absent.ini"))
    assert proc.returncode == 1


def test_domain_violations_exit_one(run_cli):
    assert run_cli("single-mode", "--r", "-1").returncode == 1
    assert run_cli("single-mode", "--omega-bar-T", "0").returncode == 1
    assert run_cli("band", "--delta-omega-ratio", "1.5").returncode == 1
    assert run_cli("sweep", "--vary", "bogus=1,2").returncode == 1


def test_usage_errors_exit_one(run_cli):
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("single-mode", "--r", "abc").returncode == 1
    assert (
        run_cli(
            "sweep",
            "--vary", "r=1",
            "--vary", "theta=1",
            "--vary", "t0-omega=1",
            "--vary", "ratio-RT=0.1",
        ).returncode
        == 1
    )


_ROUTED = [
    ("single-mode", "r", "abc", "r must be a number, got 'abc'"),
    ("single-mode", "omega-bar-T", "0", "omega-bar-T must be finite and > 0, got 0.0"),
    ("single-mode", "t0-grid", "0",
     "t0-grid must be an integer in [1, 1000000], got 0"),
    ("band", "n-modes", "2.5",
     "n-modes must be an integer in [1, 10000000], got '2.5'"),
    ("band", "delta-omega-ratio", "1.5",
     "delta-omega-ratio must lie in (0, 1), got 1.5"),
    ("oracle", "grid", "huge", "grid must be one of default, quick, got 'huge'"),
    ("estimate", "kind", "bogus",
     "kind must be one of cavity, empty-space, got 'bogus'"),
]


@pytest.mark.parametrize("command,key,value,rule", _ROUTED, ids=lambda x: str(x)[:20])
def test_every_route_applies_the_same_rule(capsys, tmp_path, command, key, value, rule):
    # a flag, an INI key and, for a sweep axis, a --vary value all go through
    # the option's one converter: exit 1 and one line naming the same rule
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{key} = {value}\n", encoding="utf-8")
    name = key if key == "kind" else f"--{key}"  # kind is the one positional
    flag = [value] if key == "kind" else [name, value]
    routes = {
        (command, *flag): f"argument {name}: ",
        (command, "--config", str(ini)): f"config section [{command}], key {key!r}: ",
    }
    if key in cli._OPTIONS["sweep"]:
        routes["sweep", "--vary", f"{key}={value}"] = "argument --vary: "
    for argv, context in routes.items():
        assert cli.main(list(argv)) == 1  # a SystemExit fails the test
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"recoherence: config error: {context}{rule}\n"


@pytest.mark.parametrize("command", list(cli._OPTIONS))
def test_help_lists_every_option_with_its_default(command):
    proc = subprocess.run(
        [sys.executable, "-m", "recoherence", command, "--help"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    # one entry per option, each starting two spaces in: name, help, default
    entries = [" ".join(e.split()) for e in re.split(r"\n  (?=\S)", proc.stdout)]
    defaults = [(e.split()[0], re.search(r"\(default: ([^)]*)\)", e)) for e in entries]
    listed = [(name, match.group(1)) for name, match in defaults if match]
    want = [
        (key if key == "kind" else f"--{key}", str(default))
        for key, (_, default, _) in cli._OPTIONS[command].items()
    ]
    assert sorted(listed) == sorted(want)


def test_relativistic_warning_on_stderr(run_cli):
    proc = run_cli("single-mode", "--ratio-RT", "0.7", "--t0-grid", "1")
    assert proc.returncode == 0
    assert "exceeds 1" in proc.stderr


def test_window_below_the_resolution_of_t0_is_one_warning_line(run_cli):
    # from r = 37 on at omega*T = 1, theta = 0 the window's ends are one
    # double; the summary lines keep their form and the table its rows
    argv = ["single-mode", "--omega-bar-T", "1", "--t0-grid", "4"]
    resolved = run_cli(*argv, "--r", "36")
    assert resolved.returncode == 0 and "warning" not in resolved.stderr
    proc = run_cli(*argv, "--r", "40")
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 5
    lines = proc.stderr.splitlines()
    assert [line.split(" ")[0] for line in lines] == ["window:", "warning:", "windowed"]
    start, end, width = re.match(
        r"window: start=(\S+) end=(\S+) width=(\S+) degenerate=False$", lines[0]
    ).groups()
    assert start == end and float(width) > 0.0
    assert lines[1] == (
        f"warning: emission window width {width} is below the resolution of t0 "
        "at its centre: start and end are one double"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["single-mode", "--t0-grid", "1"],
        ["band"],
        ["oracle", "--grid", "quick"],
        ["estimate", "cavity"],
        ["estimate", "empty-space"],
        ["sweep"],
    ],
    ids=" ".join,
)
def test_superluminal_trajectory_is_one_line_in_every_subcommand(run_cli, argv):
    proc = run_cli(*argv, "--ratio-RT", "0.8")
    assert proc.returncode == 0
    assert [line for line in proc.stderr.splitlines() if "speed" in line] == [
        "warning: trajectory peak speed 1.23168 exceeds 1 (units with c = 1); "
        "results are formal"
    ]


@pytest.mark.parametrize(
    "options,edge",
    [([], "1e-300"), ([], "1e300"), (["--t0-omega", "1e300"], "1e-10")],
    ids=["1e-300", "1e300", "t0-omega-1e300"],
)
def test_sweep_edge_frequency_is_a_range_error_row(capsys, options, edge):
    # the mode volume (2 pi/omega)^3 overflows at 1e-300 and underflows to
    # 0 at 1e300, and t0 = t0-omega/omega-bar-T = 1e310 overflows at 1e-10;
    # the point stays in the table and the sweep goes on
    argv = ["sweep", *options, "--vary"]
    assert cli.main(argv + ["omega-bar-T=1"]) == 0
    plain = capsys.readouterr().out.split("\n")
    assert cli.main(argv + [f"omega-bar-T={edge},1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.split("\n")
    assert captured.err == ""
    assert len(lines) == 4 and lines[0] == plain[0] and lines[3] == ""
    cells = lines[1].split(",")
    assert float(cells[2]) == float(edge) and cells[-1] == "range_error"
    assert all(math.isnan(float(cell)) for cell in cells[6:-1])
    assert lines[2] == plain[1]


def test_band_emission_time_overflow_exits_one(capsys):
    argv = ["band", "--t0-omega", "1e300", "--omega-bar-T", "1e-10"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("recoherence: error: t0-omega=1e+300")


@pytest.mark.parametrize("edge", ["1e-300", "1e300"])
def test_single_mode_edge_frequency_exits_one(capsys, edge):
    assert cli.main(["single-mode", "--omega-bar-T", edge]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recoherence: error: omega-bar-T=")


@pytest.mark.parametrize(
    "argv,names",
    [
        (["band", "--omega-bar-T", "5e-324"], ("delta-omega-ratio=", "omega-bar-T=")),
        (["band", "--delta-omega-ratio", "1e-300"], ("band half-width", "center")),
        (["estimate", "cavity", "--ratio-RT", "5e-324"], ("ratio_rt=",)),
        (["estimate", "cavity", "--lambda3-over-V", "5e-324"],
         ("lambda3_over_volume=",)),
        (["estimate", "empty-space", "--omega-bar-T", "5e-324"], ("flight_phase=",)),
        (["single-mode", "--r", "349", "--lambda3-over-V", "1e300"],
         ("coherence shift overflows double precision",)),
    ],
    ids="_".join,
)
def test_derived_value_outside_double_precision_exits_one(run_cli, argv, names):
    # delta*omega underflows, the band edges round to the centre, half_time
    # and volume overflow, the empty-space apex underflows: the one error
    # line names the inputs behind the value
    proc = run_cli(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("recoherence: error: ")
    assert all(name in line for name in names)


def test_band_edge_frequency_exits_one(capsys):
    # the band integral would need ~2e300 quadrature nodes; the cap refuses
    assert cli.main(["band", "--omega-bar-T", "1e300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recoherence: error:")
    assert "above the cap" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["band", "--ratio-RT", "1e160"],
        ["estimate", "cavity", "--ratio-RT", "1e160"],
        ["estimate", "empty-space", "--ratio-RT", "1e160"],
        ["estimate", "empty-space", "--solid-angle", "1e300", "--ratio-RT", "1e6"],
        ["estimate", "cavity", "--lambda3-over-V", "1e300", "--ratio-RT", "1e10"],
    ],
    ids="_".join,
)
def test_band_and_estimate_overflow_exits_one(run_cli, argv):
    # a result beyond double precision is one error line, never a traceback
    # or an inf cell; library warnings may precede it
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    (line,) = [l for l in proc.stderr.splitlines() if l.startswith("recoherence:")]
    assert line.startswith("recoherence: error:")
    assert line.endswith("overflows double precision")


def test_band_at_tiny_frequency_rounds_to_zero(run_cli):
    # omega-bar-T = 1e-300: the cell volumes overflow to inf, so every
    # shift is a rounded 0, with no numpy warning on the way
    proc = run_cli("band", "--omega-bar-T", "1e-300")
    assert proc.returncode == 0 and proc.stderr == ""
    header, row = proc.stdout.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    for name in ("windowed_exact", "windowed_leading", "t0_exact", "mode_sum"):
        assert float(cells[name]) == 0.0


def test_band_at_the_squeeze_cap_sums_ten_million_modes(run_cli):
    # t0_exact is -1.78e298 at r = 350: the mode sum scales its two sums to
    # a shift before it weights them, so no partial product leaves double
    # precision
    proc = run_cli("band", "--r", "350", "--n-modes", "10000000")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["t0_exact"]) < -1e298
    assert float(cells["mode_sum_rel_err"]) <= 1e-12


def _assert_cavity_ceilings_zero(proc):
    assert proc.returncode == 0
    header, row = proc.stdout.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["averaged"]) == 0.0 and float(cells["exact"]) == 0.0


def test_cavity_estimate_at_tall_apex_rounds_to_zero(run_cli):
    # an apex 1e200 wavelengths high: the envelope stays finite, both
    # ceilings round to 0 and nothing overflows
    _assert_cavity_ceilings_zero(
        run_cli("estimate", "cavity", "--R-over-lambda", "1e200")
    )


def test_cavity_estimate_underflows_to_zero(run_cli):
    # flight phase 2 pi * 1e200: both ceilings round to 0, nothing overflows
    _assert_cavity_ceilings_zero(
        run_cli("estimate", "cavity", "--ratio-RT", "1e-200")
    )
    # R = 1e153 squares past double precision, the envelope M does not: the
    # estimate is a subnormal, which carries only about nine digits (value
    # from 400-digit mpmath at the same double inputs)
    proc = run_cli("estimate", "empty-space", "--omega-bar-T", "1e154")
    assert proc.returncode == 0
    estimate = float(proc.stdout.strip().split("\n")[1].split(",")[-1])
    assert 0.0 < estimate < sys.float_info.min
    assert math.isclose(estimate, 1.0248074654519e-314, rel_tol=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["band", "--n-modes", str(MAX_MODES + 1)],
        ["single-mode", "--t0-grid", str(cli._MAX_ROWS + 1)],
        ["sweep", "--vary", f"r=0:1:{cli._MAX_ROWS + 1}"],
        ["sweep", "--vary", "r=0:1:1000",
         "--vary", f"theta=0:1:{cli._MAX_ROWS // 1000 + 1}"],
    ],
    ids=["n-modes", "t0-grid", "vary-count", "sweep-rows"],
)
def test_size_caps_exit_one(capsys, argv):
    # each value is one above its cap and is refused before any allocation
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("recoherence: config error:")


_BAD_VALUES = [
    ["single-mode", "--r", "-1"],
    ["single-mode", "--r", "nan"],
    ["single-mode", "--r", "400"],
    ["single-mode", "--theta", "inf"],
    ["single-mode", "--omega-bar-T", "0"],
    ["single-mode", "--omega-bar-T", "-1"],
    ["single-mode", "--omega-bar-T", "nan"],
    ["single-mode", "--lambda3-over-V", "0"],
    ["single-mode", "--lambda3-over-V", "inf"],
    ["single-mode", "--ratio-RT", "0"],
    ["band", "--solid-angle", "-1"],
    ["band", "--t0-omega", "nan"],
    ["band", "--delta-omega-ratio", "1"],
    ["band", "--delta-omega-ratio", "1.5"],
    ["estimate", "empty-space", "--delta-omega-ratio", "1"],
    ["estimate", "empty-space", "--delta-omega-ratio", "1.5"],
    ["estimate", "cavity", "--R-over-lambda", "0"],
    ["oracle", "--grid", "huge"],
    ["sweep", "--vary", "r=-1,1"],
    ["sweep", "--vary", "theta=nan,1"],
    ["sweep", "--vary", "ratio-RT=0,1"],
    ["sweep", "--vary", "t0-omega=inf,1"],
]


@pytest.mark.parametrize("argv", _BAD_VALUES, ids="_".join)
def test_bad_value_exits_one(run_cli, argv):
    # each value fails in the one place that checks it, before any output
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith(("recoherence: error:", "recoherence: config error:"))


@pytest.mark.parametrize(
    "axes,message",
    [
        (["r=0:inf:3"], "r must be finite, got inf"),
        (["t0-omega=-1e308:1e308:3"],
         "t0-omega=-1e308:1e308:3 spans more than double precision"),
        (["r=inf:inf:1"], "r must be finite, got inf"),
        (["r"], "expected NAME=VALUES, got 'r'"),
        (["r=1:2"], "r expects START:STOP:COUNT, got '1:2'"),
        (["r=1", "r=2"], "duplicate --vary axes: r, r"),
    ],
    ids=["inf-stop", "span-overflow", "inf-start", "no-values", "two-bounds", "twice"],
)
def test_unusable_vary_axis_exits_one(run_cli, axes, message):
    # a range bound or span beyond double precision is refused as typed,
    # before numpy can warn about it or turn it into nan
    proc = run_cli("sweep", *(arg for axis in axes for arg in ("--vary", axis)))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "encountered" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("recoherence: config error:") and line.endswith(message)


@pytest.mark.parametrize(
    "axis,message",
    [
        ("r=2,-1,3", "squeeze magnitude must be >= 0, got -1.0"),
        ("theta=0,nan,1", "theta must be finite, got nan"),
        ("t0-omega=0,inf,1", "emission time must be finite, got inf"),
        ("omega-bar-T=1:-1:3", "omega-bar-T must be finite and > 0, got 0.0"),
    ],
    ids=["r", "theta", "t0-omega", "omega-range"],
)
def test_value_refused_inside_an_axis_is_named(capsys, axis, message):
    # the axis is checked as an array; the scalar check names the value
    assert cli.main(["sweep", "--vary", "ratio-RT=0.1,0.2", "--vary", axis]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("recoherence: ") and line.endswith(message)


def test_range_of_one_value_is_its_start(capsys):
    # COUNT = 1 has no span to overflow: the START row, range_error and all
    rows = []
    for axis in ("t0-omega=-1e308:1e308:1", "t0-omega=-1e308"):
        assert cli.main(["sweep", "--vary", axis]) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]
    assert rows[0].splitlines()[1].endswith(",-1e+308" + ",nan" * 8 + ",range_error")


@pytest.mark.parametrize("option", ["abs-tol", "nodes-per-period", "rel-tol"])
@pytest.mark.parametrize("command", ["band", "oracle"])
def test_removed_quadrature_option_is_refused(capsys, tmp_path, command, option):
    # the oracle has one fixed rule, tolerance and rounding floor, so no
    # quadrature setting is an accepted flag or INI key
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{option} = 64\n", encoding="utf-8")
    for argv in ([command, f"--{option}", "64"], [command, "--config", str(ini)]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("recoherence: config error:")


def test_sweep_point_above_squeeze_cap_is_a_range_error_row(run_cli):
    proc = run_cli("sweep", "--vary", "r=349,351")
    assert proc.returncode == 0
    _, ok, capped = proc.stdout.strip().split("\n")
    assert ok.endswith(",ok")
    cells = capped.split(",")
    assert float(cells[0]) == 351.0 and cells[-1] == "range_error"
    assert all(math.isnan(float(cell)) for cell in cells[6:-1])


def test_library_warnings_are_one_line(run_cli):
    # the default band is wide enough for the leading-order warning; it is
    # shown on every call as one line, without a path or a source line
    first, second = run_cli("band"), run_cli("band")
    assert first.returncode == 0 and first.stdout == second.stdout
    want = (
        "warning: half_width*T = 0.334 is not small; the leading-order band "
        "formula degrades\n"
    )
    assert first.stderr == second.stderr == want


#: values at the edges of every numeric option's domain
_EDGES = (
    "0", "-0", "5e-324", "1e-300", "1e300", "1.8e308",
    "nan", "inf", "-inf", "350", "350.0000001",
)

#: each subcommand at its defaults, with small sizes
_FUZZ_BASES = (
    ("single-mode", "--t0-grid=4"),
    ("band", "--n-modes=64"),
    ("oracle", "--grid=quick"),
    ("estimate", "cavity"),
    ("estimate", "empty-space"),
    ("sweep",),
)


@pytest.fixture(scope="module")
def default_headers():
    """The first stdout line of each base, which exits 0."""
    headers = {}
    for base in _FUZZ_BASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(base)) == 0
        headers[base] = out.getvalue().split("\n")[0]
    return headers


@st.composite
def _edge_calls(draw):
    """A base argv, up to three of its numeric options at edge values and,
    for sweep, up to three --vary axes of one to three edge values."""
    base = draw(st.sampled_from(_FUZZ_BASES))
    table = cli._OPTIONS[base[0]]
    numeric = [key for key, (rule, _, _) in table.items() if rule.typ is not str]
    argv = list(base)
    for key in draw(st.lists(st.sampled_from(numeric), max_size=3, unique=True)):
        # a count refuses every edge value but 350, which is above the sizes
        values = [v for v in _EDGES if table[key][0].typ is float or v != "350"]
        argv.append(f"--{key}={draw(st.sampled_from(values))}")
    if base[0] == "sweep":
        for name in draw(st.lists(st.sampled_from(numeric), max_size=3, unique=True)):
            axis = draw(st.lists(st.sampled_from(_EDGES), min_size=1, max_size=3))
            argv.append(f"--vary={name}={','.join(axis)}")
    return base, argv


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_edge_calls())
# a mode volume (2*pi/omega)^3 and an emission time t0-omega/omega that both
# overflow: range_error rows, with no OverflowError and no numpy warning
@example(call=(("sweep",), ["sweep", "--omega-bar-T=1e-300", "--t0-omega=1e300"]))
def test_every_option_at_its_edges_keeps_the_cli_contracts(
    run_cli, default_headers, call
):
    # exit 0, 1 or 2 with no exception out of main (a numpy RuntimeWarning is
    # an error under pytest), no warning class or traceback on stderr, and
    # stdout empty or a table under the subcommand's usual header
    base, argv = call
    proc = run_cli(*argv)
    assert proc.returncode in (0, 1, 2), proc
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc
    assert proc.stdout == "" or proc.stdout.startswith(default_headers[base] + "\n")

"""Command line front end for the recoherence calculations.

Subcommands
-----------
single-mode
    t0-resolved coherence shift of one squeezed mode as a CSV table,
    window/bound summary on stderr.
band
    Narrow-band continuum shift: windowed exact vs leading order, plus the
    t0-resolved integral against the discrete mode-sum oracle, one CSV row.
oracle
    Closed form vs direct loop quadrature over a parameter grid; exits 2
    when the worst relative error exceeds 1e-6.
estimate
    Order-of-magnitude cavity / empty-space recoherence ceilings.
sweep
    Cartesian parameter sweep (up to three --vary axes) of the single-mode
    quantities with derived columns and a status column.

All lengths and times are expressed with the trajectory half time T = 1,
so frequencies arrive as omega*T, the apex as R/T, and emission times as
t0*omega.  Every subcommand accepts --config PATH pointing at an INI file
whose [<subcommand>] section supplies defaults; explicit flags win.  CSV
goes to stdout or --output PATH, bytes identical from run to run.

Exit codes: 0 success, 1 domain/config errors, 2 non-convergence (or an
oracle grid out of tolerance).
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import sys
import warnings

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError, _finite_input
from .estimates import (
    CavityScenario,
    EmptySpaceScenario,
    cavity_estimate,
    cavity_estimate_exact,
    empty_space_estimate,
)
from .multimode_band import (
    MAX_MODES,
    BandSpec,
    band_coherence_shift_exact,
    band_coherence_shift_leading,
    mode_sum_oracle,
)
from .oracle_quadrature import QuadratureConfig, quad_coherence_shift
from .single_mode import (
    coherence_shift,
    emission_window,
    max_recoherence,
    modulation,
    unitarity_sum,
    windowed_coherence_shift,
    windowed_modulation,
)
from .squeezed_state import ModeSpec, SqueezeState
from .trajectory import Trajectory


class ConfigError(ValueError):
    """A flag or config-file value that cannot be used."""


#: worst acceptable closed-form vs quadrature relative error for `oracle`
_ORACLE_TOL = 1e-6

_QUAD_OPTIONS = {
    "nodes-per-period": (int, 32, "Gauss-Legendre nodes per oscillation period"),
    "rel-tol": (float, 1e-8, "relative tolerance of the refinement check"),
    "abs-tol": (float, 1e-14, "absolute tolerance floor of the refinement check"),
}

_STATE_OPTIONS = {
    "r": (float, 1.0, "squeeze parameter"),
    "theta": (float, 0.0, "squeeze phase in radians"),
    "omega-bar-T": (float, 3.34, "mode (or band centre) frequency times T"),
    "ratio-RT": (float, 0.1, "trajectory apex over half time, R/T"),
}

_OPTIONS: dict[str, dict[str, tuple]] = {
    "single-mode": {
        **_STATE_OPTIONS,
        "lambda3-over-V": (float, 1.0, "mode wavelength cubed over volume"),
        "t0-grid": (int, 32, "emission times spanning one modulation period"),
    },
    "band": {
        **_STATE_OPTIONS,
        "delta-omega-ratio": (float, 0.1, "band half-width over band centre"),
        "solid-angle": (float, 0.1, "beam solid angle in steradians"),
        "t0-omega": (float, 0.0, "emission time times band-centre frequency"),
        "n-modes": (int, 64, "modes in the discrete mode-sum oracle"),
        **_QUAD_OPTIONS,
    },
    "oracle": {
        "grid": (str, "default", "grid name: default or quick"),
        "ratio-RT": (float, 0.1, "trajectory apex over half time, R/T"),
        **_QUAD_OPTIONS,
    },
    "estimate": {
        "kind": (str, "cavity", "scenario: cavity or empty-space"),
        "ratio-RT": (float, 0.1, "trajectory apex over half time, R/T"),
        "lambda3-over-V": (float, 1.0, "cavity: wavelength cubed over volume"),
        "R-over-lambda": (float, 1.0, "cavity: apex over wavelength"),
        "delta-omega-ratio": (float, 0.1, "empty-space: fractional half-width"),
        "solid-angle": (float, 0.1, "empty-space: beam solid angle"),
        "omega-bar-T": (float, 3.34, "empty-space: flight phase omega*T"),
    },
    "sweep": {
        **_STATE_OPTIONS,
        "lambda3-over-V": (float, 1.0, "mode wavelength cubed over volume"),
        "t0-omega": (float, 0.0, "emission time times mode frequency"),
    },
}

_GRIDS = {
    "default": ((0.5, 1.0, 3.34, 10.0), (0.0, 0.5, 1.0, 2.0), 8),
    "quick": ((1.0, 3.34), (0.0, 1.0), 4),
}

_SWEEP_AXES = ("r", "theta", "omega-bar-T", "ratio-RT", "lambda3-over-V", "t0-omega")
_MAX_AXES = 3

#: most rows of a single-mode table or a sweep, and most values of one axis
_MAX_ROWS = 10**6

#: upper limits of the count options
_COUNT_CAPS = {"t0-grid": _MAX_ROWS, "n-modes": MAX_MODES}

_SWEEP_HEADER = (
    "r",
    "theta",
    "omega_bar_T",
    "ratio_RT",
    "lambda3_over_V",
    "t0_omega",
    "g",
    "w_r",
    "contrast_factor",
    "window_width",
    "g_avg",
    "w_r_avg",
    "w_r_max",
    "w_total",
    "status",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for non-convergence
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="recoherence",
        description="Coherence shifts of a driven charge in squeezed vacuum.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command, description=f"Run the {command} calculation.")
        for key, (typ, default, help_text) in table.items():
            if command == "estimate" and key == "kind":
                continue
            p.add_argument(
                f"--{key}",
                type=typ,
                default=None,
                dest=key.replace("-", "_"),
                help=f"{help_text} (default: {default})",
            )
        if command == "estimate":
            p.add_argument(
                "kind",
                nargs="?",
                choices=("cavity", "empty-space"),
                default=None,
                help="scenario to estimate (default: cavity)",
            )
        if command == "sweep":
            p.add_argument(
                "--vary",
                action="append",
                default=None,
                metavar="NAME=VALUES",
                help="axis to sweep: NAME=v1,v2,... or NAME=START:STOP:COUNT; "
                "repeat for up to three axes (row-major order)",
            )
        p.add_argument(
            "--config",
            default=None,
            metavar="PATH",
            help=f"INI file whose [{command}] section supplies defaults",
        )
        p.add_argument(
            "--output",
            default=None,
            metavar="PATH",
            help="write the CSV table here instead of stdout",
        )
    return parser


def _load_config_section(path: str, command: str, table: dict) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep the case of omega-bar-T etc.
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not parser.has_section(command):
        raise ConfigError(f"config file {path} has no [{command}] section")
    loaded: dict = {}
    for key, raw in parser.items(command):
        if command == "sweep" and key == "vary":
            loaded["vary"] = [part.strip() for part in raw.split(";") if part.strip()]
            continue
        if key not in table:
            raise ConfigError(f"config section [{command}]: unknown key {key!r}")
        typ = table[key][0]
        try:
            loaded[key] = typ(raw)
        except ValueError as exc:
            raise ConfigError(
                f"config section [{command}], key {key!r}: cannot parse "
                f"{raw!r} as {typ.__name__}"
            ) from exc
    return loaded


def _check_value(key: str, value) -> None:
    """The checks no constructor can make; every other value is checked
    by the constructor or function it reaches."""
    if key in ("omega-bar-T", "lambda3-over-V"):
        # _mode_from divides by both before a ModeSpec exists
        _finite_input(key, value, positive=True)
    elif key == "delta-omega-ratio":
        # EmptySpaceScenario only warns about a band this wide
        if not (math.isfinite(value) and 0.0 < value < 1.0):
            raise ConfigError(f"{key} must lie in (0, 1), got {value!r}")
    elif key in _COUNT_CAPS:
        # refused before anything of that size is allocated
        if not 1 <= value <= _COUNT_CAPS[key]:
            raise ConfigError(
                f"{key} must lie in [1, {_COUNT_CAPS[key]}], got {value!r}"
            )
    elif key == "grid":
        if value not in _GRIDS:
            raise ConfigError(
                f"grid must be one of {', '.join(sorted(_GRIDS))}, got {value!r}"
            )
    elif key == "kind":
        if value not in ("cavity", "empty-space"):
            raise ConfigError(f"kind must be cavity or empty-space, got {value!r}")


def _parse_axis(spec: str) -> tuple[str, tuple[float, ...]]:
    name, sep, rest = spec.partition("=")
    name, rest = name.strip(), rest.strip()
    if not sep or not rest:
        raise ConfigError(f"--vary expects NAME=VALUES, got {spec!r}")
    if name not in _SWEEP_AXES:
        raise ConfigError(
            f"--vary axis {name!r} is not one of: {', '.join(_SWEEP_AXES)}"
        )
    try:
        if ":" in rest:
            parts = rest.split(":")
            if len(parts) != 3:
                raise ValueError("expected START:STOP:COUNT")
            count = int(parts[2])
            if not 1 <= count <= _MAX_ROWS:
                raise ValueError(f"COUNT must lie in [1, {_MAX_ROWS}]")
            values = tuple(
                float(v) for v in np.linspace(float(parts[0]), float(parts[1]), count)
            )
        else:
            values = tuple(float(v) for v in rest.split(","))
    except ValueError as exc:
        raise ConfigError(f"--vary {name}: bad values {rest!r}: {exc}") from exc
    for value in values:
        _check_value(name, value)
    return name, values


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags; sweep axes under "vary"."""
    command = args.command
    table = _OPTIONS[command]
    values = {key: default for key, (_, default, _) in table.items()}
    vary_specs: list[str] = []
    if args.config is not None:
        loaded = _load_config_section(args.config, command, table)
        vary_specs = loaded.pop("vary", [])
        values.update(loaded)
    for key in table:
        given = getattr(args, key.replace("-", "_"), None)
        if given is not None:
            values[key] = given
    for key, value in values.items():
        _check_value(key, value)
    if command == "sweep":
        if args.vary:
            vary_specs = list(args.vary)  # explicit flags replace config axes
        axes = tuple(_parse_axis(spec) for spec in vary_specs)
        if len(axes) > _MAX_AXES:
            raise ConfigError(f"at most {_MAX_AXES} --vary axes, got {len(axes)}")
        names = [name for name, _ in axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate --vary axes: {', '.join(names)}")
        rows = math.prod(len(axis) for _, axis in axes)
        if rows > _MAX_ROWS:
            raise ConfigError(f"--vary axes give {rows} rows, above {_MAX_ROWS}")
        values["vary"] = axes
    return values


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_table(header: tuple, rows: list, output: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_row(row: dict, output: str | None) -> None:
    """One-row table whose header is the keys of ``row``, in order."""
    _write_table(tuple(row), [tuple(row.values())], output)


def _inputs(v: dict, *keys: str) -> dict:
    """Option values as leading CSV columns, named with underscores."""
    return {key.replace("-", "_"): v[key] for key in keys}


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-30)


def _quad_config(values: dict) -> QuadratureConfig:
    return QuadratureConfig(
        nodes_per_period=values["nodes-per-period"],
        rel_tol=values["rel-tol"],
        abs_tol=values["abs-tol"],
    )


def _show_warning(message, *_) -> None:
    """Stands in for warnings.showwarning: one line, no path or source."""
    print(f"warning: {message}", file=sys.stderr)


def _warn_relativistic(traj: Trajectory) -> None:
    if traj.is_relativistic:
        print(
            f"warning: trajectory peak speed {traj.max_speed:.6g} exceeds 1 "
            "(units with c = 1); results are formal",
            file=sys.stderr,
        )


def _mode_from(omega: float, ratio: float) -> ModeSpec:
    """Mode of frequency omega-bar-T (T = 1) in the volume
    (2*pi/omega)^3 / lambda3-over-V.

    Raises RangeError when that volume leaves double precision (overflows
    or underflows to 0), so sweeps keep the point as a range_error row.
    """
    try:
        volume = (2.0 * math.pi / omega) ** 3 / ratio
    except OverflowError:
        volume = math.inf
    if not (math.isfinite(volume) and volume > 0.0):
        raise RangeError(
            f"omega-bar-T={omega!r} with lambda3-over-V={ratio!r} gives a mode "
            f"volume (2*pi/omega-bar-T)^3/lambda3-over-V = {volume!r} outside "
            "double precision"
        )
    return ModeSpec(omega=omega, volume=volume)


def _emission_time(t0_omega: float, omega: float) -> float:
    """t0-omega / omega-bar-T; RangeError (a sweep's range_error row) when a
    finite t0-omega gives a t0 outside double precision."""
    t0 = t0_omega / omega
    if math.isfinite(t0_omega) and not math.isfinite(t0):
        raise RangeError(
            f"t0-omega={t0_omega!r} over omega-bar-T={omega!r} gives an "
            "emission time outside double precision"
        )
    return t0


def _run_single_mode(v: dict, output: str | None) -> int:
    state = SqueezeState(v["r"], v["theta"])
    mode = _mode_from(v["omega-bar-T"], v["lambda3-over-V"])
    traj = Trajectory(apex=v["ratio-RT"], half_time=1.0)
    _warn_relativistic(traj)
    n = v["t0-grid"]
    period = math.pi / mode.omega
    rows = []
    for k in range(n):
        t0 = k * period / n
        result = coherence_shift(state, mode, traj, t0)
        rows.append(
            (t0, modulation(state, mode, t0), result.value, result.contrast_factor)
        )
    _write_table(("t0", "g", "w_r", "contrast_factor"), rows, output)
    window = emission_window(state, mode)
    split = unitarity_sum(mode, traj)
    print(
        f"window: start={window.start!r} end={window.end!r} "
        f"width={window.width!r} degenerate={window.degenerate}",
        file=sys.stderr,
    )
    print(
        f"windowed shift={windowed_coherence_shift(state, mode, traj)!r} "
        f"bound={max_recoherence(mode, traj)!r} "
        f"vacuum={split.vacuum!r} total={split.total!r}",
        file=sys.stderr,
    )
    return 0


def _run_band(v: dict, output: str | None) -> int:
    state = SqueezeState(v["r"], v["theta"])
    omega = v["omega-bar-T"]
    band = BandSpec(
        center=omega,
        half_width=v["delta-omega-ratio"] * omega,
        solid_angle=v["solid-angle"],
    )
    traj = Trajectory(apex=v["ratio-RT"], half_time=1.0)
    _warn_relativistic(traj)
    quad = _quad_config(v)
    t0 = _emission_time(v["t0-omega"], omega)
    # t0-resolved first, so a bad t0 fails before the leading-order warnings
    t0_exact = band_coherence_shift_exact(
        state, band, traj, window_averaged=False, t0=t0, cfg=quad
    )
    mode_sum = mode_sum_oracle(state, band, traj, v["n-modes"], t0)
    windowed_exact = band_coherence_shift_exact(state, band, traj, cfg=quad)
    windowed_leading = band_coherence_shift_leading(state, band, traj)
    row = _inputs(v, "r", "theta", "omega-bar-T", "ratio-RT", "delta-omega-ratio")
    row.update(_inputs(v, "solid-angle", "t0-omega", "n-modes"))
    row["windowed_exact"] = windowed_exact
    row["windowed_leading"] = windowed_leading
    row["leading_rel_err"] = _rel_err(windowed_leading, windowed_exact)
    row["t0_exact"] = t0_exact
    row["mode_sum"] = mode_sum
    row["mode_sum_rel_err"] = _rel_err(mode_sum, t0_exact)
    _write_row(row, output)
    return 0


def _run_oracle(v: dict, output: str | None) -> int:
    omegas, squeezes, n_t0 = _GRIDS[v["grid"]]
    quad = _quad_config(v)
    traj = Trajectory(apex=v["ratio-RT"], half_time=1.0)
    _warn_relativistic(traj)
    rows = []
    worst = (-1.0, None)
    for omega in omegas:
        mode = _mode_from(omega, 1.0)
        for r in squeezes:
            state = SqueezeState(r, 0.0)
            for k in range(n_t0):
                t0 = k * math.pi / (omega * n_t0)
                closed = coherence_shift(state, mode, traj, t0).value
                try:
                    direct = quad_coherence_shift(state, mode, traj, t0, quad)
                except ConvergenceError as exc:
                    print(
                        f"recoherence: oracle point omega_bar_T={omega!r} "
                        f"r={r!r} t0={t0!r} did not converge: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                rel_err = _rel_err(direct, closed)
                rows.append((omega, r, t0, closed, direct, rel_err))
                if rel_err > worst[0]:
                    worst = (rel_err, (omega, r, t0))
    _write_table(
        ("omega_bar_T", "r", "t0", "closed", "quadrature", "rel_err"),
        rows,
        output,
    )
    rel_err, where = worst
    print(
        f"oracle: max relative error {rel_err!r} at omega_bar_T={where[0]!r} "
        f"r={where[1]!r} t0={where[2]!r} over {len(rows)} points",
        file=sys.stderr,
    )
    if rel_err > _ORACLE_TOL:
        print(
            f"recoherence: oracle disagreement above {_ORACLE_TOL:g}",
            file=sys.stderr,
        )
        return 2
    return 0


def _run_estimate(v: dict, output: str | None) -> int:
    # both scenarios are built, so every option given is validated
    cavity = CavityScenario.from_ratios(
        v["ratio-RT"], v["lambda3-over-V"], v["R-over-lambda"]
    )
    empty = EmptySpaceScenario(
        ratio_rt=v["ratio-RT"],
        bandwidth_ratio=v["delta-omega-ratio"],
        solid_angle=v["solid-angle"],
        flight_phase=v["omega-bar-T"],
    )
    if v["kind"] == "cavity":
        row = _inputs(v, "kind", "ratio-RT", "lambda3-over-V", "R-over-lambda")
        row["flight_phase"] = cavity.flight_phase
        row["averaged"] = cavity_estimate(cavity)
        row["exact"] = cavity_estimate_exact(cavity)
    else:
        row = _inputs(
            v, "kind", "ratio-RT", "delta-omega-ratio", "solid-angle", "omega-bar-T"
        )
        row["estimate"] = empty_space_estimate(empty)
    _write_row(row, output)
    return 0


def sweep(values: dict, output: str | None) -> int:
    """Cartesian sweep over the ``vary`` axes, row-major in axis order."""
    names = [name for name, _ in values["vary"]]
    grids = [list(axis) for _, axis in values["vary"]]
    rows = []
    warned = False
    nan = float("nan")
    for combo in itertools.product(*grids):
        point = dict(values)
        point.update(zip(names, combo))
        base = (
            point["r"],
            point["theta"],
            point["omega-bar-T"],
            point["ratio-RT"],
            point["lambda3-over-V"],
            point["t0-omega"],
        )
        try:
            state = SqueezeState(point["r"], point["theta"])
            mode = _mode_from(point["omega-bar-T"], point["lambda3-over-V"])
            traj = Trajectory(apex=point["ratio-RT"], half_time=1.0)
            if traj.is_relativistic and not warned:
                _warn_relativistic(traj)
                warned = True
            t0 = _emission_time(point["t0-omega"], mode.omega)
            result = coherence_shift(state, mode, traj, t0)
            window = emission_window(state, mode)
            split = unitarity_sum(mode, traj)
            rows.append(
                base
                + (
                    modulation(state, mode, t0),
                    result.value,
                    result.contrast_factor,
                    window.width,
                    windowed_modulation(state),
                    windowed_coherence_shift(state, mode, traj),
                    split.max_shift,
                    split.total,
                    "degenerate" if window.degenerate else "ok",
                )
            )
        except RangeError:
            # row stays in the table so the grid shape is never silently lost
            rows.append(base + (nan,) * 8 + ("range_error",))
    _write_table(_SWEEP_HEADER, rows, output)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    runner = {
        "single-mode": _run_single_mode,
        "band": _run_band,
        "oracle": _run_oracle,
        "estimate": _run_estimate,
        "sweep": sweep,
    }[args.command]
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return runner(_resolve(args), args.output)
        except ConfigError as exc:
            print(f"recoherence: config error: {exc}", file=sys.stderr)
            return 1
        except (DomainError, RangeError) as exc:
            print(f"recoherence: error: {exc}", file=sys.stderr)
            return 1
        except ConvergenceError as exc:
            print(f"recoherence: did not converge: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"recoherence: i/o error: {exc}", file=sys.stderr)
            return 1


__all__ = ["ConfigError", "main", "sweep"]

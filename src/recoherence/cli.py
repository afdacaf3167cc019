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
goes to stdout or --output PATH in blocks of rows, so no table is held as
one string, and its bytes are identical from run to run.

Exit codes: 0 success, 1 domain/config errors, 2 non-convergence (or an
oracle grid out of tolerance).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import math
import sys
import warnings
from argparse import ArgumentTypeError
from typing import Callable, NamedTuple

import numpy as np

from .constants import SQUEEZE_CAP
from .errors import ConvergenceError, DomainError, RangeError
from .errors import _finite_input, _representable
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
from .oracle_quadrature import quad_coherence_shift
from .single_mode import (
    _table,
    coherence_shift,
    emission_window,
    unitarity_sum,
    windowed_coherence_shift,
)
from .squeezed_state import ModeSpec, SqueezeState
from .trajectory import Trajectory, _max_speed
from ._special import _each


class ConfigError(ValueError):
    """A usage error, or a flag or config-file value that cannot be used."""


class _Rule(NamedTuple):
    """A type and the check ``ok``; ``text`` completes "<option> must ..." errors.
    The ``ok`` of a number takes an array too, marking each value."""

    typ: type
    ok: Callable = lambda value: True
    text: str = ""


_NUMBER = _Rule(float, text="be a number")
# _mode_from divides by these before a ModeSpec exists
_POSITIVE = _Rule(float, lambda v: np.isfinite(v) & (v > 0.0), "be finite and > 0")
# EmptySpaceScenario only warns about a band this wide
_FRACTION = _Rule(float, lambda v: (0.0 < v) & (v < 1.0), "lie in (0, 1)")


def _count(cap: int) -> _Rule:
    """A count refused above ``cap`` before anything of that size exists."""
    return _Rule(int, lambda v: 1 <= v <= cap, f"be an integer in [1, {cap}]")


def _one_of(*names: str) -> _Rule:
    return _Rule(str, names.__contains__, f"be one of {', '.join(names)}")


def _convert(key: str, rule: _Rule, raw):
    """Option ``key`` as its type; ArgumentTypeError unless ``rule`` holds.
    Flags, config keys and --vary values all come through here."""
    try:
        value = rule.typ(raw)
    except ValueError:
        value = None
    if value is None or not rule.ok(value):
        raise ArgumentTypeError(
            f"{key} must {rule.text}, got {raw if value is None else value!r}"
        )
    return value


#: worst acceptable closed-form vs quadrature relative error for `oracle`
_ORACLE_TOL = 1e-6

#: most rows of a single-mode table or a sweep, and most values of one axis
_MAX_ROWS = 10**6

_GRIDS = {
    "default": ((0.5, 1.0, 3.34, 10.0), (0.0, 0.5, 1.0, 2.0), 8),
    "quick": ((1.0, 3.34), (0.0, 1.0), 4),
}

_STATE_OPTIONS = {
    "r": (_NUMBER, 1.0, "squeeze parameter"),
    "theta": (_NUMBER, 0.0, "squeeze phase in radians"),
    "omega-bar-T": (_POSITIVE, 3.34, "mode (or band centre) frequency times T"),
    "ratio-RT": (_NUMBER, 0.1, "trajectory apex over half time, R/T"),
}

#: option -> (rule, default, help) of each subcommand; ``kind`` is positional
_OPTIONS: dict[str, dict[str, tuple]] = {
    "single-mode": {
        **_STATE_OPTIONS,
        "lambda3-over-V": (_POSITIVE, 1.0, "mode wavelength cubed over volume"),
        "t0-grid": (
            _count(_MAX_ROWS), 32, "emission times spanning one modulation period"
        ),
    },
    "band": {
        **_STATE_OPTIONS,
        "delta-omega-ratio": (_FRACTION, 0.1, "band half-width over band centre"),
        "solid-angle": (_NUMBER, 0.1, "beam solid angle in steradians"),
        "t0-omega": (_NUMBER, 0.0, "emission time times band-centre frequency"),
        "n-modes": (_count(MAX_MODES), 64, "modes in the discrete mode-sum oracle"),
    },
    "oracle": {
        "grid": (_one_of(*_GRIDS), "default", "grid name: default or quick"),
        "ratio-RT": (_NUMBER, 0.1, "trajectory apex over half time, R/T"),
    },
    "estimate": {
        "kind": (
            _one_of("cavity", "empty-space"), "cavity", "cavity or empty-space scenario"
        ),
        "ratio-RT": (_NUMBER, 0.1, "trajectory apex over half time, R/T"),
        "lambda3-over-V": (_POSITIVE, 1.0, "cavity: wavelength cubed over volume"),
        "R-over-lambda": (_NUMBER, 1.0, "cavity: apex over wavelength"),
        "delta-omega-ratio": (_FRACTION, 0.1, "empty-space: fractional half-width"),
        "solid-angle": (_NUMBER, 0.1, "empty-space: beam solid angle"),
        "omega-bar-T": (_POSITIVE, 3.34, "empty-space: flight phase omega*T"),
    },
    "sweep": {
        **_STATE_OPTIONS,
        "lambda3-over-V": (_POSITIVE, 1.0, "mode wavelength cubed over volume"),
        "t0-omega": (_NUMBER, 0.0, "emission time times mode frequency"),
    },
}

_MAX_AXES = 3

#: most rows of any table formatted and written at a time
_BLOCK_ROWS = 4096

#: every sweep option is an axis and, in table order, an input column
_SWEEP_HEADER = tuple(key.replace("-", "_") for key in _OPTIONS["sweep"]) + (
    "g", "w_r", "contrast_factor", "window_width",
    "g_avg", "w_r_avg", "w_r_max", "w_total", "status",
)

#: the sweep's status labels, indexed by 0 (ok), 1 (r = 0) or 2 (refused)
_STATUS = np.array(["ok", "degenerate", "range_error"], dtype=object)


class _Parser(argparse.ArgumentParser):
    # a usage error returns 1 through main(), not argparse's exit 2 (non-convergence)
    def error(self, message):
        raise ConfigError(message)


def _at_first(values: np.ndarray, marked, call: Callable) -> None:
    """call(value) at the first of ``values`` that ``marked`` marks: the
    scalar call that refuses, or warns about, that value."""
    if np.any(marked):
        call(values.flat[np.argmax(marked)])


def _parse_axis(spec: str) -> tuple[str, tuple[float, ...]]:
    """argparse type of --vary: NAME=v1,v2,... or NAME=START:STOP:COUNT,
    every value through NAME's own rule (a range's as one array)."""
    name, sep, rest = (part.strip() for part in spec.partition("="))
    if not sep or not rest:
        raise ArgumentTypeError(f"expected NAME=VALUES, got {spec!r}")
    table = _OPTIONS["sweep"]
    if name not in table:
        raise ArgumentTypeError(f"axis {name!r} is not one of: {', '.join(table)}")
    rule = table[name][0]
    if ":" not in rest:
        return name, tuple(_convert(name, rule, value) for value in rest.split(","))
    bounds = rest.split(":")
    if len(bounds) != 3:
        raise ArgumentTypeError(f"{name} expects START:STOP:COUNT, got {rest!r}")
    finite = _Rule(float, math.isfinite, "be finite")
    start, stop = (_convert(name, finite, bound) for bound in bounds[:2])
    count = _convert("COUNT", _count(_MAX_ROWS), bounds[2])
    if count == 1:  # START alone: no span to overflow
        values = np.array([start])
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # stop - start overflows
            values = np.linspace(start, stop, count)
        if not np.isfinite(values).all():
            raise ArgumentTypeError(f"{name}={rest} spans more than double precision")
    refused = np.logical_not(rule.ok(values))  # the first, with its message
    _at_first(values, refused, functools.partial(_convert, name, rule))
    return name, tuple(values.tolist())


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and, by name, its subcommand parsers."""
    parser = _Parser(
        prog="recoherence",
        description="Coherence shifts of a driven charge in squeezed vacuum.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, table in _OPTIONS.items():
        p = sub.add_parser(command, description=f"Run the {command} calculation.")
        for key, (rule, default, help_text) in table.items():
            positional = key == "kind"  # `estimate cavity`
            p.add_argument(
                key if positional else f"--{key}",
                nargs="?" if positional else None,
                type=functools.partial(_convert, key, rule),
                default=default,
                help=f"{help_text} (default: %(default)s)",
            )
        if command == "sweep":
            p.add_argument(
                "--vary",
                action="append",
                type=_parse_axis,
                metavar="NAME=VALUES",
                help="axis to sweep: NAME=v1,v2,... or NAME=START:STOP:COUNT; "
                "repeat for up to three axes (row-major order)",
            )
        p.add_argument(
            "--config",
            metavar="PATH",
            help=f"INI file whose [{command}] section supplies defaults",
        )
        p.add_argument(
            "--output",
            metavar="PATH",
            help="write the CSV table here instead of stdout",
        )
    return parser, sub.choices


def _load_config_section(path: str, command: str) -> dict:
    """The [command] section of ``path``, each key through its option's
    rule, keyed by argparse destination; sweep axes under "vary"."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep the case of omega-bar-T etc.
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:  # configparser's message spans lines
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"cannot parse config file {path}: {message}") from exc
    if not parser.has_section(command):
        raise ConfigError(f"config file {path} has no [{command}] section")
    table = _OPTIONS[command]
    loaded: dict = {}
    for key, raw in parser.items(command):
        try:
            if command == "sweep" and key == "vary":
                loaded["vary"] = [_parse_axis(s) for s in raw.split(";") if s.strip()]
            elif key in table:
                loaded[key.replace("-", "_")] = _convert(key, table[key][0], raw)
            else:
                raise ConfigError(f"config section [{command}]: unknown key {key!r}")
        except ArgumentTypeError as exc:
            raise ConfigError(
                f"config section [{command}], key {key!r}: {exc}"
            ) from exc
    return loaded


def _parse(argv: list[str] | None) -> tuple[str, dict, str | None]:
    """Command, option values and output path: each value from its flag,
    else the config file, else the table default."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    axes = []
    if args.config is not None:
        loaded = _load_config_section(args.config, args.command)
        axes = loaded.pop("vary", [])
        commands[args.command].set_defaults(**loaded)
        args = parser.parse_args(argv)
    values = {k: getattr(args, k.replace("-", "_")) for k in _OPTIONS[args.command]}
    if args.command == "sweep":
        values["vary"] = args.vary or axes  # explicit flags replace config axes
    return args.command, values, args.output


def _write_table(header: tuple, columns, output: str | None, blank=None) -> None:
    """The header line, then the rows of ``columns``, to stdout or ``output``.

    The columns are scalars, or arrays with one number of axes that
    broadcast to the table's shape.  Rows go out row-major, a number as its
    repr and a string as it is, at most ``_BLOCK_ROWS`` at a time whatever
    the shape: the blocks split the first axis whose trailing axes hold at
    most a block.  Each value is formatted once: a column whose values recur
    in more than one block (so it has at most half the table's rows) in
    full, any other block by block.  ``blank`` = (rows, cols), a boolean
    array of the table's shape and a slice, writes nan in those columns of
    the marked rows after formatting, so shared values stay formatted once."""
    columns = [np.atleast_1d(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    inner = [math.prod(shape[k + 1 :]) for k in range(len(shape))]
    axis = next(k for k, n in enumerate(inner) if n <= _BLOCK_ROWS)
    widths = (1,) * axis + (_BLOCK_ROWS // inner[axis],)
    counts = [math.ceil(n / w) for n, w in zip(shape, widths)]  # blocks per axis
    fmt = np.frompyfunc(repr, 1, 1)

    def text(c):  # formatted, or strings already
        return c if c.dtype.kind in "OU" else fmt(c)

    def recurs(c):  # the same values of c are in more than one block
        return any(n == 1 < m for n, m in zip(c.shape, counts))

    columns = [np.broadcast_to(text(c), shape) if recurs(c) else c for c in columns]
    rows, cols = blank or (None, slice(0))
    with contextlib.nullcontext(sys.stdout) if output is None else open(
        output, "w", encoding="utf-8", newline=""
    ) as fh:
        fh.write(",".join(header) + "\n")
        for index in np.ndindex(*counts):
            cut = tuple(slice(i * w, (i + 1) * w) for i, w in zip(index, widths))
            strings = list(np.broadcast_arrays(*(text(c[cut]) for c in columns)))
            strings[cols] = [np.where(rows[cut], "nan", s) for s in strings[cols]]
            lines = zip(*(s.ravel().tolist() for s in strings))
            fh.write("".join(",".join(line) + "\n" for line in lines))


def _inputs(v: dict, *keys: str) -> dict:
    """Option values as leading CSV columns, named with underscores."""
    return {key.replace("-", "_"): v[key] for key in keys}


def _rel_err(value: float, reference: float) -> float:
    """|value - reference| / |reference| with no floor, so it holds however
    small the two are: 0.0 when they are equal, inf when only the reference
    is 0."""
    gap = abs(value - reference)
    return gap / abs(reference) if reference else (math.inf if gap else 0.0)


def _show_warning(message, *_) -> None:
    """Stands in for warnings.showwarning: one line, no path or source."""
    print(f"warning: {message}", file=sys.stderr)


def _trajectory(apex: float) -> Trajectory:
    """Trajectory(apex, T = 1), with one warning line when it is superluminal."""
    traj = Trajectory(apex, 1.0)
    if traj.is_relativistic:
        _show_warning(f"trajectory peak speed {traj.max_speed:.6g} exceeds 1 "
                      "(units with c = 1); results are formal")
    return traj


def _mode_volume(omega: float, ratio: float) -> float:
    """(2*pi/omega-bar-T)^3 / lambda3-over-V (T = 1); inf when it overflows."""
    try:
        return (2.0 * math.pi / omega) ** 3 / ratio
    except OverflowError:
        return math.inf


def _mode_from(omega: float, ratio: float) -> ModeSpec:
    """Mode of frequency omega-bar-T in the volume ``_mode_volume``;
    RangeError when that volume leaves double precision."""
    what = f"omega-bar-T={omega!r} with lambda3-over-V={ratio!r} gives a mode volume"
    volume = _representable(
        _mode_volume(omega, ratio), f"{what} (2*pi/omega-bar-T)^3/lambda3-over-V"
    )
    return ModeSpec(omega=omega, volume=volume)


def _emission_time(t0_omega: float, omega: float) -> float:
    """t0-omega / omega-bar-T; RangeError when a finite t0-omega gives a t0
    outside double precision."""
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
    traj = _trajectory(v["ratio-RT"])
    n = v["t0-grid"]
    t0 = np.arange(n) * (math.pi / mode.omega) / n
    cells = _table(state.r, state.theta, mode.omega, mode.volume, traj.apex, t0)
    # the scalar path raises the first refused row's RangeError
    _at_first(t0, cells["refused"], lambda t: coherence_shift(state, mode, traj, t))
    header = ("t0", "g", "w_r", "contrast_factor")
    _write_table(header, [t0, *map(cells.get, header[1:])], output)
    window = emission_window(state, mode)
    split = unitarity_sum(mode, traj)
    print(
        f"window: start={window.start!r} end={window.end!r} "
        f"width={window.width!r} degenerate={window.degenerate}",
        file=sys.stderr,
    )
    if window.start == window.end and window.width > 0.0:
        _show_warning(f"emission window width {window.width!r} is below the "
                      "resolution of t0 at its centre: start and end are one double")
    print(
        f"windowed shift={windowed_coherence_shift(state, mode, traj)!r} "
        f"bound={split.max_shift!r} "
        f"vacuum={split.vacuum!r} total={split.total!r}",
        file=sys.stderr,
    )
    return 0


def _run_band(v: dict, output: str | None) -> int:
    state = SqueezeState(v["r"], v["theta"])
    omega, ratio = v["omega-bar-T"], v["delta-omega-ratio"]
    half_width = _representable(
        ratio * omega,
        f"delta-omega-ratio={ratio!r} times omega-bar-T={omega!r} gives a band "
        "half-width",
    )
    band = BandSpec(center=omega, half_width=half_width, solid_angle=v["solid-angle"])
    traj = _trajectory(v["ratio-RT"])
    t0 = _emission_time(v["t0-omega"], omega)
    # t0-resolved first, so a bad t0 fails before the leading-order warnings
    t0_exact = band_coherence_shift_exact(
        state, band, traj, window_averaged=False, t0=t0
    )
    mode_sum = mode_sum_oracle(state, band, traj, v["n-modes"], t0)
    windowed_exact = band_coherence_shift_exact(state, band, traj)
    windowed_leading = band_coherence_shift_leading(state, band, traj)
    row = _inputs(v, "r", "theta", "omega-bar-T", "ratio-RT", "delta-omega-ratio")
    row.update(_inputs(v, "solid-angle", "t0-omega", "n-modes"))
    row["windowed_exact"] = windowed_exact
    row["windowed_leading"] = windowed_leading
    row["leading_rel_err"] = _rel_err(windowed_leading, windowed_exact)
    row["t0_exact"] = t0_exact
    row["mode_sum"] = mode_sum
    row["mode_sum_rel_err"] = _rel_err(mode_sum, t0_exact)
    _write_table(tuple(row), row.values(), output)
    return 0


def _run_oracle(v: dict, output: str | None) -> int:
    omegas, squeezes, n_t0 = _GRIDS[v["grid"]]
    traj = _trajectory(v["ratio-RT"])
    rows = []
    for omega in omegas:
        mode = _mode_from(omega, 1.0)
        for r in squeezes:
            state = SqueezeState(r, 0.0)
            for k in range(n_t0):
                t0 = k * math.pi / (omega * n_t0)
                closed = coherence_shift(state, mode, traj, t0).value
                try:
                    direct = quad_coherence_shift(state, mode, traj, t0)
                except ConvergenceError as exc:
                    print(
                        f"recoherence: oracle point omega_bar_T={omega!r} "
                        f"r={r!r} t0={t0!r} did not converge: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                rows.append((omega, r, t0, closed, direct, _rel_err(direct, closed)))
    header = ("omega_bar_T", "r", "t0", "closed", "quadrature", "rel_err")
    _write_table(header, zip(*rows), output)
    omega, r, t0, _, _, rel_err = max(rows, key=lambda row: row[-1])
    print(
        f"oracle: max relative error {rel_err!r} at omega_bar_T={omega!r} "
        f"r={r!r} t0={t0!r} over {len(rows)} points",
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
    _trajectory(v["ratio-RT"])
    with warnings.catch_warnings():  # the same rule, said once, by _trajectory
        warnings.filterwarnings("ignore", "ratio_rt = .* superluminal")
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
    _write_table(tuple(row), row.values(), output)
    return 0


def sweep(values: dict, output: str | None) -> int:
    """Cartesian sweep over the ``vary`` axes, row-major in axis order.

    The values of r, theta, ratio-RT and t0-omega are first checked as the
    scalar path checks them (as arrays, the scalar check run only on a value
    refused), and the first refused with DomainError ends the sweep; so is
    the speed of ratio-RT, and a Trajectory is built only for the first
    relativistic value, for its warning.  Each column is then computed once
    at the shape of the axes it depends on (``single_mode._table``) and
    written by ``_write_table``, in blocks of rows; the range_error rows,
    r above the cap and the cells ``_table`` marks ``refused`` (which the
    scalar path refuses), get nan cells after formatting."""
    names = [name for name, _ in values["vary"]]
    if len(names) > _MAX_AXES:
        raise ConfigError(f"at most {_MAX_AXES} --vary axes, got {len(names)}")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate --vary axes: {', '.join(names)}")
    shape = tuple(len(axis) for _, axis in values["vary"]) or (1,)
    count = math.prod(shape)
    if count > _MAX_ROWS:
        raise ConfigError(f"--vary axes give {count} rows, above {_MAX_ROWS}")
    inputs = {key: np.full((1,) * len(shape), values[key]) for key in _OPTIONS["sweep"]}
    inputs.update(zip(names, np.ix_(*(axis for _, axis in values["vary"]))))
    r, theta, omega, apex, ratio, t0_omega = inputs.values()
    # in table order; r above the cap gives range_error rows, not an error
    _at_first(r, ~(np.isfinite(r) & (r >= 0.0)), SqueezeState)
    _at_first(theta, ~np.isfinite(theta), lambda value: SqueezeState(0.0, value))
    _at_first(apex, ~(np.isfinite(apex) & (apex > 0.0)), lambda a: Trajectory(a, 1.0))
    emission_time = functools.partial(_finite_input, "emission time")
    _at_first(t0_omega, ~np.isfinite(t0_omega), emission_time)
    # Trajectory(a, 1.0).is_relativistic: the first such value's warning
    _at_first(apex, _max_speed(apex, 1.0) >= 1.0, _trajectory)
    volume = _each(_mode_volume, omega, ratio)
    with np.errstate(all="ignore"):
        t0 = t0_omega / omega
    capped = r > SQUEEZE_CAP
    cells = _table(np.where(capped, 0.0, r), theta, omega, volume, apex, t0)
    bad = np.broadcast_to(capped | cells["refused"], shape)
    status = _STATUS[np.where(bad, 2, r == 0)]
    columns = [*inputs.values(), *map(cells.get, _SWEEP_HEADER[6:-1]), status]
    _write_table(_SWEEP_HEADER, columns, output, blank=(bad, slice(6, -1)))
    return 0


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            command, values, output = _parse(argv)
            runner = {
                "single-mode": _run_single_mode,
                "band": _run_band,
                "oracle": _run_oracle,
                "estimate": _run_estimate,
                "sweep": sweep,
            }[command]
            return runner(values, output)
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

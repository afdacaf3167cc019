"""The public names, the parameter names of every public callable and the
option names of every CLI subcommand, frozen.

A change here is a change of the API: rename, add or drop a name, a
keyword or a flag deliberately, then update these tables and README's
"Removed names".
"""

import inspect

import pytest

import recoherence
from recoherence import cli

# name -> parameter names; None for a constant or an exception type
_API = {
    "FINE_STRUCTURE": None,
    "SQUEEZE_CAP": None,
    "DomainError": None,
    "RangeError": None,
    "ConvergenceError": None,
    "CavityScenario": ("wavelength", "volume", "apex", "half_time"),
    "EmptySpaceScenario": (
        "ratio_rt", "bandwidth_ratio", "solid_angle", "flight_phase",
    ),
    "cavity_estimate": ("scenario",),
    "cavity_estimate_exact": ("scenario",),
    "coupling_envelope": ("x",),
    "empty_space_estimate": ("scenario",),
    "locate_envelope_max": (),
    "BandSpec": ("center", "half_width", "solid_angle"),
    "band_coherence_shift_exact": (
        "state", "band", "traj", "window_averaged", "t0",
    ),
    "band_coherence_shift_leading": ("state", "band", "traj"),
    "mode_sum_oracle": ("state", "band", "traj", "n_modes", "t0"),
    "quad_coherence_shift": ("state", "mode", "traj", "t0"),
    "quad_vacuum_term": ("mode", "traj"),
    "quad_envelope": ("mode", "traj"),
    "quad_coherence_shift_separable": ("state", "mode", "traj", "t0"),
    "integrate_oscillatory": ("f", "lo", "hi", "oscillations"),
    "EmissionWindow": ("start", "end", "width", "degenerate"),
    "CoherenceResult": ("value", "contrast_factor"),
    "UnitaritySplit": ("vacuum", "max_shift", "total"),
    "mode_envelope": ("mode", "traj"),
    "modulation": ("state", "mode", "t0"),
    "modulation_min": ("state",),
    "modulation_max": ("state",),
    "coherence_shift": ("state", "mode", "traj", "t0"),
    "long_time_average": ("state", "mode", "traj"),
    "emission_window": ("state", "mode"),
    "windowed_modulation": ("state",),
    "windowed_coherence_shift": ("state", "mode", "traj"),
    "max_recoherence": ("mode", "traj"),
    "unitarity_sum": ("mode", "traj"),
    "SqueezeState": ("r", "theta"),
    "ModeSpec": ("omega", "volume"),
    "mean_photon_number": ("state",),
    "energy_density": ("state", "mode", "phase"),
    "total_energy": ("state", "mode"),
    "Trajectory": ("apex", "half_time"),
    "__version__": None,
}

_CLI = {"ConfigError": None, "main": ("argv",), "sweep": ("values", "output")}

# subcommand -> its options, each a --flag and an INI key; ``kind`` is the
# one positional
_CLI_OPTIONS = {
    "single-mode": (
        "r", "theta", "omega-bar-T", "ratio-RT", "lambda3-over-V", "t0-grid",
    ),
    "band": (
        "r", "theta", "omega-bar-T", "ratio-RT", "delta-omega-ratio",
        "solid-angle", "t0-omega", "n-modes",
    ),
    "oracle": ("grid", "ratio-RT"),
    "estimate": (
        "kind", "ratio-RT", "lambda3-over-V", "R-over-lambda",
        "delta-omega-ratio", "solid-angle", "omega-bar-T",
    ),
    "sweep": (
        "r", "theta", "omega-bar-T", "ratio-RT", "lambda3-over-V", "t0-omega",
    ),
}


def test_public_names_are_frozen():
    assert recoherence.__all__ == list(_API)
    assert cli.__all__ == list(_CLI)


def test_cli_option_names_are_frozen():
    got = [(command, tuple(table)) for command, table in cli._OPTIONS.items()]
    assert got == list(_CLI_OPTIONS.items())


_ALL = [(recoherence, name, params) for name, params in _API.items()] + [
    (cli, name, params) for name, params in _CLI.items()
]


def test_from_ratios_parameter_names_are_frozen():
    # the scenario is built in units of the wavelength: no wavelength knob
    params = inspect.signature(recoherence.CavityScenario.from_ratios).parameters
    assert tuple(params) == ("ratio_rt", "lambda3_over_volume", "apex_over_wavelength")


@pytest.mark.parametrize(
    "module,name,params", _ALL, ids=[f"{m.__name__}.{n}" for m, n, _ in _ALL]
)
def test_parameter_names_are_frozen(module, name, params):
    obj = getattr(module, name)
    if params is None:
        assert not callable(obj) or issubclass(obj, Exception)
    else:
        assert tuple(inspect.signature(obj).parameters) == params

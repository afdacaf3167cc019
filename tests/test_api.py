"""The public names and the parameter names of every public callable, frozen.

A change here is a change of the API: rename, add or drop a name or a
keyword deliberately, then update this table and README's "Removed names".
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
        "state", "band", "traj", "window_averaged", "t0", "cfg",
    ),
    "band_coherence_shift_leading": ("state", "band", "traj"),
    "mode_sum_oracle": ("state", "band", "traj", "n_modes", "t0"),
    "QuadratureConfig": ("nodes_per_period", "scheme", "rel_tol", "abs_tol"),
    "quad_coherence_shift": ("state", "mode", "traj", "t0", "cfg"),
    "quad_vacuum_term": ("mode", "traj", "cfg"),
    "quad_envelope": ("mode", "traj", "cfg"),
    "quad_coherence_shift_separable": ("state", "mode", "traj", "t0", "cfg"),
    "integrate_oscillatory": ("f", "lo", "hi", "oscillations", "cfg"),
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


def test_public_names_are_frozen():
    assert recoherence.__all__ == list(_API)
    assert cli.__all__ == list(_CLI)


_ALL = [(recoherence, name, params) for name, params in _API.items()] + [
    (cli, name, params) for name, params in _CLI.items()
]


@pytest.mark.parametrize(
    "module,name,params", _ALL, ids=[f"{m.__name__}.{n}" for m, n, _ in _ALL]
)
def test_parameter_names_are_frozen(module, name, params):
    obj = getattr(module, name)
    if params is None:
        assert not callable(obj) or issubclass(obj, Exception)
    else:
        assert tuple(inspect.signature(obj).parameters) == params

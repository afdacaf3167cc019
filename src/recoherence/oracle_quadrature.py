"""Brute-force quadrature certifying the closed-form coherence shifts.

Nothing here reuses the closed forms: the coherence shift is rebuilt from
its definition as a double line integral of the field's symmetric two-point
kernel around the interference loop,

    W = -pi*alpha * loop-int dz loop-int dz' K(t, t'),

with the loop traversed as arm C1 minus the mirrored arm C2.  For a single
squeezed mode the renormalized kernel is

    K_R(t, t') = (1/(V*omega)) * ( -mu*nu * e^{-i*omega*(t + t' + 2*t0)}
                                   + eta^2 * e^{-i*omega*(t - t')} + c.c. ),

and for the vacuum reference term

    K_0(t, t') = (1/(2*V*omega)) * ( e^{-i*omega*(t - t')} + c.c. ).

Both kernels are sums of products of e^{-i*omega*t} and its conjugate
(rank at most 4), so the double integral factorises through one complex
line integral L = sum over legs of sign * int v_leg e^{-i*omega*(t+t0)} dt,
arm C1 with orientation +1 and velocity +v, arm C2 with -1 and -v.  With
Lb = conj(L) the squeezed term is (-mu*nu*L^2 - mu*conj(nu)*Lb^2
+ eta^2*(L*Lb + Lb*L)) / (V*omega) and the vacuum term (L*Lb + Lb*L) /
(2*V*omega) at t0 = 0: time and memory are linear in the node count.

Integrals use composite Gauss-Legendre panels sized by a nodes-per-period
budget, at most _MAX_NODES nodes per evaluation.  Every public entry point
re-evaluates at doubled resolution and raises ConvergenceError when the two
disagree beyond the configured tolerance, so a silently under-resolved
oscillation cannot masquerade as agreement; an imaginary residue left by a
mis-assembled kernel raises it too.  Summation orders are fixed, making
results bit-reproducible on a given platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .constants import FINE_STRUCTURE
from .errors import ConvergenceError, DomainError, _count_input, _finite_input
from .squeezed_state import ModeSpec, SqueezeState
from .trajectory import Trajectory

_SCHEME_ORDER = {"gl2": 2, "gl4": 4, "gl8": 8, "gl16": 16}

#: acceptable relative size of the imaginary residue left after the
#: conjugate kernel pairs cancel
_IMAG_RESIDUE = 1e-10

#: largest node count of one evaluation (about 2e5 in omega*T at the
#: default budget with refinement); larger requests raise DomainError
_MAX_NODES = 2**22

#: (orientation, velocity sign) of arm C1 and of the mirrored arm C2
_LEGS = ((1.0, 1.0), (-1.0, -1.0))


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and tolerances of the composite Gauss-Legendre rule.

    Parameters
    ----------
    nodes_per_period : int
        Node budget per oscillation period of the integrand; at least 16.
    scheme : str
        Fixed panel order: one of "gl2", "gl4", "gl8", "gl16".
    rel_tol, abs_tol : float
        Finite, positive thresholds of the refinement check: the base and
        the doubled resolution must agree within max(abs_tol, rel_tol*|value|).
        At an over-resolved budget the two results can agree bit for bit,
        so a tolerance set below rounding noise does not make the check
        fail; only an under-resolved rule does.
    """

    nodes_per_period: int = 32
    scheme: str = "gl8"
    rel_tol: float = 1e-8
    abs_tol: float = 1e-14

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEME_ORDER:
            raise DomainError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{sorted(_SCHEME_ORDER)}"
            )
        nodes = _count_input("nodes_per_period", self.nodes_per_period, 16)
        object.__setattr__(self, "nodes_per_period", nodes)
        for name in ("rel_tol", "abs_tol"):
            value = _finite_input(name, getattr(self, name), positive=True)
            object.__setattr__(self, name, value)


_DEFAULT = QuadratureConfig()


@lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(
    lo: float, hi: float, oscillations: float, cfg: QuadratureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights over [lo, hi].

    Panel count scales with the oscillation count so the configured
    nodes-per-period budget is met; a floor of four panels keeps smooth
    integrands honest too.  Asking for more than _MAX_NODES nodes, or for a
    non-finite oscillation count, raises DomainError before any allocation.
    """
    order = _SCHEME_ORDER[cfg.scheme]
    wanted = oscillations * cfg.nodes_per_period / order
    if not wanted <= _MAX_NODES // order:  # also catches inf and nan
        raise DomainError(
            f"{oscillations:.3g} oscillations at {cfg.nodes_per_period} nodes per "
            f"period need {wanted * order:.3g} nodes, above the cap of {_MAX_NODES}"
        )
    panels = max(4, math.ceil(wanted))
    xs, ws = _gauss_rule(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


def _refined(
    evaluate: Callable[[QuadratureConfig], float],
    cfg: QuadratureConfig | None,
    what: str,
    refine: bool,
) -> float:
    """evaluate(cfg), checked against the doubled budget when ``refine``."""
    cfg = cfg or _DEFAULT
    coarse = evaluate(cfg)
    if not refine:
        return coarse
    fine = evaluate(replace(cfg, nodes_per_period=2 * cfg.nodes_per_period))
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(fine))
    if abs(fine - coarse) > tol:
        raise ConvergenceError(
            f"{what} did not stabilise under refinement: "
            f"{coarse!r} (base) vs {fine!r} (doubled), tolerance {tol:g}"
        )
    return fine


def _mode_oscillations(mode: ModeSpec, traj: Trajectory) -> float:
    # periods of e^{i*omega*t} across the flight interval [-T, T]
    return mode.omega * traj.half_time / math.pi


def _loop_line(
    mode: ModeSpec, traj: Trajectory, t0: float, cfg: QuadratureConfig
) -> complex:
    """L = sum over legs of sign * int v_leg(t) e^{-i*omega*(t + t0)} dt.

    The legs share the nodes: one line integral times their summed signs.
    """
    t, w = _panel_nodes(
        -traj.half_time, traj.half_time, _mode_oscillations(mode, traj), cfg
    )
    phase = np.exp(-1j * mode.omega * (t + t0))
    line = complex(np.dot(w * traj.velocity(t), phase))
    return sum(sign * direction for sign, direction in _LEGS) * line


def _loop_value(total: complex, what: str) -> float:
    """-pi*alpha * Re(total), after checking the imaginary residue.

    Conjugate kernel terms cancel the imaginary part; a residue above the
    tolerance means a mis-assembled kernel and is reported, not dropped.
    """
    residue = abs(total.imag)
    if residue > _IMAG_RESIDUE * max(abs(total.real), 1e-300):
        raise ConvergenceError(
            f"{what}: imaginary residue {residue:g} exceeds "
            f"{_IMAG_RESIDUE:g} of the real part {total.real:g}"
        )
    return -math.pi * FINE_STRUCTURE * total.real


def quad_coherence_shift(
    state: SqueezeState,
    mode: ModeSpec,
    traj: Trajectory,
    t0: float,
    cfg: QuadratureConfig | None = None,
    refine: bool = True,
) -> float:
    """Single-mode coherence shift from the raw loop double integral.

    Independent route to the closed form: the four terms of the squeezed
    kernel K_R contracted with the loop line integral L.  With ``refine``
    (default) the result is accepted only if doubling the node budget
    reproduces it within the configured tolerance.

    Accuracy at the default budget: about 1e-8 of the value up to
    omega*T ~ 1e4.  Beyond that the refinement check no longer bounds the
    error, because both budgets share the rounding of the phase and of the
    cancelling line integral: at omega*T = 1e5 it accepts values off by
    1e-5 to 5e-4 of the value (1.7e-4 at r = 1, t0 = 0.3, R/T = 0.1).
    """
    t0 = _finite_input("emission time", t0)
    mu, nu, eta = state.mu, state.nu, state.eta
    scale = mode.volume * mode.omega

    def evaluate(c: QuadratureConfig) -> float:
        line = _loop_line(mode, traj, t0, c)
        bar = line.conjugate()
        total = (
            -mu * nu * line * line
            + -mu * nu.conjugate() * bar * bar
            + eta * eta * line * bar
            + eta * eta * bar * line
        ) / scale
        return _loop_value(total, "coherence-shift quadrature")

    return _refined(evaluate, cfg, "coherence-shift quadrature", refine)


def quad_vacuum_term(
    mode: ModeSpec,
    traj: Trajectory,
    cfg: QuadratureConfig | None = None,
    refine: bool = True,
) -> float:
    """Vacuum coherence loss of one mode from the raw loop double integral.

    The two terms of the vacuum kernel K_0 contracted with L; checks
    -(4*pi*alpha/(V*omega))*M independently of the envelope algebra.
    """
    scale = 2.0 * mode.volume * mode.omega

    def evaluate(c: QuadratureConfig) -> float:
        line = _loop_line(mode, traj, 0.0, c)
        bar = line.conjugate()
        total = (line * bar + bar * line) / scale
        return _loop_value(total, "vacuum-term quadrature")

    return _refined(evaluate, cfg, "vacuum-term quadrature", refine)


def quad_envelope(
    mode: ModeSpec,
    traj: Trajectory,
    cfg: QuadratureConfig | None = None,
    refine: bool = True,
) -> float:
    """Mode envelope M as the squared overlap of velocity and sin(omega*t).

    M = (integral of v(t)*sin(omega*t) over the flight)^2; numerical
    counterpart of the closed-form envelope, sharing no algebra with it.
    v is odd, so at t0 = 0 the loop line integral L is -2i times that
    overlap and M = |L|^2/4.
    """

    def evaluate(c: QuadratureConfig) -> float:
        half = 0.5 * abs(_loop_line(mode, traj, 0.0, c))
        return half * half

    return _refined(evaluate, cfg, "envelope quadrature", refine)


def quad_coherence_shift_separable(
    state: SqueezeState,
    mode: ModeSpec,
    traj: Trajectory,
    t0: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Coherence shift at the base budget, without the refinement check."""
    return quad_coherence_shift(state, mode, traj, t0, cfg, refine=False)


def integrate_oscillatory(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    oscillations: float,
    cfg: QuadratureConfig | None = None,
    refine: bool = True,
) -> float:
    """Composite Gauss-Legendre integral of a vectorised real integrand.

    ``oscillations`` is the number of full periods of the fastest
    oscillation across [lo, hi]; it sizes the panels against the
    nodes-per-period budget.  With ``refine`` the node budget is doubled
    and disagreement beyond tolerance raises ConvergenceError.
    """
    _finite_input("integration interval length hi - lo", hi - lo, positive=True)

    def evaluate(c: QuadratureConfig) -> float:
        x, w = _panel_nodes(lo, hi, oscillations, c)
        return float(np.dot(w, f(x)))

    return _refined(evaluate, cfg, "oscillatory integral", refine)


__all__ = [
    "QuadratureConfig",
    "quad_coherence_shift",
    "quad_vacuum_term",
    "quad_envelope",
    "quad_coherence_shift_separable",
    "integrate_oscillatory",
]

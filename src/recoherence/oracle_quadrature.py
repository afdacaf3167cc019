"""Brute-force quadrature certifying the closed-form coherence shifts.

Nothing here reuses the closed forms: the coherence shift is rebuilt from
its definition as a double line integral of the field's symmetric two-point
kernel around the interference loop,

    W = -pi*alpha * loop-int dz loop-int dz' K(t, t'),

with the loop traversed as arm C1 minus the mirrored arm C2.  For a single
squeezed mode the renormalized kernel is

    K_R(t, t') = (1/(V*omega)) * ( -mu*nu * e^{-i*omega*(t + t' + 2*t0)}
                                   + eta^2 * e^{-i*omega*(t - t')} + c.c. ),

and the vacuum reference kernel K_0 is its eta^2 term at eta^2 = 1/2.
Both are sums of products of e^{-i*omega*t} and its conjugate (rank at
most 4), so the double integral factorises through one complex line
integral L = sum over legs of sign * int v_leg e^{-i*omega*(t+t0)} dt,
arm C1 with orientation +1 and velocity +v, arm C2 with -1 and -v.  With
Lb = conj(L) and s = -mu*nu either term is (s*L^2 + conj(s)*Lb^2
+ eta^2*(L*Lb + Lb*L)) / (V*omega), with s = 0, eta^2 = 1/2 and t0 = 0
for the vacuum: time and memory are linear in the node count.

Integrals use composite Gauss-Legendre panels sized by a nodes-per-period
budget, at most _MAX_NODES nodes per evaluation.  Every public entry point
but quad_coherence_shift_separable re-evaluates at doubled resolution and
raises ConvergenceError when the two disagree beyond the configured
tolerance, so a silently under-resolved oscillation cannot masquerade as
agreement; an imaginary residue left by a mis-assembled kernel raises it
too.  Sums are numpy's pairwise ``np.sum``, whose order no BLAS thread
count changes (a BLAS dot splits across threads), making results
bit-reproducible on a given platform.
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

#: rounding floor of the refinement check, in units of an evaluation's
#: rounding scale (what a relative change eps of its summed terms moves it
#: by, to first order): two budgets that differ by less differ by rounding
#: alone.  Measured rounding gaps reached 0.95 of the scale for the
#: quadratic forms at omega*T <= 10, 2.2 up to omega*T = 1e4, and 0.03 for
#: the band integrals up to a centre of 3000 (their scale counts the
#: rounding of the integrand's phase)
_ROUNDING = 16.0 * np.finfo(float).eps

#: what the errors of the two loop forms name
_SHIFT, _VACUUM = "coherence-shift quadrature", "vacuum-term quadrature"


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
        the doubled resolution must agree within max(abs_tol, rel_tol*|value|)
        or within rounding, a few eps times the first-order change that
        rounding of the summed terms makes, whichever is larger.  So a
        tolerance set below rounding noise does not fail a converged value;
        only an under-resolved rule does.  ``abs_tol`` is absolute, and loop
        values scale like 1/(V*omega): about 4e-10 at omega*T = 1000 and
        R/T = 0.1.  There the default accepts gaps of 2.4e-5 of the value
        (2e-3 at omega*T = 1e4), so certifying 1e-8 needs an abs_tol
        below 1e-8 of the value.
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
    evaluate: Callable[[QuadratureConfig], tuple[float, float]],
    cfg: QuadratureConfig | None,
    what: str,
) -> float:
    """The value of evaluate(cfg), checked against the doubled budget.

    ``evaluate`` returns the value and its rounding scale, the first-order
    change of the value when its summed terms change by a relative eps,
    which sets the rounding floor of the tolerance.
    """
    cfg = cfg or _DEFAULT
    coarse, _ = evaluate(cfg)
    fine, size = evaluate(replace(cfg, nodes_per_period=2 * cfg.nodes_per_period))
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(fine), _ROUNDING * size)
    if abs(fine - coarse) > tol:
        raise ConvergenceError(
            f"{what} did not stabilise under refinement: "
            f"{coarse!r} (base) vs {fine!r} (doubled), tolerance {tol:g}"
        )
    return fine


def _loop_line(
    mode: ModeSpec, traj: Trajectory, t0: float, cfg: QuadratureConfig
) -> tuple[complex, float]:
    """L = sum over legs of sign * int v_leg(t) e^{-i*omega*(t + t0)} dt,
    and the magnitude of its terms, sum |w*v|, at the same scale.

    The legs share the nodes: one line integral times their summed signs.
    """
    periods = mode.omega * traj.half_time / math.pi  # of e^{i*omega*t} in [-T, T]
    t, w = _panel_nodes(-traj.half_time, traj.half_time, periods, cfg)
    wv = w * traj.velocity(t)
    line = complex(np.sum(wv * np.exp(-1j * mode.omega * (t + t0))))
    legs = sum(sign * direction for sign, direction in _LEGS)
    return legs * line, abs(legs) * float(np.sum(np.abs(wv)))


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


def _loop_form(
    s: complex, d: float, mode: ModeSpec, traj: Trajectory, t0: float, what: str
) -> Callable[[QuadratureConfig], tuple[float, float]]:
    """evaluate(cfg): -pi*alpha * (s*L^2 + conj(s)*Lb^2 + d*(L*Lb + Lb*L))
    / (V*omega) at one budget, and its rounding scale.

    The squeezed kernel K_R has (s, d) = (-mu*nu, eta^2); the vacuum kernel
    K_0 is its eta^2 term at eta^2 = 1/2, so (s, d) = (0, 1/2) at t0 = 0.
    """
    scale = mode.volume * mode.omega

    def evaluate(c: QuadratureConfig) -> tuple[float, float]:
        line, size = _loop_line(mode, traj, t0, c)
        bar = line.conjugate()
        total = s * line * line + s.conjugate() * bar * bar
        total = (total + d * line * bar + d * bar * line) / scale
        # each of the four terms moves by 2*|coefficient|*|L|*dL when the
        # rounding of L moves it by dL ~ eps*size
        rounding = 4.0 * (abs(s) + abs(d)) * abs(line) * size / scale
        return _loop_value(total, what), math.pi * FINE_STRUCTURE * rounding

    return evaluate


def _shift_form(state: SqueezeState, mode: ModeSpec, traj: Trajectory, t0: float):
    """_loop_form of the squeezed kernel K_R at emission time t0."""
    eta, t0 = state.eta, _finite_input("emission time", t0)
    return _loop_form(-state.mu * state.nu, eta * eta, mode, traj, t0, _SHIFT)


def _vacuum_form(mode: ModeSpec, traj: Trajectory):
    """_loop_form of the vacuum kernel K_0."""
    return _loop_form(0.0, 0.5, mode, traj, 0.0, _VACUUM)


def quad_coherence_shift(
    state: SqueezeState,
    mode: ModeSpec,
    traj: Trajectory,
    t0: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Single-mode coherence shift from the raw loop double integral.

    Independent route to the closed form: the four terms of the squeezed
    kernel K_R contracted with the loop line integral L, accepted only if
    doubling the node budget reproduces it within the configured tolerance.

    Accuracy at the default budget: about 1e-8 of the value up to
    omega*T ~ 1e4 (at most 2.5e-8 at r = 1, R/T = 0.1).  L cancels like
    1/(omega*T)^2 against its terms, so the rounding floor of the
    refinement check grows like (omega*T)^2 relative to the value: 1e-9 to
    1e-8 at omega*T = 1e3 and 3e-7 to 1.3e-6 at 1e4.  Beyond that the
    check no longer bounds the error, because both budgets share the
    rounding of the phase and of the cancelling line integral: at
    omega*T = 1e5 it accepts values off by 1e-5 to 5e-4 of the value
    (1.7e-4 at r = 1, t0 = 0.3, R/T = 0.1).
    """
    return _refined(_shift_form(state, mode, traj, t0), cfg, _SHIFT)


def quad_vacuum_term(
    mode: ModeSpec,
    traj: Trajectory,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Vacuum coherence loss of one mode from the raw loop double integral.

    The two terms of the vacuum kernel K_0 contracted with L; checks
    -(4*pi*alpha/(V*omega))*M independently of the envelope algebra.
    """
    return _refined(_vacuum_form(mode, traj), cfg, _VACUUM)


def quad_envelope(
    mode: ModeSpec,
    traj: Trajectory,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Mode envelope M as the squared overlap of velocity and sin(omega*t).

    M = (integral of v(t)*sin(omega*t) over the flight)^2; numerical
    counterpart of the closed-form envelope, sharing no algebra with it.
    v is odd, so at t0 = 0 the loop line integral L is -2i times that
    overlap and M = |L|^2/4.
    """

    def evaluate(c: QuadratureConfig) -> tuple[float, float]:
        line, size = _loop_line(mode, traj, 0.0, c)
        half = 0.5 * abs(line)
        return half * half, half * size

    return _refined(evaluate, cfg, "envelope quadrature")


def quad_coherence_shift_separable(
    state: SqueezeState,
    mode: ModeSpec,
    traj: Trajectory,
    t0: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Coherence shift at the base budget alone, without the refinement check.

    The unchecked half of quad_coherence_shift, kept because perfbench
    times it and its reference checks compare it with the checked value.
    """
    return _shift_form(state, mode, traj, t0)(cfg or _DEFAULT)[0]


def integrate_oscillatory(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    oscillations: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Composite Gauss-Legendre integral of a vectorised real integrand.

    ``oscillations`` is the number of full periods of the fastest
    oscillation across [lo, hi]; it sizes the panels against the
    nodes-per-period budget.  The node budget is then doubled, and
    disagreement beyond tolerance raises ConvergenceError.  The rounding
    floor of that check counts the rounding of f's own phase, which at x
    is about eps * 2*pi*oscillations*|x|/(hi - lo) relative.
    """
    width = _finite_input("integration interval length hi - lo", hi - lo, positive=True)
    phase_factor = 1.0 + 2.0 * math.pi * oscillations * max(abs(lo), abs(hi)) / width

    def evaluate(c: QuadratureConfig) -> tuple[float, float]:
        x, w = _panel_nodes(lo, hi, oscillations, c)
        terms = w * f(x)
        return float(np.sum(terms)), phase_factor * float(np.sum(np.abs(terms)))

    return _refined(evaluate, cfg, "oscillatory integral")


__all__ = [
    "QuadratureConfig",
    "quad_coherence_shift",
    "quad_vacuum_term",
    "quad_envelope",
    "quad_coherence_shift_separable",
    "integrate_oscillatory",
]

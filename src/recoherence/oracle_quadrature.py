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
Lb = conj(L), L' = sqrt(pi*alpha/(V*omega)) * L and s = -mu*nu either W is
-(s*L'^2 + conj(s)*Lb'^2 + eta^2*(L'*Lb' + Lb'*L')), with s = 0,
eta^2 = 1/2 and t0 = 0 for the vacuum, and the envelope is |L|^2/4: one
quadratic form of L (_loop_form), linear in the node count in time and
memory.

Integrals use one fixed rule: composite Gauss-Legendre panels of _ORDER
nodes, sized by a budget of _NODES_PER_PERIOD nodes per oscillation
period, at most _MAX_NODES nodes per evaluation.  Every public entry point
but quad_coherence_shift_separable re-evaluates at the doubled budget and
raises ConvergenceError when the two disagree by more than _REL_TOL of the
value and more than its rounding floor, so a silently under-resolved
oscillation cannot masquerade as agreement.  Sums are numpy's pairwise
``np.sum``, whose order no BLAS thread count changes (a BLAS dot splits
across threads), making results bit-reproducible on a given platform.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .constants import FINE_STRUCTURE
from .errors import ConvergenceError, DomainError, _finite_input, _finite_result
from .squeezed_state import ModeSpec, SqueezeState
from .trajectory import Trajectory

#: Gauss-Legendre nodes per panel
_ORDER = 8

#: base node budget per oscillation period; the check doubles it
_NODES_PER_PERIOD = 32

#: relative target of the refinement check
_REL_TOL = 1e-8

#: largest node count of one evaluation (about 2e5 in omega*T at the
#: doubled budget); larger requests raise DomainError
_MAX_NODES = 2**22

#: rounding floor of the refinement check, in units of an evaluation's
#: rounding scale (what a relative change eps of its summed terms moves it
#: by, to first order): two budgets that differ by less differ by rounding
#: alone.  Measured rounding gaps reached 0.95 of the scale for the
#: quadratic forms at omega*T <= 10, 2.2 up to omega*T = 1e4, and 0.03 for
#: the band integrals up to a centre of 3000 (their scale counts the
#: rounding of the integrand's phase)
_ROUNDING = 16.0 * np.finfo(float).eps


@lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(
    lo: float, hi: float, oscillations: float, nodes_per_period: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights over [lo, hi].

    Panel count scales with the oscillation count so the node budget per
    period is met, and is never below one period's budget: smooth and
    slow integrands are resolved too, and the doubled budget always has
    more nodes than the base.  Asking for more than _MAX_NODES nodes, or
    for a non-finite oscillation count, raises DomainError before any
    allocation.
    """
    wanted = oscillations * nodes_per_period / _ORDER
    if not wanted <= _MAX_NODES // _ORDER:  # also catches inf and nan
        raise DomainError(
            f"{oscillations:.3g} oscillations at {nodes_per_period} nodes per "
            f"period need {wanted * _ORDER:.3g} nodes, above the cap of {_MAX_NODES}"
        )
    panels = max(nodes_per_period // _ORDER, math.ceil(wanted))
    xs, ws = _gauss_rule(_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


def _refined(evaluate: Callable[[int], tuple[float, float]], what: str) -> float:
    """evaluate(n) at the doubled budget n = 2*_NODES_PER_PERIOD, checked
    against the base budget n = _NODES_PER_PERIOD.

    ``evaluate`` returns the value and its rounding scale, the first-order
    change of the value when its summed terms change by a relative eps.
    The two must agree within _REL_TOL of the value or within the rounding
    floor _ROUNDING times that scale, whichever is larger, so a converged
    value never fails on rounding alone.  RangeError when the value leaves
    double precision; a nan gap fails the check.
    """
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        coarse, _ = evaluate(_NODES_PER_PERIOD)
        fine, size = evaluate(2 * _NODES_PER_PERIOD)
    _finite_result(fine, what)
    tol = max(_REL_TOL * abs(fine), _ROUNDING * size)
    if not abs(fine - coarse) <= tol:
        raise ConvergenceError(
            f"{what} did not stabilise under refinement: "
            f"{coarse!r} (base) vs {fine!r} (doubled), tolerance {tol:g}"
        )
    return fine


def _loop_line(
    mode: ModeSpec, traj: Trajectory, t0: float, nodes_per_period: int
) -> tuple[complex, float]:
    """L = sum over legs of sign * int v_leg(t) e^{-i*omega*(t + t0)} dt,
    and the magnitude of its terms, sum |w*v|, at the same scale.

    The legs share the nodes: one line integral times their summed signs.
    """
    periods = mode.omega * traj.half_time / math.pi  # of e^{i*omega*t} in [-T, T]
    t, w = _panel_nodes(-traj.half_time, traj.half_time, periods, nodes_per_period)
    wv = w * traj.velocity(t)
    line = complex(np.sum(wv * np.exp(-1j * mode.omega * (t + t0))))
    # the mirrored arm C2 (orientation -1, velocity -v) adds like C1
    return 2.0 * line, 2.0 * float(np.sum(np.abs(wv)))


def _loop_form(
    s: complex, d: float, weight: float, mode: ModeSpec, traj: Trajectory, t0: float
) -> Callable[[int], tuple[float, float]]:
    """evaluate(n): -(s*L'^2 + conj(s)*Lb'^2 + d*(L'*Lb' + Lb'*L')) with
    L' = weight * L at n nodes per period, and its rounding scale.

    The form is real, as each term is paired with its conjugate, so it is
    summed as -(2*Re(s*L'^2) + 2*d*|L'|^2) in real arithmetic.  L and its
    term size are scaled before anything is squared, so no term leaves
    double precision unless it is that large itself.  The squeezed kernel
    K_R has (s, d) = (-mu*nu, eta^2) and the vacuum kernel K_0 (0, 1/2) at
    t0 = 0, each at the weight sqrt(pi*alpha/(V*omega)) of _kernel_form;
    the envelope M = |L|^2/4 is (0, -1/8) at weight 1.  The leading minus
    gives a vanishing loss (r = 0) the closed forms' sign, -0.0.
    """

    def evaluate(n: int) -> tuple[float, float]:
        line, size = _loop_line(mode, traj, t0, n)
        line, size = weight * line, weight * size
        x = (s * line * line).real
        y = d * line.real * line.real + d * line.imag * line.imag
        # each of the four terms moves by 2*|coefficient|*|L'|*dL' when the
        # rounding of L' moves it by dL' ~ eps*size'
        return -(x + x + y + y), 4.0 * (abs(s) + abs(d)) * abs(line) * size

    return evaluate


def _kernel_form(s: complex, d: float, mode: ModeSpec, traj: Trajectory, t0: float):
    """_loop_form of the kernel (s, d) at the weight sqrt(pi*alpha/(V*omega)),
    taken factor by factor so that no product of the three leaves double
    precision."""
    weight = math.sqrt(math.pi * FINE_STRUCTURE) / math.sqrt(mode.volume)
    return _loop_form(s, d, weight / math.sqrt(mode.omega), mode, traj, t0)


def _shift_form(state: SqueezeState, mode: ModeSpec, traj: Trajectory, t0: float):
    """_kernel_form of the squeezed kernel K_R at emission time t0."""
    eta, t0 = state.eta, _finite_input("emission time", t0)
    return _kernel_form(-state.mu * state.nu, eta * eta, mode, traj, t0)


def quad_coherence_shift(
    state: SqueezeState, mode: ModeSpec, traj: Trajectory, t0: float
) -> float:
    """Single-mode coherence shift from the raw loop double integral.

    Independent route to the closed form: the four terms of the squeezed
    kernel K_R contracted with the loop line integral L, accepted only if
    doubling the node budget reproduces it.

    Accuracy: the check holds the value to 1e-8 of itself or to its
    rounding floor, which grows like (omega*T)^2 relative to the value
    as L cancels against its terms: 1e-9 to 1e-8 at omega*T = 1e3, 3e-7
    to 1.3e-6 at 1e4.  Beyond that the check no longer bounds the error:
    both budgets share the rounding of the phase and of L, and at
    omega*T = 1e5 it accepts values off by 1e-5 to 5e-4 of the value
    (1.7e-4 at r = 1, t0 = 0.3, R/T = 0.1).
    """
    return _refined(_shift_form(state, mode, traj, t0), "coherence-shift quadrature")


def quad_vacuum_term(mode: ModeSpec, traj: Trajectory) -> float:
    """Vacuum coherence loss of one mode from the raw loop double integral.

    The two terms of the vacuum kernel K_0 contracted with L; checks
    -(4*pi*alpha/(V*omega))*M independently of the envelope algebra.
    """
    return _refined(_kernel_form(0.0, 0.5, mode, traj, 0.0), "vacuum-term quadrature")


def quad_envelope(mode: ModeSpec, traj: Trajectory) -> float:
    """Mode envelope M as the squared overlap of velocity and sin(omega*t).

    M = (integral of v(t)*sin(omega*t) over the flight)^2; numerical
    counterpart of the closed-form envelope, sharing no algebra with it.
    v is odd, so at t0 = 0 the loop line integral L is -2i times that
    overlap and M = |L|^2/4.
    """
    envelope = _loop_form(0.0, -0.125, 1.0, mode, traj, 0.0)
    return _refined(envelope, "envelope quadrature")


def quad_coherence_shift_separable(
    state: SqueezeState, mode: ModeSpec, traj: Trajectory, t0: float
) -> float:
    """Coherence shift at the base budget alone, without the refinement check.

    The unchecked half of quad_coherence_shift, kept because perfbench
    times it and its reference checks compare it with the checked value.
    """
    return _shift_form(state, mode, traj, t0)(_NODES_PER_PERIOD)[0]


def integrate_oscillatory(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    oscillations: float,
) -> float:
    """Composite Gauss-Legendre integral of a vectorised real integrand.

    ``oscillations`` is the number of full periods of the fastest
    oscillation across [lo, hi]; it sizes the panels against the budget
    of nodes per period, with one period's budget at the least.  The node
    budget is then doubled, and disagreement beyond _REL_TOL and the
    rounding floor raises ConvergenceError.  That floor counts the rounding
    of f's own phase, about eps * 2*pi*oscillations*|x|/(hi - lo) relative
    at x, and of terms below the least normal double, eps * tiny absolute.
    """
    width = _finite_input("integration interval length hi - lo", hi - lo, positive=True)
    phase_factor = 1.0 + 2.0 * math.pi * oscillations * max(abs(lo), abs(hi)) / width

    def evaluate(n: int) -> tuple[float, float]:
        x, w = _panel_nodes(lo, hi, oscillations, n)
        terms = w * f(x)
        size = np.sum(np.maximum(np.abs(terms), np.finfo(float).tiny))
        return float(np.sum(terms)), phase_factor * float(size)

    return _refined(evaluate, "oscillatory integral")


__all__ = [
    "quad_coherence_shift",
    "quad_vacuum_term",
    "quad_envelope",
    "quad_coherence_shift_separable",
    "integrate_oscillatory",
]

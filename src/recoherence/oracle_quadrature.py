"""Brute-force quadrature certifying the closed-form coherence shifts.

Nothing here reuses the closed forms: the coherence shift is rebuilt from
its definition as a double line integral of the field's symmetric two-point
kernel around the interference loop,

    W = -pi*alpha * loop-int dz loop-int dz' K(t, t'),

with the loop traversed as arm C1 minus the mirrored arm C2.  One mode
contributes through the single field e^{-i*omega*(t + t0)}, so the double
integral factorises through one complex line integral
L = sum over legs of sign * int v_leg e^{-i*omega*(t+t0)} dt, arm C1 with
orientation +1 and velocity +v, arm C2 with -1 and -v.  Written in the
field's quadratures, a + i*b = sqrt(pi*alpha/(V*omega)) * e^{i*theta/2} * L,
each kernel is diagonal: the vacuum K_0 has variance 1 in both, a squeezed
vacuum e^{-2r} in a and e^{2r} in b (Caves, Phys. Rev. D 23, 1693, 1981),
and the renormalized K_R is the difference of the two.  So

    W_0 = -(a^2 + b^2),    W_R = -(expm1(-2r)*a^2 + expm1(2r)*b^2),

W_0 at t0 = 0 with L left unturned (|L| does not depend on t0), and
W_R + W_0 = -(e^{-2r}*a^2 + e^{2r}*b^2) <= 0 is the bound on recoherence.
The envelope M = |L|^2/4 at t0 = 0 is the same form at (-1/4, -1/4) with
a + i*b = L.  One real form -(p*a^2 + q*b^2) (_loop_form) evaluates all
three, linear in the node count in time and memory; no two of its terms
cancel unless the value does.

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
#: by): two budgets that differ by less differ by rounding alone.  Measured
#: gaps between the budgets, over omega*T on a log grid, r <= 20, three
#: theta and four t0: at omega*T <= 10, 1.4 of the scale for the vacuum
#: term, 1.3 for the envelope and 1.7 for the shift, 1.8 at its window
#: centre, where b is rounding alone and q*b^2 rounds at second order; up to
#: omega*T = 1e4, 5.6 for the vacuum term and the envelope and 20 for the
#: shift at r <= 2 (half of _REL_TOL).  0.03 for the band integrals up to a
#: centre of 3000 (their scale counts the rounding of the integrand's phase)
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

    ``evaluate`` returns the value and its rounding scale, the change of
    the value, in units of eps, when its summed terms change by a relative
    eps.  The two must agree within _REL_TOL of the value or within the
    rounding floor _ROUNDING times that scale, whichever is larger, so a
    converged value never fails on rounding alone.  RangeError when the
    value or its scale leaves double precision; a nan gap fails the check.
    """
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        coarse, _ = evaluate(_NODES_PER_PERIOD)
        fine, size = evaluate(2 * _NODES_PER_PERIOD)
    _finite_result(fine, what)
    _finite_result(size, f"{what} rounding scale")
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
    p: float, q: float, weight: complex, mode: ModeSpec, traj: Trajectory, t0: float
) -> Callable[[int], tuple[float, float]]:
    """evaluate(n): -(p*a^2 + q*b^2) with a + i*b = weight * L at n nodes
    per period, and its rounding scale.

    The phase of ``weight`` turns L onto the quadratures a and b.  L and its
    term size are scaled before anything is squared, so no term leaves
    double precision unless it is that large itself.
    """

    def evaluate(n: int) -> tuple[float, float]:
        line, size = _loop_line(mode, traj, t0, n)
        line, size = weight * line, abs(weight) * size
        a, b = line.real, line.imag
        # p*a^2 moves by |p|*(2*|a| + d)*d when the rounding of L' moves a by
        # d = eps*size', and q*b^2 likewise with b: the second-order part
        # counts where b is rounding alone and q ~ e^{2r}
        d = np.finfo(float).eps * size
        scale = (abs(p) * (2.0 * abs(a) + d) + abs(q) * (2.0 * abs(b) + d)) * size
        return -(p * a * a + q * b * b), scale

    return evaluate


def _kernel_weight(mode: ModeSpec) -> float:
    """sqrt(pi*alpha/(V*omega)), taken factor by factor so that no product
    of the three leaves double precision."""
    weight = math.sqrt(math.pi * FINE_STRUCTURE) / math.sqrt(mode.volume)
    return weight / math.sqrt(mode.omega)


def _shift_form(state: SqueezeState, mode: ModeSpec, traj: Trajectory, t0: float):
    """_loop_form of the squeezed kernel K_R at emission time t0, on L turned
    by e^{i*theta/2}."""
    r, half, t0 = state.r, 0.5 * state.theta, _finite_input("emission time", t0)
    weight = complex(math.cos(half), math.sin(half)) * _kernel_weight(mode)
    return _loop_form(math.expm1(-2.0 * r), math.expm1(2.0 * r), weight, mode, traj, t0)


def quad_coherence_shift(
    state: SqueezeState, mode: ModeSpec, traj: Trajectory, t0: float
) -> float:
    """Single-mode coherence shift from the raw loop double integral.

    Independent route to the closed form: the squeezed kernel K_R, diagonal
    in the quadratures a and b of the loop line integral L, accepted only if
    doubling the node budget reproduces it.

    Accuracy: the error is the rounding of the phases the value is built
    from, F = 1 + omega*(T + |t0|) + |theta| in units of eps, carried by
    the term size s' = 4*R*sqrt(pi*alpha/(V*omega)) of a and b: about
    eps*F*s' * (|L'|*(1 + sinh(2r)*|cos(psi/2)|) + eps*F*s'*sinh(2r)), with
    psi = 2*omega*t0 - theta and |L'| = |a + i*b|.  The closed form's
    rounding of psi moves g alike, by sinh(2r)*sin(psi)/2 per rad.  The
    constant stayed below 1 against the closed form on 3.2e4 draws with
    r <= 20 and 3e3 with r <= 350, at omega*T in [0.5, 30] and t0 near the
    recoherence window or anywhere in a period.  At the window centre
    b = 0: up to r = 20 the two agree to 3.3e-14 at omega*T <= 3.34 and to
    8.6e-11 at 30.  Away from it the error grows with
    sinh(2r)*|cos(psi/2)|, to 1.3e-5 of the value a quarter-width in at
    r = 20, omega*T = 30.  From about r = 30 at the centre b is rounding
    alone and e^{2r}*b^2 outweighs the value: the check then accepts
    rounding noise, since its floor counts that term (it refused none of
    3,000 draws with r <= 350); the closed form is as ill-conditioned in t0.

    The check holds the value to 1e-8 of itself or to its rounding floor,
    which grows like (omega*T)^2 relative to the value as L cancels
    against its terms: 1e-9 to 1e-8 at omega*T = 1e3, 3e-7 to 1.3e-6 at
    1e4.  Beyond that the check no longer bounds the error: both budgets
    share the rounding of the phase and of L, and at omega*T = 1e5 it
    accepts values off by 1e-5 to 5e-4 of the value (1.7e-4 at r = 1,
    t0 = 0.3, R/T = 0.1).
    """
    return _refined(_shift_form(state, mode, traj, t0), "coherence-shift quadrature")


def quad_vacuum_term(mode: ModeSpec, traj: Trajectory) -> float:
    """Vacuum coherence loss of one mode from the raw loop double integral.

    The vacuum kernel K_0, -(a^2 + b^2) in the quadratures of L; checks
    -(4*pi*alpha/(V*omega))*M independently of the envelope algebra.
    """
    vacuum = _loop_form(1.0, 1.0, _kernel_weight(mode), mode, traj, 0.0)
    return _refined(vacuum, "vacuum-term quadrature")


def quad_envelope(mode: ModeSpec, traj: Trajectory) -> float:
    """Mode envelope M as the squared overlap of velocity and sin(omega*t).

    M = (integral of v(t)*sin(omega*t) over the flight)^2; numerical
    counterpart of the closed-form envelope, sharing no algebra with it.
    v is odd, so at t0 = 0 the loop line integral L is -2i times that
    overlap and M = |L|^2/4.
    """
    envelope = _loop_form(-0.25, -0.25, 1.0, mode, traj, 0.0)
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

#!/usr/bin/env python3
"""Closed forms against the raw loop integral.

Every closed-form shift in the package descends from one double integral
of a field correlation kernel over the two arms of the loop.  The oracle
module evaluates that integral directly - one composite Gauss-Legendre line
integral L over the oriented legs, turned into the squeezed field's
quadratures a and b, where the kernel is the real diagonal form
-(expm1(-2r)*a^2 + expm1(2r)*b^2), and a refinement check that doubles the
node budget - sharing no algebra with the closed forms.  Agreement to over
ten digits across squeezes, phases, and frequencies is the package's
strongest internal evidence.  It holds at the centre of the recoherence
window up to r = 20 too, where the gain is e^{2r} below the coefficient
expm1(2r) of the anti-squeezed quadrature b, because b vanishes there.
"""

import math

from recoherence import (
    ModeSpec,
    SqueezeState,
    Trajectory,
    coherence_shift,
    emission_window,
    quad_coherence_shift,
    quad_vacuum_term,
    unitarity_sum,
)


def main():
    traj = Trajectory(apex=0.1, half_time=1.0)

    print("closed form vs direct quadrature of the loop double integral")
    print(f"{'omega*T':>8} {'r':>5} {'t0':>6} {'closed':>14} {'quadrature':>14} {'rel err':>10}")
    for omega in (0.5, 3.34, 10.0):
        mode = ModeSpec(omega=omega, volume=(2 * math.pi / omega) ** 3)
        for r, t0 in ((0.0, 0.0), (1.0, 0.3), (2.0, 0.11)):
            state = SqueezeState(r)
            closed = coherence_shift(state, mode, traj, t0).value
            direct = quad_coherence_shift(state, mode, traj, t0)
            rel = 0.0 if direct == closed else abs(direct - closed) / abs(closed)
            print(
                f"{omega:8.2f} {r:5.2f} {t0:6.2f} {closed:14.6e} "
                f"{direct:14.6e} {rel:10.2e}"
            )

    print()
    print("recoherence: the window centre at large squeeze (omega*T = 3.34)")
    print(f"{'r':>5} {'t0':>8} {'closed':>14} {'quadrature':>14} {'rel err':>10}")
    mode = ModeSpec(omega=3.34, volume=(2 * math.pi / 3.34) ** 3)
    for r in (5.0, 10.0, 20.0):
        state = SqueezeState(r)
        window = emission_window(state, mode)
        t0 = 0.5 * (window.start + window.end)
        closed = coherence_shift(state, mode, traj, t0).value
        direct = quad_coherence_shift(state, mode, traj, t0)
        rel = abs(direct - closed) / abs(closed)
        print(f"{r:5.1f} {t0:8.4f} {closed:14.6e} {direct:14.6e} {rel:10.2e}")

    print()
    print("vacuum term, same treatment")
    mode = ModeSpec(omega=3.34, volume=(2 * math.pi / 3.34) ** 3)
    closed = unitarity_sum(mode, traj).vacuum
    direct = quad_vacuum_term(mode, traj)
    print(f"  closed     {closed:.12e}")
    print(f"  quadrature {direct:.12e}")

    print()
    print("high frequency: the loop integral cancels to ~1/(omega*T)^2 of its")
    print("terms, so the error the check allows grows with omega*T (see the")
    print("accuracy contract of quad_coherence_shift)")
    state = SqueezeState(1.0)
    print(f"{'omega*T':>8} {'closed':>14} {'quadrature':>14} {'rel err':>10}")
    for omega in (1e2, 1e3, 1e4):
        mode = ModeSpec(omega=omega, volume=(2 * math.pi / omega) ** 3)
        closed = coherence_shift(state, mode, traj, 0.3).value
        direct = quad_coherence_shift(state, mode, traj, 0.3)
        rel = abs(direct - closed) / abs(closed)
        print(f"{omega:8.0e} {closed:14.6e} {direct:14.6e} {rel:10.2e}")


if __name__ == "__main__":
    main()

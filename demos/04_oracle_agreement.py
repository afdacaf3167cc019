#!/usr/bin/env python3
"""Closed forms against the raw loop integral.

Every closed-form shift in the package descends from one double integral
of a field correlation kernel over the two arms of the loop.  The oracle
module evaluates that integral directly - the kernel's four terms
contracted through one composite Gauss-Legendre line integral over the
oriented legs, a refinement check that doubles the node budget - sharing
no algebra with the closed forms.  Agreement to
over ten digits across squeezes, phases, and frequencies is the package's
strongest internal evidence.
"""

import math

from recoherence import (
    ModeSpec,
    QuadratureConfig,
    SqueezeState,
    Trajectory,
    coherence_shift,
    quad_coherence_shift,
    quad_coherence_shift_separable,
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
            rel = abs(direct - closed) / max(abs(closed), 1e-30)
            print(
                f"{omega:8.2f} {r:5.2f} {t0:6.2f} {closed:14.6e} "
                f"{direct:14.6e} {rel:10.2e}"
            )

    print()
    print("vacuum term, same treatment")
    mode = ModeSpec(omega=3.34, volume=(2 * math.pi / 3.34) ** 3)
    closed = unitarity_sum(mode, traj).vacuum
    direct = quad_vacuum_term(mode, traj)
    print(f"  closed     {closed:.12e}")
    print(f"  quadrature {direct:.12e}")

    print()
    print("node budget vs error (low-order scheme, refinement waived)")
    state = SqueezeState(1.0)
    mode = ModeSpec(omega=10.0, volume=(2 * math.pi / 10.0) ** 3)
    closed = coherence_shift(state, mode, traj, 0.05).value
    print(f"{'nodes/period':>13} {'abs err':>12}")
    for npp in (16, 32, 64, 128, 256):
        cfg = QuadratureConfig(nodes_per_period=npp, scheme="gl2")
        got = quad_coherence_shift_separable(state, mode, traj, 0.05, cfg)
        print(f"{npp:13d} {abs(got - closed):12.3e}")


if __name__ == "__main__":
    main()

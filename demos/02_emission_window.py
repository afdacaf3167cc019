#!/usr/bin/env python3
"""The emission window: when must the charge fly to recohere?

The squeezed contribution to the contrast exponent carries a modulation
g = eta*(mu*cos(2*omega*t0 - theta) + eta) in the emission time t0.  It
is negative - meaning recoherence - only while the cosine is deeper than
-tanh(r), which happens on a window of width (2/rate)*arccos(tanh r)
centred on the phase pi.  The window shrinks like 4*e^{-r}/rate as the
squeezing deepens: stronger squeezing recoheres more but demands sharper
timing.
"""

import math

from recoherence import (
    ModeSpec,
    SqueezeState,
    emission_window,
    modulation,
    windowed_modulation,
)


def main():
    mode = ModeSpec(omega=3.34, volume=1.0)
    rate = 2.0 * mode.omega  # phase advance rate of the modulation

    print("modulation vs emission time at r = 1 (window marked)")
    state = SqueezeState(1.0)
    window = emission_window(state, mode)
    print(f"window: [{window.start:.4f}, {window.end:.4f}]  width {window.width:.4f}")
    print(f"{'t0':>7} {'g(t0)':>10}")
    period = math.pi / 3.34
    for k in range(13):
        t0 = k * period / 12.0
        g = modulation(state, mode, t0)
        inside = window.start <= t0 <= window.end
        print(f"{t0:7.4f} {g:10.4f}{'  <- window' if inside else ''}")

    print()
    print("window width and windowed average vs squeeze parameter")
    print(
        f"{'r':>6} {'width*rate':>11} {'shallow pi':>11} {'deep 4e^-r':>11} "
        f"{'<g>_window':>11}"
    )
    for r in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        w = emission_window(SqueezeState(r), mode)
        print(
            f"{r:6.2f} {w.width * rate:11.5f} {math.pi:11.5f} "
            f"{4.0 * math.exp(-r):11.5f} {windowed_modulation(SqueezeState(r)):11.6f}"
        )
    print()
    print("the windowed average lands in (-1/3, 0): even perfectly timed")
    print("emission, averaged over its own window, keeps a third at most.")


if __name__ == "__main__":
    main()

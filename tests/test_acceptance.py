"""End-to-end acceptance checks.

Each test is one numbered criterion with its tolerance pinned; the
summary hook in conftest.py prints one ACCEPTANCE line per criterion at
the end of the run.  Tolerances here are contractual: do not loosen.
"""

import math
import subprocess
import sys
import time
import warnings

from recoherence import (
    BandSpec,
    CavityScenario,
    EmptySpaceScenario,
    ModeSpec,
    SqueezeState,
    Trajectory,
    band_coherence_shift_exact,
    band_coherence_shift_leading,
    cavity_estimate,
    coherence_shift,
    emission_window,
    empty_space_estimate,
    energy_density,
    locate_envelope_max,
    long_time_average,
    max_recoherence,
    mean_photon_number,
    mode_sum_oracle,
    modulation_min,
    quad_coherence_shift,
    unitarity_sum,
    windowed_coherence_shift,
)

OMEGAS = (0.5, 1.0, 3.34, 10.0)
SQUEEZES = (0.0, 0.5, 1.0, 2.0)


def _mode(omega):
    return ModeSpec(omega=omega, volume=(2.0 * math.pi / omega) ** 3)


def test_criterion_01_closed_form_vs_quadrature_grid():
    # 4 frequencies x 4 squeezes x 8 emission times, apex/half_time = 0.1:
    # relative error <= 1e-6 against max(1e-30, |closed|), under 60 s
    start = time.monotonic()
    traj = Trajectory(apex=0.1, half_time=1.0)
    worst = 0.0
    for omega in OMEGAS:
        mode = _mode(omega)
        for r in SQUEEZES:
            state = SqueezeState(r)
            for k in range(8):
                t0 = k * math.pi / (omega * 8)
                closed = coherence_shift(state, mode, traj, t0).value
                direct = quad_coherence_shift(state, mode, traj, t0)
                rel = abs(direct - closed) / max(abs(closed), 1e-30)
                worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert worst <= 1e-6
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1: PASS (max rel err {worst:.3e}, {elapsed:.1f}s)")


def test_criterion_02_envelope_maximum():
    x_star, f_star = locate_envelope_max()
    assert abs(x_star - 3.34) <= 0.01
    assert abs(f_star - 96.4) <= 0.2
    print(f"ACCEPTANCE 2: PASS (x* = {x_star:.6f}, F* = {f_star:.6f})")


def test_criterion_03_windowed_shift_positive_and_bounded():
    mode = _mode(3.34)
    traj = Trajectory(apex=0.1, half_time=1.0)
    bound = max_recoherence(mode, traj)
    for r in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        shift = windowed_coherence_shift(SqueezeState(r), mode, traj)
        assert 0.0 < shift <= bound
    ratio = windowed_coherence_shift(SqueezeState(10.0), mode, traj) / bound
    assert ratio >= 0.999
    print(f"ACCEPTANCE 3: PASS (saturation at r = 10: {ratio:.10f})")


def test_criterion_04_long_time_average_never_positive():
    for omega in OMEGAS:
        mode = _mode(omega)
        for ratio in (0.05, 0.1, 0.5, 1.0):
            traj = Trajectory(apex=ratio, half_time=1.0)
            for r in SQUEEZES:
                value = long_time_average(SqueezeState(r), mode, traj)
                if r == 0.0:
                    assert value == 0.0
                else:
                    assert value < 0.0
    print("ACCEPTANCE 4: PASS (64-point grid)")


def test_criterion_05_unitarity_budget():
    for omega in OMEGAS:
        mode = _mode(omega)
        traj = Trajectory(apex=0.1, half_time=1.0)
        split = unitarity_sum(mode, traj)
        # best-case recoherence repays exactly two thirds of the vacuum loss
        assert abs(split.total - split.vacuum / 3.0) <= 1e-10 * abs(split.total)
        assert split.total < 0.0
        state = SqueezeState(2.0)
        for k in range(16):
            t0 = k * math.pi / (omega * 16)
            w_r = coherence_shift(state, mode, traj, t0).value
            assert split.vacuum + w_r <= 0.0
    print("ACCEPTANCE 5: PASS")


def test_criterion_06_window_width_limits():
    rate = 2.0 * 3.34
    mode = ModeSpec(omega=rate / 2.0, volume=1.0)
    shallow = emission_window(SqueezeState(1e-9), mode)
    assert abs(shallow.width - math.pi / rate) <= 1e-6 * (math.pi / rate)
    deep = emission_window(SqueezeState(10.0), mode)
    scaled = deep.width * rate * math.exp(10.0) / 4.0
    assert abs(scaled - 1.0) <= 1e-3
    print(f"ACCEPTANCE 6: PASS (deep-width ratio {scaled:.6f})")


def test_criterion_07_leading_band_error_quadratic():
    state = SqueezeState(1.0)
    traj = Trajectory(apex=0.1, half_time=1.0)
    errors = []
    for k in range(5):
        band = BandSpec(center=3.34, half_width=0.334 / 2**k, solid_angle=0.1)
        exact = band_coherence_shift_exact(state, band, traj)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            leading = band_coherence_shift_leading(state, band, traj)
        errors.append(abs(exact - leading) / abs(exact))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert len(ratios) == 4
    for ratio in ratios:
        assert 3.5 <= ratio <= 4.5
    print(f"ACCEPTANCE 7: PASS (halving ratios {[f'{q:.3f}' for q in ratios]})")


def test_criterion_08_mode_sum_reaches_continuum():
    state = SqueezeState(1.0)
    band = BandSpec(center=3.34, half_width=0.334, solid_angle=0.1)
    traj = Trajectory(apex=0.1, half_time=1.0)
    target = band_coherence_shift_exact(
        state, band, traj, window_averaged=False, t0=0.3
    )
    summed = mode_sum_oracle(state, band, traj, 256, 0.3)
    rel = abs(summed - target) / abs(target)
    assert rel <= 1e-3
    print(f"ACCEPTANCE 8: PASS (n = 256 rel err {rel:.3e})")


def test_criterion_09_order_of_magnitude_estimates():
    cavity = cavity_estimate(CavityScenario.from_ratios(0.1))
    assert 3e-8 <= cavity <= 3e-7
    empty = empty_space_estimate(
        EmptySpaceScenario(
            ratio_rt=0.1, bandwidth_ratio=0.1, solid_angle=0.1, flight_phase=3.34
        )
    )
    assert 3e-7 <= empty <= 3e-6
    print(f"ACCEPTANCE 9: PASS (cavity {cavity:.3e}, empty space {empty:.3e})")


def test_criterion_10_energy_density_structure():
    state = SqueezeState(1.3, theta=0.4)
    mode = ModeSpec(omega=2.2, volume=1.7)
    n = 64
    average = sum(
        energy_density(state, mode, 2.0 * math.pi * k / n) for k in range(n)
    ) / n
    want_avg = mean_photon_number(state) * mode.omega / mode.volume
    assert abs(average - want_avg) <= 1e-10 * abs(want_avg)
    minimum = energy_density(state, mode, math.pi)
    want_min = mode.omega / mode.volume * modulation_min(state)
    assert abs(minimum - want_min) <= 1e-10 * abs(want_min)
    assert minimum < 0.0
    print("ACCEPTANCE 10: PASS")


def test_criterion_11_cli_sweep_is_deterministic(tmp_path):
    args = (
        sys.executable,
        "-m",
        "recoherence",
        "sweep",
        "--vary",
        "r=0:2:5",
        "--vary",
        "omega-bar-T=0.5,1,3.34,10",
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    first = subprocess.run(
        [*args, "--output", str(out_a)], capture_output=True, timeout=300
    )
    second = subprocess.run(
        [*args, "--output", str(out_b)], capture_output=True, timeout=300
    )
    assert first.returncode == 0 and second.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    streamed = subprocess.run(list(args), capture_output=True, timeout=300)
    assert streamed.returncode == 0
    assert streamed.stdout == out_a.read_bytes()
    assert len(out_a.read_bytes().decode().strip().split("\n")) == 1 + 5 * 4
    print("ACCEPTANCE 11: PASS")

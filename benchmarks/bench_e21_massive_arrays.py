"""E21 — Massive arrays and programmable surfaces (beyond the paper).

The paper's prototype stops at 4 elements; the batched array-factor
engine makes thousands tractable. This experiment sweeps element count
from 4 to 4096 and reports, per count:

* simulated monostatic gain (field-scored through the engine) against
  the ideal ``20 log10 N`` rule,
* spatial degrees of freedom toward a fixed multi-reader constellation
  (how many readers a programmable surface can serve at once), and
* waterfilled sum capacity of the surface-to-readers MIMO channel.

The gain column is the E5 scaling story pushed three orders of
magnitude further; the DoF/capacity columns are the RIS upside — a
passive retrodirective sheet only talks back along the incidence
direction, while a programmable one multiplexes spatially separated
readers until the aperture runs out of resolvable directions.

A second test holds the engine that makes this tractable to a floor: a
1024-element monostatic sweep over 181 angles on the batched kernel must
match the per-pair ``reference_response`` loop (<= 1e-9 per element)
and run at least 50x faster than it.
"""

import time

import numpy as np
import pytest

from repro.vanatta.array import VanAttaArray
from repro.vanatta.fastfield import ArrayFactorEngine, reference_response
from repro.vanatta.ris import (
    PhaseSurface,
    reader_steering_matrix,
    spatial_dof,
    sum_capacity_bits,
)
from repro.vanatta.scaling import peak_gain_db, simulated_gain_curve_db

from _tables import print_table

ELEMENT_COUNTS = [4, 16, 64, 256, 1024, 4096]
FREQUENCY_HZ = 18_500.0
READER_DIRECTIONS_DEG = [(-40.0, -12.0), (-15.0, 8.0), (10.0, -5.0), (35.0, 15.0)]
SNR_DB = 10.0
KERNEL_ELEMENTS = 1024
KERNEL_ANGLES = 181
KERNEL_MIN_SPEEDUP = 50.0
SOUND_SPEED_MPS = 1500.0


def _surface_positions(num_elements: int) -> np.ndarray:
    """A near-square surface of ``num_elements`` at half-wavelength pitch."""
    num_u = int(np.floor(np.sqrt(num_elements)))
    while num_elements % num_u:
        num_u -= 1
    surface = PhaseSurface.uniform(
        num_u=num_u,
        num_w=num_elements // num_u,
        frequency_hz=FREQUENCY_HZ,
    )
    return surface.positions_m


def run_massive_sweep():
    gains = simulated_gain_curve_db(ELEMENT_COUNTS, frequency_hz=FREQUENCY_HZ)
    rows = []
    for n, gain_db in zip(ELEMENT_COUNTS, gains):
        steering = reader_steering_matrix(
            _surface_positions(n), FREQUENCY_HZ, READER_DIRECTIONS_DEG
        )
        rows.append(
            {
                "n": n,
                "ideal_gain_db": peak_gain_db(n),
                "sim_gain_db": float(gain_db),
                "dof": spatial_dof(steering),
                "capacity_bits": sum_capacity_bits(steering, snr_db=SNR_DB),
            }
        )
    return rows


def report(rows):
    print_table(
        "E21: massive arrays and multi-reader multiplexing",
        ["elements", "ideal_gain_db", "sim_gain_db", "readers_dof",
         "sum_capacity_b/s/Hz"],
        [
            [r["n"], f"{r['ideal_gain_db']:.1f}", f"{r['sim_gain_db']:.1f}",
             r["dof"], f"{r['capacity_bits']:.2f}"]
            for r in rows
        ],
    )


def test_e21_massive_arrays(benchmark):
    rows = benchmark(run_massive_sweep)
    report(rows)

    # The field-simulated gain reproduces the 20 log10 N law at every
    # count — including 4096 elements, far beyond per-pair-loop reach.
    for r in rows:
        assert r["sim_gain_db"] == pytest.approx(r["ideal_gain_db"], abs=1e-6)
    # Spatial multiplexing saturates at the reader count once the
    # aperture resolves the constellation, and never exceeds it.
    dofs = [r["dof"] for r in rows]
    assert all(d <= len(READER_DIRECTIONS_DEG) for d in dofs)
    assert dofs[-1] == len(READER_DIRECTIONS_DEG)
    assert all(b >= a for a, b in zip(dofs, dofs[1:]))
    # Sum capacity is monotone in aperture for a fixed constellation.
    caps = [r["capacity_bits"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))


def run_kernel_vs_loop():
    """Batched monostatic sweep against the per-pair loop.

    Returns ``(batched, looped, speedup)``. The batched time is the
    best of five warm sweeps (one sweep is far too short to time
    once); the loop runs once.
    """
    array = VanAttaArray.uniform(
        KERNEL_ELEMENTS, frequency_hz=FREQUENCY_HZ, sound_speed=SOUND_SPEED_MPS
    )
    thetas = np.linspace(-60.0, 60.0, KERNEL_ANGLES)
    engine = ArrayFactorEngine.from_linear(array)
    batched = engine.monostatic_batch(FREQUENCY_HZ, thetas)  # warm
    batched_s = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        batched = engine.monostatic_batch(FREQUENCY_HZ, thetas)
        batched_s = min(batched_s, time.perf_counter() - t0)
    t0 = time.perf_counter()
    looped = np.array([
        reference_response(array, FREQUENCY_HZ, float(t), float(t),
                           SOUND_SPEED_MPS)
        for t in thetas
    ])
    loop_s = time.perf_counter() - t0
    return batched, looped, loop_s / batched_s


def test_e21_kernel_beats_per_pair_loop(benchmark):
    batched, looped, speedup = benchmark.pedantic(
        run_kernel_vs_loop, rounds=1, iterations=1
    )
    print(f"\nE21 kernel: {KERNEL_ELEMENTS} elements x {KERNEL_ANGLES} "
          f"angles, batched {speedup:.0f}x over the per-pair loop")
    assert np.abs(batched - looped).max() <= 1e-9 * KERNEL_ELEMENTS
    assert speedup >= KERNEL_MIN_SPEEDUP


if __name__ == "__main__":
    report(run_massive_sweep())

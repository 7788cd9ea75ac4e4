"""Backend speedup: the vectorized diagonal sweeps against the simulator.

The cycle-accurate simulator pays Python-level work per cell per cycle, so
the array time ``T`` the paper derives analytically is also its wall-clock
cost.  The vectorized backend replays the same multiply-accumulate order
with a handful of NumPy sweeps, making warm large-``N`` solves orders of
magnitude faster while staying bit-identical.

Two layers:

* *smoke* checks (always on, including ``--benchmark-disable``) proving
  both backends import, run and agree bit-for-bit on a small problem, and
  that the stacked batch kernel's chunk rule sweeps one 512x512 problem
  per chunk;
* the wall-clock comparisons, skipped in smoke mode, where timing is
  meaningless: an n=512 mat-vec asserting the >= 10x speedup claim on
  warm (plan-cached) solves, and a k=16 stack of 48x48 mat-vecs
  asserting one stacked kernel call is >= 1.5x as fast as 16 single ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.backends.kernels import chunk_problems, float_linear_sweep


def _solver(w: int, backend: str) -> Solver:
    return Solver(ArraySpec(w=w), options=ExecutionOptions(backend=backend))


def _best_of(callable_, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_backends_agree_smoke(rng):
    """Both backends solve the same problems identically (runs in CI smoke)."""
    w = 4
    a = rng.normal(size=(24, 17))
    x = rng.normal(size=17)
    b = rng.normal(size=24)
    simulated = _solver(w, "simulate").solve("matvec", a, x, b)
    vectorized = _solver(w, "vectorized").solve("matvec", a, x, b)
    assert np.array_equal(vectorized.values, simulated.values)
    assert vectorized.measured_steps == simulated.measured_steps
    assert vectorized.measured_utilization == simulated.measured_utilization

    am = rng.normal(size=(6, 8))
    bm = rng.normal(size=(8, 5))
    mm_simulated = _solver(3, "simulate").solve("matmul", am, bm)
    mm_vectorized = _solver(3, "vectorized").solve("matmul", am, bm)
    assert np.array_equal(mm_vectorized.values, mm_simulated.values)
    assert mm_vectorized.measured_steps == mm_simulated.measured_steps


def test_vectorized_speedup_on_large_matvec(request, rng, show_report):
    """Warm n=512 mat-vec: vectorized sweeps >= 10x faster, same values."""
    if request.config.getoption("--benchmark-disable"):
        pytest.skip("smoke mode: timing comparison disabled")
    from repro.analysis.report import ExperimentReport

    n = m = 512
    w = 8
    a = rng.normal(size=(n, m))
    x = rng.normal(size=m)
    b = rng.normal(size=n)

    simulate = _solver(w, "simulate")
    vectorize = _solver(w, "vectorized")

    # Warm both plan caches so only execution is measured.
    simulate.plan("matvec", shape=(n, m))
    vectorize.plan("matvec", shape=(n, m))

    start = time.perf_counter()
    simulated = simulate.solve("matvec", a, x, b)
    simulate_time = time.perf_counter() - start
    vectorized_holder = []
    vectorize_time = _best_of(
        lambda: vectorized_holder.append(vectorize.solve("matvec", a, x, b))
    )

    assert np.array_equal(vectorized_holder[0].values, simulated.values)
    assert vectorized_holder[0].measured_steps == simulated.measured_steps
    speedup = simulate_time / vectorize_time
    assert speedup >= 10.0, (
        f"vectorized backend only {speedup:.1f}x faster "
        f"(simulate {simulate_time:.3f}s, vectorized {vectorize_time:.6f}s)"
    )

    report = ExperimentReport(
        experiment="backend speedup: n=512 matvec, warm plans",
        description=f"n=m={n}, w={w}; vectorized = best of 3",
    )
    report.add(
        "speedup >= 10x",
        1,
        int(speedup >= 10.0),
        note=(
            f"simulate {simulate_time * 1e3:.1f} ms, vectorized "
            f"{vectorize_time * 1e3:.2f} ms, speedup {speedup:.0f}x"
        ),
    )
    report.add(
        "identical values", 1,
        int(np.array_equal(vectorized_holder[0].values, simulated.values)),
    )
    show_report(report)


def test_chunk_rule_sweeps_one_512_problem_per_chunk():
    """The accumulator budget holds one 512x512 problem, padded or not."""
    assert chunk_problems(512, 512) == 1
    assert chunk_problems(513, 513) == 1  # 512 padded to a w=3 multiple
    # ... while small problems share chunks.
    assert chunk_problems(48, 48) > 1


def test_stacked_sweep_speedup_on_batch(request):
    """k=16 48x48 mat-vecs: one stacked sweep >= 1.5x 16 single sweeps."""
    if request.config.getoption("--benchmark-disable"):
        pytest.skip("smoke mode: timing comparison disabled")
    k, n, w = 16, 48, 4
    rng = np.random.default_rng(48)
    a = rng.normal(size=(k, n, n))
    x = rng.normal(size=(k, n))
    b = rng.normal(size=(k, n))
    geometry = (w, n // w, n // w)

    def stacked():
        return float_linear_sweep(a, x, b, *geometry)

    def looped():
        return [
            float_linear_sweep(a[p : p + 1], x[p : p + 1], b[p : p + 1], *geometry)
            for p in range(k)
        ]

    bands, y = stacked()
    for p, (single_bands, single_y) in enumerate(looped()):
        assert np.array_equal(bands[p], single_bands[0])
        assert np.array_equal(y[p], single_y[0])

    def seconds(callable_, calls: int = 5) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            callable_()
        return time.perf_counter() - start

    # Interleaved repeats, so host-speed drift hits both sides alike.
    ratios = [seconds(looped) / seconds(stacked) for _ in range(21)]
    speedup = statistics.median(ratios)
    assert speedup >= 1.5, (
        f"stacked k={k} sweep only {speedup:.2f}x 16 single sweeps "
        f"(median of {len(ratios)} interleaved repeats)"
    )

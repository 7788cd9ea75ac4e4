"""Cross-backend equivalence: the vectorized engine against the simulator.

The contract of the ``vectorized`` backend is *bit-identical outputs and
identical structural metrics* — not approximate agreement.  These tests
sweep (shape, w, seed) grids over all six primary problem kinds plus the
baselines, solving each instance on both backends and asserting exact
equality of values, step counts, utilizations and feedback statistics,
and check the linear sweep kernels (NumPy and, where installed, Numba)
against the simulator directly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.backends import (
    BackendSpec,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backends import kernels
from repro.backends.kernels import (
    NUMBA_AVAILABLE,
    NUMBA_DISABLE_ENV,
    numba_enabled,
)
from repro.backends.vectorized import LinearSweepPlan, build_linear_run
from repro.core.plans import CachedMatVec, MatVecPlan
from repro.errors import BackendError
from repro.instrumentation import counters


def solver_for(w: int, backend: str, **overrides) -> Solver:
    return Solver(
        ArraySpec(w=w), options=ExecutionOptions(backend=backend, **overrides)
    )


def both(kind: str, w: int, operands, **overrides):
    """Solve one instance on both backends; returns (simulated, vectorized)."""
    simulated = solver_for(w, "simulate", **overrides).solve(kind, *operands)
    vectorized = solver_for(w, "vectorized", **overrides).solve(kind, *operands)
    assert np.asarray(vectorized.values).dtype == np.asarray(simulated.values).dtype
    return simulated, vectorized


def assert_metrics_match(simulated, vectorized):
    assert vectorized.measured_steps == simulated.measured_steps
    assert vectorized.predicted_steps == simulated.predicted_steps
    assert vectorized.measured_utilization == simulated.measured_utilization
    assert vectorized.predicted_utilization == simulated.predicted_utilization
    assert vectorized.feedback.count == simulated.feedback.count
    assert vectorized.feedback.min_delay == simulated.feedback.min_delay
    assert vectorized.feedback.max_delay == simulated.feedback.max_delay


class TestBackendRegistry:
    def test_backends_registered(self):
        assert available_backends() == ("simulate", "vectorized")
        assert get_backend("simulate").supports_trace
        assert not get_backend("vectorized").supports_trace

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError):
            resolve_backend("quantum")
        with pytest.raises(BackendError):
            ExecutionOptions(backend="quantum")

    def test_auto_resolution_rule(self):
        assert resolve_backend("auto") == "vectorized"
        assert resolve_backend("auto", record_trace=True) == "simulate"
        assert resolve_backend("simulate", record_trace=True) == "simulate"

    def test_vectorized_cannot_trace(self):
        with pytest.raises(BackendError):
            resolve_backend("vectorized", record_trace=True)
        with pytest.raises(BackendError):
            MatVecPlan(6, 6, 3, record_trace=True, backend="vectorized")

    def test_invalid_registration_rejected(self):
        with pytest.raises(BackendError):
            register_backend(BackendSpec(name="auto", description="reserved"))

    def test_compiled_is_deprecated_alias_of_vectorized(self):
        with pytest.warns(DeprecationWarning, match="compiled"):
            options = ExecutionOptions(backend="compiled")
        assert options.backend == "vectorized"
        assert options == ExecutionOptions(backend="vectorized")
        with pytest.warns(DeprecationWarning, match="compiled"):
            assert resolve_backend("compiled") == "vectorized"
        with pytest.warns(DeprecationWarning, match="compiled"):
            assert CachedMatVec(3, backend="compiled").backend == "vectorized"
        assert "compiled" not in available_backends()

    def test_unknown_backend_suggests_nearest(self):
        with pytest.raises(BackendError, match="did you mean 'simulate'"):
            resolve_backend("simulat")
        with pytest.raises(BackendError, match="did you mean 'vectorized'"):
            ExecutionOptions(backend="vectorised")
        # A name close to nothing gets the plain listing, no suggestion.
        with pytest.raises(BackendError, match="available:") as excinfo:
            resolve_backend("quantum")
        assert "did you mean" not in str(excinfo.value)

    def test_auto_does_not_resolve_to_compiled(self):
        # ``compiled`` is only a deprecated spelling of ``vectorized``:
        # ``auto`` resolves to a registered engine, never to the alias.
        assert resolve_backend("auto") == "vectorized"
        assert resolve_backend("auto") != "compiled"
        assert resolve_backend("auto", record_trace=True) == "simulate"

    def test_auto_plans_use_vectorized_engine(self, rng):
        solver = Solver(ArraySpec(w=4))  # default options: backend="auto"
        plan = solver.plan("matvec", shape=(512, 512))
        assert plan.executor.backend == "vectorized"
        solver.solve("matvec", rng.normal(size=(512, 512)), rng.normal(size=512))
        # A warm plan's sweep skeleton is geometry only: no O(N_pad M_pad)
        # index tensor and no memoized run geometry get pickled.
        assert len(pickle.dumps(plan.executor.sweep_plan)) < 4096
        solver.solve_batch(
            "matvec",
            [(rng.normal(size=(512, 512)), rng.normal(size=512)) for _ in range(3)],
        )
        assert len(pickle.dumps(plan.executor.sweep_plan)) < 4096
        # The split-overlapped plan's memos (split run geometry, feedback
        # digest) are not pickled either: solving leaves its pickle as is.
        split = solver.plan("matvec", shape=(64, 64), overlapped=True)
        assert split.executor.backend == "vectorized"
        cold = len(pickle.dumps(split.executor))
        solver.solve(
            "matvec", rng.normal(size=(64, 64)), rng.normal(size=64),
            options=ExecutionOptions(overlapped=True),
        )
        assert len(pickle.dumps(split.executor.sweep_plan)) < 4096
        assert len(pickle.dumps(split.executor)) == cold
        traced = solver.plan("matvec", shape=(6, 6), record_trace=True)
        assert traced.executor.backend == "simulate"

    def test_trace_still_available_through_auto(self, rng):
        solver = Solver(ArraySpec(w=3))
        solution = solver.solve(
            "matvec",
            rng.normal(size=(6, 6)),
            rng.normal(size=6),
            options=ExecutionOptions(record_trace=True),
        )
        assert solution.raw.trace is not None


def assert_runs_match(sim_run, run):
    assert len(run.y_per_problem) == len(sim_run.y_per_problem)
    for outputs, sim_outputs in zip(run.y_per_problem, sim_run.y_per_problem):
        assert np.array_equal(outputs, sim_outputs)
    assert np.array_equal(run.y, sim_run.y)
    assert run.feedback_events == sim_run.feedback_events


def _batch(rng, shapes, with_b=(False,)):
    return [
        (rng.normal(size=(n, m)), rng.normal(size=m))
        + ((rng.normal(size=n),) if with_b[i % len(with_b)] else ())
        for i, (n, m) in enumerate(shapes)
    ]


def _signed_zero_batch(rng):
    batch = _batch(rng, [(7, 5)] * 3, with_b=(True,))
    a, x, b = batch[1]
    a[0, :] = -0.0
    x[2] = -0.0
    b[:] = -0.0
    return batch


#: Batches for the paired-batch grid: k in {1, 2, 3, 5, 16}, shapes that
#: are mostly not multiples of w (plus 1x1), with and without b,
#: interleaved plans and signed zeros.
BATCH_RECIPES = {
    "k1": lambda rng: _batch(rng, [(7, 5)]),
    "k2": lambda rng: _batch(rng, [(9, 9)] * 2),
    "k3_mixed_b": lambda rng: _batch(rng, [(7, 5)] * 3, with_b=(True, False)),
    "k5": lambda rng: _batch(rng, [(10, 3)] * 5, with_b=(True,)),
    "k16": lambda rng: _batch(rng, [(5, 7)] * 16, with_b=(False, True)),
    "interleaved": lambda rng: _batch(rng, [(5, 7), (3, 4)] * 2, with_b=(True, False, False)),
    "one_by_one": lambda rng: _batch(rng, [(1, 1)] * 3, with_b=(True, False)),
    "signed_zero": _signed_zero_batch,
}


def assert_batches_match(w: int, batch) -> None:
    """solve_batch on both backends: every request bit for bit, same accounting."""
    results = {}
    for backend in ("simulate", "vectorized"):
        solver = solver_for(w, backend)
        before = counters.snapshot()
        results[backend] = solver.solve_batch("matvec", batch)
        assert counters.delta(before).plan_executions == len(batch)
        shapes = {entry[0].shape for entry in batch}
        stats = solver.cache_stats
        assert (stats.misses, stats.hits) == (len(shapes), len(batch) - len(shapes))
    seen = set()
    for entry, simulated, solution in zip(batch, *results.values()):
        # Consecutive same-plan requests pair up; an odd last one runs plain.
        group = [other for other in batch if other[0].shape == entry[0].shape]
        position = next(i for i, other in enumerate(group) if other is entry)
        paired = position < len(group) - len(group) % 2
        assert solution.stats.get("paired") is (True if paired else None)
        assert solution.stats == simulated.stats
        assert solution.from_cache is simulated.from_cache
        assert solution.from_cache is (entry[0].shape in seen)
        seen.add(entry[0].shape)
        assert np.array_equal(solution.values, simulated.values)
        assert np.array_equal(
            np.signbit(solution.values), np.signbit(simulated.values)
        )
        assert_runs_match(simulated.raw.run, solution.raw.run)
        assert solution.measured_steps == simulated.measured_steps
        assert solution.measured_utilization == simulated.measured_utilization
        assert solution.feedback == simulated.feedback
        if paired:
            assert solution.predicted_steps is None
            assert solution.predicted_utilization is None
        else:
            assert solution.predicted_steps == simulated.predicted_steps


class TestMatVecEquivalence:
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 4, 7, 12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_simulator(self, w, n, seed):
        rng = np.random.default_rng(seed)
        m = n + (seed + 1) * 2 - 3  # exercise wide, square-ish and narrow shapes
        m = max(1, m)
        a = rng.normal(size=(n, m))
        x = rng.normal(size=m)
        b = rng.normal(size=n) if seed % 2 == 0 else None
        operands = (a, x, b) if b is not None else (a, x)
        simulated, vectorized = both("matvec", w, operands)
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)

    # n = 10, 12 and 20 at w = 4 have an odd number of block rows.
    @pytest.mark.parametrize(
        "n,w",
        [(8, 2), (8, 3), (8, 4), (11, 2), (11, 3), (11, 4),
         (10, 4), (12, 4), (20, 4)],
    )
    def test_overlapped_matches_simulator(self, w, n, rng):
        a = rng.normal(size=(n, n))
        x = rng.normal(size=n)
        b = rng.normal(size=n)
        simulated, vectorized = both("matvec", w, (a, x, b), overlapped=True)
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)
        assert_runs_match(simulated.raw.run, vectorized.raw.run)

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("recipe", sorted(BATCH_RECIPES))
    def test_paired_batch_matches_simulator(self, w, recipe):
        batch = BATCH_RECIPES[recipe](np.random.default_rng(w))
        assert_batches_match(w, batch)

    def test_paired_batch_spanning_chunks_matches_simulator(self):
        """A 5-request 256x256 group sweeps as several stacked chunks."""
        rng = np.random.default_rng(256)
        assert kernels.chunk_problems(256, 256) < 5
        batch = [
            (rng.normal(size=(256, 256)), rng.normal(size=256), rng.normal(size=256))
            for _ in range(5)
        ]
        assert_batches_match(8, batch)


class TestMatMulEquivalence:
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 2), (5, 5, 5), (6, 3, 7)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_simulator(self, w, shape, seed):
        n, p, m = shape
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, p))
        b = rng.normal(size=(p, m))
        e = rng.normal(size=(n, m)) if seed % 2 == 0 else None
        operands = (a, b, e) if e is not None else (a, b)
        simulated, vectorized = both("matmul", w, operands)
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)
        assert vectorized.feedback.regular == simulated.feedback.regular
        assert vectorized.feedback.irregular == simulated.feedback.irregular


class TestBlockedPipelineEquivalence:
    """LU, triangular and Gauss-Seidel run many array products per solve;
    identical products imply identical pipelines, checked end to end."""

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_triangular(self, w, n, seed):
        rng = np.random.default_rng(seed)
        t = np.tril(rng.normal(size=(n, n))) + (n + 2) * np.eye(n)
        b = rng.normal(size=n)
        for lower, matrix in ((True, t), (False, t.T)):
            simulated = solver_for(w, "simulate").solve(
                "triangular", matrix, b, lower=lower
            )
            solution = solver_for(w, "vectorized").solve(
                "triangular", matrix, b, lower=lower
            )
            assert np.array_equal(solution.values, simulated.values)
            assert solution.measured_steps == simulated.measured_steps
            assert solution.stats == simulated.stats

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lu(self, w, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + (n + 3) * np.eye(n)
        simulated = solver_for(w, "simulate").solve("lu", a)
        solution = solver_for(w, "vectorized").solve("lu", a)
        for sim_factor, factor in zip(simulated.values, solution.values):
            assert np.array_equal(factor, sim_factor)
        assert solution.measured_steps == simulated.measured_steps
        assert solution.stats == simulated.stats

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("n", [4, 6])
    def test_gauss_seidel(self, w, n, rng):
        a = rng.normal(size=(n, n)) + (2 * n) * np.eye(n)
        b = rng.normal(size=n)
        simulated = solver_for(w, "simulate").solve("gauss_seidel", a, b)
        solution = solver_for(w, "vectorized").solve("gauss_seidel", a, b)
        assert np.array_equal(solution.values, simulated.values)
        assert solution.measured_steps == simulated.measured_steps
        assert solution.stats == simulated.stats


class TestSparseEquivalence:
    @pytest.mark.parametrize("w", [2, 3, 4])
    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_simulator(self, w, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        blocks = -(-n // w)
        for r in range(blocks):
            for s in range(blocks):
                if rng.random() < 0.5:
                    a[r * w : (r + 1) * w, s * w : (s + 1) * w] = 0.0
        x = rng.normal(size=n)
        b = rng.normal(size=n) if seed % 2 == 0 else None
        operands = (a, x, b) if b is not None else (a, x)
        simulated, vectorized = both("sparse", w, operands)
        assert np.array_equal(vectorized.values, simulated.values)
        assert vectorized.measured_steps == simulated.measured_steps
        assert vectorized.measured_utilization == simulated.measured_utilization
        assert vectorized.stats == simulated.stats


class TestBaselineEquivalence:
    @pytest.mark.parametrize("kind", ["naive_matvec", "block_partitioned"])
    @pytest.mark.parametrize("w", [2, 3])
    def test_matvec_baselines(self, kind, w, rng):
        a = rng.normal(size=(7, 5))
        x = rng.normal(size=5)
        b = rng.normal(size=7)
        simulated, vectorized = both(kind, w, (a, x, b))
        assert np.array_equal(vectorized.values, simulated.values)
        assert vectorized.measured_steps == simulated.measured_steps
        assert vectorized.measured_utilization == simulated.measured_utilization
        assert vectorized.stats == simulated.stats

    @pytest.mark.parametrize("w", [2, 3])
    def test_naive_matmul(self, w, rng):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 6))
        e = rng.normal(size=(5, 6))
        simulated, vectorized = both("naive_matmul", w, (a, b, e))
        assert np.array_equal(vectorized.values, simulated.values)
        assert vectorized.measured_steps == simulated.measured_steps
        assert vectorized.measured_utilization == simulated.measured_utilization

    @pytest.mark.parametrize("w", [2, 4])
    def test_prt(self, w, rng):
        a = rng.normal(size=(w, w))
        x = rng.normal(size=w)
        simulated, vectorized = both("prt", w, (a, x))
        assert np.array_equal(vectorized.values, simulated.values)
        assert vectorized.measured_steps == simulated.measured_steps


class TestNNEquivalence:
    """The NN kinds honour the same bit-identity contract as the rest.

    The int8 dense accumulator is additionally checked against the exact
    integer reference ``W @ (x - zero_point)`` — integer MACs are exact in
    float64 far beyond int8 ranges, so both backends must reproduce it
    bit for bit, not approximately.
    """

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 4, 7, 12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_int8_matches_simulator(self, w, n, seed):
        rng = np.random.default_rng(seed)
        m = max(1, n + (seed + 1) * 2 - 3)
        matrix = rng.integers(-128, 128, size=(n, m)).astype(np.int8)
        x = rng.integers(-128, 128, size=m).astype(np.int8)
        zero_point = int(rng.integers(-10, 11))
        simulated = solver_for(w, "simulate", dtype_mode="int8").solve(
            "dense", matrix, x, x_zero_point=zero_point
        )
        expected = matrix.astype(np.int64) @ (x.astype(np.int64) - zero_point)
        assert simulated.values.dtype == np.int32
        assert np.array_equal(simulated.values, expected)
        assert simulated.stats["dtype_mode"] == "int8"
        solution = solver_for(w, "vectorized", dtype_mode="int8").solve(
            "dense", matrix, x, x_zero_point=zero_point
        )
        assert solution.values.dtype == np.int32
        assert np.array_equal(solution.values, simulated.values)
        assert_metrics_match(simulated, solution)
        assert solution.stats["dtype_mode"] == "int8"

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("n", [5, 9])
    def test_dense_float_matches_simulator(self, w, n, rng):
        a = rng.normal(size=(n, n + 1))
        x = rng.normal(size=n + 1)
        simulated, vectorized = both("dense", w, (a, x))
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)
        assert simulated.stats["dtype_mode"] == "float64"

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_elementwise_kinds_match_simulator(self, w, seed):
        rng = np.random.default_rng(seed)
        n = 6 + seed
        accumulator = rng.integers(-(2**20), 2**20, size=n)
        cases = [
            ("bias", (rng.normal(size=n), rng.normal(size=n)), {}),
            ("relu", (rng.normal(size=n),), {}),
            ("quantize", (rng.normal(size=n),), {"scale": 0.1, "zero_point": 3}),
            ("dequantize", (accumulator,), {"scale": 0.03}),
        ]
        for kind, operands, kwargs in cases:
            simulated = solver_for(w, "simulate").solve(kind, *operands, **kwargs)
            solution = solver_for(w, "vectorized").solve(kind, *operands, **kwargs)
            assert np.array_equal(solution.values, simulated.values), kind
            assert solution.values.dtype == simulated.values.dtype, kind
            assert solution.stats == simulated.stats, kind

    @pytest.mark.parametrize("w", [2, 4])
    def test_relu_preserves_integer_dtype(self, w, rng):
        codes = rng.integers(-1000, 1000, size=7).astype(np.int32)
        simulated, vectorized = both("relu", w, (codes,))
        assert simulated.values.dtype == np.int32
        assert vectorized.values.dtype == np.int32
        assert np.array_equal(vectorized.values, simulated.values)
        assert np.array_equal(simulated.values, np.maximum(codes, 0))


class TestSharedEngineBackend:
    def test_shared_matvec_engine_overrides_pipeline_backend(self, rng):
        """An injected engine carries its own backend, as documented."""
        from repro.extensions.triangular import SystolicTriangularSolver

        engine = CachedMatVec(3, backend="simulate")
        solver = SystolicTriangularSolver(3, matvec=engine, backend="vectorized")
        t = np.tril(rng.normal(size=(5, 5))) + 6 * np.eye(5)
        result = solver.solve_lower(t, rng.normal(size=5))
        assert np.allclose(t @ result.x, t @ np.linalg.solve(t, t @ result.x))
        # the shared engine's plans are simulator plans
        assert engine.backend == "simulate"


SWEEP_SHAPES = [(1, 1), (3, 5), (7, 4), (16, 16), (33, 29)]


def sweep_plan(w: int, n: int, m: int) -> LinearSweepPlan:
    return LinearSweepPlan(w, n, m, -(-n // w), -(-m // w), n * m)


def simulated_sweep(w: int, a, x, b):
    """``(band_outputs, y)`` of the cycle-accurate simulator."""
    n, m = np.shape(a)
    solution = MatVecPlan(n, m, w, backend="simulate").execute(a, x, b)
    return solution.run.y_per_problem[0], solution.y


class TestLinearSweepKernels:
    """The lane-rotated sweep kernels against the simulator, bit for bit."""

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    @pytest.mark.parametrize("with_b", [False, True])
    def test_float_sweep_bit_identical(self, w, shape, with_b):
        n, m = shape
        rng = np.random.default_rng(n * 100 + m)
        a = rng.standard_normal((n, m))
        x = rng.standard_normal(m)
        b = rng.standard_normal(n) if with_b else None
        bands, y = sweep_plan(w, n, m).sweep(a, x, b)
        sim_bands, sim_y = simulated_sweep(w, a, x, b)
        assert y.dtype == np.float64 and bands.dtype == np.float64
        assert np.array_equal(y[:n], sim_y)
        assert np.array_equal(bands, sim_bands)

    @pytest.mark.parametrize("w", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("shape", SWEEP_SHAPES)
    def test_int_sweep_bit_identical(self, w, shape):
        n, m = shape
        rng = np.random.default_rng(n * 100 + m + 7)
        a = rng.integers(-128, 128, size=(n, m)).astype(np.int32)
        x = rng.integers(-128, 128, size=m).astype(np.int32)
        b = rng.integers(-1000, 1000, size=n).astype(np.int32)
        plan = sweep_plan(w, n, m)
        for bias in (None, b):
            bands, y = plan.int_sweep(a, x, bias)
            # Int8-range products summed over m are exact in float64, so
            # the float simulator holds the int32 accumulator's values.
            sim_bands, sim_y = simulated_sweep(
                w, a.astype(float), x.astype(float),
                None if bias is None else bias.astype(float),
            )
            assert y.dtype == np.int32 and bands.dtype == np.int32
            assert np.array_equal(y[:n], sim_y)
            assert np.array_equal(bands, sim_bands)

    def test_int_sweep_rejects_float_operands(self):
        plan = sweep_plan(2, 4, 4)
        with pytest.raises(TypeError, match="integer operands"):
            plan.int_sweep(np.ones((4, 4)), np.arange(4), None)

    def test_structural_metrics_match_simulator(self):
        """The geometry-only plan assembles the simulator's run metrics."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        plan = sweep_plan(3, 7, 5)
        run = build_linear_run(plan.run_geometry(1), [plan.sweep(a, x, None)[0]])
        sim_run = MatVecPlan(7, 5, 3, backend="simulate").execute(a, x).run
        assert run.total_cycles == sim_run.total_cycles
        assert run.report == sim_run.report
        assert run.feedback_events == sim_run.feedback_events
        assert run.feedback_register_peak == sim_run.feedback_register_peak

    def test_sweep_plan_is_picklable(self):
        plan = sweep_plan(3, 7, 5)
        rng = np.random.default_rng(9)
        a = rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        plan.run_geometry(2)  # populate the memo; it is not pickled
        clone = pickle.loads(pickle.dumps(plan))
        assert len(pickle.dumps(clone)) == len(pickle.dumps(sweep_plan(3, 7, 5)))
        assert np.array_equal(clone.sweep(a, x, None)[1], plan.sweep(a, x, None)[1])
        assert clone.run_geometry(2) == plan.run_geometry(2)

    @pytest.mark.parametrize("w", [1, 3, 4])
    @pytest.mark.parametrize("chunk", [1, 2, None])
    def test_sweep_stack_rows_match_single_sweeps(self, w, chunk, monkeypatch):
        """Each stacked row is its own sweep, however the stack is chunked."""
        n, m = 9, 7
        if chunk is not None:
            monkeypatch.setattr(
                kernels, "CHUNK_BYTES", chunk * (-(-n // w) * w) * (-(-m // w) * w + 1) * 8
            )
            assert kernels.chunk_problems(-(-n // w) * w, -(-m // w) * w) == chunk
        rng = np.random.default_rng(w)
        operands = [
            (rng.standard_normal((n, m)), rng.standard_normal(m),
             rng.standard_normal(n) if p % 2 else None)
            for p in range(5)
        ]
        plan = sweep_plan(w, n, m)
        bands, y = plan.sweep_stack(operands)
        assert bands.shape == (5, plan.band_rows)
        for row, operand in enumerate(operands):
            single_bands, single_y = plan.sweep(*operand)
            assert np.array_equal(bands[row], single_bands)
            assert np.array_equal(y[row], single_y)


class TestNumbaGating:
    def test_numba_disable_env_vetoes(self, monkeypatch):
        monkeypatch.setenv(NUMBA_DISABLE_ENV, "1")
        assert not numba_enabled()
        monkeypatch.setenv(NUMBA_DISABLE_ENV, "")
        assert numba_enabled() == NUMBA_AVAILABLE

    def test_numpy_fallback_always_works(self, monkeypatch):
        """The pure-NumPy body must carry the full contract on its own."""
        monkeypatch.setenv(NUMBA_DISABLE_ENV, "true")
        rng = np.random.default_rng(11)
        a = rng.standard_normal((9, 9))
        x = rng.standard_normal(9)
        b = rng.standard_normal(9)
        assert np.array_equal(
            sweep_plan(4, 9, 9).sweep(a, x, b)[1][:9],
            simulated_sweep(4, a, x, b)[1],
        )

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    @pytest.mark.parametrize("k", [1, 3])
    def test_numba_body_matches_numpy_body(self, k, monkeypatch):
        """With Numba importable, both bodies must agree bit for bit."""
        operands, stack = _kernel_stack(k)
        monkeypatch.setenv(NUMBA_DISABLE_ENV, "1")
        numpy_bands, numpy_y = kernels.float_linear_sweep(*stack)
        monkeypatch.setenv(NUMBA_DISABLE_ENV, "")
        assert numba_enabled()
        numba_bands, numba_y = kernels.float_linear_sweep(*stack)
        assert np.array_equal(numba_y, numpy_y)
        assert np.array_equal(numba_bands, numpy_bands)
        bands, y = sweep_plan(4, 17, 13).sweep_stack(operands)
        assert np.array_equal(bands, numpy_bands)
        assert np.array_equal(y, numpy_y)

    @pytest.mark.parametrize("k", [1, 3])
    def test_loop_body_matches_numpy_body(self, k, monkeypatch):
        """The Numba body's scalar loops, run as plain Python, agree too."""
        _operands, stack = _kernel_stack(k)
        monkeypatch.setenv(NUMBA_DISABLE_ENV, "1")
        numpy_bands, numpy_y = kernels.float_linear_sweep(*stack)
        monkeypatch.setattr(kernels, "numba_enabled", lambda: True)
        monkeypatch.setattr(kernels, "_numba_sweep", lambda: kernels._sweep_loops)
        loop_bands, loop_y = kernels.float_linear_sweep(*stack)
        assert np.array_equal(loop_y, numpy_y)
        assert np.array_equal(loop_bands, numpy_bands)


def _kernel_stack(k: int):
    """``k`` 17x13 operand sets and their padded w=4 kernel stack."""
    rng = np.random.default_rng(13 + k)
    operands = [
        (rng.standard_normal((17, 13)), rng.standard_normal(13), rng.standard_normal(17))
        for _ in range(k)
    ]
    a_pad = np.zeros((k, 20, 16))
    x_pad = np.zeros((k, 16))
    b_pad = np.zeros((k, 20))
    for p, (a, x, b) in enumerate(operands):
        a_pad[p, :17, :13] = a
        x_pad[p, :13] = x
        b_pad[p, :17] = b
    return operands, (a_pad, x_pad, b_pad, 4, 5, 4)

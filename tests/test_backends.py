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
from repro.backends.kernels import (
    NUMBA_AVAILABLE,
    NUMBA_DISABLE_ENV,
    numba_enabled,
)
from repro.backends.vectorized import LinearSweepPlan, build_linear_run
from repro.core.plans import CachedMatVec, MatVecPlan
from repro.errors import BackendError


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
        # index tensor and no memoized feedback events get pickled.
        assert len(pickle.dumps(plan.executor.sweep_plan)) < 4096
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

    @pytest.mark.parametrize("w", [2, 3, 4])
    @pytest.mark.parametrize("n", [8, 11])
    def test_overlapped_matches_simulator(self, w, n, rng):
        a = rng.normal(size=(n, n))
        x = rng.normal(size=n)
        b = rng.normal(size=n)
        simulated, vectorized = both("matvec", w, (a, x, b), overlapped=True)
        assert np.array_equal(vectorized.values, simulated.values)
        assert_metrics_match(simulated, vectorized)

    def test_paired_batch_matches_simulator(self, rng):
        batch = [
            (rng.normal(size=(9, 9)), rng.normal(size=9)) for _ in range(4)
        ]
        simulated = solver_for(3, "simulate").solve_batch("matvec", batch)
        solutions = solver_for(3, "vectorized").solve_batch("matvec", batch)
        for sim_solution, solution in zip(simulated, solutions):
            assert sim_solution.stats.get("paired") and solution.stats.get("paired")
            assert np.array_equal(solution.values, sim_solution.values)
            assert solution.measured_steps == sim_solution.measured_steps


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
        run = build_linear_run(3, [plan], [plan.sweep(a, x, None)[0]])
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
        plan.feedback_events(0)  # populate the memo; it is not pickled
        clone = pickle.loads(pickle.dumps(plan))
        assert np.array_equal(clone.sweep(a, x, None)[1], plan.sweep(a, x, None)[1])
        assert clone.feedback_events(0) == plan.feedback_events(0)


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
    def test_numba_body_matches_numpy_body(self, monkeypatch):
        """With Numba importable, both bodies must agree bit for bit."""
        plan = sweep_plan(4, 17, 13)
        rng = np.random.default_rng(13)
        a = rng.standard_normal((17, 13))
        x = rng.standard_normal(13)
        b = rng.standard_normal(17)
        monkeypatch.setenv(NUMBA_DISABLE_ENV, "1")
        numpy_bands, numpy_y = plan.sweep(a, x, b)
        monkeypatch.setenv(NUMBA_DISABLE_ENV, "")
        assert numba_enabled()
        numba_bands, numba_y = plan.sweep(a, x, b)
        assert np.array_equal(numba_y, numpy_y)
        assert np.array_equal(numba_bands, numpy_bands)

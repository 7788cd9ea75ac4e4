"""Reusable plan/execute engines for the DBT pipelines.

The paper's central property is that the DBT transformations depend only on
the problem *shape* and the array size ``w`` — never on operand values.
This module exploits that: a :class:`MatVecPlan` / :class:`MatMulPlan` is
built once per ``(shape, w)`` from a zero-valued template and captures
everything shape-determined —

* the band geometry and a vectorized *refill gather* (band diagonal
  position -> original padded element) derived from the transform's
  provenance map,
* the ``x``/output stream tags and the ``y``-source skeleton (which band
  rows start from ``b`` and which from the feedback chain),
* for the matrix-matrix case, the partial-result placement, the spiral
  feedback token plan and the (optional) structural verification,
* the closed-form analytic model.

Executing a plan only streams values, through one of two backends: the
cycle-accurate simulators of :mod:`repro.systolic` (``backend="simulate"``,
the default for direct construction) or the NumPy diagonal-sweep engines
of :mod:`repro.backends.vectorized` (``backend="vectorized"``; the api
layer's ``"auto"`` default resolves to it), which replay the same
multiply-accumulate order without per-cycle state and produce
bit-identical values and metrics.  No
:class:`~repro.core.dbt.DBTByRowsTransform` or
:class:`~repro.core.operands.MatMulOperands` is constructed on the
execute path either way, which is what makes repeated same-shape solves —
the hot path of any serving workload — cheap.

:class:`CachedMatVec` and :class:`CachedMatMul` are small engines that
memoize one plan per operand shape; the legacy ``SizeIndependent*``
classes and the :mod:`repro.extensions` pipelines run on top of them, and
the :mod:`repro.api` façade adds the LRU-cached front door.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends.registry import SIMULATE, VECTORIZED, resolve_backend
from ..backends.vectorized import (
    HexSweepPlan,
    LinearRunGeometry,
    LinearSweepPlan,
    build_linear_run,
    linear_run_geometry,
)
from ..errors import ShapeError
from ..instrumentation import CacheStats, counters
from ..matrices.banded import BandMatrix
from ..matrices.dense import as_matrix, as_vector
from ..matrices.padding import pad_matrix, pad_vector, validate_array_size
from ..systolic.feedback import ExternalSource, FeedbackSource
from ..systolic.hex_array import CTokenPlan, HexFeedbackSource, HexagonalArray
from ..systolic.linear_array import (
    LinearContraflowArray,
    LinearProblem,
    LinearRunResult,
)
from .analytic import MatMulModel, MatVecModel
from .dbt import DBTByRowsTransform
from .matmul import MatMulSolution
from .matvec import MatVecSolution
from .operands import MatMulOperands
from .recovery import PartialResultMap
from .schedule import plan_overlap_partition

__all__ = [
    "MatVecPlan",
    "OverlappedMatVecPlan",
    "MatMulPlan",
    "CachedMatVec",
    "CachedMatMul",
]


class _BandGather:
    """Vectorized refill of one band's value-bearing positions.

    Built once from a provenance map (band position -> original padded
    element); :meth:`fill` writes the corresponding values of a padded
    operand into a fresh :class:`~repro.matrices.banded.BandMatrix` one
    diagonal at a time.  Positions without provenance are structural zeros
    and stay zero.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        lower: int,
        upper: int,
        provenance: Dict[Tuple[int, int], Tuple[int, int]],
    ):
        self._rows = rows
        self._cols = cols
        self._lower = lower
        self._upper = upper
        template = BandMatrix(rows, cols, lower, upper)
        per_diagonal: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        buckets: Dict[int, List[Tuple[int, int, int]]] = {
            offset: [] for offset in template.offsets()
        }
        for (i, j), (oi, oj) in provenance.items():
            offset = j - i
            along = i if offset >= 0 else j
            buckets[offset].append((along, oi, oj))
        for offset, entries in buckets.items():
            entries.sort()
            along = np.array([e[0] for e in entries], dtype=int)
            oi = np.array([e[1] for e in entries], dtype=int)
            oj = np.array([e[2] for e in entries], dtype=int)
            per_diagonal[offset] = (along, oi, oj)
        self._per_diagonal = per_diagonal

    def fill(self, padded: np.ndarray) -> BandMatrix:
        """A fresh band holding ``padded``'s values at the planned positions."""
        band = BandMatrix(self._rows, self._cols, self._lower, self._upper)
        for offset, (along, oi, oj) in self._per_diagonal.items():
            if along.size == 0:
                continue
            values = np.zeros(band.diagonal_length(offset), dtype=float)
            values[along] = padded[oi, oj]
            band.set_diagonal(offset, values)
        return band


class MatVecPlan:
    """Shape-keyed execution plan for ``y = A x + b`` on the linear array.

    Immutable once built; :meth:`execute` only streams operand values.
    """

    #: Same-plan problems can be grouped through :meth:`execute_group`,
    #: which reports consecutive pairs as sharing one overlapped array run
    #: (the api batcher and the graph compiler route pairable stages
    #: through it; the overlapped/split plan cannot pair, its idle cycles
    #: already carry the second half of its own problem).
    supports_pairing = True

    def __init__(
        self,
        n: int,
        m: int,
        w: int,
        record_trace: bool = False,
        backend: str = SIMULATE,
    ):
        if n < 1 or m < 1:
            raise ShapeError(f"matvec plan needs positive dimensions, got ({n}, {m})")
        self._n = int(n)
        self._m = int(m)
        self._w = validate_array_size(w)
        self._record_trace = bool(record_trace)
        self._backend = resolve_backend(backend, record_trace=self._record_trace)
        template = DBTByRowsTransform(np.zeros((self._n, self._m)), self._w)
        self._template = template
        self._x_tags = template.x_tags()
        self._output_tags = template.output_tags()
        self._x_gather = np.array([tag[1] for tag in self._x_tags], dtype=int)
        # y-source skeleton: padded b index for external rows, the (frozen,
        # reusable) FeedbackSource for fed-back rows.
        self._y_skeleton: List[object] = []
        for source in template.build_y_sources(None):
            if isinstance(source, ExternalSource):
                self._y_skeleton.append(int(source.tag[1]))
            else:
                self._y_skeleton.append(source)
        self._band_gather = _BandGather(
            template.band_rows,
            template.band_cols,
            0,
            self._w - 1,
            template.provenance(),
        )
        self._useful = self._n * self._m
        self._model = MatVecModel(n=self._n, m=self._m, w=self._w, overlapped=False)
        self._array = LinearContraflowArray(self._w, record_trace=self._record_trace)
        # Feedback delays are pure band geometry — identical on every
        # execute with the same schedule — so the api handler memoizes
        # the wrapped FeedbackStats here per schedule ("plain", "paired")
        # instead of rebuilding the O(bands) delay list per request.
        self.feedback_memo: Dict[str, Any] = {}
        self._sweep: Optional[LinearSweepPlan] = None
        if self._backend == VECTORIZED:
            self._sweep = LinearSweepPlan(
                w=self._w,
                n=self._n,
                m=self._m,
                n_bar=template.n_bar,
                m_bar=template.m_bar,
                useful_operations=self._useful,
            )

    def __getstate__(self) -> Dict[str, Any]:
        # Memos are rebuilt on first use; pickled plans carry geometry only.
        state = dict(self.__dict__)
        state["feedback_memo"] = {}
        return state

    # -- geometry -----------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._m)

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        """The resolved execution backend (``simulate`` or ``vectorized``)."""
        return self._backend

    @property
    def record_trace(self) -> bool:
        return self._record_trace

    @property
    def transform(self) -> DBTByRowsTransform:
        """The structural template transform (its band values are zeros)."""
        return self._template

    @property
    def model(self) -> MatVecModel:
        return self._model

    @property
    def sweep_plan(self) -> Optional[LinearSweepPlan]:
        """The sweep skeleton (``None`` on the simulate backend).

        Exposed for engines that layer other datapaths over the same band
        geometry — the :mod:`repro.nn` int8 dense plan drives
        :meth:`~repro.backends.vectorized.LinearSweepPlan.int_sweep`
        through it.
        """
        return self._sweep

    # -- value streaming ------------------------------------------------------------
    def _validate(
        self, matrix: np.ndarray, x: np.ndarray, b: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        matrix = as_matrix(matrix, "matrix")
        if matrix.shape != (self._n, self._m):
            raise ShapeError(
                f"plan was built for shape {(self._n, self._m)}, "
                f"got matrix of shape {matrix.shape}"
            )
        x = as_vector(x, "x")
        if x.shape[0] != matrix.shape[1]:
            raise ShapeError(
                f"x has length {x.shape[0]} but the matrix has {matrix.shape[1]} columns"
            )
        if b is not None:
            b = as_vector(b, "b")
            if b.shape[0] != matrix.shape[0]:
                raise ShapeError(
                    f"b has length {b.shape[0]} but the matrix has {matrix.shape[0]} rows"
                )
        return matrix, x, b

    def build_problem(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> LinearProblem:
        """Stream one operand set into a ready-to-run :class:`LinearProblem`."""
        matrix, x, b = self._validate(matrix, x, b)
        padded = pad_matrix(matrix, self._w)
        band = self._band_gather.fill(padded)
        x_tilde = pad_vector(x, self._w)[self._x_gather]
        padded_b = pad_vector(
            b if b is not None else np.zeros(self._n), self._w
        )
        y_sources: List[object] = [
            source
            if isinstance(source, FeedbackSource)
            else ExternalSource(value=float(padded_b[source]), tag=("b", source))
            for source in self._y_skeleton
        ]
        return LinearProblem(
            band=band,
            x=x_tilde,
            y_sources=y_sources,
            x_tags=self._x_tags,
            output_tags=self._output_tags,
            useful_operations=self._useful,
        )

    def _solution(
        self, y: np.ndarray, run: LinearRunResult, overlapped: bool
    ) -> MatVecSolution:
        return MatVecSolution(
            y=y,
            w=self._w,
            overlapped=overlapped,
            transforms=[self._template],
            run=run,
            model=self._model,
        )

    def execute(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> MatVecSolution:
        """Solve ``y = A x + b`` through the prebuilt plan."""
        if self._sweep is not None:
            matrix, x, b = self._validate(matrix, x, b)
            band_outputs, y_padded = self._sweep.sweep(matrix, x, b)
            run = build_linear_run(self._sweep.run_geometry(1), [band_outputs])
            return self._solution(y_padded[: self._n].copy(), run, False)
        problem = self.build_problem(matrix, x, b)
        run = self._array.run(problem)
        return self._solution(
            self._template.recover_y(run.y_per_problem[0]), run, False
        )

    def execute_group(
        self,
        entries: Sequence[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
    ) -> List[MatVecSolution]:
        """Solve independent same-shape problems as one group.

        Consecutive entries ``(0, 1), (2, 3), ...`` are reported as the
        paper's overlapping device applied across *requests*: the second
        problem's schedule is shifted by one cycle into the first one's
        idle slots, so each pair shares one run that takes roughly half
        the sequential array time.  An odd last entry runs plain.  The
        overlap is array-cycle accounting: on the vectorized backend the
        whole group is one stacked sweep, and each pair's run carries the
        overlapped schedule's steps and feedback events; the simulator
        runs each pair overlapped.  Values are identical to plain solves.
        """
        operands = [self._validate(*entry) for entry in entries]
        paired = len(operands) - len(operands) % 2
        solutions: List[MatVecSolution] = []
        if self._sweep is not None:
            bands, y_padded = self._sweep.sweep_stack(operands)
            ys = y_padded[:, : self._n]
            for first in range(0, paired, 2):
                pair = bands[first : first + 2]
                run = build_linear_run(
                    self._sweep.run_geometry(2), list(pair), pair.reshape(-1)
                )
                solutions.append(self._solution(ys[first], run, True))
                solutions.append(self._solution(ys[first + 1], run, True))
            if paired < len(operands):
                run = build_linear_run(self._sweep.run_geometry(1), [bands[-1]])
                solutions.append(self._solution(ys[-1], run, False))
            return solutions
        for first in range(0, paired, 2):
            run = self._array.run_overlapped(
                [self.build_problem(*operands[first + i]) for i in range(2)]
            )
            for i in range(2):
                y = self._template.recover_y(run.y_per_problem[i])
                solutions.append(self._solution(y, run, True))
        if paired < len(operands):
            solutions.append(self.execute(*operands[-1]))
        return solutions


class OverlappedMatVecPlan:
    """Plan for the paper's split-and-overlap execution of one problem.

    The original problem is cut at an original block-row boundary into two
    halves whose transformed problems interleave on the array's idle
    cycles; each half gets its own :class:`MatVecPlan` skeleton.  The cut
    falls on a multiple of ``w`` rows, so on the vectorized backend one
    sweep of the whole padded matrix (a geometry-only
    :class:`LinearSweepPlan`, no third DBT template) yields both halves'
    ``y`` and band outputs bit for bit; the split schedule is reported
    through the run geometry, memoized per plan.
    """

    supports_pairing = False

    def __init__(
        self,
        n: int,
        m: int,
        w: int,
        record_trace: bool = False,
        backend: str = SIMULATE,
    ):
        self._n = int(n)
        self._m = int(m)
        self._w = validate_array_size(w)
        self._record_trace = bool(record_trace)
        self._backend = resolve_backend(backend, record_trace=self._record_trace)
        self._partition = plan_overlap_partition(self._n, self._m, self._w)
        top = self._partition.first_rows
        self._top = MatVecPlan(top, self._m, self._w, backend=self._backend)
        self._bottom = MatVecPlan(self._n - top, self._m, self._w, backend=self._backend)
        self._array = LinearContraflowArray(self._w, record_trace=self._record_trace)
        self._model = MatVecModel(n=self._n, m=self._m, w=self._w, overlapped=True)
        #: FeedbackStats of the split schedule, memoized by the api handler
        #: (see :attr:`MatVecPlan.feedback_memo`).
        self.feedback_memo: Dict[str, Any] = {}
        self._geometry: Optional[LinearRunGeometry] = None
        self._sweep: Optional[LinearSweepPlan] = None
        if self._backend == VECTORIZED:
            self._sweep = LinearSweepPlan(
                w=self._w,
                n=self._n,
                m=self._m,
                n_bar=self._partition.n_bar,
                m_bar=self._partition.m_bar,
                useful_operations=self._n * self._m,
            )

    def __getstate__(self) -> Dict[str, Any]:
        # Memos are rebuilt on first use; pickled plans carry geometry only.
        state = dict(self.__dict__)
        state["feedback_memo"] = {}
        state["_geometry"] = None
        return state

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._m)

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        """The resolved execution backend (``simulate`` or ``vectorized``)."""
        return self._backend

    @property
    def model(self) -> MatVecModel:
        return self._model

    @property
    def sweep_plan(self) -> Optional[LinearSweepPlan]:
        """The whole-matrix sweep skeleton (``None`` on the simulate backend)."""
        return self._sweep

    def _split_geometry(self) -> LinearRunGeometry:
        """Run geometry of the two halves overlapped, memoized."""
        if self._geometry is None:
            self._geometry = linear_run_geometry(
                self._w, [self._top.sweep_plan, self._bottom.sweep_plan]
            )
        return self._geometry

    def execute(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> MatVecSolution:
        matrix = as_matrix(matrix, "matrix")
        if matrix.shape != (self._n, self._m):
            raise ShapeError(
                f"plan was built for shape {(self._n, self._m)}, "
                f"got matrix of shape {matrix.shape}"
            )
        x = as_vector(x, "x")
        if x.shape[0] != self._m:
            raise ShapeError(
                f"x has length {x.shape[0]} but the matrix has {self._m} columns"
            )
        if b is not None:
            b = as_vector(b, "b")
            if b.shape[0] != self._n:
                raise ShapeError(
                    f"b has length {b.shape[0]} but the matrix has {self._n} rows"
                )
        transforms = [self._top.transform, self._bottom.transform]
        if self._sweep is not None:
            band_outputs, y_padded = self._sweep.sweep(matrix, x, b)
            cut = self._top.sweep_plan.band_rows
            run = build_linear_run(
                self._split_geometry(),
                [band_outputs[:cut], band_outputs[cut:]],
                band_outputs,
            )
            return MatVecSolution(
                y=y_padded[: self._n].copy(),
                w=self._w,
                overlapped=True,
                transforms=transforms,
                run=run,
                model=self._model,
            )
        top_rows = self._partition.first_rows
        top_b = b[:top_rows] if b is not None else None
        bottom_b = b[top_rows:] if b is not None else None
        problems = [
            self._top.build_problem(matrix[:top_rows, :], x, top_b),
            self._bottom.build_problem(matrix[top_rows:, :], x, bottom_b),
        ]
        run = self._array.run_overlapped(problems)
        y = np.concatenate(
            [
                self._top.transform.recover_y(run.y_per_problem[0]),
                self._bottom.transform.recover_y(run.y_per_problem[1]),
            ]
        )
        return MatVecSolution(
            y=y,
            w=self._w,
            overlapped=True,
            transforms=transforms,
            run=run,
            model=self._model,
        )


class MatMulPlan:
    """Shape-keyed execution plan for ``C = A B + E`` on the hexagonal array.

    Captures the operand band geometry, the partial-result placement, the
    spiral feedback token plan and (optionally, at *plan* time — structure
    is all that matters) the DBT structural verification.
    """

    def __init__(
        self,
        n: int,
        p: int,
        m: int,
        w: int,
        verify_structure: bool = False,
        backend: str = SIMULATE,
    ):
        if n < 1 or p < 1 or m < 1:
            raise ShapeError(
                f"matmul plan needs positive dimensions, got ({n}, {p}, {m})"
            )
        self._backend = resolve_backend(backend)
        self._n = int(n)
        self._p = int(p)
        self._m = int(m)
        self._w = validate_array_size(w)
        operands = MatMulOperands(
            np.zeros((self._n, self._p)), np.zeros((self._p, self._m)), self._w
        )
        if verify_structure:
            operands.verify_product_coverage()
            if not operands.inner_origins_consistent():
                raise ShapeError("operand bands pair inconsistent inner indices")
        self._operands = operands
        self._array = HexagonalArray(self._w, self._w)
        self._placement = PartialResultMap(operands, self._array)
        a_band = operands.a_operand.band
        b_band = operands.b_operand.band
        self._a_gather = _BandGather(
            a_band.rows, a_band.cols, a_band.lower, a_band.upper,
            operands.a_operand.provenance,
        )
        self._b_gather = _BandGather(
            b_band.rows, b_band.cols, b_band.lower, b_band.upper,
            operands.b_operand.provenance,
        )
        # Token-plan skeleton: the spiral feedback wiring is value
        # independent; only the external E injections change per solve.
        feedback: Dict[Tuple[int, int], object] = {}
        externals: List[Tuple[Tuple[int, int], int, int]] = []
        for (alpha, gamma), chain in self._placement.chains.items():
            first = chain.positions[0]
            externals.append((first, alpha, gamma))
            previous = first
            for position in chain.positions[1:]:
                feedback[position] = HexFeedbackSource(
                    source_row=previous[0],
                    source_col=previous[1],
                    tag=("c", alpha, gamma),
                )
                previous = position
        self._feedback_sources = feedback
        self._external_slots = externals
        self._useful = self._n * self._p * self._m
        self._model = MatMulModel(n=self._n, p=self._p, m=self._m, w=self._w)
        self._hex_sweep: Optional[HexSweepPlan] = None
        if self._backend == VECTORIZED:
            self._hex_sweep = HexSweepPlan(operands, self._placement, self._useful)

    # -- geometry -----------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """Problem dimensions ``(n, p, m)`` of ``C[n,m] = A[n,p] B[p,m]``."""
        return (self._n, self._p, self._m)

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        """The resolved execution backend (``simulate`` or ``vectorized``)."""
        return self._backend

    @property
    def operands(self) -> MatMulOperands:
        """The structural operand template (its band values are zeros)."""
        return self._operands

    @property
    def placement(self) -> PartialResultMap:
        return self._placement

    @property
    def model(self) -> MatMulModel:
        return self._model

    # -- value streaming ------------------------------------------------------------
    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        e: Optional[np.ndarray] = None,
    ) -> MatMulSolution:
        """Solve ``C = A B + E`` through the prebuilt plan."""
        a = as_matrix(a, "A")
        b = as_matrix(b, "B")
        if a.shape != (self._n, self._p) or b.shape != (self._p, self._m):
            if a.shape[1] != b.shape[0]:
                raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
            raise ShapeError(
                f"plan was built for shapes {(self._n, self._p)} x "
                f"{(self._p, self._m)}, got {a.shape} x {b.shape}"
            )
        if e is not None:
            e = as_matrix(e, "E")
            if e.shape != (self._n, self._m):
                raise ShapeError(
                    f"E must have shape {(self._n, self._m)}, got {e.shape}"
                )

        if self._hex_sweep is not None:
            c, run = self._hex_sweep.execute(a, b, e)
            return MatMulSolution(
                c=c,
                w=self._w,
                operands=self._operands,
                placement=self._placement,
                run=run,
                model=self._model,
            )

        a_band = self._a_gather.fill(pad_matrix(a, self._w))
        b_band = self._b_gather.fill(pad_matrix(b, self._w))
        plan = CTokenPlan(sources=dict(self._feedback_sources))
        if e is not None:
            for first, alpha, gamma in self._external_slots:
                if alpha < self._n and gamma < self._m:
                    value = float(e[alpha, gamma])
                    if value != 0.0:
                        plan.sources[first] = ExternalSource(
                            value=value, tag=("e", alpha, gamma)
                        )
        run = self._array.run(
            a_band, b_band, c_plan=plan, useful_operations=self._useful
        )
        c = self._placement.recover_c(run.c_band)
        return MatMulSolution(
            c=c,
            w=self._w,
            operands=self._operands,
            placement=self._placement,
            run=run,
            model=self._model,
        )


class CachedMatVec:
    """Mat-vec engine memoizing one :class:`MatVecPlan` per operand shape.

    Drop-in for the solve surface of the legacy ``SizeIndependentMatVec``:
    the first solve of a shape builds the plan, every later solve of the
    same shape only streams values.  The blocked extension pipelines
    (triangular solve, Gauss-Seidel, LU) issue many same-shape products,
    so sharing one engine across a pipeline warms its plans once.
    """

    #: Per-shape plans kept per engine; least recently used shapes are
    #: dropped beyond this (a dropped plan is simply rebuilt on demand).
    MAX_PLANS = 32

    def __init__(
        self,
        w: int,
        record_trace: bool = False,
        overlapped: bool = False,
        backend: str = SIMULATE,
    ):
        self._w = validate_array_size(w)
        self._record_trace = bool(record_trace)
        self._overlapped = bool(overlapped)
        self._backend = resolve_backend(backend, record_trace=self._record_trace)
        self._plans: "OrderedDict[Tuple[int, int], object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def w(self) -> int:
        return self._w

    @property
    def overlapped(self) -> bool:
        return self._overlapped

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction accounting of the per-shape plan memo.

        The iterative solvers aggregate these across their inner engines
        to *prove* warm-plan reuse (a k-sweep solve should show one miss
        per distinct inner shape and hits for everything else).
        """
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._plans),
            maxsize=self.MAX_PLANS,
        )

    def plan_for(self, n: int, m: int):
        """The (memoized) plan for one operand shape."""
        key = (int(n), int(m))
        plan = self._plans.get(key)
        if plan is None:
            self._misses += 1
            counters.bump("plan_builds")
            if self._overlapped:
                plan = OverlappedMatVecPlan(
                    key[0], key[1], self._w,
                    record_trace=self._record_trace,
                    backend=self._backend,
                )
            else:
                plan = MatVecPlan(
                    key[0], key[1], self._w,
                    record_trace=self._record_trace,
                    backend=self._backend,
                )
            self._plans[key] = plan
            while len(self._plans) > self.MAX_PLANS:
                self._plans.popitem(last=False)
                self._evictions += 1
        else:
            self._hits += 1
            self._plans.move_to_end(key)
        return plan

    def solve(
        self,
        matrix: np.ndarray,
        x: np.ndarray,
        b: Optional[np.ndarray] = None,
    ) -> MatVecSolution:
        matrix = as_matrix(matrix, "matrix")
        return self.plan_for(*matrix.shape).execute(matrix, x, b)


class CachedMatMul:
    """Mat-mul engine memoizing one :class:`MatMulPlan` per operand shape."""

    #: See :attr:`CachedMatVec.MAX_PLANS`.
    MAX_PLANS = 32

    def __init__(self, w: int, verify_structure: bool = False, backend: str = SIMULATE):
        self._w = validate_array_size(w)
        self._verify_structure = bool(verify_structure)
        self._backend = resolve_backend(backend)
        self._plans: "OrderedDict[Tuple[int, int, int], MatMulPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def w(self) -> int:
        return self._w

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def stats(self) -> CacheStats:
        """See :attr:`CachedMatVec.stats`."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._plans),
            maxsize=self.MAX_PLANS,
        )

    def plan_for(self, n: int, p: int, m: int) -> MatMulPlan:
        key = (int(n), int(p), int(m))
        plan = self._plans.get(key)
        if plan is None:
            self._misses += 1
            counters.bump("plan_builds")
            plan = MatMulPlan(
                key[0], key[1], key[2], self._w,
                verify_structure=self._verify_structure,
                backend=self._backend,
            )
            self._plans[key] = plan
            while len(self._plans) > self.MAX_PLANS:
                self._plans.popitem(last=False)
                self._evictions += 1
        else:
            self._hits += 1
            self._plans.move_to_end(key)
        return plan

    def solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        e: Optional[np.ndarray] = None,
    ) -> MatMulSolution:
        a = as_matrix(a, "A")
        b = as_matrix(b, "B")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
        return self.plan_for(a.shape[0], a.shape[1], b.shape[1]).execute(a, b, e)

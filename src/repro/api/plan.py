"""Execution plans and the LRU plan cache.

An :class:`ExecutionPlan` is the immutable product of the *compile* half
of the compile-then-run split: for the array kinds (matvec, matmul) it
wraps a shape-keyed skeleton from :mod:`repro.core.plans` (band geometry,
refill gathers, schedules, placement, token-plan skeleton); for the
blocked pipelines (lu, triangular, gauss_seidel, sparse) it wraps a fully
configured pipeline whose inner per-shape engines warm up on first use.

Plans are keyed by ``(kind, shapes, w, options)`` and held in a
:class:`PlanCache` — an LRU with hit/miss/eviction accounting — so that
repeated same-shape solves, the hot path of a serving workload, skip all
transform construction and only stream operand values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, List, Optional, Sequence, Tuple

from ..instrumentation import CacheStats
from .config import ArraySpec, ExecutionOptions

__all__ = ["ExecutionPlan", "CacheStats", "PlanCache", "PlanKey", "make_plan_key"]

#: A plan cache key: (kind, shapes, w, options).
PlanKey = Tuple[str, Tuple, int, ExecutionOptions]


def make_plan_key(
    kind: str, shapes: Tuple, w: int, options: ExecutionOptions
) -> PlanKey:
    """The one assembly point for plan cache / service routing keys.

    Everything that derives a key — ``Solver`` (string and typed paths),
    ``Problem.plan_key``, ``Graph.plan_keys`` — goes through here, so the
    field set can never silently diverge between the key a request routes
    by and the key its home shard caches under.
    """
    return (kind, shapes, int(w), options)


class ExecutionPlan:
    """One reusable, immutable compiled problem.

    Obtained from :meth:`repro.api.solver.Solver.plan` (or implicitly by
    ``solve``); execute it any number of times with same-shape operands.
    """

    __slots__ = ("_kind", "_shapes", "_spec", "_options", "_executor", "_handler")

    def __init__(
        self,
        kind: str,
        shapes: Tuple,
        spec: ArraySpec,
        options: ExecutionOptions,
        executor: Any,
        handler: Any,
    ):
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_shapes", shapes)
        object.__setattr__(self, "_spec", spec)
        object.__setattr__(self, "_options", options)
        object.__setattr__(self, "_executor", executor)
        object.__setattr__(self, "_handler", handler)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ExecutionPlan is immutable")

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def shapes(self) -> Tuple:
        """The normalized problem shapes the plan was compiled for."""
        return self._shapes

    @property
    def spec(self) -> ArraySpec:
        return self._spec

    @property
    def options(self) -> ExecutionOptions:
        return self._options

    @property
    def executor(self) -> Any:
        """The kind-specific compiled engine (core plan or pipeline)."""
        return self._executor

    @property
    def handler(self) -> Any:
        """The :class:`~repro.api.registry.ProblemHandler` behind the plan."""
        return self._handler

    @property
    def supports_pairing(self) -> bool:
        """Whether same-plan executions can be grouped and paired.

        True only for the plain matvec plan: ``solve_batch`` and the graph
        compiler route same-plan requests and stages through
        :meth:`execute_group`, whose consecutive pairs are reported as one
        overlapped array run (the second problem rides the idle
        contraflow cycles of the first).  The pairing is array-cycle
        accounting; on the vectorized backend the group computes as one
        stacked sweep.
        """
        return bool(getattr(self._executor, "supports_pairing", False))

    @property
    def key(self) -> PlanKey:
        return make_plan_key(self._kind, self._shapes, self._spec.w, self._options)

    def _span(self, name: str):
        """An ambient child span for one plan execution (or the no-op).

        Costs one thread-local read when nothing is tracing — the same
        guarded path the rest of the backend uses.
        """
        from ..obs.tracing import NULL_SPAN, active_span

        parent = active_span()
        if parent is None:
            return NULL_SPAN
        return parent.child(name, category="plan", kind=self._kind)

    def execute(self, *operands, **kwargs):
        """Stream one operand set through the plan; returns a Solution."""
        from ..instrumentation import counters

        counters.bump("plan_executions")
        with self._span("plan.execute"):
            return self._handler.execute(self, *operands, **kwargs)

    def execute_problem(self, problem):
        """Stream one *typed* problem through the plan; returns a Solution.

        The typed-problem counterpart of :meth:`execute`: the handler
        consumes the problem object directly instead of re-parsing
        positional operands and kwargs.
        """
        from ..instrumentation import counters

        counters.bump("plan_executions")
        with self._span("plan.execute"):
            return self._handler.execute_problem(self, problem)

    def execute_group(self, entries: Sequence[Tuple]) -> List[Any]:
        """Run independent same-plan operand sets as one group.

        Only valid when :attr:`supports_pairing` is true.  Consecutive
        entries pair up: each pair's wrapped
        :class:`~repro.api.solution.Solution` objects share one
        overlapped array run, are marked ``stats["paired"]`` and carry no
        step or utilization prediction (the paper's closed forms do not
        cover two interleaved requests sharing one run).  An odd last
        entry runs plain, exactly like :meth:`execute`.
        """
        from ..instrumentation import counters

        counters.bump("plan_executions", len(entries))
        with self._span("plan.execute_group"):
            legacies = self._executor.execute_group(entries)
        return [self._handler.wrap(self, legacy) for legacy in legacies]

    def execute_pair(self, first: Tuple, second: Tuple):
        """:meth:`execute_group` of two entries, as a tuple.

        Kept only because ``perfbench/test_perfbench.py`` patches plan
        execution by this name; drop it at the next benchmark change.
        """
        solutions = self.execute_group([first, second])
        return solutions[0], solutions[1]

    def describe(self) -> str:
        text = (
            f"ExecutionPlan(kind={self._kind!r}, shapes={self._shapes}, "
            f"w={self._spec.w}"
        )
        if self._options.dtype_mode != "float64":
            text += f", dtype_mode={self._options.dtype_mode!r}"
        return text + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class PlanCache:
    """LRU cache of :class:`ExecutionPlan` objects keyed by plan key.

    All operations are thread-safe: a single lock guards the LRU order and
    the hit/miss/eviction counters, so a :class:`~repro.api.solver.Solver`
    can be shared between threads (and the :mod:`repro.service` shard
    workers can trust their per-shard caches) without torn LRU state or
    lost accounting.  Plan *construction* is not serialized — two threads
    missing on the same key may both build the plan and the later ``put``
    wins — which trades a rare duplicate build for never holding the lock
    across a compile.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"plan cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._plans: "OrderedDict[PlanKey, ExecutionPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def get(self, key: PlanKey) -> Optional[ExecutionPlan]:
        """The cached plan for ``key`` (marks it most recently used)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self._misses += 1
                return None
            self._plans.move_to_end(key)
            self._hits += 1
            return plan

    def put(self, key: PlanKey, plan: ExecutionPlan) -> None:
        with self._lock:
            if key in self._plans:
                self._plans.move_to_end(key)
                self._plans[key] = plan
                return
            self._plans[key] = plan
            while len(self._plans) > self._maxsize:
                self._plans.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every cached plan.

        Lifetime counters (hits, misses, evictions) deliberately survive:
        a cleared cache starts empty but its accounting history — and the
        division-safe ``hit_rate`` derived from it — remains meaningful.
        """
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._plans

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._plans),
                maxsize=self._maxsize,
            )

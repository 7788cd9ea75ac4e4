"""Plan-keyed admission batching.

The serving-layer analogue of keeping the systolic array saturated: rather
than executing requests strictly one-by-one, a shard worker collects a
short *admission window* of requests (bounded by ``max_batch_size`` and
``max_batch_delay``) and groups it by plan key.  Every group shares one
compiled :class:`~repro.api.plan.ExecutionPlan`, so a group flush through
``Solver.solve_batch`` costs at most one plan compile regardless of group
size — and for the plain matvec kind, ``solve_batch`` computes the whole
group as one stacked sweep, reporting its members in pairs on the array's
idle contraflow cycles (the paper's overlap, as array-cycle accounting).

The batcher is pure policy: it owns no thread and mutates nothing but the
queue it drains, which keeps the windowing/grouping rules independently
testable from the worker machinery.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Hashable, List

from .backpressure import BoundedRequestQueue
from .request import SolveRequest

__all__ = ["AdmissionBatcher"]


class AdmissionBatcher:
    """Collects admission windows from a queue and groups them by plan key.

    ``max_batch_size`` caps one window; ``max_batch_delay`` is how long the
    worker lingers after the *first* request arrives, trading that much
    latency for the chance that same-plan requests pile up and flush
    together.  ``idle_poll`` bounds the wait for the first request so the
    owning worker can re-check its stop flag.

    ``clock`` is the monotonic time source for the window cutoff.  It
    must be a *monotonic* clock — ``time.monotonic`` by default, never
    wall-clock ``time.time()``, whose NTP steps and DST jumps would
    stretch or collapse admission windows — and is injectable so tests
    can drive the window deadline deterministically.
    """

    def __init__(
        self,
        queue: BoundedRequestQueue,
        max_batch_size: int = 32,
        max_batch_delay: float = 0.002,
        idle_poll: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_batch_delay < 0:
            raise ValueError(f"max_batch_delay must be >= 0, got {max_batch_delay}")
        self._queue = queue
        self._max_batch_size = int(max_batch_size)
        self._max_batch_delay = float(max_batch_delay)
        self._idle_poll = float(idle_poll)
        self._clock = clock

    @property
    def max_batch_size(self) -> int:
        return self._max_batch_size

    @property
    def max_batch_delay(self) -> float:
        return self._max_batch_delay

    def next_window(self) -> List[SolveRequest]:
        """One admission window, in arrival order (empty on an idle poll).

        Blocks up to ``idle_poll`` for the first request, then lingers up
        to ``max_batch_delay`` (or until the window is full) gathering
        companions.
        """
        first = self._queue.get(timeout=self._idle_poll)
        if first is None:
            return []
        window = [first]
        cutoff = self._clock() + self._max_batch_delay
        while len(window) < self._max_batch_size:
            remaining = cutoff - self._clock()
            if remaining <= 0:
                window.extend(self._queue.drain(self._max_batch_size - len(window)))
                break
            companion = self._queue.get(timeout=remaining)
            if companion is None:
                break
            window.append(companion)
        return window

    @staticmethod
    def group_by_plan(window: List[SolveRequest]) -> List[List[SolveRequest]]:
        """Split a window into per-plan-key flush groups.

        Groups preserve arrival order (both across groups — ordered by
        their earliest member — and within a group).  Requests carrying
        kind-specific execution kwargs — or a whole-pipeline graph job —
        are not batchable (``solve_batch`` has no per-entry argument
        channel) and become singleton groups.
        """
        groups: "Dict[object, List[SolveRequest]]" = {}
        order: List[List[SolveRequest]] = []
        for request in window:
            if not request.batchable:
                order.append([request])
                continue
            key: Hashable = request.plan_key
            group = groups.get(key)
            if group is None:
                group = groups[key] = []
                order.append(group)
            group.append(request)
        return order

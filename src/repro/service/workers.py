"""Sharded worker pool: one thread, one solver, one hot plan cache per shard.

Requests are routed to shards by ``hash(plan_key) % n_shards`` (see
:class:`~repro.service.service.SolverService`), so every request of a
given plan lands on the same shard: the plan compiles once per shard and
stays resident in that shard's private
:class:`~repro.api.plan.PlanCache`.  Because each shard owns its own
:class:`~repro.api.solver.Solver` and executes on a single thread, plan
executors never run concurrently — thread-safety concerns collapse to the
queue, the telemetry lock, and the (now lock-guarded) plan cache.

A worker's loop is: collect an admission window via the
:class:`~repro.service.batcher.AdmissionBatcher`, split it into plan-keyed
groups, and flush each group — multi-request matvec groups through
``Solver.solve_batch`` (one stacked sweep per matvec group), every
other group member individually through ``Solver.solve``.  Whole-pipeline
jobs (requests carrying a :class:`~repro.service.request.GraphJob`)
compile and execute through a shard-local
:class:`~repro.graph.compiler.GraphCompiler` bound to the shard's private
solver, so every stage plan of a routed graph compiles once per service
and re-submissions execute with zero plan builds.  *Pipelined* graph jobs
(requests carrying a :class:`~repro.service.pipeline.SegmentTask`)
execute one placed program segment against the parent job's shared state,
then hand the next level's segments to their shards' handoff lanes — the
cross-shard macro-systolic path.  All failures resolve futures; the
worker thread itself never dies on a request error.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from ..api.solver import Solver
from ..errors import DeadlineExceededError, ServiceClosedError
from ..graph.compiler import GraphCompiler
from ..obs.tracing import NULL_SPAN
from .backpressure import BoundedRequestQueue
from .batcher import AdmissionBatcher
from .request import SolveRequest
from .telemetry import ShardTelemetry

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard: a queue, a batcher, a private solver, and its thread."""

    def __init__(
        self,
        shard_id: int,
        solver: Solver,
        queue: BoundedRequestQueue,
        telemetry: ShardTelemetry,
        max_batch_size: int = 16,
        max_batch_delay: float = 0.002,
        idle_poll: float = 0.05,
        name: Optional[str] = None,
    ):
        self.shard_id = shard_id
        self.solver = solver
        self.queue = queue
        self.telemetry = telemetry
        #: The trace track this worker's spans render on.
        self.track = f"shard {shard_id}"
        self._batcher = AdmissionBatcher(
            queue,
            max_batch_size=max_batch_size,
            max_batch_delay=max_batch_delay,
            idle_poll=idle_poll,
        )
        self._stopping = False
        self._drain_on_stop = True
        self._thread = threading.Thread(
            target=self._run,
            name=name or f"repro-service-shard-{shard_id}",
            daemon=True,
        )

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def request_stop(self, drain: bool = True) -> None:
        """Ask the worker to exit; with ``drain`` it finishes queued work first.

        The caller must also :meth:`BoundedRequestQueue.close` the queue so
        an idle worker wakes immediately.
        """
        self._drain_on_stop = drain
        self._stopping = True

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread.is_alive():
            self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    # -- the worker loop ----------------------------------------------------------
    def _run(self) -> None:
        while True:
            window = self._batcher.next_window()
            if not window:
                if self._stopping and len(self.queue) == 0:
                    return
                continue
            if self._stopping and not self._drain_on_stop:
                closed = ServiceClosedError(
                    "service closed without draining pending requests"
                )
                for request in window:
                    self._fail_undrained(request, closed)
                continue
            # Segments first: they arrived through the priority handoff
            # lane (or are a pipeline's admission wave) and upstream
            # shards may already be blocked on their output.
            plain: List[SolveRequest] = []
            for request in window:
                if request.segment is not None:
                    self._execute_segment(request)
                else:
                    plain.append(request)
            for group in AdmissionBatcher.group_by_plan(plain):
                self._execute_group(group)

    def _fail_undrained(
        self, request: SolveRequest, closed: ServiceClosedError
    ) -> None:
        """Resolve one abandoned request on a non-draining shutdown."""
        task = request.segment
        if task is not None:
            if task.job.fail(closed):
                task.job.home_telemetry.record_failed(task.job.latency())
        elif request.fail(closed):
            self.telemetry.record_failed(request.latency())

    def _execute_group(self, group: List[SolveRequest]) -> None:
        """Flush one plan-keyed group, resolving every member's future."""
        now = time.monotonic()
        live: List[SolveRequest] = []
        for request in group:
            if request.expired(now):
                self.telemetry.record_expired()
                request.fail(
                    DeadlineExceededError(
                        f"{request.kind} request exceeded its deadline "
                        f"after {request.latency(now):.3f}s in queue"
                    )
                )
            elif not request.future.set_running_or_notify_cancel():
                # Caller cancelled while queued; nothing to resolve, but
                # the trace must still end coherently.
                if request.trace is not None:
                    request.trace.root.finish(status="cancelled")
            else:
                live.append(request)
        if not live:
            return
        self.telemetry.record_batch(len(live))
        traced = [request for request in live if request.trace is not None]
        if traced:
            # Retroactive spans from stamps both endpoints of which are
            # now known: admission → dequeue is queue_wait, dequeue →
            # here is batch_assembly.  Backdating means a request that
            # never reached this point (shed, expired, closed) never
            # opened these spans — nothing to leak.
            assembled_at = traced[0].trace.tracer.now()
            for request in traced:
                trace = request.trace
                if trace.admitted_at is None or request.dequeued_at is None:
                    continue
                trace.root.child(
                    "queue_wait", track=self.track, category="queue",
                    start=trace.admitted_at,
                ).finish(end=request.dequeued_at)
                trace.root.child(
                    "batch_assembly", track=self.track, category="queue",
                    start=request.dequeued_at, batch=len(live),
                ).finish(end=assembled_at)
        # Every live member shares a plan key, hence identical resolved
        # options — the ExecutionOptions embedded in the key itself.
        options = live[0].plan_key[3]
        if len(live) > 1:
            # One physical solve_batch serves the whole flush; the first
            # traced member's execute span is activated (so plan-lookup /
            # plan-execute children nest under it) and its siblings get
            # identical retroactive spans — the shared interval is the
            # truth of a batched execution.
            lead = NULL_SPAN
            if traced:
                lead = traced[0].trace.root.child(
                    "execute", track=self.track, category="execute",
                    batch=len(live),
                )
            try:
                with lead:
                    solutions = self.solver.solve_batch(
                        live[0].kind,
                        [request.operands for request in live],
                        options=options,
                    )
            except Exception:
                # A plan key only sees operands[0], so one member with
                # e.g. a wrong-length vector can sink the whole flush.
                # Re-run the group one by one so the error stays with
                # the request that caused it.
                for request in live:
                    self._execute_one(request, options)
                return
            for request in traced[1:]:
                request.trace.root.child(
                    "execute", track=self.track, category="execute",
                    start=lead.start, batch=len(live),
                ).finish(end=lead.end)
            for request, solution in zip(live, solutions):
                # Telemetry first: a RUNNING future cannot be cancelled,
                # so set_result is infallible — and the caller it wakes
                # may read stats() immediately.
                self.telemetry.record_completed(request.latency())
                self._record_iterations(request.kind, solution)
                request.resolve(solution)
            return
        self._execute_one(live[0], options)

    def _record_iterations(self, kind: str, solution) -> None:
        """Account multi-iteration solves (jacobi, sor, cg, ...) per kind."""
        iterations = solution.stats.get("iterations")
        if isinstance(iterations, int) and iterations > 0:
            self.telemetry.record_iterations(kind, iterations)

    def _execute_one(self, request: SolveRequest, options) -> None:
        """Solve one (RUNNING) request, resolving its future either way.

        Telemetry is recorded *before* the future resolves: resolution
        wakes the caller, who may snapshot stats straight away.
        """
        if request.graph is not None:
            self._execute_graph(request)
            return
        span = NULL_SPAN
        if request.trace is not None:
            span = request.trace.root.child(
                "execute", track=self.track, category="execute",
                kind=request.kind,
            )
        try:
            # Activated: the solver's plan_lookup / plan.execute spans
            # nest under this request's execute span.
            with span:
                solution = self.solver.solve(
                    request.kind, *request.operands,
                    options=options, **request.kwargs,
                )
        except Exception as exc:
            self.telemetry.record_failed(request.latency())
            request.fail(exc)
            return
        self.telemetry.record_completed(request.latency())
        self._record_iterations(request.kind, solution)
        request.resolve(solution)

    def _execute_graph(self, request: SolveRequest) -> None:
        """Compile and run one whole-pipeline job on this shard's solver.

        Compilation resolves every stage plan through the shard's private
        plan cache, so a re-submitted graph is pure warm execution; the
        per-graph telemetry (stage count, fused stages, per-stage
        latencies) feeds the fleet snapshot's pipeline columns.
        """
        job = request.graph
        assert job is not None
        span = NULL_SPAN
        if request.trace is not None:
            span = request.trace.root.child(
                "execute", track=self.track, category="execute", kind="graph"
            )
        try:
            # The request's options (when given) are the base the routing
            # keys were derived from; compiling under the same base keeps
            # the home-shard zero-recompile guarantee for graphs that
            # carry per-request options.  The activated span collects the
            # compile's plan lookups and the program's stage spans.
            with span:
                compiler = GraphCompiler(
                    self.solver, fuse=job.fuse, options=request.options
                )
                result = compiler.run(job.graph)
        except Exception as exc:
            self.telemetry.record_failed(request.latency())
            request.fail(exc)
            return
        self.telemetry.record_completed(request.latency())
        self.telemetry.record_graph(
            stages=len(result.solutions),
            fused=result.fused_pairs + result.fused_rewrites,
            stage_latencies=result.stage_seconds,
            levels=(max(result.levels) + 1) if result.levels else 0,
            kinds=result.kinds,
        )
        for kind, solution in zip(result.kinds, result.solutions):
            self._record_iterations(kind, solution)
        request.resolve(result)

    def _execute_segment(self, request: SolveRequest) -> None:
        """Run one placed segment of a cross-shard pipelined graph job.

        The parent job coordinates everything cross-segment: a sibling's
        failure (or a shed, or a caller cancel) makes this a no-op, the
        level cursor releases the next wave into the handoff lanes, and
        the segment that lands the final level assembles the result and
        resolves the parent future.  All whole-job telemetry (completed /
        failed / expired / graph rows) goes to the job's *home* shard so
        the fleet snapshot counts each pipelined graph exactly once;
        this shard records only its own segment execution.
        """
        task = request.segment
        assert task is not None
        job = task.job
        if job.failed:
            return  # a sibling already failed the whole request
        if request.expired():
            if job.fail(
                DeadlineExceededError(
                    f"pipelined graph request exceeded its deadline after "
                    f"{job.latency():.3f}s (level {task.level} still queued)"
                )
            ):
                job.home_telemetry.record_expired()
            return
        if not job.mark_running():
            return  # caller cancelled while the job was queued
        trace = job.trace
        seg_span = NULL_SPAN
        if trace is not None:
            # The lane transit (or admission-queue wait, for level 0) is
            # reconstructed retroactively from the dispatch stamp — both
            # endpoints known, nothing to leak.
            if task.dispatched_at is not None and request.dequeued_at is not None:
                transit_name = (
                    "handoff_transit" if task.from_shard is not None
                    else "queue_wait"
                )
                transit = trace.root.child(
                    transit_name, track=self.track, category="queue",
                    start=task.dispatched_at, level=task.level,
                )
                if task.from_shard is not None:
                    transit.annotate(from_shard=task.from_shard)
                transit.finish(end=request.dequeued_at)
            seg_span = trace.root.child(
                f"segment L{task.level}", track=self.track,
                category="segment", shard=self.shard_id, level=task.level,
            )
            if task.flow_id is not None:
                # Arrow head: the producing segment's flow lands here.
                seg_span.flow_in(task.flow_id)
        try:
            # Activated: per-stage spans from ProgramSegment.execute nest
            # under this shard's segment span; an exception closes it as
            # failed before the job latch fires.
            with seg_span:
                task.segment.execute(job.outputs, job.solutions, job.latencies)
        except Exception as exc:
            if job.fail(exc):
                job.home_telemetry.record_failed(job.latency())
            return
        self.telemetry.record_segment()
        next_wave, finished = job.complete_segment()
        if trace is not None and next_wave:
            # Each released segment gets a flow arrow from this span to
            # its own; the dispatch stamp starts its transit span.
            dispatched_at = trace.tracer.now()
            for next_task in next_wave:
                flow = trace.tracer.new_flow()
                seg_span.flow_out(flow)
                next_task.flow_id = flow
                next_task.from_shard = self.shard_id
                next_task.dispatched_at = dispatched_at
        for next_task in next_wave:
            try:
                job.dispatch(next_task)
            except Exception as exc:
                if job.fail(exc):
                    job.home_telemetry.record_failed(job.latency())
                return
        if not finished:
            return
        result = job.assemble()
        job.home_telemetry.record_completed(job.latency())
        job.home_telemetry.record_graph(
            stages=len(result.solutions),
            fused=result.fused_pairs + result.fused_rewrites,
            stage_latencies=result.stage_seconds,
            levels=(max(result.levels) + 1) if result.levels else 0,
            kinds=result.kinds,
        )
        for kind, solution in zip(result.kinds, result.solutions):
            iterations = solution.stats.get("iterations")
            if isinstance(iterations, int) and iterations > 0:
                job.home_telemetry.record_iterations(kind, iterations)
        job.resolve(result)

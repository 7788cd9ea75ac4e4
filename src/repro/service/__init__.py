"""Concurrent serving layer over the plan/execute solver façade.

The ROADMAP's production-serving story, as a subsystem: many concurrent
callers multiplexed onto the cached, immutable
:class:`~repro.api.plan.ExecutionPlan` machinery so the (software) array
stays saturated the way the paper's streaming model keeps the hardware
saturated.

Pieces, front to back:

* :class:`~repro.service.service.SolverService` — the front door.
  ``submit(kind, *operands)`` validates synchronously, returns a
  ``concurrent.futures.Future`` of the usual
  :class:`~repro.api.solution.Solution`, and routes by plan key through
  the placement table.
* :class:`~repro.service.placement.PlacementTable` — the explicit
  key→shard routing layer: a stable (``PYTHONHASHSEED``-independent)
  default hash policy, per-key ``assign``/``release`` rebalancing, and
  snapshots of the observed key→shard layout for the fleet telemetry.
* :class:`~repro.service.backpressure.BoundedRequestQueue` — per-shard
  bounded admission with ``block`` / ``reject`` / ``shed_oldest``
  overload policies, per-request deadlines, and a priority *handoff
  lane* carrying mid-pipeline graph segments between shards.
* :class:`~repro.service.batcher.AdmissionBatcher` — collects a short
  admission window and groups it by plan key, so same-plan requests flush
  together through ``Solver.solve_batch`` (a matvec group computes as one
  stacked sweep; its pairs report the overlapped contraflow schedule).
* :class:`~repro.service.workers.ShardWorker` — one thread + one private
  :class:`~repro.api.solver.Solver` per shard; a plan compiles once per
  service and stays hot on its home shard.
* :class:`~repro.service.telemetry.ServiceStats` — per-kind counts, queue
  depths, the batch-size histogram, p50/p95/p99 latency, and plan-cache
  hit rates aggregated across shards, all backed by the typed
  :class:`~repro.obs.metrics.MetricsRegistry` the service owns.

The layer is observable end to end: construct the service with an
enabled :class:`~repro.obs.tracing.Tracer` and every request (and every
pipelined graph job) produces one span tree — admission wait, queue
wait, batch assembly, plan lookup, execute, handoff-lane transits, and
per-shard segment executions — exportable as Chrome trace-event JSON
(:func:`repro.obs.chrome_trace`) with one track per shard worker and
flow arrows across the handoff lanes.  Tracing is off by default and
the disabled path costs one thread-local read per hook.

Multi-iteration requests (the :mod:`repro.iterative` kinds — jacobi,
sor, cg, refine, power) flow through the same pipeline: a whole k-sweep
job executes on its plan key's home shard, where the compiled solver
engine and its inner per-shape plans stay hot across jobs, and the
telemetry accounts the per-kind sweep totals (``iterations_by_kind``).

Whole pipeline graphs (:mod:`repro.graph`) are first-class requests too.
A multi-level graph takes the **cross-shard pipelined path**: the service
compiles it once against a shared compile solver, splits the program into
level-aligned :class:`~repro.graph.program.ProgramSegment` units placed
per stage plan key, and streams the segments across shards through the
handoff lanes (:mod:`repro.service.pipeline` coordinates each job) —
independent same-level stages execute on distinct shards, deep graphs
overlap across requests, and results stay bit-identical to single-shard
execution.  Single-segment graphs keep the classic home-shard path:
routed by the tuple of their per-stage plan keys to one shard, where a
shard-local :class:`~repro.graph.compiler.GraphCompiler` lowers them
against the private plan cache.  Either way every stage plan compiles
once per service and re-submitted same-shaped graphs execute with zero
plan builds.  The telemetry's pipeline columns (``graphs``,
``graph_stages``, ``graph_fused``, ``segments``, ``handoffs``, stage
latency percentiles, the placement snapshot) account them.

See ``examples/serving_demo.py`` and ``examples/pipeline_demo.py`` for
end-to-end tours and ``benchmarks/test_service_throughput.py`` /
``benchmarks/test_pipeline_fusion.py`` for the claims this layer exists
to win.
"""

from .backpressure import BACKPRESSURE_POLICIES, BoundedRequestQueue
from .batcher import AdmissionBatcher
from .pipeline import PipelinedGraphJob, SegmentTask
from .placement import (
    PlacementSnapshot,
    PlacementTable,
    canonical_key_bytes,
    stable_placement_hash,
)
from .qos import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ClientRateLimiter,
    RateLimit,
    TokenBucket,
    priority_name,
    resolve_priority,
)
from .request import GraphJob, RequestTrace, SolveRequest
from .service import SolverService
from .telemetry import ServiceStats, ShardStats, ShardTelemetry
from .workers import ShardWorker

__all__ = [
    "AdmissionBatcher",
    "BACKPRESSURE_POLICIES",
    "BoundedRequestQueue",
    "ClientRateLimiter",
    "GraphJob",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PipelinedGraphJob",
    "PlacementSnapshot",
    "PlacementTable",
    "RateLimit",
    "RequestTrace",
    "SegmentTask",
    "ServiceStats",
    "ShardStats",
    "ShardTelemetry",
    "ShardWorker",
    "SolveRequest",
    "SolverService",
    "TokenBucket",
    "canonical_key_bytes",
    "priority_name",
    "resolve_priority",
    "stable_placement_hash",
]

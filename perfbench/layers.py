"""The traced run: per-layer metrics from the benchmark's own spans.

The run measures the workload with a ``repro.obs.Tracer`` -- around
each direct call the benchmark opens a root span, and the program's
ambient ``plan_lookup``/``plan.execute`` spans nest under it -- and then
times a ladder of public calls on the same operands, interleaved so
drift hits every rung alike:

    NumPy floor < ExecutionPlan.execute_problem < Solver.solve
    < service round trip

Differences between rungs are each layer's self time; the tracing
overhead is ``Solver.solve`` under a traced root span against the same
call untraced.  The ladder's service gets the tracer through its public
``tracer=`` argument, so its queue and batch waits are spans too.  Spans
stay in memory; the run writes them (Chrome trace format) when it ends.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np
from repro import ArraySpec, GraphCompiler, MatVec, SolverService
from repro.instrumentation import counters

import measure
from harness import ROOT, Session, TimedPlanStore
from workloads import BATCH, VARIANTS, W

#: Seconds the interleaved ladder may spend per rung set.
LADDER_BUDGET_S = 2.0
#: Share of ``--seconds`` the traced pass of the workload gets.
PHASE_SHARE = 0.4

UNITS: Dict[str, str] = {
    "api.solve_us_p50": "us",
    "api.self_us_p50": "us",
    "api.plan_key_us_p50": "us",
    "api.batch_us_per_op": "us",
    "api.batch_over_single": "ratio",
    "api.cache_hit_ratio": "ratio",
    "core.execute_us_p50": "us",
    "core.execute_over_floor": "ratio",
    "core.build_ms_p50": "ms",
    "core.plan_builds": "count",
    "kernel.flops_computed": "flop",
    "kernel.bytes_computed": "B",
    "kernel.gflops_s": "GFLOP/s",
    "graph.compile_us_p50": "us",
    "graph.run_us_p50": "us",
    "graph.stages": "count",
    "graph.fused_epilogues": "count",
    "nn.graph_build_us_p50": "us",
    "nn.int8_over_float": "ratio",
    "iterative.jacobi_us_per_sweep": "us",
    "iterative.sweeps": "count",
    "service.submit_us_p50": "us",
    "service.added_ms_p50": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.batch_wait_ms_p50": "ms",
    "service.batch_size_mean": "count",
    "service.max_queue_depth": "count",
    "store.load_ms_p50": "ms",
    "store.save_ms_p50": "ms",
    "store.hits": "count",
    "store.misses": "count",
    "store.writes": "count",
    "store.writes_per_build": "ratio",
    "obs.trace_overhead_frac": "fraction",
    "obs.open_spans": "count",
}


def interleaved(
    rungs: Dict[str, Callable[[int], Any]], budget_s: float, max_reps: int = 400
) -> Dict[str, float]:
    """Median seconds per call of each rung, rungs taken in turn.

    Each repetition calls every rung once (on rotating operand
    variants), so slow drift of the machine lands on all rungs alike.
    """
    samples: Dict[str, List[float]] = {name: [] for name in rungs}
    perf = time.perf_counter
    deadline = perf() + budget_s
    rep = 0
    while rep < max_reps and (rep < 5 or perf() < deadline):
        variant = rep % VARIANTS
        for name, call in rungs.items():
            start = perf()
            call(variant)
            samples[name].append(perf() - start)
        rep += 1
    return {name: float(np.median(values)) for name, values in samples.items()}


def _span_ms(tracer: Any, name: str, **args: Any) -> List[float]:
    """Durations (ms) of the finished spans called ``name`` with ``args``."""
    return [
        span.duration * 1e3 for span in tracer.spans()
        if span.name == name
        and all(span.args.get(key) == value for key, value in args.items())
    ]


def _p50(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def run(session: Session, seconds: float) -> Tuple[Dict[str, float], Dict[str, str]]:
    wl = session.workload
    tracer = session.tracer
    m: Dict[str, float] = {}
    phase = seconds * PHASE_SHARE

    # -- the workload itself, traced ------------------------------------------------
    solver = session.solver
    cache_before = solver.cache_stats
    store_before = session.store.stats if session.store is not None else None
    before = counters.snapshot()
    measure.closed_loop(wl, solver, phase, tracer=tracer, tally=session.tally)
    m["core.plan_builds"] = float(counters.delta(before).plan_builds)
    cache_after = solver.cache_stats
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    m["api.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    # -- the ladder ---------------------------------------------------------------------
    sig = wl.ladder_matvec
    plan = solver.plan("matvec", shape=(sig.n, sig.m))
    batches = [
        [sig.variants[(v + i) % VARIANTS] for i in range(BATCH)]
        for v in range(VARIANTS)
    ]
    # A default two-shard service, traced so its queue and batch waits
    # show up as spans.
    ladder_service = SolverService(ArraySpec(W), n_shards=2, tracer=tracer)
    sig.submit(ladder_service, 0).result(timeout=120)
    submit_times: List[float] = []

    def round_trip(v: int) -> Any:
        start = time.perf_counter()
        future = sig.submit(ladder_service, v)
        submit_times.append(time.perf_counter() - start)
        return future.result(timeout=120)

    def traced_solve(v: int) -> Any:
        with tracer.start_trace("ladder solve"):
            return solver.solve(sig.problem(v))

    t = interleaved({
        "floor": lambda v: sig.variants[v][0] @ sig.variants[v][1] + sig.variants[v][2],
        "plan_key": lambda v: solver.plan_key(sig.problem(v)),
        # What Solver.solve calls once it has the plan.
        "execute": lambda v: plan.execute_problem(sig.problem(v)),
        "solve": lambda v: solver.solve(sig.problem(v)),
        "traced": traced_solve,
    }, LADDER_BUDGET_S)
    # A batch costs 16 solves, so it gets its own budget rather than
    # starving the rungs above of repetitions; the round trip runs on its
    # own because the shard thread's bookkeeping after each reply would
    # contend with the direct rungs.
    t["batch"] = interleaved(
        {"batch": lambda v: solver.solve_batch(MatVec, batches[v])},
        LADDER_BUDGET_S / 2,
    )["batch"]
    served = interleaved({"service": round_trip}, LADDER_BUDGET_S / 2)["service"]
    m["api.solve_us_p50"] = t["solve"] * 1e6
    m["core.execute_us_p50"] = t["execute"] * 1e6
    m["api.self_us_p50"] = (t["solve"] - t["execute"]) * 1e6
    m["api.plan_key_us_p50"] = t["plan_key"] * 1e6
    m["api.batch_us_per_op"] = t["batch"] / BATCH * 1e6
    m["api.batch_over_single"] = t["batch"] / BATCH / t["solve"]
    m["core.execute_over_floor"] = t["execute"] / t["floor"]
    m["service.added_ms_p50"] = (served - t["solve"]) * 1e3
    m["obs.trace_overhead_frac"] = 1.0 - t["solve"] / t["traced"]
    m["kernel.flops_computed"] = float(sig.flops())
    m["kernel.bytes_computed"] = float(sig.nbytes())
    m["kernel.gflops_s"] = sig.flops() / t["execute"] / 1e9

    # -- graph, nn, iterative -----------------------------------------------------------
    graph_sig = wl.ladder_graph
    mlp, mlp_int8 = wl.ladder_mlp
    programs = {
        name: GraphCompiler(solver).compile(s.graph(0))
        for name, s in (("graph", graph_sig), ("mlp", mlp), ("mlp_int8", mlp_int8))
    }
    jacobi = wl.ladder_jacobi
    t = interleaved({
        "compile": lambda v: GraphCompiler(solver).compile(graph_sig.graph(v)),
        "run": lambda v: programs["graph"].run(),
        "nn_build": lambda v: mlp.graph(v),
        "mlp": lambda v: mlp.solve(solver, v),
        "mlp_int8": lambda v: mlp_int8.solve(solver, v),
        "jacobi": lambda v: jacobi.solve(solver, v),
    }, LADDER_BUDGET_S)
    m["graph.compile_us_p50"] = t["compile"] * 1e6
    m["graph.run_us_p50"] = t["run"] * 1e6
    m["graph.stages"] = float(len(programs["graph"].stages))
    m["graph.fused_epilogues"] = float(programs["mlp"].fused_epilogues)
    m["nn.graph_build_us_p50"] = t["nn_build"] * 1e6
    m["nn.int8_over_float"] = t["mlp_int8"] / t["mlp"]
    sweeps = jacobi.solve(solver, 0).stats["iterations"]
    m["iterative.sweeps"] = float(sweeps)
    m["iterative.jacobi_us_per_sweep"] = t["jacobi"] / sweeps * 1e6

    # -- service ----------------------------------------------------------------------------------
    stats = ladder_service.stats()
    m["service.submit_us_p50"] = _p50(submit_times) * 1e6
    m["service.batch_size_mean"] = stats.mean_batch_size
    m["service.max_queue_depth"] = float(stats.max_queue_depth)
    m["service.queue_wait_ms_p50"] = _p50(_span_ms(tracer, "queue_wait"))
    m["service.batch_wait_ms_p50"] = _p50(_span_ms(tracer, "batch_assembly"))

    # -- store ----------------------------------------------------------------------------------
    if session.store is not None:
        after = session.store.stats
        store = session.store
        m["store.hits"] = float(after.hits - store_before.hits)
        m["store.misses"] = float(after.misses - store_before.misses)
        m["store.writes"] = float(after.writes - store_before.writes)
    else:
        store = TimedPlanStore(session.new_store_dir())
        reps = 3 if sig.n >= 256 else 20  # a 512-wide plan pickles to ~20 MB
        for _ in range(reps):
            store.save(plan.key, plan)
            store.load(plan.key)
        m["store.hits"] = m["store.misses"] = m["store.writes"] = 0.0
    m["store.load_ms_p50"] = _p50(store.load_seconds) * 1e3
    m["store.save_ms_p50"] = _p50(store.save_seconds) * 1e3
    m["store.writes_per_build"] = (
        m["store.writes"] / m["core.plan_builds"] if m["core.plan_builds"] else 0.0
    )

    # -- cold builds and span accounting -------------------------------------------------------
    m["core.build_ms_p50"] = _p50(_span_ms(tracer, "plan_lookup", cache="miss"))
    # Every service drains on close; only then must no span be open.
    ladder_service.close()
    session.close()
    m["obs.open_spans"] = float(tracer.open_spans)
    out = ROOT / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(out / f"{session.name}-seed{session.seed}.json")
    return m, dict(UNITS)

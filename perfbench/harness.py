"""One benchmark session: set a workload up, measure it, tear it down."""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import ArraySpec, Solver
from repro.instrumentation import counters
from repro.obs import Tracer
from repro.store import PlanStore

import measure
import workloads
from workloads import W

ROOT = Path(__file__).resolve().parent.parent
#: Scratch plan stores live under the launching run's own directory, which
#: the run removes when its workers have exited.
SCRATCH = ROOT / ".perfbench" / "tmp"

#: Unit of every metric this harness can report (extras included).
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "correct_frac": "fraction",
    "peak_rss_mb": "MB",
    "paper_step_agreement": "fraction",
    # Reported in the text lines only: a gated metric must be non-zero
    # on every declared workload, and these read 0 on most of them.
    "failed_frac": "fraction",
    "paper_step_mismatch": "count",
    "latency_samples": "count",
    "plan_builds": "count",
}


class Session:
    """A workload bound to the program objects that serve it."""

    def __init__(self, workload: str, seed: int, traced: bool = False):
        self.name = workload
        self.seed = seed
        self.traced = traced
        self.workload = workloads.build(workload, seed)
        self.tally = measure.Tally()
        self.notes: List[str] = []
        self.solver: Any = None
        self.store: Any = None
        self.tracer: Any = None
        self._scratch: List[Path] = []

    # -- set-up ----------------------------------------------------------------
    def new_store_dir(self) -> Path:
        path = SCRATCH / str(os.getppid()) / f"{os.getpid()}-{time.monotonic_ns()}"
        path.mkdir(parents=True)
        self._scratch.append(path)
        return path

    def setup(self) -> None:
        if self.traced:
            self.tracer = Tracer()
        if self.name == "plan-churn":
            store_class = TimedPlanStore if self.traced else PlanStore
            self.store = store_class(self.new_store_dir())
            self.solver = Solver(ArraySpec(W), store=self.store)
        else:
            self.solver = Solver(ArraySpec(W))
        measure.warm_up(self.workload, self.solver, self.tracer)

    def close(self) -> None:
        for path in self._scratch:
            shutil.rmtree(path, ignore_errors=True)
            try:
                path.parent.rmdir()  # the run's directory, once empty
            except OSError:
                pass
        self._scratch = []

    # -- the measured phase (untraced) -------------------------------------------
    def run_phase(self, seconds: float) -> Dict[str, float]:
        """Measure the workload once; end-to-end figures plus raw counts."""
        before = counters.snapshot()
        loop = measure.closed_loop(
            self.workload, self.solver, seconds, tally=self.tally
        )
        figures = {
            "throughput_ops_s": loop.throughput,
            "latency_p50_ms": measure.pct(loop.latencies, 50) * 1e3,
            "latency_p99_ms": measure.pct(loop.latencies, 99) * 1e3,
            "latency_samples": float(len(loop.latencies)),
        }
        self.notes.append(
            f"throughput: median of {len(loop.window_throughputs)} deck passes; "
            f"{loop.overall_throughput:.6g} ops/s over the whole phase"
        )
        figures["plan_builds"] = float(counters.delta(before).plan_builds)
        return figures

    def end_to_end(self, seconds: float) -> Tuple[Dict[str, float], Dict[str, str]]:
        """The untraced run: the measured phase, then every check."""
        figures = self.run_phase(seconds)
        # Peak memory of the measured phase, before the simulate sample
        # builds its own plans.
        rss = measure.peak_rss_mb()
        checked = self.simulate_sample()
        metrics = dict(figures)
        metrics["peak_rss_mb"] = rss
        measure.tally_metrics(metrics, self.tally)
        metrics["failed_frac"] = 1.0 - metrics["correct_frac"]
        metrics["paper_step_mismatch"] = float(len(self.tally.mismatched))
        self.notes.append(
            f"simulate bit-identity checked on: {', '.join(checked)}"
        )
        self.notes.append(
            "paper step mismatches: "
            + (", ".join(sorted(_describe_key(k) for k in self.tally.mismatched))
               or "none")
        )
        return metrics, dict(UNITS)

    def simulate_sample(self) -> List[str]:
        solver = self.solver
        return measure.simulate_sample(
            self.workload, lambda sig, v: sig.solve(solver, v), self.tally
        )


def _describe_key(key: Any) -> str:
    kind, shapes, w, options = key
    extra = " overlapped" if getattr(options, "overlapped", False) else ""
    return f"{kind}{extra} {shapes} w={w}"


class TimedPlanStore(PlanStore):
    """A ``PlanStore`` that times its own loads and saves (traced runs)."""

    def __init__(self, root: Any):
        super().__init__(root)
        self.load_seconds: List[float] = []
        self.save_seconds: List[float] = []

    def load(self, key):
        start = time.perf_counter()
        try:
            return super().load(key)
        finally:
            self.load_seconds.append(time.perf_counter() - start)

    def save(self, key, plan):
        start = time.perf_counter()
        try:
            return super().save(key, plan)
        finally:
            self.save_seconds.append(time.perf_counter() - start)

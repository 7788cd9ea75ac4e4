"""Measurement loops: warm-up, closed loop, correctness.

Every loop verifies every result it times, but outside the timed
region: results are collected per chunk, the clock stops, the chunk is
checked against its NumPy reference, and the clock restarts.  A result
that raised, was refused, or came back wrong counts as failed.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from repro import ArraySpec, ExecutionOptions, Solver

from workloads import DECK, VARIANTS, W, Signature, Workload

#: Operations per verification chunk of a closed loop.
CHUNK = 64
#: Chunks per throughput window: one pass of a deck.
WINDOW_CHUNKS = DECK // CHUNK

#: Computed flops the bit-identity sample may cover, cheapest signature
#: first (always at least one): every signature of the small workloads,
#: the three cheapest of solve-large.
SIMULATE_FLOPS = 400_000

Op = Tuple[Signature, int]


def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def machine_probe_ms() -> float:
    """Best of three runs of a fixed pure-Python loop, in ms.

    Not a metric of the program: it tells how fast the machine itself ran
    around a measurement, so runs made while it was slower (a shared host
    drifts by tens of percent over minutes) can be told apart.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Tally:
    """Correctness and paper-fidelity accounting of one phase."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Plan signatures whose solutions carry a paper prediction, and
    #: those among them whose measured steps differ from it.
    predicted: Set[Any] = field(default_factory=set)
    mismatched: Set[Any] = field(default_factory=set)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def record(self, sig: Signature, variant: int, result: Any) -> bool:
        """Count one attempted operation; ``result`` may be its exception."""
        self.attempted += 1
        if isinstance(result, Exception):
            self.fail(f"{sig.label}: raised {result!r}")
            return False
        return self.verify(sig, variant, result)

    def verify(self, sig: Signature, variant: int, result: Any) -> bool:
        try:
            ok = sig.check(variant, sig.values(result))
        except Exception as exc:  # a malformed result is a wrong result
            ok = False
            self.fail(f"{sig.label}: unreadable result ({exc!r})")
            return False
        if not ok:
            self.fail(f"{sig.label}: result differs from the NumPy reference")
            return False
        for solution in sig.solutions(result):
            if solution.predicted_steps is None:
                continue
            key = solution.plan_key
            self.predicted.add(key)
            if solution.measured_steps != solution.predicted_steps:
                self.mismatched.add(key)
        return True

    @property
    def step_agreement(self) -> float:
        """Share of predicted plan signatures whose steps match the paper."""
        if not self.predicted:
            return 1.0
        return 1.0 - len(self.mismatched) / len(self.predicted)


# -- op streams -------------------------------------------------------------------


def deck_source(workload: Workload) -> Callable[[int], List[Op]]:
    """Replays the workload's seeded deck, ``count`` ops at a time."""
    deck = workload.deck()
    position = [0]

    def take(count: int) -> List[Op]:
        ops = []
        for _ in range(count):
            ops.append(deck[position[0] % len(deck)])
            position[0] += 1
        return ops

    return take


def op_source(workload: Workload) -> Callable[[int], List[Op]]:
    if workload.stream is not None:
        return workload.stream.take
    return deck_source(workload)


# -- set-up -------------------------------------------------------------------------


def warm_up(workload: Workload, solver: Any, tracer: Any = None) -> None:
    """Run every (signature, variant) once: every cold plan build.

    With a ``tracer``, each call runs under an active span so cold
    builds show up as ``plan_lookup`` miss spans.
    """
    for sig in workload.signatures:
        for variant in range(VARIANTS):
            if tracer is not None:
                with tracer.start_trace(f"warm-up {sig.label}"):
                    sig.solve(solver, variant)
            else:
                sig.solve(solver, variant)


# -- closed loop ----------------------------------------------------------------------


@dataclass
class LoopResult:
    ops: int
    seconds: float
    #: Seconds per operation; a failed or wrong one reads ``inf``, since
    #: it misses any latency limit.
    latencies: List[float]
    #: Measured seconds of each chunk of ``CHUNK`` operations.
    chunk_seconds: List[float] = field(default_factory=list)

    @property
    def overall_throughput(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    @property
    def window_throughputs(self) -> List[float]:
        """Operations per second of each whole deck pass of the loop."""
        whole = len(self.chunk_seconds) // WINDOW_CHUNKS
        return [
            DECK / sum(self.chunk_seconds[i * WINDOW_CHUNKS:(i + 1) * WINDOW_CHUNKS])
            for i in range(whole)
        ]

    @property
    def throughput(self) -> float:
        """Median throughput over deck passes (overall, if none is whole).

        A pass runs every share of the mix once, so passes are alike;
        the median over them leaves out the seconds-long episodes in
        which a shared host runs slower.
        """
        windows = self.window_throughputs
        return float(np.median(windows)) if windows else self.overall_throughput


def closed_loop(
    workload: Workload,
    solver: Any,
    seconds: float,
    *,
    tracer: Any = None,
    max_ops: Optional[int] = None,
    tally: Optional[Tally] = None,
) -> LoopResult:
    """One thread, next op as soon as the last returns, for ``seconds``.

    ``max_ops`` instead stops after a fixed count (used by the
    benchmark's own tests, where counts must not depend on speed).
    """
    take = op_source(workload)
    tally = tally if tally is not None else Tally()
    latencies: List[float] = []
    chunk_seconds: List[float] = []
    measured = 0.0
    perf = time.perf_counter
    while True:
        budget = CHUNK if max_ops is None else min(CHUNK, max_ops - len(latencies))
        if budget <= 0 or (max_ops is None and measured >= seconds):
            break
        ops = take(budget)
        results: List[Any] = []
        chunk: List[float] = []
        chunk_start = perf()
        for sig, variant in ops:
            start = perf()
            try:
                if tracer is not None:
                    with tracer.start_trace(f"op {sig.kind}", kind=sig.kind):
                        result = sig.solve(solver, variant)
                else:
                    result = sig.solve(solver, variant)
            except Exception as exc:
                result = exc
            chunk.append(perf() - start)
            results.append(result)
        chunk_seconds.append(perf() - chunk_start)
        measured += chunk_seconds[-1]
        for index, ((sig, variant), result) in enumerate(zip(ops, results)):
            if not tally.record(sig, variant, result):
                chunk[index] = float("inf")
        latencies.extend(chunk)
    return LoopResult(len(latencies), measured, latencies, chunk_seconds)


# -- bit identity with the paper's machine --------------------------------------------------


def simulate_sample(
    workload: Workload,
    fast: Callable[[Signature, int], Any],
    tally: Tally,
) -> List[str]:
    """Check signatures for bit-identity with ``backend="simulate"``.

    ``fast(sig, variant)`` runs a signature the way the workload does.
    Signatures go cheapest first (by computed flops) while the sample
    stays within ``SIMULATE_FLOPS``.  A difference counts as a failure.
    """
    sim = Solver(ArraySpec(W), ExecutionOptions(backend="simulate"))
    checked: List[str] = []
    covered = 0
    for sig in sorted(workload.signatures, key=lambda s: s.flops()):
        covered += sig.flops()
        if checked and covered > SIMULATE_FLOPS:
            break
        exact = sig.values(sig.solve(sim, 0))
        fast_values = sig.values(fast(sig, 0))
        checked.append(sig.label)
        pairs = (
            list(zip(fast_values, exact)) if isinstance(exact, list)
            else [(fast_values, exact)]
        )
        tally.attempted += 1
        if not all(np.array_equal(a, b) for a, b in pairs):
            tally.fail(f"{sig.label}: differs from backend='simulate'")
    return checked


def tally_metrics(metrics: Dict[str, float], tally: Tally) -> None:
    metrics["correct_frac"] = (
        (tally.attempted - tally.failed) / tally.attempted if tally.attempted else 0.0
    )
    metrics["paper_step_agreement"] = tally.step_agreement

"""The benchmark's own tests: does the comparison see what it should?

Run with ``python3 -m pytest perfbench`` from the repository root (the
tier-1 suite does not collect this directory).  The sensitivity checks
make ``ExecutionPlan.execute`` cost 20% more -- inside this test process
only -- and require the comparison to flag ``throughput_ops_s`` on
solve-large, where the kernel does the work, and not to flag
plan-churn's store metrics, which a slower kernel must not move.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import weakref
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

SLOWDOWN = 0.20
PAIRS = 3


def make_execute_slower(monkeypatch: pytest.MonkeyPatch, when=lambda: True) -> None:
    """Every plan execution busy-waits 20% of its own duration more."""
    from repro.api.plan import ExecutionPlan

    for name in ("execute", "execute_problem", "execute_pair"):
        original = getattr(ExecutionPlan, name)

        def slower(self, *args, _original=original, **kwargs):
            start = time.perf_counter()
            result = _original(self, *args, **kwargs)
            if when():
                until = time.perf_counter() + SLOWDOWN * (time.perf_counter() - start)
                while time.perf_counter() < until:
                    pass
            return result

        monkeypatch.setattr(ExecutionPlan, name, slower)


def entries(section: str, prefix: str = "") -> list:
    return [e for e in compare.spec()[section] if e["name"].startswith(prefix)]


def test_slower_execute_flags_solve_large_throughput(monkeypatch):
    # The host's speed drifts by tens of percent within seconds, so each
    # operation of the deck runs twice back to back, once slowed, and the
    # pairs are blocks of operations measured side by side.
    session = harness.Session("solve-large", seed=11)
    session.setup()
    slowed = {"on": False}
    make_execute_slower(monkeypatch, when=lambda: slowed["on"])
    deck = session.workload.deck()
    base, slow = [], []
    try:
        for block in range(10):
            spent = {False: 0.0, True: 0.0}
            for index in range(40):
                sig, variant = deck[(block * 40 + index) % len(deck)]
                for flag in (False, True) if index % 2 else (True, False):
                    slowed["on"] = flag
                    start = time.perf_counter()
                    result = sig.solve(session.solver, variant)
                    spent[flag] += time.perf_counter() - start
                    session.tally.record(sig, variant, result)
            base.append({"throughput_ops_s": 40 / spent[False]})
            slow.append({"throughput_ops_s": 40 / spent[True]})
    finally:
        session.close()
    assert session.tally.failed == 0, session.tally.errors
    throughput = entries("end_to_end", "throughput_ops_s")
    flags = compare.compare(base, slow, throughput, paired=True)
    pairs = [(b["throughput_ops_s"], s["throughput_ops_s"]) for b, s in zip(base, slow)]
    assert [flag.metric for flag in flags] == ["throughput_ops_s"], pairs


def store_metrics(ops: int) -> dict:
    """plan-churn's store layer over a fixed number of operations."""
    session = harness.Session("plan-churn", seed=11, traced=True)
    session.setup()
    try:
        store = session.store
        before = store.stats
        measure.closed_loop(
            session.workload, session.solver, 0.0, max_ops=ops,
            tally=session.tally,
        )
        after = store.stats
        metrics = {
            "store.load_ms_p50": 1e3 * statistics.median(store.load_seconds),
            "store.save_ms_p50": 1e3 * statistics.median(store.save_seconds),
            "store.hits": float(after.hits - before.hits),
            "store.misses": float(after.misses - before.misses),
            "store.writes": float(after.writes - before.writes),
        }
    finally:
        session.close()
    assert session.tally.failed == 0, session.tally.errors
    return metrics


def test_slower_execute_spares_plan_churn_store_metrics(monkeypatch):
    base, slow = [], []
    for _ in range(PAIRS):
        base.append(store_metrics(1600))
        with monkeypatch.context() as patch:
            make_execute_slower(patch)
            slow.append(store_metrics(1600))
    assert base[0]["store.hits"] > 0 and base[0]["store.writes"] > 0
    flags = compare.compare(base, slow, entries("per_layer", "store."), paired=True)
    assert flags == []


def test_deck_is_exact_and_seeded():
    first = workloads.solve_small(3).deck()
    again = workloads.solve_small(3).deck()
    other = workloads.solve_small(4).deck()
    labels = [sig.label for sig, _v in first]
    assert labels == [sig.label for sig, _v in again]
    assert labels != [sig.label for sig, _v in other]
    assert sorted(labels) == sorted(sig.label for sig, _v in other)


def test_solve_small_keeps_the_odd_block_row_overlapped_shapes():
    labels = {sig.label for sig in workloads.solve_small(1).signatures}
    assert {"matvec-ovl 10x10", "matvec-ovl 12x12", "matvec-ovl 20x20"} <= labels


def test_int8_check_rejects_one_accumulator_step():
    sig = workloads.MLPSig(1, (16, 12, 8), int8=True)
    model = sig.model
    # The smallest change a wrong int8 code can make to the logits.
    step = model.weight_params[-1].scale * model.activation_params[-1].scale
    reference = sig.reference(0)
    assert sig.check(0, reference)
    wrong = reference.copy()
    wrong[0] += step
    assert not sig.check(0, wrong)


def test_plan_churn_keeps_no_operands_and_shapes_ignore_the_seed():
    stream = workloads.ChurnStream(1)
    ops = stream.take(64)
    alive = [weakref.ref(sig) for sig, _variant in ops]
    del ops
    gc.collect()
    assert all(ref() is None for ref in alive)
    assert stream.shapes == workloads.ChurnStream(2).shapes


def test_compare_flags_by_direction_and_bound():
    spec = [{"name": "t", "better": "higher", "bound": 0.1},
            {"name": "l", "better": "lower"}]
    base = [{"t": 100.0, "l": 1.0}, {"t": 102.0, "l": 1.0}, {"t": 98.0, "l": 1.0}]
    assert compare.compare(base, [{"t": 95.0, "l": 1.1}], spec) == []
    flags = compare.compare(base, [{"t": 85.0, "l": 1.3}], spec)
    assert [flag.metric for flag in flags] == ["t", "l"]


def test_paired_runs_resolve_a_change_inside_the_bound():
    spec = [{"name": "t", "better": "higher", "bound": 0.25}]
    base = [{"t": v} for v in (100.0, 120.0, 90.0, 110.0, 95.0)]
    slower = [{"t": 0.9 * run["t"]} for run in base]
    assert compare.compare(base, slower, spec) == []
    assert [f.metric for f in compare.compare(base, slower, spec, paired=True)] == ["t"]
    mixed = slower[:3] + base[3:]
    assert compare.compare(base, mixed, spec, paired=True) == []
    noisy = [{"t": run["t"] * k} for run, k in zip(base, (0.99, 0.7, 0.98, 0.97, 0.6))]
    assert compare.compare(base, noisy, spec, paired=True) == []

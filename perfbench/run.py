"""The repo benchmark: one command, three workloads, every result checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``layers.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report, including the environment fingerprint.

``setup_s`` is measured from process start: the run spawns worker
processes one after the other (at least ``SETUP_SAMPLES``), times each
from spawn to ``READY`` (import, construction, warm-up), and reports the
median.  The last worker goes on to the measured phase.  Each run also
writes its full record (fingerprint, every metric, notes) to
``.perfbench/results/`` in the checkout, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Set-up is sampled at least this many times, and more while the samples
#: add up to less than ``SETUP_BUDGET_S`` (up to ``SETUP_MAX_SAMPLES``).
SETUP_SAMPLES = 3
SETUP_MAX_SAMPLES = 7
SETUP_BUDGET_S = 3.0
#: Wall-clock budget of one whole run, all workers included.
RUN_BUDGET_S = 170.0
READY = "PERFBENCH-READY"

#: Spelled out so the launching run validates its arguments without
#: importing the program (workloads.py imports ``repro``).
WORKLOAD_NAMES = ("solve-small", "solve-large", "plan-churn")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the parent: spawn workers, time their set-up --------------------------------


def _spawn(args: argparse.Namespace, role: str, deadline: float) -> Tuple[float, List[str]]:
    """Run one worker; returns (seconds from spawn to READY, its output)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready: Optional[float] = None
    lines: List[str] = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if ready is None and line.strip() == READY:
                ready = time.perf_counter() - start
                continue
            lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"{role} worker exited with code {code}")
    return ready, lines


def orchestrate(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups: List[float] = []
    try:
        if args.trace:
            _setup, lines = _spawn(args, "trace", deadline)
        else:
            while len(setups) < SETUP_SAMPLES - 1 or (
                sum(setups) < SETUP_BUDGET_S
                and len(setups) < SETUP_MAX_SAMPLES - 1
            ):
                setups.append(_spawn(args, "setup", deadline)[0])
            last, lines = _spawn(args, "measure", deadline)
            setups.append(last)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "tmp" / str(os.getpid()), ignore_errors=True)
    if not lines or not lines[-1].startswith("{"):
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    metrics, units = record["metrics"], record["units"]
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    OUT.joinpath("results", name).write_text(json.dumps(record, indent=1))
    for line in lines[:-1]:
        print(line)
    if setups:
        print("# setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    for metric in sorted(metrics):
        print(f"{metric:<30} {metrics[metric]:<14.6g} {units[metric]}")
    declared = declared_metrics(args.trace)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": metrics[metric], "unit": units[metric]}
            for metric in declared
        },
    }))
    return 0


def declared_metrics(trace: int) -> List[str]:
    """The metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    return [entry["name"] for entry in spec[section]]


# -- the worker ----------------------------------------------------------------------


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    The benchmark's own modules import ``repro`` at the top, so this runs
    before any of them is imported.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {src}")


def fingerprint() -> Dict[str, Any]:
    """Where these numbers came from; never compare across fingerprints."""
    import numpy

    from repro import resolve_backend

    try:
        import numba  # noqa: F401 -- only whether it imports

        has_numba = True
    except ImportError:
        has_numba = False
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "auto_backend": resolve_backend("auto"),
        "git_sha": sha,
        "machine": platform.machine(),
    }


def _die_with_parent() -> None:
    """Have the kernel stop this worker if its launching run goes away."""
    try:
        import ctypes
        import signal

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass  # not Linux: the run still waits for and kills its workers


def worker(args: argparse.Namespace) -> int:
    """Set up, print READY, measure; the last line is the run record."""
    _die_with_parent()
    _import_program()
    import harness
    import measure

    session = harness.Session(args.workload, args.seed, traced=args.role == "trace")
    try:
        session.setup()
        print(READY, flush=True)
        if args.role == "setup":
            return 0
        probe = [measure.machine_probe_ms()]
        if args.role == "trace":
            import layers

            metrics, units = layers.run(session, args.seconds)
        else:
            metrics, units = session.end_to_end(args.seconds)
        probe.append(measure.machine_probe_ms())
    finally:
        session.close()
    tally = session.tally
    env = fingerprint()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# machine probe: {probe[0]:.2f} ms before, {probe[1]:.2f} ms after")
    for note in session.notes:
        print(f"# {note}")
    for error in tally.errors:
        print(f"# failure: {error}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "machine_probe_ms": probe,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": metrics,
        "units": units,
        "notes": session.notes,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.role:
        return worker(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs and flag what got worse.

Usage::

    python3 perfbench/compare.py [--paired] BASE NEW

``BASE`` and ``NEW`` are directories of run records (what
``perfbench/run.py`` writes to ``.perfbench/results/``) or single record
files.  Runs are grouped by workload and by traced/untraced, and each
metric's median is compared (``--paired``: the two sets ran the same
seeds, alternating sides, and runs pair up by seed):

* an end-to-end metric is flagged when its median is worse than the
  base median by more than the metric's ``bound`` in BENCHMARK.json --
  or, for runs made in alternating pairs (``paired=True``), when the new
  side is worse in at least nine pairs in ten and the median of the
  per-pair worsenings exceeds their interquartile range.  Pairs cancel
  the host's drift, so they resolve changes smaller than the bound,
  which has to cover that drift between unpaired sets;
* a per-layer metric (no bound) is flagged when it is worse by more than
  the base runs' own spread (interquartile range over median), and never
  by less than ``PER_LAYER_FLOOR``.

Runs whose environment fingerprints differ are not compared, and a
warning is printed when the machine probe (see ``measure.py``) moved by
more than 10% between the two sets.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The smallest relative worsening a per-layer metric is flagged for.
PER_LAYER_FLOOR = 0.15


@dataclass
class Flag:
    metric: str
    base: float
    new: float
    worse_by: float
    threshold: float

    def describe(self) -> str:
        return (
            f"{self.metric}: {self.base:.6g} -> {self.new:.6g} "
            f"(worse by {self.worse_by:.1%}, allowed {self.threshold:.1%})"
        )


def spec() -> Dict[str, List[Dict[str, object]]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, relative to ``base``."""
    change = new - base if better == "lower" else base - new
    if base == 0:
        return float("inf") if change > 0 else 0.0
    return change / abs(base)


def compare(
    base: Sequence[Mapping[str, float]],
    new: Sequence[Mapping[str, float]],
    entries: Iterable[Mapping[str, object]],
    paired: bool = False,
) -> List[Flag]:
    """Flags for every metric of ``entries`` whose median worsened.

    With ``paired``, ``base[i]`` and ``new[i]`` were measured back to back.
    """
    flags = []
    for entry in entries:
        name = str(entry["name"])
        better = str(entry["better"])
        before = [run[name] for run in base if name in run]
        after = [run[name] for run in new if name in run]
        if not before or not after:
            continue
        b, n = statistics.median(before), statistics.median(after)
        if "bound" not in entry:
            threshold = max(spread(before), PER_LAYER_FLOOR)
            worse = worsening(b, n, better)
        elif paired and len(before) == len(after) > 2:
            threshold = float(entry["bound"])  # type: ignore[arg-type]
            worse = worsening(b, n, better)
            steps = [worsening(x, y, better) for x, y in zip(before, after)]
            q1, middle, q3 = statistics.quantiles(steps, n=4)
            if sum(step > 0 for step in steps) >= 0.9 * len(steps) and middle > q3 - q1:
                threshold, worse = min(threshold, q3 - q1), middle
        else:
            threshold = float(entry["bound"])  # type: ignore[arg-type]
            worse = worsening(b, n, better)
        if worse > threshold:
            flags.append(Flag(name, b, n, worse, threshold))
    return flags


def load(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(file.read_text()) for file in files]


def grouped(records: Iterable[dict]) -> Dict[Tuple[str, int], List[Dict[str, float]]]:
    """Metrics per (workload, trace), in seed order."""
    groups: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for record in records:
        groups[(record["workload"], record["trace"])].append(record)
    return {
        key: [r["metrics"] for r in sorted(runs, key=lambda r: r["seed"])]
        for key, runs in groups.items()
    }


def main(argv: Sequence[str]) -> int:
    paired = "--paired" in argv
    argv = [arg for arg in argv if arg != "--paired"]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = load(Path(argv[0]))
    new = load(Path(argv[1]))
    fingerprints = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    fingerprints = {
        json.dumps({k: v for k, v in json.loads(f).items() if k != "git_sha"})
        for f in fingerprints
    }
    if len(fingerprints) > 1:
        print("perfbench: runs come from different environments; not compared",
              file=sys.stderr)
        return 2
    probes = [
        statistics.median(p for r in runs for p in r.get("machine_probe_ms", []))
        for runs in (base, new)
    ]
    if abs(probes[1] / probes[0] - 1.0) > 0.1:
        print(f"perfbench: warning: the machine ran at a different speed "
              f"(probe {probes[0]:.2f} ms vs {probes[1]:.2f} ms)", file=sys.stderr)
    benchmark = spec()
    base_groups, new_groups = grouped(base), grouped(new)
    flagged = 0
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace = key
        entries = benchmark["per_layer" if trace else "end_to_end"]
        flags = compare(base_groups[key], new_groups[key], entries, paired)
        runs = f"{len(base_groups[key])} vs {len(new_groups[key])} runs"
        print(f"{workload} ({'traced' if trace else 'untraced'}, {runs}): "
              f"{len(flags) or 'no'} regression(s)")
        for flag in flags:
            print(f"  {flag.describe()}")
        flagged += len(flags)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python
"""Gate the CI bench job on complete, non-regressed perf artifacts.

A silently-skipped benchmark used to produce an empty (or partial)
``BENCH_*.json`` that still uploaded fine — the artifact looked alive
while carrying no numbers.  This checker fails loudly instead: each
artifact must exist and contain every expected top-level section, and
every section with a speedup bar in ``SPEEDUP_BARS`` must have recorded
a ``speedup`` at or above that bar.  This is the only place the bars
are enforced: the bench modules record the speedups without asserting
them.

Run:  python benchmarks/check_bench_artifacts.py [repo_root]
Exit: 0 when every artifact is complete, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _bench_util import SPEEDUP_BARS  # noqa: E402  (sibling module)

#: artifact -> top-level keys the bench suite must have recorded
EXPECTED_KEYS = {
    "BENCH_engine.json": (
        "cpu_count", "host", "quick_snapshot", "telemetry_overhead",
    ),
    "BENCH_sim.json": (
        "cpu_count", "host", "event_sim_kernel", "stateful_batch", "sim_sweep",
    ),
    "BENCH_fleet.json": (
        "cpu_count", "host", "fleet_kernel", "queue_aware_routing",
        "fault_tolerant_routing", "overload_resilience", "fleet_sweep",
    ),
}


def check_artifacts(root: Path) -> list:
    """All problems found across the expected artifacts (empty = pass)."""
    problems = []
    for name, keys in EXPECTED_KEYS.items():
        path = root / name
        if not path.exists():
            problems.append(f"{name}: missing (bench did not write it)")
            continue
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            problems.append(f"{name}: unparsable JSON ({exc})")
            continue
        for key in keys:
            if key not in data:
                problems.append(f"{name}: missing top-level key {key!r}")
        for section, bar in SPEEDUP_BARS.get(name, {}).items():
            if section not in data:
                continue  # already reported above if expected
            speedup = data[section].get("speedup")
            if not isinstance(speedup, (int, float)):
                problems.append(
                    f"{name}: section {section!r} recorded no 'speedup'"
                )
            elif speedup < bar:
                problems.append(
                    f"{name}: {section} speedup {speedup:.2f}x regressed "
                    f"below its {bar:.0f}x bar"
                )
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    problems = check_artifacts(root)
    if problems:
        print("bench artifact check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    for name in EXPECTED_KEYS:
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

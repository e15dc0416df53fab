"""Shared helpers for the perf-artifact benchmarks.

Every bench module records its numbers into a ``BENCH_*.json`` file at
the repo root via :func:`record_bench` (read-modify-write, so cases
compose across pytest invocations).  Each write also refreshes a
``host`` block — platform, Python version, CPU count, UTC timestamp —
so artifacts collected from different CI runners are comparable.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

#: repo root (benchmarks/ lives directly under it)
REPO_ROOT = Path(__file__).resolve().parent.parent


def host_metadata() -> dict:
    """Provenance of the machine producing a perf artifact."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python_version": sys.version.split()[0],
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def record_bench(path: Path, section: str, payload: dict) -> None:
    """Merge one section into the perf artifact at ``path``."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data["cpu_count"] = os.cpu_count()  # kept top-level for compatibility
    data["host"] = host_metadata()
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


#: speedup bars per artifact section, enforced by the CI artifact
#: checker (check_bench_artifacts.py) on the recorded numbers.  The
#: bench modules record these speedups but do not assert them: a single
#: wall-clock ratio on a shared 2-core host dips below a bar now and
#: then.  Sections whose recorded speedup is informational only (e.g.
#: sweep serial/2-jobs ratios, which need real cores) are absent.
SPEEDUP_BARS = {
    "BENCH_engine.json": {"engine_throughput": 5.0},
    "BENCH_sim.json": {"event_sim_kernel": 5.0, "stateful_batch": 5.0},
    "BENCH_fleet.json": {
        "fleet_kernel": 5.0,
        "queue_aware_routing": 5.0,
    },
}

#: bars that only hold with real cores: section -> (speedup bar, least
#: recorded ``host.cpu_count`` at which the checker applies it).  The
#: sharded sweep runs 4 worker processes, so a 2-core host records its
#: speedup without being held to the bar.
MULTICORE_BARS = {
    "BENCH_engine.json": {"sharded_sweep": (2.0, 4)},
}

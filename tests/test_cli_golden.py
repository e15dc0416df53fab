"""Byte-for-byte stdout pins of the deterministic ``--quick`` commands.

Each command runs through ``cli.main`` in-process and its stdout must
equal the text file of the same name under ``tests/golden/``; a mismatch
fails with a unified diff.  A change that alters output on purpose
rewrites the files (``PYTHONPATH=src python tests/test_cli_golden.py``)
and says why in CHANGES.md.  ``overhead`` prints timings and ``sweep``
repeats fig1, fig2 and variation, so neither is pinned.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

import pytest

import repro.cli as cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "fig1": ["fig1", "--quick"],
    "fig2": ["fig2", "--quick"],
    "variation": ["variation", "--quick"],
    "policies": ["policies", "--quick"],
    "grid": ["grid", "--quick"],
    "sim-sweep": ["sim-sweep", "--quick"],
    "fleet-sweep": ["fleet-sweep", "--quick"],
    # 16 seeds in one chunk: the batched slotted engine
    "fig1-seeds16": ["fig1", "--quick", "--seeds", "16", "--batch", "16"],
    # no brownout; retries, drops, sheds and breaker trips all fire
    "fleet-sweep-overload": [
        "fleet-sweep", "--quick", "--devices", "2", "--router", "power_aware",
        "--mtbf", "120", "--mttr", "15", "--slo", "30", "--breaker", "3",
        "--retry-budget", "16",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert cli.main(COMMANDS[name]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / f"{name}.txt").read_text()
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            fromfile=f"golden/{name}.txt", tofile=" ".join(COMMANDS[name])))
        pytest.fail(f"stdout of {' '.join(COMMANDS[name])!r} changed:\n{diff}")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}")
        (GOLDEN / f"{name}.txt").write_text(out.getvalue())
        print(f"wrote golden/{name}.txt")

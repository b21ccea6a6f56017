"""Provenance stamped on every benchmark record.

``perfbench/run.py`` prints it beside each measurement, and the historical
``BENCH_*.json`` records that ``repro ingest --bench`` reads carry it, so throughput
numbers are only ever compared between runs of the same code on the same machine.
"""

from __future__ import annotations

import platform
import subprocess
from pathlib import Path

import numpy as np


def _git(*args: str) -> str | None:
    try:
        result = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), *args],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def _git_sha() -> str | None:
    """The repository HEAD commit (``-dirty`` suffixed when the tree has local
    changes, so bench numbers are never attributed to code that did not run), or
    ``None`` outside a git checkout."""
    sha = _git("rev-parse", "HEAD")
    if not sha:
        return None
    status = _git("status", "--porcelain")
    return f"{sha}-dirty" if status else sha


def bench_provenance() -> dict:
    """Interpreter, library and machine provenance recorded with every bench run.

    Throughput numbers are only comparable between records whose provenance matches;
    the trajectory file keeps it so regressions are never chased across machines.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }

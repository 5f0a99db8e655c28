"""Shared benchmark configuration.

Every benchmark regenerates one table/figure of the paper's evaluation
(§6) or an ablation called out in DESIGN.md.  Rendered artifacts are
written under ``benchmarks/out/`` and echoed to stdout (run with ``-s``
to see them inline).  Both writers, :func:`emit` for text and
:func:`emit_json` for JSON, stamp the artifact with :func:`provenance`,
so every regenerated file names the commit and machine it was measured
on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def emit(out_dir: Path, name: str, text: str) -> None:
    """Write a rendered text artifact, stamped on its last line, and echo it."""
    text = f"{text}\n{provenance()}"
    (out_dir / name).write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def emit_json(out_dir: Path, name: str, payload: dict[str, Any]) -> None:
    """Write a JSON artifact with a ``provenance`` key."""
    text = json.dumps({**payload, "provenance": provenance()}, indent=2)
    (out_dir / name).write_text(text + "\n")


def provenance() -> str:
    """One line naming the commit and the machine an artifact was
    measured on (``+dirty``: the working tree had uncommitted changes)."""

    def git(*cmd: str) -> str:
        try:
            proc = subprocess.run(
                ["git", *cmd], cwd=OUT_DIR.parent, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return ""
        return proc.stdout.strip() if proc.returncode == 0 else ""

    sha = git("rev-parse", "--short=12", "HEAD") or "unknown"
    if git("status", "--porcelain", "--untracked-files=no"):
        sha += "+dirty"
    cpu = platform.processor() or "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"measured at commit {sha} on {cpu}, {os.cpu_count()} cores, "
        f"Python {platform.python_version()}"
    )

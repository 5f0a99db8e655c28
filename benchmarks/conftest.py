"""Shared benchmark configuration.

Every benchmark regenerates one table/figure of the paper's evaluation
(§6) or an ablation called out in DESIGN.md.  Rendered artifacts are
written under ``benchmarks/out/`` and echoed to stdout (run with ``-s``
to see them inline).
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def emit(out_dir: Path, name: str, text: str) -> None:
    """Write a rendered artifact and echo it."""
    path = out_dir / name
    path.write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


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

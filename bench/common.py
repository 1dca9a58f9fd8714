"""Helpers shared by the workloads: the per-run record, percentiles,
digests and the environment record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1


@dataclass
class RunRecord:
    """What one workload measured in one run.

    `unit_rates` holds one throughput sample per completed unit of work,
    `setup_s` one time per set-up timed on its own, and `op_latency_s` one
    latency per operation (an agent tick, an RPC, a run_flows call, a CLI
    command).
    `layer` holds per-unit values that only the workload can see, such as
    runs stored, and `remote_traces` the spans of other processes.
    """

    units: int = 0
    measured_s: float = 0.0
    unit_rates: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    op_latency_s: list[float] = field(default_factory=list)
    rss_peak_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    layer: dict[str, list[float]] = field(default_factory=dict)
    remote_traces: list = field(default_factory=list)

    def fail(self, kind: str, n: int = 1) -> None:
        if n:
            self.failed += n
            self.failures[kind] = self.failures.get(kind, 0) + n

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def note(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(float(value))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float))) if len(values) else 0.0


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True).encode()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def self_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _fs_type(path: Path) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def env_record(root: Path, scratch: Path, seed: int, workload: str) -> dict:
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "scratch_dir": str(scratch.relative_to(root)),
        "scratch_fs": _fs_type(scratch),
        "control_plane_transport": "TCP over loopback (127.0.0.1)",
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
    }

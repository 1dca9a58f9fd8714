"""Filesystem results store.

Completed runs live under `<root>/<experiment_id>/<node_id>/<run_start>/`
where run_start is basic-format ISO 8601 UTC (YYYYMMDDTHHMMSSZ). Every run
directory holds `manifest.json`, `stdout.log`, and the experiment's data
files. Uploads are atomic enough for a desk-scale testbed: files land in
place, the manifest is written last, to a temporary file that is renamed
over `manifest.json`, so a manifest is never seen half written.
"""

from __future__ import annotations

import json
import os
import shutil
from datetime import datetime, timezone
from pathlib import Path


class UploadFailure(RuntimeError):
    """Upload did not complete; the caller must keep local artifacts."""


def run_start_label(start_ms: int) -> str:
    dt = datetime.fromtimestamp(start_ms / 1000.0, tz=timezone.utc)
    return dt.strftime("%Y%m%dT%H%M%SZ")


class ResultsStore:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # tests can set this to a callable that raises to simulate outages
        self.fault_hook = None

    def _experiment_dir(self, experiment_id: str, *parts: str) -> Path:
        """root/experiment_id/parts...; ids are untrusted, so a path that
        resolves outside the root raises ValueError."""
        path = self.root.joinpath(experiment_id, *parts)
        if not path.resolve().is_relative_to(self.root.resolve()):
            raise ValueError(f"{path} is outside the store root")
        return path

    def run_dir(self, experiment_id: str, node_id: str, start_ms: int) -> Path:
        return self._experiment_dir(experiment_id, node_id, run_start_label(start_ms))

    def upload(self, experiment_id: str, node_id: str, start_ms: int,
               src_dir, manifest: dict) -> Path:
        """Copy a finished run's artifacts into the store; returns the run
        directory. Raises UploadFailure without leaving a partial manifest."""
        if self.fault_hook is not None:
            self.fault_hook()
        src = Path(src_dir)
        dest = self.run_dir(experiment_id, node_id, start_ms)
        try:
            dest.mkdir(parents=True, exist_ok=True)
            for item in sorted(src.iterdir()):
                if item.is_file():
                    shutil.copy2(item, dest / item.name)
            tmp = dest / ".manifest.json.tmp"
            try:
                tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
                os.replace(tmp, dest / "manifest.json")
            except OSError:
                tmp.unlink(missing_ok=True)
                raise
        except OSError as exc:
            raise UploadFailure(str(exc)) from exc
        return dest

    def read_manifest(self, experiment_id: str, node_id: str,
                      start_ms: int) -> dict:
        path = self.run_dir(experiment_id, node_id, start_ms) / "manifest.json"
        return json.loads(path.read_text())

    def list_runs(self, experiment_id: str) -> list[tuple[str, str, Path]]:
        """(node_id, run_start_label, path) for every stored run."""
        base = self._experiment_dir(experiment_id)
        out = []
        if not base.is_dir():
            return out
        for node_dir in sorted(base.iterdir()):
            if not node_dir.is_dir():
                continue
            for run_dir in sorted(node_dir.iterdir()):
                if run_dir.is_dir():
                    out.append((node_dir.name, run_dir.name, run_dir))
        return out

    def fetch(self, experiment_id: str, dest) -> Path:
        """Mirror an experiment's subtree to a local directory."""
        src = self._experiment_dir(experiment_id)
        if not src.is_dir():
            raise FileNotFoundError(f"no results for {experiment_id!r}")
        dest = Path(dest) / experiment_id
        shutil.copytree(src, dest, dirs_exist_ok=True)
        return dest

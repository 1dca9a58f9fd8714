import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import leobench
from leobench.store import ResultsStore, UploadFailure, run_start_label


def test_run_start_label_is_utc_basic_iso():
    assert run_start_label(0) == "19700101T000000Z"
    # 2021-06-01 12:34:56 UTC
    assert run_start_label(1622550896000) == "20210601T123456Z"


def test_run_dir_layout(tmp_path):
    store = ResultsStore(tmp_path / "root")
    d = store.run_dir("exp-a", "node-1", 1622550896000)
    assert d == tmp_path / "root" / "exp-a" / "node-1" / "20210601T123456Z"


@pytest.mark.parametrize("eid,nid", [("../../escape", "n1"), ("e", "../..")])
def test_run_dir_refuses_paths_outside_root(tmp_path, eid, nid):
    store = ResultsStore(tmp_path / "root")
    with pytest.raises(ValueError):
        store.run_dir(eid, nid, 0)


@pytest.mark.parametrize("call", ["list_runs", "fetch"])
def test_experiment_lookups_refuse_paths_outside_root(tmp_path, call):
    store = ResultsStore(tmp_path / "root")
    secret = tmp_path / "secret"
    (secret / "n1" / "20210601T123456Z").mkdir(parents=True)
    (secret / "n1" / "20210601T123456Z" / "key.txt").write_text("x")
    dest = tmp_path / "dest"
    with pytest.raises(ValueError):
        if call == "list_runs":
            store.list_runs("../secret")
        else:
            store.fetch("../secret", dest)
    assert not dest.exists()


def test_upload_copies_files_and_writes_manifest_last(tmp_path):
    store = ResultsStore(tmp_path / "root")
    src = tmp_path / "run"
    src.mkdir()
    (src / "ping.csv").write_text("ts_ms,rtt_ms,lost\n0,30.0,0\n")
    (src / "stdout.log").write_text("started\n")
    manifest = {"state": "COMPLETED", "row_count": 1}

    dest = store.upload("exp-a", "node-1", 5000, src, manifest)

    assert sorted(p.name for p in dest.iterdir()) == [
        "manifest.json", "ping.csv", "stdout.log"]
    assert store.read_manifest("exp-a", "node-1", 5000) == manifest
    assert (dest / "ping.csv").read_text().startswith("ts_ms")


def test_fault_hook_failure_leaves_no_manifest(tmp_path):
    store = ResultsStore(tmp_path / "root")
    src = tmp_path / "run"
    src.mkdir()
    (src / "a.csv").write_text("x\n")

    def down():
        raise UploadFailure("store unreachable")

    store.fault_hook = down
    with pytest.raises(UploadFailure):
        store.upload("exp-a", "node-1", 0, src, {"state": "COMPLETED"})
    assert not store.run_dir("exp-a", "node-1", 0).exists()

    store.fault_hook = None
    store.upload("exp-a", "node-1", 0, src, {"state": "COMPLETED"})
    assert store.run_dir("exp-a", "node-1", 0).exists()


def test_manifest_write_failing_part_way_keeps_the_old_manifest(tmp_path):
    """A re-upload whose manifest write fails part-way raises UploadFailure
    and leaves the manifest already stored byte for byte as it was. A child
    process under a 64-byte file-size limit makes the write fail for real
    (EFBIG) after its first 64 bytes."""
    store = ResultsStore(tmp_path / "root")
    src = tmp_path / "run"
    src.mkdir()
    (src / "a.csv").write_text("x\n")
    dest = store.upload("exp-a", "node-1", 0, src, {"state": "FAILED"})
    before = (dest / "manifest.json").read_bytes()
    script = textwrap.dedent("""
        import resource, signal, sys
        from leobench.store import ResultsStore, UploadFailure
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (64, resource.RLIM_INFINITY))
        try:
            ResultsStore(sys.argv[1]).upload(
                "exp-a", "node-1", 0, sys.argv[2],
                {"state": "COMPLETED", "note": "x" * 500})
        except UploadFailure:
            sys.exit(3)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(leobench.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", script, str(store.root), str(src)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 3, child.stderr
    assert (dest / "manifest.json").read_bytes() == before
    assert sorted(p.name for p in dest.iterdir()) == ["a.csv", "manifest.json"]


def test_list_runs_and_fetch_mirror(tmp_path):
    store = ResultsStore(tmp_path / "root")
    src = tmp_path / "run"
    src.mkdir()
    (src / "data.csv").write_text("1\n")
    store.upload("exp-a", "node-1", 0, src, {"state": "COMPLETED"})
    store.upload("exp-a", "node-2", 60000, src, {"state": "FAILED"})

    runs = store.list_runs("exp-a")
    assert [(n, label) for n, label, _ in runs] == [
        ("node-1", "19700101T000000Z"), ("node-2", "19700101T000100Z")]
    assert store.list_runs("nope") == []

    mirror = store.fetch("exp-a", tmp_path / "out")
    copied = sorted(str(p.relative_to(mirror)) for p in mirror.rglob("*") if p.is_file())
    assert "node-1/19700101T000000Z/manifest.json" in copied
    assert "node-2/19700101T000100Z/data.csv" in copied
    obj = json.loads((mirror / "node-2" / "19700101T000100Z" / "manifest.json").read_text())
    assert obj["state"] == "FAILED"

    with pytest.raises(FileNotFoundError):
        store.fetch("missing", tmp_path / "out2")

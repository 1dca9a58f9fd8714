import errno
import hashlib
import json
import random
import re
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leobench import orchestrator
from leobench.clocks import SimClock
from leobench.orchestrator import (MAX_TRIGGER_NODES, BadMessage, BadSpec, BadTrigger,
                                   ConflictError, DuplicateExperiment,
                                   ExperimentSpec, LocalClient, Orchestrator,
                                   OrchestratorClient, OrchestratorError,
                                   UnknownNode, UnknownRun, windows_overlap)
from leobench.triggers import node_count, parse_trigger

NODES = ["n1", "n2", "n3"]


def make_spec(eid, nodes=("n1",), windows=((0, 60000),), overhead="OVERHEAD",
              kind="PING", trigger=None, servers=()):
    return ExperimentSpec(
        id=eid, kind=kind, overhead=overhead, clients=tuple(nodes),
        servers=tuple(servers),
        windows=None if trigger else tuple(windows),
        trigger=trigger)


def make_orch(**kwargs):
    kwargs.setdefault("clock", SimClock(0))
    return Orchestrator(NODES, **kwargs)


# --- spec validation ------------------------------------------------------

def test_spec_requires_exactly_one_schedule_form():
    with pytest.raises(BadSpec):
        ExperimentSpec(id="x", kind="PING", overhead="OVERHEAD",
                       clients=("n1",), windows=((0, 10),),
                       trigger={"trigger": "latency_ms > 50"})
    with pytest.raises(BadSpec):
        ExperimentSpec(id="x", kind="PING", overhead="OVERHEAD",
                       clients=("n1",))


def test_spec_field_validation():
    with pytest.raises(BadSpec):
        make_spec("x", kind="FLOOD")
    with pytest.raises(BadSpec):
        make_spec("x", overhead="SOMETIMES")
    with pytest.raises(BadSpec):
        make_spec("x", nodes=())
    with pytest.raises(BadSpec):
        make_spec("x", windows=((60, 60),))
    with pytest.raises(BadSpec):
        make_spec("", nodes=("n1",))


@pytest.mark.parametrize("eid,nodes", [
    ("../../escape", ("n1",)), (".hidden", ("n1",)), ("a/b", ("n1",)),
    ("ok", ("../n1",)), ("ok", ("n1", "n 2")),
])
def test_spec_rejects_ids_that_are_not_path_safe(eid, nodes):
    with pytest.raises(BadSpec):
        make_spec(eid, nodes=nodes)


@pytest.mark.parametrize("expr", [
    "visible_sats(25) >= 0",
    "latency_ms > 80 AND NOT (visible_sats(10) + 1 < 3)",
])
def test_trigger_reading_orbital_state_refused_at_submit(expr):
    """No agent holds an OrbitalContext, so such a trigger would never fire."""
    orch = make_orch()
    spec = make_spec("orb", trigger={"trigger": expr, "max_runtime_s": 10})
    with pytest.raises(BadSpec, match="visible_sats"):
        orch.submit_experiment(spec)
    reply = orch.handle_message({"type": "SUBMIT", "spec": spec.to_json()})
    assert reply["error"]["kind"] == "BadSpec"
    assert orch.query() == []


@pytest.mark.parametrize("tail,kind", [("", "BadSpec"), (" + visible_sats(25)", "BadSpec")])
def test_long_trigger_chain_gets_a_reply(tail, kind):
    """The parser builds a +/- chain in a loop, so 2000 terms nest deeper
    than the recursion limit; SUBMIT still counts the nodes and refuses."""
    orch = make_orch()
    expr = "+".join(["1"] * 2000) + tail + " > 0"
    spec = make_spec("long", trigger={"trigger": expr, "max_runtime_s": 10})
    reply = orch.handle_message({"type": "SUBMIT", "spec": spec.to_json()})
    assert (reply.get("error") or {}).get("kind") == kind, reply
    wire = json.loads(orch._answer(json.dumps(
        {"type": "SUBMIT", "spec": dict(spec.to_json(), id="wire")}).encode()))
    assert (wire.get("error") or {}).get("kind") == kind, wire


@pytest.mark.parametrize("expr", [
    "(" * 1500 + "latency_ms > 5" + ")" * 1500,
    "not " * 1500 + "latency_ms > 5",
], ids=["parentheses", "nots"])
def test_deeply_nested_trigger_gets_a_bad_trigger_reply(expr):
    orch = make_orch()
    spec = {"id": "deep", "kind": "PING", "overhead": "NO_OVERHEAD", "clients": ["n1"],
            "schedule": {"trigger": {"trigger": expr, "max_runtime_s": 10}}}
    reply = orch.handle_message({"type": "SUBMIT", "spec": spec})
    assert reply["error"]["kind"] == "BadTrigger", reply
    wire = json.loads(orch._answer(json.dumps({"type": "SUBMIT", "spec": spec}).encode()))
    assert wire["error"]["kind"] == "BadTrigger", wire
    assert orch.query() == []


def test_trigger_node_bound_at_submit():
    def chain(terms):   # 2 * terms + 1 nodes
        return {"trigger": "+".join(["latency_ms"] * terms) + " > 0", "max_runtime_s": 10}
    orch = make_orch()
    most = (MAX_TRIGGER_NODES - 1) // 2
    assert node_count(parse_trigger(chain(most)["trigger"])) <= MAX_TRIGGER_NODES
    orch.submit_experiment(make_spec("most", trigger=chain(most)))
    with pytest.raises(BadSpec, match="nodes"):
        orch.submit_experiment(make_spec("over", trigger=chain(most + 1)))
    assert [e["id"] for e in orch.query()] == ["most"]


def test_bad_trigger_rejected_at_parse():
    with pytest.raises(BadTrigger):
        make_spec("x", trigger={"trigger": "latency_ms >=> 2"})
    with pytest.raises(BadTrigger):
        make_spec("x", trigger={"trigger": "no_such_metric > 1"})
    # a good one parses
    spec = make_spec("x", trigger={"trigger": "latency_ms >= 2*mavg(latency_ms,5)",
                                   "max_runtime_s": 30})
    assert spec.binding().max_runtime_s == 30


def test_spec_json_roundtrip():
    spec = make_spec("rt", nodes=("n1", "n2"), windows=((0, 10), (20, 30)),
                     servers=("s1",))
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec

    trig = make_spec("rt2", trigger={"trigger": "latency_ms > 80",
                                     "max_runtime_s": 10, "budget_per_day": 3})
    assert ExperimentSpec.from_json(trig.to_json()) == trig


def test_from_json_missing_keys():
    with pytest.raises(BadSpec):
        ExperimentSpec.from_json({"id": "x", "kind": "PING"})


# --- submission and conflicts --------------------------------------------

def test_windows_overlap_half_open():
    assert windows_overlap((0, 60), (59, 100))
    assert not windows_overlap((0, 60), (60, 120))
    assert not windows_overlap((60, 120), (0, 60))
    assert windows_overlap((10, 20), (0, 100))


def test_submit_unknown_node():
    orch = make_orch()
    with pytest.raises(UnknownNode):
        orch.submit_experiment(make_spec("x", nodes=("ghost",)))


def test_submit_duplicate_id():
    orch = make_orch()
    orch.submit_experiment(make_spec("x"))
    with pytest.raises(DuplicateExperiment):
        orch.submit_experiment(make_spec("x", windows=((90000, 95000),)))


def test_overhead_overlap_conflicts_and_touching_accepted():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", windows=((0, 60000),)))
    with pytest.raises(ConflictError) as exc:
        orch.submit_experiment(make_spec("b", windows=((59000, 70000),)))
    assert exc.value.clashing_ids == ["a"]
    # touching half-open windows do not conflict
    orch.submit_experiment(make_spec("c", windows=((60000, 120000),)))


def test_no_overhead_never_conflicts():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", windows=((0, 60000),)))
    orch.submit_experiment(make_spec("b", windows=((0, 60000),),
                                     overhead="NO_OVERHEAD"))
    orch.submit_experiment(make_spec("c", windows=((0, 60000),),
                                     overhead="NO_OVERHEAD"))
    # and overhead against existing no-overhead is also fine
    orch.submit_experiment(make_spec("d", windows=((70000, 80000),)))


def test_disjoint_nodes_do_not_conflict():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", nodes=("n1",)))
    orch.submit_experiment(make_spec("b", nodes=("n2",)))


def test_conflict_lists_every_clashing_experiment():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", windows=((0, 30000),)))
    orch.submit_experiment(make_spec("b", windows=((30000, 60000),)))
    with pytest.raises(ConflictError) as exc:
        orch.submit_experiment(make_spec("c", windows=((20000, 40000),)))
    assert exc.value.clashing_ids == ["a", "b"]


def test_server_node_counts_as_occupied():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", nodes=("n1",), servers=("n2",),
                                     kind="BULK_FLOW"))
    with pytest.raises(ConflictError):
        orch.submit_experiment(make_spec("b", nodes=("n2",)))
    # unregistered server endpoints are outside our control, no conflict
    orch.submit_experiment(make_spec("c", nodes=("n3",),
                                     servers=("8.8.8.8",)))


def test_trigger_bound_never_statically_conflicts():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", windows=((0, 86400000),)))
    orch.submit_experiment(make_spec(
        "b", trigger={"trigger": "latency_ms > 80", "max_runtime_s": 10}))


# --- randomized sequences vs brute-force oracle ---------------------------

def oracle_clashes(accepted, cand):
    """Interval overlap decided by expanding tiny integer windows."""
    if cand.overhead != "OVERHEAD" or cand.windows is None:
        return []
    cand_nodes = set(cand.clients)
    cand_ts = set()
    for s, e in cand.windows:
        cand_ts |= set(range(s, e))
    out = []
    for sp in accepted:
        if sp.overhead != "OVERHEAD" or sp.windows is None:
            continue
        if not (cand_nodes & set(sp.clients)):
            continue
        their = set()
        for s, e in sp.windows:
            their |= set(range(s, e))
        if cand_ts & their:
            out.append(sp.id)
    return sorted(out)


def test_randomized_submissions_match_oracle():
    rng = np.random.default_rng(42)
    for trial in range(150):
        orch = make_orch()
        accepted = []
        n_specs = int(rng.integers(6, 14))
        for i in range(n_specs):
            n_nodes = int(rng.integers(1, 3))
            nodes = tuple(rng.choice(NODES, size=n_nodes, replace=False))
            n_win = int(rng.integers(1, 3))
            wins = []
            for _ in range(n_win):
                s = int(rng.integers(0, 40))
                e = s + int(rng.integers(1, 15))
                wins.append((s, e))
            overhead = "OVERHEAD" if rng.random() < 0.7 else "NO_OVERHEAD"
            spec = make_spec(f"t{trial}-e{i}", nodes=nodes,
                             windows=tuple(wins), overhead=overhead)
            expect = oracle_clashes(accepted, spec)
            if expect:
                with pytest.raises(ConflictError) as exc:
                    orch.submit_experiment(spec)
                assert exc.value.clashing_ids == expect, \
                    f"trial {trial} spec {i}"
            else:
                orch.submit_experiment(spec)
                accepted.append(spec)


# --- heartbeats, health, delivery ----------------------------------------

def test_heartbeat_unknown_node():
    orch = make_orch()
    with pytest.raises(UnknownNode):
        orch.heartbeat("ghost")


def test_schedule_delivery_resent_until_acked():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", nodes=("n1",)))

    first = orch.heartbeat("n1", ts_ms=0)
    assert [s["seq"] for s in first] == [1]
    assert first[0]["spec"]["id"] == "a"

    # not acked: the same delivery rides the next response too
    second = orch.heartbeat("n1", ts_ms=1000)
    assert [s["seq"] for s in second] == [1]

    third = orch.heartbeat("n1", ts_ms=2000, acks=[1])
    assert third == []
    assert orch.pending_for("n1") == []


def test_heartbeat_run_report_marks_running():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", nodes=("n1",)))
    orch.heartbeat("n1", ts_ms=0, acks=[1],
                   runs=[{"experiment_id": "a", "state": "RUNNING"}])
    assert orch.query("a")["runs"] == [
        {"node_id": "n1", "state": "RUNNING", "requeues": 0}]
    # a stale RUNNING report cannot resurrect a terminal run
    orch.record_completion("a", "n1", {"state": "COMPLETED", "run_start_ms": 0})
    orch.heartbeat("n1", ts_ms=1000,
                   runs=[{"experiment_id": "a", "state": "RUNNING"}])
    assert orch.query("a")["runs"][0]["state"] == "COMPLETED"


@pytest.mark.parametrize("runs", [
    [{"experiment_id": ["x"], "state": "RUNNING"}],
    [{"experiment_id": "a", "state": 1}],
    [{"experiment_id": "a", "state": "RUNNING"}, {"state": "RUNNING"}],
])
def test_malformed_heartbeat_never_reaches_the_log(tmp_path, runs):
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    orch.submit_experiment(make_spec("a"))
    before = log.read_bytes()
    with pytest.raises(BadMessage):
        orch.heartbeat("n1", ts_ms=5, runs=runs)
    resp = orch.handle_message({"type": "HEARTBEAT", "node_id": "n1",
                                "ts_ms": 5, "runs": runs})
    assert resp["error"]["kind"] == "BadMessage"
    assert log.read_bytes() == before
    want = orch.to_state()
    orch.close()
    restored = Orchestrator.restore(NODES, log, clock=SimClock(0))
    assert restored.to_state() == want
    restored.close()


def test_node_health_thresholds():
    clock = SimClock(0)
    orch = Orchestrator(NODES, clock=clock, heartbeat_interval_s=10)
    orch.heartbeat("n1", ts_ms=0)
    assert orch.node_health(now_ms=0)["n1"] == "HEALTHY"
    assert orch.node_health(now_ms=29999)["n1"] == "HEALTHY"
    assert orch.node_health(now_ms=30000)["n1"] == "STALE"
    assert orch.node_health(now_ms=100000)["n1"] == "STALE"
    assert orch.node_health(now_ms=100001)["n1"] == "DOWN"
    # a node that has never spoken is down, not merely stale
    assert orch.node_health(now_ms=0)["n2"] == "DOWN"


# --- completions ----------------------------------------------------------

def test_record_completion_unknown_run():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", nodes=("n1",)))
    with pytest.raises(UnknownRun):
        orch.record_completion("a", "n2", {"state": "COMPLETED"})
    with pytest.raises(UnknownRun):
        orch.record_completion("ghost", "n1", {"state": "COMPLETED"})


def test_record_completion_requires_terminal_state():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", nodes=("n1",)))
    with pytest.raises(BadSpec):
        orch.record_completion("a", "n1", {"state": "RUNNING"})


def test_duplicate_completion_is_idempotent():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", nodes=("n1",)))
    manifest = {"state": "COMPLETED", "run_start_ms": 5000}
    r1 = orch.record_completion("a", "n1", manifest)
    state_after = orch.to_state()
    r2 = orch.record_completion("a", "n1", manifest)
    assert r1 == {"duplicate": False, "requeued": False}
    assert r2 == {"duplicate": True, "requeued": False}
    assert orch.to_state() == state_after


def test_preempted_run_requeued_exactly_once():
    orch = make_orch()
    orch.submit_experiment(make_spec("a", nodes=("n1",)))
    orch.heartbeat("n1", ts_ms=0, acks=[1])

    r1 = orch.record_completion("a", "n1",
                                {"state": "PREEMPTED", "run_start_ms": 100})
    assert r1["requeued"]
    view = orch.query("a")["runs"][0]
    assert view["state"] == "SCHEDULED" and view["requeues"] == 1
    # the requeue travels as a fresh delivery with a new seq
    assert [s["seq"] for s in orch.heartbeat("n1", ts_ms=1000)] == [2]

    r2 = orch.record_completion("a", "n1",
                                {"state": "PREEMPTED", "run_start_ms": 2000})
    assert not r2["requeued"]
    assert orch.query("a")["runs"][0]["state"] == "PREEMPTED"


# --- persistence ----------------------------------------------------------

def run_script(orch):
    orch.submit_experiment(make_spec("a", nodes=("n1", "n2")))
    orch.submit_experiment(make_spec(
        "b", trigger={"trigger": "latency_ms > 80", "max_runtime_s": 10}))
    with pytest.raises(ConflictError):
        orch.submit_experiment(make_spec("bad", windows=((10, 20000),)))
    orch.heartbeat("n1", ts_ms=500, acks=[1, 2])
    orch.heartbeat("n2", ts_ms=700,
                   runs=[{"experiment_id": "a", "state": "RUNNING"}])
    orch.record_completion("a", "n1", {"state": "PREEMPTED", "run_start_ms": 10})
    orch.record_completion("a", "n2", {"state": "COMPLETED", "run_start_ms": 20})
    orch.record_completion("a", "n2", {"state": "COMPLETED", "run_start_ms": 20})


def test_completions_of_mixed_start_types_dump_and_replay(tmp_path):
    """A run_start_ms that is absent, a number or a string sorts by kind
    first, so to_state() never compares None with an int; a restore from
    the log dumps the same state."""
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    orch.submit_experiment(make_spec("a", nodes=("n1", "n2")))
    for node, start in (("n1", 5), ("n1", None), ("n1", "7"), ("n1", 2.5),
                        ("n2", None)):
        manifest = {"state": "COMPLETED"}
        if start is not None:
            manifest["run_start_ms"] = start
        assert orch.record_completion("a", node, manifest)["duplicate"] is False
    want = orch.to_state()
    assert want["completions"] == [
        ["a", "n1", None, "COMPLETED"], ["a", "n1", 2.5, "COMPLETED"],
        ["a", "n1", 5, "COMPLETED"], ["a", "n1", "7", "COMPLETED"],
        ["a", "n2", None, "COMPLETED"]]
    orch.close()
    restored = Orchestrator.restore(NODES, log, clock=SimClock(0))
    assert restored.to_state() == want
    restored.close()


def test_log_replay_reconstructs_identical_state(tmp_path):
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    run_script(orch)
    want = orch.to_state()
    orch.close()

    restored = Orchestrator.restore(NODES, log, clock=SimClock(0))
    assert restored.to_state() == want
    # rejected submissions never reach the log
    ids = {json.loads(line).get("spec", {}).get("id")
           for line in log.read_text().splitlines()
           if json.loads(line)["op"] == "submit"}
    assert "bad" not in ids
    restored.close()


def test_snapshot_plus_tail_restore(tmp_path):
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    run_script(orch)
    want = orch.to_state()
    orch.close()

    restored = Orchestrator.restore(NODES, log, clock=SimClock(0))
    assert restored.to_state() == want

    # the restored instance keeps logging; a second restore sees new work too
    restored.submit_experiment(make_spec("later", windows=((900000, 960000),)))
    want2 = restored.to_state()
    restored.close()
    again = Orchestrator.restore(NODES, log, clock=SimClock(0))
    assert again.to_state() == want2
    again.close()


def log_numbers(log):
    return [json.loads(line)["n"] for line in log.read_text().splitlines()]


def test_restore_after_a_crash_at_every_byte_offset(tmp_path):
    full = tmp_path / "full.jsonl"
    orch = make_orch(log_path=full)
    run_script(orch)
    orch.close()
    data = full.read_bytes()
    cut = tmp_path / "cut.jsonl"

    # what each prefix of complete lines restores to
    line_ends = [0] + [i + 1 for i, b in enumerate(data) if b == ord("\n")]
    prefix_state = {}
    for end in line_ends:
        cut.write_bytes(data[:end])
        orch = Orchestrator.restore(NODES, cut, clock=SimClock(0))
        prefix_state[end] = orch.to_state()
        orch.close()

    later = make_spec("later", windows=((900000, 960000),))
    for offset in range(len(data) + 1):
        cut.write_bytes(data[:offset])
        complete = max(end for end in line_ends if end <= offset)
        orch = Orchestrator.restore(NODES, cut, clock=SimClock(0))
        assert orch.to_state() == prefix_state[complete], offset
        orch.submit_experiment(later)
        want = orch.to_state()
        orch.close()
        again = Orchestrator.restore(NODES, cut, clock=SimClock(0))
        assert again.to_state() == want, offset
        again.close()
        numbers = log_numbers(cut)
        assert numbers == list(range(1, len(numbers) + 1)), offset


def test_corrupt_or_misnumbered_log_line_names_its_place(tmp_path):
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    run_script(orch)
    orch.close()
    lines = log.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    for broken, lineno in (
            (lines[:2] + [b'{"n": 3, "op": \n'] + lines[3:], 3),    # corrupt
            (lines[:2] + [b"\n"] + lines[3:], 3),                    # blank
            (lines[:3] + lines[2:], 4),                               # repeated n
            (lines[:2] + lines[3:], 3)):                              # missing n
        bad.write_bytes(b"".join(broken))
        with pytest.raises(ValueError, match=re.escape(f"{bad}:{lineno}:")):
            Orchestrator.restore(NODES, bad, clock=SimClock(0))
        assert bad.read_bytes() == b"".join(broken)   # left as it was


# --- golden digest --------------------------------------------------------

def golden_messages():
    """A fixed wire script over every table path: a conflict, a duplicate id
    and repeated clients at submit; heartbeats with acks and run reports;
    completions that repeat, requeue after PREEMPTED and carry absent,
    numeric and string run_start_ms; per-experiment and whole-table QUERY."""
    trig = {"trigger": "latency_ms > 80", "max_runtime_s": 10}
    specs = [
        make_spec("a", nodes=("n2", "n1")),
        make_spec("a", nodes=("n3",)),                                # duplicate id
        make_spec("clash", windows=((30000, 90000),)),                # conflicts with a
        make_spec("dup", nodes=("n3", "n1", "n3"), overhead="NO_OVERHEAD"),
        make_spec("trig", nodes=("n3", "n2"), trigger=trig),
        make_spec("srv", nodes=("n3",), servers=("n2", "far"),
                  windows=((60000, 120000),)),                        # touches a
        make_spec("srv2", nodes=("n3",), servers=("n1",),
                  windows=((50000, 70000),)),                         # clashes twice
    ]
    msgs = [{"type": "SUBMIT", "spec": s.to_json()} for s in specs]
    rnd = random.Random(10)
    eids = ["a", "dup", "trig", "srv", "clash", "ghost"]
    starts = [None, 0, 1, 2.5, "1", "x"]
    for i in range(400):
        kind = rnd.choice(("SUBMIT", "HEARTBEAT", "HEARTBEAT", "COMPLETE",
                           "COMPLETE", "COMPLETE", "QUERY"))
        if kind == "SUBMIT":
            eid = f"e{i}"
            eids.append(eid)
            start = rnd.randrange(0, 600) * 1000
            spec = make_spec(eid, nodes=rnd.sample(NODES, rnd.randint(1, 3)),
                             windows=((start, start + rnd.randint(1, 90) * 1000),),
                             overhead=rnd.choice(("OVERHEAD", "NO_OVERHEAD")))
            msgs.append({"type": "SUBMIT", "spec": spec.to_json()})
        elif kind == "HEARTBEAT":
            runs = [{"experiment_id": rnd.choice(eids),
                     "state": rnd.choice(("RUNNING", "COMPLETED"))}
                    for _ in range(rnd.randint(0, 2))]
            msgs.append({"type": "HEARTBEAT", "node_id": rnd.choice(TARGETS),
                         "ts_ms": i * 1000,
                         "acks": rnd.sample(range(1, 40), rnd.randint(0, 4)),
                         "runs": runs})
        elif kind == "COMPLETE":
            manifest = {"state": rnd.choice(("COMPLETED", "FAILED", "KILLED",
                                             "PREEMPTED", "PREEMPTED", "RUNNING"))}
            start = rnd.choice(starts)
            if start is not None:
                manifest["run_start_ms"] = start
            msgs.append({"type": "COMPLETE", "experiment_id": rnd.choice(eids),
                         "node_id": rnd.choice(NODES), "manifest": manifest})
        else:
            msg = {"type": "QUERY"}
            if rnd.random() < 0.5:
                msg["experiment_id"] = rnd.choice(eids)
            msgs.append(msg)
    return msgs


def test_orchestrator_replies_golden_digest(tmp_path):
    """Every reply, the final to_state() and the log bytes of a fixed
    script hash to a pinned value; a restore dumps the same state."""
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    replies = [orch.handle_message(m) for m in golden_messages()]
    state = orch.to_state()
    orch.close()
    restored = Orchestrator.restore(NODES, log, clock=SimClock(0))
    assert restored.to_state() == state
    restored.close()
    blob = json.dumps([replies, state]).encode() + log.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == \
        "ac3a03c3de47c2309ab0bf5a4a1f41cc60e39f8d26a82d48efae9d99ccc3e805"


def test_wire_replies_equal_encoded_handle_message_replies():
    """The wire path answers a whole-table QUERY from cached encoded views; every reply
    over the golden script is byte-identical to encoding handle_message's."""
    a, b = make_orch(), make_orch()
    queries = 0
    for msg in golden_messages():
        want = (json.dumps(b.handle_message(msg)) + "\n").encode()
        assert a._answer(json.dumps(msg).encode()) == want, msg
        queries += msg["type"] == "QUERY"
    assert queries > 40
    assert a.to_state() == b.to_state()


def wire_query(orch, eid=None):
    """A wire QUERY's decoded result, checked byte for byte against
    encoding handle_message's reply."""
    msg = {"type": "QUERY"} if eid is None else {"type": "QUERY", "experiment_id": eid}
    reply = orch._answer(json.dumps(msg).encode())
    assert reply == (json.dumps(orch.handle_message(msg)) + "\n").encode()
    return json.loads(reply)["result"]


def wire_runs(orch, eid="a"):
    """(node, state, requeues) of each run of `eid`, read by a one-experiment
    and by a whole-table wire QUERY, which must agree."""
    view = wire_query(orch, eid)
    assert [e for e in wire_query(orch) if e["id"] == eid] == [view]
    return [(r["node_id"], r["state"], r["requeues"]) for r in view["runs"]]


def test_wire_query_sees_every_run_change_live_and_after_restore(tmp_path):
    """A QUERY after each kind of mutation sees it, although the QUERY
    before it cached the experiment's encoded view; so does a restored
    orchestrator, whose views are rebuilt from the log."""
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    orch.submit_experiment(make_spec("a", nodes=("n1", "n2")))
    assert wire_runs(orch) == [("n1", "SCHEDULED", 0), ("n2", "SCHEDULED", 0)]
    orch.heartbeat("n1", ts_ms=0, runs=[{"experiment_id": "a", "state": "RUNNING"}])
    assert wire_runs(orch) == [("n1", "RUNNING", 0), ("n2", "SCHEDULED", 0)]
    orch.record_completion("a", "n1", {"state": "COMPLETED", "run_start_ms": 1})
    assert wire_runs(orch) == [("n1", "COMPLETED", 0), ("n2", "SCHEDULED", 0)]
    orch.record_completion("a", "n2", {"state": "PREEMPTED", "run_start_ms": 2})
    assert wire_runs(orch) == [("n1", "COMPLETED", 0), ("n2", "SCHEDULED", 1)]
    orch.submit_experiment(make_spec("b", nodes=("n3",)))
    assert [e["id"] for e in wire_query(orch)] == ["a", "b"]
    table = wire_query(orch)
    orch.close()

    restored = Orchestrator.restore(NODES, log, clock=SimClock(0))
    assert wire_query(restored) == table
    restored.heartbeat("n2", ts_ms=1, runs=[{"experiment_id": "a", "state": "RUNNING"}])
    assert wire_runs(restored) == [("n1", "COMPLETED", 0), ("n2", "RUNNING", 1)]
    restored.record_completion("a", "n2", {"state": "PREEMPTED", "run_start_ms": 3})
    assert wire_runs(restored) == [("n1", "COMPLETED", 0), ("n2", "PREEMPTED", 1)]
    restored.submit_experiment(make_spec("0", nodes=("n1",), windows=((60000, 90000),)))
    assert [e["id"] for e in wire_query(restored)] == ["0", "a", "b"]
    assert wire_runs(restored, "0") == [("n1", "SCHEDULED", 0)]
    restored.close()


# --- property tests -------------------------------------------------------

EIDS = ["e0", "e1", "e2", "e3", "e4"]
TARGETS = NODES + ["ghost"]

OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(EIDS),
              st.lists(st.sampled_from(TARGETS), min_size=1, max_size=3,
                       unique=True),
              st.integers(0, 4),          # window slot; 0 binds a trigger
              st.booleans()),             # carries overhead
    st.tuples(st.just("heartbeat"), st.sampled_from(TARGETS),
              st.integers(0, 10**6),
              st.one_of(st.just("pending"),
                        st.lists(st.integers(0, 12), max_size=4)),
              st.lists(st.tuples(st.sampled_from(EIDS),
                                 st.sampled_from(["RUNNING", "COMPLETED"])),
                       max_size=2)),
    st.tuples(st.just("complete"),
              st.integers(0, 3),          # which run, if there is any
              st.sampled_from(["COMPLETED", "FAILED", "KILLED", "PREEMPTED",
                               "RUNNING"]),
              st.one_of(st.integers(0, 2), st.none(), st.just("1"))),
              # run_start_ms: repeats are duplicates; absent, number or string
    st.just(("restart",)),
), max_size=40)


def apply_op(orch, op):
    kind = op[0]
    if kind == "submit":
        _, eid, nodes, slot, overhead = op
        schedule = ({"windows": [[slot * 1000, slot * 1000 + 2500]]} if slot
                    else {"trigger": {"trigger": "latency_ms > 80",
                                      "max_runtime_s": 10}})
        orch.submit_experiment({
            "id": eid, "kind": "PING", "clients": nodes, "schedule": schedule,
            "overhead": "OVERHEAD" if overhead else "NO_OVERHEAD"})
    elif kind == "heartbeat":
        _, nid, ts_ms, acks, runs = op
        if acks == "pending":
            acks = ([p["seq"] for p in orch.pending_for(nid)]
                    if nid in NODES else [])
        orch.heartbeat(nid, ts_ms=ts_ms, acks=acks,
                       runs=[{"experiment_id": e, "state": s} for e, s in runs])
    else:
        _, pick, state, start = op
        runs = [(e["id"], r["node_id"]) for e in orch.query() for r in e["runs"]]
        eid, nid = runs[pick % len(runs)] if runs else ("e0", "ghost")
        orch.record_completion(eid, nid, {"state": state, "run_start_ms": start})


@settings(max_examples=100, deadline=None)
@given(OPS)
def test_random_operations_replay_to_the_live_state(ops):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "orch.jsonl"
        orch = make_orch(log_path=log)
        for op in ops:
            if op[0] == "restart":
                want = orch.to_state()
                orch.close()
                orch = Orchestrator.restore(NODES, log, clock=SimClock(0))
                assert orch.to_state() == want
                continue
            try:
                apply_op(orch, op)
            except OrchestratorError:
                pass
        want = orch.to_state()
        assert orch.query() == [
            {"id": eid, "kind": spec["kind"], "overhead": spec["overhead"],
             "runs": sorted(({k: r[k] for k in ("node_id", "state", "requeues")}
                             for r in want["runs"] if r["experiment_id"] == eid),
                            key=lambda run: run["node_id"])}
            for eid, spec in sorted(want["specs"].items())]
        orch.close()
        restored = Orchestrator.restore(NODES, log, clock=SimClock(0))
        assert restored.to_state() == want
        restored.close()
        numbers = log_numbers(log)
        assert numbers == list(range(1, len(numbers) + 1))


# edge values that a plain draw seldom hits; Python's json reads
# Infinity and NaN off the wire
EDGES = [float("inf"), float("-inf"), float("nan"), 2**64, -1, 0, "", "n1", "a"]
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6) | st.sampled_from(EDGES))
JSON = st.recursive(
    SCALARS, lambda kids: (st.lists(kids, max_size=3)
                           | st.dictionaries(st.text(max_size=6), kids,
                                             max_size=3)),
    max_leaves=12)
WELL_FORMED = [
    {"type": "SUBMIT", "spec": make_spec(
        "a", nodes=("n1", "n2"), servers=("n3",)).to_json()},
    {"type": "SUBMIT", "spec": make_spec(
        "b", trigger={"trigger": "latency_ms > 80", "max_runtime_s": 10}).to_json()},
    {"type": "HEARTBEAT", "node_id": "n1", "ts_ms": 0, "acks": [1],
     "runs": [{"experiment_id": "a", "state": "RUNNING"}]},
    {"type": "COMPLETE", "experiment_id": "a", "node_id": "n1",
     "manifest": {"state": "PREEMPTED", "run_start_ms": 0}},
    {"type": "QUERY", "experiment_id": "a"},
]


@st.composite
def messages(draw):
    """Any JSON value, or a well-formed message with up to three parts, at
    any depth, replaced by any JSON value or dropped."""
    if draw(st.booleans()):
        return draw(JSON)
    msg = json.loads(json.dumps(draw(st.sampled_from(WELL_FORMED))))
    for _ in range(draw(st.integers(0, 3))):
        target = msg
        while target:
            keys = sorted(target) if isinstance(target, dict) else range(len(target))
            key = draw(st.sampled_from(keys))
            if isinstance(target[key], (dict, list)) and draw(st.booleans()):
                target = target[key]
                continue
            if draw(st.integers(0, 4)):
                target[key] = draw(SCALARS | JSON)
            else:
                del target[key]
            break
    return msg


@settings(max_examples=300, deadline=None)
@given(st.lists(messages(), max_size=6))
@example([{"type": "HEARTBEAT", "node_id": "n1", "ts_ms": float("inf")},
          {"type": "SUBMIT", "spec": {**WELL_FORMED[0]["spec"], "schedule": {
              "windows": [[0, float("inf")]]}}}])
def test_handle_message_never_raises_on_any_json_value(msgs):
    orch = make_orch()
    for msg in msgs:
        resp = orch.handle_message(msg)
        assert isinstance(resp, dict) and isinstance(resp["ok"], bool)
        json.dumps(resp)


# --- wire dispatch --------------------------------------------------------

def test_handle_message_submit_and_conflict_shape():
    orch = make_orch()
    ok = orch.handle_message({"type": "SUBMIT",
                              "spec": make_spec("a").to_json()})
    assert ok == {"ok": True, "experiment_id": "a"}

    bad = orch.handle_message({"type": "SUBMIT",
                               "spec": make_spec("b").to_json()})
    assert bad["ok"] is False
    assert bad["error"]["kind"] == "ConflictError"
    assert bad["error"]["clashing_ids"] == ["a"]


def test_handle_message_unknown_type_and_garbage():
    orch = make_orch()
    assert orch.handle_message({"type": "REGISTER"})["error"]["kind"] == "BadMessage"
    assert orch.handle_message({})["error"]["kind"] == "BadMessage"
    assert orch.handle_message({"type": "SUBMIT"})["error"]["kind"] == "BadMessage"
    for msg in ([1], "x", 1, None, True, 2.5):
        assert orch.handle_message(msg)["error"]["kind"] == "BadMessage"
    orch.submit_experiment(make_spec("a"))
    for msg in ({"type": "COMPLETE", "experiment_id": "a", "node_id": "n1",
                 "manifest": [1]},
                {"type": "HEARTBEAT", "node_id": "n1", "runs": [["x"]]}):
        assert orch.handle_message(msg)["error"]["kind"] == "BadMessage"
    assert orch.handle_message({"type": "SUBMIT", "spec": [1]})["error"]["kind"] \
        == "BadSpec"


WIRE_ERRORS = [BadMessage("m"), BadSpec("m"), BadTrigger("m"),
               ConflictError(["b", "a"]), UnknownNode("m"), UnknownRun("m"),
               DuplicateExperiment("m")]


@pytest.mark.parametrize("exc", WIRE_ERRORS, ids=lambda e: type(e).__name__)
def test_every_orchestrator_error_maps_to_its_class_name(exc, monkeypatch):
    assert {type(e) for e in WIRE_ERRORS} == set(OrchestratorError.__subclasses__())
    orch = make_orch()

    def raise_it(*args, **kwargs):
        raise exc

    monkeypatch.setattr(orch, "query", raise_it)
    error = orch.handle_message({"type": "QUERY"})["error"]
    assert error["kind"] == type(exc).__name__
    assert error["message"] == str(exc)
    if isinstance(exc, ConflictError):
        assert error["clashing_ids"] == ["a", "b"]


def test_handle_message_complete_and_query():
    orch = make_orch()
    orch.handle_message({"type": "SUBMIT", "spec": make_spec("a").to_json()})
    resp = orch.handle_message({
        "type": "COMPLETE", "experiment_id": "a", "node_id": "n1",
        "manifest": {"state": "COMPLETED", "run_start_ms": 1}})
    assert resp["ok"] and not resp["duplicate"]
    q = orch.handle_message({"type": "QUERY", "experiment_id": "a"})
    assert q["result"]["runs"][0]["state"] == "COMPLETED"
    all_q = orch.handle_message({"type": "QUERY"})
    assert [e["id"] for e in all_q["result"]] == ["a"]


def test_local_client_matches_handle_message():
    orch = make_orch()
    client = LocalClient(orch)
    r = client.call({"type": "SUBMIT", "spec": make_spec("a").to_json()})
    assert r["ok"]


def test_tcp_server_roundtrip():
    orch = make_orch()
    srv, _ = orch.serve(port=0)
    try:
        port = srv.getsockname()[1]
        client = OrchestratorClient("127.0.0.1", port)
        r = client.call({"type": "SUBMIT", "spec": make_spec("a").to_json()})
        assert r == {"ok": True, "experiment_id": "a"}
        hb = client.call({"type": "HEARTBEAT", "node_id": "n1", "ts_ms": 0})
        assert [s["spec"]["id"] for s in hb["schedules"]] == ["a"]
        conflict = client.call({"type": "SUBMIT",
                                "spec": make_spec("b").to_json()})
        assert conflict["error"]["kind"] == "ConflictError"
        client.close()
    finally:
        srv.close()


def test_close_stops_serving(tmp_path):
    """After close no new connection is answered, so a late SUBMIT is
    neither applied nor left out of the closed journal."""
    orch = make_orch(log_path=tmp_path / "orch.jsonl")
    srv, thread = orch.serve(port=0)
    client = OrchestratorClient("127.0.0.1", srv.getsockname()[1])
    assert client.call({"type": "QUERY"}) == {"ok": True, "result": []}
    orch.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    with pytest.raises(OSError):
        client.call({"type": "SUBMIT", "spec": make_spec("late").to_json()})
    assert orch.to_state()["specs"] == {}


def test_tcp_server_rejects_bad_json():
    orch = make_orch()
    srv, _ = orch.serve(port=0)
    try:
        port = srv.getsockname()[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            fh = conn.makefile("rw", encoding="utf-8")
            # a bad line is answered and the same connection keeps serving
            for line in ("this is not json", "[1]", '"x"', "1", "null",
                         '{"type": "QUERY"}'):
                fh.write(line + "\n")
                fh.flush()
                resp = json.loads(fh.readline())
                if line.startswith("{"):
                    assert resp == {"ok": True, "result": []}
                else:
                    assert resp["error"]["kind"] == "BadMessage"
            conn.sendall(b"\xff\xfe\n")   # not UTF-8
            assert json.loads(fh.readline())["error"]["kind"] == "BadMessage"
            fh.write('{"type": "QUERY"}\n')
            fh.flush()
            assert json.loads(fh.readline()) == {"ok": True, "result": []}
    finally:
        srv.close()


def read_reply(conn):
    """One reply line from a raw socket; None once the server has closed it."""
    buf = bytearray()
    while not buf.endswith(b"\n"):
        try:
            chunk = conn.recv(1 << 16)
        except ConnectionResetError:
            return None
        if not chunk:
            return None
        buf += chunk
    return json.loads(buf)


def test_close_ends_open_connections(tmp_path):
    """A connection opened before close is not answered after it, so a late
    SUBMIT is neither applied nor left out of the closed journal."""
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    srv, thread = orch.serve(port=0)
    with socket.create_connection(srv.getsockname(), timeout=5) as conn:
        conn.sendall(b'{"type": "QUERY"}\n')
        assert read_reply(conn) == {"ok": True, "result": []}
        orch.close()
        assert not thread.is_alive()
        late = {"type": "SUBMIT", "spec": make_spec("late").to_json()}
        try:
            conn.sendall((json.dumps(late) + "\n").encode())
        except OSError:
            pass
        assert read_reply(conn) is None
    assert orch.to_state()["specs"] == {}
    assert "late" not in log.read_text()


def test_oversize_line_is_refused_and_its_connection_closed():
    orch = make_orch()
    srv, _ = orch.serve(port=0)
    try:
        addr = srv.getsockname()
        limit = orchestrator.MAX_LINE_BYTES
        with socket.create_connection(addr, timeout=5) as conn:
            # a line of exactly the limit is served
            head = b'{"type": "QUERY", "pad": "'
            conn.sendall(head + b"x" * (limit - len(head) - 2) + b'"}\n')
            assert read_reply(conn) == {"ok": True, "result": []}
            conn.sendall(b"x" * (limit + 1))
            resp = read_reply(conn)
            assert resp["error"]["kind"] == "BadMessage"
            assert str(limit) in resp["error"]["message"]
            assert read_reply(conn) is None
        with OrchestratorClient(*addr) as client:
            assert client.call({"type": "QUERY"}) == {"ok": True, "result": []}
    finally:
        orch.close()


def test_too_deeply_nested_line_gets_bad_message():
    orch = make_orch()
    srv, _ = orch.serve(port=0)
    try:
        with socket.create_connection(srv.getsockname(), timeout=5) as conn:
            conn.sendall(b"[" * 100_000 + b"]" * 100_000 + b"\n")
            assert read_reply(conn)["error"]["kind"] == "BadMessage"
            conn.sendall(b'{"type": "QUERY"}\n')
            assert read_reply(conn) == {"ok": True, "result": []}
    finally:
        orch.close()


def test_idle_connection_is_closed(monkeypatch):
    monkeypatch.setattr(orchestrator, "IDLE_TIMEOUT_S", 0.5)
    orch = make_orch()
    srv, _ = orch.serve(port=0)
    try:
        addr = srv.getsockname()
        with socket.create_connection(addr, timeout=5) as idle, \
                socket.create_connection(addr, timeout=5) as busy:
            idle.sendall(b'{"type": "QUE')   # a partial line completes nothing
            start = time.monotonic()
            # a connection that keeps completing lines outlives the timeout
            while time.monotonic() - start < 1.2:
                busy.sendall(b'{"type": "QUERY"}\n')
                assert read_reply(busy) == {"ok": True, "result": []}
                time.sleep(0.05)
            assert read_reply(idle) is None
    finally:
        orch.close()


def test_accept_error_does_not_stop_serving(monkeypatch, caplog):
    orch = make_orch()
    srv, thread = orch.serve(port=0)
    accept = socket.socket.accept
    failures = []

    def accept_once_failing(self):
        if not failures:
            failures.append(1)
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(self)

    monkeypatch.setattr(socket.socket, "accept", accept_once_failing)
    try:
        with OrchestratorClient(*srv.getsockname()) as client:
            assert client.call({"type": "QUERY"}) == {"ok": True, "result": []}
        assert failures and thread.is_alive()
        assert "Too many open files" in caplog.text
    finally:
        orch.close()


def test_slow_reader_stalls_no_one():
    """A client that does not read a reply larger than the socket buffers
    hold delays no other client, and gets the whole reply once it reads."""
    nodes = [f"n{i}" for i in range(8)]
    orch = Orchestrator([*nodes, "beat"], clock=SimClock(0))
    for i in range(12000):   # a QUERY reply of about 6 MB
        orch.submit_experiment(make_spec(f"e{i:05d}", nodes=nodes,
                                         overhead="NO_OVERHEAD"))
    srv, _ = orch.serve(port=0)
    slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        with slow:   # closed first on failure, which frees a server stuck sending
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.settimeout(30)
            slow.connect(srv.getsockname())
            slow.sendall(b'{"type": "QUERY"}\n')
            client = OrchestratorClient(*srv.getsockname())
            replies = []
            beats = threading.Thread(target=lambda: replies.extend(
                client.call({"type": "HEARTBEAT", "node_id": "beat", "ts_ms": t})
                for t in range(20)), daemon=True)
            beats.start()
            beats.join(timeout=20)
            assert not beats.is_alive()
            assert len(replies) == 20 and all(r["ok"] for r in replies)
            assert read_reply(slow) == orch.handle_message({"type": "QUERY"})
    finally:
        orch.close()


def test_concurrent_clients_get_their_own_replies(tmp_path):
    log = tmp_path / "orch.jsonl"
    orch = make_orch(log_path=log)
    srv, _ = orch.serve(port=0)
    client = OrchestratorClient(*srv.getsockname())
    errors = []

    def run(worker: int):
        node = NODES[worker % len(NODES)]
        try:
            for i in range(50):
                eid = f"w{worker}-{i // 4}"   # four requests about each experiment
                step = i % 4
                if step == 0:
                    spec = make_spec(eid, nodes=(node,), overhead="NO_OVERHEAD")
                    resp = client.call({"type": "SUBMIT", "spec": spec.to_json()})
                    assert resp == {"ok": True, "experiment_id": eid}
                elif step == 1:
                    resp = client.call({"type": "QUERY", "experiment_id": eid})
                    assert resp["result"]["id"] == eid
                elif step == 2:
                    resp = client.call({"type": "HEARTBEAT", "node_id": node, "ts_ms": i})
                    assert eid in {s["spec"]["id"] for s in resp["schedules"]}
                else:
                    resp = client.call({"type": "COMPLETE", "experiment_id": eid,
                                        "node_id": node,
                                        "manifest": {"state": "COMPLETED"}})
                    assert resp == {"ok": True, "duplicate": False, "requeued": False}
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(w,), daemon=True)
                   for w in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    state = orch.to_state()
    orch.close()
    assert len(state["specs"]) == 4 * 13
    restored = Orchestrator.restore(NODES, log, clock=SimClock(0))
    assert restored.to_state() == state
    restored.close()


# --- OrchestratorClient's pooled connections ------------------------------

@pytest.fixture
def count_accepts(monkeypatch):
    """The list of connections every socket has accepted since the test began."""
    accepted = []
    accept = socket.socket.accept

    def counting_accept(self):
        pair = accept(self)
        accepted.append(pair[0])
        return pair

    monkeypatch.setattr(socket.socket, "accept", counting_accept)
    return accepted


def serve_raw(handle):
    """A listening socket whose thread hands each connection it accepts to
    `handle(conn)` on a thread of its own. Returns (address, stop)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def run():
        with listener:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                conn.settimeout(10)
                threading.Thread(target=handle, args=(conn,), daemon=True).start()

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname(), stop.set


def test_client_serves_sequential_calls_over_one_connection(count_accepts):
    orch = make_orch()
    srv, _ = orch.serve(port=0)
    try:
        with OrchestratorClient(*srv.getsockname()) as client:
            for t in range(20):
                assert client.call({"type": "HEARTBEAT", "node_id": "n1", "ts_ms": t})["ok"]
        assert len(count_accepts) == 1
    finally:
        orch.close()


def test_client_does_not_reuse_a_connection_idle_past_the_bound(count_accepts, monkeypatch):
    monkeypatch.setattr(orchestrator, "REUSE_IDLE_S", 0.0)
    orch = make_orch()
    srv, _ = orch.serve(port=0)
    try:
        with OrchestratorClient(*srv.getsockname()) as client:
            for _ in range(3):
                assert client.call({"type": "QUERY"}) == {"ok": True, "result": []}
        assert len(count_accepts) == 3
    finally:
        orch.close()


@pytest.mark.parametrize("drop", ["idle_timeout", "restart"])
def test_client_replaces_a_connection_the_server_dropped(drop, count_accepts, monkeypatch):
    monkeypatch.setattr(orchestrator, "IDLE_TIMEOUT_S", 0.2)
    orch = make_orch()
    srv, thread = orch.serve(port=0)
    addr = srv.getsockname()
    client = OrchestratorClient(*addr)
    try:
        assert client.call({"type": "QUERY"}) == {"ok": True, "result": []}
        if drop == "idle_timeout":
            time.sleep(1.0)   # the server closes the pooled connection meanwhile
        else:
            orch.close()
            orch = make_orch()
            orch.serve(*addr)
        assert client.call({"type": "QUERY"}) == {"ok": True, "result": []}
        assert len(count_accepts) == 2
        assert thread.is_alive() == (drop == "idle_timeout")
    finally:
        client.close()
        orch.close()


def test_client_raises_and_never_resends_when_no_reply_comes():
    """A SUBMIT the server may have applied is not sent again."""
    seen = []

    def read_one_then_close(conn):
        with conn:
            seen.append(conn.makefile("rb").readline())

    addr, stop = serve_raw(read_one_then_close)
    msg = {"type": "SUBMIT", "spec": make_spec("once").to_json()}
    try:
        with OrchestratorClient(*addr) as client, pytest.raises(OSError):
            client.call(msg)
        assert seen == [(json.dumps(msg) + "\n").encode()]
    finally:
        stop()


def echo_lines(conn, extra=b"", first=None):
    """Answer each request line {"n": x} with {"echo": x}, plus `extra`
    bytes; the first reply waits for `first()` to return."""
    with conn, conn.makefile("rb") as fh:
        for line in fh:
            if first is not None:
                first()
                first = None
            echo = {"echo": json.loads(line)["n"]}
            conn.sendall((json.dumps(echo) + "\n").encode() + extra)


def test_client_shared_by_two_threads_uses_two_connections(count_accepts):
    both_connected = threading.Barrier(2, timeout=5)
    addr, stop = serve_raw(lambda conn: echo_lines(conn, first=both_connected.wait))
    client = OrchestratorClient(*addr)
    replies = {0: [], 1: []}

    def run(worker: int):
        for i in range(30):
            replies[worker].append(client.call({"n": f"{worker}-{i}"})["echo"])

    try:
        workers = [threading.Thread(target=run, args=(w,), daemon=True) for w in (0, 1)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=20)
        assert not any(w.is_alive() for w in workers)
        assert replies == {w: [f"{w}-{i}" for i in range(30)] for w in (0, 1)}
        assert len(count_accepts) == 2
    finally:
        client.close()
        stop()


def test_client_discards_a_connection_whose_reply_has_trailing_bytes(count_accepts):
    addr, stop = serve_raw(lambda conn: echo_lines(conn, extra=b'{"echo": "stale"}\n'))
    try:
        with OrchestratorClient(*addr) as client:
            assert [client.call({"n": i})["echo"] for i in range(3)] == [0, 1, 2]
        assert len(count_accepts) == 3
    finally:
        stop()

import json
import logging
import shutil
import socket
import time

import pytest

from leobench.agent import (MAX_FEED_LINE_BYTES, Agent, IllegalTransition, LocalRun,
                            SimSource, SocketSource, traceroute_hops)
from leobench.clocks import SimClock, WallClock
from leobench.orchestrator import ExperimentSpec, LocalClient, Orchestrator
from leobench.store import ResultsStore, UploadFailure
from leobench.terminal_sim import TelemetryServer, TerminalModelConfig, TerminalSim


def make_rig(tmp_path, seed=0, hb_every=5, sim_config=None, orch_kwargs=None):
    clock = SimClock(0)
    orch = Orchestrator(["n1"], clock=clock, **(orch_kwargs or {}))
    store = ResultsStore(tmp_path / "store")
    sim = TerminalSim(sim_config or TerminalModelConfig(rng_seed=seed))
    agent = Agent("n1", LocalClient(orch), store, SimSource(sim),
                  clock=clock, workdir=tmp_path / "agent",
                  heartbeat_every_s=hb_every)
    return clock, orch, store, sim, agent


def drive(agent, clock, ticks, step_ms=1000):
    for _ in range(ticks):
        agent.tick()
        clock.advance(step_ms)


def window_spec(eid, start, end, kind="PING", overhead="NO_OVERHEAD", params=None):
    return {"id": eid, "kind": kind, "overhead": overhead, "clients": ["n1"],
            "schedule": {"windows": [[start, end]]}, "params": params or {}}


def trigger_spec(eid, expr, max_runtime_s=10, cooldown_s=0, budget=24,
                 overhead="NO_OVERHEAD", kind="PING", extra=None):
    trig = {"trigger": expr, "max_runtime_s": max_runtime_s,
            "cooldown_s": cooldown_s, "budget_per_day": budget}
    if extra:
        trig.update(extra)
    return {"id": eid, "kind": kind, "overhead": overhead, "clients": ["n1"],
            "schedule": {"trigger": trig}, "params": {}}


# --- LocalRun state machine ----------------------------------------------

def run_stub(state="PENDING"):
    spec = ExperimentSpec(id="x", kind="PING", overhead="NO_OVERHEAD",
                          clients=("n1",), windows=((0, 1000),))
    r = LocalRun("x-0", spec, "n1", "window", 1000)
    r.state = state
    return r


def test_local_run_legal_transitions():
    r = run_stub()
    r.transition("RUNNING")
    r.transition("PREEMPTED")
    r.transition("PENDING")
    r.transition("RUNNING")
    r.transition("COMPLETED")


@pytest.mark.parametrize("start,bad", [
    ("PENDING", "COMPLETED"), ("PENDING", "KILLED"), ("PENDING", "PREEMPTED"),
    ("RUNNING", "PENDING"), ("COMPLETED", "RUNNING"), ("KILLED", "PENDING"),
    ("FAILED", "RUNNING"), ("PREEMPTED", "RUNNING"),
])
def test_local_run_illegal_transitions(start, bad):
    r = run_stub(start)
    with pytest.raises(IllegalTransition):
        r.transition(bad)


# --- window runs end to end ----------------------------------------------

def test_window_run_full_lifecycle(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment(window_spec("png", 5000, 15000))
    drive(agent, clock, 20)

    assert agent.runs_by_state() == {"COMPLETED": ["png-5000"]}
    assert orch.query("png")["runs"][0]["state"] == "COMPLETED"

    runs = store.list_runs("png")
    assert len(runs) == 1
    node, label, path = runs[0]
    assert (node, label) == ("n1", "19700101T000005Z")
    assert sorted(p.name for p in path.iterdir()) == [
        "manifest.json", "ping.csv", "stdout.log"]

    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["state"] == "COMPLETED"
    assert manifest["row_count"] == 10
    assert manifest["data_files"] == ["ping.csv"]

    # half-open window: rows at 5000..14000, nothing at 15000
    lines = (path / "ping.csv").read_text().splitlines()
    assert lines[0] == "ts_ms,rtt_ms,lost"
    ts = [int(l.split(",")[0]) for l in lines[1:]]
    assert ts == list(range(5000, 15000, 1000))

    # local artifacts removed after upload
    assert not (tmp_path / "agent" / "png-5000").exists()


def test_schedule_reaches_agent_within_two_heartbeats(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path, hb_every=10)
    drive(agent, clock, 3)             # heartbeat went out at t=0
    orch.submit_experiment(window_spec("late", 60000, 70000))
    drive(agent, clock, 18)            # next heartbeats at 10 s and 20 s
    assert "late" in agent._specs
    # delivered on the first heartbeat after submission, i.e. within one
    # interval here; the two-interval bound needs a lost response as well
    assert clock.now_ms() <= 3000 + 2 * 10000 + 1000


def test_lost_schedule_response_is_redelivered_and_deduped(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path, hb_every=2)

    class FlakyClient:
        """Drops the first heartbeat response carrying a schedule."""

        def __init__(self, inner):
            self.inner = inner
            self.dropped = 0

        def call(self, msg):
            resp = self.inner.call(msg)
            if msg["type"] == "HEARTBEAT" and resp.get("schedules") \
                    and self.dropped < 1:
                self.dropped += 1
                raise ConnectionError("response lost on the wire")
            return resp

    agent.client = FlakyClient(LocalClient(orch))
    orch.submit_experiment(window_spec("png", 30000, 40000))
    drive(agent, clock, 50)

    assert agent.client.dropped == 1
    # exactly one local run despite redelivery
    assert agent.runs_by_state() == {"COMPLETED": ["png-30000"]}
    assert len(store.list_runs("png")) == 1
    assert orch.pending_for("n1") == []


def test_failed_control_plane_calls_are_logged_and_tried_again(tmp_path, caplog):
    """A heartbeat or completion whose call raises is logged with the
    error's type and message; the completion stays queued, the heartbeat is
    due again next tick, and both go out once the orchestrator answers."""
    clock, orch, store, sim, agent = make_rig(tmp_path, hb_every=10)

    class DownClient:
        def call(self, msg):
            raise ConnectionRefusedError("orchestrator down")

    agent.client = DownClient()
    agent._report("png", {"state": "COMPLETED"})
    with caplog.at_level(logging.WARNING, logger="leobench.agent"):
        drive(agent, clock, 2)
    assert [r.getMessage() for r in caplog.records if r.name == "leobench.agent"] == [
        "agent n1: completion of png not sent: ConnectionRefusedError: orchestrator down",
        "agent n1: heartbeat failed: ConnectionRefusedError: orchestrator down"] * 2

    agent.client = RecordingClient(orch)
    drive(agent, clock, 1)
    assert [m["type"] for m in agent.client.sent] == ["COMPLETE", "HEARTBEAT"]
    assert orch.node_health() == {"n1": "HEALTHY"}


def test_duplicate_seq_delivery_runs_once(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path, hb_every=2)

    class DupClient:
        """Delivers every schedule twice in the same response."""

        def __init__(self, inner):
            self.inner = inner

        def call(self, msg):
            resp = self.inner.call(msg)
            if msg["type"] == "HEARTBEAT" and resp.get("schedules"):
                resp["schedules"] = resp["schedules"] * 2
            return resp

    agent.client = DupClient(LocalClient(orch))
    orch.submit_experiment(window_spec("png", 5000, 10000))
    drive(agent, clock, 15)
    assert agent.runs_by_state() == {"COMPLETED": ["png-5000"]}


# --- triggers -------------------------------------------------------------

SPIKE_EXPR = "latency_ms >= 2*mavg(latency_ms,5)"


def spiky_config(forced, seed=0):
    # forced handover indices make spike onsets known; the multiplier floor
    # of 2.5 keeps every onset safely above the 2x trigger threshold
    return TerminalModelConfig(rng_seed=seed, p_bad_handover=0.0,
                               forced_bad_handovers=tuple(forced),
                               spike_multiplier=(2.5, 3.0),
                               spike_duration_quanta=1.0)


def test_trigger_run_starts_at_spike_onset(tmp_path):
    clock, orch, store, sim, agent = make_rig(
        tmp_path, sim_config=spiky_config([2]))
    orch.submit_experiment(trigger_spec("spike", SPIKE_EXPR, max_runtime_s=5,
                                        cooldown_s=60))
    drive(agent, clock, 60)

    assert len(sim.spike_log) == 1
    onset = sim.spike_log[0].start_ms
    runs = [r for r in agent.local_runs() if r.spec.id == "spike"]
    assert len(runs) == 1
    assert runs[0].state == "COMPLETED"
    assert 0 <= runs[0].start_ms - onset <= 1000
    # a 5 s budget at 1 Hz gives exactly 5 rows
    manifest = store.read_manifest("spike", "n1", runs[0].start_ms)
    assert manifest["row_count"] == 5
    assert manifest["origin"] == "trigger"


def test_trigger_budget_limits_fires(tmp_path):
    # six spikes, budget of two runs per day
    forced = [2, 8, 14, 20, 26, 32]
    clock, orch, store, sim, agent = make_rig(
        tmp_path, sim_config=spiky_config(forced))
    orch.submit_experiment(trigger_spec("spike", SPIKE_EXPR, max_runtime_s=5,
                                        cooldown_s=30, budget=2))
    drive(agent, clock, 540)
    assert len(sim.spike_log) == 6
    runs = [r for r in agent.local_runs() if r.spec.id == "spike"]
    assert len(runs) == 2
    assert all(r.state == "COMPLETED" for r in runs)


def test_no_fires_without_spikes(tmp_path):
    clock, orch, store, sim, agent = make_rig(
        tmp_path, sim_config=spiky_config([]))
    orch.submit_experiment(trigger_spec("spike", SPIKE_EXPR))
    drive(agent, clock, 300)
    assert sim.spike_log == []
    assert [r for r in agent.local_runs() if r.spec.id == "spike"] == []


def test_a_trigger_that_raises_is_disabled_and_the_tick_goes_on(tmp_path, caplog):
    """A 2000-term chain, as a log written before SUBMIT bounded trigger size
    may hold, overflows the evaluator's recursion on every tick."""
    chain = trigger_spec("chain", "+".join(["latency_ms"] * 2000) + " > 0")
    log_path = tmp_path / "orch.jsonl"
    log_path.write_text(json.dumps({"n": 1, "op": "submit", "spec": chain}) + "\n")
    clock, orch, store, sim, agent = make_rig(
        tmp_path, sim_config=spiky_config([2]), orch_kwargs={"log_path": log_path})
    orch.submit_experiment(trigger_spec("spike", SPIKE_EXPR, max_runtime_s=5))
    with caplog.at_level(logging.ERROR, logger="leobench.agent"):
        drive(agent, clock, 60)
    assert [r.message for r in caplog.records] == [
        "agent n1: trigger of chain raised; binding disabled"]
    assert "RecursionError" in caplog.text
    assert [r.spec.id for r in agent.local_runs()] == ["spike"]
    assert agent.local_runs()[0].state == "COMPLETED"


def test_two_overhead_triggers_one_runs_one_deferred(tmp_path):
    clock, orch, store, sim, agent = make_rig(
        tmp_path, sim_config=spiky_config([3]))
    # 45 s spike (3 quanta) so the deferred run still sees FIRE afterwards
    sim.config.spike_duration_quanta = 3.0
    orch.submit_experiment(trigger_spec("trig-a", SPIKE_EXPR, max_runtime_s=4,
                                        cooldown_s=120, overhead="OVERHEAD"))
    orch.submit_experiment(trigger_spec("trig-b", SPIKE_EXPR, max_runtime_s=4,
                                        cooldown_s=120, overhead="OVERHEAD"))
    drive(agent, clock, 70)
    onset = sim.spike_log[0].start_ms

    runs = {r.spec.id: r for r in agent.local_runs()}
    assert set(runs) == {"trig-a", "trig-b"}
    a, b = runs["trig-a"], runs["trig-b"]
    # never concurrently RUNNING: the second starts after the first ends
    first, second = (a, b) if a.start_ms <= b.start_ms else (b, a)
    assert first.start_ms == onset
    assert second.start_ms >= first.start_ms + 4000
    assert a.state == b.state == "COMPLETED"
    spans = sorted([(a.start_ms, a.start_ms + 4000),
                    (b.start_ms, b.start_ms + 4000)])
    assert spans[0][1] <= spans[1][0]


def test_stop_on_deassert_ends_run_early(tmp_path):
    clock, orch, store, sim, agent = make_rig(
        tmp_path, sim_config=spiky_config([2]))
    orch.submit_experiment(trigger_spec(
        "spike", SPIKE_EXPR, max_runtime_s=600, cooldown_s=600,
        extra={"stop_on_deassert": True}))
    drive(agent, clock, 90)
    runs = [r for r in agent.local_runs() if r.spec.id == "spike"]
    assert len(runs) == 1
    assert runs[0].state == "COMPLETED"
    # inside the spike the reference average catches up within a few
    # samples, so the run ends long before its 600 s budget
    manifest = store.read_manifest("spike", "n1", runs[0].start_ms)
    assert manifest["run_end_ms"] - manifest["run_start_ms"] <= 10000
    assert manifest["row_count"] >= 1


# --- scavenger preemption -------------------------------------------------

def test_scavenger_preempts_overhead_within_4s(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment(window_spec("bulk", 2000, 90000, kind="BULK_FLOW",
                                       overhead="OVERHEAD",
                                       params={"rate_bps": 4e6}))
    orch.submit_experiment(window_spec("png", 2000, 90000))
    inject_at = 30000
    sim.inject_user_traffic(50e6, inject_at, 20000)
    drive(agent, clock, 95)

    assert len(agent.preemption_log) == 1
    t_preempt, run_id = agent.preemption_log[0]
    assert run_id == "bulk-2000"
    assert t_preempt - inject_at <= 4000

    # NO_OVERHEAD ping never touched: full row count for its window
    png = [r for r in agent.local_runs() if r.spec.id == "png"][0]
    assert png.state == "COMPLETED"
    assert store.read_manifest("png", "n1", 2000)["row_count"] == 88

    # the bulk flow resumed with its remaining time after the link went quiet
    bulk = [r for r in agent.local_runs() if r.spec.id == "bulk"][0]
    assert bulk.state == "RUNNING"
    assert orch.query("bulk")["runs"][0]["requeues"] == 1
    remaining = bulk.end_ms - t_preempt
    assert remaining > 90000 - inject_at - 4000   # preserved, not truncated


def test_scavenger_never_touches_no_overhead(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment(window_spec("png", 2000, 60000))
    sim.inject_user_traffic(80e6, 10000, 30000)
    drive(agent, clock, 65)
    assert agent.preemption_log == []
    png = [r for r in agent.local_runs() if r.spec.id == "png"][0]
    assert png.state == "COMPLETED"
    assert store.read_manifest("png", "n1", 2000)["row_count"] == 58


def test_overhead_window_defers_while_user_traffic_active(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    # traffic is already on the wire when the window opens
    sim.inject_user_traffic(50e6, 10000, 30000)
    orch.submit_experiment(window_spec("bulk", 20000, 90000, kind="BULK_FLOW",
                                       overhead="OVERHEAD"))
    drive(agent, clock, 95)
    bulk = [r for r in agent.local_runs() if r.spec.id == "bulk"][0]
    # started only after the traffic cleared (injection ends at 40 s, the
    # detector needs its hold time to release)
    assert bulk.start_ms >= 40000
    assert agent.preemption_log == []


# --- builtin executors ----------------------------------------------------

def test_traceroute_rows_schema_and_tail(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment(window_spec("tr", 5000, 10000, kind="TRACEROUTE",
                                       params={"target": "198.51.100.7"}))
    drive(agent, clock, 12)
    _, _, path = store.list_runs("tr")[0]
    lines = (path / "traceroute.csv").read_text().splitlines()
    assert lines[0] == "ts_ms,hop_index,hop_addr,rtt_ms"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5 * 6
    by_ts = {}
    for ts, hop, addr, rtt in rows:
        by_ts.setdefault(int(ts), []).append((int(hop), addr, float(rtt)))
    for ts, hops in by_ts.items():
        assert [h for h, _, _ in hops] == [1, 2, 3, 4, 5, 6]
        assert hops[0][2] == 1.0
        assert hops[1][1] == "100.64.0.1"
        assert hops[5][1] == "198.51.100.7"
        full = hops[5][2]
        assert hops[1][2] == pytest.approx(full - 13.0, abs=1e-9)
        assert hops[4][2] == pytest.approx(full - 7.0, abs=1e-9)


def test_traceroute_hops_helper_floors_at_1ms():
    hops = traceroute_hops(10.0)
    assert [h[2] for h in hops] == [1.0, 1.0, 1.0, 1.0, 3.0, 10.0]


def test_bulk_flow_goodput_tracks_latency(tmp_path):
    clock, orch, store, sim, agent = make_rig(
        tmp_path, sim_config=spiky_config([3]))
    orch.submit_experiment(window_spec("bulk", 2000, 80000, kind="BULK_FLOW",
                                       overhead="OVERHEAD",
                                       params={"rate_bps": 12e6}))
    drive(agent, clock, 85)
    _, _, path = store.list_runs("bulk")[0]
    lines = (path / "bulk_flow.csv").read_text().splitlines()
    assert lines[0] == "ts_ms,goodput_bps,rtt_ms,retrans"
    rows = [l.split(",") for l in lines[1:]]
    goodput = {int(r[0]): float(r[1]) for r in rows}
    assert max(goodput.values()) <= 12e6
    spike = sim.spike_log[0]
    in_spike = [g for t, g in goodput.items()
                if spike.start_ms + 2000 <= t < spike.end_ms]
    quiet = [g for t, g in goodput.items() if t < spike.start_ms]
    assert in_spike and quiet
    # during a 2.5x latency spike the capacity estimate drops well below
    # the offered rate
    assert max(in_spike) < min(quiet)


# --- CUSTOM runs ----------------------------------------------------------

def test_custom_run_completes_and_collects_artifacts(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment({
        "id": "cust", "kind": "CUSTOM", "overhead": "NO_OVERHEAD",
        "clients": ["n1"], "schedule": {"windows": [[1000, 60000]]},
        "params": {"cmd": "echo hello && echo 42 > out.txt",
                   "timeout_s": 30}})
    for _ in range(10):
        agent.tick()
        time.sleep(0.05)       # give the subprocess real time to exit
        clock.advance(1000)

    _, _, path = store.list_runs("cust")[0]
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["state"] == "COMPLETED"
    assert manifest["data_files"] == ["out.txt"]
    assert (path / "out.txt").read_text().strip() == "42"
    assert "hello" in (path / "stdout.log").read_text()


def test_custom_run_killed_at_wall_clock_limit(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment({
        "id": "slow", "kind": "CUSTOM", "overhead": "NO_OVERHEAD",
        "clients": ["n1"], "schedule": {"windows": [[1000, 600000]]},
        "params": {"cmd": ["sleep", "600"], "timeout_s": 3}})
    drive(agent, clock, 8)
    run = [r for r in agent.local_runs() if r.spec.id == "slow"][0]
    assert run.state == "KILLED"
    assert run.proc is None
    assert orch.query("slow")["runs"][0]["state"] == "KILLED"
    manifest = store.read_manifest("slow", "n1", run.start_ms)
    assert manifest["state"] == "KILLED"


def test_custom_launch_failure_marks_failed(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment({
        "id": "bad", "kind": "CUSTOM", "overhead": "NO_OVERHEAD",
        "clients": ["n1"], "schedule": {"windows": [[1000, 60000]]},
        "params": {"cmd": ["/no/such/binary"]}})
    drive(agent, clock, 5)
    run = [r for r in agent.local_runs() if r.spec.id == "bad"][0]
    assert run.state == "FAILED"
    assert orch.query("bad")["runs"][0]["state"] == "FAILED"


# --- upload retention and retries -----------------------------------------

def test_upload_failure_retains_then_retries(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    fails = {"n": 0}

    def flaky():
        if fails["n"] < 2:
            fails["n"] += 1
            raise UploadFailure("store down")

    store.fault_hook = flaky
    orch.submit_experiment(window_spec("png", 1000, 4000))
    drive(agent, clock, 5)       # finished at t=4000, two failed attempts queued

    assert (tmp_path / "agent" / "png-1000").exists()      # retained locally
    assert store.list_runs("png") == []
    # completion is only reported once the artifacts are safely stored
    assert orch.query("png")["runs"][0]["state"] != "COMPLETED"

    drive(agent, clock, 6)       # backoff elapses, third attempt succeeds
    assert fails["n"] == 2
    assert len(store.list_runs("png")) == 1
    assert not (tmp_path / "agent" / "png-1000").exists()
    assert orch.query("png")["runs"][0]["state"] == "COMPLETED"


# --- restart recovery -----------------------------------------------------

def journal_entries(workdir):
    path = workdir / "_state" / "journal.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_restart_marks_orphaned_running_as_failed(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment(window_spec("png", 0, 600000))
    drive(agent, clock, 3)
    assert agent.runs_by_state() == {"RUNNING": ["png-0"]}
    assert [(e["op"], e["run_id"]) for e in journal_entries(tmp_path / "agent")] \
        == [("RUNNING", "png-0")]

    # the process dies here; a fresh agent adopts the same working directory
    agent2 = Agent("n1", LocalClient(orch), store,
                   SimSource(TerminalSim(TerminalModelConfig(rng_seed=9))),
                   clock=clock, workdir=tmp_path / "agent", heartbeat_every_s=5)
    agent2.tick()

    assert orch.query("png")["runs"][0]["state"] == "FAILED"
    assert not (tmp_path / "agent" / "png-0").exists()
    assert list((tmp_path / "agent" / "_state").iterdir()) == []


def test_restart_does_not_run_a_recovered_window_again(tmp_path):
    """The dead process never acked the delivery, so the restarted agent
    is handed the spec again while its window is still open; the window's
    run was reported FAILED and must not start a second time."""
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment(window_spec("png", 0, 20000))
    drive(agent, clock, 3)
    assert orch.pending_for("n1") != []

    agent2 = Agent("n1", LocalClient(orch), store,
                   SimSource(TerminalSim(TerminalModelConfig(rng_seed=9))),
                   clock=clock, workdir=tmp_path / "agent", heartbeat_every_s=5)
    drive(agent2, clock, 25)

    assert orch.query("png")["runs"][0]["state"] == "FAILED"
    assert agent2.runs_by_state() == {}
    assert store.list_runs("png") == []


def test_restart_runs_a_preempted_window_the_orchestrator_requeued(tmp_path):
    """A preempted run's report makes the orchestrator requeue it; a restart
    before that delivery is acked must still run the window."""
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment(window_spec("bulk", 2000, 40000, kind="BULK_FLOW",
                                       overhead="OVERHEAD",
                                       params={"rate_bps": 4e6}))
    sim.inject_user_traffic(50e6, 10000, 20000)
    while not agent.preemption_log:
        drive(agent, clock, 1)
    drive(agent, clock, 1)   # the PREEMPTED report reaches the orchestrator
    assert orch.query("bulk")["runs"][0]["state"] == "SCHEDULED"
    assert orch.pending_for("n1") != []
    assert journal_entries(tmp_path / "agent")[-1]["op"] == "PREEMPTED"

    agent2 = Agent("n1", LocalClient(orch), store,
                   SimSource(TerminalSim(TerminalModelConfig(rng_seed=9))),
                   clock=clock, workdir=tmp_path / "agent", heartbeat_every_s=5)
    drive(agent2, clock, 6)
    assert agent2.runs_by_state() == {"RUNNING": ["bulk-2000"]}
    assert orch.query("bulk")["runs"][0]["state"] == "RUNNING"
    drive(agent2, clock, 30)

    assert orch.query("bulk")["runs"][0]["state"] == "COMPLETED"
    assert len(store.list_runs("bulk")) == 1


def test_restart_reports_a_preemption_the_dead_process_never_sent(tmp_path):
    """The PREEMPTED report is still queued in memory when the process dies;
    the restart must send it, or the orchestrator never requeues the run."""
    clock, orch, store, sim, agent = make_rig(tmp_path)
    orch.submit_experiment(window_spec("bulk", 2000, 40000, kind="BULK_FLOW",
                                       overhead="OVERHEAD",
                                       params={"rate_bps": 4e6}))
    sim.inject_user_traffic(50e6, 10000, 20000)
    while not agent.preemption_log:
        drive(agent, clock, 1)
    assert orch.query("bulk")["runs"][0]["state"] == "RUNNING"
    assert journal_entries(tmp_path / "agent")[-1]["op"] == "PREEMPTED"

    agent2 = Agent("n1", LocalClient(orch), store,
                   SimSource(TerminalSim(TerminalModelConfig(rng_seed=9))),
                   clock=clock, workdir=tmp_path / "agent", heartbeat_every_s=5)
    drive(agent2, clock, 60)

    assert orch.query("bulk")["runs"][0]["state"] == "COMPLETED"
    assert len(store.list_runs("bulk")) == 1


def test_restart_uploads_a_sealed_run_the_store_never_took(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)

    def down():
        raise UploadFailure("store down")

    store.fault_hook = down
    orch.submit_experiment(window_spec("png", 1000, 4000))
    drive(agent, clock, 5)       # sealed at t=4000; every upload fails
    workdir = tmp_path / "agent" / "png-1000"
    assert workdir.exists() and store.list_runs("png") == []
    sealed = journal_entries(tmp_path / "agent")[-1]
    assert sealed["op"] == "sealed" and sealed["manifest"]["state"] == "COMPLETED"

    # the process dies with the upload queued; the store comes back
    store.fault_hook = None
    agent2 = Agent("n1", LocalClient(orch), store,
                   SimSource(TerminalSim(TerminalModelConfig(rng_seed=9))),
                   clock=clock, workdir=tmp_path / "agent", heartbeat_every_s=5)
    drive(agent2, clock, 2)

    assert len(store.list_runs("png")) == 1
    assert store.read_manifest("png", "n1", 1000) == sealed["manifest"]
    assert sealed["manifest"]["row_count"] == 3
    assert not workdir.exists()
    assert list((tmp_path / "agent" / "_state").iterdir()) == []
    assert orch.query("png")["runs"][0]["state"] == "COMPLETED"


def test_restart_reports_a_run_whose_sealed_entry_was_torn_as_failed(tmp_path):
    clock, orch, store, sim, agent = make_rig(tmp_path)

    def down():
        raise UploadFailure("store down")

    store.fault_hook = down
    orch.submit_experiment(window_spec("png", 1000, 4000))
    drive(agent, clock, 5)       # sealed at t=4000; every upload fails
    journal = tmp_path / "agent" / "_state" / "journal.jsonl"
    journal.write_bytes(journal.read_bytes()[:-20])   # the crash tore it

    store.fault_hook = None
    agent2 = Agent("n1", LocalClient(orch), store,
                   SimSource(TerminalSim(TerminalModelConfig(rng_seed=9))),
                   clock=clock, workdir=tmp_path / "agent", heartbeat_every_s=5)
    drive(agent2, clock, 2)

    assert store.list_runs("png") == []
    assert orch.query("png")["runs"][0]["state"] == "FAILED"
    assert [p.name for p in (tmp_path / "agent").iterdir()] == ["_state"]
    assert list((tmp_path / "agent" / "_state").iterdir()) == []


class RecordingClient(LocalClient):
    def __init__(self, orchestrator):
        super().__init__(orchestrator)
        self.sent = []

    def call(self, msg):
        self.sent.append(msg)
        return super().call(msg)


def test_restart_after_a_crash_at_every_byte_offset_of_the_journal(tmp_path):
    """One sealed run the store never took and one run still RUNNING; the
    journal is cut at every offset and a fresh agent restarts on it."""
    clock, orch, store, sim, agent = make_rig(tmp_path / "first")

    def down():
        raise UploadFailure("store down")

    store.fault_hook = down
    specs = [window_spec("png", 1000, 4000), window_spec("long", 2000, 600000)]
    for spec in specs:
        orch.submit_experiment(spec)
    drive(agent, clock, 5)       # png sealed at t=4000, long still RUNNING
    first = tmp_path / "first" / "agent"
    data = (first / "_state" / "journal.jsonl").read_bytes()
    assert [(e["op"], e["run_id"]) for e in journal_entries(first)] == [
        ("RUNNING", "png-1000"), ("RUNNING", "long-2000"), ("sealed", "png-1000")]

    workdir, store_root = tmp_path / "agent", tmp_path / "store"
    for offset in range(len(data) + 1):
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(store_root, ignore_errors=True)
        (workdir / "_state").mkdir(parents=True)
        (workdir / "_state" / "journal.jsonl").write_bytes(data[:offset])
        lines = data[:offset].splitlines(keepends=True)
        last = {}
        for e in (json.loads(line) for line in lines if line.endswith(b"\n")):
            last[e["run_id"]] = (e["op"], e["experiment_id"])
            if e["op"] == "RUNNING":      # its workdir is made just after
                shutil.copytree(first / e["run_id"], workdir / e["run_id"],
                                dirs_exist_ok=True)
        restarted_orch = Orchestrator(["n1"], clock=clock)
        for spec in specs:
            restarted_orch.submit_experiment(spec)
        restarted_orch.heartbeat("n1", acks=[1, 2])   # nothing to redeliver
        client = RecordingClient(restarted_orch)
        restarted_store = ResultsStore(store_root)
        restarted = Agent("n1", client, restarted_store, SimSource(sim),
                          clock=clock, workdir=workdir, heartbeat_every_s=5)
        drive(restarted, clock, 2)

        reported = [(m["experiment_id"], m["manifest"]["state"])
                    for m in client.sent if m["type"] == "COMPLETE"]
        sealed = last.get("png-1000", (None,))[0] == "sealed"
        orphans = [(eid, "FAILED") for op, eid in last.values() if op == "RUNNING"]
        assert sorted(reported) == sorted(orphans + [("png", "COMPLETED")] * sealed), offset
        assert len(restarted_store.list_runs("png")) == sealed, offset
        assert [p.name for p in workdir.iterdir()] == ["_state"], offset
        assert list((workdir / "_state").iterdir()) == [], offset


# --- live telemetry feed --------------------------------------------------

def test_socket_source_reads_served_telemetry(tmp_path):
    interval_s = 0.25
    svc = TelemetryServer(TerminalSim(TerminalModelConfig(rng_seed=5)),
                          interval_s=interval_s)
    src = None
    try:
        src = SocketSource("127.0.0.1", svc.port)
        clock = WallClock()
        sample = None
        deadline = time.time() + 5
        while sample is None and time.time() < deadline:
            time.sleep(0.05)
            sample = src.sample(clock.now_ms())
        assert sample is not None
        assert sample.state in ("ACTIVE", "OUTAGE")
        assert sample.ts_ms > 0
        # consumed samples are not returned twice
        assert src.sample(clock.now_ms()) is None
        time.sleep(2 * interval_s)
        newer = src.sample(clock.now_ms())
        assert newer is not None and newer.ts_ms > sample.ts_ms
    finally:
        if src is not None:
            src.close()
        svc.close()


GOOD_WIRE = {"ts_ms": 2000, "pop_latency_ms": 31.5, "pop_drop_rate": 0.0, "az_deg": 10.0,
             "el_deg": 60.0, "bytes_down": 100, "bytes_up": 10, "state": "ACTIVE"}


@pytest.mark.parametrize("bad", [
    b"\xff\xfe\n",
    b"5\n",
    json.dumps({**GOOD_WIRE, "ts_ms": None}).encode() + b"\n",
    json.dumps({**GOOD_WIRE, "ts_ms": 3000, "pop_latency_ms": "x"}).encode() + b"\n",
], ids=["not_utf8", "bare_number", "null_ts_ms", "string_latency"])
def test_socket_source_skips_a_bad_line_and_reads_the_next(bad, caplog):
    listener = socket.create_server(("127.0.0.1", 0))
    src = None
    try:
        with caplog.at_level(logging.WARNING, logger="leobench.agent"):
            src = SocketSource(*listener.getsockname())
            feed, _ = listener.accept()
            with feed:
                feed.sendall(bad)
                deadline = time.monotonic() + 5
                while not caplog.records and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert "feed: skipped a bad line" in caplog.text
                assert src.sample(0) is None
                feed.sendall(json.dumps(GOOD_WIRE).encode() + b"\n")
                sample = None
                while sample is None and time.monotonic() < deadline:
                    time.sleep(0.01)
                    sample = src.sample(0)
        assert sample is not None and sample.to_wire() == GOOD_WIRE
    finally:
        if src is not None:
            src.close()
        listener.close()


def test_socket_source_skips_an_over_long_line_and_reads_the_next(caplog):
    """A valid sample padded past the line limit is dropped, not parsed."""
    padded = {**GOOD_WIRE, "ts_ms": 3000, "pad": "x" * (10 * MAX_FEED_LINE_BYTES)}
    listener = socket.create_server(("127.0.0.1", 0))
    src = None
    try:
        with caplog.at_level(logging.WARNING, logger="leobench.agent"):
            src = SocketSource(*listener.getsockname())
            feed, _ = listener.accept()
            with feed:
                feed.sendall(json.dumps(padded).encode() + b"\n")
                deadline = time.monotonic() + 5
                while not caplog.records and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert f"feed: skipped a line over {MAX_FEED_LINE_BYTES} bytes" in caplog.text
                assert src.sample(0) is None
                feed.sendall(json.dumps(GOOD_WIRE).encode() + b"\n")
                sample = None
                while sample is None and time.monotonic() < deadline:
                    time.sleep(0.01)
                    sample = src.sample(0)
        assert sample is not None and sample.to_wire() == GOOD_WIRE
    finally:
        if src is not None:
            src.close()
        listener.close()


def test_socket_source_close_ends_the_feed_connection():
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        src = SocketSource(*listener.getsockname())
        feed, _ = listener.accept()
        with feed:
            feed.settimeout(1.0)
            src.close()
            assert feed.recv(1) == b""   # EOF, not a timeout
        src._thread.join(timeout=1.0)
        assert not src._thread.is_alive()
    finally:
        listener.close()

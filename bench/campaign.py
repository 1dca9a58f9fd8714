"""campaign-replay: the paper's measurement loop on simulated time.

An in-process orchestrator with a write-ahead log and snapshots, reached
through LocalClient, schedules four experiments on two agents whose
terminals are SimSource models: windowed PING and TRACEROUTE, an OVERHEAD
BULK_FLOW on both nodes, and a trigger-bound traceroute that fires on
latency spikes. Injected user traffic preempts the bulk flow, which the
orchestrator requeues. The agents tick in lockstep on one SimClock, so the
loop is closed: a slow tick delays the next one.

One unit replays UNIT_SPAN_S simulated seconds from a fresh state. Every
unit does the same amount of work whatever the seed: the seed moves the
terminal noise, where the forced latency spikes fall and when user traffic
arrives, not how many of them there are.

BENCHMARK.json leaves this workload out: nearly all its host time is spent
waiting on the disk, which no bound can hold (README.md). Run it by hand.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from common import RunRecord, digest, median, percentile

NAME = "campaign-replay"
NODES = ("n1", "n2")
T0_MS = 1_700_000_000_000
UNIT_SPAN_S = 600
SPIKES_PER_NODE = 6
SPIKE_EXPR = "latency_ms >= 2*mavg(latency_ms,5)"
BULK_WINDOWS_S = ((100, 220), (400, 520))


def _windows(period_s: int, offset_s: int, length_s: int) -> list[list[int]]:
    return [[T0_MS + (k * period_s + offset_s) * 1000,
             T0_MS + (k * period_s + offset_s + length_s) * 1000]
            for k in range(UNIT_SPAN_S // period_s)]


SPECS = (
    {"id": "ping-win", "kind": "PING", "overhead": "NO_OVERHEAD",
     "clients": list(NODES), "schedule": {"windows": _windows(120, 5, 30)},
     "params": {}},
    {"id": "trace-win", "kind": "TRACEROUTE", "overhead": "NO_OVERHEAD",
     "clients": list(NODES), "schedule": {"windows": _windows(120, 60, 15)},
     "params": {"target": "8.8.8.8"}},
    {"id": "bulk", "kind": "BULK_FLOW", "overhead": "OVERHEAD",
     "clients": list(NODES),
     "schedule": {"windows": [[T0_MS + s * 1000, T0_MS + e * 1000]
                              for s, e in BULK_WINDOWS_S]},
     "params": {"rate_bps": 4e6}},
    {"id": "spike-trace", "kind": "TRACEROUTE", "overhead": "NO_OVERHEAD",
     "clients": list(NODES),
     "schedule": {"trigger": {"trigger": SPIKE_EXPR, "max_runtime_s": 10,
                              "cooldown_s": 30, "budget_per_day": 5000}},
     "params": {"target": "1.1.1.1"}},
)


def make_inputs(seed: int) -> dict:
    """Seeded plan for one unit: terminal seeds, spike quanta, user traffic."""
    rng = np.random.default_rng([seed, 1])
    n_quanta = UNIT_SPAN_S // 15
    block = (n_quanta - 6) // SPIKES_PER_NODE
    nodes = {}
    for nid in NODES:
        # one spike per block, >= 3 quanta apart, so every spike outlasts
        # the trigger's cooldown and the last ends well before the span does
        forced = [2 + b * block + int(rng.integers(0, block - 2))
                  for b in range(SPIKES_PER_NODE)]
        injections = [[T0_MS + (s + 30 + int(rng.integers(0, 10))) * 1000, 20_000,
                       float(rng.uniform(10e6, 30e6))]
                      for s, _ in BULK_WINDOWS_S]
        nodes[nid] = {"sim_seed": int(rng.integers(0, 2**31)),
                      "forced_bad_handovers": forced,
                      "injections": injections}
    return {"t0_ms": T0_MS, "span_s": UNIT_SPAN_S, "nodes": nodes,
            "specs": [dict(s) for s in SPECS]}


def expected_window_runs(plan: dict) -> int:
    return sum(len(s["schedule"]["windows"]) * len(s["clients"])
               for s in plan["specs"] if "windows" in s["schedule"])


class Unit:
    def __init__(self, plan: dict, root: Path, rec: RunRecord, traced: bool):
        from leobench.agent import Agent, SimSource
        from leobench.clocks import SimClock
        from leobench.orchestrator import LocalClient, Orchestrator
        from leobench.store import ResultsStore
        from leobench.terminal_sim import TerminalModelConfig, TerminalSim

        self.plan, self.root, self.rec = plan, root, rec
        self.clock = SimClock(plan["t0_ms"])
        self.orch = Orchestrator(list(NODES), clock=self.clock,
                                 log_path=root / "orch.wal")
        client = LocalClient(self.orch)
        self.store = ResultsStore(root / "store")
        self.agents = []
        for nid in NODES:
            node = plan["nodes"][nid]
            sim = TerminalSim(TerminalModelConfig(
                rng_seed=node["sim_seed"], p_bad_handover=0.0,
                forced_bad_handovers=tuple(node["forced_bad_handovers"]),
                spike_multiplier=(2.5, 3.0), spike_duration_quanta=1.0))
            for start_ms, dur_ms, rate in node["injections"]:
                sim.inject_user_traffic(rate, start_ms, dur_ms)
            self.agents.append(Agent(nid, client, self.store, SimSource(sim),
                                     clock=self.clock,
                                     workdir=root / f"agent-{nid}"))
        for spec in plan["specs"]:
            rec.attempted += 1
            if not client.call({"type": "SUBMIT", "spec": spec}).get("ok"):
                rec.fail("rejected")

    def measure(self) -> float:
        rec, clock, agents = self.rec, self.clock, self.agents
        lat = rec.op_latency_s
        perf = time.perf_counter
        start = perf()
        for _ in range(self.plan["span_s"]):
            for agent in agents:
                t = perf()
                try:
                    agent.tick()
                except Exception as exc:   # counted; the replay goes on
                    rec.fail(f"exception:{type(exc).__name__}")
                lat.append(perf() - t)
            clock.advance(1000)
        host_s = perf() - start
        rec.attempted += len(agents) * self.plan["span_s"]
        return self.plan["span_s"] / host_s

    def close(self) -> None:
        self.orch.close()

    def finish(self) -> str:
        from leobench.orchestrator import Orchestrator

        rec, orch = self.rec, self.orch
        orch.close()
        restored = Orchestrator.restore(list(NODES), self.root / "orch.wal")
        rec.check("wal_replay_matches_state", restored.to_state() == orch.to_state())
        restored.close()

        runs = [run for agent in self.agents for run in agent.local_runs()]
        trigger_runs = sum(run.origin == "trigger" for run in runs)
        expected = expected_window_runs(self.plan) + trigger_runs
        rec.attempted += expected
        rec.fail("still_active", sum(run.active for run in runs))
        stored = 0
        for spec in self.plan["specs"]:
            for _, _, path in self.store.list_runs(spec["id"]):
                stored += 1
                manifest = json.loads((path / "manifest.json").read_text())
                if manifest.get("state") != "COMPLETED" or manifest.get("orphaned"):
                    rec.fail("failed_or_orphaned_manifest")
        rec.fail("never_stored", max(expected - stored, 0))
        for view in orch.query():
            rec.fail("orchestrator_not_completed",
                     sum(r["state"] != "COMPLETED" for r in view["runs"]))
        rec.check("every_spike_triggered_a_run",
                  trigger_runs == SPIKES_PER_NODE * len(NODES))

        rec.note("agent.runs_stored", stored)
        rec.note("agent.preemptions",
                 sum(len(agent.preemption_log) for agent in self.agents))
        rec.note("agent.trigger_runs_stored", trigger_runs)
        rec.note("orchestrator.wal_bytes", (self.root / "orch.wal").stat().st_size)
        return digest(_listing(self.store.root))


def _listing(root: Path) -> list:
    """Every stored file with its path and content hash: the manifests and
    the data files they describe."""
    return [[str(p.relative_to(root)), digest(p.read_bytes())]
            for p in sorted(root.rglob("*")) if p.is_file()]


def named_metrics(rec: RunRecord) -> dict:
    return {
        "replay_speedup": (median(rec.unit_rates), "x"),
        "tick_p99_ms": (percentile(rec.op_latency_s, 99) * 1e3, "ms"),
    }

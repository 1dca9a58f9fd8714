"""control-plane: the orchestrator daemon under request load over TCP.

The daemon runs in its own process, started by bench/orch_server.py the way
`leobench orchestrate --log ... --nodes n0..n15` starts it. Set-up starts it
and loads a fixed table of experiments. Then two client threads, each owning
eight nodes, run a closed loop over loopback TCP with one connection per
request, as OrchestratorClient does: heartbeats that acknowledge the
schedules piggy-backed on earlier replies, SUBMIT, COMPLETE and whole-table
QUERY. No agent or simulator runs.

One unit is one daemon lifetime: start, load, both client scripts, stop.
The two clients interleave, so the daemon's final state is not fixed by the
seed and the unit has no digest. Instead the state rebuilt from the daemon's
write-ahead log must equal the state the daemon held when it stopped, and
that state must hold every experiment submitted.
"""

from __future__ import annotations

import json
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import RunRecord, median, percentile
from tracing import read_trace

NAME = "control-plane"
NODES = tuple(f"n{i}" for i in range(16))
CLIENTS = 2
# the table size of ROADMAP.md's QUERY layer probe
TABLE_SIZE = 200
CLIENTS_PER_EXPERIMENT = 3
# What one node's agent sends the orchestrator in one campaign-replay unit
# (600 simulated seconds at the Agent's default heartbeat_every_s of 10 s),
# counted at its LocalClient: heartbeats, COMPLETEs, COMPLETEs of a
# preempted run (which the daemon requeues once), and the node's share of
# the experiments submitted. test_bench.py recounts them on a campaign unit.
PER_NODE_MESSAGES = (("HEARTBEAT", 60), ("COMPLETE", 18), ("PREEMPT", 2),
                     ("SUBMIT", 2))
# No agent sends QUERY; one whole-table QUERY per client per simulated
# minute, as a user polling `leobench status` might, is a chosen rate
QUERIES_PER_CLIENT = 10
# one client's script: its nodes' messages over one campaign span, plus QUERY
MIX = tuple((kind, n * len(NODES) // CLIENTS) for kind, n in PER_NODE_MESSAGES) \
    + (("QUERY", QUERIES_PER_CLIENT),)
T0_MS = 1_700_000_000_000
SLOT_MS = 600_000
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
SERVER = Path(__file__).resolve().parent / "orch_server.py"


def _spec(eid: str, rng, nodes, slot: int) -> dict:
    # every experiment gets its own time slot, so OVERHEAD ones never clash
    # but admission still scans the table for conflicts
    clients = sorted(rng.choice(nodes, size=CLIENTS_PER_EXPERIMENT, replace=False))
    start = T0_MS + slot * SLOT_MS
    return {"id": eid, "kind": str(rng.choice(["PING", "TRACEROUTE", "HPING"])),
            "overhead": "OVERHEAD" if rng.random() < 0.5 else "NO_OVERHEAD",
            "clients": [str(c) for c in clients],
            "schedule": {"windows": [[start, start + SLOT_MS // 2]]},
            "params": {}}


def make_inputs(seed: int) -> dict:
    """Seeded table and one request script per client. The seed orders the
    requests and picks their targets; how many of each kind a script holds
    is fixed, so every seed asks the daemon for the same work."""
    rng = np.random.default_rng([seed, 2])
    table = [_spec(f"t{i:03d}", rng, NODES, i) for i in range(TABLE_SIZE)]
    scripts = []
    for c in range(CLIENTS):
        own = NODES[c * len(NODES) // CLIENTS:(c + 1) * len(NODES) // CLIENTS]
        runs = [(s["id"], n) for s in table for n in s["clients"] if n in own]
        kinds = [kind for kind, n in MIX for _ in range(n)]
        ops = []
        for k, i in enumerate(rng.permutation(len(kinds))):
            kind = kinds[i]
            if kind == "HEARTBEAT":
                ops.append({"type": kind, "node_id": own[int(rng.integers(len(own)))]})
            elif kind in ("COMPLETE", "PREEMPT"):
                eid, nid = runs[int(rng.integers(len(runs)))]
                ops.append({"type": "COMPLETE", "experiment_id": eid, "node_id": nid,
                            "manifest": {"state": "PREEMPTED" if kind == "PREEMPT"
                                         else "COMPLETED",
                                         "run_start_ms": T0_MS + (k * CLIENTS + c) * 1000}})
            elif kind == "SUBMIT":
                slot = TABLE_SIZE + k * CLIENTS + c
                ops.append({"type": kind,
                            "spec": _spec(f"c{c}-s{k:04d}", rng, own, slot)})
            else:
                ops.append({"type": kind})
        scripts.append(ops)
    return {"nodes": list(NODES), "table": table, "scripts": scripts}


def _submitted_ids(plan: dict) -> set[str]:
    return ({s["id"] for s in plan["table"]}
            | {op["spec"]["id"] for ops in plan["scripts"] for op in ops
               if op["type"] == "SUBMIT"})


class Unit:
    def __init__(self, plan: dict, root: Path, rec: RunRecord, traced: bool):
        from leobench.orchestrator import OrchestratorClient

        self.plan, self.root, self.rec = plan, root, rec
        self._rec_lock = threading.Lock()   # the client threads share rec
        self.log = root / "orch.wal"
        self.stats = root / "server-stats.json"
        self.trace = root / "server-trace.jsonl" if traced else None
        cmd = [sys.executable, str(SERVER), "--log", str(self.log),
               "--nodes", ",".join(plan["nodes"]), "--stats-out", str(self.stats)]
        if self.trace is not None:
            cmd += ["--trace-out", str(self.trace)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            port = json.loads(line)["listening"]
        except (ValueError, KeyError) as exc:
            self.close()
            raise RuntimeError(f"orchestrator did not start: {line!r}") from exc
        self.port = port
        client = OrchestratorClient("127.0.0.1", port)
        for spec in plan["table"]:
            self._call(client, {"type": "SUBMIT", "spec": spec})

    def _call(self, client, msg: dict):
        failure = None
        try:
            resp = client.call(msg)
        except (OSError, ValueError) as exc:
            resp, failure = None, f"exception:{type(exc).__name__}"
        else:
            if not resp.get("ok"):
                failure = f"not_ok:{msg['type']}"
        with self._rec_lock:
            self.rec.attempted += 1
            if failure:
                self.rec.fail(failure)
        return resp

    def _client_loop(self, ops: list, barrier: threading.Barrier, out: list):
        from leobench.orchestrator import OrchestratorClient

        client = OrchestratorClient("127.0.0.1", self.port)
        unacked: dict[str, list[int]] = {}
        lat = []
        perf = time.perf_counter
        barrier.wait()
        for op in ops:
            msg = op
            if op["type"] == "HEARTBEAT":
                nid = op["node_id"]
                msg = {"type": "HEARTBEAT", "node_id": nid,
                       "acks": unacked.pop(nid, [])}
            t = perf()
            resp = self._call(client, msg)
            lat.append(perf() - t)
            if resp is not None and op["type"] == "HEARTBEAT" and resp.get("ok"):
                unacked[op["node_id"]] = [s["seq"] for s in resp["schedules"]]
        out.append((perf(), lat))

    def measure(self) -> float:
        barrier = threading.Barrier(CLIENTS + 1)
        results: list = []
        threads = [threading.Thread(target=self._client_loop,
                                    args=(ops, barrier, results))
                   for ops in self.plan["scripts"]]
        for th in threads:
            th.start()
        barrier.wait()
        start = time.perf_counter()
        for th in threads:
            th.join()
        end = max(done for done, _ in results) if results else time.perf_counter()
        n = 0
        for _, lat in results:
            self.rec.op_latency_s.extend(lat)
            n += len(lat)
        self.rec.check("both_clients_finished", len(results) == CLIENTS)
        return n / (end - start)

    def close(self) -> int | None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode

    def finish(self) -> None:
        from leobench.orchestrator import Orchestrator

        rec = self.rec
        rc = self.close()
        rec.check("server_exited_cleanly", rc == 0)
        stats = json.loads(self.stats.read_text()) if self.stats.exists() else {}
        state = stats.get("state")
        rec.check("server_reported_state", state is not None)
        rec.rss_peak_mb = max(rec.rss_peak_mb, float(stats.get("rss_peak_mb", 0.0)))
        restored = Orchestrator.restore(list(self.plan["nodes"]), self.log)
        replayed = json.loads(json.dumps(restored.to_state()))
        restored.close()
        rec.check("wal_replay_matches_state", replayed == state)
        rec.check("table_holds_every_submission",
                  state is not None and _submitted_ids(self.plan) <= set(state["specs"]))
        rec.note("orchestrator.wal_bytes", self.log.stat().st_size)
        if self.trace is not None and self.trace.exists():
            rec.remote_traces.append(read_trace(self.trace))
        return None


def named_metrics(rec: RunRecord) -> dict:
    return {
        "rpc_per_s": (median(rec.unit_rates), "1/s"),
        "rpc_p50_ms": (percentile(rec.op_latency_s, 50) * 1e3, "ms"),
        "rpc_p99_ms": (percentile(rec.op_latency_s, 99) * 1e3, "ms"),
    }

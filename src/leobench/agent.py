"""Node-side agent.

One agent runs on each measurement node. Everything it does is folded into
tick(), which tests drive on a simulated clock and run_forever() drives on
the wall clock: ingest one telemetry sample, finish or kill due runs, open
scheduled windows, arbitrate trigger fires, emit one row per active builtin
run, and heartbeat the orchestrator. Heartbeats are the only control
channel; schedules arrive piggybacked on the response, in seq order, and
are acknowledged by seq; keeping the highest seq taken drops redeliveries.

Scavenger mode: a user-traffic detector watches the gap between terminal
byte counters and the agent's own offered load. While user traffic is
asserted, every RUNNING overhead run is preempted (NO_OVERHEAD runs keep
going) and restarted with its remaining time once the link is quiet again.

Runs execute in a dedicated working directory, process-sandboxed only;
artifacts are uploaded to the results store and then deleted locally, with
retained local copies and backoff retries if the store is down.

Durable state is a `journal`, `_state/journal.jsonl`: RUNNING at each start
and resume, PREEMPTED, and `sealed` with the manifest. A restart acts on
each run's last entry: a sealed run whose workdir is still here is uploaded
again; a RUNNING run died with the old process and is reported FAILED; a
PREEMPTED run is reported again, as the dead process may not have sent it;
every other workdir is removed. Replaying twice is harmless, as the
orchestrator drops repeated completions. A window run's entries name its
window, which a restart opens again only for a preempted run, as the
orchestrator requeues it. The file is deleted whenever nothing is pending.
"""

from __future__ import annotations

import json
import logging
import shutil
import socket
import subprocess
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clocks import WallClock
from .journal import Journal
from .orchestrator import _ID_RE, ExperimentSpec
from .store import ResultsStore, UploadFailure
from .telemetry import ConsumptionTracker, TelemetryWindow, UserTrafficDetector
from .terminal_sim import (HEADER_OVERHEAD_FRAC, POP_TO_DEST_MS, S1_MS, UPLINK_SHARE,
                           TelemetrySample, TerminalSim)
from .triggers import BindingState, TriggerState, evaluate

PENDING = "PENDING"
RUNNING = "RUNNING"
COMPLETED = "COMPLETED"
FAILED = "FAILED"
KILLED = "KILLED"
PREEMPTED = "PREEMPTED"
SEALED = "sealed"   # journal entry of a run whose artifacts are written

log = logging.getLogger(__name__)

LEGAL_TRANSITIONS = {
    PENDING: {RUNNING, FAILED},
    RUNNING: {COMPLETED, FAILED, KILLED, PREEMPTED},
    PREEMPTED: {PENDING},
    COMPLETED: set(),
    FAILED: set(),
    KILLED: set(),
}

PING_HEADER = "ts_ms,rtt_ms,lost"
TRACEROUTE_HEADER = "ts_ms,hop_index,hop_addr,rtt_ms"

DATA_FILES = {
    "PING": ("ping.csv", PING_HEADER),
    "HPING": ("hping.csv", PING_HEADER),
    "TRACEROUTE": ("traceroute.csv", TRACEROUTE_HEADER),
    "BULK_FLOW": ("bulk_flow.csv", "ts_ms,goodput_bps,rtt_ms,retrans"),
}

# LAN hop, CGNAT address at the PoP, two transit hops, peering hop, then the
# destination; offsets are ms behind the full path RTT
_TRACEROUTE_PATH = (
    (1, "192.168.1.1"),
    (2, "100.64.0.1"),
    (3, "206.224.64.1"),
    (4, "206.224.64.10"),
    (5, "142.250.4.1"),
    (6, None),
)
_TRACEROUTE_TAIL_MS = (None, POP_TO_DEST_MS, 11.0, 9.0, 7.0, 0.0)
DEFAULT_TARGET = "142.251.33.14"

# terminal counters carry header overhead on the downlink and a thin ack
# stream on the uplink, so the tracker must expect offered * this factor
ACCOUNTING_FACTOR = (1.0 + HEADER_OVERHEAD_FRAC) * (1.0 + UPLINK_SHARE)

# wait before each retry of a failed upload; the last one repeats
UPLOAD_BACKOFF_S = (1.0, 2.0, 5.0, 10.0, 30.0)

FEED_CONNECT_TIMEOUT_S = 10.0
# a telemetry line is a few hundred bytes; a longer one is skipped unread,
# so the feed reader never holds more than this much of one line
MAX_FEED_LINE_BYTES = 64 * 1024


class IllegalTransition(RuntimeError):
    pass


class LaunchFailure(RuntimeError):
    """CUSTOM command could not be started."""


def traceroute_hops(latency_ms: float, target: str = DEFAULT_TARGET):
    """Cumulative hop RTTs for one probe given the full path RTT. The LAN
    hop is the terminal's S1 and the post-PoP tail unwinds in known steps,
    which puts the satellite segment's share where a real dish sits."""
    hops = []
    for (idx, addr), tail in zip(_TRACEROUTE_PATH, _TRACEROUTE_TAIL_MS):
        rtt = S1_MS if tail is None else max(latency_ms - tail, S1_MS)
        hops.append((idx, addr if addr is not None else target, rtt))
    return hops


@dataclass
class LocalRun:
    """One attempt at an experiment on this node."""

    run_id: str
    spec: ExperimentSpec
    node_id: str
    origin: str                       # "window" | "trigger"
    duration_ms: int
    window: tuple[int, int] | None = None
    state: str = PENDING
    start_ms: int | None = None       # first RUNNING transition; store identity
    end_ms: int | None = None         # planned stop while RUNNING
    remaining_ms: int | None = None   # left over after a preemption
    workdir: Path | None = None
    rows: list = field(default_factory=list)
    stdout_lines: list = field(default_factory=list)
    proc: subprocess.Popen | None = None
    rng: np.random.Generator | None = None
    offered_bps: float = 0.0

    def transition(self, new_state: str) -> None:
        if new_state not in LEGAL_TRANSITIONS[self.state]:
            raise IllegalTransition(f"{self.run_id}: {self.state} -> {new_state}")
        self.state = new_state

    @property
    def active(self) -> bool:
        return self.state in (PENDING, RUNNING, PREEMPTED)

    def stop_process(self) -> None:
        """Kill a CUSTOM run's process if it still runs, and drop it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=5)
        self.proc = None


class SimSource:
    """Telemetry source that owns and steps a TerminalSim in process."""

    def __init__(self, sim: TerminalSim):
        self.sim = sim

    def sample(self, now_ms: int) -> TelemetrySample | None:
        if self.sim._last_ms is not None and now_ms <= self.sim._last_ms:
            return None
        return self.sim.step(now_ms)

    def set_experiment_rate(self, rate_bps: float, now_ms: int) -> None:
        self.sim.set_experiment_rate(rate_bps, now_ms)

    def close(self) -> None:
        pass


class SocketSource:
    """Telemetry source reading line-delimited JSON from a feed socket."""

    def __init__(self, host: str, port: int):
        self._latest: TelemetrySample | None = None
        self._last_returned_ms: int | None = None
        self._sock = socket.create_connection((host, port),
                                              timeout=FEED_CONNECT_TIMEOUT_S)
        self._sock.settimeout(None)
        self._thread = threading.Thread(target=self._read_loop, daemon=True)
        self._thread.start()

    def _read_loop(self) -> None:
        try:
            with self._sock.makefile("rb") as fh:
                while raw := fh.readline(MAX_FEED_LINE_BYTES + 1):
                    if len(raw) > MAX_FEED_LINE_BYTES and not raw.endswith(b"\n"):
                        while raw and not raw.endswith(b"\n"):
                            raw = fh.readline(MAX_FEED_LINE_BYTES + 1)
                        log.warning("feed: skipped a line over %d bytes", MAX_FEED_LINE_BYTES)
                        continue
                    if not raw.strip():
                        continue
                    try:   # UnicodeDecodeError is a ValueError; RecursionError: nested too deep
                        self._latest = TelemetrySample.from_wire(json.loads(raw.decode("utf-8")))
                    except (ValueError, RecursionError) as exc:
                        log.warning("feed: skipped a bad line: %s: %s", type(exc).__name__, exc)
        except OSError:
            pass

    def sample(self, now_ms: int) -> TelemetrySample | None:
        s = self._latest
        if s is None:
            return None
        if self._last_returned_ms is not None and s.ts_ms <= self._last_returned_ms:
            return None
        self._last_returned_ms = s.ts_ms
        return s

    def set_experiment_rate(self, rate_bps: float, now_ms: int) -> None:
        # the feed is one-way; rates only matter for local accounting
        pass

    def close(self) -> None:
        """End the feed connection and wait for the reader to return: the
        reader's file holds the socket open, so only a shutdown ends it."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:   # the server already ended the stream
            pass
        self._sock.close()
        self._thread.join()


class Agent:
    def __init__(self, node_id: str, client, store: ResultsStore, source,
                 clock=None, workdir=None,
                 heartbeat_every_s: float = 10.0):
        if workdir is None:
            import tempfile
            workdir = tempfile.mkdtemp(prefix=f"leobench-{node_id}-")
        self.node_id = node_id
        self.client = client
        self.store = store
        self.source = source
        self.clock = clock if clock is not None else WallClock()
        self.workdir = Path(workdir)
        self.heartbeat_every_s = float(heartbeat_every_s)

        self.window = TelemetryWindow(capacity=600)
        self.tracker = ConsumptionTracker()
        self.detector = UserTrafficDetector()

        self._lock = threading.RLock()
        self._specs: dict[str, ExperimentSpec] = {}
        self._bindings: dict[str, BindingState] = {}
        self._runs: dict[str, LocalRun] = {}
        self._opened_windows: set[tuple[str, int]] = set()
        self._last_seq = 0   # highest delivery seq taken
        self._ack_queue: set[int] = set()
        self._last_hb_ms: int | None = None
        self._last_sample: TelemetrySample | None = None
        self._offered_total_bps = 0.0
        self._uploads: list[dict] = []
        self._notices: list[dict] = []
        self.user_traffic_active = False
        self.preemption_log: list[tuple[int, str]] = []   # (ts_ms, run_id)

        (self.workdir / "_state").mkdir(parents=True, exist_ok=True)
        self._recover()

    # --- crash recovery ---------------------------------------------------

    def _recover(self) -> None:   # by the rules in the module docstring
        last: dict[str, dict] = {}

        def note(entry: dict) -> None:
            if entry["op"] not in (RUNNING, PREEMPTED, SEALED) or not \
                    all(_ID_RE.fullmatch(entry[k]) for k in ("run_id", "experiment_id")):
                raise ValueError(f"not a run entry: {entry!r}")
            last[entry["run_id"]] = entry

        self._journal = Journal(self.workdir / "_state" / "journal.jsonl", note)
        for run_id, entry in last.items():
            workdir = self.workdir / run_id
            if entry["op"] != PREEMPTED and "window_start_ms" in entry:
                self._opened_windows.add((entry["experiment_id"],
                                          entry["window_start_ms"]))
            if entry["op"] == SEALED and workdir.is_dir():
                self._uploads.append({**entry, "attempts": 0, "next_ms": 0})
                continue
            if entry["op"] == RUNNING:
                self._report(entry["experiment_id"], {"state": FAILED, "orphaned": True,
                                                      "run_start_ms": entry["run_start_ms"]})
            elif entry["op"] == PREEMPTED:
                self._report(entry["experiment_id"], {"state": PREEMPTED,
                                                      "run_start_ms": entry["run_start_ms"]})
            shutil.rmtree(workdir, ignore_errors=True)

    def _journal_append(self, op: str, run: LocalRun, **extra) -> dict:
        entry = {"op": op, "run_id": run.run_id, "experiment_id": run.spec.id,
                 "run_start_ms": run.start_ms, **extra}
        if run.window is not None:
            entry["window_start_ms"] = run.window[0]
        self._journal.append(entry)
        return entry

    # --- main loop --------------------------------------------------------

    def tick(self, now_ms: int | None = None) -> TelemetrySample | None:
        now = self.clock.now_ms() if now_ms is None else int(now_ms)
        with self._lock:
            self._flush_notices()
            self._process_uploads(now)
            if not (self._uploads or self._notices or any(
                    r.active and r.start_ms is not None for r in self._runs.values())):
                self._journal.remove()   # no entry is needed to recover
            sample = self.source.sample(now)
            if sample is not None:
                self._ingest(sample)
            self._finish_due_runs(now)
            self._open_windows(now)
            self._poll_triggers(now)
            self._start_pending(now)
            self._advance_running(now)
            if self._last_hb_ms is None or \
                    now - self._last_hb_ms >= self.heartbeat_every_s * 1000.0:
                self._heartbeat(now)
        return sample

    def run_forever(self, tick_interval_s: float = 1.0,
                    stop_event: threading.Event | None = None) -> None:
        while stop_event is None or not stop_event.is_set():
            self.tick()
            self.clock.sleep(tick_interval_s)

    def close(self) -> None:
        self._journal.close()

    # --- telemetry and scavenger ------------------------------------------

    def _ingest(self, sample: TelemetrySample) -> None:
        if self._last_sample is not None and sample.ts_ms <= self._last_sample.ts_ms:
            return
        self._last_sample = sample
        self.window.push(sample)
        delta = self.tracker.push(
            sample, self._offered_total_bps * ACCOUNTING_FACTOR)
        if delta is None:
            return
        event = self.detector.update(delta)
        if event is not None:
            if event.active:
                self._scavenger_assert(event.ts_ms)
            else:
                self._scavenger_deassert(event.ts_ms)

    def _scavenger_assert(self, now: int) -> None:
        self.user_traffic_active = True
        for run in self._iter_runs():
            if run.state == RUNNING and run.spec.overhead == "OVERHEAD":
                self._preempt(run, now)

    def _scavenger_deassert(self, now: int) -> None:
        self.user_traffic_active = False
        for run in self._iter_runs():
            if run.state == PREEMPTED:
                run.transition(PENDING)

    def _preempt(self, run: LocalRun, now: int) -> None:
        run.stop_process()
        run.remaining_ms = max(run.end_ms - now, 0) if run.end_ms else 0
        run.transition(PREEMPTED)
        run.stdout_lines.append(f"preempted at {now} for user traffic")
        self._journal_append(PREEMPTED, run)
        self.preemption_log.append((now, run.run_id))
        self._recompute_offered(now)
        self._report(run.spec.id, {"state": PREEMPTED, "run_start_ms": run.start_ms})

    # --- run lifecycle ----------------------------------------------------

    def _iter_runs(self):
        return list(self._runs.values())

    def _overhead_running(self) -> bool:
        return any(r.state == RUNNING and r.spec.overhead == "OVERHEAD"
                   for r in self._iter_runs())

    def _active_run_for(self, experiment_id: str) -> LocalRun | None:
        for run in self._iter_runs():
            if run.spec.id == experiment_id and run.active:
                return run
        return None

    def _create_run(self, spec: ExperimentSpec, origin: str, created_ms: int,
                    duration_ms: int, window=None) -> LocalRun:
        run = LocalRun(run_id=f"{spec.id}-{created_ms}", spec=spec,
                       node_id=self.node_id, origin=origin,
                       duration_ms=int(duration_ms), window=window)
        self._runs[run.run_id] = run
        return run

    def _open_windows(self, now: int) -> None:
        for spec in self._specs.values():
            if spec.windows is None:
                continue
            for (s, e) in spec.windows:
                if s <= now < e and (spec.id, s) not in self._opened_windows:
                    self._opened_windows.add((spec.id, s))
                    self._create_run(spec, "window", s, e - s, window=(s, e))

    def _poll_triggers(self, now: int) -> None:
        for eid, bstate in self._bindings.items():
            if bstate.disabled:
                continue
            spec = self._specs[eid]
            try:
                state = evaluate(bstate.binding.expr, self.window, now_ms=now)
            except Exception:   # one binding's fault must not end the tick
                log.exception("agent %s: trigger of %s raised; binding disabled",
                              self.node_id, eid)
                bstate.disabled = True
                continue
            active = self._active_run_for(eid)
            if active is not None:
                stop_early = bool(spec.trigger.get("stop_on_deassert")) \
                    if spec.trigger else False
                if stop_early and active.state == RUNNING \
                        and state is not TriggerState.FIRE:
                    self._finish(active, COMPLETED, now)
                continue
            if state is TriggerState.FIRE and bstate.can_fire(now):
                self._create_run(spec, "trigger", now,
                                 bstate.binding.max_runtime_s * 1000)

    def _start_pending(self, now: int) -> None:
        for run in self._iter_runs():
            if run.state != PENDING:
                continue
            if run.spec.overhead == "OVERHEAD" and \
                    (self.user_traffic_active or self._overhead_running()):
                continue   # deferred; retried every tick
            self._start(run, now)

    def _start(self, run: LocalRun, now: int) -> None:
        resuming = run.remaining_ms is not None
        if not resuming:
            run.start_ms = now
            run.workdir = self.workdir / run.run_id
            # journaled first, so a restart finds every workdir made
            self._journal_append(RUNNING, run)
            run.workdir.mkdir(parents=True, exist_ok=True)
            seed = zlib.crc32(f"{self.node_id}/{run.spec.id}".encode())
            run.rng = np.random.default_rng(seed ^ now)
            run.end_ms = run.window[1] if run.window else now + run.duration_ms
            if run.origin == "trigger":
                self._bindings[run.spec.id].note_fire(now)
            if run.spec.kind == "CUSTOM":
                timeout_s = float(run.spec.params.get("timeout_s", 60.0))
                run.end_ms = min(run.end_ms, now + int(timeout_s * 1000))
        else:
            run.end_ms = now + run.remaining_ms
            run.remaining_ms = None
            self._journal_append(RUNNING, run)
        if run.spec.kind == "CUSTOM":
            try:
                self._launch_custom(run)
            except LaunchFailure as exc:
                run.transition(FAILED)
                run.stdout_lines.append(f"launch failed: {exc}")
                self._seal(run, now)
                return
        run.transition(RUNNING)
        run.stdout_lines.append(
            f"{'resumed' if resuming else 'started'} {run.spec.kind} at {now}")
        if run.spec.kind == "BULK_FLOW":
            run.offered_bps = float(run.spec.params.get("rate_bps", 4e6))
            self._recompute_offered(now)

    def _launch_custom(self, run: LocalRun) -> None:
        cmd = run.spec.params.get("cmd")
        if not cmd:
            raise LaunchFailure("CUSTOM run without params.cmd")
        out = open(run.workdir / "stdout.log", "a")
        try:
            run.proc = subprocess.Popen(
                cmd, cwd=run.workdir, stdout=out, stderr=subprocess.STDOUT,
                shell=isinstance(cmd, str))
        except OSError as exc:
            raise LaunchFailure(str(exc)) from exc
        finally:
            out.close()

    def _finish_due_runs(self, now: int) -> None:
        for run in self._iter_runs():
            if run.state != RUNNING:
                continue
            if run.spec.kind == "CUSTOM":
                rc = run.proc.poll() if run.proc is not None else 1
                if rc is not None:
                    self._finish(run, COMPLETED if rc == 0 else FAILED, now)
                elif now >= run.end_ms:
                    run.stdout_lines.append(f"killed at {now}: wall-clock limit")
                    self._finish(run, KILLED, now)
            elif now >= run.end_ms:
                self._finish(run, COMPLETED, now)

    def _finish(self, run: LocalRun, state: str, now: int) -> None:
        run.stop_process()
        run.transition(state)
        run.stdout_lines.append(f"finished {state} at {now}, rows={len(run.rows)}")
        if run.spec.kind == "BULK_FLOW":
            run.offered_bps = 0.0
            self._recompute_offered(now)
        self._seal(run, now)

    def _seal(self, run: LocalRun, now: int) -> None:
        """Write artifacts and queue the upload + completion report."""
        if run.spec.kind in DATA_FILES:
            name, header = DATA_FILES[run.spec.kind]
            lines = [header] + [",".join(str(v) for v in row) for row in run.rows]
            (run.workdir / name).write_text("\n".join(lines) + "\n")
            data_files = [name]
        else:
            data_files = sorted(p.name for p in run.workdir.iterdir()
                                if p.is_file() and p.name != "stdout.log")
        stdout_path = run.workdir / "stdout.log"
        with open(stdout_path, "a") as fh:
            for line in run.stdout_lines:
                fh.write(line + "\n")
        manifest = {
            "experiment_id": run.spec.id, "node_id": self.node_id,
            "kind": run.spec.kind, "overhead": run.spec.overhead,
            "origin": run.origin, "state": run.state,
            "run_start_ms": run.start_ms, "run_end_ms": now,
            "row_count": len(run.rows), "data_files": data_files,
        }
        # the manifest in the journal lets a restart finish the upload
        sealed = self._journal_append(SEALED, run, manifest=manifest)
        self._uploads.append({**sealed, "attempts": 0, "next_ms": now})
        self._process_uploads(now)

    # --- uploads and notices ----------------------------------------------

    def _process_uploads(self, now: int) -> None:
        remaining = []
        for item in self._uploads:
            if now < item["next_ms"]:
                remaining.append(item)
                continue
            workdir = self.workdir / item["run_id"]
            try:
                self.store.upload(item["experiment_id"], self.node_id,
                                  item["run_start_ms"], workdir, item["manifest"])
            except UploadFailure:
                item["attempts"] += 1
                idx = min(item["attempts"] - 1, len(UPLOAD_BACKOFF_S) - 1)
                item["next_ms"] = now + int(UPLOAD_BACKOFF_S[idx] * 1000)
                remaining.append(item)
                continue
            shutil.rmtree(workdir, ignore_errors=True)
            self._report(item["experiment_id"], item["manifest"])
        self._uploads = remaining

    def _report(self, experiment_id: str, manifest: dict) -> None:
        """Queue a completion for the orchestrator, sent until it is taken."""
        self._notices.append({"type": "COMPLETE", "experiment_id": experiment_id,
                              "node_id": self.node_id, "manifest": manifest})

    def _flush_notices(self) -> None:
        remaining = []
        for msg in self._notices:
            try:
                resp = self.client.call(msg)
            except Exception as exc:   # kept, sent again next tick
                log.warning("agent %s: completion of %s not sent: %s: %s", self.node_id,
                            msg["experiment_id"], type(exc).__name__, exc)
                remaining.append(msg)
                continue
            if not resp.get("ok") and \
                    resp.get("error", {}).get("kind") not in ("UnknownRun",):
                remaining.append(msg)
        self._notices = remaining

    def _recompute_offered(self, now: int) -> None:
        total = sum(r.offered_bps for r in self._iter_runs() if r.state == RUNNING)
        if total != self._offered_total_bps:
            self._offered_total_bps = total
            self.source.set_experiment_rate(total, now)

    # --- per-tick measurement rows ----------------------------------------

    def _advance_running(self, now: int) -> None:
        sample = self._last_sample
        if sample is None:
            return
        for run in self._iter_runs():
            if run.state != RUNNING or run.spec.kind == "CUSTOM":
                continue
            if run.spec.kind in ("PING", "HPING"):
                self._ping_row(run, now, sample)
            elif run.spec.kind == "TRACEROUTE":
                self._traceroute_rows(run, now, sample)
            elif run.spec.kind == "BULK_FLOW":
                self._bulk_row(run, now, sample)

    def _ping_row(self, run: LocalRun, now: int, sample: TelemetrySample) -> None:
        if sample.pop_latency_ms is None:
            run.rows.append((now, 0.0, 1))
            return
        lost = 1 if run.rng.random() < (sample.pop_drop_rate or 0.0) else 0
        rtt = 0.0 if lost else round(sample.pop_latency_ms, 3)
        run.rows.append((now, rtt, lost))

    def _traceroute_rows(self, run: LocalRun, now: int,
                         sample: TelemetrySample) -> None:
        if sample.pop_latency_ms is None:
            return
        target = str(run.spec.params.get("target",
                                         run.spec.servers[0] if run.spec.servers
                                         else DEFAULT_TARGET))
        for hop, addr, rtt in traceroute_hops(sample.pop_latency_ms, target):
            run.rows.append((now, hop, addr, round(rtt, 3)))

    def _bulk_row(self, run: LocalRun, now: int, sample: TelemetrySample) -> None:
        if sample.pop_latency_ms is None:
            run.rows.append((now, 0.0, 0.0, 0))
            return
        base_cap = float(run.spec.params.get("capacity_base_bps", 16e6))
        try:
            lats = self.window.last_values("latency_ms", min(len(self.window), 60))
            ref = float(np.median(lats))
        except Exception:
            ref = sample.pop_latency_ms
        scale = min(max(ref / sample.pop_latency_ms, 0.3), 1.0)
        goodput = min(run.offered_bps, base_cap * scale)
        retrans = int(round((sample.pop_drop_rate or 0.0) * goodput / 12000.0))
        run.rows.append((now, round(goodput, 1),
                         round(sample.pop_latency_ms, 3), retrans))

    # --- heartbeats -------------------------------------------------------

    def _heartbeat(self, now: int) -> None:
        reports = [{"experiment_id": r.spec.id, "state": r.state}
                   for r in self._iter_runs() if r.state == RUNNING]
        sent_acks = sorted(self._ack_queue)
        msg = {"type": "HEARTBEAT", "node_id": self.node_id, "ts_ms": now,
               "acks": sent_acks, "runs": reports}
        try:
            resp = self.client.call(msg)
        except Exception as exc:   # tried again next tick
            log.warning("agent %s: heartbeat failed: %s: %s", self.node_id,
                        type(exc).__name__, exc)
            return
        if not resp.get("ok"):
            return
        self._last_hb_ms = now
        self._ack_queue.difference_update(sent_acks)
        for sched in resp.get("schedules", ()):
            seq = int(sched["seq"])
            self._ack_queue.add(seq)
            if seq <= self._last_seq:
                continue
            self._last_seq = seq
            self._accept(ExperimentSpec.from_json(sched["spec"]), now)

    def _accept(self, spec: ExperimentSpec, now: int) -> None:
        if spec.id in self._specs:
            # redelivery or a requeue after preemption; re-arm only if no
            # local attempt is still alive, so resumption cannot double-run
            if self._active_run_for(spec.id) is None:
                self._opened_windows = {k for k in self._opened_windows
                                        if k[0] != spec.id}
            return
        self._specs[spec.id] = spec
        if spec.trigger is not None:
            self._bindings[spec.id] = BindingState(spec.binding())

    # --- introspection ----------------------------------------------------

    def runs_by_state(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for run in self._iter_runs():
            out.setdefault(run.state, []).append(run.run_id)
        return out

    def local_runs(self) -> list[LocalRun]:
        return self._iter_runs()


"""Central coordinator for the measurement testbed.

Control is pull-based: agents dial in over a reliable byte stream carrying
one JSON object per line, and the orchestrator never dials an agent. Four
message types exist on the wire (SUBMIT, HEARTBEAT, COMPLETE, QUERY); node
registration is a static table fixed at construction, not a protocol step.

Scheduling state is one record per experiment (its spec and its run on
each client node) plus per-node queues of (seq, experiment) deliveries in
seq order. Each heartbeat response carries the node's whole queue, and a
delivery stays in it until the agent acknowledges its seq, so a lost
response costs one heartbeat interval, never a lost run, and an agent that
keeps the highest seq it has taken drops exactly the redeliveries:
exactly-once execution over an at-least-once channel.

A rejected request is answered with ``{"ok": false, "error": {"kind": ...,
"message": ...}}``, the kind naming the OrchestratorError raised. A line
that is not UTF-8, not JSON, not a JSON object, or lacks a well-formed
field gets BadMessage, and its connection keeps serving.

`Orchestrator.serve` answers the wire from one thread and one selector,
with no thread per connection. Each connection's replies go out in request
order, and its next line is answered only once the reply before is sent.
A request line longer than MAX_LINE_BYTES gets one BadMessage and closes
its connection; a connection that for IDLE_TIMEOUT_S completes no line and
takes none of its reply is closed. A whole-table QUERY reply on the wire
is joined from each experiment's view as encoded JSON text, kept per
experiment and encoded again only after one of its runs changes state or
is requeued, so it does not re-encode the table on the serving thread;
its bytes are those of encoding `handle_message`'s reply.

`OrchestratorClient` keeps a small pool of connections and reuses one only
while it has been idle under REUSE_IDLE_S (half of IDLE_TIMEOUT_S) and holds
no pending end of stream or stray bytes; concurrent callers each get their
own. A call that fails after its request was sent raises and is never sent
again, since the server may already have applied it.

Every mutating call is validated, then appended to a log in the `journal`
format, then applied. The log is the only durable state: opening an existing
log replays it by `journal`'s rules from an empty state, which must rebuild
identical tables (tests hold the API to that), then keeps appending to it.
"""

from __future__ import annotations

import json
import logging
import re
import select
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field

from .clocks import WallClock
from .journal import Journal
from .triggers import TriggerBinding, TriggerSyntaxError, UnknownMetric, reads_orbital_state

EXPERIMENT_KINDS = ("PING", "HPING", "TRACEROUTE", "BULK_FLOW", "CUSTOM")
OVERHEAD_CLASSES = ("OVERHEAD", "NO_OVERHEAD")
TERMINAL_STATES = ("COMPLETED", "FAILED", "KILLED", "PREEMPTED")

MAX_REQUEUES = 1   # times a PREEMPTED run is re-enqueued before it sticks
CLIENT_TIMEOUT_S = 10.0
MAX_LINE_BYTES = 1 << 20   # a longer request line is refused and ends its connection
IDLE_TIMEOUT_S = 10.0      # a connection that makes no progress for this long is closed
ACCEPT_RETRY_S = 0.1       # pause in accepting after an accept error such as EMFILE
RECV_BYTES = 1 << 16
# a client reuses a pooled connection only if idle for less than this, so the
# server's idle close never races a request
REUSE_IDLE_S = IDLE_TIMEOUT_S / 2

HEALTHY = "HEALTHY"
STALE = "STALE"
DOWN = "DOWN"

log = logging.getLogger(__name__)


class OrchestratorError(Exception):
    """A rejection a wire reply names by subclass; `fields` ride along."""
    fields: dict = {}


class BadMessage(OrchestratorError):
    """Wire message that is not an object or lacks a well-formed field."""


class BadSpec(OrchestratorError):
    """Structurally invalid experiment description."""


class BadTrigger(OrchestratorError):
    """Trigger expression failed to parse at submission time."""


class ConflictError(OrchestratorError):
    """Submission would double-book overhead load on some node."""

    def __init__(self, clashing_ids):
        self.clashing_ids = sorted(clashing_ids)
        self.fields = {"clashing_ids": self.clashing_ids}
        super().__init__(f"conflicts with experiments: {', '.join(self.clashing_ids)}")


class UnknownNode(OrchestratorError):
    pass


class UnknownRun(OrchestratorError):
    pass


class DuplicateExperiment(OrchestratorError):
    pass


# ids become store path components: no separators, no leading dot
_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _check_windows(windows) -> tuple[tuple[int, int], ...]:
    out = []
    for w in windows:
        if len(w) != 2:
            raise BadSpec(f"window must be [start, end]: {w!r}")
        start, end = int(w[0]), int(w[1])
        if start >= end:
            raise BadSpec(f"empty window [{start}, {end})")
        out.append((start, end))
    if not out:
        raise BadSpec("schedule.windows is empty")
    return tuple(out)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: what to run, where, and when.

    The schedule is either fixed half-open windows (epoch ms) or a trigger
    binding, never both. Clients must be registered nodes; servers may be
    arbitrary endpoints.
    """

    id: str
    kind: str
    overhead: str
    clients: tuple[str, ...]
    servers: tuple[str, ...] = ()
    windows: tuple[tuple[int, int], ...] | None = None
    trigger: dict | None = None
    params: dict = field(default_factory=dict)
    artifact_ref: str | None = None

    def __post_init__(self):
        for value in (self.id, *self.clients):
            if not isinstance(value, str) or not _ID_RE.fullmatch(value):
                raise BadSpec(f"ids must match {_ID_RE.pattern}: {value!r}")
        if self.kind not in EXPERIMENT_KINDS:
            raise BadSpec(f"unknown kind {self.kind!r}")
        if self.overhead not in OVERHEAD_CLASSES:
            raise BadSpec(f"unknown overhead class {self.overhead!r}")
        if not self.clients:
            raise BadSpec("at least one client node required")
        if (self.windows is None) == (self.trigger is None):
            raise BadSpec("schedule needs exactly one of windows or trigger")
        if self.windows is not None:
            object.__setattr__(self, "windows", _check_windows(self.windows))
        if self.trigger is not None:
            self.binding()  # parse now so bad expressions fail at submit
        object.__setattr__(self, "clients", tuple(self.clients))
        object.__setattr__(self, "servers", tuple(self.servers))

    def binding(self) -> TriggerBinding | None:
        if self.trigger is None:
            return None
        try:
            return TriggerBinding.from_spec(self.trigger, self.id)
        except (TriggerSyntaxError, UnknownMetric, KeyError, ValueError, TypeError) as exc:
            raise BadTrigger(f"{self.id}: {exc}") from exc

    def to_json(self) -> dict:
        schedule = ({"windows": [list(w) for w in self.windows]}
                    if self.windows is not None else {"trigger": dict(self.trigger)})
        out = {
            "id": self.id,
            "kind": self.kind,
            "overhead": self.overhead,
            "clients": list(self.clients),
            "servers": list(self.servers),
            "schedule": schedule,
            "params": dict(self.params),
        }
        if self.artifact_ref is not None:
            out["artifact_ref"] = self.artifact_ref
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        if not isinstance(obj, dict):
            raise BadSpec("spec must be an object")
        missing = [k for k in ("id", "kind", "overhead", "clients", "schedule")
                   if k not in obj]
        if missing:
            raise BadSpec(f"spec missing keys: {missing}")
        schedule = obj["schedule"]
        if not isinstance(schedule, dict):
            raise BadSpec("schedule must be an object")
        return cls(
            id=obj["id"],
            kind=obj["kind"],
            overhead=obj["overhead"],
            clients=tuple(obj["clients"]),
            servers=tuple(obj.get("servers", ())),
            windows=schedule.get("windows"),
            trigger=schedule.get("trigger"),
            params=dict(obj.get("params", {})),
            artifact_ref=obj.get("artifact_ref"),
        )


def windows_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Half-open overlap; [0, 60) and [60, 120) merely touch."""
    return a[0] < b[1] and b[0] < a[1]


@dataclass
class NodeRecord:
    node_id: str
    last_heartbeat_ms: int | None = None

    def health(self, now_ms: int, interval_ms: float) -> str:
        if self.last_heartbeat_ms is None:
            return DOWN
        missed = (now_ms - self.last_heartbeat_ms) / interval_ms
        if missed < 3:
            return HEALTHY
        if missed <= 10:
            return STALE
        return DOWN


@dataclass
class RunRecord:
    state: str = "SCHEDULED"
    requeues: int = 0
    manifest: dict | None = None
    completions: set[tuple] = field(default_factory=set)   # (run_start_ms, state)


@dataclass
class Experiment:
    spec: ExperimentSpec
    runs: dict[str, RunRecord]   # by client node id, in sorted order
    # json.dumps of its QUERY view, built at QUERY time; None once a run changes
    view_text: str | None = None


def _error(kind: str, message: str, **extra) -> dict:
    return {"ok": False, "error": {"kind": kind, "message": message, **extra}}


def _completion_order(key: tuple) -> tuple:
    """Sort key of a completion (run_start_ms, state): a manifest's
    run_start_ms may be absent (None), a number or a string, so those rank
    in that order before values are compared."""
    start, state = key
    rank = 0 if start is None else 2 if isinstance(start, str) else 1
    return rank, start, state


class Orchestrator:
    """Single-process coordinator; all entry points are thread-safe."""

    def __init__(self, node_ids, clock=None,
                 heartbeat_interval_s: float = 10.0,
                 log_path=None):
        """With `log_path`, an existing log is replayed first and new
        entries continue its numbering."""
        self.clock = clock if clock is not None else WallClock()
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self._lock = threading.RLock()
        self._nodes: dict[str, NodeRecord] = {
            nid: NodeRecord(nid) for nid in node_ids}
        self._experiments: dict[str, Experiment] = {}
        self._pending: dict[str, list[dict]] = {nid: [] for nid in node_ids}
        self._next_seq: dict[str, int] = {nid: 1 for nid in node_ids}
        self._journal = Journal(log_path, self._apply) if log_path else None
        self._server: _LineServer | None = None

    # --- submission -------------------------------------------------------

    def submit_experiment(self, spec) -> str:
        if not isinstance(spec, ExperimentSpec):
            spec = ExperimentSpec.from_json(spec)
        # checked here, not in ExperimentSpec, so a log holding one still replays
        if spec.trigger is not None and reads_orbital_state(spec.binding().expr):
            raise BadSpec(f"{spec.id}: trigger reads visible_sats, which no agent "
                          "can evaluate without orbital state")
        with self._lock:
            if spec.id in self._experiments:
                raise DuplicateExperiment(f"experiment id {spec.id!r} already exists")
            for nid in spec.clients:
                if nid not in self._nodes:
                    raise UnknownNode(f"unknown client node {nid!r}")
            clashing = self._find_conflicts(spec)
            if clashing:
                raise ConflictError(clashing)
            self._append_log({"op": "submit", "spec": spec.to_json()})
            self._apply_submit(spec)
        return spec.id

    def _occupied_nodes(self, spec: ExperimentSpec) -> set[str]:
        # servers carrying overhead traffic matter too, but only ones we manage
        return set(spec.clients) | {s for s in spec.servers if s in self._nodes}

    def _find_conflicts(self, spec: ExperimentSpec) -> list[str]:
        """OVERHEAD experiments may not overlap in time on a shared node.

        NO_OVERHEAD runs never conflict with anything, and trigger-bound
        experiments have no static windows to check; agents arbitrate those
        at fire time.
        """
        if spec.overhead != "OVERHEAD" or spec.windows is None:
            return []
        mine = self._occupied_nodes(spec)
        clashing = []
        for experiment in self._experiments.values():
            other = experiment.spec
            if other.overhead != "OVERHEAD" or other.windows is None:
                continue
            if not (mine & self._occupied_nodes(other)):
                continue
            if any(windows_overlap(a, b) for a in spec.windows for b in other.windows):
                clashing.append(other.id)
        return clashing

    def _apply_submit(self, spec: ExperimentSpec) -> None:
        self._experiments[spec.id] = Experiment(
            spec, {nid: RunRecord() for nid in sorted(spec.clients)})
        for nid in spec.clients:
            self._enqueue(nid, spec.id)

    def _enqueue(self, node_id: str, experiment_id: str) -> None:
        seq = self._next_seq[node_id]
        self._next_seq[node_id] = seq + 1
        self._pending[node_id].append({"seq": seq, "experiment_id": experiment_id})

    # --- heartbeats -------------------------------------------------------

    def heartbeat(self, node_id: str, ts_ms: int | None = None,
                  acks=(), runs=()) -> list[dict]:
        """Record liveness, absorb the agent's report, return undelivered
        schedules. Each schedule rides along until its seq is acked."""
        with self._lock:
            if node_id not in self._nodes:
                raise UnknownNode(f"unknown node {node_id!r}")
            if ts_ms is None:
                ts_ms = self.clock.now_ms()
            runs = [dict(r) for r in runs]
            # checked before logging: a logged entry must replay cleanly
            if not all(isinstance(r.get("experiment_id"), str)
                       and isinstance(r.get("state"), str) for r in runs):
                raise BadMessage("run reports need string experiment_id and state")
            entry = {"op": "heartbeat", "node_id": node_id, "ts_ms": int(ts_ms),
                     "acks": [int(a) for a in acks], "runs": runs}
            self._append_log(entry)
            self._apply_heartbeat(entry)
            return [{"seq": p["seq"],
                     "spec": self._experiments[p["experiment_id"]].spec.to_json()}
                    for p in self._pending[node_id]]

    def _apply_heartbeat(self, entry: dict) -> None:
        node = self._nodes[entry["node_id"]]
        node.last_heartbeat_ms = entry["ts_ms"]
        if entry["acks"]:
            acked = set(entry["acks"])
            queue = self._pending[entry["node_id"]]
            queue[:] = [p for p in queue if p["seq"] not in acked]
        for report in entry["runs"]:
            experiment = self._experiments.get(report.get("experiment_id"))
            rec = experiment and experiment.runs.get(entry["node_id"])
            if rec is not None and report.get("state") == "RUNNING" \
                    and rec.state == "SCHEDULED":
                rec.state = "RUNNING"
                experiment.view_text = None

    # --- completions ------------------------------------------------------

    def record_completion(self, experiment_id: str, node_id: str,
                          manifest: dict) -> dict:
        """Absorb a terminal run report. Retried uploads are deduplicated;
        a PREEMPTED run is re-enqueued once before it sticks as terminal."""
        with self._lock:
            experiment = self._experiments.get(experiment_id)
            rec = experiment and experiment.runs.get(node_id)
            if rec is None:
                raise UnknownRun(f"no run of {experiment_id!r} on {node_id!r}")
            if not isinstance(manifest, dict):
                raise BadMessage("manifest must be an object")
            state = manifest.get("state", "COMPLETED")
            if state not in TERMINAL_STATES:
                raise BadSpec(f"completion state must be terminal, got {state!r}")
            if (manifest.get("run_start_ms"), state) in rec.completions:
                return {"duplicate": True, "requeued": False}
            self._append_log({"op": "complete", "experiment_id": experiment_id,
                              "node_id": node_id, "manifest": dict(manifest)})
            return self._apply_complete(experiment_id, node_id, manifest)

    def _apply_complete(self, experiment_id: str, node_id: str,
                        manifest: dict) -> dict:
        state = manifest.get("state", "COMPLETED")
        experiment = self._experiments[experiment_id]
        experiment.view_text = None
        rec = experiment.runs[node_id]
        rec.completions.add((manifest.get("run_start_ms"), state))
        rec.manifest = dict(manifest)
        requeued = False
        if state == "PREEMPTED" and rec.requeues < MAX_REQUEUES:
            rec.requeues += 1
            rec.state = "SCHEDULED"
            self._enqueue(node_id, experiment_id)
            requeued = True
        else:
            rec.state = state
        return {"duplicate": False, "requeued": requeued}

    # --- queries ----------------------------------------------------------

    def query(self, experiment_id: str | None = None):
        with self._lock:
            if experiment_id is not None:
                if experiment_id not in self._experiments:
                    raise UnknownRun(f"unknown experiment {experiment_id!r}")
                return self._experiment_view(self._experiments[experiment_id])
            return [self._experiment_view(experiment)
                    for _, experiment in sorted(self._experiments.items())]

    def _experiment_view(self, experiment: Experiment) -> dict:
        spec = experiment.spec
        return {"id": spec.id, "kind": spec.kind, "overhead": spec.overhead,
                "runs": [{"node_id": nid, "state": rec.state, "requeues": rec.requeues}
                         for nid, rec in experiment.runs.items()]}

    def _query_text(self, msg) -> str | None:
        """The wire reply to a whole-table QUERY, joined from each
        experiment's encoded view and equal to
        json.dumps(self.handle_message(msg)); None for any other message,
        which handle_message answers. Only views whose runs changed since
        their last QUERY are encoded."""
        if not isinstance(msg, dict) or msg.get("type") != "QUERY" \
                or msg.get("experiment_id") is not None:
            return None
        with self._lock:
            texts = []
            for _, experiment in sorted(self._experiments.items()):
                if experiment.view_text is None:
                    experiment.view_text = json.dumps(self._experiment_view(experiment))
                texts.append(experiment.view_text)
        return '{"ok": true, "result": [' + ", ".join(texts) + "]}"

    def node_health(self, now_ms: int | None = None) -> dict[str, str]:
        with self._lock:
            if now_ms is None:
                now_ms = self.clock.now_ms()
            interval_ms = self.heartbeat_interval_s * 1000.0
            return {nid: rec.health(now_ms, interval_ms)
                    for nid, rec in self._nodes.items()}

    def pending_for(self, node_id: str) -> list[dict]:
        with self._lock:
            return [dict(p) for p in self._pending[node_id]]

    # --- persistence ------------------------------------------------------

    def _append_log(self, entry: dict) -> None:
        if self._journal is not None:
            self._journal.append(entry)

    def to_state(self) -> dict:
        """Canonical JSON-friendly dump of every table, for replay-identity
        checks."""
        with self._lock:
            table = sorted(self._experiments.items())
            runs = [(eid, nid, rec) for eid, experiment in table
                    for nid, rec in experiment.runs.items()]
            return {
                "specs": {eid: experiment.spec.to_json() for eid, experiment in table},
                "runs": [{"experiment_id": e, "node_id": n, "state": r.state,
                          "requeues": r.requeues, "manifest": r.manifest}
                         for e, n, r in runs],
                "pending": {nid: [[p["seq"], p["experiment_id"]] for p in q]
                            for nid, q in sorted(self._pending.items())},
                "next_seq": dict(sorted(self._next_seq.items())),
                "nodes": {nid: rec.last_heartbeat_ms
                          for nid, rec in sorted(self._nodes.items())},
                "completions": [[e, n, *k] for e, n, r in runs
                                for k in sorted(r.completions, key=_completion_order)],
            }

    def _apply(self, entry: dict) -> None:
        op = entry["op"]
        if op == "submit":
            try:
                spec = ExperimentSpec.from_json(entry["spec"])
            except OrchestratorError as exc:
                raise ValueError(f"{type(exc).__name__}: {exc}") from None
            self._apply_submit(spec)
        elif op == "heartbeat":
            self._apply_heartbeat(entry)
        elif op == "complete":
            self._apply_complete(entry["experiment_id"], entry["node_id"],
                                 entry["manifest"])
        else:
            raise ValueError(f"unknown log op {op!r}")

    @classmethod
    def restore(cls, node_ids, log_path, **kwargs) -> "Orchestrator":
        """Same as `Orchestrator(node_ids, log_path=log_path, **kwargs)`."""
        return cls(node_ids, log_path=log_path, **kwargs)

    def close(self) -> None:
        """Stop serving, then close the journal: the serving thread has
        closed every connection before this returns, so no request is
        answered after it and none is applied without its entry."""
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # --- wire protocol ----------------------------------------------------

    def handle_message(self, msg: dict) -> dict:
        """Dispatch one decoded wire message, which may be any JSON value;
        never raises."""
        try:
            if not isinstance(msg, dict):
                raise BadMessage(f"message is a {type(msg).__name__}, not an object")
            mtype = msg.get("type")
            if mtype == "SUBMIT":
                eid = self.submit_experiment(msg["spec"])
                return {"ok": True, "experiment_id": eid}
            if mtype == "HEARTBEAT":
                schedules = self.heartbeat(
                    msg["node_id"], ts_ms=msg.get("ts_ms"),
                    acks=msg.get("acks", ()), runs=msg.get("runs", ()))
                return {"ok": True, "schedules": schedules}
            if mtype == "COMPLETE":
                res = self.record_completion(
                    msg["experiment_id"], msg["node_id"], msg["manifest"])
                return {"ok": True, **res}
            if mtype == "QUERY":
                return {"ok": True, "result": self.query(msg.get("experiment_id"))}
            raise BadMessage(f"unknown message type {mtype!r}")
        except OrchestratorError as exc:
            return _error(type(exc).__name__, str(exc), **exc.fields)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            return _error("BadMessage", f"{type(exc).__name__}: {exc}")

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        """Listen for line-delimited JSON requests; one response line each.

        One thread serves the listening socket and every connection through
        one selector; no thread is started per connection. Replies go out
        in request order per connection, and a connection's next line is
        answered only once the reply before it is sent, so a client that
        stops reading stalls only itself. A line longer than MAX_LINE_BYTES
        gets one BadMessage reply and closes its connection; a connection
        that for IDLE_TIMEOUT_S completes no line and takes none of its
        reply is closed. Returns (server_socket, thread); `close` stops the
        thread, which closes every socket it serves.
        """
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(16)
        self._server = _LineServer(srv, self._answer)
        self._server.thread.start()
        return srv, self._server.thread

    def _answer(self, line: bytes) -> bytes:
        """The reply line to one request line; b"" for a blank line."""
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            resp = _error("BadMessage", f"invalid UTF-8: {exc}")
        else:
            if not text:
                return b""
            try:
                msg = json.loads(text)
            except (json.JSONDecodeError, RecursionError) as exc:   # or nested too deep
                resp = _error("BadMessage", f"invalid JSON: {exc}")
            else:
                reply = self._query_text(msg)
                if reply is not None:
                    return (reply + "\n").encode()
                resp = self.handle_message(msg)
        return (json.dumps(resp) + "\n").encode()


class _Connection:
    __slots__ = ("sock", "inbuf", "outbuf", "events", "deadline", "done")

    def __init__(self, sock: socket.socket, deadline: float):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.events = selectors.EVENT_READ
        self.deadline = deadline
        self.done = False   # no more input is read; close once answered


class _LineServer:
    """The one thread behind `Orchestrator.serve`: a selector over the
    listening socket, a wake-up socket and every connection, each holding
    its unanswered input and its unsent output."""

    def __init__(self, srv: socket.socket, answer):
        self.srv = srv
        self.answer = answer
        self.sel = selectors.DefaultSelector()
        # `stop` writes a byte here: closing a socket that epoll watches
        # wakes no select, so closing the listening socket cannot stop us
        self._wake, self._waker = socket.socketpair()
        # by socket, in order of deadline: a deadline only ever moves to
        # IDLE_TIMEOUT_S from now, and a moved one is reinserted at the end
        self.conns: dict[socket.socket, _Connection] = {}
        srv.setblocking(False)
        self.sel.register(srv, selectors.EVENT_READ)
        self.sel.register(self._wake, selectors.EVENT_READ)
        self.thread = threading.Thread(target=self._run, daemon=True)

    def stop(self) -> None:
        """Return once the thread has closed every socket it served."""
        self._waker.send(b"\0")
        self.thread.join()
        self._waker.close()

    def _run(self) -> None:
        conns = self.conns
        accept_at = None   # while accepting is paused after an error
        try:
            while True:
                now = time.monotonic()
                deadlines = [accept_at] if accept_at is not None else []
                if conns:
                    deadlines.append(next(iter(conns.values())).deadline)
                timeout = min(deadlines) - now if deadlines else None
                for key, mask in self.sel.select(timeout):
                    if key.data is not None:
                        self._service(key.data, mask)
                    elif key.fileobj is self.srv:
                        accept_at = self._accept()
                    else:
                        return
                now = time.monotonic()
                if accept_at is not None and now >= accept_at:
                    self.sel.register(self.srv, selectors.EVENT_READ)
                    accept_at = None
                while conns:
                    oldest = next(iter(conns.values()))
                    if oldest.deadline > now:
                        break
                    self._drop(oldest)
        finally:
            for conn in conns.values():
                conn.sock.close()
            conns.clear()
            self.sel.close()
            self.srv.close()
            self._wake.close()

    def _accept(self) -> float | None:
        """Take one pending connection; after an accept error, the time
        accepting resumes."""
        try:
            sock, _ = self.srv.accept()
        except BlockingIOError:
            return None
        except OSError as exc:   # EMFILE, ECONNABORTED, ...: keep serving
            log.warning("orchestrator: accept failed (%s); retrying in %.1f s",
                        exc, ACCEPT_RETRY_S)
            self.sel.unregister(self.srv)
            return time.monotonic() + ACCEPT_RETRY_S
        sock.setblocking(False)
        conn = _Connection(sock, time.monotonic() + IDLE_TIMEOUT_S)
        self.conns[sock] = conn
        self.sel.register(sock, conn.events, conn)
        return None

    def _service(self, conn: _Connection, mask: int) -> None:
        try:
            if mask & selectors.EVENT_READ:
                data = conn.sock.recv(RECV_BYTES)
                if data:
                    conn.inbuf += data
                else:   # end of input: a last unterminated line is answered
                    if conn.inbuf:
                        conn.inbuf += b"\n"
                    conn.done = True
            self._pump(conn)
        except BlockingIOError:
            pass
        except OSError:
            self._drop(conn)

    def _pump(self, conn: _Connection) -> None:
        """Send what is owed, then answer complete lines, one reply at a
        time, until a reply cannot be sent in full or no line is left."""
        while True:
            if conn.outbuf:
                try:
                    sent = conn.sock.send(conn.outbuf)
                except BlockingIOError:
                    sent = 0
                if sent:
                    del conn.outbuf[:sent]
                    self._touch(conn)
                if conn.outbuf:
                    break
            end = conn.inbuf.find(b"\n")
            if end > MAX_LINE_BYTES or (end < 0 and len(conn.inbuf) > MAX_LINE_BYTES):
                conn.outbuf += (json.dumps(_error(
                    "BadMessage", f"request line longer than {MAX_LINE_BYTES} bytes"))
                    + "\n").encode()
                conn.inbuf.clear()
                conn.done = True
                continue
            if end < 0:
                if conn.done:
                    self._drop(conn)
                    return
                break
            line = bytes(conn.inbuf[:end])
            del conn.inbuf[:end + 1]
            self._touch(conn)
            try:
                conn.outbuf += self.answer(line)
            except Exception:   # a fault in one request ends only its connection
                log.exception("orchestrator: closing a connection whose request failed")
                self._drop(conn)
                return
        events = selectors.EVENT_WRITE if conn.outbuf else selectors.EVENT_READ
        if events != conn.events:
            conn.events = events
            self.sel.modify(conn.sock, events, conn)

    def _touch(self, conn: _Connection) -> None:
        """Restart the idle timer of a connection that made progress."""
        del self.conns[conn.sock]
        conn.deadline = time.monotonic() + IDLE_TIMEOUT_S
        self.conns[conn.sock] = conn

    def _drop(self, conn: _Connection) -> None:
        del self.conns[conn.sock]
        self.sel.unregister(conn.sock)
        conn.sock.close()


class LocalClient:
    """In-process stand-in for OrchestratorClient, same call surface."""

    def __init__(self, orchestrator: Orchestrator):
        self._orch = orchestrator

    def call(self, msg: dict) -> dict:
        return self._orch.handle_message(msg)


class OrchestratorClient:
    """Calls the orchestrator over a small pool of reused TCP connections.

    A call takes the most recently used idle connection, or opens one when
    none is idle, so threads sharing a client each get their own. After a
    complete reply the connection goes back to the pool. A pooled
    connection is used again only if it was last used under REUSE_IDLE_S
    ago, which keeps it clear of the server's IDLE_TIMEOUT_S close, and a
    zero-timeout poll shows no pending end of stream or stray bytes, as a
    server that closed it or restarted would leave; otherwise it is closed
    and replaced before anything is sent. A failure after the request is
    sent closes that connection and raises: the request is never sent
    again, because a SUBMIT or COMPLETE may already have been applied. A
    reply followed by further bytes means the stream is out of step, so
    that connection is closed, not pooled.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)
        self._lock = threading.Lock()
        self._idle: list[tuple[float, socket.socket]] = []   # (last used, conn), oldest first

    def call(self, msg: dict) -> dict:
        conn = self._take()
        try:
            conn.sendall((json.dumps(msg) + "\n").encode())
            reply = bytearray()
            while True:
                chunk = conn.recv(RECV_BYTES)
                if not chunk:
                    raise ConnectionError("orchestrator closed the connection")
                reply += chunk
                if b"\n" in chunk:
                    break
            end = reply.index(b"\n")
            resp = json.loads(reply[:end].decode("utf-8"))
        except BaseException:
            conn.close()
            raise
        if end + 1 < len(reply):   # bytes after the reply: out of step
            conn.close()
        else:
            with self._lock:
                self._idle.append((time.monotonic(), conn))
        return resp

    def _take(self) -> socket.socket:
        """A pooled connection fit to reuse, else a new one."""
        with self._lock:
            now = time.monotonic()
            while self._idle and now - self._idle[0][0] >= REUSE_IDLE_S:
                self._idle.pop(0)[1].close()
            conn = self._idle.pop()[1] if self._idle else None
        if conn is not None:
            poll = select.poll()
            poll.register(conn, select.POLLIN)
            if not poll.poll(0):
                return conn
            conn.close()
        conn = socket.create_connection((self.host, self.port), timeout=CLIENT_TIMEOUT_S)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def close(self) -> None:
        """Close every pooled connection; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for _, conn in idle:
            conn.close()

    def __enter__(self) -> "OrchestratorClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Command-line front end: daemons, submission, results, and analysis.

Subcommands fall into three groups. Daemons (``orchestrate``, ``agent``,
``terminal-sim``) run until interrupted or ``--duration-s`` elapses and print
one JSON line on startup so callers can discover ephemeral ports.
Control-plane verbs (``submit``, ``status``, ``results``) talk to a running
orchestrator or to the results store on disk. Offline analysis (``analyze``,
``predict``, ``sweep``, ``abr-eval``, ``profile``) turns captured CSV/JSONL
artifacts into reports.

Configuration resolves flag > environment > config file > built-in default.
The environment prefix is ``LEO_`` (LEO_ORCHESTRATOR_HOST,
LEO_ORCHESTRATOR_PORT, LEO_STORE_ROOT, LEO_WORKDIR, LEO_NODES, LEO_CONFIG).
A path configured explicitly through any of those channels must exist at
startup; only defaults are created on demand.

Failures print one JSON object on stderr, ``{"ok": false, "error": {"kind":
..., "message": ...}}``, built in ``main``. Kinds: BadConfig, BadInput (an
input file or value the analysis cannot use), MissingFile, Unreachable,
UnknownExperiment, UncoveredHop, and the orchestrator's kinds passed through
from its reply. ConflictError at submission exits 2; all others exit 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import abr, dissect, leolink, predict
from .agent import Agent, SimSource, SocketSource
from .orbital import GroundSite, load_catalog, synthetic_constellation
from .orchestrator import _ID_RE, Orchestrator, OrchestratorClient, _error
from .store import ResultsStore
from .telemetry import InsufficientHistory
from .terminal_sim import (DEFAULT_SITE, TelemetrySample, TelemetryServer,
                           TerminalModelConfig, TerminalSim)
from .triggers import OrbitalContext

ENV_PREFIX = "LEO_"
CONFLICT_EXIT = 2


class CliError(Exception):
    """Carries the stderr payload and process exit code for one failure."""

    def __init__(self, kind: str, message: str, code: int = 1, **extra):
        super().__init__(message)
        self.code = code
        self.payload = _error(kind, message, **extra)


def fail(kind: str, message: str, code: int = 1, **extra):
    raise CliError(kind, message, code, **extra)


# --- configuration -------------------------------------------------------

@dataclass
class CliConfig:
    orchestrator_host: str = "127.0.0.1"
    orchestrator_port: int = 7600
    store_root: str = "leobench-results"
    workdir: str | None = None
    nodes: tuple[str, ...] = ("node-1",)


_CONFIG_COERCE = {
    "orchestrator_host": str,
    "orchestrator_port": int,
    "store_root": str,
    "workdir": str,
    "nodes": lambda v: tuple(str(n) for n in v),
}


def load_config(args) -> CliConfig:
    """Merge config file, LEO_* environment, and flags onto the defaults."""
    cfg = CliConfig()
    explicit: set[str] = set()

    path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if path:
        p = Path(path)
        if not p.is_file():
            fail("BadConfig", f"config file not found: {path}")
        try:
            obj = json.loads(p.read_text())
        except ValueError as exc:
            fail("BadConfig", f"config file is not valid JSON: {exc}")
        if not isinstance(obj, dict):
            fail("BadConfig", "config file must hold a JSON object")
        for key, value in obj.items():
            if key not in _CONFIG_COERCE:
                fail("BadConfig", f"unknown config key {key!r}")
            try:
                setattr(cfg, key, _CONFIG_COERCE[key](value))
            except (TypeError, ValueError) as exc:
                fail("BadConfig", f"bad value for {key!r}: {exc}")
            explicit.add(key)

    env_keys = {"ORCHESTRATOR_HOST": "orchestrator_host",
                "ORCHESTRATOR_PORT": "orchestrator_port",
                "STORE_ROOT": "store_root",
                "WORKDIR": "workdir",
                "NODES": "nodes"}
    for env_suffix, key in env_keys.items():
        raw = os.environ.get(ENV_PREFIX + env_suffix)
        if raw is None:
            continue
        value = [s for s in raw.split(",") if s] if key == "nodes" else raw
        try:
            setattr(cfg, key, _CONFIG_COERCE[key](value))
        except (TypeError, ValueError) as exc:
            fail("BadConfig", f"bad {ENV_PREFIX}{env_suffix}: {exc}")
        explicit.add(key)

    for flag, key in (("store_root", "store_root"), ("workdir", "workdir"),
                      ("nodes", "nodes")):
        raw = getattr(args, flag, None)
        if raw is None:
            continue
        value = tuple(s for s in raw.split(",") if s) if key == "nodes" else raw
        setattr(cfg, key, value)
        explicit.add(key)
    orch = getattr(args, "orchestrator", None)
    if orch is not None:
        host, port = _parse_hostport(orch)
        cfg.orchestrator_host = host
        cfg.orchestrator_port = port

    # Explicitly configured paths must already exist; mistyped paths should
    # fail here, not surface later as an empty store or a stray directory.
    for key in ("store_root", "workdir"):
        if key in explicit:
            value = getattr(cfg, key)
            if value is not None and not Path(value).is_dir():
                fail("BadConfig", f"configured {key} is not a directory: {value}")
    if not cfg.nodes:
        fail("BadConfig", "node list is empty")
    # node ids become directory names in the workdir and the store
    node_ids = list(cfg.nodes)
    if getattr(args, "node_id", None) is not None:
        node_ids.append(args.node_id)
    for nid in node_ids:
        if not _ID_RE.fullmatch(nid):
            fail("BadConfig", f"node ids must match {_ID_RE.pattern}: {nid!r}")
    return cfg


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        fail("BadConfig", f"expected HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        fail("BadConfig", f"bad port in {text!r}")


def _client(cfg: CliConfig) -> OrchestratorClient:
    return OrchestratorClient(cfg.orchestrator_host, cfg.orchestrator_port)


def _call(client, msg: dict) -> dict:
    try:
        return client.call(msg)
    except (OSError, ValueError) as exc:
        fail("Unreachable",
             f"orchestrator at {client.host}:{client.port} not reachable: {exc}")


def _check_ok(resp: dict) -> dict:
    if resp.get("ok"):
        return resp
    err = resp.get("error", {})
    kind = err.get("kind", "Error")
    code = CONFLICT_EXIT if kind == "ConflictError" else 1
    extra = {k: v for k, v in err.items() if k not in ("kind", "message")}
    fail(kind, err.get("message", "request rejected"), code=code, **extra)


# --- small I/O helpers ---------------------------------------------------

def emit(args, payload: dict, human: str | None = None) -> None:
    if getattr(args, "json", False) or human is None:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _announce(payload: dict) -> None:
    # Startup line for daemons; always JSON so callers can parse the port.
    print(json.dumps(payload, sort_keys=True), flush=True)


def _read_text(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        fail("MissingFile", f"{what} not found: {path}")
    return p.read_text()


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def read_telemetry_jsonl(path: str) -> list[TelemetrySample]:
    samples = []
    for i, line in enumerate(_read_text(path, "telemetry trace").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            samples.append(TelemetrySample.from_wire(json.loads(line)))
        except (ValueError, RecursionError) as exc:
            fail("BadInput", f"{path}:{i}: not a telemetry sample: {exc}")
    if not samples:
        fail("BadInput", f"{path}: empty telemetry trace")
    return samples


def _fill_gaps(values: list[float | None]) -> list[float]:
    """Carry the last seen RTT through lost probes so the series stays 1 Hz."""
    first = next((v for v in values if v is not None), None)
    if first is None:
        fail("BadInput", "every probe in the series was lost")
    out, last = [], first
    for v in values:
        if v is not None:
            last = v
        out.append(last)
    return out


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        fail("BadInput", f"expected comma-separated numbers for {what}: {text!r}")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        fail("BadInput", f"expected comma-separated integers for {what}: {text!r}")


def _parse_site(text: str | None) -> GroundSite:
    if text is None:
        return GroundSite(*DEFAULT_SITE)
    parts = text.split(",")
    if len(parts) != 2:
        fail("BadInput", f"expected LAT,LON for --site, got {text!r}")
    try:
        return GroundSite(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        fail("BadInput", f"bad --site: {exc}")


def _wait(duration_s: float | None, stop: threading.Event) -> None:
    try:
        if duration_s is None:
            while not stop.wait(3600):
                pass
        else:
            stop.wait(duration_s)
    except KeyboardInterrupt:
        pass


# --- daemon commands -----------------------------------------------------

def cmd_orchestrate(args, cfg: CliConfig) -> int:
    orch = Orchestrator(cfg.nodes,
                        heartbeat_interval_s=args.heartbeat_interval_s,
                        log_path=args.log)
    port = cfg.orchestrator_port if args.port is None else args.port
    srv, _ = orch.serve(cfg.orchestrator_host, port)
    _announce({"listening": srv.getsockname()[1], "nodes": list(cfg.nodes)})
    _wait(args.duration_s, threading.Event())
    orch.close()
    return 0


def cmd_agent(args, cfg: CliConfig) -> int:
    if args.telemetry:
        host, port = _parse_hostport(args.telemetry)
        source = SocketSource(host, port)
    else:
        source = SimSource(TerminalSim(TerminalModelConfig(rng_seed=args.sim_seed)))
    try:
        with _client(cfg) as client:
            agent = Agent(args.node_id,
                          client=client,
                          store=ResultsStore(cfg.store_root),
                          source=source,
                          workdir=cfg.workdir,
                          heartbeat_every_s=args.heartbeat_every_s)
            stop = threading.Event()
            # not a daemon thread: left running, it would hold the exit until it fires
            timer = threading.Timer(args.duration_s, stop.set) \
                if args.duration_s is not None else None
            try:
                _announce({"agent": args.node_id, "workdir": str(agent.workdir)})
                if timer is not None:
                    timer.start()
                agent.run_forever(tick_interval_s=args.tick_interval_s, stop_event=stop)
            except KeyboardInterrupt:
                pass
            finally:
                if timer is not None:
                    timer.cancel()
            agent.close()
    finally:
        source.close()
    return 0


def cmd_terminal_sim(args, cfg: CliConfig) -> int:
    svc = TelemetryServer(TerminalSim(TerminalModelConfig(rng_seed=args.seed)),
                          args.host, args.port, args.interval_s, args.log)
    _announce({"listening": svc.port, "seed": args.seed})
    _wait(args.duration_s, threading.Event())
    svc.close()
    return 0


# --- control-plane commands ----------------------------------------------

def cmd_submit(args, cfg: CliConfig) -> int:
    try:
        spec = json.loads(_read_text(args.spec, "experiment spec"))
    except ValueError as exc:
        fail("BadSpec", f"spec file is not valid JSON: {exc}")
    with _client(cfg) as client:
        resp = _check_ok(_call(client, {"type": "SUBMIT", "spec": spec}))
    eid = resp["experiment_id"]
    emit(args, {"ok": True, "experiment_id": eid}, f"submitted {eid}")
    return 0


def cmd_status(args, cfg: CliConfig) -> int:
    msg: dict = {"type": "QUERY"}
    if args.experiment:
        msg["experiment_id"] = args.experiment
    with _client(cfg) as client:
        result = _check_ok(_call(client, msg))["result"]
    views = [result] if args.experiment else result
    if getattr(args, "json", False):
        emit(args, {"ok": True, "experiments": views})
        return 0
    if not views:
        print("no experiments")
        return 0
    print(f"{'EXPERIMENT':<24}{'KIND':<12}{'OVERHEAD':<14}"
          f"{'NODE':<12}{'STATE':<12}REQUEUES")
    for view in views:
        for run in view["runs"]:
            print(f"{view['id']:<24}{view['kind']:<12}{view['overhead']:<14}"
                  f"{run['node_id']:<12}{run['state']:<12}{run['requeues']}")
    return 0


def cmd_results_list(args, cfg: CliConfig) -> int:
    store = ResultsStore(cfg.store_root)
    runs = store.list_runs(args.experiment_id)
    payload = [{"node_id": nid, "run": label, "path": str(path)}
               for nid, label, path in runs]
    human = "\n".join(f"{r['node_id']:<12}{r['run']:<20}{r['path']}"
                      for r in payload) or "no runs"
    emit(args, {"ok": True, "runs": payload}, human)
    return 0


def cmd_results_fetch(args, cfg: CliConfig) -> int:
    store = ResultsStore(cfg.store_root)
    try:
        dest = store.fetch(args.experiment_id, args.dest)
    except FileNotFoundError:
        fail("UnknownExperiment",
             f"no stored results for {args.experiment_id!r}")
    n = len(store.list_runs(args.experiment_id))
    emit(args, {"ok": True, "dest": str(dest), "runs": n},
         f"fetched {n} run(s) into {dest}")
    return 0


# --- analysis commands ---------------------------------------------------

def cmd_analyze_cdf(args, cfg: CliConfig) -> int:
    values = dissect.load_ping_csv(_read_text(args.input, "ping CSV"))
    stats = dissect.percentiles(values)
    _write_out(args.out, dissect.cdf_csv(values))
    payload = {"ok": True, "count": stats.count, "lost": stats.lost,
               "median_ms": stats.median, "p95_ms": stats.p95,
               "p99_ms": stats.p99, "max_ms": stats.max}
    emit(args, payload,
         f"count={stats.count} lost={stats.lost} median={stats.median:.2f}ms "
         f"p95={stats.p95:.2f}ms p99={stats.p99:.2f}ms max={stats.max:.2f}ms")
    return 0


def cmd_analyze_segments(args, cfg: CliConfig) -> int:
    runs = dissect.load_traceroute_csv(_read_text(args.input, "traceroute CSV"))
    if not runs:
        fail("BadInput", f"{args.input}: no traceroute rows")
    segmap = dissect.SegmentMap.from_json(_read_text(args.map, "segment map"))
    segments = dissect.segment_latencies(runs, segmap)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["segment", "one_way_ms", "clamped"])
    for s in segments:
        w.writerow([s.segment, f"{s.one_way_ms:.6g}", int(s.clamped)])
    _write_out(args.out, buf.getvalue())
    payload = {"ok": True, "runs": len(runs),
               "segments": [{"segment": s.segment, "one_way_ms": s.one_way_ms,
                             "clamped": s.clamped} for s in segments]}
    emit(args, payload, "\n".join(
        f"{s.segment}  {s.one_way_ms:8.3f} ms" + ("  (clamped)" if s.clamped else "")
        for s in segments))
    return 0


def cmd_analyze_spikes(args, cfg: CliConfig) -> int:
    series = _fill_gaps(dissect.load_ping_csv(_read_text(args.input, "ping CSV")))
    spikes = dissect.detect_spikes(series, args.k_mult, args.min_persist_s)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["start_s", "duration_s", "nearest_15s_multiple"])
    for s in spikes:
        w.writerow([s.start_s, s.duration_s, s.nearest_15s_multiple])
    _write_out(args.out, buf.getvalue())
    payload = {"ok": True, "spikes": [
        {"start_s": s.start_s, "duration_s": s.duration_s,
         "nearest_15s_multiple": s.nearest_15s_multiple} for s in spikes]}
    emit(args, payload, f"{len(spikes)} spike(s) over {len(series)} s")
    return 0


def cmd_analyze_heatmap(args, cfg: CliConfig) -> int:
    samples = read_telemetry_jsonl(args.input)
    cells = dissect.orientation_heatmap(samples, args.az_bin_deg, args.el_bin_deg)
    _write_out(args.out, dissect.heatmap_csv(cells))
    emit(args, {"ok": True, "cells": len(cells),
                "low_confidence": sum(c.low_confidence for c in cells)},
         f"{len(cells)} cell(s), "
         f"{sum(c.low_confidence for c in cells)} low-confidence")
    return 0


# --- prediction commands -------------------------------------------------

def _build_dataset(args):
    samples = read_telemetry_jsonl(args.trace)
    if args.tle:
        catalog = load_catalog(_read_text(args.tle, "TLE catalog"))
    else:
        # Synthetic elements are pinned to the trace start so the ephemeris
        # never goes stale relative to the samples.
        epoch = datetime.fromtimestamp(samples[0].ts_ms / 1000.0,
                                       tz=timezone.utc)
        catalog = synthetic_constellation(epoch=epoch)
    orbital = OrbitalContext(_parse_site(args.site), catalog)
    return predict.dataset_from_trace(samples, orbital,
                                      k=args.top_k, metric=args.metric)


def cmd_predict_fit(args, cfg: CliConfig) -> int:
    dataset = _build_dataset(args)
    model = predict.fit(args.model_kind, dataset)
    predict.save_model(model, args.out)
    emit(args, {"ok": True, "rows": len(dataset),
                "model_kind": args.model_kind, "model": args.out},
         f"fit {args.model_kind} on {len(dataset)} rows -> {args.out}")
    return 0


def cmd_predict_eval(args, cfg: CliConfig) -> int:
    dataset = _build_dataset(args)
    _read_text(args.model, "model file")
    model = predict.load_model(args.model)
    report = predict.evaluate(model, dataset)
    baseline = predict.evaluate(predict.fit("persistence", dataset), dataset)
    payload = {"ok": True, "rows": len(dataset),
               "mape_pct": report.mape_pct, "rmse": report.rmse,
               "within5_pct": report.within5_pct,
               "within10_pct": report.within10_pct,
               "persistence_mape_pct": baseline.mape_pct}
    emit(args, payload,
         f"rows={len(dataset)} mape={report.mape_pct:.2f}% "
         f"rmse={report.rmse:.3f} within10={report.within10_pct:.1f}% "
         f"(persistence mape={baseline.mape_pct:.2f}%)")
    return 0


# --- transport / application study commands ------------------------------

def cmd_sweep(args, cfg: CliConfig) -> int:
    profiles = [leolink.LinkProfile.from_csv(_read_text(p, "link profile"))
                for p in args.profile]
    alphas = _parse_floats(args.alphas, "--alphas")
    betas = _parse_floats(args.betas, "--betas")
    seeds = _parse_ints(args.seeds, "--seeds")
    result = leolink.sweep(alphas, betas, profiles,
                           duration_s=args.duration_s, seeds=seeds,
                           cc_kind=args.cc,
                           rtt_inflation_limit_pct=args.inflation_limit_pct,
                           workers=args.workers)
    _write_out(args.out, result.to_csv())
    if result.best is None:
        emit(args, {"ok": True, "best": None},
             "no cell beats the default within the inflation limit")
    else:
        b = result.best
        emit(args, {"ok": True, "best": {
            "alpha_ms": b.alpha_ms, "beta": b.beta,
            "tput_improvement_pct": b.tput_improvement_pct,
            "p95_rtt_inflation_pct": b.p95_rtt_inflation_pct}},
             f"best alpha={b.alpha_ms:g}ms beta={b.beta * 100:g}% "
             f"improvement={b.tput_improvement_pct:+.2f}% "
             f"inflation={b.p95_rtt_inflation_pct:.2f}%")
    return 0


def cmd_abr_eval(args, cfg: CliConfig) -> int:
    if args.traces:
        if not Path(args.traces).is_dir():
            fail("MissingFile", f"trace directory not found: {args.traces}")
        paths = sorted(Path(args.traces).glob("*.csv"))
        traces = [abr.TputTrace.from_csv(p.read_text()) for p in paths]
    else:
        traces = abr.terminal_traces(args.synthetic, args.trace_duration_s,
                                     seed=args.seed)
    video = abr.VideoSpec(duration_s=args.video_duration_s, chunk_s=args.chunk_s)
    cmp = abr.compare_variants(traces, video, seed=args.seed,
                               model_kind=args.model_kind)
    medians = {v: cmp.median(v) for v in abr.VARIANTS}
    emit(args, {"ok": True, "sessions": len(next(iter(cmp.qoe.values()))),
                "median_qoe": medians},
         "\n".join(f"{v:<8}median QoE {medians[v]:8.3f}" for v in abr.VARIANTS))
    return 0


def cmd_profile_export(args, cfg: CliConfig) -> int:
    profile = leolink.LinkProfile.from_terminal(
        TerminalModelConfig(rng_seed=args.seed), args.duration_s,
        args.capacity_bps, loss_floor=args.loss_floor)
    text = profile.to_csv()
    _write_out(args.out, text)
    rows = max(text.count("\n") - 1, 0)
    emit(args, {"ok": True, "rows": rows, "out": args.out},
         f"wrote {rows} profile rows" + (f" -> {args.out}" if args.out else ""))
    return 0


# --- parser --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leobench",
        description="LEO broadband measurement testbed: daemons, submission, "
                    "and offline analysis.")
    p.add_argument("--config", help="JSON config file (env: LEO_CONFIG)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON on stdout")
    sub = p.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add(name: str, func, help_: str):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=func)
        return sp

    sp = add("orchestrate", cmd_orchestrate, "run the orchestrator daemon")
    sp.add_argument("--port", type=int, default=None,
                    help="listen port (default: configured port; 0 = ephemeral)")
    sp.add_argument("--nodes", help="comma-separated node ids to register")
    sp.add_argument("--log", help="write-ahead log path; an existing log is "
                                   "replayed, then appended to")
    sp.add_argument("--heartbeat-interval-s", type=float, default=10.0)
    sp.add_argument("--duration-s", type=float, default=None,
                    help="exit after this long (default: run until SIGINT)")

    sp = add("agent", cmd_agent, "run a node agent")
    sp.add_argument("--node-id", required=True)
    sp.add_argument("--orchestrator", metavar="HOST:PORT")
    sp.add_argument("--telemetry", metavar="HOST:PORT",
                    help="read terminal telemetry from this TCP feed")
    sp.add_argument("--sim-seed", type=int, default=0,
                    help="run an in-process terminal model instead")
    sp.add_argument("--store-root")
    sp.add_argument("--workdir")
    sp.add_argument("--heartbeat-every-s", type=float, default=10.0)
    sp.add_argument("--tick-interval-s", type=float, default=1.0)
    sp.add_argument("--duration-s", type=float, default=None)

    sp = add("terminal-sim", cmd_terminal_sim, "serve simulated terminal telemetry")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=0)
    sp.add_argument("--interval-s", type=float, default=1.0)
    sp.add_argument("--log", help="also append samples to this JSONL file")
    sp.add_argument("--duration-s", type=float, default=None)

    sp = add("submit", cmd_submit, "submit an experiment spec")
    sp.add_argument("--spec", required=True, help="experiment spec JSON file")
    sp.add_argument("--orchestrator", metavar="HOST:PORT")

    sp = add("status", cmd_status, "query experiment state")
    sp.add_argument("--experiment", help="limit to one experiment id")
    sp.add_argument("--orchestrator", metavar="HOST:PORT")

    sp = add("results", None, "inspect the results store")
    rsub = sp.add_subparsers(dest="subcommand", metavar="ACTION", required=True)
    rp = rsub.add_parser("list", help="list stored runs for an experiment")
    rp.add_argument("experiment_id")
    rp.add_argument("--store-root")
    rp.set_defaults(func=cmd_results_list)
    rp = rsub.add_parser("fetch", help="copy stored runs to a directory")
    rp.add_argument("experiment_id")
    rp.add_argument("--dest", required=True)
    rp.add_argument("--store-root")
    rp.set_defaults(func=cmd_results_fetch)

    sp = add("analyze", None, "offline analysis of run artifacts")
    asub = sp.add_subparsers(dest="subcommand", metavar="REPORT", required=True)
    ap = asub.add_parser("cdf", help="latency percentiles and CDF from ping CSV")
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", help="CDF CSV path (default: stdout)")
    ap.set_defaults(func=cmd_analyze_cdf)
    ap = asub.add_parser("segments",
                         help="per-segment one-way latency from traceroute CSV")
    ap.add_argument("--input", required=True)
    ap.add_argument("--map", required=True, help="segment map JSON")
    ap.add_argument("--out")
    ap.set_defaults(func=cmd_analyze_segments)
    ap = asub.add_parser("spikes", help="latency spike intervals from ping CSV")
    ap.add_argument("--input", required=True)
    ap.add_argument("--k-mult", type=float, default=2.0)
    ap.add_argument("--min-persist-s", type=int, default=5)
    ap.add_argument("--out")
    ap.set_defaults(func=cmd_analyze_spikes)
    ap = asub.add_parser("heatmap",
                         help="orientation latency heatmap from telemetry JSONL")
    ap.add_argument("--input", required=True)
    ap.add_argument("--az-bin-deg", type=float, default=15.0)
    ap.add_argument("--el-bin-deg", type=float, default=5.0)
    ap.add_argument("--out")
    ap.set_defaults(func=cmd_analyze_heatmap)

    sp = add("predict", None, "latency prediction models")
    psub = sp.add_subparsers(dest="subcommand", metavar="ACTION", required=True)

    def predict_common(pp):
        pp.add_argument("--trace", required=True, help="telemetry JSONL file")
        pp.add_argument("--metric", default="latency_ms")
        pp.add_argument("--top-k", type=int, default=predict.DEFAULT_TOP_K)
        pp.add_argument("--tle", help="TLE catalog file (default: synthetic)")
        pp.add_argument("--site", metavar="LAT,LON")

    pp = psub.add_parser("fit", help="fit a model on a telemetry trace")
    predict_common(pp)
    pp.add_argument("--model-kind", default="ridge_ar",
                    choices=predict.MODEL_KINDS)
    pp.add_argument("--out", required=True, help="model JSON path")
    pp.set_defaults(func=cmd_predict_fit)
    pp = psub.add_parser("eval", help="evaluate a saved model on a trace")
    predict_common(pp)
    pp.add_argument("--model", required=True, help="model JSON path")
    pp.set_defaults(func=cmd_predict_eval)

    sp = add("sweep", cmd_sweep, "grid-search congestion control parameters")
    sp.add_argument("--profile", action="append", required=True,
                    help="link profile CSV (repeatable)")
    sp.add_argument("--alphas", default="2000,5000,10000,20000",
                    help="comma-separated probe-window ms values")
    sp.add_argument("--betas", default="0.01,0.02,0.04,0.08",
                    help="comma-separated loss-threshold fractions")
    sp.add_argument("--duration-s", type=int, default=60)
    sp.add_argument("--seeds", default="1,2,3")
    sp.add_argument("--cc", default="bbr2")
    sp.add_argument("--inflation-limit-pct", type=float, default=10.0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", help="full grid CSV path (default: stdout)")

    sp = add("abr-eval", cmd_abr_eval, "compare adaptive-bitrate variants")
    sp.add_argument("--traces", help="directory of throughput trace CSVs")
    sp.add_argument("--synthetic", type=int, default=30,
                    help="generate this many terminal-model traces instead")
    sp.add_argument("--trace-duration-s", type=int, default=240)
    sp.add_argument("--video-duration-s", type=int, default=180)
    sp.add_argument("--chunk-s", type=int, default=4)
    sp.add_argument("--model-kind", default="ridge_ar")
    sp.add_argument("--seed", type=int, default=0)

    sp = add("profile", None, "link profile utilities")
    lsub = sp.add_subparsers(dest="subcommand", metavar="ACTION", required=True)
    lp = lsub.add_parser("export",
                         help="derive a link profile from the terminal model")
    lp.add_argument("--seed", type=int, default=0)
    lp.add_argument("--duration-s", type=int, default=300)
    lp.add_argument("--capacity-bps", type=float, default=16e6)
    lp.add_argument("--loss-floor", type=float, default=0.0)
    lp.add_argument("--out")
    lp.set_defaults(func=cmd_profile_export)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args))
    except CliError as exc:
        err = exc
    except dissect.UncoveredHop as exc:
        err = CliError("UncoveredHop", str(exc))
    except (ValueError, LookupError, InsufficientHistory) as exc:
        err = CliError("BadInput", f"{type(exc).__name__}: {exc}")
    print(json.dumps(err.payload, sort_keys=True), file=sys.stderr)
    return err.code


if __name__ == "__main__":
    sys.exit(main())

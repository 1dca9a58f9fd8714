"""Per-layer metrics of the traced run, one row per metric.

Counts (`.calls`, `.fire`, `.pkts`, ...) are per unit of work, so they repeat
exactly from run to run and do not grow with the machine's speed. Times are
means per call unless the name says p99. Every workload reports every row;
a layer that the workload does not reach reads 0.
"""

from __future__ import annotations

from common import RunRecord, median, percentile
from tracing import SpanStats

NS_PER = {"s": 1e9, "ms": 1e6, "us": 1e3}
HANDLE = "orchestrator.Orchestrator.handle_message"


def _per_unit(n: float, rec: RunRecord) -> float:
    return n / rec.units if rec.units else 0.0


def _noted(name: str):
    return lambda st, rec: median(rec.layer.get(name, []))


def _calls(name: str, tag: str | None = None):
    return lambda st, rec: _per_unit(st.calls(name, tag), rec)


def _mean(name: str, unit: str, tag: str | None = None):
    return lambda st, rec: st.mean_ns(name, tag) / NS_PER[unit]


def _self_mean(name: str, unit: str):
    """Mean self time of `name`, or of every span under `name` when it ends
    with a dot."""
    def value(st, rec):
        names = st.names(name) if name.endswith(".") else [name]
        vals = [v for n in names for v in st.self_values(n)]
        return sum(vals) / len(vals) / NS_PER[unit] if vals else 0.0
    return value


def _tick_self_p99(st, rec):
    vals = st.self_values("agent.Agent.tick")
    return percentile(vals, 99) / 1e6 if vals else 0.0


def _errors(st, rec):
    errors = sum(len(v) for k, v in st.durations.items()
                 if len(k) == 2 and k[0] == HANDLE
                 and k[1].endswith(":error"))
    return _per_unit(errors, rec)


def _transport_us(st, rec):
    client = st.mean_ns("orchestrator.OrchestratorClient.call")
    server = st.mean_ns(HANDLE)
    return (client - server) / 1e3 if client and server else 0.0


def _fire_to_run(st, rec):
    fires = st.calls("triggers.evaluate", "FIRE")
    runs = sum(rec.layer.get("agent.trigger_runs_stored", []))
    return runs / fires if fires else 0.0


def _cc_on_ack(st, rec):
    return _per_unit(sum(st.calls(n) for n in st.names("leolink.")
                         if n.endswith(".on_ack")), rec)


def _us_per_pkt(st, rec):
    pkts = sum(rec.layer.get("leolink.pkts", []))
    return st.total_ns("leolink.run_flows") / 1e3 / pkts if pkts else 0.0


# (name, unit, better, value(SpanStats, RunRecord))
PER_LAYER = (
    ("agent.tick.calls", "count", "lower", _calls("agent.Agent.tick")),
    ("agent.tick.self_ms", "ms", "lower", _self_mean("agent.Agent.tick", "ms")),
    ("agent.tick.self_p99_ms", "ms", "lower", _tick_self_p99),
    ("agent.runs_stored", "count", "higher", _noted("agent.runs_stored")),
    ("agent.preemptions", "count", "lower", _noted("agent.preemptions")),
    ("store.upload.calls", "count", "lower", _calls("store.ResultsStore.upload")),
    ("store.upload.ms", "ms", "lower", _mean("store.ResultsStore.upload", "ms")),
    ("orchestrator.heartbeat.us", "us", "lower", _mean(HANDLE, "us", "HEARTBEAT")),
    ("orchestrator.submit.us", "us", "lower", _mean(HANDLE, "us", "SUBMIT")),
    ("orchestrator.complete.us", "us", "lower", _mean(HANDLE, "us", "COMPLETE")),
    ("orchestrator.query.ms", "ms", "lower", _mean(HANDLE, "ms", "QUERY")),
    ("rpc.transport_us", "us", "lower", _transport_us),
    ("orchestrator.snapshot.calls", "count", "lower",
     _calls("orchestrator.Orchestrator.write_snapshot")),
    ("orchestrator.snapshot.ms", "ms", "lower",
     _mean("orchestrator.Orchestrator.write_snapshot", "ms")),
    ("orchestrator.wal_bytes", "bytes", "lower", _noted("orchestrator.wal_bytes")),
    ("orchestrator.errors", "count", "lower", _errors),
    ("terminal_sim.step.calls", "count", "lower", _calls("terminal_sim.TerminalSim.step")),
    ("terminal_sim.step.self_us", "us", "lower",
     _self_mean("terminal_sim.TerminalSim.step", "us")),
    ("orbital.visible_sats.calls", "count", "lower", _calls("orbital.visible_sats")),
    ("orbital.visible_sats.us", "us", "lower", _mean("orbital.visible_sats", "us")),
    ("orbital.propagate.calls", "count", "lower", _calls("orbital.propagate")),
    ("telemetry.calls", "count", "lower",
     lambda st, rec: _per_unit(sum(st.calls(n) for n in st.names("telemetry.")), rec)),
    ("telemetry.self_us", "us", "lower", _self_mean("telemetry.", "us")),
    ("triggers.evaluate.calls", "count", "lower", _calls("triggers.evaluate")),
    ("triggers.evaluate.us", "us", "lower", _mean("triggers.evaluate", "us")),
    ("triggers.fire", "count", "lower", _calls("triggers.evaluate", "FIRE")),
    ("triggers.fire_to_run", "ratio", "higher", _fire_to_run),
    ("leolink.run_flows.calls", "count", "lower", _calls("leolink.run_flows")),
    ("leolink.run_flows.s", "s", "lower", _mean("leolink.run_flows", "s")),
    ("leolink.pkts", "count", "higher", _noted("leolink.pkts")),
    ("leolink.us_per_pkt", "us", "lower", _us_per_pkt),
    ("leolink.profile_at.calls", "count", "lower", _calls("leolink.LinkProfile.at")),
    ("leolink.cc_on_ack.calls", "count", "lower", _cc_on_ack),
    ("leolink.delivered_ratio", "ratio", "higher", _noted("leolink.delivered_ratio")),
    ("predict.dataset_from_trace.s", "s", "lower", _mean("predict.dataset_from_trace", "s")),
    ("predict.fit_gbrt.s", "s", "lower", _mean("predict.fit", "s", "gbrt")),
    ("predict.fit_ridge_ar.s", "s", "lower", _mean("predict.fit", "s", "ridge_ar")),
    ("predict.evaluate.s", "s", "lower", _mean("predict.evaluate", "s")),
    ("dissect.detect_spikes.s", "s", "lower", _mean("dissect.detect_spikes", "s")),
    ("dissect.segment_latencies.s", "s", "lower", _mean("dissect.segment_latencies", "s")),
    ("abr.compare_variants.s", "s", "lower", _mean("abr.compare_variants", "s")),
    ("abr.mpc_decide.calls", "count", "lower", _calls("abr.mpc_decide")),
    ("abr.mpc_decide.us", "us", "lower", _mean("abr.mpc_decide", "us")),
    ("cli.read_telemetry_jsonl.s", "s", "lower", _mean("cli.read_telemetry_jsonl", "s")),
    ("traced.throughput", "1/s", "higher", lambda st, rec: median(rec.unit_rates)),
)


def layer_metrics(stats: SpanStats, rec: RunRecord) -> dict[str, dict]:
    return {name: {"value": float(value(stats, rec)), "unit": unit}
            for name, unit, _, value in PER_LAYER}

import errno
import json
import socket
import threading

import numpy as np
import pytest

from leobench.terminal_sim import (
    AZ_BAND,
    BASE_DROP_RATE,
    DRIFT_RATE_DEG_PER_S,
    EDGE_DROP_RATE,
    EL_BAND,
    HEADER_OVERHEAD_FRAC,
    WIRE_KEYS,
    ClockRegression,
    OverlapRejected,
    TelemetrySample,
    TelemetryServer,
    TerminalModelConfig,
    TerminalSim,
    Unavailable,
)

T0 = 1_760_000_000_000  # arbitrary unix ms anchor for sim runs


def run_sim(cfg, seconds, start=T0):
    sim = TerminalSim(cfg)
    samples = [sim.step(start + k * 1000) for k in range(seconds)]
    return sim, samples


def test_same_seed_bit_identical_stream():
    _, a = run_sim(TerminalModelConfig(rng_seed=42, p_outage_per_s=1e-3), 300)
    _, b = run_sim(TerminalModelConfig(rng_seed=42, p_outage_per_s=1e-3), 300)
    assert [s.to_json_line() for s in a] == [s.to_json_line() for s in b]
    _, c = run_sim(TerminalModelConfig(rng_seed=43), 300)
    assert [s.to_json_line() for s in a] != [s.to_json_line() for s in c]


def test_wire_schema_keys_exact():
    _, samples = run_sim(TerminalModelConfig(rng_seed=1), 5)
    wire = samples[0].to_wire()
    assert tuple(wire.keys()) == WIRE_KEYS
    assert TelemetrySample.from_wire(wire) is not None
    outage = {**wire, "pop_latency_ms": None, "pop_drop_rate": None}
    assert TelemetrySample.from_wire(outage).to_wire() == outage
    with pytest.raises(ValueError):
        TelemetrySample.from_wire({k: wire[k] for k in WIRE_KEYS[:-1]})


@pytest.mark.parametrize("record", [
    5, [1], "x", None,
    {"ts_ms": None}, {"ts_ms": 1.5}, {"ts_ms": "1000"}, {"ts_ms": True},
    {"pop_latency_ms": "x"}, {"pop_latency_ms": float("nan")},
    {"pop_latency_ms": float("inf")}, {"pop_latency_ms": True},
    {"pop_drop_rate": "x"}, {"pop_drop_rate": float("-inf")}, {"pop_drop_rate": [0.1]},
    {"az_deg": None}, {"bytes_down": float("inf")},
])
def test_from_wire_refuses_a_bad_record_with_value_error(record):
    _, samples = run_sim(TerminalModelConfig(rng_seed=1), 1)
    obj = {**samples[0].to_wire(), **record} if isinstance(record, dict) else record
    with pytest.raises(ValueError):
        TelemetrySample.from_wire(obj)


@pytest.mark.parametrize("record", [
    {"pop_drop_rate": 1.5}, {"pop_drop_rate": -0.01},
], ids=["above_one", "negative"])
def test_from_wire_refuses_a_drop_rate_outside_unit_interval(record):
    _, samples = run_sim(TerminalModelConfig(rng_seed=1), 1)
    with pytest.raises(ValueError, match="pop_drop_rate"):
        TelemetrySample.from_wire({**samples[0].to_wire(), **record})


@pytest.mark.parametrize("state", ["DEGRADED", "active", 1, None])
def test_from_wire_refuses_an_unknown_state(state):
    _, samples = run_sim(TerminalModelConfig(rng_seed=1), 1)
    with pytest.raises(ValueError, match="state"):
        TelemetrySample.from_wire({**samples[0].to_wire(), "state": state})


@pytest.mark.parametrize("key", ["bytes_down", "bytes_up"])
@pytest.mark.parametrize("value", [-1, 10.0, True, "10"],
                         ids=["negative", "float", "bool", "string"])
def test_from_wire_refuses_a_counter_that_is_not_a_non_negative_integer(key, value):
    _, samples = run_sim(TerminalModelConfig(rng_seed=1), 1)
    with pytest.raises(ValueError, match=key):
        TelemetrySample.from_wire({**samples[0].to_wire(), key: value})


def test_from_wire_accepts_the_bounds():
    _, samples = run_sim(TerminalModelConfig(rng_seed=1), 1)
    for record in ({"pop_drop_rate": 0}, {"pop_drop_rate": 1.0},
                   {"bytes_down": 0, "bytes_up": 0}, {"state": "OUTAGE"}):
        wire = {**samples[0].to_wire(), **record}
        assert TelemetrySample.from_wire(wire).to_wire() == wire


def test_clock_regression_rejected():
    sim = TerminalSim(TerminalModelConfig())
    sim.step(T0)
    sim.step(T0 + 1000)
    with pytest.raises(ClockRegression):
        sim.step(T0 + 500)
    with pytest.raises(ClockRegression):
        sim.step(T0 + 1000)  # equal is also a regression


def test_handovers_on_15s_boundaries():
    sim, _ = run_sim(TerminalModelConfig(rng_seed=5), 600)
    assert sim.handover_log, "no handovers in 10 minutes"
    for ts, _sat in sim.handover_log:
        assert (ts - T0) % 15000 == 0


def test_spike_durations_are_15s_multiples():
    cfg = TerminalModelConfig(rng_seed=9, p_bad_handover=0.2)
    sim, _ = run_sim(cfg, 1800)
    assert len(sim.spike_log) >= 5
    for spike in sim.spike_log:
        assert spike.duration_ms % 15000 == 0
        assert (spike.start_ms - T0) % 15000 == 0
        assert 2.0 <= spike.multiplier <= 3.0


def test_forced_bad_handover_produces_2x_segment():
    cfg = TerminalModelConfig(rng_seed=2, p_bad_handover=0.0,
                              forced_bad_handovers=(20,))
    sim, samples = run_sim(cfg, 900)
    lats = np.array([s.pop_latency_ms for s in samples])
    median = np.median(lats)
    assert len(sim.spike_log) == 1
    spike = sim.spike_log[0]
    # every sample inside the spike clears 2x the run median
    inside = [s.pop_latency_ms for s in samples
              if spike.start_ms <= s.ts_ms < spike.end_ms]
    assert len(inside) == spike.duration_ms // 1000
    assert all(v >= 2.0 * median for v in inside)


def test_spike_free_run_median_band():
    cfg = TerminalModelConfig(rng_seed=3, p_bad_handover=0.0)
    _, samples = run_sim(cfg, 7200)
    lats = [s.pop_latency_ms for s in samples]
    assert 30.0 <= float(np.median(lats)) <= 50.0


def test_latency_fluctuates_continuously():
    # the serving satellite moves ~7.6 km/s, so consecutive seconds differ
    cfg = TerminalModelConfig(rng_seed=4, p_bad_handover=0.0, noise_ms=0.0)
    _, samples = run_sim(cfg, 120)
    lats = [s.pop_latency_ms for s in samples]
    diffs = np.abs(np.diff(lats))
    assert np.count_nonzero(diffs > 1e-6) >= 115


def test_transient_loss_at_spike_edges():
    cfg = TerminalModelConfig(rng_seed=6, p_bad_handover=0.0,
                              forced_bad_handovers=(10,))
    sim, samples = run_sim(cfg, 600)
    spike = sim.spike_log[0]
    by_ts = {s.ts_ms: s for s in samples}
    start_drop = by_ts[spike.start_ms].pop_drop_rate
    end_drop = by_ts[spike.end_ms].pop_drop_rate
    lo, hi = EDGE_DROP_RATE
    assert lo <= start_drop <= hi
    assert lo <= end_drop <= hi
    quiet = [s.pop_drop_rate for s in samples
             if not (spike.start_ms <= s.ts_ms <= spike.end_ms)]
    assert max(quiet) <= BASE_DROP_RATE


def test_orientation_bands_and_drift_pace():
    cfg = TerminalModelConfig(rng_seed=8, p_bad_handover=0.0)
    _, samples = run_sim(cfg, 3600)
    az = np.array([s.az_deg for s in samples])
    el = np.array([s.el_deg for s in samples])
    assert az.min() >= AZ_BAND[0] and az.max() <= AZ_BAND[1]
    assert el.min() >= EL_BAND[0] and el.max() <= EL_BAND[1]
    med_step = float(np.median(np.abs(np.diff(az))))
    assert DRIFT_RATE_DEG_PER_S / 2 <= med_step <= DRIFT_RATE_DEG_PER_S * 2


# --- counters ------------------------------------------------------------

def test_zero_traffic_zero_deltas():
    _, samples = run_sim(TerminalModelConfig(rng_seed=1), 60)
    assert all(s.bytes_down == 0 and s.bytes_up == 0 for s in samples)


def test_injection_exact_volume_and_staleness():
    sim = TerminalSim(TerminalModelConfig(rng_seed=1))
    start = T0 + 20_000
    sim.inject_user_traffic(40e6, start, 10_000)
    samples = [sim.step(T0 + k * 1000) for k in range(60)]
    deltas = {s.ts_ms: s.bytes_down for s in samples}
    # totals: 40 Mbps for 10 s = 50 MB, within 1%
    total = samples[-1].bytes_down - samples[0].bytes_down
    assert total == pytest.approx(50_000_000, rel=0.01)
    # staleness: first nonzero counter appears lag after start (+- 1 sample)
    first_nonzero = min(ts for ts, v in deltas.items() if v > 0)
    assert abs(first_nonzero - (start + 1000)) <= 1000


def test_disjoint_injections_sum_and_overlap_rejected():
    sim = TerminalSim(TerminalModelConfig(rng_seed=1))
    sim.inject_user_traffic(10e6, T0 + 5_000, 5_000)
    sim.inject_user_traffic(20e6, T0 + 30_000, 5_000)
    with pytest.raises(OverlapRejected):
        sim.inject_user_traffic(5e6, T0 + 32_000, 2_000)
    with pytest.raises(OverlapRejected):
        sim.inject_user_traffic(5e6, T0 + 1_000, 6_000)
    samples = [sim.step(T0 + k * 1000) for k in range(60)]
    expect = (10e6 * 5 + 20e6 * 5) / 8.0
    assert samples[-1].bytes_down == pytest.approx(expect, rel=0.01)


def test_counters_monotone_under_mixed_load():
    sim = TerminalSim(TerminalModelConfig(rng_seed=1))
    sim.inject_user_traffic(15e6, T0 + 10_000, 20_000)
    last_d = last_u = -1
    for k in range(90):
        if k == 30:
            sim.set_experiment_rate(8e6, T0 + k * 1000)
        if k == 70:
            sim.set_experiment_rate(0.0, T0 + k * 1000)
        s = sim.step(T0 + k * 1000)
        assert s.bytes_down >= last_d and s.bytes_up >= last_u
        last_d, last_u = s.bytes_down, s.bytes_up


def test_experiment_traffic_carries_header_overhead():
    sim = TerminalSim(TerminalModelConfig(rng_seed=1))
    sim.set_experiment_rate(40e6, T0)
    samples = [sim.step(T0 + k * 1000) for k in range(30)]
    # steady state: per-second counter delta reflects rate * (1 + overhead)
    deltas = np.diff([s.bytes_down for s in samples[5:]])
    rate_seen = float(np.median(deltas)) * 8.0
    assert rate_seen == pytest.approx(40e6 * (1 + HEADER_OVERHEAD_FRAC), rel=0.01)


# --- outage --------------------------------------------------------------

def test_outage_hides_latency_keeps_counters():
    cfg = TerminalModelConfig(rng_seed=12, p_outage_per_s=0.05)
    sim = TerminalSim(cfg)
    sim.inject_user_traffic(10e6, T0, 600_000)
    samples = [sim.step(T0 + k * 1000) for k in range(600)]
    outages = [s for s in samples if s.state == "OUTAGE"]
    assert outages, "no outage in 10 min at p=0.05/s"
    for s in outages:
        assert s.pop_latency_ms is None and s.pop_drop_rate is None
        assert s.bytes_down > 0  # counters still served
        with pytest.raises(Unavailable):
            s.latency()
    actives = [s for s in samples if s.state == "ACTIVE"]
    assert all(s.pop_latency_ms > 0 for s in actives)


# --- feed server ---------------------------------------------------------

class _BigLineSim:
    """Stands in for a TerminalSim whose every line is 64 KiB, so a client
    that never reads fills its socket buffers within a few dozen steps."""

    class _Sample:
        def __init__(self, ts_ms):
            self.ts_ms = ts_ms

        def to_json_line(self):
            return json.dumps({"ts_ms": self.ts_ms, "pad": "x" * 65536})

    def step(self, now_ms):
        return self._Sample(now_ms)


def test_stalled_feed_client_is_dropped_and_others_still_served(caplog):
    svc = TelemetryServer(_BigLineSim(), interval_s=0.005)
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled.connect(("127.0.0.1", svc.port))   # never reads
    reader = socket.create_connection(("127.0.0.1", svc.port))
    got = []

    def read():
        with reader.makefile("rb") as fh:
            for line in fh:
                got.append(json.loads(line)["ts_ms"])
                if len(got) == 200:
                    return

    th = threading.Thread(target=read, daemon=True)
    th.start()
    th.join(timeout=20)   # the stalled client's buffers fill by line ~60
    stuck = th.is_alive()
    svc.close()
    stalled.close()
    reader.close()
    assert not stuck, f"the reader got {len(got)} lines, then the feed stalled"
    assert len(got) == 200 and got == sorted(set(got))
    assert "dropped a feed client" in caplog.text



def test_feed_accept_error_does_not_stop_accepting(monkeypatch, caplog):
    accept = socket.socket.accept
    failures = []

    def accept_once_failing(self):
        if not failures:
            failures.append(1)
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(self)

    monkeypatch.setattr(socket.socket, "accept", accept_once_failing)
    svc = TelemetryServer(TerminalSim(TerminalModelConfig(rng_seed=1)), interval_s=0.1)
    try:
        with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as client:
            sample = TelemetrySample.from_wire(json.loads(client.makefile("rb").readline()))
        assert failures and sample.ts_ms > 0
        assert "Too many open files" in caplog.text
    finally:
        svc.close()


# --- golden digest -------------------------------------------------------

GOLDEN_TERMINAL = "f530b6dde0b277883c8f38b29db687d13e0e27a1ba7450d73c52eda2181f6a33"


def test_terminal_sim_golden_digest():
    """A seeded run with outages, a forced bad handover, user traffic and
    two experiment-rate changes, hashed with its spike and handover logs and
    the traceroute hops the agent derives from each active sample. It pins
    outage durations, counter lag, gateway placement and path composition."""
    import hashlib
    import json

    from leobench.agent import traceroute_hops

    cfg = TerminalModelConfig(rng_seed=17, p_outage_per_s=0.02,
                              forced_bad_handovers=(6,))
    sim = TerminalSim(cfg)
    sim.inject_user_traffic(25e6, T0 + 40_000, 30_000)
    h = hashlib.sha256()
    states = set()
    for k in range(480):
        now = T0 + k * 1000
        if k in (100, 220):
            sim.set_experiment_rate(6e6 if k == 100 else 0.0, now)
        s = sim.step(now)
        states.add(s.state)
        h.update(json.dumps(s.to_wire()).encode())
        if s.state == "ACTIVE":
            h.update(repr(traceroute_hops(s.pop_latency_ms)).encode())
    h.update(repr(sim.spike_log).encode())
    h.update(repr(sim.handover_log).encode())
    assert states == {"ACTIVE", "OUTAGE"} and sim.spike_log
    assert h.hexdigest() == GOLDEN_TERMINAL

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobench.telemetry import (
    ConsumptionDelta,
    ConsumptionTracker,
    InsufficientHistory,
    SeriesTooShort,
    TelemetryWindow,
    UserTrafficDetector,
    estimate_time_shift,
)
from leobench.terminal_sim import TelemetrySample, TerminalModelConfig, TerminalSim

T0 = 1_760_000_000_000


def sample(ts_ms, latency=35.0, drop=0.001, down=0, up=0, state="ACTIVE"):
    if state == "OUTAGE":
        latency = drop = None
    return TelemetrySample(ts_ms, latency, drop, 1.0, 65.0, down, up, state)


def fill(window, latencies, t0=T0):
    for i, v in enumerate(latencies):
        window.push(sample(t0 + i * 1000, latency=v))


# --- ring buffer + moving average ---------------------------------------

def test_moving_avg_basics():
    w = TelemetryWindow(capacity=32)
    fill(w, [30, 30, 30, 30, 30])
    assert w.moving_avg("latency_ms", 5) == 30
    w2 = TelemetryWindow()
    fill(w2, [10, 20, 30])
    assert w2.moving_avg("latency_ms", 3) == 20


def test_moving_avg_insufficient_history():
    w = TelemetryWindow()
    fill(w, list(range(9)))
    with pytest.raises(InsufficientHistory):
        w.moving_avg("latency_ms", 10)
    with pytest.raises(InsufficientHistory):
        TelemetryWindow().current("latency_ms")


def test_moving_avg_homogeneity():
    rng = np.random.default_rng(0)
    series = rng.uniform(20, 80, size=40)
    c = 3.7
    w1, w2 = TelemetryWindow(), TelemetryWindow()
    fill(w1, series)
    fill(w2, c * series)
    for n in (1, 5, 10, 40):
        assert w2.moving_avg("latency_ms", n) == pytest.approx(
            c * w1.moving_avg("latency_ms", n), rel=1e-12)


def test_moving_avg_skips_outage_gaps():
    w = TelemetryWindow()
    w.push(sample(T0, latency=30))
    w.push(sample(T0 + 1000, state="OUTAGE"))
    w.push(sample(T0 + 2000, latency=50))
    assert w.moving_avg("latency_ms", 3) == 40  # outage sample carries no value


def test_ring_capacity_and_ordering():
    w = TelemetryWindow(capacity=3)
    fill(w, [1, 2, 3, 4, 5])
    assert [s.pop_latency_ms for s in w.samples()] == [3, 4, 5]
    assert len(w) == 3
    with pytest.raises(ValueError):
        w.push(sample(T0))  # stale timestamp


def _list_copy_last_values(w, n):
    """last_values as it read the ring before: a copy of all of it."""
    if len(w) < n:
        raise InsufficientHistory
    present = [s.pop_latency_ms for s in list(w._buf)[-n:] if s.pop_latency_ms is not None]
    if not present:
        raise InsufficientHistory
    return present


def _list_copy_prior_moving_avg(w, n):
    if len(w) < n + 1:
        raise InsufficientHistory
    present = [s.pop_latency_ms for s in list(w._buf)[-(n + 1):-1]
               if s.pop_latency_ms is not None]
    if not present:
        raise InsufficientHistory
    return float(np.mean(present))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))   # repr tells every float bit apart
    except InsufficientHistory:
        return "InsufficientHistory"


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 12),
       latencies=st.lists(st.one_of(st.none(), st.floats(-1e12, 1e12)), max_size=40),
       n=st.integers(1, 13))
def test_tail_reads_equal_the_list_copy(capacity, latencies, n):
    """The ring's tail, read from the newest end and put back oldest first,
    gives the values of the whole-ring copy in the same order, so np.mean
    sums them the same way; wrapped rings and outage gaps included."""
    w = TelemetryWindow(capacity=capacity)
    for i, v in enumerate(latencies):
        w.push(sample(T0 + i * 1000, latency=v, state="ACTIVE" if v is not None else "OUTAGE"))
    assert (_outcome(w.last_values, "latency_ms", n)
            == _outcome(_list_copy_last_values, w, n))
    assert (_outcome(w.moving_avg, "latency_ms", n)
            == _outcome(lambda: float(np.mean(_list_copy_last_values(w, n)))))
    assert (_outcome(w.prior_moving_avg, "latency_ms", n)
            == _outcome(_list_copy_prior_moving_avg, w, n))


# --- time-shift estimation ----------------------------------------------

def test_shift_recovers_injected_delays_exactly():
    rng = np.random.default_rng(1)
    truth = rng.uniform(0, 50e6, size=200)
    for inj in range(0, 8):
        terminal = np.concatenate([np.full(inj, truth[0]), truth[:len(truth) - inj]])
        est = estimate_time_shift(terminal, truth, max_shift_s=8)
        assert est.shift_s == inj
        assert est.confident


def test_identical_series_shift_zero():
    series = np.sin(np.arange(120) / 7.0)
    est = estimate_time_shift(series, series, max_shift_s=5)
    assert est.shift_s == 0
    assert est.confident


def test_independent_series_flagged_no_confidence():
    rng = np.random.default_rng(2)
    a = rng.normal(size=300)
    b = rng.normal(size=300)
    est = estimate_time_shift(a, b, max_shift_s=10)
    # oracle: exhaustive MAE curve computed here, argmin must agree
    maes = [float(np.mean(np.abs(a[s:300] - b[:300 - s]))) for s in range(11)]
    assert est.shift_s == int(np.argmin(maes))
    assert est.mae_by_shift == pytest.approx(tuple(maes))
    assert not est.confident


def test_short_series_rejected():
    with pytest.raises(SeriesTooShort):
        estimate_time_shift(np.arange(30), np.arange(30), max_shift_s=5)


# --- consumption tracking -----------------------------------------------

def counter_samples(rates_bps, t0=T0):
    out, down = [], 0
    for i, r in enumerate(rates_bps):
        down += int(r / 8)
        out.append(sample(t0 + (i + 1) * 1000, down=down))
    return out


def test_rates_from_counter_deltas():
    tracker = ConsumptionTracker()
    rates = [0, 10e6, 10e6, 40e6, 0]
    deltas = [d for s in counter_samples(rates)
              if (d := tracker.push(s, experiment_rate_bps=0.0))]
    got = [d.terminal_rate_bps for d in deltas]
    assert got == pytest.approx(rates[1:], rel=0.01)
    # diff_change is the discrete derivative of diff
    changes = [d.diff_change_bps for d in deltas]
    diffs = [d.diff_bps for d in deltas]
    assert changes[1:] == pytest.approx(list(np.diff(diffs)))


def test_counter_reset_drops_sample_and_warns(caplog):
    tracker = ConsumptionTracker()
    tracker.push(sample(T0, down=1000), 0.0)
    with caplog.at_level(logging.WARNING, logger="leobench.telemetry"):
        out = tracker.push(sample(T0 + 1000, down=500), 0.0)
    assert out is None
    assert any("backwards" in r.message for r in caplog.records)
    # next interval resyncs from the reset value
    d = tracker.push(sample(T0 + 2000, down=1500), 0.0)
    assert d.terminal_rate_bps == pytest.approx(8000.0)


# --- user-traffic detector ----------------------------------------------

def make_deltas(diffs, t0=T0):
    out, prev = [], None
    for i, diff in enumerate(diffs):
        change = 0.0 if prev is None else diff - prev
        out.append(ConsumptionDelta(t0 + i * 1000, diff, 0.0, diff, change))
        prev = diff
    return out


def test_constant_header_overhead_never_fires():
    det = UserTrafficDetector()
    for d in make_deltas([5.6e6] * 300):
        assert det.update(d) is None
    assert not det.active


def test_small_oscillation_never_fires():
    rng = np.random.default_rng(3)
    diffs = 5.6e6 + rng.uniform(-0.5e6, 0.5e6, size=300)
    det = UserTrafficDetector(change_threshold_bps=2e6)
    assert all(det.update(d) is None for d in make_deltas(diffs))


def test_step_fires_after_hold_and_deasserts():
    hold = 2
    det = UserTrafficDetector(change_threshold_bps=2e6, hold_s=hold)
    diffs = [5.6e6] * 20 + [25.6e6] * 20 + [5.6e6] * 20
    events = [e for d in make_deltas(diffs) if (e := det.update(d))]
    assert [e.active for e in events] == [True, False]
    step_ts = T0 + 20 * 1000
    drop_ts = T0 + 40 * 1000
    # asserted once the deviation held for hold_s consecutive samples
    assert events[0].ts_ms == step_ts + (hold - 1) * 1000
    assert events[1].ts_ms == drop_ts + (hold - 1) * 1000


def test_detector_invariant_to_constant_offset():
    rng = np.random.default_rng(4)
    base = np.concatenate([
        np.full(60, 5.6e6), np.full(40, 30e6), np.full(60, 5.6e6),
    ]) + rng.uniform(-0.2e6, 0.2e6, size=160)
    def run(diffs):
        det = UserTrafficDetector()
        return [(e.ts_ms, e.active)
                for d in make_deltas(diffs) if (e := det.update(d))]

    runs = [run(base + offset) for offset in (0.0, 7e6, 123.4e6)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0], "expected at least one event"


def test_end_to_end_injection_detected_at_t_plus_hold():
    # full pipeline: sim counters (1 s stale) -> rates -> shift estimate ->
    # detector; event lands at injection start + hold_s after correction
    cfg = TerminalModelConfig(rng_seed=7, p_bad_handover=0.0)
    sim = TerminalSim(cfg)
    start = T0 + 90_000
    sim.inject_user_traffic(20e6, start, 60_000)
    tracker = ConsumptionTracker()
    det = UserTrafficDetector(change_threshold_bps=2e6, hold_s=2)
    terminal_rates, truth, events = [], [], []
    for k in range(240):
        ts = T0 + k * 1000
        s = sim.step(ts)
        truth.append(20e6 if start < ts <= start + 60_000 else 0.0)
        d = tracker.push(s, experiment_rate_bps=0.0)
        if d:
            terminal_rates.append(d.terminal_rate_bps)
            e = det.update(d)
            if e:
                events.append(e)
    est = estimate_time_shift(terminal_rates, truth[1:], max_shift_s=5)
    assert est.shift_s == 1  # recovers the counter staleness lag
    assert est.confident
    assert events and events[0].active
    corrected = events[0].ts_ms - est.shift_s * 1000
    assert abs(corrected - (start + det.hold_s * 1000)) <= 1000

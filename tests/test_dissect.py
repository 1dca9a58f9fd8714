from pathlib import Path

import numpy as np
import pytest

from leobench.dissect import (
    EmptyInput,
    SegmentMap,
    SegmentRule,
    UncoveredHop,
    cdf_csv,
    detect_spikes,
    load_ping_csv,
    load_traceroute_csv,
    orientation_heatmap,
    percentiles,
    segment_latencies,
)
from leobench.terminal_sim import TelemetrySample, TerminalModelConfig, TerminalSim

FIXTURES = Path(__file__).parent / "fixtures"
T0 = 1_760_000_000_000

PATH_ADDRS = {
    1: "192.168.1.1",
    2: "100.64.0.1",
    3: "206.224.64.1",
    4: "206.224.65.9",
    5: "142.250.224.10",
    6: "8.8.8.8",
}


def fixture_map():
    return SegmentMap.from_json((FIXTURES / "segment_map.json").read_text())


def runs_with_hop_medians(medians, n_runs=5):
    """Five runs with symmetric per-run offsets so each hop's median is exact."""
    offsets = [-0.4, -0.2, 0.0, 0.2, 0.4]
    runs = []
    for off in offsets[:n_runs]:
        runs.append([(h, PATH_ADDRS[h], m + off)
                     for h, m in enumerate(medians, start=1)])
    return runs


# --- percentiles ---------------------------------------------------------

def test_percentiles_uniform_1_to_100():
    stats = percentiles(list(range(1, 101)))
    assert stats.median == 50
    assert stats.p95 == 95
    assert stats.p99 == 99
    assert stats.max == 100
    assert stats.count == 100 and stats.lost == 0


def test_percentiles_single_sample():
    stats = percentiles([42.5])
    assert stats.median == stats.p95 == stats.p99 == stats.max == 42.5


def test_percentiles_counts_lost_separately():
    stats = percentiles([10.0, None, 20.0, None, 30.0])
    assert stats.count == 3 and stats.lost == 2
    assert stats.median == 20.0
    with pytest.raises(EmptyInput):
        percentiles([None, None])
    with pytest.raises(EmptyInput):
        percentiles([])


def test_percentiles_match_inverted_cdf_oracle():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 100, 1001):
        vals = rng.uniform(10, 200, size=n)
        stats = percentiles(list(vals))
        for p, got in ((50, stats.median), (95, stats.p95), (99, stats.p99)):
            want = float(np.percentile(vals, p, method="inverted_cdf"))
            assert got == want, (n, p)
        assert stats.median <= stats.p95 <= stats.p99 <= stats.max


def test_seeded_trace_tail_ratio():
    sim = TerminalSim(TerminalModelConfig(rng_seed=11))
    lats = [sim.step(T0 + k * 1000).pop_latency_ms for k in range(7200)]
    stats = percentiles(lats)
    assert 30.0 <= stats.median <= 50.0
    assert stats.p99 / stats.median > 2.4


# --- segment dissection --------------------------------------------------

def test_segment_fixture_exact():
    segs = segment_latencies(runs_with_hop_medians([1, 31, 33, 35, 37, 45]),
                             fixture_map())
    by = {s.segment: s for s in segs}
    assert by["S2"].one_way_ms == pytest.approx(15.0)
    assert by["S6"].one_way_ms == pytest.approx(4.0)
    assert by["S1"].one_way_ms == pytest.approx(0.5)
    assert not any(s.clamped for s in segs)
    # dissected one-way parts reassemble the end-to-end median one-way
    total = sum(s.one_way_ms for s in segs)
    assert total == pytest.approx(45 / 2, abs=1e-9)


def test_identical_hop_medians_zero_segment():
    segs = segment_latencies(runs_with_hop_medians([1, 31, 31, 35, 37, 45]),
                             fixture_map())
    by = {s.segment: s for s in segs}
    assert by["S3"].one_way_ms == 0.0
    assert not by["S3"].clamped


def test_negative_difference_clamped_and_flagged():
    segs = segment_latencies(runs_with_hop_medians([1, 31, 28, 35, 37, 45]),
                             fixture_map())
    by = {s.segment: s for s in segs}
    assert by["S3"].one_way_ms == 0.0
    assert by["S3"].clamped


def test_uncovered_hop_raises():
    runs = [[(1, "10.0.0.1", 1.0), (2, "203.0.113.9", 31.0)]]
    with pytest.raises(UncoveredHop):
        segment_latencies(runs, fixture_map())


def test_non_monotone_labels_rejected():
    segmap = SegmentMap([SegmentRule("S3", hop_index=1), SegmentRule("S1", hop_index=2)])
    with pytest.raises(ValueError):
        segment_latencies([[(1, "a", 5.0), (2, "b", 9.0)]], segmap)


def test_runs_must_share_destination():
    runs = runs_with_hop_medians([1, 31, 33, 35, 37, 45])
    runs.append(runs[0][:4])  # truncated run never reached the destination
    with pytest.raises(ValueError):
        segment_latencies(runs, fixture_map())


def test_calibrated_sim_s2_share_in_band():
    # build traceroute-like runs the way the agent does: split the sim's
    # end-to-end latency into the fixed path tail and the bent-pipe middle
    cfg = TerminalModelConfig(rng_seed=21, p_bad_handover=0.0)
    sim = TerminalSim(cfg)
    runs = []
    for k in range(600):
        s = sim.step(T0 + k * 1000)
        if k % 15 != 7:  # one traceroute snapshot per handover interval
            continue
        pop = s.pop_latency_ms
        tail = [2.0, 2.0, 2.0, 7.0]
        cum = [1.0, pop - sum(tail)]
        for t in tail:
            cum.append(cum[-1] + t)
        runs.append([(h, PATH_ADDRS[h], cum[h - 1]) for h in range(1, 7)])
    segs = segment_latencies(runs, fixture_map())
    total = sum(s.one_way_ms for s in segs)
    s2 = next(s for s in segs if s.segment == "S2")
    assert 0.50 <= s2.one_way_ms / total <= 0.70


# --- spike detection -----------------------------------------------------

def spiky_series(n=1200, base=35.0, spikes=((523, 30, 40.0),), seed=0):
    rng = np.random.default_rng(seed)
    arr = base + rng.uniform(-1.5, 1.5, size=n)
    for start, dur, add in spikes:
        arr[start:start + dur] += add
    return arr


def test_single_spike_onset_and_quantization():
    series = spiky_series()
    spikes = detect_spikes(series, k_mult=2.0, min_persist_s=5)
    assert len(spikes) == 1
    got = spikes[0]
    assert abs(got.start_s - 523) <= 2
    assert got.nearest_15s_multiple == 30


def test_flat_series_no_spikes():
    assert detect_spikes(spiky_series(spikes=()), 2.0, 5) == []


def test_two_separated_spikes():
    series = spiky_series(spikes=((200, 15, 40.0), (700, 45, 45.0)))
    spikes = detect_spikes(series, 2.0, 5)
    assert len(spikes) == 2
    assert [s.nearest_15s_multiple for s in spikes] == [15, 45]


def test_spike_detection_scale_invariant():
    series = spiky_series(spikes=((300, 30, 40.0), (900, 15, 38.0)))
    a = detect_spikes(series, 2.0, 5)
    b = detect_spikes(series * 37.5, 2.0, 5)
    c = detect_spikes(series * 1e-3, 2.0, 5)
    assert a == b == c


def test_spike_series_too_short():
    with pytest.raises(ValueError):
        detect_spikes([35.0] * 59, 2.0, 5)


# --- orientation heatmap -------------------------------------------------

def orient_sample(ts, az, el, lat):
    return TelemetrySample(ts, lat, 0.001, az, el, 0, 0, "ACTIVE")


def test_single_orientation_single_bin():
    samples = [orient_sample(T0 + i * 1000, 1.0, 65.0, 35.0) for i in range(50)]
    cells = orientation_heatmap(samples, 0.2, 0.1)
    assert len(cells) == 1
    assert cells[0].count == 50
    assert not cells[0].low_confidence


def test_bin_counts_partition_samples():
    rng = np.random.default_rng(9)
    samples = [orient_sample(T0 + i * 1000,
                             float(rng.uniform(0.2, 1.8)),
                             float(rng.uniform(64.5, 65.4)),
                             float(rng.uniform(30, 40)))
               for i in range(500)]
    cells = orientation_heatmap(samples, 0.2, 0.1)
    assert sum(c.count for c in cells) == 500


def test_slow_orientation_bin_has_max_p95():
    rng = np.random.default_rng(10)
    samples = []
    for i in range(400):
        az = float(rng.uniform(0.4, 1.2))
        samples.append(orient_sample(T0 + i * 1000, az, 65.0,
                                     float(rng.uniform(30, 40))))
    for i in range(40):  # rare pocket with +40 ms
        samples.append(orient_sample(T0 + (400 + i) * 1000, 1.7, 65.0,
                                     float(rng.uniform(70, 80))))
    cells = orientation_heatmap(samples, 0.2, 0.1)
    worst = max(cells, key=lambda c: c.p95_ms)
    assert worst.az_bin == pytest.approx(1.6)
    # oracle: direct per-bin nearest-rank percentile
    pocket = sorted(s.pop_latency_ms for s in samples if s.az_deg == 1.7)
    import math
    want = pocket[max(1, math.ceil(0.95 * len(pocket))) - 1]
    assert worst.p95_ms == pytest.approx(want)


def test_low_confidence_marking():
    samples = [orient_sample(T0 + i * 1000, 0.3, 65.0, 35.0) for i in range(29)]
    cells = orientation_heatmap(samples, 0.2, 0.1)
    assert cells[0].low_confidence


# --- CSV interchange -----------------------------------------------------

def test_cdf_csv_monotone_to_one():
    text = cdf_csv([5.0, 1.0, 3.0, None, 2.0])
    lines = text.strip().splitlines()
    assert lines[0] == "value,cum_prob"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    values = [r[0] for r in rows]
    probs = [r[1] for r in rows]
    assert values == sorted(values)
    assert probs == sorted(probs)
    assert probs[-1] == 1.0
    assert len(rows) == 4  # lost probe excluded


def test_load_agent_csvs():
    ping = "ts_ms,rtt_ms,lost\n1000,35.2,0\n2000,0,1\n3000,36.1,0\n"
    assert load_ping_csv(ping) == [35.2, None, 36.1]
    tr = ("ts_ms,hop_index,hop_addr,rtt_ms\n"
          "2000,2,100.64.0.1,31.2\n2000,1,192.168.1.1,1.0\n"
          "1000,1,192.168.1.1,1.1\n1000,2,100.64.0.1,30.9\n")
    # rows group into one run per probe, in time order, hops sorted
    assert load_traceroute_csv(tr) == [
        [(1, "192.168.1.1", 1.1), (2, "100.64.0.1", 30.9)],
        [(1, "192.168.1.1", 1.0), (2, "100.64.0.1", 31.2)]]

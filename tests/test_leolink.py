import csv
import dataclasses
import hashlib
import io
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leobench.leolink import (
    DEFAULT_ALPHA_MS,
    DEFAULT_BETA,
    LOSS_DRAW_BLOCK,
    MSS_BYTES,
    MSS_BITS,
    AckInfo,
    Bbr2Lite,
    CcParams,
    EmptyGrid,
    LinkProfile,
    ProfileExhausted,
    _loss_draws,
    fairness,
    make_cc,
    run_flow,
    run_flows,
    spiky_lossy_profile,
    sweep,
)
from leobench.terminal_sim import TerminalModelConfig, TerminalSim


def test_cc_params_validation():
    CcParams(1.0, 0.499)
    with pytest.raises(ValueError):
        CcParams(0.0, 0.02)
    with pytest.raises(ValueError):
        CcParams(-5.0, 0.02)
    with pytest.raises(ValueError):
        CcParams(1000.0, 0.0)
    with pytest.raises(ValueError):
        CcParams(1000.0, 0.5)


def test_profile_validation():
    with pytest.raises(ValueError):
        LinkProfile([0, 1000, 1000], [20, 20, 20], [1e6] * 3, [0.0] * 3)
    with pytest.raises(ValueError):
        LinkProfile([0, 1000], [20, 0.0], [1e6] * 2, [0.0] * 2)
    with pytest.raises(ValueError):
        LinkProfile([0, 1000], [20, 20], [1e6] * 2, [0.0, 0.11])
    with pytest.raises(ValueError):
        LinkProfile([], [], [], [])


def test_default_buffer_is_one_bdp_of_mean_link():
    prof = LinkProfile.constant(owd_ms=25.0, capacity_bps=16e6, loss_prob=0.0,
                                duration_s=10)
    # BDP = capacity x RTT = 16e6 bps x 50 ms = 800_000 bits = 100_000 bytes
    assert prof.buffer_bytes == 100_000
    small = LinkProfile.constant(1.0, 1e5, 0.0, 10)
    assert small.buffer_bytes == 8 * MSS_BYTES  # floored


def test_profile_csv_round_trip():
    prof = LinkProfile.constant(17.5, 8e6, 0.03, 5, buffer_bytes=50_000)
    text = prof.to_csv()
    header = text.splitlines()[0]
    assert header == "ts_ms,owd_ms,capacity_bps,loss_prob"
    back = LinkProfile.from_csv(text, buffer_bytes=50_000)
    assert np.array_equal(back.ts_ms, prof.ts_ms)
    assert np.allclose(back.owd_ms, prof.owd_ms)
    assert np.allclose(back.capacity_bps, prof.capacity_bps)
    assert np.allclose(back.loss_prob, prof.loss_prob)


def test_profile_from_telemetry_mapping():
    sim = TerminalSim(TerminalModelConfig(rng_seed=4))
    t0 = 1_700_000_000_000
    samples = [sim.step(t0 + k * 1000) for k in range(120)]
    prof = LinkProfile.from_telemetry(samples, capacity_base_bps=10e6)
    assert prof.ts_ms[0] == 0.0
    lats = np.array([s.pop_latency_ms for s in samples])
    assert np.allclose(prof.owd_ms, lats / 2.0)
    assert np.all(prof.loss_prob <= 0.1)
    assert np.all(prof.capacity_bps <= 10e6)
    # spikier seconds get squeezed hardest
    assert prof.capacity_bps[np.argmax(lats)] == prof.capacity_bps.min()


@pytest.mark.parametrize("prof", [
    LinkProfile.constant(20.0, 8e6, 0.01, 5),
    LinkProfile.from_terminal(TerminalModelConfig(rng_seed=3, p_bad_handover=0.08),
                              30, 8e6, loss_floor=0.02)], ids=["constant", "from_terminal"])
def test_segment_row_is_at_row_over_its_whole_span(prof):
    """The event loop reuses segment(t)'s row while lo <= t < hi, so that
    row must be at(t) for t itself and at both edges of the span: at each
    ts[i], just below it, below ts[0] (at() clamps) and at the profile end."""
    ts = prof.ts_ms.tolist()
    end = ts[-1] + 1000.0
    probes = [ts[0] - 1000.0, -math.inf, end]
    for t in ts:
        probes += [t, math.nextafter(t, -math.inf)]
    for t in probes:
        lo, hi, row = prof.segment(t)
        assert row == prof.at(t)
        assert lo <= t < hi
        for edge in (lo, math.nextafter(hi, -math.inf)):
            if math.isfinite(edge):
                assert prof.at(edge) == row
    assert prof.segment(end)[1] == math.nextafter(end, math.inf)
    past = math.nextafter(end, math.inf)
    for lookup in (prof.at, prof.segment):
        with pytest.raises(ProfileExhausted):
            lookup(past)


def test_run_past_profile_end_raises():
    prof = LinkProfile.constant(20.0, 8e6, 0.0, 30)
    with pytest.raises(ProfileExhausted):
        run_flow("bbr2", None, prof, 100, seed=0)


def test_unknown_cc_kind_rejected():
    with pytest.raises(ValueError):
        make_cc("vegas")


def test_lossless_link_utilization():
    """On a clean constant link every controller should hold a solid share
    of capacity once startup is over."""
    prof = LinkProfile.constant(20.0, 8e6, 0.0, 30)
    for kind in ("bbr2", "cubic", "reno"):
        stats = run_flow(kind, None, prof, 30, seed=1)
        frac = stats.mean_tput_bps() / 8e6
        assert frac >= 0.70, f"{kind} reached only {frac:.0%}"


def test_goodput_never_exceeds_capacity_by_more_than_one_packet():
    ts = np.arange(41) * 1000.0
    cap = np.where((ts // 1000) % 7 < 3, 4e6, 9e6)
    prof = LinkProfile(ts, np.full(41, 20.0), cap, np.zeros(41))
    stats = run_flow("cubic", None, prof, 40, seed=2)
    assert len(stats.per_second) == 40
    for row in stats.per_second:
        assert row.t_s == stats.per_second.index(row)
        cap_here = float(cap[row.t_s])
        assert row.goodput_bps <= cap_here + MSS_BITS


def test_packet_conservation():
    prof = LinkProfile.constant(15.0, 6e6, 0.04, 25)
    for kind in ("bbr2", "cubic", "reno"):
        stats = run_flow(kind, CcParams(3000.0, 0.08), prof, 25, seed=7)
        assert stats.delivered_packets + stats.dropped_packets \
            + stats.inflight_at_end == stats.injected_packets
        assert stats.delivered_packets * MSS_BYTES <= stats.injected_packets * MSS_BYTES


def test_identical_seed_identical_stats():
    prof = LinkProfile.constant(18.0, 5e6, 0.03, 20)
    a = run_flow("bbr2", CcParams(2000.0, 0.08), prof, 20, seed=9)
    b = run_flow("bbr2", CcParams(2000.0, 0.08), prof, 20, seed=9)
    assert a.per_second == b.per_second
    assert a.probe_rtt_entries == b.probe_rtt_entries
    assert a.injected_packets == b.injected_packets
    c = run_flow("bbr2", CcParams(2000.0, 0.08), prof, 20, seed=10)
    assert c.per_second != a.per_second


@pytest.mark.parametrize("alpha_ms", [500.0, 2000.0, 10000.0])
def test_probe_rtt_cadence_bound(alpha_ms):
    prof = LinkProfile.constant(20.0, 8e6, 0.0, 35)
    stats = run_flow("bbr2", CcParams(alpha_ms, 0.02), prof, 35, seed=3)
    entries = stats.probe_rtt_entries
    assert len(entries) >= 2
    for (t0, _), (t1, srtt) in zip(entries, entries[1:]):
        gap = t1 - t0
        assert alpha_ms - 1e-6 <= gap <= alpha_ms + 4.0 * srtt + 1e-6, \
            f"gap {gap:.1f} outside [{alpha_ms}, {alpha_ms}+4x{srtt:.1f}]"


def test_bbr_state_machine_transitions():
    """Drive the controller synthetically: flat bandwidth for three rounds
    exits STARTUP; DRAIN hands over to PROBE_BW once inflight fits in BDP."""
    cc = Bbr2Lite(CcParams(60_000.0, 0.02))
    assert cc.mode == Bbr2Lite.STARTUP

    def ack(now, bw, inflight, round_end=True):
        cc.on_ack(AckInfo(now_ms=now, rtt_ms=40.0, bw_sample_bps=bw,
                          round_trip_end=round_end, round_acked=50,
                          round_lost=0, inflight_bytes=inflight))

    ack(40.0, 8e6, 500_000)
    assert cc.mode == Bbr2Lite.STARTUP  # growth still plausible
    for k in range(3):
        ack(80.0 + 40 * k, 8e6, 500_000)
    assert cc.mode == Bbr2Lite.DRAIN
    bdp = 8e6 * 40.0 / 1000.0 / 8.0
    ack(400.0, 8e6, int(bdp * 0.9))
    assert cc.mode == Bbr2Lite.PROBE_BW


def test_high_loss_thresh_rides_through_random_loss():
    """5% random loss: a 2% loss threshold keeps probing gated and goodput
    collapses; an 8% threshold treats it as noise. Strict per-seed order."""
    prof = LinkProfile.constant(20.0, 8e6, 0.05, 40)
    lo_all, hi_all = [], []
    for seed in range(10):
        lo = run_flow("bbr2", CcParams(8000.0, 0.02), prof, 40, seed).mean_tput_bps()
        hi = run_flow("bbr2", CcParams(8000.0, 0.08), prof, 40, seed).mean_tput_bps()
        assert hi > lo, f"seed {seed}: {hi:.0f} <= {lo:.0f}"
        lo_all.append(lo)
        hi_all.append(hi)
    assert np.mean(hi_all) > 3.0 * np.mean(lo_all)


def test_loss_based_controllers_collapse_under_random_loss():
    prof = LinkProfile.constant(20.0, 8e6, 0.05, 40)
    tolerant = run_flow("bbr2", CcParams(8000.0, 0.08), prof, 40, 1).mean_tput_bps()
    for kind in ("cubic", "reno"):
        assert run_flow(kind, None, prof, 40, 1).mean_tput_bps() < tolerant / 2


def test_sweep_default_only_grid_is_all_zero():
    prof = LinkProfile.constant(20.0, 6e6, 0.02, 25)
    res = sweep([DEFAULT_ALPHA_MS], [DEFAULT_BETA], [prof], 20, [1, 2])
    assert len(res.cells) == 1
    cell = res.cells[0]
    assert cell.tput_improvement_pct == 0.0
    assert cell.p95_rtt_inflation_pct == 0.0
    assert res.best is None


def test_sweep_rejects_empty_inputs():
    prof = LinkProfile.constant(20.0, 6e6, 0.0, 10)
    with pytest.raises(EmptyGrid):
        sweep([], [0.02], [prof], 10, [1])
    with pytest.raises(EmptyGrid):
        sweep([1000.0], [0.02], [prof], 10, [])
    with pytest.raises(EmptyGrid):
        sweep([1000.0], [0.02], [], 10, [1])


def test_sweep_in_two_worker_processes_equals_in_process():
    """Runs are seeded and share no state, so farming them out to a pool of
    two processes gives the same cells and the same best cell."""
    profiles = [spiky_lossy_profile(10, capacity_bps=6e6, loss=0.04, seed=s)
                for s in (1, 2)]
    args = ([4000.0, DEFAULT_ALPHA_MS], [DEFAULT_BETA, 0.08], profiles, 5, [0, 1])
    in_process = sweep(*args, workers=1)
    assert in_process.best is not None
    assert sweep(*args, workers=2) == in_process


@pytest.fixture(scope="module")
def lossy_grid_sweep():
    profiles = [spiky_lossy_profile(45, capacity_bps=6e6, loss=0.04, seed=s)
                for s in (11, 12)]
    return sweep([10000.0, 5000.0, 4000.0, 2000.0],
                 [0.02, 0.04, 0.08, 0.16],
                 profiles, 40, [1, 2])


def test_sweep_finds_positive_cell_within_rtt_budget(lossy_grid_sweep):
    res = lossy_grid_sweep
    assert len(res.cells) == 16
    assert res.best is not None
    assert res.best.tput_improvement_pct > 0.0
    assert res.best.p95_rtt_inflation_pct < 10.0


def test_sweep_csv_shape(lossy_grid_sweep):
    text = lossy_grid_sweep.to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0].keys()) == ["alpha_ms", "beta_pct",
                                    "tput_improvement_pct", "p95_rtt_inflation_pct"]
    assert len(rows) == 16
    cell = lossy_grid_sweep.cell(4000.0, 0.08)
    match = [r for r in rows
             if float(r["alpha_ms"]) == 4000.0 and float(r["beta_pct"]) == 8.0]
    assert len(match) == 1
    assert float(match[0]["tput_improvement_pct"]) == pytest.approx(
        cell.tput_improvement_pct, abs=1e-3)


def test_improvement_non_decreasing_in_loss_thresh():
    """Within a row the gating threshold can only unlock throughput. Cells
    in the same regime (all gated, or all riding through) differ only by
    seed noise, so a small slack is allowed on the comparison."""
    profiles = [spiky_lossy_profile(40, capacity_bps=6e6, loss=0.04, seed=21)]
    res = sweep([4000.0], [0.02, 0.04, 0.08, 0.16], profiles, 35,
                list(range(10)))
    imps = [res.cell(4000.0, b).tput_improvement_pct
            for b in (0.02, 0.04, 0.08, 0.16)]
    for lo, hi in zip(imps, imps[1:]):
        assert hi >= lo - 3.0, f"row not monotone: {imps}"
    assert imps[-1] > imps[0] + 50.0  # the regime change itself is large


def test_fairness_requires_flows_on_both_sides():
    prof = LinkProfile.constant(20.0, 6e6, 0.0, 10)
    with pytest.raises(ValueError):
        fairness(0, 8, CcParams(), prof, 10, [1])


def test_cubic_self_fairness_ratio_near_one():
    prof = LinkProfile.constant(20.0, 24e6, 0.0, 40)
    res = fairness(8, 8, CcParams(), prof, 40, [1, 2], kind_b="cubic")
    assert 0.8 <= res.median_ratio <= 1.25


def test_aggressive_cell_starves_cubic():
    """The grid corner that probes rarely enough and shrugs off loss
    (alpha=2000 ms, beta=16%) grabs share from Cubic on a shared buffer."""
    prof = LinkProfile.constant(20.0, 24e6, 0.0, 40)
    default = fairness(8, 8, CcParams(DEFAULT_ALPHA_MS, DEFAULT_BETA),
                       prof, 40, [1])
    aggressive = fairness(8, 8, CcParams(2000.0, 0.16), prof, 40, [1])
    assert aggressive.median_ratio < default.median_ratio


def test_single_flow_each_no_dead_seconds():
    prof = LinkProfile.constant(20.0, 6e6, 0.0, 30)
    res = fairness(1, 1, CcParams(), prof, 30, [1])
    assert len(res.ratios) == 30 - 5  # every post-startup second counted
    assert np.min(res.ratios) > 0.0


def test_shared_bottleneck_total_stays_within_capacity():
    prof = LinkProfile.constant(20.0, 12e6, 0.0, 25)
    stats = run_flows([("cubic", None), ("bbr2", None), ("reno", None)],
                      prof, 25, seed=4)
    per_second = np.sum([[r.goodput_bps for r in s.per_second] for s in stats],
                        axis=0)
    assert np.all(per_second <= 12e6 + 3 * MSS_BITS)
    assert np.mean(per_second[5:]) >= 0.7 * 12e6


def _jumpy_delay_profile(duration_s: int) -> LinkProfile:
    """One-way delay alternating 40 ms / 10 ms each second: after a drop,
    later packets overtake earlier ones and gap-rule marks turn spurious."""
    n = duration_s + 1
    return LinkProfile(np.arange(n) * 1000.0,
                       np.where(np.arange(n) % 2 == 0, 40.0, 10.0),
                       np.full(n, 8e6), np.full(n, 0.02))


# sha256 of repr() of every FlowStats field (per-second rows, probe-RTT log,
# packet counts) of every flow; repr round-trips floats, so any change in
# any bit of the output changes the digest
GOLDEN_CASES = {
    "bbr2_spiky_lossy": (
        lambda: ([("bbr2", CcParams(4000.0, 0.08))],
                 spiky_lossy_profile(10, capacity_bps=6e6, loss=0.05, seed=5), 3),
        "38296f513106bee6ddad6e56c8eacc918ba5ac12d9a141dc98fdd99e5c0b4725"),
    "cubic_lossy": (
        lambda: ([("cubic", None)], LinkProfile.constant(20.0, 8e6, 0.03, 10), 4),
        "77314ff71de5a56d31412888e266214e44472343fb7acf78f750324be9e6983b"),
    "reno_lossy": (
        lambda: ([("reno", None)], LinkProfile.constant(20.0, 8e6, 0.03, 10), 4),
        "3ce81320d5225b0198f2e44de04c9acb2ff5355ff23f2be767501928a6cefdff"),
    # 10% loss on 2 Mbps stalls progress long enough for the RTO tick to fire
    "cubic_heavy_loss": (
        lambda: ([("cubic", None)], LinkProfile.constant(20.0, 2e6, 0.1, 10), 4),
        "3902e53c78a78ccc9b5b56ef26be43443e6dfe4ca18f19416075e40700a032ce"),
    "reno_heavy_loss": (
        lambda: ([("reno", None)], LinkProfile.constant(20.0, 2e6, 0.1, 10), 4),
        "ffb07b38d3b4abd161769e0b73528a40034b579b4650c94249d4bc10fc338403"),
    "cubic4_bbr4_shared": (
        lambda: ([("cubic", None)] * 4 + [("bbr2", CcParams())] * 4,
                 LinkProfile.constant(20.0, 12e6, 0.0, 10), 6),
        "bc0c05c0365780c2c24a55b9e621c2b03c600edfe28aa6cb4d07e26635312ad8"),
    "bbr2_cubic_spurious_gap_marks": (
        lambda: ([("bbr2", CcParams(4000.0, 0.08)), ("cubic", None)],
                 _jumpy_delay_profile(10), 3),
        "87f105cf6c3897e6232601992ae5e46def59c81da436ff0d4fad3d264b26885a"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_run_flows_golden_digest(case):
    make, expected = GOLDEN_CASES[case]
    specs, prof, seed = make()
    stats = run_flows(specs, prof, 10, seed)
    fields = repr([dataclasses.astuple(s) for s in stats])
    assert hashlib.sha256(fields.encode()).hexdigest() == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3),
                          st.sampled_from([1e5, 2e6, 2e6, 3.5e6, 8e6, 8e6, 1.2e7])),
                min_size=1, max_size=120))
def test_bw_filter_is_windowed_max(steps):
    """btl_bw is the max over the samples of the last BW_FILTER_ROUNDS
    rounds, whatever the order and repeats of the samples."""
    cc = Bbr2Lite(CcParams())
    seen = []
    for advance, bw in steps:
        cc._round += advance
        cc._update_bw(bw)
        seen.append((cc._round, bw))
        cutoff = cc._round - Bbr2Lite.BW_FILTER_ROUNDS
        assert cc.btl_bw == max(b for r, b in seen if r > cutoff)


def test_loss_draw_blocks_equal_scalar_draws():
    """A block of PCG64 draws holds the doubles of as many scalar calls, so
    drawing a block at a time keeps every loss decision; checked across
    two block boundaries."""
    n = 2 * LOSS_DRAW_BLOCK + 3
    for seed in (0, 7, 2**31 - 1):
        rng = np.random.default_rng(seed)
        scalar = [rng.random() for _ in range(n)]
        assert np.random.default_rng(seed).random(n).tolist() == scalar
        assert list(islice(_loss_draws(seed), n)) == scalar


def test_a_lossy_golden_case_draws_past_two_blocks():
    """Every packet that leaves the queue draws once, so injected minus
    dropped bounds the draws from below: a lossy golden case that crosses
    two block boundaries pins the order the blocks are consumed in."""
    def draws_past_two_blocks(make):
        specs, prof, seed = make()
        if not prof.loss_prob.any():
            return False
        stats = run_flows(specs, prof, 10, seed)
        min_draws = sum(s.injected_packets - s.dropped_packets for s in stats)
        return min_draws > 2 * LOSS_DRAW_BLOCK
    assert any(draws_past_two_blocks(make) for make, _ in GOLDEN_CASES.values())


# one op: ("ack", dt_ms, rtt_ms, bw_bps, round_end, round_acked, round_lost,
# inflight_bytes) or ("loss", dt_ms); time only moves forward
_ACK_OPS = st.tuples(st.just("ack"), st.sampled_from([0.0, 5.0, 40.0, 150.0, 600.0]),
                     st.sampled_from([20.0, 40.0, 41.5, 90.0, 250.0]),
                     st.sampled_from([0.0, 1e5, 2e6, 8e6, 8e6, 1.2e7]),
                     st.booleans(), st.integers(0, 60), st.integers(0, 20),
                     st.sampled_from([0, 6000, 30_000, 500_000]))
_LOSS_OPS = st.tuples(st.just("loss"), st.sampled_from([0.0, 10.0, 120.0]))

# flat bandwidth ends STARTUP, a small inflight ends DRAIN, the 1 s alpha
# brings PROBE_RTT at t=1100 and its exit at t=1400; the losses cut Cubic
# and Reno once in slow start and once in congestion avoidance, and the
# third comes within a round trip of the second and cuts nothing
_TOUR = ([("ack", 40.0, 40.0, 8e6, True, 50, 0, 500_000)] * 4
         + [("ack", 40.0, 40.0, 8e6, True, 50, 0, 30_000),
            ("loss", 20.0),
            ("ack", 880.0, 40.0, 8e6, True, 50, 0, 30_000),
            ("ack", 300.0, 40.0, 8e6, True, 50, 0, 30_000),
            ("loss", 5.0),
            ("loss", 5.0)]
         + [("ack", 40.0, 40.0, 8e6, True, 50, 0, 30_000)] * 3)


def _drive(kind, alpha_ms, ops):
    """Apply ops to a fresh controller. After every call the published
    limits must be the formulas' values, bit for bit (repr round-trips
    floats and tells int from float). Returns BBR's mode after each call
    and the number of window cuts."""
    cc = make_cc(kind, CcParams(alpha_ms, 0.02))
    now, modes, cuts = 0.0, [], 0

    def check():
        assert repr(cc.cwnd_bytes) == repr(cc.window_bytes(now))
        assert repr(cc.pacing_bps) == repr(cc.pacing_rate_bps(now))

    check()
    for op in ops:
        now += op[1]
        before = cc.cwnd_bytes
        if op[0] == "ack":
            cc.on_ack(AckInfo(now, *op[2:]))
        else:
            cc.on_loss(now, MSS_BYTES)
            cuts += cc.cwnd_bytes < before
        check()
        modes.append(getattr(cc, "mode", None))
    return modes, cuts


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["bbr2", "cubic", "reno"]),
       st.sampled_from([300.0, 1000.0, 10_000.0]),
       st.lists(st.one_of(_ACK_OPS, _LOSS_OPS), max_size=80))
@example("bbr2", 1000.0, _TOUR)
@example("cubic", 1000.0, _TOUR)
@example("reno", 1000.0, _TOUR)
def test_published_limits_match_the_formulas(kind, alpha_ms, ops):
    """The event loop reads cwnd_bytes and pacing_bps as fields; they must
    equal window_bytes() and pacing_rate_bps() after every on_ack and
    on_loss, on every path through the state machines."""
    _drive(kind, alpha_ms, ops)


def test_tour_reaches_every_transition():
    """The tour given to the oracle above as an example covers each path
    that publishes: BBR's STARTUP -> DRAIN -> PROBE_BW, PROBE_RTT entry
    (the early return) and exit, and a Cubic and a Reno cut in each phase."""
    modes, _ = _drive("bbr2", 1000.0, _TOUR)
    changes = [m for i, m in enumerate(modes) if i == 0 or m != modes[i - 1]]
    assert changes == [Bbr2Lite.STARTUP, Bbr2Lite.DRAIN, Bbr2Lite.PROBE_BW,
                       Bbr2Lite.PROBE_RTT, Bbr2Lite.PROBE_BW]
    for kind in ("cubic", "reno"):
        assert _drive(kind, 1000.0, _TOUR)[1] == 2


# (label, dt_ms, rtt_ms, bw_bps, round_trip_end, inflight_bytes); a labelled
# ack is not a round-trip end and moves the formulas' inputs only through the
# path its label names; a 1 s alpha brings PROBE_RTT at t=1010
_PUBLISH_PATHS = (
    [(None, 10.0, 100.0, 8e6, False, 500_000),
     ("new min RTT", 10.0, 40.0, 0.0, False, 500_000),
     ("windowed max rises", 10.0, 40.0, 1.2e7, False, 500_000)]
    # flat bandwidth ends STARTUP on the fourth round end; a large inflight
    # keeps DRAIN
    + [(None, 10.0, 40.0, 0.0, True, 500_000)] * 4
    + [(None, 10.0, 40.0, 8e6, False, 500_000)]   # held behind the max
    + [(None, 10.0, 40.0, 0.0, True, 500_000)] * 6
    + [("windowed max expires", 10.0, 40.0, 8e6, False, 500_000),
       ("DRAIN exit", 10.0, 40.0, 0.0, False, 6000),
       ("PROBE_RTT entry", 850.0, 45.0, 0.0, False, 6000),
       (None, 100.0, 45.0, 0.0, False, 6000),
       ("PROBE_RTT exit", 150.0, 45.0, 0.0, False, 6000)])


def test_bbr_publishes_on_every_path_that_moves_a_formula_input():
    """Each labelled ack changes the published limits without ending a
    round trip, so BBR's change flag must be set on each of these paths;
    after every ack the fields still equal the formulas bit for bit."""
    cc = Bbr2Lite(CcParams(1000.0, 0.02))
    now = 0.0
    modes, moved = [], []
    for label, dt, rtt, bw, round_end, inflight in _PUBLISH_PATHS:
        now += dt
        before = (cc.cwnd_bytes, cc.pacing_bps)
        cc.on_ack(AckInfo(now, rtt, bw, round_end, 50, 0, inflight))
        assert repr(cc.cwnd_bytes) == repr(cc.window_bytes(now)), label
        assert repr(cc.pacing_bps) == repr(cc.pacing_rate_bps(now)), label
        modes.append(cc.mode)
        if label is not None:
            moved.append((label, (cc.cwnd_bytes, cc.pacing_bps) != before))
    assert moved == [(label, True) for label, *_ in _PUBLISH_PATHS if label]
    changes = [m for i, m in enumerate(modes) if i == 0 or m != modes[i - 1]]
    assert changes == [Bbr2Lite.STARTUP, Bbr2Lite.DRAIN, Bbr2Lite.PROBE_BW,
                       Bbr2Lite.PROBE_RTT, Bbr2Lite.PROBE_BW]
    assert cc.btl_bw == 8e6 and cc.min_rtt_ms == 45.0

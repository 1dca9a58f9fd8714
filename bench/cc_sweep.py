"""cc-sweep: the link emulator's event loop, through its two studies.

One unit runs `leolink.sweep` over criterion 09's 4x4 (alpha, beta) grid on
two spiky lossy profiles (2% and 5% loss) for one flow seed, then
`leolink.fairness` with 8 Cubic against 8 BBR flows on a 24 Mbps
bottleneck, in this process (workers=1). `run_flows` does nearly all the
work and no other workload calls it. The single lossy flows stress the
per-ack congestion-control and gap-loss path; the 16-flow bottleneck
stresses the event heap, `LinkProfile.at` and the scans over packets in
flight. The profiles are criterion 09's (terminal seeds 31 and 32), so every
unit emulates about the same number of packets; the seed picks the flow seed,
which drives random loss and every other draw in the emulator.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import RunRecord, digest, median

NAME = "cc-sweep"
ALPHAS = (2000.0, 5000.0, 10000.0, 20000.0)
BETAS = (0.02, 0.04, 0.08, 0.16)
PROFILES = ((0.02, 31), (0.05, 32))   # (loss floor, terminal seed)
DURATION_S = 20
FAIR_FLOWS = 8
FAIR_CAPACITY_BPS = 24e6


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {"profiles": [list(p) for p in PROFILES],
            "flow_seed": int(rng.integers(1, 2**31)),
            "duration_s": DURATION_S}


def flow_stats_record(stats) -> list:
    """Every field of a FlowStats, in a form that hashes stably."""
    return [stats.flow_id, stats.cc_kind,
            [[r.t_s, r.goodput_bps, r.srtt_ms, r.loss_events] for r in stats.per_second],
            [list(e) for e in stats.probe_rtt_entries],
            stats.injected_packets, stats.delivered_packets,
            stats.dropped_packets, stats.inflight_at_end]


def conserved(stats) -> bool:
    """Packet conservation as tests/test_leolink.py states it."""
    return (stats.delivered_packets + stats.dropped_packets
            + stats.inflight_at_end == stats.injected_packets)


class Unit:
    def __init__(self, plan: dict, root: Path, rec: RunRecord, traced: bool):
        from leobench import leolink

        self.plan, self.rec = plan, rec
        dur = plan["duration_s"]
        self.profiles = [
            leolink.spiky_lossy_profile(dur + 5, capacity_bps=6e6, loss=loss, seed=s)
            for loss, s in plan["profiles"]]
        self.bottleneck = leolink.LinkProfile.constant(20.0, FAIR_CAPACITY_BPS, 0.0, dur)
        self.calls: list[tuple[float, list]] = []

    def _timed(self, run_flows):
        # rebinding leolink.run_flows lets sweep() and fairness() be timed
        # per call without editing them
        def timed(*args, **kwargs):
            t = time.perf_counter()
            out = run_flows(*args, **kwargs)
            self.calls.append((time.perf_counter() - t, out))
            return out
        return timed

    def measure(self) -> float:
        from leobench import leolink

        rec, plan = self.rec, self.plan
        dur, seed = plan["duration_s"], plan["flow_seed"]
        run_flows = leolink.run_flows
        leolink.run_flows = self._timed(run_flows)
        try:
            t0 = time.perf_counter()
            self.sweep = leolink.sweep(ALPHAS, BETAS, self.profiles, dur, [seed])
            t1 = time.perf_counter()
            self.fair = leolink.fairness(FAIR_FLOWS, FAIR_FLOWS, leolink.CcParams(),
                                         self.bottleneck, dur, [seed])
            t2 = time.perf_counter()
        finally:
            leolink.run_flows = run_flows
        n_sweep = len(self.calls) - 1
        sweep_pkts = sum(s.injected_packets for _, out in self.calls[:-1] for s in out)
        fair_pkts = sum(s.injected_packets for s in self.calls[-1][1])
        rec.op_latency_s.extend(dt for dt, _ in self.calls)
        rec.attempted += len(self.calls)
        rec.note("bench.sweep_runs_per_s", n_sweep / (t1 - t0))
        rec.note("bench.fairness_pkts_per_s", fair_pkts / (t2 - t1))
        return (sweep_pkts + fair_pkts) / (t2 - t0)

    def finish(self) -> str:
        rec = self.rec
        flows = [s for _, out in self.calls for s in out]
        bad = sum(not conserved(s) for s in flows)
        rec.check("packet_conservation", bad == 0)
        injected = sum(s.injected_packets for s in flows)
        rec.note("leolink.pkts", injected)
        rec.note("leolink.delivered_ratio",
                 sum(s.delivered_packets for s in flows) / injected)
        return digest(self.sweep.to_csv(), [flow_stats_record(s) for s in flows],
                      self.fair.ratios.tobytes())


def named_metrics(rec: RunRecord) -> dict:
    return {
        "sweep_runs_per_s": (median(rec.layer.get("bench.sweep_runs_per_s", [])), "1/s"),
        "fairness_pkts_per_s": (median(rec.layer.get("bench.fairness_pkts_per_s", [])), "1/s"),
    }

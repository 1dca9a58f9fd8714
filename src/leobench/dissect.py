"""Offline analysis of measurement output.

Batch functions over ping/traceroute CSVs and telemetry series: nearest-rank
latency percentiles, path dissection into segments S1..S6, threshold-
persistence spike detection, and orientation-binned latency heatmaps. All
pure; no shared state.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .terminal_sim import HANDOVER_PERIOD_MS

SEGMENT_ORDER = ("S1", "S2", "S3", "S4", "S5", "S6")

SPIKE_BASELINE_WINDOW_S = 120
LOW_CONFIDENCE_MIN_SAMPLES = 30


class EmptyInput(ValueError):
    pass


class UncoveredHop(LookupError):
    """A traceroute hop matched no segment rule."""


# --- percentiles ---------------------------------------------------------

@dataclass(frozen=True)
class LatencyStats:
    count: int
    lost: int
    median: float
    p95: float
    p99: float
    max: float

    def __post_init__(self):
        if not self.median <= self.p95 <= self.p99 <= self.max:
            raise ValueError("percentiles out of order")


def nearest_rank(sorted_values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: value at rank ceil(p/100 * n), 1-indexed."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return float(sorted_values[rank - 1])


def percentiles(samples) -> LatencyStats:
    """Distribution stats over latency samples; None entries are lost probes,
    excluded from the distribution but reported in `lost`."""
    values = [s for s in samples if s is not None]
    lost = len(samples) - len(values)
    if not values:
        raise EmptyInput("no successful samples")
    arr = np.sort(np.asarray(values, dtype=float))
    return LatencyStats(
        count=len(arr),
        lost=lost,
        median=nearest_rank(arr, 50),
        p95=nearest_rank(arr, 95),
        p99=nearest_rank(arr, 99),
        max=float(arr[-1]),
    )


# --- segment dissection --------------------------------------------------

@dataclass(frozen=True)
class SegmentRule:
    segment: str
    hop_index: int | None = None
    prefix: str | None = None
    asn: int | None = None

    def matches(self, hop_index: int, addr: str | None, asn: int | None) -> bool:
        if self.hop_index is not None and self.hop_index != hop_index:
            return False
        if self.prefix is not None and not (addr or "").startswith(self.prefix):
            return False
        if self.asn is not None and self.asn != asn:
            return False
        return True


class SegmentMap:
    """First-match rules assigning each hop to a path segment S1..S6."""

    def __init__(self, rules: list[SegmentRule]):
        for r in rules:
            if r.segment not in SEGMENT_ORDER:
                raise ValueError(f"unknown segment label {r.segment!r}")
        self.rules = list(rules)

    @classmethod
    def from_json(cls, text: str) -> "SegmentMap":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("segment map must be a JSON object")
        rules = obj["rules"]
        if not isinstance(rules, list) or not all(isinstance(r, dict) for r in rules):
            raise ValueError("segment map rules must be a list of objects")
        return cls([SegmentRule(
            segment=r["segment"],
            hop_index=r.get("hop_index"),
            prefix=r.get("prefix"),
            asn=r.get("asn"),
        ) for r in rules])

    def segment_for(self, hop_index: int, addr: str | None = None,
                    asn: int | None = None) -> str:
        for rule in self.rules:
            if rule.matches(hop_index, addr, asn):
                return rule.segment
        raise UncoveredHop(f"hop {hop_index} ({addr}) matches no rule")


@dataclass(frozen=True)
class SegmentLatency:
    segment: str
    one_way_ms: float
    clamped: bool  # negative difference clamped to zero


def segment_latencies(runs: list[list[tuple[int, str, float]]],
                      segmap: SegmentMap) -> list[SegmentLatency]:
    """Per-segment one-way medians from repeated traceroute runs.

    Each run is [(hop_index, addr, rtt_ms), ...]. Hop medians are taken
    across runs first; a segment's one-way latency is half the difference
    between its last hop's median and the previous segment's last hop
    median (S1 differences against zero).
    """
    if not runs:
        raise EmptyInput("no traceroute runs")
    final_hops = {max(h for h, _, _ in run) for run in runs}
    if len(final_hops) != 1:
        raise ValueError(f"runs end at different hops: {sorted(final_hops)}")

    by_hop: dict[int, list[float]] = {}
    addr_of: dict[int, str] = {}
    for run in runs:
        for hop, addr, rtt in run:
            by_hop.setdefault(hop, []).append(rtt)
            addr_of[hop] = addr
    hop_indices = sorted(by_hop)
    hop_median = {h: float(np.median(by_hop[h])) for h in hop_indices}

    labels = {h: segmap.segment_for(h, addr_of.get(h)) for h in hop_indices}
    ordered = [labels[h] for h in hop_indices]
    ranks = [SEGMENT_ORDER.index(s) for s in ordered]
    if ranks != sorted(ranks):
        raise ValueError(f"segment labels not monotone along path: {ordered}")

    last_hop: dict[str, int] = {}
    for h in hop_indices:
        last_hop[labels[h]] = h

    out = []
    prev_median = 0.0
    for seg in SEGMENT_ORDER:
        if seg not in last_hop:
            continue
        m = hop_median[last_hop[seg]]
        diff = (m - prev_median) / 2.0
        out.append(SegmentLatency(seg, max(diff, 0.0), clamped=diff < 0.0))
        prev_median = m
    return out


# --- spike detection -----------------------------------------------------

@dataclass(frozen=True)
class SpikeInterval:
    start_s: int
    duration_s: int
    nearest_15s_multiple: int


def detect_spikes(series, k_mult: float, min_persist_s: int) -> list[SpikeInterval]:
    """Intervals where latency holds at or above k_mult x rolling median.

    The baseline is a trailing 120 s rolling median, so it stays anchored to
    quiet behaviour through spikes shorter than half the window. Scale-free:
    series * c produces identical intervals.
    """
    arr = np.asarray(series, dtype=float)
    if len(arr) < 60:
        raise ValueError(f"need >= 60 s of samples, have {len(arr)}")
    if k_mult <= 1.0:
        raise ValueError("k_mult must exceed 1")
    baseline = np.empty(len(arr))
    for i in range(len(arr)):
        lo = max(0, i - SPIKE_BASELINE_WINDOW_S + 1)
        baseline[i] = np.median(arr[lo:i + 1])
    mask = arr >= k_mult * baseline

    period_s = HANDOVER_PERIOD_MS // 1000
    out = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            duration = j - i
            if duration >= min_persist_s:
                out.append(SpikeInterval(
                    start_s=i,
                    duration_s=duration,
                    nearest_15s_multiple=int(round(duration / period_s)) * period_s,
                ))
            i = j
        else:
            i += 1
    return out


# --- orientation heatmap -------------------------------------------------

@dataclass(frozen=True)
class HeatmapCell:
    az_bin: float  # lower edge, degrees
    el_bin: float
    count: int
    p95_ms: float
    low_confidence: bool


def orientation_heatmap(samples, az_bin_deg: float, el_bin_deg: float) -> list[HeatmapCell]:
    """Latency p95 binned over (azimuth, elevation). `samples` is any
    iterable of TelemetrySample; outage samples carry no latency and are
    skipped. Bin counts partition the included samples."""
    if az_bin_deg <= 0 or el_bin_deg <= 0:
        raise ValueError("bin widths must be positive")
    cells: dict[tuple[int, int], list[float]] = {}
    total = 0
    for s in samples:
        if s.pop_latency_ms is None:
            continue
        total += 1
        key = (math.floor(s.az_deg / az_bin_deg), math.floor(s.el_deg / el_bin_deg))
        cells.setdefault(key, []).append(s.pop_latency_ms)
    if total == 0:
        raise EmptyInput("no active samples to bin")
    out = []
    for (ai, ei), values in sorted(cells.items()):
        arr = np.sort(np.asarray(values))
        out.append(HeatmapCell(
            az_bin=ai * az_bin_deg,
            el_bin=ei * el_bin_deg,
            count=len(arr),
            p95_ms=nearest_rank(arr, 95),
            low_confidence=len(arr) < LOW_CONFIDENCE_MIN_SAMPLES,
        ))
    return out


# --- CSV interchange -----------------------------------------------------

def cdf_csv(samples) -> str:
    """`value,cum_prob` rows for step-plotting a CDF."""
    values = sorted(s for s in samples if s is not None)
    if not values:
        raise EmptyInput("no values")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["value", "cum_prob"])
    n = len(values)
    for i, v in enumerate(values):
        w.writerow([f"{v:.6g}", f"{(i + 1) / n:.6g}"])
    return buf.getvalue()


def heatmap_csv(cells: list[HeatmapCell]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["az_bin", "el_bin", "count", "p95_ms"])
    for c in cells:
        w.writerow([f"{c.az_bin:.6g}", f"{c.el_bin:.6g}", c.count, f"{c.p95_ms:.6g}"])
    return buf.getvalue()


def load_ping_csv(text: str) -> list[float | None]:
    """Agent ping output `ts_ms,rtt_ms,lost`; lost probes become None."""
    out = []
    for row in csv.DictReader(io.StringIO(text)):
        out.append(None if int(row["lost"]) else float(row["rtt_ms"]))
    return out


def load_traceroute_csv(text: str) -> list[list[tuple[int, str, float]]]:
    """Agent traceroute output `ts_ms,hop_index,hop_addr,rtt_ms` as per-probe
    runs: rows grouped by ts_ms, runs in time order, hops sorted."""
    groups: dict[int, list[tuple[int, str, float]]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        groups.setdefault(int(row["ts_ms"]), []).append(
            (int(row["hop_index"]), row["hop_addr"], float(row["rtt_ms"])))
    return [sorted(groups[ts]) for ts in sorted(groups)]

"""Bottleneck-link emulator and simplified congestion control.

A single-server FIFO bottleneck with a droptail buffer is driven from a
LinkProfile: piecewise-constant one-way delay, capacity, and non-congestive
loss probability, typically exported from the terminal simulator. On top of
it run reduced congestion-control state machines:

  * BBRv2-lite: STARTUP/DRAIN/PROBE_BW(up,down,cruise)/PROBE_RTT with two
    exposed knobs: alpha (probe_rtt_win_ms, the wall-clock spacing between
    PROBE_RTT entries) and beta (loss_thresh, round loss rate above which
    bandwidth probing halts and the inflight ceiling is cut);
  * Cubic-lite and Reno-lite for loss-based comparison and fairness runs.

These are faithful-in-spirit reductions, not kernel implementations;
outputs are model results. Everything is deterministic per seed.

Event bookkeeping notes: random loss consumes bottleneck capacity (the
packet is serialized, then vanishes); tail drops do not. Goodput is counted
at bottleneck egress, so per-second goodput can never exceed capacity by
more than one packet. Sequence-gap loss marks are corrected if a straggler
acknowledgment later proves delivery, keeping packet conservation exact.

The event loop's fast paths rely on four invariants:

  * a flow's in-flight dict is kept in send order: keys are inserted in
    increasing sequence number and a removed key never comes back, so its
    first entry is both the lowest sequence number and the oldest send;
  * simulated time never goes backwards: every event is scheduled at or
    after the event that schedules it;
  * a LinkProfile's columns are read-only after construction, so the
    plain-float copies that `LinkProfile.at` and `LinkProfile.segment`
    search stay in step with them, and the event loop may keep the last
    `(lo, hi, row)` segment it looked up and skip the lookup while the
    time stays inside it;
  * a controller's published `cwnd_bytes` and `pacing_bps` change only
    inside its `__init__`, `on_ack` and `on_loss`, which store
    `window_bytes()` and `pacing_rate_bps()`, so the loop reads them as
    fields and does congestion-control arithmetic once per ack or loss,
    not once per packet. A controller publishes only when an input of the
    two formulas changed (BBR also on every round-trip end): the formulas
    read controller state alone, so an ack that changed none of it leaves
    the stored values equal to what a publish would store.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import count, takewhile

import numpy as np

from .dissect import nearest_rank
from .terminal_sim import TerminalModelConfig, TerminalSim

MSS_BYTES = 1500
MSS_BITS = MSS_BYTES * 8
PACING_FLOOR_BPS = 100_000.0   # keeps PROBE_RTT cadence alive when collapsed
REORDER_THRESH = 3             # seq gap before a hole is declared lost
LOSS_DRAW_BLOCK = 1024         # random-loss draws per rng call
STARTUP_CUT_S = 5              # seconds excluded from mean-throughput summaries

DEFAULT_ALPHA_MS = 10_000.0
DEFAULT_BETA = 0.02


class ProfileExhausted(ValueError):
    """Simulation time ran past the end of the link profile."""


class EmptyGrid(ValueError):
    pass


@dataclass(frozen=True)
class CcParams:
    probe_rtt_win_ms: float = DEFAULT_ALPHA_MS   # alpha
    loss_thresh: float = DEFAULT_BETA            # beta

    def __post_init__(self):
        if self.probe_rtt_win_ms <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.loss_thresh < 0.5:
            raise ValueError("beta must be in (0, 0.5)")


class LinkProfile:
    """Piecewise-constant link rows; row i holds from ts[i] until ts[i+1]."""

    def __init__(self, ts_ms, owd_ms, capacity_bps, loss_prob,
                 buffer_bytes: int | None = None):
        self.ts_ms = np.asarray(ts_ms, dtype=float)
        self.owd_ms = np.asarray(owd_ms, dtype=float)
        self.capacity_bps = np.asarray(capacity_bps, dtype=float)
        self.loss_prob = np.asarray(loss_prob, dtype=float)
        n = len(self.ts_ms)
        if not (len(self.owd_ms) == len(self.capacity_bps) == len(self.loss_prob) == n):
            raise ValueError("profile column lengths differ")
        if n == 0:
            raise ValueError("empty profile")
        if np.any(np.diff(self.ts_ms) <= 0):
            raise ValueError("ts must be strictly increasing")
        if np.any(self.owd_ms <= 0):
            raise ValueError("owd must be positive")
        if np.any((self.loss_prob < 0) | (self.loss_prob > 0.1)):
            raise ValueError("loss_prob must be in [0, 0.1]")
        if np.any(self.capacity_bps <= 0):
            raise ValueError("capacity must be positive")
        if buffer_bytes is None:
            # 1 x BDP of the mean link
            bdp_bits = float(self.capacity_bps.mean()) * 2.0 * float(self.owd_ms.mean()) / 1000.0
            buffer_bytes = max(int(bdp_bits / 8), 8 * MSS_BYTES)
        self.buffer_bytes = int(buffer_bytes)
        # plain-float copies for at() and segment(); bisecting a list of
        # floats is cheaper than searching the numpy column
        self._ts = self.ts_ms.tolist()
        self._rows = list(zip(self.owd_ms.tolist(), self.capacity_bps.tolist(),
                              self.loss_prob.tolist()))
        self._end_ms = self._ts[-1] + 1000.0

    def __len__(self) -> int:
        return len(self.ts_ms)

    @property
    def duration_ms(self) -> float:
        return float(self.ts_ms[-1] - self.ts_ms[0])

    def at(self, t_ms: float) -> tuple[float, float, float]:
        """(owd_ms, capacity_bps, loss_prob) in effect at t."""
        if t_ms > self._end_ms:
            raise ProfileExhausted(f"t={t_ms:.0f} ms beyond profile end {self.ts_ms[-1]:.0f}")
        i = bisect_right(self._ts, t_ms) - 1
        return self._rows[i if i > 0 else 0]

    def segment(self, t_ms: float) -> tuple[float, float, tuple[float, float, float]]:
        """(lo, hi, row): `at(t)` is row for every t with lo <= t < hi.
        The first row reaches down to -inf (the clamp below ts[0]), and the
        last reaches up to and including the profile end."""
        if t_ms > self._end_ms:
            raise ProfileExhausted(f"t={t_ms:.0f} ms beyond profile end {self.ts_ms[-1]:.0f}")
        ts = self._ts
        i = bisect_right(ts, t_ms) - 1
        if i < 0:
            i = 0
        lo = ts[i] if i > 0 else -math.inf
        hi = ts[i + 1] if i + 1 < len(ts) else math.nextafter(self._end_ms, math.inf)
        return lo, hi, self._rows[i]

    @classmethod
    def constant(cls, owd_ms: float, capacity_bps: float, loss_prob: float,
                 duration_s: int, buffer_bytes: int | None = None) -> "LinkProfile":
        ts = np.arange(duration_s + 1) * 1000.0
        n = len(ts)
        return cls(ts, np.full(n, owd_ms), np.full(n, capacity_bps),
                   np.full(n, loss_prob), buffer_bytes)

    @classmethod
    def from_telemetry(cls, samples, capacity_base_bps: float = 16e6,
                       loss_floor: float = 0.0,
                       buffer_bytes: int | None = None) -> "LinkProfile":
        """Map terminal telemetry onto a link profile.

        One-way delay is half the reported PoP latency; capacity degrades in
        proportion to latency inflation over the quiet baseline (a handover
        spike squeezes the air interface); loss is the reported drop rate on
        a configurable floor. Timestamps are rebased to zero.
        """
        rows = [(s.ts_ms, s.pop_latency_ms, s.pop_drop_rate)
                for s in samples if s.pop_latency_ms is not None]
        if not rows:
            raise ValueError("no active samples")
        t0 = rows[0][0]
        lats = np.array([r[1] for r in rows])
        base = float(np.median(lats))
        ts = np.array([r[0] - t0 for r in rows], dtype=float)
        owd = lats / 2.0
        capacity = capacity_base_bps * np.clip(base / lats, 0.3, 1.0)
        loss = np.clip(np.array([r[2] for r in rows]) + loss_floor, 0.0, 0.1)
        return cls(ts, owd, capacity, loss, buffer_bytes)

    @classmethod
    def from_terminal(cls, config: TerminalModelConfig, duration_s: int,
                      capacity_base_bps: float, loss_floor: float = 0.0) -> "LinkProfile":
        """Profile of a seeded terminal model stepped at 1 Hz. Two warm-up
        seconds are added: counter deltas need a previous sample."""
        sim = TerminalSim(config)
        t0 = 1_700_000_000_000
        samples = [sim.step(t0 + i * 1000) for i in range(duration_s + 2)]
        return cls.from_telemetry(samples, capacity_base_bps=capacity_base_bps,
                                  loss_floor=loss_floor)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["ts_ms", "owd_ms", "capacity_bps", "loss_prob"])
        for i in range(len(self)):
            w.writerow([f"{self.ts_ms[i]:.0f}", f"{self.owd_ms[i]:.3f}",
                        f"{self.capacity_bps[i]:.0f}", f"{self.loss_prob[i]:.5f}"])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, buffer_bytes: int | None = None) -> "LinkProfile":
        ts, owd, cap, loss = [], [], [], []
        for row in csv.DictReader(io.StringIO(text)):
            ts.append(float(row["ts_ms"]))
            owd.append(float(row["owd_ms"]))
            cap.append(float(row["capacity_bps"]))
            loss.append(float(row["loss_prob"]))
        return cls(ts, owd, cap, loss, buffer_bytes)


# --- congestion controllers ----------------------------------------------

def _smoothed_rtt(srtt_ms: float, rtt_ms: float) -> float:
    """RFC 6298-style EWMA; a zero srtt means no sample yet."""
    return rtt_ms if srtt_ms == 0 else 0.875 * srtt_ms + 0.125 * rtt_ms


@dataclass(slots=True)
class AckInfo:
    now_ms: float
    rtt_ms: float
    bw_sample_bps: float       # delivery-rate sample
    round_trip_end: bool
    round_acked: int           # defined only when round_trip_end
    round_lost: int
    inflight_bytes: int


class BaseCc:
    """Interface the event loop drives. Implementations keep their own
    state machines and expose pacing rate, window limits and srtt.

    `cwnd_bytes` and `pacing_bps` hold `window_bytes()` and
    `pacing_rate_bps()` as of the last `__init__`, `on_ack` or `on_loss`
    that changed an input of those formulas; each such path ends with
    `_publish`."""

    srtt_ms: float      # smoothed RTT; 0 means no sample yet
    cwnd_bytes: float   # published window_bytes()
    pacing_bps: float   # published pacing_rate_bps()

    def _publish(self, now_ms: float) -> None:
        """Store the window and pacing rate the send path reads. Neither
        formula reads `now_ms`: both follow from controller state alone."""
        self.cwnd_bytes = self.window_bytes(now_ms)
        self.pacing_bps = self.pacing_rate_bps(now_ms)

    def on_ack(self, info: AckInfo) -> None:
        raise NotImplementedError

    def on_loss(self, now_ms: float, lost_bytes: int) -> None:
        raise NotImplementedError

    def pacing_rate_bps(self, now_ms: float) -> float:
        raise NotImplementedError

    def window_bytes(self, now_ms: float) -> float:
        raise NotImplementedError


class Bbr2Lite(BaseCc):
    STARTUP = "STARTUP"
    DRAIN = "DRAIN"
    PROBE_BW = "PROBE_BW"
    PROBE_RTT = "PROBE_RTT"

    STARTUP_GAIN = 2.885
    CYCLE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    CWND_GAIN = 2.0
    BW_FILTER_ROUNDS = 10
    PROBE_RTT_MIN_MS = 200.0
    INFLIGHT_HI_BETA = 0.85
    # loss rate is judged over pooled rounds; tiny rounds would otherwise
    # read one random drop as a 25% loss rate and keep probing gated
    MIN_LOSS_SAMPLES = 30

    def __init__(self, params: CcParams):
        self.params = params
        self.mode = self.STARTUP
        self.btl_bw = 0.0
        # (round, bw) with bw strictly decreasing front to back: the front is
        # the max over the last BW_FILTER_ROUNDS rounds
        self._bw_samples: deque[tuple[int, float]] = deque()
        self._round = 0
        self.min_rtt_ms = math.inf
        self.srtt_ms = 0.0
        self.full_bw = 0.0
        self.full_bw_rounds = 0
        self.cycle_idx = 0
        self.inflight_hi = math.inf
        self.probing_paused = False
        self._probe_rtt_due_ms: float | None = None
        self._probe_rtt_exit_ms = 0.0
        self._probe_rtt_min: float = math.inf
        self._mode_before_probe = self.PROBE_BW
        self._loss_acked = 0
        self._loss_lost = 0
        self.probe_rtt_entries: list[tuple[float, float]] = []  # (t, srtt)
        self._publish(0.0)

    def _update_bw(self, bw: float) -> None:
        """Exact windowed max (a monotonic deque, the idiom of Linux
        lib/win_minmax.c without its 3-sample approximation). An older
        sample no larger than a newer one can never be the max again."""
        samples = self._bw_samples
        while samples and samples[-1][1] <= bw:
            samples.pop()
        samples.append((self._round, bw))
        cutoff = self._round - self.BW_FILTER_ROUNDS
        while samples[0][0] <= cutoff:
            samples.popleft()
        self.btl_bw = samples[0][1]

    def _bdp_bytes(self) -> float:
        if self.btl_bw <= 0 or not math.isfinite(self.min_rtt_ms):
            return 10 * MSS_BYTES
        return self.btl_bw * self.min_rtt_ms / 1000.0 / 8.0

    def on_ack(self, info: AckInfo) -> None:
        # `changed` is set wherever an input of the two formulas (mode,
        # btl_bw, min_rtt_ms, inflight_hi, cycle_idx, probing_paused) may
        # have moved; an ack that moved none of them publishes nothing
        now = info.now_ms
        changed = info.rtt_ms < self.min_rtt_ms
        if changed:
            self.min_rtt_ms = info.rtt_ms
        self.srtt_ms = _smoothed_rtt(self.srtt_ms, info.rtt_ms)
        if info.bw_sample_bps > 0:
            btl_bw = self.btl_bw
            self._update_bw(info.bw_sample_bps)
            if self.btl_bw != btl_bw:
                changed = True
        if self._probe_rtt_due_ms is None:
            self._probe_rtt_due_ms = now + self.params.probe_rtt_win_ms

        if self.mode == self.PROBE_RTT:
            self._probe_rtt_min = min(self._probe_rtt_min, info.rtt_ms)
            if now >= self._probe_rtt_exit_ms:
                self.min_rtt_ms = self._probe_rtt_min
                self.mode = self._mode_before_probe
                if self.mode == self.PROBE_BW:
                    self.cycle_idx = 2  # resume cruising
                changed = True
        elif now >= self._probe_rtt_due_ms:
            self.probe_rtt_entries.append((now, self.srtt_ms))
            self._probe_rtt_due_ms = now + self.params.probe_rtt_win_ms
            self._mode_before_probe = self.mode if self.mode != self.DRAIN else self.PROBE_BW
            self.mode = self.PROBE_RTT
            self._probe_rtt_min = info.rtt_ms
            self._probe_rtt_exit_ms = now + max(self.PROBE_RTT_MIN_MS, self.srtt_ms)
            self._publish(now)
            return

        if info.round_trip_end:
            changed = True
            self._round += 1
            beta = self.params.loss_thresh
            self._loss_acked += info.round_acked
            self._loss_lost += info.round_lost
            lossy = None
            if self._loss_acked + self._loss_lost >= self.MIN_LOSS_SAMPLES:
                rate = self._loss_lost / (self._loss_acked + self._loss_lost)
                self._loss_acked = 0
                self._loss_lost = 0
                lossy = rate > beta
            if self.mode == self.STARTUP:
                if self.btl_bw >= self.full_bw * 1.25:
                    self.full_bw = self.btl_bw
                    self.full_bw_rounds = 0
                else:
                    self.full_bw_rounds += 1
                if self.full_bw_rounds >= 3 or lossy:
                    self.mode = self.DRAIN
            elif self.mode == self.PROBE_BW:
                self.cycle_idx = (self.cycle_idx + 1) % len(self.CYCLE_GAINS)
            if lossy is True:
                self.probing_paused = True
                self.inflight_hi = max(
                    self.INFLIGHT_HI_BETA * min(self.inflight_hi, 2.0 * self._bdp_bytes()),
                    4 * MSS_BYTES)
            elif lossy is False:
                self.probing_paused = False
            if (not self.probing_paused and self.mode == self.PROBE_BW
                    and self.CYCLE_GAINS[self.cycle_idx] > 1.0):
                self.inflight_hi = min(self.inflight_hi * 1.25, 1e12)

        if self.mode == self.DRAIN and info.inflight_bytes <= self._bdp_bytes():
            self.mode = self.PROBE_BW
            self.cycle_idx = 2
            changed = True
        if changed:
            self._publish(now)

    def on_loss(self, now_ms: float, lost_bytes: int) -> None:
        pass  # loss feeds back through per-round loss rate; nothing to publish

    def _pacing_gain(self) -> float:
        if self.mode == self.STARTUP:
            return self.STARTUP_GAIN
        if self.mode == self.DRAIN:
            return 1.0 / self.STARTUP_GAIN
        if self.mode == self.PROBE_RTT:
            return 1.0
        gain = self.CYCLE_GAINS[self.cycle_idx]
        if self.probing_paused and gain > 1.0:
            return 1.0
        return gain

    def pacing_rate_bps(self, now_ms: float) -> float:
        if self.btl_bw <= 0:
            return 1e6  # until the first delivery-rate sample lands
        rate = self._pacing_gain() * self.btl_bw
        return PACING_FLOOR_BPS if PACING_FLOOR_BPS > rate else rate

    def window_bytes(self, now_ms: float) -> float:
        if self.mode == self.PROBE_RTT:
            return 4 * MSS_BYTES
        gain = self.STARTUP_GAIN if self.mode in (self.STARTUP, self.DRAIN) else self.CWND_GAIN
        cwnd = gain * self._bdp_bytes()
        if 4 * MSS_BYTES > cwnd:
            cwnd = 4 * MSS_BYTES
        if self.mode == self.PROBE_BW and self.inflight_hi < cwnd:
            cwnd = self.inflight_hi
        return cwnd


class CubicLite(BaseCc):
    C = 0.4          # segments / s^3
    BETA_CUBIC = 0.7

    def __init__(self, params: CcParams | None = None):
        self.cwnd_seg = 10.0
        self.ssthresh_seg = math.inf
        self.w_max = 0.0
        self.k_s = 0.0
        self.epoch_start_ms: float | None = None
        self.srtt_ms = 100.0
        self._last_cut_ms = -1e12
        self._publish(0.0)

    def on_ack(self, info: AckInfo) -> None:
        self.srtt_ms = _smoothed_rtt(self.srtt_ms, info.rtt_ms)
        if self.cwnd_seg < self.ssthresh_seg:
            self.cwnd_seg += 1.0
            self._publish(info.now_ms)
            return
        if self.epoch_start_ms is None:
            self.epoch_start_ms = info.now_ms
            self.w_max = self.cwnd_seg
            self.k_s = 0.0
        t = (info.now_ms - self.epoch_start_ms) / 1000.0
        target = self.C * (t - self.k_s) ** 3 + self.w_max
        if target > self.cwnd_seg:
            self.cwnd_seg += (target - self.cwnd_seg) / self.cwnd_seg
        else:
            self.cwnd_seg += 0.01 / self.cwnd_seg
        self._publish(info.now_ms)

    def on_loss(self, now_ms: float, lost_bytes: int) -> None:
        if now_ms - self._last_cut_ms < self.srtt_ms:
            return  # one multiplicative cut per round trip
        self._last_cut_ms = now_ms
        self.w_max = self.cwnd_seg
        self.cwnd_seg = max(self.cwnd_seg * self.BETA_CUBIC, 2.0)
        self.ssthresh_seg = self.cwnd_seg
        self.k_s = (self.w_max * (1 - self.BETA_CUBIC) / self.C) ** (1.0 / 3.0)
        self.epoch_start_ms = now_ms
        self._publish(now_ms)

    def pacing_rate_bps(self, now_ms: float) -> float:
        rate = 1.2 * self.cwnd_seg * MSS_BITS / (self.srtt_ms / 1000.0)
        return PACING_FLOOR_BPS if PACING_FLOOR_BPS > rate else rate

    def window_bytes(self, now_ms: float) -> float:
        return self.cwnd_seg * MSS_BYTES


class RenoLite(CubicLite):
    def on_ack(self, info: AckInfo) -> None:
        self.srtt_ms = _smoothed_rtt(self.srtt_ms, info.rtt_ms)
        if self.cwnd_seg < self.ssthresh_seg:
            self.cwnd_seg += 1.0
        else:
            self.cwnd_seg += 1.0 / self.cwnd_seg
        self._publish(info.now_ms)

    def on_loss(self, now_ms: float, lost_bytes: int) -> None:
        if now_ms - self._last_cut_ms < self.srtt_ms:
            return
        self._last_cut_ms = now_ms
        self.cwnd_seg = max(self.cwnd_seg * 0.5, 2.0)
        self.ssthresh_seg = self.cwnd_seg
        self._publish(now_ms)


CC_KINDS = {"bbr2": Bbr2Lite, "cubic": CubicLite, "reno": RenoLite}


def make_cc(kind: str, params: CcParams | None = None) -> BaseCc:
    if kind not in CC_KINDS:
        raise ValueError(f"unknown congestion control {kind!r}; choose from {sorted(CC_KINDS)}")
    return CC_KINDS[kind](params or CcParams())


# --- flow statistics -----------------------------------------------------

@dataclass(frozen=True)
class SecondRow:
    t_s: int
    goodput_bps: float
    srtt_ms: float
    loss_events: int


@dataclass
class FlowStats:
    flow_id: int
    cc_kind: str
    per_second: list[SecondRow]
    probe_rtt_entries: list[tuple[float, float]]
    injected_packets: int
    delivered_packets: int
    dropped_packets: int
    inflight_at_end: int

    def mean_tput_bps(self) -> float:
        rows = [r.goodput_bps for r in self.per_second if r.t_s >= STARTUP_CUT_S]
        return float(np.mean(rows)) if rows else 0.0

    def p95_rtt_ms(self) -> float:
        rows = [r.srtt_ms for r in self.per_second if r.t_s >= STARTUP_CUT_S and r.srtt_ms > 0]
        if not rows:
            return 0.0
        return nearest_rank(np.sort(np.array(rows)), 95)

    @property
    def loss_rate(self) -> float:
        total = self.delivered_packets + self.dropped_packets
        return self.dropped_packets / total if total else 0.0


# --- event-loop simulator ------------------------------------------------

class _FlowState:
    def __init__(self, flow_id: int, cc: BaseCc, kind: str):
        self.id = flow_id
        self.cc = cc
        self.kind = kind
        self.next_seq = 0
        # seq -> (sent_ms, delivered_at_send, delivered_time_ms), in send order
        self.inflight: dict[int, tuple[float, int, float]] = {}
        self.inflight_bytes = 0
        self.delivered_bytes = 0
        self.delivered_time_ms = 0.0
        self.next_send_ms = 0.0
        self.send_scheduled = False
        self.last_progress_ms = 0.0
        self.round_start_delivered = 0
        self.round_acked = 0
        self.round_lost = 0
        self.injected = 0
        self.delivered_pkts = 0
        self.dropped_pkts = 0
        # per-packet records are plain floats, not tuples: the garbage
        # collector does not track floats, so keeping them costs no collections
        self.deliveries: list[float] = []   # egress t of each MSS_BYTES packet
        self.rtt_times: list[float] = []    # ack t of each RTT sample
        self.rtts: list[float] = []
        self.loss_marks: list[float] = []
        self.marked_lost: set[int] = set()


def _loss_draws(seed: int):
    """The doubles of successive scalar `rng.random()` calls, drawn a block
    at a time: PCG64's `random(n)` gives exactly the doubles of n scalar
    calls, and a draw left over when the run ends changes no output."""
    rng = np.random.default_rng(seed)
    while True:
        yield from rng.random(LOSS_DRAW_BLOCK).tolist()


def run_flows(flow_specs: list[tuple[str, CcParams | None]],
              profile: LinkProfile,
              duration_s: int,
              seed: int = 0) -> list[FlowStats]:
    """Simulate all flows sharing the profile's bottleneck for duration_s."""
    duration_ms = duration_s * 1000.0
    if profile.ts_ms[-1] + 1000.0 < duration_ms:
        raise ProfileExhausted(
            f"profile covers {profile.ts_ms[-1] / 1000.0:.0f} s < {duration_s} s")
    flows = [_FlowState(i, make_cc(kind, params), kind)
             for i, (kind, params) in enumerate(flow_specs)]

    # the hot loop reads these once per event; it and the controllers'
    # per-ack paths compare floats instead of calling max() and min(),
    # which cost several times as much per call
    heappush, heappop, heappushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
    segment = profile.segment
    draw = _loss_draws(seed).__next__
    buffer_bytes = profile.buffer_bytes

    heap: list[tuple[float, int, str, int, int]] = []
    counter = count()   # tie-break: equal times pop in push order
    # the event an iteration schedules last is held back and handed to the
    # next pop through heappushpop, which pops what a push then a pop would:
    # keys (t, counter) never tie
    held = None
    # the profile row in effect for seg_lo <= t < seg_hi; empty until the
    # first send looks one up
    seg_lo = seg_hi = 0.0
    row = (0.0, 0.0, 0.0)

    busy_until = 0.0

    def mark_lost(f: _FlowState, seq: int, now: float):
        if f.inflight.pop(seq, None) is None:
            return
        f.inflight_bytes -= MSS_BYTES
        f.marked_lost.add(seq)
        f.round_lost += 1
        f.loss_marks.append(now)
        f.cc.on_loss(now, MSS_BYTES)

    for f in flows:
        heappush(heap, (0.0, next(counter), "send", f.id, -1))
        f.send_scheduled = True
        heappush(heap, (250.0, next(counter), "tick", f.id, -1))

    # every branch below that queues f's next send first checks that f has
    # no send queued and that its window has room for one more packet
    while heap or held:
        if held is None:
            now, _, kind, flow_id, seq = heappop(heap)
        else:
            now, _, kind, flow_id, seq = heappushpop(heap, held)
            held = None
        if now >= duration_ms:
            break
        f = flows[flow_id]

        if kind == "send":
            f.send_scheduled = False
            cc = f.cc
            if f.inflight_bytes + MSS_BYTES > cc.cwnd_bytes:
                continue
            if not seg_lo <= now < seg_hi:
                seg_lo, seg_hi, row = segment(now)
            owd, cap, loss_p = row
            # droptail check against the shared queue
            busy = busy_until > now
            queue_bytes = (busy_until - now) / 1000.0 * cap / 8.0 if busy else 0.0
            seq_no = f.next_seq
            f.next_seq += 1
            f.injected += 1
            f.inflight[seq_no] = (now, f.delivered_bytes, f.delivered_time_ms or now)
            f.inflight_bytes += MSS_BYTES
            if queue_bytes + MSS_BYTES > buffer_bytes:
                f.dropped_pkts += 1
                f.inflight.pop(seq_no)
                f.inflight_bytes -= MSS_BYTES
                f.marked_lost.add(seq_no)
                f.round_lost += 1
                f.loss_marks.append(now)
                cc.on_loss(now, MSS_BYTES)
            else:
                # serialize at the service-time rate: a busy queue starts
                # service later, an idle one now, whose row is in hand
                if busy:
                    start = busy_until
                    if not seg_lo <= start < seg_hi:
                        seg_lo, seg_hi, row = segment(start)
                    cap = row[1]
                else:
                    start = now
                deq_t = start + MSS_BITS / cap * 1000.0
                busy_until = deq_t
                if draw() < loss_p:
                    # random loss at dequeue: capacity consumed, packet gone;
                    # the sender finds the hole via the gap rule or RTO tick
                    f.dropped_pkts += 1
                else:
                    f.deliveries.append(deq_t)
                    held = (deq_t + 2.0 * owd, next(counter), "ack", flow_id, seq_no)
            t = f.next_send_ms
            t = f.next_send_ms = (t if t > now else now) + MSS_BITS / cc.pacing_bps * 1000.0
            if f.inflight_bytes + MSS_BYTES <= cc.cwnd_bytes:
                if held is not None:
                    heappush(heap, held)
                f.send_scheduled = True
                held = (t if t > now else now, next(counter), "send", flow_id, -1)

        elif kind == "ack":
            inflight = f.inflight
            pkt = inflight.pop(seq, None)
            if pkt is None:
                # the gap rule or the RTO tick took it out of flight first
                if seq in f.marked_lost:
                    # gap rule fired early (delay reordering); take the credit back
                    f.marked_lost.discard(seq)
                    f.round_lost = max(0, f.round_lost - 1)
                    f.delivered_pkts += 1
                continue
            sent_ms, delivered_at_send, delivered_time_ms = pkt
            f.inflight_bytes -= MSS_BYTES
            f.delivered_pkts += 1
            f.delivered_bytes += MSS_BYTES
            f.delivered_time_ms = now
            f.last_progress_ms = now
            rtt = now - sent_ms
            f.rtt_times.append(now)
            f.rtts.append(rtt)
            dt = now - delivered_time_ms
            bw_sample = ((f.delivered_bytes - delivered_at_send) * 8.0
                         / (dt / 1000.0)) if dt > 0 else 0.0
            round_end = delivered_at_send >= f.round_start_delivered
            f.round_acked += 1
            round_acked = round_lost = 0
            if round_end:
                round_acked, round_lost = f.round_acked, f.round_lost
                f.round_start_delivered = f.delivered_bytes
                f.round_acked = 0
                f.round_lost = 0
            # sequence-gap loss detection ahead of this ack: in-flight keys
            # run in increasing seq, so the stale ones (s < limit) are a prefix
            limit = seq - REORDER_THRESH
            if inflight and next(iter(inflight)) < limit:
                for s in list(takewhile(limit.__gt__, inflight)):
                    mark_lost(f, s, now)
            cc = f.cc
            cc.on_ack(AckInfo(now, rtt, bw_sample, round_end, round_acked,
                              round_lost, f.inflight_bytes))
            if not f.send_scheduled and f.inflight_bytes + MSS_BYTES <= cc.cwnd_bytes:
                t = f.next_send_ms
                f.send_scheduled = True
                held = (t if t > now else now, next(counter), "send", flow_id, -1)

        elif kind == "tick":
            cc = f.cc
            srtt = cc.srtt_ms or 100.0
            rto = max(4.0 * srtt, 1000.0)
            if f.inflight:
                # the first in-flight entry is the lowest seq and the oldest send
                oldest, (oldest_sent_ms, _, _) = next(iter(f.inflight.items()))
                if now - max(f.last_progress_ms, oldest_sent_ms) > rto:
                    mark_lost(f, oldest, now)
                    f.last_progress_ms = now
            if not f.send_scheduled and f.inflight_bytes + MSS_BYTES <= cc.cwnd_bytes:
                t = f.next_send_ms
                f.send_scheduled = True
                heappush(heap, (t if t > now else now, next(counter), "send", flow_id, -1))
            held = (now + 250.0, next(counter), "tick", flow_id, -1)

    return [_finalize(f, duration_s) for f in flows]


def _finalize(f: _FlowState, duration_s: int) -> FlowStats:
    edges = np.arange(duration_s + 1) * 1000.0
    if f.deliveries:
        times = np.array(f.deliveries)
        bits = np.full(len(times), float(MSS_BITS))
        goodput, _ = np.histogram(times, bins=edges, weights=bits)
    else:
        goodput = np.zeros(duration_s)
    srtt_series = np.zeros(duration_s)
    if f.rtts:
        times = np.array(f.rtt_times)
        rtts = np.array(f.rtts)
        idx = np.clip((times // 1000).astype(int), 0, duration_s - 1)
        # samples are appended in event order, so idx never decreases and
        # each second's samples are one slice, summed in the same order
        bounds = np.searchsorted(idx, np.arange(duration_s + 1))
        last = 0.0
        for s in range(duration_s):
            lo, hi = bounds[s], bounds[s + 1]
            if hi > lo:
                last = float(rtts[lo:hi].mean())
            srtt_series[s] = last
    loss_counts = np.zeros(duration_s, dtype=int)
    for t in f.loss_marks:
        s = min(int(t // 1000), duration_s - 1)
        loss_counts[s] += 1
    rows = [SecondRow(s, float(goodput[s]), float(srtt_series[s]), int(loss_counts[s]))
            for s in range(duration_s)]
    probe_log = list(getattr(f.cc, "probe_rtt_entries", []))
    # pending = egressed the bottleneck but the ack was still in flight
    pending = len(f.deliveries) - f.delivered_pkts
    return FlowStats(
        flow_id=f.id, cc_kind=f.kind, per_second=rows,
        probe_rtt_entries=probe_log,
        injected_packets=f.injected,
        delivered_packets=f.delivered_pkts,
        dropped_packets=f.dropped_pkts,
        inflight_at_end=pending,
    )


def run_flow(cc_kind: str, params: CcParams | None, profile: LinkProfile,
             duration_s: int, seed: int = 0) -> FlowStats:
    return run_flows([(cc_kind, params)], profile, duration_s, seed)[0]


# --- sweep harness -------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    alpha_ms: float
    beta: float
    tput_improvement_pct: float
    p95_rtt_inflation_pct: float


@dataclass(frozen=True)
class SweepResult:
    cells: list[SweepCell]
    best: SweepCell | None   # max tput improvement with RTT inflation < 10%

    def cell(self, alpha_ms: float, beta: float) -> SweepCell:
        for c in self.cells:
            if c.alpha_ms == alpha_ms and c.beta == beta:
                return c
        raise KeyError((alpha_ms, beta))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["alpha_ms", "beta_pct", "tput_improvement_pct",
                    "p95_rtt_inflation_pct"])
        for c in self.cells:
            w.writerow([f"{c.alpha_ms:g}", f"{c.beta * 100:g}",
                        f"{c.tput_improvement_pct:.3f}",
                        f"{c.p95_rtt_inflation_pct:.3f}"])
        return buf.getvalue()


def _sweep_task(task):
    cc_kind, alpha, beta, profile, duration_s, seed = task
    stats = run_flow(cc_kind, CcParams(alpha, beta), profile, duration_s, seed)
    return stats.mean_tput_bps(), stats.p95_rtt_ms()


def sweep(alpha_grid, beta_grid, profiles, duration_s: int, seeds,
          cc_kind: str = "bbr2",
          rtt_inflation_limit_pct: float = 10.0,
          workers: int = 1) -> SweepResult:
    """Grid the (alpha, beta) space against the (10000 ms, 2%) default.

    Improvement/inflation are computed per (profile, seed) run against the
    default's run on the same profile and seed, then averaged. Runs share
    no state, so workers > 1 farms them out to a process pool.
    """
    alphas = list(alpha_grid)
    betas = list(beta_grid)
    profiles = list(profiles)
    seeds = list(seeds)
    if not alphas or not betas or not profiles or not seeds:
        raise EmptyGrid("alpha/beta grids, profiles, and seeds must be non-empty")

    pairs = [(pi, seed) for pi in range(len(profiles)) for seed in seeds]
    tasks = [(cc_kind, DEFAULT_ALPHA_MS, DEFAULT_BETA, profiles[pi], duration_s, seed)
             for pi, seed in pairs]
    grid = [(a, b) for a in alphas for b in betas
            if (a, b) != (DEFAULT_ALPHA_MS, DEFAULT_BETA)]
    for a, b in grid:
        CcParams(a, b)  # validate the whole grid up front
        tasks.extend((cc_kind, a, b, profiles[pi], duration_s, seed)
                     for pi, seed in pairs)

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, tasks, chunksize=1))
    else:
        results = [_sweep_task(t) for t in tasks]

    n_pairs = len(pairs)
    base_runs = dict(zip(pairs, results[:n_pairs]))
    cells = []
    offset = n_pairs
    for alpha in alphas:
        for beta in betas:
            if (alpha, beta) == (DEFAULT_ALPHA_MS, DEFAULT_BETA):
                cells.append(SweepCell(float(alpha), float(beta), 0.0, 0.0))
                continue
            imps, infls = [], []
            for j, key in enumerate(pairs):
                tput, rtt = results[offset + j]
                base_tput, base_rtt = base_runs[key]
                imps.append((tput - base_tput) / base_tput * 100.0
                            if base_tput > 0 else 0.0)
                infls.append((rtt - base_rtt) / base_rtt * 100.0
                             if base_rtt > 0 else 0.0)
            offset += n_pairs
            cells.append(SweepCell(float(alpha), float(beta),
                                   float(np.mean(imps)), float(np.mean(infls))))

    eligible = [c for c in cells
                if c.p95_rtt_inflation_pct < rtt_inflation_limit_pct
                and not (c.alpha_ms == DEFAULT_ALPHA_MS and c.beta == DEFAULT_BETA)]
    best = max(eligible, key=lambda c: c.tput_improvement_pct, default=None)
    return SweepResult(cells, best)


# --- fairness ------------------------------------------------------------

@dataclass(frozen=True)
class FairnessResult:
    ratios: np.ndarray   # per-second sum(cubic)/sum(bbr), pooled over seeds
    median_ratio: float


def fairness(n_cubic: int, n_bbr: int, params: CcParams, profile: LinkProfile,
             duration_s: int, seeds,
             kind_a: str = "cubic", kind_b: str = "bbr2") -> FairnessResult:
    """Aggregate-throughput ratio of side A flows (Cubic by default) over
    side B flows (BBRv2-lite) sharing one bottleneck, at 1 s granularity.
    Seconds where side B moved nothing are left out of the ratio CDF."""
    if n_cubic < 1 or n_bbr < 1:
        raise ValueError("need at least one flow on each side")
    ratios = []
    for seed in seeds:
        specs = ([(kind_a, None if kind_a != "bbr2" else params)] * n_cubic
                 + [(kind_b, params)] * n_bbr)
        stats = run_flows(specs, profile, duration_s, seed)
        side_a = np.sum([[r.goodput_bps for r in s.per_second]
                         for s in stats[:n_cubic]], axis=0)
        side_b = np.sum([[r.goodput_bps for r in s.per_second]
                         for s in stats[n_cubic:]], axis=0)
        for s_idx in range(STARTUP_CUT_S, duration_s):
            if side_b[s_idx] > 0:
                ratios.append(side_a[s_idx] / side_b[s_idx])
    arr = np.array(ratios)
    median = float(np.median(arr)) if len(arr) else math.nan
    return FairnessResult(arr, median)


def spiky_lossy_profile(duration_s: int, capacity_bps: float = 8e6,
                        loss: float = 0.03, seed: int = 0) -> LinkProfile:
    """Synthetic challenge profile: latency spikes in 15 s quanta with
    capacity dips, plus a constant non-congestive loss floor (2-5% is the
    regime of interest)."""
    cfg = TerminalModelConfig(rng_seed=seed, p_bad_handover=0.08)
    return LinkProfile.from_terminal(cfg, duration_s, capacity_bps, loss_floor=loss)

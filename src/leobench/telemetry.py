"""Client-side telemetry ingestion.

Keeps a bounded ring of terminal samples, computes moving statistics for the
trigger engine, estimates the stream's staleness lag against a ground-truth
series, and turns cumulative byte counters into rates for the user-traffic
detector that drives scavenger preemption.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .terminal_sim import TelemetrySample

log = logging.getLogger(__name__)

DEFAULT_CHANGE_THRESHOLD_BPS = 2e6
DEFAULT_HOLD_S = 2


class InsufficientHistory(RuntimeError):
    """Not enough buffered samples for the requested statistic."""


class SeriesTooShort(ValueError):
    """Time-shift estimation needs at least a minute of overlap."""


# metric name -> accessor over a TelemetrySample; None means the sample
# carries no value for it (outage)
METRIC_GETTERS = {
    "latency_ms": lambda s: s.pop_latency_ms,
    "loss_rate": lambda s: s.pop_drop_rate,
    "az_deg": lambda s: s.az_deg,
    "el_deg": lambda s: s.el_deg,
}


class TelemetryWindow:
    """Ordered ring buffer of the last `capacity` samples."""

    def __init__(self, capacity: int = 600):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buf: deque[TelemetrySample] = deque(maxlen=capacity)

    def push(self, sample: TelemetrySample) -> None:
        if self._buf and sample.ts_ms <= self._buf[-1].ts_ms:
            raise ValueError(f"out-of-order sample: {sample.ts_ms} after {self._buf[-1].ts_ms}")
        self._buf.append(sample)

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def latest(self) -> TelemetrySample | None:
        return self._buf[-1] if self._buf else None

    def samples(self) -> list[TelemetrySample]:
        return list(self._buf)

    def last_values(self, metric: str, n: int) -> list[float]:
        """Values of `metric` over the last n samples, outage gaps dropped."""
        if metric not in METRIC_GETTERS:
            raise KeyError(f"unknown metric: {metric}")
        if len(self._buf) < n:
            raise InsufficientHistory(f"need {n} samples, have {len(self._buf)}")
        getter = METRIC_GETTERS[metric]
        window = list(self._buf)[-n:]
        values = [getter(s) for s in window]
        present = [v for v in values if v is not None]
        if not present:
            raise InsufficientHistory(f"no {metric} values in the last {n} samples")
        return present

    def moving_avg(self, metric: str, n_windows: int) -> float:
        """Arithmetic mean of the metric over the last n 1 s windows."""
        if n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        return float(np.mean(self.last_values(metric, n_windows)))

    def prior_moving_avg(self, metric: str, n_windows: int) -> float:
        """Mean over the n windows before the newest sample.

        Trigger expressions compare the current value against history, so
        the newest sample must not dilute its own reference average.
        """
        if n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if metric not in METRIC_GETTERS:
            raise KeyError(f"unknown metric: {metric}")
        if len(self._buf) < n_windows + 1:
            raise InsufficientHistory(
                f"need {n_windows + 1} samples for prior average, have {len(self._buf)}")
        getter = METRIC_GETTERS[metric]
        window = list(self._buf)[-(n_windows + 1):-1]
        present = [v for v in (getter(s) for s in window) if v is not None]
        if not present:
            raise InsufficientHistory(f"no {metric} values in the prior {n_windows} windows")
        return float(np.mean(present))

    def current(self, metric: str) -> float | None:
        if metric not in METRIC_GETTERS:
            raise KeyError(f"unknown metric: {metric}")
        if not self._buf:
            raise InsufficientHistory("empty window")
        return METRIC_GETTERS[metric](self._buf[-1])


@dataclass(frozen=True)
class ShiftEstimate:
    shift_s: int
    mae_by_shift: tuple[float, ...]
    confident: bool


def estimate_time_shift(terminal_series, ground_truth_series,
                        max_shift_s: int = 10) -> ShiftEstimate:
    """Lag of the terminal series behind ground truth, in whole seconds.

    Scans shifts 0..max_shift_s and picks the minimum mean absolute error.
    `confident` is False when the best shift improves on the median MAE by
    less than 5% (unrelated series have a flat curve). Needs 60 samples.
    """
    a = np.asarray(terminal_series, dtype=float)
    b = np.asarray(ground_truth_series, dtype=float)
    n = min(len(a), len(b))
    if n < 60:
        raise SeriesTooShort(f"need >= 60 samples, have {n}")
    if max_shift_s < 0 or max_shift_s > n - 10:
        raise ValueError(f"max_shift_s out of range for series of {n}")
    a, b = a[:n], b[:n]
    maes = []
    for s in range(max_shift_s + 1):
        # shift s: terminal[t] echoes truth[t - s]
        maes.append(float(np.mean(np.abs(a[s:n] - b[:n - s]))))
    maes_arr = np.array(maes)
    best = int(np.argmin(maes_arr))
    ref = float(np.median(maes_arr))
    confident = ref > 0 and (ref - maes_arr[best]) / ref >= 0.05
    if ref == 0.0:
        confident = True  # identical series: zero error everywhere, shift 0
    return ShiftEstimate(best, tuple(maes), confident)


@dataclass(frozen=True)
class ConsumptionDelta:
    ts_ms: int
    terminal_rate_bps: float
    experiment_rate_bps: float
    diff_bps: float
    diff_change_bps: float


class ConsumptionTracker:
    """Differences cumulative terminal counters into rates and pairs them
    with the experiment's own offered rate."""

    def __init__(self):
        self._prev: tuple[int, int, int] | None = None  # ts, down, up
        self._prev_diff: float | None = None

    def push(self, sample: TelemetrySample, experiment_rate_bps: float) -> ConsumptionDelta | None:
        ts, down, up = sample.ts_ms, sample.bytes_down, sample.bytes_up
        if self._prev is None:
            self._prev = (ts, down, up)
            return None
        pts, pdown, pup = self._prev
        dt_s = (ts - pts) / 1000.0
        d_down, d_up = down - pdown, up - pup
        if d_down < 0 or d_up < 0:
            # counter reset; resync and drop this interval
            log.warning("counter went backwards at %d (down %d, up %d); dropping sample",
                        ts, d_down, d_up)
            self._prev = (ts, down, up)
            return None
        self._prev = (ts, down, up)
        terminal_rate = (d_down + d_up) * 8.0 / dt_s
        diff = terminal_rate - experiment_rate_bps
        change = 0.0 if self._prev_diff is None else diff - self._prev_diff
        self._prev_diff = diff
        return ConsumptionDelta(ts, terminal_rate, float(experiment_rate_bps), diff, change)


@dataclass(frozen=True)
class TrafficEvent:
    ts_ms: int
    active: bool


class UserTrafficDetector:
    """Flags sustained departure of (terminal rate - experiment rate) from
    its quiet baseline.

    A constant gap such as header overhead sits in the baseline and never
    fires; only a change that persists for hold_s consecutive seconds
    asserts USER_TRAFFIC, and the deassert path is symmetric. The baseline
    tracks drift with a 0.05-weight EMA while quiet and freezes during activity.
    """

    def __init__(self,
                 change_threshold_bps: float = DEFAULT_CHANGE_THRESHOLD_BPS,
                 hold_s: int = DEFAULT_HOLD_S):
        if change_threshold_bps <= 0:
            raise ValueError("threshold must be positive")
        if hold_s < 1:
            raise ValueError("hold_s must be >= 1")
        self.change_threshold_bps = change_threshold_bps
        self.hold_s = hold_s
        self._baseline: float | None = None
        self._streak = 0
        self.active = False

    def update(self, delta: ConsumptionDelta) -> TrafficEvent | None:
        diff = delta.diff_bps
        if self._baseline is None:
            self._baseline = diff
            return None
        deviating = abs(diff - self._baseline) > self.change_threshold_bps
        if not self.active:
            if deviating:
                self._streak += 1
                if self._streak >= self.hold_s:
                    self.active = True
                    self._streak = 0
                    return TrafficEvent(delta.ts_ms, True)
            else:
                self._streak = 0
                self._baseline += 0.05 * (diff - self._baseline)
        else:
            if not deviating:
                self._streak += 1
                if self._streak >= self.hold_s:
                    self.active = False
                    self._streak = 0
                    return TrafficEvent(delta.ts_ms, False)
            else:
                self._streak = 0
        return None

"""Trace-driven adaptive-bitrate evaluation.

Plays a fixed-length video over a 1 s throughput trace with a
receding-horizon (MPC) bitrate controller and scores sessions with a
linear QoE: bitrate utility in Mbps, minus 4.3 per rebuffered second,
minus the absolute utility change between adjacent chunks.

Three predictor variants feed the controller:

  * harmonic: harmonic mean of the last five measured chunk throughputs;
  * model: a `predict` model over the same five throughput lags;
  * oracle: the true future harmonic-mean capacity for the horizon.

All variants apply the robust correction pred/(1 + max recent relative
error), so a predictor that reproduces the oracle's estimates makes
identical decisions. mpc_decide scores every quality sequence of horizon
length, growing the sequences one chunk at a time from shared prefixes:
each step's download time and rebuffering depend only on the prefix and
the new quality, so a prefix's work is done once for all its extensions.
Every sequence's total still takes the plain loop's float operations in
its order, and the prefixes stay in lexicographic order, so the first
maximum is bit for bit the brute-force answer.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .predict import Dataset, Model, fit

REBUFFER_PENALTY_PER_S = 4.3
DEFAULT_LADDER_KBPS = (300, 450, 675, 1013, 1519, 2278)
MPC_HORIZON = 5
PREDICTOR_LAGS = 5


class TraceTooShort(ValueError):
    """The throughput trace ended before the session finished."""


@dataclass(frozen=True)
class VideoSpec:
    duration_s: int = 180
    chunk_s: int = 4
    ladder_kbps: tuple[float, ...] = DEFAULT_LADDER_KBPS

    def __post_init__(self):
        if self.duration_s % self.chunk_s != 0:
            raise ValueError("duration must be a whole number of chunks")
        if len(self.ladder_kbps) < 2:
            raise ValueError("need at least two qualities")
        for lo, hi in zip(self.ladder_kbps, self.ladder_kbps[1:]):
            if hi <= lo:
                raise ValueError("ladder must be strictly increasing")
            if not 1.4 <= hi / lo <= 1.6:
                raise ValueError(f"adjacent ladder ratio {hi / lo:.2f} outside [1.4, 1.6]")

    @property
    def n_qualities(self) -> int:
        return len(self.ladder_kbps)

    @property
    def n_chunks(self) -> int:
        return self.duration_s // self.chunk_s

    def chunk_bits(self, quality: int) -> float:
        return self.ladder_kbps[quality] * 1000.0 * self.chunk_s

    def utility(self, quality: int) -> float:
        return self.ladder_kbps[quality] / 1000.0   # Mbps

    def scaled(self, multiplier: float) -> "VideoSpec":
        """Same shape, ladder scaled to match a trace's capacity regime."""
        return VideoSpec(self.duration_s, self.chunk_s,
                         tuple(b * multiplier for b in self.ladder_kbps))


@dataclass(frozen=True)
class QoeRecord:
    sum_bitrate_utility: float
    rebuffer_s: float
    smoothness_penalty: float

    def __post_init__(self):
        if self.rebuffer_s < 0:
            raise ValueError("negative rebuffer")
        if not np.isfinite(self.qoe):
            raise ValueError("non-finite QoE")

    @property
    def qoe(self) -> float:
        return (self.sum_bitrate_utility
                - REBUFFER_PENALTY_PER_S * self.rebuffer_s
                - self.smoothness_penalty)


@dataclass(frozen=True)
class ChunkRecord:
    chunk_idx: int
    quality: int
    download_ms: float
    rebuffer_ms: float
    buffer_s: float


def chunk_log_csv(records: list[ChunkRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["chunk_idx", "quality", "download_ms", "rebuffer_ms", "buffer_s"])
    for r in records:
        w.writerow([r.chunk_idx, r.quality, f"{r.download_ms:.1f}",
                    f"{r.rebuffer_ms:.1f}", f"{r.buffer_s:.3f}"])
    return buf.getvalue()


class TputTrace:
    """Per-second throughput samples, kbps, timestamps 0, 1000, 2000, ..."""

    def __init__(self, tput_kbps):
        self.tput_kbps = np.asarray(tput_kbps, dtype=float)
        if len(self.tput_kbps) == 0:
            raise ValueError("empty trace")
        if np.any(self.tput_kbps < 0):
            raise ValueError("negative throughput")

    def __len__(self) -> int:
        return len(self.tput_kbps)

    def download_time_s(self, start_s: float, bits: float) -> float:
        """Seconds to pull `bits` starting at start_s, integrating the trace."""
        tput = self.tput_kbps
        i = int(start_s)
        if i >= len(tput):
            raise TraceTooShort(f"download starts at {start_s:.1f} s, trace has {len(tput)} s")
        remain = bits
        elapsed = 0.0
        frac = start_s - i
        while i < len(tput):
            span = 1.0 - frac
            cap_bits = tput[i] * 1000.0 * span
            if cap_bits > 0 and remain <= cap_bits:
                return elapsed + remain / (tput[i] * 1000.0)
            remain -= cap_bits
            elapsed += span
            frac = 0.0
            i += 1
        raise TraceTooShort(f"trace exhausted with {remain:.0f} bits left")

    def future_harmonic_kbps(self, start_s: float, horizon_s: float) -> float:
        """Harmonic-mean capacity over [start_s, start_s + horizon_s)."""
        i = int(start_s)
        j = min(int(np.ceil(start_s + horizon_s)), len(self.tput_kbps))
        window = self.tput_kbps[i:j]
        if len(window) == 0:
            window = self.tput_kbps[-1:]
        safe = np.maximum(window, 1e-6)
        return float(len(safe) / np.sum(1.0 / safe))

    def add_kbps(self, delta: float) -> "TputTrace":
        return TputTrace(self.tput_kbps + delta)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["ts_ms", "tput_kbps"])
        for i, v in enumerate(self.tput_kbps):
            w.writerow([i * 1000, f"{v:.3f}"])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "TputTrace":
        rows = list(csv.DictReader(io.StringIO(text)))
        rows.sort(key=lambda r: int(r["ts_ms"]))
        return cls([float(r["tput_kbps"]) for r in rows])

    @classmethod
    def from_link_profile(cls, profile) -> "TputTrace":
        return cls(np.asarray(profile.capacity_bps, dtype=float) / 1000.0)


# --- MPC decision --------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _ladder_tables(video: VideoSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(utils, bits, switch) per quality, switch[p, q] = |u_q - u_p|;
    read-only because every call for the same video shares them."""
    utils = np.array([video.utility(q) for q in range(video.n_qualities)])
    bits = np.array([video.chunk_bits(q) for q in range(video.n_qualities)])
    switch = np.abs(utils[None, :] - utils[:, None])
    for table in (utils, bits, switch):
        table.setflags(write=False)
    return utils, bits, switch


def _rate_vector(pred_kbps, robust_error: float, horizon: int) -> np.ndarray:
    rates = np.atleast_1d(np.asarray(pred_kbps, dtype=float))
    if len(rates) == 1:
        rates = np.repeat(rates, horizon)
    elif len(rates) < horizon:
        rates = np.concatenate([rates, np.repeat(rates[-1:], horizon - len(rates))])
    else:
        rates = rates[:horizon]
    return rates / (1.0 + max(robust_error, 0.0))


def plan_qoe(seq, buffer_s: float, last_quality: int | None,
             pred_kbps, video: VideoSpec, startup: bool = False) -> float:
    """QoE of one planned quality sequence; pred may be one rate for the
    whole horizon or one per chunk. With startup=True the first planned
    download is not charged as rebuffering, mirroring session semantics.
    This scalar version is the reference the vectorized search reproduces."""
    rates = _rate_vector(pred_kbps, 0.0, len(seq))
    buf = buffer_s
    prev_util = None if last_quality is None else video.utility(last_quality)
    total = 0.0
    for step, q in enumerate(seq):
        dl = video.chunk_bits(q) / (rates[step] * 1000.0)
        if startup and step == 0:
            rebuf = 0.0
            buf = video.chunk_s
        else:
            rebuf = max(0.0, dl - buf)
            buf = max(buf - dl, 0.0) + video.chunk_s
        util = video.utility(q)
        total += util - REBUFFER_PENALTY_PER_S * rebuf
        if prev_util is not None:
            total -= abs(util - prev_util)
        prev_util = util
    return total


def mpc_decide(buffer_s: float, last_quality: int | None, pred_kbps,
               video: VideoSpec, robust_error: float = 0.0,
               horizon: int = MPC_HORIZON, startup: bool = False) -> int:
    """First action of the QoE-maximal quality sequence over the horizon.

    pred_kbps is a scalar for the whole horizon or a per-chunk vector.
    Search is exhaustive over n_qualities**horizon sequences; ties resolve
    to the lexicographically first sequence, matching a plain loop with a
    strict improvement test.

    The search grows over prefixes: level k holds one (running total,
    buffer) per prefix of length k + 1, in `itertools.product` order, as
    (prefixes, n_qualities) arrays broadcast from level k - 1. A chunk's
    download time depends only on its quality, and a switch cost only on
    the last two qualities, so they are a vector and a table indexed in
    place. Each sequence's total still takes the plain loop's operations
    in its order, on the same operands (-= penalty * rebuffer, += utility,
    -= |utility change|), so the totals, and the first maximum over them,
    are bit for bit the loop's.
    """
    rates = _rate_vector(pred_kbps, robust_error, horizon)
    if np.any(rates <= 0):
        return 0
    utils, bits, switch = _ladder_tables(video)
    nq = video.n_qualities
    total = np.zeros(1)                  # one entry per prefix, product order
    buf = np.array([float(buffer_s)])
    for step in range(horizon):
        dl = bits / (rates[step] * 1000.0)
        if startup and step == 0:
            level = total[:, None] + utils
            buf = np.full(nq, float(video.chunk_s))
        else:
            rebuf = np.maximum(0.0, dl - buf[:, None])
            level = total[:, None] - REBUFFER_PENALTY_PER_S * rebuf
            level += utils
            if step < horizon - 1:
                buf = (np.maximum(buf[:, None] - dl, 0.0) + video.chunk_s).ravel()
        if step > 0:
            by_prev = level.reshape(-1, nq, nq)   # [prefix, previous q, q]
            by_prev -= switch
        elif last_quality is not None:
            level -= switch[last_quality]
        total = level.ravel()
    return int(np.argmax(total)) // nq ** (horizon - 1)


# --- controllers ---------------------------------------------------------

class SessionState:
    """What a controller may look at when deciding the next chunk."""

    def __init__(self, trace: TputTrace, video: VideoSpec):
        self.trace = trace
        self.video = video
        self.now_s = 0.0
        self.buffer_s = 0.0
        self.chunk_idx = 0
        self.last_quality: int | None = None
        self.chunk_tputs_kbps: list[float] = []


class MpcController:
    """RobustMPC over a pluggable throughput predictor.

    predictor(state) -> kbps estimate for the horizon. The controller owns
    the prediction-error history that drives the robust correction.
    """

    def __init__(self, video: VideoSpec, predictor, horizon: int = MPC_HORIZON):
        self.video = video
        self.predictor = predictor
        self.horizon = horizon
        self._errors: list[float] = []
        self._last_pred: float | None = None

    def decide(self, state: SessionState) -> int:
        pred = self.predictor(state)
        self._last_pred = float(np.atleast_1d(np.asarray(pred, dtype=float))[0])
        err = max(self._errors[-PREDICTOR_LAGS:], default=0.0)
        horizon = min(self.horizon, self.video.n_chunks - state.chunk_idx)
        return mpc_decide(state.buffer_s, state.last_quality, pred,
                          self.video, robust_error=err, horizon=horizon,
                          startup=state.chunk_idx == 0)

    def on_chunk_complete(self, actual_kbps: float) -> None:
        if self._last_pred is not None and actual_kbps > 0:
            self._errors.append(abs(self._last_pred - actual_kbps) / actual_kbps)


def harmonic_predictor(state: SessionState) -> float:
    recent = state.chunk_tputs_kbps[-PREDICTOR_LAGS:]
    if not recent:
        return float(state.video.ladder_kbps[0])  # conservative bootstrap
    return len(recent) / sum(1.0 / max(v, 1e-6) for v in recent)


def oracle_predictor(state: SessionState) -> np.ndarray:
    """True per-chunk-window capacity for the horizon ahead."""
    chunk_s = state.video.chunk_s
    return np.array([
        state.trace.future_harmonic_kbps(state.now_s + k * chunk_s, chunk_s)
        for k in range(MPC_HORIZON)])


class ModelPredictor:
    """Wraps a `predict` model over the last five chunk throughputs; falls
    back to the harmonic estimate until enough history exists."""

    def __init__(self, model: Model):
        self.model = model

    def __call__(self, state: SessionState) -> float:
        recent = state.chunk_tputs_kbps
        if len(recent) < PREDICTOR_LAGS:
            return harmonic_predictor(state)
        lags = list(reversed(recent[-PREDICTOR_LAGS:]))  # h1 = newest
        pred = float(self.model.predict_row(np.array(lags)))
        if pred <= 0:
            return harmonic_predictor(state)
        return pred


def lag_feature_names() -> list[str]:
    return [f"h{i}" for i in range(1, PREDICTOR_LAGS + 1)]


def chunk_rate_dataset(traces: list[TputTrace], video: VideoSpec) -> Dataset:
    """Windowed capacity per chunk slot with five lags, for fitting the
    model predictor without running any controller."""
    ts, targets, rows = [], [], []
    tick = 0
    for trace in traces:
        per_chunk = []
        arr = trace.tput_kbps
        for i in range(0, len(arr) - video.chunk_s + 1, video.chunk_s):
            per_chunk.append(float(arr[i:i + video.chunk_s].mean()))
        for k in range(PREDICTOR_LAGS, len(per_chunk)):
            lags = list(reversed(per_chunk[k - PREDICTOR_LAGS:k]))
            ts.append(tick * 1000)
            targets.append(per_chunk[k])
            rows.append(lags)
            tick += 1
    if not rows:
        raise ValueError("traces too short to build a training set")
    return Dataset(np.array(ts), np.array(targets), np.array(rows),
                   lag_feature_names())


# --- session simulation --------------------------------------------------

def simulate_session(trace: TputTrace, video: VideoSpec,
                     controller) -> tuple[QoeRecord, list[ChunkRecord]]:
    """Download every chunk in order; playback starts when the first chunk
    lands, so startup delay is not charged as rebuffering."""
    state = SessionState(trace, video)
    log: list[ChunkRecord] = []
    total_util = 0.0
    total_rebuf = 0.0
    total_smooth = 0.0
    decisions = []
    for idx in range(video.n_chunks):
        state.chunk_idx = idx
        q = int(controller.decide(state))
        if not 0 <= q < video.n_qualities:
            raise ValueError(f"controller returned quality {q}")
        bits = video.chunk_bits(q)
        dl_s = trace.download_time_s(state.now_s, bits)
        playing = idx > 0
        rebuf = max(0.0, dl_s - state.buffer_s) if playing else 0.0
        state.buffer_s = (max(state.buffer_s - dl_s, 0.0) if playing else 0.0) \
            + video.chunk_s
        state.now_s += dl_s
        actual_kbps = bits / 1000.0 / dl_s
        state.chunk_tputs_kbps.append(actual_kbps)
        if hasattr(controller, "on_chunk_complete"):
            controller.on_chunk_complete(actual_kbps)
        util = video.utility(q)
        total_util += util
        total_rebuf += rebuf
        if state.last_quality is not None:
            total_smooth += abs(util - video.utility(state.last_quality))
        state.last_quality = q
        decisions.append(q)
        log.append(ChunkRecord(idx, q, dl_s * 1000.0, rebuf * 1000.0,
                               state.buffer_s))
    record = QoeRecord(total_util, total_rebuf, total_smooth)
    return record, log


def session_decisions(trace: TputTrace, video: VideoSpec, controller) -> list[int]:
    _, log = simulate_session(trace, video, controller)
    return [r.quality for r in log]


# --- variant comparison --------------------------------------------------

VARIANTS = ("mpc_d", "mpc_l", "mpc_o")


@dataclass
class VariantComparison:
    qoe: dict[str, list[float]]
    model: Model | None = None

    def median(self, variant: str) -> float:
        return float(np.median(self.qoe[variant]))


def make_controller(variant: str, video: VideoSpec,
                    model: Model | None = None) -> MpcController:
    if variant == "mpc_d":
        return MpcController(video, harmonic_predictor)
    if variant == "mpc_o":
        return MpcController(video, oracle_predictor)
    if variant == "mpc_l":
        if model is None:
            raise ValueError("mpc_l needs a fitted model")
        return MpcController(video, ModelPredictor(model))
    raise ValueError(f"unknown variant {variant!r}")


def compare_variants(traces: list[TputTrace], video: VideoSpec,
                     seed: int = 0, model_kind: str = "ridge_ar",
                     train_frac: float = 0.2) -> VariantComparison:
    """QoE distributions for the three variants over the given sessions.

    A deterministic shuffle carves off a training share of the traces for
    the model predictor; all variants are evaluated on the rest.
    """
    if len(traces) < 10:
        raise ValueError("need at least 10 traces")
    order = np.random.default_rng(seed).permutation(len(traces))
    n_train = max(5, int(len(traces) * train_frac))
    train = [traces[i] for i in order[:n_train]]
    evaluate = [traces[i] for i in order[n_train:]]
    model = fit(model_kind, chunk_rate_dataset(train, video))
    qoe: dict[str, list[float]] = {v: [] for v in VARIANTS}
    for trace in evaluate:
        for variant in VARIANTS:
            controller = make_controller(variant, video, model)
            record, _ = simulate_session(trace, video, controller)
            qoe[variant].append(record.qoe)
    return VariantComparison(qoe, model)


# --- trace generators ----------------------------------------------------

def white_noise_traces(n: int, duration_s: int, mean_kbps: float,
                       sd_kbps: float, seed: int = 0) -> list[TputTrace]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        vals = rng.normal(mean_kbps, sd_kbps, size=duration_s)
        out.append(TputTrace(np.clip(vals, 100.0, None)))
    return out


def terminal_traces(n: int, duration_s: int, capacity_base_kbps: float = 4000.0,
                    seed: int = 0) -> list[TputTrace]:
    """Spiky sessions derived from the terminal model: capacity dips track
    latency spikes, so consecutive chunks are strongly correlated."""
    from .leolink import LinkProfile
    from .terminal_sim import TerminalModelConfig

    out = []
    for k in range(n):
        cfg = TerminalModelConfig(rng_seed=seed * 10_000 + k, p_bad_handover=0.10)
        profile = LinkProfile.from_terminal(cfg, duration_s, capacity_base_kbps * 1000.0)
        out.append(TputTrace.from_link_profile(profile))
    return out

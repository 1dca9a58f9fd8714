"""Simulated satellite user terminal.

Produces a 1 Hz telemetry stream shaped like what a real flat-panel terminal
exposes on its management interface: point-of-presence (PoP) latency, drop
rate, antenna orientation, and cumulative byte counters. The latency process
has three layers:

  * continuous fluctuation from the geometry of the serving satellite, which
    is reselected every 15 s and propagated every second;
  * occasional bad handovers that add a large constant for an integer number
    of 15 s quanta, with transient loss at the spike edges;
  * bounded per-sample noise.

Counters are published with a deliberate 1 s staleness lag and include a
fixed fractional header overhead on experiment-offered traffic, so the
consumption-tracking code downstream has the same artifacts to deal with as
against real hardware. Everything is driven by a single seeded RNG: one seed
gives one bit-identical stream.

Each step draws, in this order: the latency noise, the azimuth and the
elevation step, the ordinary and the edge drop rate, the outage test, and an
outage length when one starts. Each handover draws the bad-handover test
and, for a new spike, its multiplier and then its geometric quanta count.
A uniform(a, b) draw is a + (b - a) * random() and a normal(0, s) draw is
0 + s * standard_normal(): the primitives numpy's Generator.uniform and
Generator.normal reduce to, so the stream is the one those methods give.
The serving satellite's orbit constants are taken once, when a handover
changes it. Each step hands its time to `orbital`'s position formula as
integer microseconds (the step's ms x 1000), and takes each range as the
BLAS dot `np.linalg.norm` uses.

Facts of the measured system take one value each, so they are module
constants: 15 s reconfiguration quanta (HANDOVER_PERIOD_MS), a 1 s counter
lag, 2-5 s outages, a gateway 600 km poleward, and the path. PoP latency
sums the LAN hop S1 (1 ms), the bent-pipe RTT, 9 ms of PoP scheduling and
the 13 ms PoP-to-destination tail; a bad handover adds (multiplier - 1) x
BASE_LATENCY_MS. The dish drifts DRIFT_RATE_DEG_PER_S per second inside
AZ_BAND x EL_BAND. Drop rate is drawn below BASE_DROP_RATE, and from
EDGE_DROP_RATE on the sample where a spike starts or ends. Experiment
traffic carries HEADER_OVERHEAD_FRAC on the downlink, and the uplink counter
is UPLINK_SHARE of the downlink. DEFAULT_SITE is the terminal's site when
none is given. The agent's traceroute model reads S1 and the tail, its
consumption tracker the two counter shares, and `dissect` the handover
period from here.

TelemetryServer steps one TerminalSim on the wall clock and serves its
samples over TCP as JSON lines, the feed the agent's SocketSource reads.
"""

from __future__ import annotations

import json
import logging
import math
import socket
import threading
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .clocks import WallClock
from .orbital import (
    EARTH_RADIUS_KM,
    GroundSite,
    TleRecord,
    _ecef_km,
    _orbit,
    synthetic_constellation,
    visible_sats,
)

SPEED_OF_LIGHT_KM_S = 299792.458

HANDOVER_PERIOD_MS = 15_000
COUNTER_LAG_MS = 1000
S1_MS = 1.0            # client LAN hop
S2_SCHED_MS = 9.0      # PoP scheduling, folded into the bent-pipe segment
POP_TO_DEST_MS = 13.0  # PoP-to-destination tail
OUTAGE_DURATION_S = (2.0, 5.0)
GATEWAY_GROUND_KM = 600.0
BASE_LATENCY_MS = 35.0
DRIFT_RATE_DEG_PER_S = 1e-4
AZ_BAND = (0.2, 1.8)
EL_BAND = (64.5, 65.4)
BASE_DROP_RATE = 0.004
EDGE_DROP_RATE = (0.05, 0.12)
HEADER_OVERHEAD_FRAC = 0.14
UPLINK_SHARE = 0.03    # ack/request traffic, a thin fraction of the downlink
DEFAULT_SITE = (47.6, -122.3)

# a feed client whose one send waits this long is closed and dropped
SEND_TIMEOUT_S = 1.0
ACCEPT_RETRY_S = 0.1   # pause in accepting after an accept error such as EMFILE

# |N(0, s)| has median 0.6745*s; dividing by it makes DRIFT_RATE_DEG_PER_S the
# median per-second orientation step.
_MEDIAN_ABS_NORMAL = 0.6745
_DRIFT_SIGMA = DRIFT_RATE_DEG_PER_S / _MEDIAN_ABS_NORMAL

log = logging.getLogger(__name__)

WIRE_KEYS = ("ts_ms", "pop_latency_ms", "pop_drop_rate", "az_deg", "el_deg",
             "bytes_down", "bytes_up", "state")
SAMPLE_STATES = ("ACTIVE", "OUTAGE")


class ClockRegression(RuntimeError):
    """step() was called with a timestamp earlier than the previous one."""


class Unavailable(RuntimeError):
    """Latency fields requested while the terminal is in OUTAGE."""


class OverlapRejected(ValueError):
    """A traffic injection overlaps an existing one."""


@dataclass(frozen=True)
class TelemetrySample:
    ts_ms: int
    pop_latency_ms: float | None
    pop_drop_rate: float | None
    az_deg: float
    el_deg: float
    bytes_down: int
    bytes_up: int
    state: str  # one of SAMPLE_STATES

    def to_wire(self) -> dict:
        return {
            "ts_ms": self.ts_ms,
            "pop_latency_ms": None if self.pop_latency_ms is None else round(self.pop_latency_ms, 3),
            "pop_drop_rate": None if self.pop_drop_rate is None else round(self.pop_drop_rate, 5),
            "az_deg": round(self.az_deg, 6),
            "el_deg": round(self.el_deg, 6),
            "bytes_down": self.bytes_down,
            "bytes_up": self.bytes_up,
            "state": self.state,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_wire(), separators=(",", ":"))

    @classmethod
    def from_wire(cls, obj) -> "TelemetrySample":
        """The sample one decoded wire record holds; raises only ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"telemetry record is not an object: {obj!r:.80}")
        missing = [k for k in WIRE_KEYS if k not in obj]
        if missing:
            raise ValueError(f"telemetry record missing keys: {missing}")
        ts_ms = obj["ts_ms"]
        if not isinstance(ts_ms, int) or isinstance(ts_ms, bool):
            raise ValueError(f"ts_ms is not an integer: {ts_ms!r:.80}")
        for key in ("pop_latency_ms", "pop_drop_rate"):
            value = obj[key]
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, float))
                                      or not math.isfinite(value)):
                raise ValueError(f"{key} is not a finite number or null: {value!r:.80}")
        if obj["pop_drop_rate"] is not None and not 0 <= obj["pop_drop_rate"] <= 1:
            raise ValueError(f"pop_drop_rate is outside [0, 1]: {obj['pop_drop_rate']!r}")
        for key in ("bytes_down", "bytes_up"):
            value = obj[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{key} is not a non-negative integer: {value!r:.80}")
        if obj["state"] not in SAMPLE_STATES:
            raise ValueError(f"state is not one of {SAMPLE_STATES}: {obj['state']!r:.80}")
        try:
            return cls(
                ts_ms=ts_ms,
                pop_latency_ms=obj["pop_latency_ms"],
                pop_drop_rate=obj["pop_drop_rate"],
                az_deg=float(obj["az_deg"]),
                el_deg=float(obj["el_deg"]),
                bytes_down=obj["bytes_down"],
                bytes_up=obj["bytes_up"],
                state=obj["state"],
            )
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"bad telemetry record: {exc}") from exc

    def latency(self) -> float:
        if self.pop_latency_ms is None:
            raise Unavailable(f"terminal in {self.state} at {self.ts_ms}")
        return self.pop_latency_ms


@dataclass
class TerminalModelConfig:
    spike_multiplier: tuple[float, float] = (2.0, 3.0)
    p_bad_handover: float = 0.02
    spike_duration_quanta: float = 1.5   # mean of the geometric quanta count
    rng_seed: int = 0
    noise_ms: float = 1.5
    p_outage_per_s: float = 0.0
    # handover indices that are always bad, for tests needing known spikes
    forced_bad_handovers: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.p_bad_handover <= 1.0:
            raise ValueError("p_bad_handover must be a probability")
        if not 0.0 <= self.p_outage_per_s <= 1.0:
            raise ValueError("p_outage_per_s must be a probability")
        if self.spike_duration_quanta < 1.0:
            raise ValueError("mean spike quanta must be >= 1")


@dataclass(frozen=True)
class SpikeEvent:
    start_ms: int
    duration_ms: int
    add_ms: float
    multiplier: float

    @property
    def end_ms(self) -> int:
        return self.start_ms + self.duration_ms


class TerminalSim:
    """Stateful terminal model. Call step(now_ms) at roughly 1 Hz."""

    def __init__(self,
                 config: TerminalModelConfig | None = None,
                 site: GroundSite | None = None,
                 catalog: list[TleRecord] | None = None):
        self.config = config or TerminalModelConfig()
        self.site = site or GroundSite(*DEFAULT_SITE)
        self._catalog = catalog
        self._rng = np.random.default_rng(self.config.rng_seed)
        self._random = self._rng.random
        self._standard_normal = self._rng.standard_normal

        gw_lat = self.site.latitude_deg + math.degrees(
            GATEWAY_GROUND_KM / EARTH_RADIUS_KM)
        gateway = GroundSite(min(gw_lat, 89.0), self.site.longitude_deg)
        # both ends of the bent pipe are fixed: their positions are taken once
        self._site_ecef = self.site.ecef_km()
        self._gateway_ecef = gateway.ecef_km()

        self._start_ms: int | None = None
        self._last_ms: int | None = None
        self._next_handover_ms = 0
        self._handover_index = -1
        self._serving: TleRecord | None = None
        self._serving_orbit = None       # orbital._Orbit of _serving
        self._by_name: dict[str, TleRecord] | None = None
        self._spike: SpikeEvent | None = None
        self._prev_in_spike = False
        self._outage_until_ms = -1

        self._az = 0.5 * (AZ_BAND[0] + AZ_BAND[1])
        self._el = 0.5 * (EL_BAND[0] + EL_BAND[1])

        self._injections: list[tuple[int, int, float]] = []   # (start, end, bps)
        self._experiment_segments: list[tuple[int, float]] = [(0, 0.0)]

        self.spike_log: list[SpikeEvent] = []
        self.handover_log: list[tuple[int, str]] = []

    # -- traffic ----------------------------------------------------------

    def inject_user_traffic(self, rate_bps: float, start_ms: int, duration_ms: int) -> None:
        """Schedule user-side offered load; counters pick it up 1 s stale."""
        if rate_bps < 0:
            raise ValueError("rate must be >= 0")
        if duration_ms <= 0:
            raise ValueError("duration must be positive")
        end_ms = start_ms + duration_ms
        for s, e, _ in self._injections:
            if start_ms < e and s < end_ms:
                raise OverlapRejected(f"[{start_ms}, {end_ms}) overlaps [{s}, {e})")
        self._injections.append((start_ms, end_ms, float(rate_bps)))

    def set_experiment_rate(self, rate_bps: float, now_ms: int) -> None:
        """Offered load from measurement experiments; carries header overhead."""
        if rate_bps < 0:
            raise ValueError("rate must be >= 0")
        last_start, _ = self._experiment_segments[-1]
        if now_ms < last_start:
            raise ClockRegression(f"experiment rate set at {now_ms} < {last_start}")
        self._experiment_segments.append((now_ms, float(rate_bps)))

    def _offered_bytes_down(self, t_ms: int) -> float:
        total = 0.0
        for s, e, bps in self._injections:
            overlap_ms = min(e, t_ms) - s
            if overlap_ms > 0:
                total += bps / 8.0 * min(overlap_ms, e - s) / 1000.0
        overhead = 1.0 + HEADER_OVERHEAD_FRAC
        segs = self._experiment_segments
        for i, (s, bps) in enumerate(segs):
            e = segs[i + 1][0] if i + 1 < len(segs) else t_ms
            overlap_ms = min(e, t_ms) - s
            if overlap_ms > 0 and bps > 0:
                total += bps * overhead / 8.0 * overlap_ms / 1000.0
        return total

    def _counters_at(self, t_ms: int) -> tuple[int, int]:
        if self._start_ms is None or t_ms < self._start_ms:
            return 0, 0
        down = self._offered_bytes_down(t_ms)
        return int(down), int(down * UPLINK_SHARE)

    # -- geometry ---------------------------------------------------------

    def _reselect(self, t_ms: int) -> None:
        t = datetime.fromtimestamp(t_ms / 1000.0, tz=timezone.utc)
        vis = visible_sats(self.site, self._catalog, t)
        if vis:
            if self._by_name is None:
                self._by_name = {r.name: r for r in self._catalog}
            chosen = self._by_name[vis[0].sat_id]
            if self._serving is None or chosen.name != self._serving.name:
                self._serving = chosen
                self._serving_orbit = _orbit(chosen)
                self.handover_log.append((t_ms, chosen.name))
        # when nothing clears the mask, hold the previous lock

    def _bent_pipe_rtt_ms(self, t_ms: int) -> float:
        pos = _ecef_km(self._serving_orbit, t_ms * 1000)
        # the BLAS dot np.linalg.norm takes; a scalar sum rounds differently
        d = pos - self._site_ecef
        d_user = math.sqrt(np.dot(d, d))
        d = pos - self._gateway_ecef
        d_gw = math.sqrt(np.dot(d, d))
        return 2.0 * (d_user + d_gw) / SPEED_OF_LIGHT_KM_S * 1000.0

    # -- stepping ---------------------------------------------------------

    def _handover(self, boundary_ms: int) -> None:
        cfg = self.config
        self._handover_index += 1
        self._reselect(boundary_ms)
        bad_draw = self._random()
        bad = bad_draw < cfg.p_bad_handover or self._handover_index in cfg.forced_bad_handovers
        if bad and self._spike is None:
            lo, hi = cfg.spike_multiplier
            mult = lo + (hi - lo) * self._random()
            quanta = int(self._rng.geometric(1.0 / cfg.spike_duration_quanta))
            spike = SpikeEvent(
                start_ms=boundary_ms,
                duration_ms=quanta * HANDOVER_PERIOD_MS,
                add_ms=(mult - 1.0) * BASE_LATENCY_MS,
                multiplier=mult,
            )
            self._spike = spike
            self.spike_log.append(spike)

    def step(self, now_ms: int) -> TelemetrySample:
        cfg = self.config
        now_ms = int(now_ms)
        if self._last_ms is not None and now_ms <= self._last_ms:
            raise ClockRegression(f"step at {now_ms} after {self._last_ms}")
        if self._start_ms is None:
            self._start_ms = now_ms
            self._next_handover_ms = now_ms
            if self._catalog is None:
                self._catalog = synthetic_constellation(
                    epoch=datetime.fromtimestamp(now_ms / 1000.0, tz=timezone.utc))
        self._last_ms = now_ms

        # handover boundaries live on the sim clock (start + k*period), so
        # spike start/duration stay exact 15 s multiples even if the caller's
        # cadence jitters
        while now_ms >= self._next_handover_ms:
            self._handover(self._next_handover_ms)
            self._next_handover_ms += HANDOVER_PERIOD_MS

        # fixed per-step draw order keeps the stream seed-deterministic
        random, standard_normal = self._random, self._standard_normal
        noise = -cfg.noise_ms + (cfg.noise_ms - -cfg.noise_ms) * random()
        az_step = 0.0 + _DRIFT_SIGMA * standard_normal()
        el_step = 0.0 + _DRIFT_SIGMA * standard_normal()
        drop_draw = 0.0 + (BASE_DROP_RATE - 0.0) * random()
        edge_draw = EDGE_DROP_RATE[0] + (EDGE_DROP_RATE[1] - EDGE_DROP_RATE[0]) * random()
        outage_draw = random()

        self._az = _reflect(self._az + az_step, *AZ_BAND)
        self._el = _reflect(self._el + el_step, *EL_BAND)

        if self._outage_until_ms < now_ms and outage_draw < cfg.p_outage_per_s:
            dur = OUTAGE_DURATION_S[0] + (OUTAGE_DURATION_S[1] - OUTAGE_DURATION_S[0]) * random()
            self._outage_until_ms = now_ms + int(dur * 1000)

        in_spike = self._spike is not None and self._spike.start_ms <= now_ms < self._spike.end_ms
        spike_edge = in_spike != self._prev_in_spike
        add = self._spike.add_ms if in_spike else 0.0
        if self._spike is not None and now_ms >= self._spike.end_ms and not in_spike:
            self._spike = None
        self._prev_in_spike = in_spike

        bytes_down, bytes_up = self._counters_at(now_ms - COUNTER_LAG_MS)

        if now_ms < self._outage_until_ms:
            sample = TelemetrySample(now_ms, None, None, self._az, self._el,
                                     bytes_down, bytes_up, "OUTAGE")
        else:
            latency = S1_MS + self._bent_pipe_rtt_ms(now_ms) + S2_SCHED_MS \
                + POP_TO_DEST_MS + noise + add
            drop = edge_draw if spike_edge else drop_draw
            sample = TelemetrySample(now_ms, max(latency, 0.1), drop,
                                     self._az, self._el, bytes_down, bytes_up, "ACTIVE")
        return sample

    # -- introspection ----------------------------------------------------

    @property
    def catalog(self) -> list[TleRecord] | None:
        """Constellation in use; materialized on the first step when not
        supplied up front."""
        return self._catalog


def _reflect(x: float, lo: float, hi: float) -> float:
    # bounce off band edges instead of saturating, so step sizes keep their
    # distribution near the walls
    width = hi - lo
    for _ in range(4):
        if x < lo:
            x = lo + (lo - x)
        elif x > hi:
            x = hi - (x - hi)
        else:
            return x
    return min(max(x, lo), hi)


class TelemetryServer:
    """A terminal simulator stepped on the wall clock and served over TCP.

    Each step's sample becomes one JSON line: appended to the log file when
    one is given, then sent to every connected client. A client that
    connects gets the latest line first. A client whose one send waits
    SEND_TIMEOUT_S is closed and dropped, so a reader that stalls delays the
    others by at most that, once.
    """

    def __init__(self, sim: TerminalSim, host: str = "127.0.0.1", port: int = 0,
                 interval_s: float = 1.0, log_path=None):
        self._sim = sim
        self._log_file = open(log_path, "a", buffering=1) if log_path else None
        self._clients: list[socket.socket] = []
        self._latest: bytes | None = None
        self._lock = threading.Lock()   # held while sending, so lines keep their order
        self._stop = threading.Event()
        self._server = socket.create_server((host, port))
        self.port = self._server.getsockname()[1]
        threading.Thread(target=self._accept_loop, daemon=True).start()
        self._stepper = threading.Thread(target=self._step_loop, args=(interval_s,),
                                         daemon=True)
        self._stepper.start()

    def _send(self, conn: socket.socket, line: bytes) -> bool:
        try:
            conn.sendall(line)
            return True
        except socket.timeout:
            log.warning("dropped a feed client: a send waited %.1f s", SEND_TIMEOUT_S)
        except OSError:
            pass
        conn.close()
        return False

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError as exc:
                if self._stop.is_set():   # close() shut the listening socket
                    return
                # EMFILE, ECONNABORTED, ...: keep accepting
                log.warning("feed: accept failed (%s); retrying in %.1f s",
                            exc, ACCEPT_RETRY_S)
                self._stop.wait(ACCEPT_RETRY_S)
                continue
            conn.settimeout(SEND_TIMEOUT_S)
            with self._lock:
                if self._stop.is_set():
                    conn.close()
                    return
                if self._latest is None or self._send(conn, self._latest):
                    self._clients.append(conn)

    def _step_loop(self, interval_s: float) -> None:
        clock = WallClock()
        last = None
        while not self._stop.is_set():
            now = clock.now_ms()
            if last is None or now > last:
                line = self._sim.step(now).to_json_line() + "\n"
                last = now
                if self._log_file:
                    self._log_file.write(line)
                with self._lock:
                    self._latest = line.encode()
                    self._clients = [c for c in self._clients
                                     if self._send(c, self._latest)]
            self._stop.wait(interval_s)

    def close(self) -> None:
        self._stop.set()
        try:
            self._server.shutdown(socket.SHUT_RDWR)   # wakes the blocked accept
        except OSError:
            pass
        self._server.close()
        self._stepper.join()
        with self._lock:
            for conn in self._clients:
                conn.close()
            self._clients.clear()
        if self._log_file:
            self._log_file.close()

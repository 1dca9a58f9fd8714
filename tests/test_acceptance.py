"""Acceptance gate: eleven numbered criteria, one PASS/FAIL line each.

Every test prints a single `[criterion NN] PASS|FAIL` line with the measured
values; run pytest with -s to watch them stream, otherwise pytest shows the
lines for failing criteria only. Each criterion is self-contained and uses
its own seeded randomness.
"""

import itertools
import json
import math
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from leobench import abr, dissect, predict
from leobench.agent import Agent, SimSource, SocketSource, traceroute_hops
from leobench.clocks import SimClock
from leobench.leolink import (CcParams, LinkProfile, fairness, run_flow,
                              spiky_lossy_profile, sweep)
from leobench.orchestrator import (ConflictError, ExperimentSpec, LocalClient,
                                   Orchestrator, OrchestratorClient)
from leobench.store import ResultsStore
from leobench.telemetry import TelemetryWindow
from leobench.terminal_sim import TelemetryServer, TerminalModelConfig, TerminalSim
from leobench.triggers import (TriggerBinding, TriggerState, evaluate,
                               parse_trigger, savings_report)

FIXTURES = Path(__file__).parent / "fixtures"
T0 = 1_700_000_000_000
SPIKE_EXPR = "latency_ms >= 2*mavg(latency_ms,5)"


def report(num: int, label: str, ok: bool, detail: str, started: float):
    elapsed = time.monotonic() - started
    line = (f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
            f"{label}: {detail} [{elapsed:.1f}s]")
    print(line)
    assert ok, line


# --- shared rig (orchestrator + agent on a simulated clock) ---------------

def make_rig(tmp_path, sim_config, hb_every=5):
    clock = SimClock(0)
    orch = Orchestrator(["n1"], clock=clock)
    store = ResultsStore(tmp_path / "store")
    sim = TerminalSim(sim_config)
    agent = Agent("n1", LocalClient(orch), store, SimSource(sim),
                  clock=clock, workdir=tmp_path / "agent",
                  heartbeat_every_s=hb_every)
    return clock, orch, store, sim, agent


def drive(agent, clock, ticks):
    for _ in range(ticks):
        agent.tick()
        clock.advance(1000)


def spiky_config(forced, seed=0):
    # multiplier floor 2.5 keeps every forced onset above the 2x threshold
    return TerminalModelConfig(rng_seed=seed, p_bad_handover=0.0,
                               forced_bad_handovers=tuple(forced),
                               spike_multiplier=(2.5, 3.0),
                               spike_duration_quanta=1.0)


# --- 1: capture cost arithmetic ------------------------------------------

def test_criterion_01_cost_calculator():
    t = time.monotonic()
    # budget 24/day x 360 s = 8640 s active: 10% of the observation day
    binding = TriggerBinding.from_spec(
        {"trigger": "latency_ms >= 1", "max_runtime_s": 360,
         "cooldown_s": 0, "budget_per_day": 24}, "cost")
    rep = savings_report(binding, 86_400, 40e6, header_fraction=138 / 3456)
    ok = (rep.transferred == 3.456e12
          and rep.saved_transfer == 3.456e12 - 3.456e11
          and rep.stored == pytest.approx(138e9, rel=1e-12)
          and rep.saved_storage == pytest.approx(124.2e9, rel=1e-12))
    report(1, "cost calculator", ok,
           f"transferred={rep.transferred / 1e12:.3f}Tb "
           f"saved={rep.saved_transfer / 1e12:.4f}Tb "
           f"stored={rep.stored / 1e9:.1f}Gb "
           f"saved_storage={rep.saved_storage / 1e9:.1f}Gb", t)


# --- 2: trigger fires at spike onsets ------------------------------------

def test_criterion_02_trigger_fidelity(tmp_path):
    t = time.monotonic()
    forced = tuple(range(2, 62, 3))[:20]          # onsets every 45 s
    onsets = [i * 15_000 for i in forced]
    clock, orch, store, _, agent = make_rig(tmp_path / "spiky",
                                            spiky_config(forced))
    orch.submit_experiment({
        "id": "spk", "kind": "PING", "overhead": "NO_OVERHEAD",
        "clients": ["n1"],
        "schedule": {"trigger": {"trigger": SPIKE_EXPR, "max_runtime_s": 8,
                                 "cooldown_s": 20, "budget_per_day": 50}},
        "params": {}})
    drive(agent, clock, 920)

    starts = sorted(
        json.loads((path / "manifest.json").read_text())["run_start_ms"]
        for _, _, path in store.list_runs("spk"))
    within = [onset <= s <= onset + 1000
              for onset, s in zip(onsets, starts)] if len(starts) == 20 else []
    max_lag = max((s - o for o, s in zip(onsets, starts)), default=-1)

    clock2, orch2, store2, _, agent2 = make_rig(tmp_path / "quiet",
                                                spiky_config((), seed=7))
    orch2.submit_experiment({
        "id": "spk", "kind": "PING", "overhead": "NO_OVERHEAD",
        "clients": ["n1"],
        "schedule": {"trigger": {"trigger": SPIKE_EXPR, "max_runtime_s": 8,
                                 "cooldown_s": 20, "budget_per_day": 50}},
        "params": {}})
    drive(agent2, clock2, 300)
    quiet_fires = len(store2.list_runs("spk")) + len(agent2.local_runs())

    ok = len(starts) == 20 and all(within) and quiet_fires == 0
    report(2, "trigger fidelity", ok,
           f"fires={len(starts)}/20 max_onset_lag={max_lag}ms "
           f"quiet_fires={quiet_fires}", t)


# --- 3: triggered schedule samples the bad seconds -----------------------

def _profile_slice(prof, start_s, dur_s):
    a = int(np.searchsorted(prof.ts_ms, start_s * 1000.0))
    b = int(np.searchsorted(prof.ts_ms, (start_s + dur_s) * 1000.0))
    ts = np.append(prof.ts_ms[a:b] - prof.ts_ms[a], dur_s * 1000.0)
    dup = lambda arr: np.append(arr[a:b], arr[b - 1])
    return LinkProfile(ts, dup(prof.owd_ms), dup(prof.capacity_bps),
                       dup(prof.loss_prob))


def _trigger_starts(samples, expr, win_s, t0):
    win = TelemetryWindow(capacity=16)
    fires, until = [], -1
    for s in samples:
        if s.pop_latency_ms is None:
            continue
        win.push(s)
        t_s = (s.ts_ms - t0) // 1000
        if t_s >= until and len(win) >= 6:
            if evaluate(expr, win, now_ms=s.ts_ms) is TriggerState.FIRE:
                fires.append(int(t_s))
                until = t_s + win_s + 15
    return fires


def test_criterion_03_trigger_beats_random_schedule():
    t = time.monotonic()
    expr = parse_trigger(SPIKE_EXPR)
    win_s, trace_s = 30, 600
    trig_meds, rand_meds = [], []
    for seed in range(10):
        cfg = TerminalModelConfig(rng_seed=100 + seed, p_bad_handover=0.25)
        sim = TerminalSim(cfg)
        samples = [sim.step(T0 + k * 1000) for k in range(trace_s)]
        prof = LinkProfile.from_telemetry(samples, capacity_base_bps=8e6)
        trig = [s for s in _trigger_starts(samples, expr, win_s, T0)
                if s + win_s <= trace_s - 2][:5]
        rng = np.random.default_rng(seed)
        rand = []
        while len(rand) < len(trig):
            c = int(rng.integers(0, trace_s - 2 - win_s))
            if all(abs(c - o) >= win_s for o in rand):
                rand.append(c)

        def sched_tput(starts):
            runs = [run_flow("bbr2", None, _profile_slice(prof, st, win_s),
                             win_s, seed=seed).mean_tput_bps()
                    for st in starts]
            return float(np.mean(runs))

        trig_meds.append(sched_tput(trig))
        rand_meds.append(sched_tput(rand))
    med_t = float(np.median(trig_meds))
    med_r = float(np.median(rand_meds))
    ok = med_t < med_r
    report(3, "trigger vs random schedule", ok,
           f"median tput triggered={med_t / 1e6:.2f}Mbps "
           f"random={med_r / 1e6:.2f}Mbps "
           f"gap={100 * (med_r - med_t) / med_r:.0f}%", t)


# --- 4: scavenger preemption bound ---------------------------------------

def test_criterion_04_scavenger_bound(tmp_path):
    t = time.monotonic()
    rng = np.random.default_rng(7)
    worst_lag, failures = -1, []
    for trial in range(20):
        clock, orch, _, sim, agent = make_rig(
            tmp_path / f"t{trial}", TerminalModelConfig(rng_seed=trial))
        orch.submit_experiment({
            "id": "blk", "kind": "BULK_FLOW", "overhead": "OVERHEAD",
            "clients": ["n1"], "schedule": {"windows": [[0, 180_000]]},
            "params": {"rate_bps": 4e6}})
        orch.submit_experiment({
            "id": "png", "kind": "PING", "overhead": "NO_OVERHEAD",
            "clients": ["n1"], "schedule": {"windows": [[0, 180_000]]},
            "params": {}})
        inject_at = int(rng.integers(20, 60)) * 1000
        rate = float(rng.uniform(5e6, 40e6))
        drive(agent, clock, inject_at // 1000)
        sim.inject_user_traffic(rate, inject_at, 30_000)
        drive(agent, clock, 100)

        if not agent.preemption_log:
            failures.append(f"trial {trial}: no preemption")
            continue
        lag = agent.preemption_log[0][0] - inject_at
        worst_lag = max(worst_lag, lag)
        if lag > 4000:
            failures.append(f"trial {trial}: lag {lag}ms")
        if any(not rid.startswith("blk") for _, rid in agent.preemption_log):
            failures.append(f"trial {trial}: non-overhead preempted")
        states = agent.runs_by_state()
        if not any(r.startswith("png") for r in states.get("RUNNING", [])):
            failures.append(f"trial {trial}: ping not running ({states})")
    ok = not failures
    report(4, "scavenger bound", ok,
           f"20 trials worst_lag={worst_lag}ms limit=4000ms"
           + (f" failures={failures[:3]}" if failures else ""), t)


# --- 5: conflict decisions vs brute-force oracle -------------------------

NODES5 = ("n1", "n2", "n3")


def _oracle_clashes(accepted, cand):
    """Expand windows into integer-second sets; overlap iff sets intersect
    on a shared occupied node, OVERHEAD x OVERHEAD, window-scheduled only."""
    def occupied(spec):
        return set(spec.clients) | (set(spec.servers) & set(NODES5))

    if cand.overhead != "OVERHEAD" or cand.windows is None:
        return []
    cand_ts = set()
    for s, e in cand.windows:
        cand_ts |= set(range(s, e))
    out = []
    for sp in accepted:
        if sp.overhead != "OVERHEAD" or sp.windows is None:
            continue
        if not (occupied(cand) & occupied(sp)):
            continue
        their = set()
        for s, e in sp.windows:
            their |= set(range(s, e))
        if cand_ts & their:
            out.append(sp.id)
    return sorted(out)


def test_criterion_05_conflict_oracle():
    t = time.monotonic()
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(1000):
        orch = Orchestrator(NODES5, clock=SimClock(0))
        accepted = []
        for i in range(int(rng.integers(6, 14))):
            nodes = tuple(rng.choice(NODES5, size=int(rng.integers(1, 3)),
                                     replace=False))
            servers = ()
            draw = rng.random()
            if draw < 0.2:
                servers = (str(rng.choice(NODES5)),)
            elif draw < 0.3:
                servers = ("198.51.100.7",)
            overhead = "OVERHEAD" if rng.random() < 0.7 else "NO_OVERHEAD"
            if rng.random() < 0.15:
                spec = ExperimentSpec(
                    id=f"t{trial}-e{i}", kind="PING", overhead=overhead,
                    clients=nodes, servers=servers,
                    trigger={"trigger": "latency_ms > 50",
                             "max_runtime_s": 5, "cooldown_s": 0,
                             "budget_per_day": 24})
            else:
                wins = []
                for _ in range(int(rng.integers(1, 3))):
                    s = int(rng.integers(0, 40))
                    wins.append((s, s + int(rng.integers(1, 15))))
                spec = ExperimentSpec(
                    id=f"t{trial}-e{i}", kind="PING", overhead=overhead,
                    clients=nodes, servers=servers, windows=tuple(wins))
            expect = _oracle_clashes(accepted, spec)
            checked += 1
            if expect:
                with pytest.raises(ConflictError) as exc:
                    orch.submit_experiment(spec)
                assert exc.value.clashing_ids == expect, \
                    f"trial {trial} spec {i}: {exc.value.clashing_ids} != {expect}"
            else:
                orch.submit_experiment(spec)
                accepted.append(spec)
    report(5, "conflict oracle", True,
           f"{checked} submissions over 1000 sequences, all decisions match", t)


# --- 6: segment dissection ------------------------------------------------

PATH_ADDRS = {1: "192.168.1.1", 2: "100.64.0.1", 3: "206.224.64.1",
              4: "206.224.65.9", 5: "142.250.224.10", 6: "8.8.8.8"}


def test_criterion_06_segment_dissection():
    t = time.monotonic()
    segmap = dissect.SegmentMap.from_json(
        (FIXTURES / "segment_map.json").read_text())

    # five runs with symmetric offsets: every hop median lands exactly
    medians = [1, 31, 33, 35, 37, 45]
    runs = [[(h, PATH_ADDRS[h], m + off) for h, m in enumerate(medians, 1)]
            for off in (-0.4, -0.2, 0.0, 0.2, 0.4)]
    got = {s.segment: s.one_way_ms for s in dissect.segment_latencies(runs, segmap)}
    want = {"S1": 0.5, "S2": 15.0, "S3": 1.0, "S4": 1.0, "S5": 1.0, "S6": 4.0}
    exact = got == want

    # calibrated end-to-end path: agent hop model over simulated latencies
    sim = TerminalSim(TerminalModelConfig(rng_seed=21))
    sim_runs = []
    for k in range(600):
        s = sim.step(T0 + k * 1000)
        if k % 15 == 7 and s.pop_latency_ms is not None:
            sim_runs.append(traceroute_hops(s.pop_latency_ms, "8.8.8.8"))
    segs = dissect.segment_latencies(sim_runs, segmap)
    total = sum(s.one_way_ms for s in segs)
    share = next(s.one_way_ms for s in segs if s.segment == "S2") / total
    ok = exact and 0.50 <= share <= 0.70
    report(6, "segment dissection", ok,
           f"fixture {'exact' if exact else f'mismatch {got}'} "
           f"sim S2 share={share:.1%} (band 50-70%)", t)


# --- 7: tail statistics of the terminal model ----------------------------

def test_criterion_07_tail_statistics():
    t = time.monotonic()
    sim = TerminalSim(TerminalModelConfig(rng_seed=11))
    lats = [sim.step(T0 + k * 1000).pop_latency_ms for k in range(7200)]
    stats = dissect.percentiles(lats)
    filled, last = [], next(v for v in lats if v is not None)
    for v in lats:
        if v is not None:
            last = v
        filled.append(last)
    spikes = dissect.detect_spikes(filled, k_mult=2.0, min_persist_s=5)
    durs = [s.duration_s for s in spikes]
    ok = (30.0 <= stats.median <= 50.0
          and stats.p99 / stats.median > 2.4
          and len(spikes) > 0
          and all(d % 15 == 0 for d in durs))
    report(7, "tail statistics", ok,
           f"median={stats.median:.1f}ms p99/median={stats.p99 / stats.median:.2f} "
           f"spike_durations={durs}", t)


# --- 8: predictor suite ---------------------------------------------------

class _FixedModel:
    def __init__(self, preds):
        self.preds = list(preds)
        self._i = 0

    def predict_row(self, x):
        v = self.preds[self._i]
        self._i += 1
        return v


def test_criterion_08_predictor_suite():
    t = time.monotonic()
    # (a) metrics against an independent scalar-loop oracle
    rng = np.random.default_rng(9)
    actual = rng.uniform(10, 100, size=1000)
    preds = actual * rng.uniform(0.85, 1.15, size=1000)
    ds = predict.Dataset(np.arange(1000, dtype=np.int64) * 1000 + T0,
                         actual, np.ones((1000, 1)), ("x",))
    rep = predict.evaluate(_FixedModel(preds), ds)
    errs = [abs(p - a) / a for p, a in zip(preds, actual)]
    mape = 100.0 * sum(errs) / len(errs)
    rmse = math.sqrt(sum((p - a) ** 2 for p, a in zip(preds, actual)) / 1000)
    w5 = 100.0 * sum(e <= 0.05 for e in errs) / len(errs)
    w10 = 100.0 * sum(e <= 0.10 for e in errs) / len(errs)
    metrics_ok = (rep.mape_pct == pytest.approx(mape, abs=1e-9)
                  and rep.rmse == pytest.approx(rmse, abs=1e-9)
                  and rep.within5_pct == pytest.approx(w5, abs=1e-9)
                  and rep.within10_pct == pytest.approx(w10, abs=1e-9))

    # (b) ridge AR recovers a synthetic AR(1) process
    base = rng.uniform(20, 60, size=1200)
    names = ("h1", "h2", "h3", "h4", "h5")
    rows = np.column_stack([base[4:-1], base[3:-2], base[2:-3],
                            base[1:-4], base[:-5]])
    ts = np.arange(len(rows), dtype=np.int64) * 1000 + T0
    phi = 0.83
    ar_ds = predict.Dataset(ts, phi * rows[:, 0], rows, names)
    coeffs = predict.fit("ridge_ar", ar_ds).coefficients
    ar_ok = coeffs == pytest.approx([phi, 0, 0, 0, 0], abs=1e-6)
    ar_err = float(np.max(np.abs(np.asarray(coeffs) - [phi, 0, 0, 0, 0])))

    # (c) simulated trace: ridge AR under 10% MAPE and ahead of persistence
    sim = TerminalSim(TerminalModelConfig(rng_seed=13))
    samples = [sim.step(T0 + k * 1000) for k in range(2400)]
    from leobench.triggers import OrbitalContext
    trace_ds = predict.dataset_from_trace(
        samples, OrbitalContext(sim.site, sim.catalog))
    train, test = trace_ds.temporal_split(19 / 24)
    ridge = predict.evaluate(predict.fit("ridge_ar", train), test)
    pers = predict.evaluate(predict.fit("persistence", train), test)
    trace_ok = ridge.mape_pct <= 10.0 and ridge.mape_pct < pers.mape_pct

    ok = metrics_ok and ar_ok and trace_ok
    report(8, "predictor suite", ok,
           f"metrics_oracle={'ok' if metrics_ok else 'MISMATCH'} "
           f"ar1_err={ar_err:.2e} "
           f"ridge_mape={ridge.mape_pct:.2f}% persistence={pers.mape_pct:.2f}%", t)


# --- 9: congestion control sweep -----------------------------------------

ALPHAS = (10_000.0, 5000.0, 4000.0, 2000.0)
BETAS = (0.02, 0.04, 0.08, 0.16)


def test_criterion_09_cc_sweep():
    t = time.monotonic()
    # (a) PROBE_RTT cadence inside [alpha, alpha + 4*srtt] for all 16 cells
    cadence_bad = []
    lossless = LinkProfile.constant(20.0, 8e6, 0.0, 35)
    default_tput = 0.0
    for alpha in ALPHAS:
        for beta in BETAS:
            stats = run_flow("bbr2", CcParams(alpha, beta), lossless, 35, seed=3)
            if (alpha, beta) == (10_000.0, 0.02):
                default_tput = stats.mean_tput_bps()
            entries = stats.probe_rtt_entries
            if len(entries) < 2:
                cadence_bad.append((alpha, beta, "too few probes"))
                continue
            for (t0, _), (t1, srtt) in zip(entries, entries[1:]):
                gap = t1 - t0
                if not (alpha - 1e-6 <= gap <= alpha + 4.0 * srtt + 1e-6):
                    cadence_bad.append((alpha, beta, f"gap {gap:.0f}ms"))
                    break

    # (b) lossless goodput floor for the default parameters
    util = default_tput / 8e6
    util_ok = util >= 0.70

    # (c) a non-default cell must win on spiky lossy links within RTT budget
    profiles = [spiky_lossy_profile(45, capacity_bps=6e6, loss=0.02, seed=31),
                spiky_lossy_profile(45, capacity_bps=6e6, loss=0.05, seed=32)]
    res = sweep(ALPHAS, BETAS, profiles, 40, list(range(1, 11)))
    best = res.best
    cell_ok = (best is not None and best.tput_improvement_pct > 0.0
               and best.p95_rtt_inflation_pct < 10.0)

    # (d) fairness: bbr-vs-bbr near parity; aggressive corner starves cubic
    bottleneck = LinkProfile.constant(20.0, 24e6, 0.0, 40)
    self_res = fairness(4, 4, CcParams(), bottleneck, 40, [1, 2],
                        kind_a="bbr2", kind_b="bbr2")
    mix_default = fairness(8, 8, CcParams(), bottleneck, 40, [1])
    mix_aggr = fairness(8, 8, CcParams(2000.0, 0.16), bottleneck, 40, [1])
    fair_ok = (0.8 <= self_res.median_ratio <= 1.25
               and mix_aggr.median_ratio < mix_default.median_ratio)

    ok = not cadence_bad and util_ok and cell_ok and fair_ok
    best_txt = (f"best=a{best.alpha_ms:g}/b{best.beta:g} "
                f"+{best.tput_improvement_pct:.1f}%" if best else "best=none")
    report(9, "cc sweep", ok,
           f"cadence_violations={len(cadence_bad)} util={util:.0%} {best_txt} "
           f"self_fair={self_res.median_ratio:.2f} "
           f"cubic/bbr default={mix_default.median_ratio:.2f} "
           f"aggressive={mix_aggr.median_ratio:.2f}", t)


# --- 10: ABR controller and QoE ordering ---------------------------------

def _brute_force_first_action(buffer_s, last_q, pred, video, err=0.0,
                              horizon=5, startup=False):
    rates = np.atleast_1d(np.asarray(pred, dtype=float))
    if len(rates) == 1:
        rates = np.repeat(rates, horizon)
    rates = rates[:horizon] / (1.0 + err)
    best, pick = -np.inf, None
    for seq in itertools.product(range(video.n_qualities), repeat=horizon):
        buf = buffer_s
        prev = None if last_q is None else video.utility(last_q)
        total = 0.0
        for step, q in enumerate(seq):
            dl = video.chunk_bits(q) / (rates[step] * 1000.0)
            if startup and step == 0:
                buf = float(video.chunk_s)
            else:
                rebuf = max(0.0, dl - buf)
                buf = max(buf - dl, 0.0) + video.chunk_s
                total -= abr.REBUFFER_PENALTY_PER_S * rebuf
            u = video.utility(q)
            total += u
            if prev is not None:
                total -= abs(u - prev)
            prev = u
        if total > best:
            best, pick = total, seq
    return pick[0]


def test_criterion_10_abr():
    t = time.monotonic()
    video = abr.VideoSpec()
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(100):
        buf = float(rng.uniform(0.0, 30.0))
        last_q = int(rng.integers(0, video.n_qualities)) \
            if rng.random() < 0.8 else None
        if rng.random() < 0.5:
            pred = float(rng.uniform(150.0, 6000.0))
        else:
            pred = rng.uniform(150.0, 6000.0, size=5)
        err = float(rng.uniform(0.0, 1.2))
        startup = bool(rng.random() < 0.3)
        got = abr.mpc_decide(buf, last_q, pred, video, err, startup=startup)
        want = _brute_force_first_action(buf, last_q, pred, video, err,
                                         startup=startup)
        mismatches += got != want

    traces = abr.terminal_traces(125, 400, seed=2)
    cmp = abr.compare_variants(traces, video, seed=2, model_kind="ridge_ar",
                               train_frac=0.2)
    sessions = len(cmp.qoe["mpc_d"])
    med = {v: cmp.median(v) for v in abr.VARIANTS}
    order_ok = (med["mpc_o"] >= med["mpc_l"] - 1e-9
                and med["mpc_l"] >= med["mpc_d"] - 0.02 * abs(med["mpc_d"])
                and med["mpc_o"] > med["mpc_d"])
    ok = mismatches == 0 and sessions == 100 and order_ok
    report(10, "abr", ok,
           f"oracle_mismatches={mismatches}/100 sessions={sessions} "
           f"median QoE O={med['mpc_o']:.1f} L={med['mpc_l']:.1f} "
           f"D={med['mpc_d']:.1f}", t)


# --- 11: full stack over real sockets ------------------------------------

def test_criterion_11_end_to_end(tmp_path):
    t = time.monotonic()
    svc = TelemetryServer(TerminalSim(TerminalModelConfig(rng_seed=3)), interval_s=0.25)
    orch = Orchestrator(["n1", "n2"], heartbeat_interval_s=2.0)
    srv, _ = orch.serve("127.0.0.1", 0)
    port = srv.getsockname()[1]
    store_root = tmp_path / "store"

    agents, stops, threads = [], [], []
    try:
        for nid in ("n1", "n2"):
            ag = Agent(nid, OrchestratorClient("127.0.0.1", port),
                       ResultsStore(store_root),
                       SocketSource("127.0.0.1", svc.port),
                       workdir=tmp_path / f"wd-{nid}",
                       heartbeat_every_s=2.0)
            stop = threading.Event()
            th = threading.Thread(
                target=ag.run_forever,
                kwargs={"tick_interval_s": 0.25, "stop_event": stop},
                daemon=True)
            agents.append(ag)
            stops.append(stop)
            threads.append(th)

        now = int(time.time() * 1000)
        win = (now + 2000, now + 8000)
        orch.submit_experiment({
            "id": "e2e-ping", "kind": "PING", "overhead": "NO_OVERHEAD",
            "clients": ["n1"], "schedule": {"windows": [list(win)]},
            "params": {}})
        orch.submit_experiment({
            "id": "e2e-trace", "kind": "TRACEROUTE", "overhead": "NO_OVERHEAD",
            "clients": ["n2"],
            "schedule": {"trigger": {"trigger": "latency_ms >= 1",
                                     "max_runtime_s": 2, "cooldown_s": 3600,
                                     "budget_per_day": 1}},
            "params": {"target": "8.8.8.8"}})
        for th in threads:
            th.start()

        deadline = time.monotonic() + 90
        states = {}
        while time.monotonic() < deadline:
            states = {eid: orch.query(eid)["runs"][0]["state"]
                      for eid in ("e2e-ping", "e2e-trace")}
            if all(v == "COMPLETED" for v in states.values()):
                break
            time.sleep(0.5)
    finally:
        for stop in stops:
            stop.set()
        for th in threads:
            th.join(timeout=5)
        srv.close()
        orch.close()
        svc.close()

    completed = all(v == "COMPLETED" for v in states.values())
    layout_ok, rows_ok, clean_ok = True, True, True
    store = ResultsStore(store_root)
    label_re = re.compile(r"^\d{8}T\d{6}Z$")
    for eid, nid, data in (("e2e-ping", "n1", "ping.csv"),
                           ("e2e-trace", "n2", "traceroute.csv")):
        runs = store.list_runs(eid)
        if len(runs) != 1 or runs[0][0] != nid or not label_re.match(runs[0][1]):
            layout_ok = False
            continue
        path = runs[0][2]
        if sorted(p.name for p in path.iterdir()) != \
                sorted(["manifest.json", data, "stdout.log"]):
            layout_ok = False
        manifest = json.loads((path / "manifest.json").read_text())
        if manifest["state"] != "COMPLETED" or manifest["row_count"] < 1:
            layout_ok = False
        if eid == "e2e-ping":
            rows = (path / data).read_text().splitlines()[1:]
            ts = [int(r.split(",")[0]) for r in rows]
            rows_ok = bool(ts) and all(win[0] <= x < win[1] for x in ts)
    for ag in agents:
        leftovers = [p.name for p in ag.workdir.iterdir() if p.name != "_state"]
        if leftovers or list((ag.workdir / "_state").iterdir()):
            clean_ok = False

    ok = completed and layout_ok and rows_ok and clean_ok
    report(11, "end-to-end smoke", ok,
           f"states={states} layout={'ok' if layout_ok else 'BAD'} "
           f"ping_rows_in_window={'ok' if rows_ok else 'BAD'} "
           f"workdirs_clean={'ok' if clean_ok else 'BAD'}", t)

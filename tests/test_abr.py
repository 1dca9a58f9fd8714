import csv
import hashlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobench.abr import (
    REBUFFER_PENALTY_PER_S,
    VARIANTS,
    ChunkRecord,
    MpcController,
    QoeRecord,
    TputTrace,
    TraceTooShort,
    VideoSpec,
    chunk_log_csv,
    chunk_rate_dataset,
    compare_variants,
    make_controller,
    mpc_decide,
    oracle_predictor,
    session_decisions,
    simulate_session,
    terminal_traces,
    white_noise_traces,
)

LADDER = (300, 450, 675, 1013, 1519, 2278)


class FixedSchedule:
    """Plays back a preset quality list; used to enumerate decision pairs."""

    def __init__(self, qualities):
        self.qualities = list(qualities)

    def decide(self, state):
        return self.qualities[state.chunk_idx]


def test_video_spec_validation():
    VideoSpec()
    with pytest.raises(ValueError):
        VideoSpec(duration_s=10, chunk_s=4)  # not a whole number of chunks
    with pytest.raises(ValueError):
        VideoSpec(ladder_kbps=(300, 600))    # ratio 2.0
    with pytest.raises(ValueError):
        VideoSpec(ladder_kbps=(450, 300, 675, 1013, 1519, 2278))
    with pytest.raises(ValueError):
        VideoSpec(ladder_kbps=(300,))


def test_video_spec_shape():
    video = VideoSpec()
    assert video.n_chunks == 45
    assert video.n_qualities == 6
    assert video.chunk_bits(0) == 300 * 1000 * 4
    assert video.utility(5) == pytest.approx(2.278)
    for lo, hi in zip(video.ladder_kbps, video.ladder_kbps[1:]):
        assert 1.4 <= hi / lo <= 1.6
    scaled = video.scaled(2.0)
    assert scaled.ladder_kbps[0] == 600
    assert scaled.n_chunks == 45


def test_qoe_record_formula():
    rec = QoeRecord(sum_bitrate_utility=10.0, rebuffer_s=2.0,
                    smoothness_penalty=1.5)
    assert rec.qoe == pytest.approx(10.0 - 4.3 * 2.0 - 1.5)
    with pytest.raises(ValueError):
        QoeRecord(1.0, -0.1, 0.0)


def test_download_time_hand_cases():
    trace = TputTrace([1000.0, 2000.0, 500.0])
    # whole chunk inside second 0
    assert trace.download_time_s(0.0, 500_000) == pytest.approx(0.5)
    # fractional start
    assert trace.download_time_s(0.5, 250_000) == pytest.approx(0.25)
    # spans the rate change: 1000k in second 0, then 1000k at 2000 kbps
    assert trace.download_time_s(0.0, 2_000_000) == pytest.approx(1.5)
    # zero-capacity second is simply waited out
    stall = TputTrace([1000.0, 0.0, 1000.0])
    assert stall.download_time_s(0.0, 1_500_000) == pytest.approx(2.5)


def test_trace_too_short():
    trace = TputTrace([1000.0, 1000.0])
    with pytest.raises(TraceTooShort):
        trace.download_time_s(0.0, 10_000_000)
    with pytest.raises(TraceTooShort):
        trace.download_time_s(5.0, 1000)


def test_trace_csv_round_trip():
    trace = TputTrace([1500.5, 2000.0, 800.25])
    text = trace.to_csv()
    assert text.splitlines()[0] == "ts_ms,tput_kbps"
    back = TputTrace.from_csv(text)
    assert np.allclose(back.tput_kbps, trace.tput_kbps)


def test_future_harmonic_window():
    trace = TputTrace([2000.0] * 4 + [500.0] * 4)
    # 8 s window: 8 / (4/2000 + 4/500)
    assert trace.future_harmonic_kbps(0.0, 8.0) == pytest.approx(800.0)
    assert trace.future_harmonic_kbps(4.0, 4.0) == pytest.approx(500.0)
    # past the end: last value carries
    assert trace.future_harmonic_kbps(20.0, 4.0) == pytest.approx(500.0)


def test_mpc_limit_cases():
    video = VideoSpec()
    assert mpc_decide(60.0, 5, 50_000.0, video) == 5
    assert mpc_decide(0.0, None, 200.0, video) == 0
    assert mpc_decide(0.0, 0, -5.0, video) == 0


def brute_force_first_action(buffer_s, last_q, pred, video, err=0.0,
                             horizon=5, startup=False):
    """Plain-loop reference: same plan semantics, strict improvement test,
    lexicographic enumeration order."""
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
                total -= REBUFFER_PENALTY_PER_S * rebuf
            u = video.utility(q)
            total += u
            if prev is not None:
                total -= abs(u - prev)
            prev = u
        if total > best:
            best, pick = total, seq
    return pick[0]


def test_mpc_matches_brute_force_enumeration():
    video = VideoSpec()
    rng = np.random.default_rng(5)
    for _ in range(40):
        buf = float(rng.uniform(0.0, 30.0))
        last_q = int(rng.integers(0, 6)) if rng.random() < 0.8 else None
        if rng.random() < 0.5:
            pred = float(rng.uniform(150.0, 6000.0))
        else:
            pred = rng.uniform(150.0, 6000.0, size=5)
        err = float(rng.uniform(0.0, 1.2))
        startup = bool(rng.random() < 0.3)
        got = mpc_decide(buf, last_q, pred, video, err, startup=startup)
        want = brute_force_first_action(buf, last_q, pred, video, err,
                                        startup=startup)
        assert got == want


@st.composite
def mpc_problems(draw):
    """Inputs where many sequences tie: rates equal to ladder steps (each
    download then takes exactly one chunk of buffer) or far above them,
    buffers on whole chunks, and ladders scaled or cut to two qualities."""
    video = draw(st.sampled_from([VideoSpec(), VideoSpec().scaled(0.5),
                                  VideoSpec().scaled(3.0),
                                  VideoSpec(ladder_kbps=(100, 150))]))
    rate = st.one_of(st.sampled_from(video.ladder_kbps + (1e9,)),
                     st.floats(50.0, 1e4))
    pred = draw(st.one_of(rate, st.lists(rate, min_size=1, max_size=6)))
    buf = draw(st.one_of(st.sampled_from([0.0, 4.0, 8.0]), st.floats(0.0, 30.0)))
    last_q = draw(st.one_of(st.none(), st.integers(0, video.n_qualities - 1)))
    err = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)))
    return buf, last_q, pred, video, err, draw(st.integers(1, 5)), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(mpc_problems())
def test_mpc_matches_brute_force_on_ties(problem):
    """The prefix search picks the plain loop's first maximal sequence; a
    rate vector shorter than the horizon repeats its last rate."""
    buf, last_q, pred, video, err, horizon, startup = problem
    rates = np.atleast_1d(np.asarray(pred, dtype=float))
    padded = np.concatenate([rates, np.repeat(rates[-1:], max(0, horizon - len(rates)))])
    want = brute_force_first_action(buf, last_q, padded, video, err,
                                    horizon=horizon, startup=startup)
    assert mpc_decide(buf, last_q, pred, video, err, horizon=horizon,
                      startup=startup) == want


def test_robust_correction_divides_prediction():
    video = VideoSpec()
    for buf in (0.0, 6.0, 14.0):
        a = mpc_decide(buf, 2, 3000.0, video, robust_error=1.0)
        b = mpc_decide(buf, 2, 1500.0, video, robust_error=0.0)
        assert a == b


def test_infinite_capacity_plays_top_quality_without_rebuffer():
    video = VideoSpec()
    trace = TputTrace(np.full(60, 1e7))
    rec, log = simulate_session(trace, video, make_controller("mpc_o", video))
    assert all(r.quality == video.n_qualities - 1 for r in log[1:])
    assert rec.rebuffer_s == 0.0


def test_capacity_at_lowest_bitrate_sustainable():
    """At capacity == lowest bitrate the oracle settles on the lowest rung
    with zero rebuffering. The startup chunk may ride one rung higher (its
    download is never charged); the net QoE equals all-lowest exactly."""
    video = VideoSpec()
    trace = TputTrace(np.full(400, 300.0))
    rec, log = simulate_session(trace, video, make_controller("mpc_o", video))
    assert all(r.quality == 0 for r in log[1:])
    assert rec.rebuffer_s == 0.0
    assert rec.qoe == pytest.approx(45 * 0.3)


def test_startup_not_charged_and_steady_state_exact():
    """All-lowest schedule on a 500 kbps link: every download takes 2.4 s
    against a 4 s buffer, so QoE is pure utility."""
    video = VideoSpec()
    trace = TputTrace(np.full(200, 500.0))
    rec, log = simulate_session(trace, video, FixedSchedule([0] * 45))
    assert rec.rebuffer_s == 0.0
    assert rec.smoothness_penalty == 0.0
    assert rec.qoe == pytest.approx(45 * 0.3)
    assert log[0].download_ms == pytest.approx(2400.0)
    assert log[0].rebuffer_ms == 0.0


def test_rebuffer_accrual_exact():
    """Quality 1 (450 kbps) on a 300 kbps link: 6 s downloads against 4 s
    of buffer cost 2 s of stall per steady-state chunk."""
    video = VideoSpec()
    trace = TputTrace(np.full(400, 300.0))
    rec, log = simulate_session(trace, video, FixedSchedule([1] * 45))
    assert rec.rebuffer_s == pytest.approx(44 * 2.0)
    assert log[0].rebuffer_ms == 0.0          # startup chunk
    assert log[1].rebuffer_ms == pytest.approx(2000.0)
    assert rec.qoe == pytest.approx(45 * 0.45 - 4.3 * 88.0)


TWO_CHUNK_VIDEO = VideoSpec(duration_s=8, chunk_s=4)
TWO_CHUNK_TRACE = [2000.0] * 4 + [500.0] * 56


def hand_two_chunk_outcome(q1, q2):
    """Independent arithmetic for a two-chunk session on the fixture trace:
    4 s at 2000 kbps, then 500 kbps."""
    def dl_time(start, kbits):
        fast_left = max(0.0, 4.0 - start)
        fast_bits = 2000.0 * fast_left
        if kbits <= fast_bits:
            return kbits / 2000.0
        return fast_left + (kbits - fast_bits) / 500.0

    kbits1 = LADDER[q1] * 4.0
    kbits2 = LADDER[q2] * 4.0
    dl1 = dl_time(0.0, kbits1)
    dl2 = dl_time(dl1, kbits2)
    rebuf = max(0.0, dl2 - 4.0)
    u1, u2 = LADDER[q1] / 1000.0, LADDER[q2] / 1000.0
    qoe = u1 + u2 - REBUFFER_PENALTY_PER_S * rebuf - abs(u2 - u1)
    return dl1, dl2, rebuf, qoe


def test_two_chunk_table_all_pairs():
    """Each of the 36 fixed decision pairs must reproduce the hand table."""
    trace = TputTrace(TWO_CHUNK_TRACE)
    for q1 in range(6):
        for q2 in range(6):
            dl1, dl2, rebuf, qoe = hand_two_chunk_outcome(q1, q2)
            rec, log = simulate_session(trace, TWO_CHUNK_VIDEO,
                                        FixedSchedule([q1, q2]))
            assert log[0].download_ms == pytest.approx(dl1 * 1000.0)
            assert log[1].download_ms == pytest.approx(dl2 * 1000.0)
            assert rec.rebuffer_s == pytest.approx(rebuf)
            assert rec.qoe == pytest.approx(qoe)


def test_two_chunk_oracle_decisions_re_derived():
    """The controller's two sequential choices must equal a from-scratch
    replay of its plan: window rates, robust correction, truncation."""
    trace = TputTrace(TWO_CHUNK_TRACE)
    video = TWO_CHUNK_VIDEO
    # decision 1: startup chunk, windows [0,4) and [4,8)
    rates1 = [trace.future_harmonic_kbps(0.0, 4.0),
              trace.future_harmonic_kbps(4.0, 4.0)]
    d1 = brute_force_first_action(0.0, None, np.array(rates1), video,
                                  horizon=2, startup=True)
    dl1, _, _, _ = hand_two_chunk_outcome(d1, 0)
    # decision 2: horizon truncates to one chunk; robust error from chunk 1
    actual1 = LADDER[d1] * 4.0 / dl1
    err = abs(rates1[0] - actual1) / actual1
    rates2 = [trace.future_harmonic_kbps(dl1, 4.0)]
    d2 = brute_force_first_action(4.0, d1, np.array(rates2), video,
                                  err=err, horizon=1)
    got = session_decisions(trace, video, make_controller("mpc_o", video))
    assert got == [d1, d2]


def test_chunk_log_csv_format():
    records = [ChunkRecord(0, 3, 1234.5, 0.0, 4.0),
               ChunkRecord(1, 4, 2500.0, 120.0, 3.88)]
    text = chunk_log_csv(records)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0].keys()) == ["chunk_idx", "quality", "download_ms",
                                    "rebuffer_ms", "buffer_s"]
    assert rows[1]["quality"] == "4"
    assert float(rows[1]["rebuffer_ms"]) == pytest.approx(120.0)


def test_session_determinism():
    video = VideoSpec()
    trace = terminal_traces(1, 200, seed=9)[0]
    a = simulate_session(trace, video, make_controller("mpc_d", video))
    b = simulate_session(trace, video, make_controller("mpc_d", video))
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_oracle_dominates_both_variants():
    video = VideoSpec()
    traces = terminal_traces(130, 200, capacity_base_kbps=3000.0, seed=3)
    result = compare_variants(traces, video, seed=1)
    assert len(result.qoe["mpc_d"]) >= 100
    assert result.median("mpc_o") >= result.median("mpc_d")
    assert result.median("mpc_o") >= result.median("mpc_l")


def test_perfect_predictor_matches_oracle_decisions():
    video = VideoSpec()
    for trace in terminal_traces(3, 200, seed=6):
        oracle = session_decisions(trace, video, make_controller("mpc_o", video))
        perfect = session_decisions(trace, video,
                                    MpcController(video, oracle_predictor))
        assert perfect == oracle


def test_persistence_backend_matches_harmonic_on_white_noise():
    """White noise has no learnable structure, so a last-value model and
    the harmonic mean land in the same QoE band."""
    video = VideoSpec()
    traces = white_noise_traces(120, 200, 2500.0, 500.0, seed=7)
    result = compare_variants(traces, video, seed=2, model_kind="persistence")
    d, l = result.median("mpc_d"), result.median("mpc_l")
    assert abs(d - l) <= 2.0
    assert result.median("mpc_o") >= max(d, l)


def test_added_capacity_never_hurts_oracle():
    video = VideoSpec()
    for trace in terminal_traces(15, 200, seed=8):
        base = simulate_session(trace, video, make_controller("mpc_o", video))[0]
        more = simulate_session(trace.add_kbps(500.0), video,
                                make_controller("mpc_o", video))[0]
        assert more.qoe >= base.qoe - 1e-9


def test_compare_variants_validation():
    video = VideoSpec()
    with pytest.raises(ValueError):
        compare_variants(white_noise_traces(5, 200, 2000, 300), video)
    with pytest.raises(ValueError):
        make_controller("mpc_x", video)
    with pytest.raises(ValueError):
        make_controller("mpc_l", video)  # no model


def test_chunk_rate_dataset_lags():
    video = VideoSpec(duration_s=8, chunk_s=4)
    trace = TputTrace([1000.0] * 4 + [2000.0] * 4 + [3000.0] * 4
                      + [4000.0] * 4 + [5000.0] * 4 + [6000.0] * 4
                      + [7000.0] * 4)
    ds = chunk_rate_dataset([trace], video)
    assert ds.feature_names == ["h1", "h2", "h3", "h4", "h5"]
    # first row: target chunk 6 (6000), h1 = chunk 5 (5000), ... h5 = chunk 1
    assert ds.targets[0] == pytest.approx(6000.0)
    assert list(ds.features[0]) == pytest.approx([5000, 4000, 3000, 2000, 1000])


def _abr_digest_bytes():
    """QoE lists of compare_variants on spiky and white-noise sessions, each
    variant's decisions on one white-noise session, and that session's
    chunk log under the oracle."""
    video = VideoSpec()
    parts = []
    for traces in (terminal_traces(12, 200, seed=3),
                   white_noise_traces(12, 200, 2500.0, 500.0, seed=7)):
        result = compare_variants(traces, video, seed=1)
        for variant in VARIANTS:
            parts.append(np.array(result.qoe[variant]).tobytes())
    trace = traces[0]
    for variant in VARIANTS:
        controller = make_controller(variant, video, result.model)
        parts.append(np.array(session_decisions(trace, video, controller)).tobytes())
    _, log = simulate_session(trace, video, make_controller("mpc_o", video))
    parts.append(chunk_log_csv(log).encode())
    return b"".join(parts)


# sha256 of _abr_digest_bytes, pinned on the exhaustive 6**5-row MPC
# search, so any change in any bit of a QoE value or any decision shows
GOLDEN_ABR = "a6d7eddc5b8a4876c73b4c3c959a6fcf86d16e047be180816eb8b6b57173a40f"


def test_abr_golden_digest():
    assert hashlib.sha256(_abr_digest_bytes()).hexdigest() == GOLDEN_ABR

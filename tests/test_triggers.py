import numpy as np
import pytest

from leobench.orbital import GroundSite, synthetic_constellation, visible_sats
from leobench.telemetry import TelemetryWindow
from leobench.terminal_sim import TelemetrySample
from leobench.triggers import (
    MAX_TRIGGER_NESTING,
    Arith,
    BindingState,
    BoolOp,
    Compare,
    MAvg,
    Metric,
    Num,
    OrbitalContext,
    TriggerBinding,
    TriggerState,
    TriggerSyntaxError,
    TriggerTypeError,
    UnknownMetric,
    evaluate,
    parse_trigger,
    pretty,
    savings_report,
)

T0 = 1_760_000_000_000


def window_of(latencies, t0=T0, drops=None):
    w = TelemetryWindow()
    for i, v in enumerate(latencies):
        drop = drops[i] if drops else 0.001
        state = "ACTIVE" if v is not None else "OUTAGE"
        w.push(TelemetrySample(t0 + i * 1000, v, None if v is None else drop,
                               1.0, 65.0, 0, 0, state))
    return w


# --- parsing -------------------------------------------------------------

def test_flagship_expressions_parse():
    ast = parse_trigger("latency_ms > 10 * mavg(latency_ms, 10)")
    assert ast == Compare(">", Metric("latency_ms"),
                          Arith("*", Num(10.0), MAvg("latency_ms", 10)))
    ast2 = parse_trigger("latency_ms >= 2 * mavg(latency_ms, 5)")
    assert ast2 == Compare(">=", Metric("latency_ms"),
                           Arith("*", Num(2.0), MAvg("latency_ms", 5)))


def test_unknown_metric():
    with pytest.raises(UnknownMetric):
        parse_trigger("latency_ms > banana")
    with pytest.raises(UnknownMetric):
        parse_trigger("mavg(banana, 5) > 1")


def test_syntax_errors_carry_position():
    with pytest.raises(TriggerSyntaxError) as exc:
        parse_trigger("latency_ms > 5 %")
    assert exc.value.position == 15
    with pytest.raises(TriggerSyntaxError):
        parse_trigger("latency_ms")  # bare term is not a condition
    with pytest.raises(TriggerSyntaxError):
        parse_trigger("latency_ms > 5 loss_rate < 1")  # trailing input
    with pytest.raises(TriggerSyntaxError):
        parse_trigger("(latency_ms > 5")  # unclosed paren


@pytest.mark.parametrize("opener,closer", [("(", ")"), ("NOT ", ""), ("NOT (", ")")])
def test_nesting_past_the_bound_is_a_syntax_error(opener, closer):
    def nested(levels):
        return opener * levels + "latency_ms > 5" + closer * levels
    parse_trigger(nested(MAX_TRIGGER_NESTING // len(opener.split())))
    with pytest.raises(TriggerSyntaxError, match="nested"):
        parse_trigger(nested(MAX_TRIGGER_NESTING + 1))
    with pytest.raises(TriggerSyntaxError, match="nested"):
        parse_trigger(nested(1500))   # past the recursion limit, before the bound


def test_type_rules():
    with pytest.raises(TriggerTypeError):
        parse_trigger("latency_ms / 0 > 1")
    with pytest.raises(TriggerTypeError):
        parse_trigger("latency_ms / loss_rate > 1")  # divisor must be constant
    with pytest.raises(TriggerTypeError):
        parse_trigger("mavg(latency_ms, 0) > 1")
    with pytest.raises(TriggerTypeError):
        parse_trigger("mavg(latency_ms, 2.5) > 1")


def test_keywords_case_insensitive():
    a = parse_trigger("latency_ms > 5 AND NOT (loss_rate > 0.5)")
    b = parse_trigger("latency_ms > 5 and not (loss_rate > 0.5)")
    c = parse_trigger("latency_ms > 5 aNd nOt (loss_rate > 0.5)")
    assert a == b == c


def test_arithmetic_precedence():
    ast = parse_trigger("latency_ms > 2 + 3 * 4")
    assert ast.right == Arith("+", Num(2.0), Arith("*", Num(3.0), Num(4.0)))
    w = window_of([13.0])
    assert evaluate(parse_trigger("latency_ms < 2 + 3 * 4"), w) is TriggerState.FIRE
    assert evaluate(parse_trigger("latency_ms > 2 + 3 * 4"), w) is TriggerState.HOLD


ROUND_TRIP_CASES = [
    "latency_ms > 10 * mavg(latency_ms, 10)",
    "latency_ms >= 2 * mavg(latency_ms, 5)",
    "NOT (latency_ms > 50 AND loss_rate > 0.01) OR el_deg < 30",
    "latency_ms - 5 > mavg(latency_ms, 3) / 2 AND visible_sats(25) >= 1",
    "az_deg > 0.5 AND az_deg < 1.5 AND NOT loss_rate >= 0.1",
    "latency_ms > 20 OR (loss_rate > 0.05 OR el_deg <= 64.9)",
]


def test_pretty_round_trip():
    for text in ROUND_TRIP_CASES:
        ast = parse_trigger(text)
        assert parse_trigger(pretty(ast)) == ast, text


# --- evaluation ----------------------------------------------------------

SPIKE_EXPR = "latency_ms >= 2 * mavg(latency_ms, 5)"


def test_spike_comparison_states():
    w = window_of([30, 30, 30, 30, 30, 70])
    assert evaluate(parse_trigger(SPIKE_EXPR), w) is TriggerState.FIRE
    w2 = window_of([30, 30, 30, 30, 30, 55])
    assert evaluate(parse_trigger(SPIKE_EXPR), w2) is TriggerState.HOLD


def test_insufficient_history_on_short_window():
    w = window_of([30, 30, 30])
    assert evaluate(parse_trigger(SPIKE_EXPR), w) is TriggerState.INSUFFICIENT_HISTORY


def test_strict_no_short_circuit():
    w = window_of([30] * 10)
    expr = parse_trigger("latency_ms > 1e9 AND mavg(latency_ms, 50) > 0")
    # lazy AND would return HOLD off the false left side
    assert evaluate(expr, w) is TriggerState.INSUFFICIENT_HISTORY
    expr_or = parse_trigger("latency_ms < 1e9 OR mavg(latency_ms, 50) > 0")
    assert evaluate(expr_or, w) is TriggerState.INSUFFICIENT_HISTORY


def test_outage_sample_gives_insufficient():
    w = window_of([30, 30, 30, 30, 30, 30, None])
    assert evaluate(parse_trigger("latency_ms > 5"), w) is TriggerState.INSUFFICIENT_HISTORY


def test_weather_stub_is_insufficient():
    w = window_of([30] * 10)
    assert evaluate(parse_trigger("weather > 5"), w) is TriggerState.INSUFFICIENT_HISTORY


def test_de_morgan_on_random_windows():
    rng = np.random.default_rng(11)
    lhs = parse_trigger("NOT (latency_ms > 40 AND loss_rate > 0.002)")
    rhs = parse_trigger("NOT latency_ms > 40 OR NOT loss_rate > 0.002")
    for _ in range(200):
        n = int(rng.integers(1, 12))
        lats = rng.uniform(20, 60, size=n)
        drops = rng.uniform(0, 0.004, size=n)
        w = window_of(list(lats), drops=list(drops))
        assert evaluate(lhs, w) is evaluate(rhs, w)


def test_visible_sats_metric_matches_orbital():
    catalog = synthetic_constellation()
    site = GroundSite(47.6, -122.3)
    ctx = OrbitalContext(site, catalog)
    now_ms = int(catalog[0].epoch.timestamp() * 1000) + 600_000
    from datetime import datetime, timezone
    t = datetime.fromtimestamp(now_ms / 1000, tz=timezone.utc)
    count = len(visible_sats(site, catalog, t, 25.0))
    w = window_of([30] * 6)
    expr = parse_trigger(f"visible_sats(25) == {count}")
    assert evaluate(expr, w, orbital=ctx, now_ms=now_ms) is TriggerState.FIRE
    # no orbital context configured -> third state, not an exception
    assert evaluate(expr, w, orbital=None, now_ms=now_ms) is TriggerState.INSUFFICIENT_HISTORY


# --- binding state -------------------------------------------------------

def test_budget_and_cooldown_enforced():
    binding = TriggerBinding(parse_trigger(SPIKE_EXPR), "exp-1",
                             max_runtime_s=60, cooldown_s=300, budget_per_day=5)
    state = BindingState(binding)
    rng = np.random.default_rng(5)
    fires = []
    now = T0
    for _ in range(3000):
        now += int(rng.integers(30, 240)) * 1000
        if state.can_fire(now):
            state.note_fire(now)
            fires.append(now)
    assert len(fires) >= 10  # spans multiple days
    gaps = np.diff(fires)
    assert gaps.min() >= binding.cooldown_s * 1000
    for t in fires:
        in_day = [f for f in fires if t - 86_400_000 < f <= t]
        assert len(in_day) <= binding.budget_per_day


# --- savings -------------------------------------------------------------

def test_savings_always_on_24h():
    binding = TriggerBinding(parse_trigger(SPIKE_EXPR), "cap",
                             max_runtime_s=360, cooldown_s=0, budget_per_day=24)
    rep = savings_report(binding, 86_400, 40e6, header_fraction=138 / 3456)
    assert rep.transferred == pytest.approx(3.456e12)
    assert rep.stored == pytest.approx(138e9, rel=1e-9)
    # 24 fires x 360 s = 10% duty cycle
    assert rep.saved_transfer == pytest.approx(3.456e12 * 0.9)
    assert rep.saved_storage == pytest.approx(124.2e9, rel=1e-9)


def test_savings_zero_at_full_duty():
    binding = TriggerBinding(parse_trigger(SPIKE_EXPR), "cap",
                             max_runtime_s=360, budget_per_day=240)
    rep = savings_report(binding, 86_400, 40e6, header_fraction=0.04)
    assert rep.saved_transfer == 0.0
    assert rep.saved_storage == 0.0


def test_savings_scales_with_period():
    binding = TriggerBinding(parse_trigger(SPIKE_EXPR), "cap",
                             max_runtime_s=360, budget_per_day=24)
    one = savings_report(binding, 86_400, 40e6, 0.04)
    two = savings_report(binding, 2 * 86_400, 40e6, 0.04)
    assert two.transferred == pytest.approx(2 * one.transferred)
    assert two.saved_transfer == pytest.approx(2 * one.saved_transfer)

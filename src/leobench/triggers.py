"""Boolean trigger expressions over telemetry and orbital signals.

Agents poll a compiled trigger once per second to decide whether a
trigger-scheduled experiment should start. The language is deliberately
tiny: numeric terms (metrics, constants, + - * /), six comparison
operators, and AND/OR/NOT. Evaluation is three-valued so an expression
whose history has not filled up yet reports INSUFFICIENT_HISTORY instead
of raising in the agent's poll loop.

Grammar (keywords case-insensitive):

    expr   := or
    or     := and ('OR' and)*
    and    := cmp ('AND' cmp)*
    cmp    := term relop term | 'NOT' cmp | '(' expr ')'
    term   := mulend (('+'|'-') mulend)*
    mulend := factor (('*'|'/') factor)*
    factor := NUMBER | metric | 'mavg' '(' metric ',' NUMBER ')'
            | 'visible_sats' '(' NUMBER ')'

Division is only defined by a nonzero constant. `mavg(m, n)` averages the
n windows before the current sample, so a fresh spike is compared against
clean history. `weather` parses but its provider is a stub, so any
expression touching it evaluates to INSUFFICIENT_HISTORY. `visible_sats`
needs an OrbitalContext, which no agent holds, so the orchestrator refuses
at submit a trigger that `reads_orbital_state`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .orbital import GroundSite, TleRecord, visible_sats
from .telemetry import METRIC_GETTERS, InsufficientHistory, TelemetryWindow


class TriggerSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownMetric(ValueError):
    pass


class TriggerTypeError(TypeError):
    pass


class TriggerState(enum.Enum):
    FIRE = "FIRE"
    HOLD = "HOLD"
    INSUFFICIENT_HISTORY = "INSUFFICIENT_HISTORY"


# metrics resolved from the sample window
SAMPLE_METRICS = tuple(METRIC_GETTERS)
# metrics that parse but have no source yet: always insufficient history
PROVIDER_METRICS = ("weather",)

RELOPS = (">=", "<=", "==", "!=", ">", "<")


# --- AST -----------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Metric(Expr):
    name: str


@dataclass(frozen=True)
class MAvg(Expr):
    metric: str
    n: int


@dataclass(frozen=True)
class VisibleSatsMetric(Expr):
    mask_deg: float


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Compare(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # and | or
    left: Expr
    right: Expr


# --- tokenizer -----------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op>>=|<=|==|!=|[><+\-*/(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise TriggerSyntaxError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        if kind != "ws":
            out.append(_Tok(kind, m.group(), i))
        i = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self) -> _Tok:
        tok = self._peek()
        if tok is None:
            raise TriggerSyntaxError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def _expect(self, text: str) -> _Tok:
        tok = self._next()
        if tok.text != text:
            raise TriggerSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def _keyword(self, word: str) -> bool:
        tok = self._peek()
        if tok and tok.kind == "name" and tok.text.lower() == word:
            self.i += 1
            return True
        return False

    # expr := or
    def parse(self) -> Expr:
        node = self._or()
        tok = self._peek()
        if tok is not None:
            raise TriggerSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def _or(self) -> Expr:
        node = self._and()
        while self._keyword("or"):
            node = BoolOp("or", node, self._and())
        return node

    def _and(self) -> Expr:
        node = self._cmp()
        while self._keyword("and"):
            node = BoolOp("and", node, self._cmp())
        return node

    def _cmp(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise TriggerSyntaxError("unexpected end of expression", len(self.text))
        if tok.kind == "name" and tok.text.lower() == "not":
            self.i += 1
            return Not(self._cmp())
        if tok.text == "(":
            self.i += 1
            inner = self._or()
            self._expect(")")
            return inner
        left = self._term()
        op_tok = self._peek()
        if op_tok is None or op_tok.text not in RELOPS:
            pos = op_tok.pos if op_tok else len(self.text)
            raise TriggerSyntaxError("expected a comparison operator", pos)
        self.i += 1
        right = self._term()
        return Compare(op_tok.text, left, right)

    def _term(self) -> Expr:
        node = self._mulend()
        while True:
            tok = self._peek()
            if tok and tok.text in ("+", "-"):
                self.i += 1
                node = Arith(tok.text, node, self._mulend())
            else:
                return node

    def _mulend(self) -> Expr:
        node = self._factor()
        while True:
            tok = self._peek()
            if tok and tok.text in ("*", "/"):
                self.i += 1
                right = self._factor()
                if tok.text == "/":
                    if not isinstance(right, Num):
                        raise TriggerTypeError("division is only defined by a constant")
                    if right.value == 0:
                        raise TriggerTypeError("division by zero constant")
                node = Arith(tok.text, node, right)
            else:
                return node

    def _factor(self) -> Expr:
        tok = self._next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind != "name":
            raise TriggerSyntaxError(f"expected a metric or number, found {tok.text!r}", tok.pos)
        name = tok.text.lower()
        if name == "mavg":
            self._expect("(")
            m_tok = self._next()
            metric = m_tok.text.lower()
            if m_tok.kind != "name" or metric not in SAMPLE_METRICS:
                raise UnknownMetric(f"mavg over unknown metric {m_tok.text!r}")
            self._expect(",")
            n_tok = self._next()
            if n_tok.kind != "num" or float(n_tok.text) != int(float(n_tok.text)):
                raise TriggerTypeError(f"mavg window must be an integer, got {n_tok.text!r}")
            n = int(float(n_tok.text))
            if n < 1:
                raise TriggerTypeError("mavg window must be >= 1")
            self._expect(")")
            return MAvg(metric, n)
        if name == "visible_sats":
            self._expect("(")
            mask_tok = self._next()
            if mask_tok.kind != "num":
                raise TriggerTypeError(f"visible_sats mask must be a number, got {mask_tok.text!r}")
            self._expect(")")
            return VisibleSatsMetric(float(mask_tok.text))
        if name in SAMPLE_METRICS or name in PROVIDER_METRICS:
            return Metric(name)
        raise UnknownMetric(f"unknown metric {tok.text!r}")


def parse_trigger(text: str) -> Expr:
    return _Parser(text).parse()


# --- pretty printing -----------------------------------------------------

def _fmt_num(v: float) -> str:
    return f"{v:g}"


def pretty(expr: Expr) -> str:
    """Canonical text form; parse(pretty(ast)) == ast."""
    if isinstance(expr, Num):
        return _fmt_num(expr.value)
    if isinstance(expr, Metric):
        return expr.name
    if isinstance(expr, MAvg):
        return f"mavg({expr.metric}, {expr.n})"
    if isinstance(expr, VisibleSatsMetric):
        return f"visible_sats({_fmt_num(expr.mask_deg)})"
    if isinstance(expr, Arith):
        return f"{pretty(expr.left)} {expr.op} {pretty(expr.right)}"
    if isinstance(expr, Compare):
        return f"{pretty(expr.left)} {expr.op} {pretty(expr.right)}"
    if isinstance(expr, Not):
        return f"NOT {_pretty_operand(expr.operand)}"
    if isinstance(expr, BoolOp):
        sep = " AND " if expr.op == "and" else " OR "
        return sep.join(_pretty_operand(side) for side in (expr.left, expr.right))
    raise TypeError(f"not an expression node: {expr!r}")


def _pretty_operand(expr: Expr) -> str:
    # boolean children need parens to survive reparsing; a bare Compare is
    # already a cmp so it only needs them when it contains arithmetic that
    # would capture the keyword... it cannot, so leave it bare
    if isinstance(expr, (BoolOp, Not)):
        return f"({pretty(expr)})"
    return pretty(expr)


def reads_orbital_state(expr: Expr) -> bool:
    """Whether `expr` holds a VisibleSatsMetric anywhere. Walks with a
    stack, not recursion: the parser builds AND/OR and +/- chains in loops,
    so a long chain nests deeper than the interpreter's recursion limit."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, VisibleSatsMetric):
            return True
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (Arith, Compare, BoolOp)):
            stack += (node.left, node.right)
    return False


# --- evaluation ----------------------------------------------------------

@dataclass(frozen=True)
class OrbitalContext:
    site: GroundSite
    catalog: list[TleRecord]


def _eval_num(expr: Expr, window: TelemetryWindow,
              orbital: OrbitalContext | None, now_ms: int) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Metric):
        if expr.name in SAMPLE_METRICS:
            value = window.current(expr.name)
            if value is None:
                raise InsufficientHistory(f"{expr.name} absent in current sample")
            return value
        raise InsufficientHistory(f"no source wired up for {expr.name}")
    if isinstance(expr, MAvg):
        return window.prior_moving_avg(expr.metric, expr.n)
    if isinstance(expr, VisibleSatsMetric):
        if orbital is None:
            raise InsufficientHistory("no orbital context configured")
        t = datetime.fromtimestamp(now_ms / 1000.0, tz=timezone.utc)
        return float(len(visible_sats(orbital.site, orbital.catalog, t, expr.mask_deg)))
    if isinstance(expr, Arith):
        left = _eval_num(expr.left, window, orbital, now_ms)
        right = _eval_num(expr.right, window, orbital, now_ms)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right  # divisor is a nonzero constant by construction
    raise TriggerTypeError(f"expected a numeric expression, got {type(expr).__name__}")


def _eval_bool(expr: Expr, window: TelemetryWindow,
               orbital: OrbitalContext | None, now_ms: int) -> bool:
    if isinstance(expr, Compare):
        left = _eval_num(expr.left, window, orbital, now_ms)
        right = _eval_num(expr.right, window, orbital, now_ms)
        return {
            ">": left > right, ">=": left >= right,
            "<": left < right, "<=": left <= right,
            "==": left == right, "!=": left != right,
        }[expr.op]
    if isinstance(expr, Not):
        return not _eval_bool(expr.operand, window, orbital, now_ms)
    if isinstance(expr, BoolOp):
        # strict: both sides evaluated so missing history anywhere wins
        left = _eval_bool(expr.left, window, orbital, now_ms)
        right = _eval_bool(expr.right, window, orbital, now_ms)
        return (left and right) if expr.op == "and" else (left or right)
    raise TriggerTypeError(f"expected a boolean expression, got {type(expr).__name__}")


def evaluate(expr: Expr,
             window: TelemetryWindow,
             orbital: OrbitalContext | None = None,
             now_ms: int | None = None) -> TriggerState:
    if now_ms is None:
        latest = window.latest
        now_ms = latest.ts_ms if latest else 0
    try:
        result = _eval_bool(expr, window, orbital, now_ms)
    except InsufficientHistory:
        return TriggerState.INSUFFICIENT_HISTORY
    return TriggerState.FIRE if result else TriggerState.HOLD


# --- bindings, budgets, savings ------------------------------------------

@dataclass(frozen=True)
class TriggerBinding:
    expr: Expr
    experiment_id: str
    max_runtime_s: int
    cooldown_s: int = 0
    budget_per_day: int = 1

    def __post_init__(self):
        if self.max_runtime_s <= 0:
            raise ValueError("max_runtime_s must be positive")
        if self.budget_per_day < 1:
            raise ValueError("budget must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown must be >= 0")

    @classmethod
    def from_spec(cls, obj: dict, experiment_id: str) -> "TriggerBinding":
        return cls(
            expr=parse_trigger(obj["trigger"]),
            experiment_id=experiment_id,
            max_runtime_s=int(obj.get("max_runtime_s", 60)),
            cooldown_s=int(obj.get("cooldown_s", 0)),
            budget_per_day=int(obj.get("budget_per_day", 24)),
        )


@dataclass
class BindingState:
    """Mutable firing history enforcing cooldown and the daily budget."""
    binding: TriggerBinding
    fire_times_ms: list = field(default_factory=list)

    def can_fire(self, now_ms: int) -> bool:
        if self.fire_times_ms:
            if (now_ms - self.fire_times_ms[-1]) < self.binding.cooldown_s * 1000:
                return False
        day_ago = now_ms - 86_400_000
        recent = sum(1 for t in self.fire_times_ms if t > day_ago)
        return recent < self.binding.budget_per_day

    def note_fire(self, now_ms: int) -> None:
        self.fire_times_ms.append(now_ms)


@dataclass(frozen=True)
class SavingsReport:
    transferred: float       # bits moved by an always-on capture
    stored: float            # bits of header capture for always-on
    saved_transfer: float    # bits not moved thanks to triggering
    saved_storage: float     # header-capture bits not stored


def savings_report(binding: TriggerBinding,
                   observation_period_s: float,
                   bitrate_bps: float,
                   header_fraction: float) -> SavingsReport:
    """Transfer/storage cost of always-on capture vs this trigger's budget.

    The triggered schedule can be active at most budget_per_day fires of
    max_runtime_s each; storage holds only packet headers, a fixed fraction
    of transferred volume.
    """
    if observation_period_s <= 0:
        raise ValueError("observation period must be positive")
    if not 0.0 <= header_fraction <= 1.0:
        raise ValueError("header_fraction must be in [0, 1]")
    days = observation_period_s / 86400.0
    active_s = min(observation_period_s,
                   binding.budget_per_day * days * binding.max_runtime_s)
    transferred = bitrate_bps * observation_period_s
    triggered = bitrate_bps * active_s
    return SavingsReport(
        transferred=transferred,
        stored=header_fraction * transferred,
        saved_transfer=transferred - triggered,
        saved_storage=header_fraction * (transferred - triggered),
    )

"""Span tracer for the traced run, installed from outside the program.

`instrument()` replaces every public function and public method of each
`leobench` module with a wrapper, and rebinds the names that other modules
imported (`terminal_sim.visible_sats`, `predict.visible_sats`,
`agent.evaluate`, `abr.fit`, ...) so calls through them are seen too. The
program itself is not edited.

Two kinds of wrapper exist. A span wrapper records one span per call:
(span id, parent span id, operation id, name, tag, start ns, end ns). The
parent is the innermost open span on the calling thread; a call with no open
span starts a new operation, and its descendants share that operation id.
A count wrapper only counts calls: it is used for the per-packet and per-node
methods, where a span per call would cost more memory than the run has.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import itertools
import json
import threading
import time

MODULES = ("agent", "store", "orchestrator", "terminal_sim", "orbital",
           "telemetry", "triggers", "leolink", "predict", "dissect", "abr",
           "cli")

# Called once per packet, per ack, per tree node or per table row: counted,
# not spanned.
COUNT_ONLY = frozenset({
    "leolink.LinkProfile.at",
    "leolink.BaseCc.on_ack", "leolink.BaseCc.on_loss",
    "leolink.BaseCc.pacing_rate_bps", "leolink.BaseCc.window_bytes",
    "leolink.Bbr2Lite.on_ack", "leolink.Bbr2Lite.on_loss",
    "leolink.Bbr2Lite.pacing_rate_bps", "leolink.Bbr2Lite.window_bytes",
    "leolink.CubicLite.on_ack", "leolink.CubicLite.on_loss",
    "leolink.CubicLite.pacing_rate_bps", "leolink.CubicLite.window_bytes",
    "leolink.RenoLite.on_ack", "leolink.RenoLite.on_loss",
    "leolink.FlowStats.mean_tput_bps",
    "predict.TreeNode.predict", "predict.GBRTModel.predict_row",
    "predict.RidgeARModel.predict_row",
    "predict.PersistenceModel.predict_row",
    "predict.HarmonicMeanModel.predict_row",
    "predict.FeatureVector.as_array",
    "abr.TputTrace.download_time_s", "abr.TputTrace.future_harmonic_kbps",
    "abr.plan_qoe", "abr.VideoSpec.chunk_bits", "abr.VideoSpec.utility",
    "abr.MpcController.on_chunk_complete", "abr.harmonic_predictor",
    "abr.oracle_predictor",
    "dissect.SegmentRule.matches", "dissect.SegmentMap.segment_for",
    "dissect.nearest_rank",
    "orchestrator.ExperimentSpec.to_json",
    "orchestrator.ExperimentSpec.binding",
    "orchestrator.windows_overlap",
    "orchestrator.NodeRecord.health",
    "telemetry.TelemetryWindow.current",
    "terminal_sim.TelemetrySample.to_wire",
    "terminal_sim.TelemetrySample.from_wire",
    "terminal_sim.TelemetrySample.to_json_line",
    "terminal_sim.TelemetrySample.latency",
})


# Span tags: the part of a call that the per-layer metrics split on.
def _message_tag(args, kwargs, result) -> str:
    msg = args[1] if len(args) > 1 else kwargs.get("msg")
    kind = str(msg.get("type")) if isinstance(msg, dict) else "?"
    return kind if isinstance(result, dict) and result.get("ok") else kind + ":error"


def _command_tag(args, kwargs, result) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return " ".join([a for a in argv or () if not a.startswith("-")][:2])


TAGS = {
    "orchestrator.Orchestrator.handle_message": _message_tag,
    "triggers.evaluate": lambda args, kwargs, result: getattr(result, "name", ""),
    "predict.fit": lambda args, kwargs, result:
        str(args[0] if args else kwargs.get("model_kind")),
    "cli.main": _command_tag,
}

Span = tuple  # (span_id, parent_id, op_id, name, tag, start_ns, end_ns)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)

    def span_wrapper(self, name: str, fn, tag=None):
        spans, local = self.spans, self._local
        span_ids, op_ids = self._span_ids, self._op_ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, op = stack[-1] if stack else (0, next(op_ids))
            span_id = next(span_ids)
            stack.append((span_id, op))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, op, name,
                              tag(args, kwargs, result) if tag else "",
                              start, end))
        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self.count_wrapper(name, fn)
        return self.span_wrapper(name, fn, TAGS.get(name))


def write_trace(path, spans: list[Span], counts: dict[str, int]) -> None:
    """Every span as one JSON line, then one line holding the counts."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"counts": dict(counts)}) + "\n")


def merge(spans: list[Span], counts: dict, other: list[Span],
          other_counts: dict) -> tuple[list[Span], dict]:
    """Append another process's spans, shifting its span and operation ids
    past ours so parents still resolve."""
    shift = max((s[0] for s in spans), default=0)
    op_shift = max((s[2] for s in spans), default=0)
    out = list(spans)
    out.extend((sid + shift, parent + shift if parent else 0, op + op_shift,
                name, tag, start, end)
               for sid, parent, op, name, tag, start, end in other)
    total = collections.Counter(counts)
    total.update(other_counts)
    return out, dict(total)


def read_trace(path) -> tuple[list[Span], dict[str, int]]:
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            if isinstance(obj, dict):
                counts = obj["counts"]
            else:
                spans.append(tuple(obj))
    return spans, counts


def _public_callables(mod):
    """(owner, attribute, span name, function, decorator) for each public
    function and method defined in `mod`."""
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, f"{short}.{name}", obj, None
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mname, mobj in list(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                qual = f"{short}.{name}.{mname}"
                if inspect.isfunction(mobj):
                    yield obj, mname, qual, mobj, None
                elif isinstance(mobj, (classmethod, staticmethod)):
                    yield obj, mname, qual, mobj.__func__, type(mobj)


def instrument(tracer: Tracer) -> None:
    """Wrap every public callable of the leobench modules."""
    mods = [importlib.import_module(f"leobench.{m}") for m in MODULES]
    replaced: dict[int, object] = {}
    for mod in mods:
        for owner, attr, name, fn, deco in _public_callables(mod):
            wrapper = tracer.wrap(name, fn)
            setattr(owner, attr, deco(wrapper) if deco else wrapper)
            replaced[id(fn)] = wrapper
    # names bound by `from .x import f` still point at the original
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            if id(val) in replaced and inspect.isfunction(val):
                setattr(mod, attr, replaced[id(val)])


# --- aggregation -----------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that its child spans
    cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[int, int]]] = collections.defaultdict(list)
    for span in spans:
        children[span[1]].append((span[5], span[6]))
    out = {}
    for span_id, _, _, _, _, start, end in spans:
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out[span_id] = end - start - covered
    return out


class SpanStats:
    """Per-name (and per-name-and-tag) call counts, durations and self
    times, in nanoseconds."""

    def __init__(self, spans: list[Span], counts: dict[str, int] | None = None):
        selfs = self_times(spans)
        self.counts = collections.Counter(counts or {})
        self.durations: dict[tuple, list[int]] = collections.defaultdict(list)
        self.selfs: dict[str, list[int]] = collections.defaultdict(list)
        for span_id, _, _, name, tag, start, end in spans:
            self.durations[(name,)].append(end - start)
            self.durations[(name, tag)].append(end - start)
            self.selfs[name].append(selfs[span_id])

    def _durations(self, name: str, tag: str | None) -> list[int]:
        return self.durations.get((name,) if tag is None else (name, tag), [])

    def calls(self, name: str, tag: str | None = None) -> int:
        counted = self.counts.get(name, 0) if tag is None else 0
        return len(self._durations(name, tag)) + counted

    def total_ns(self, name: str, tag: str | None = None) -> int:
        return sum(self._durations(name, tag))

    def mean_ns(self, name: str, tag: str | None = None) -> float:
        d = self._durations(name, tag)
        return sum(d) / len(d) if d else 0.0

    def self_values(self, name: str) -> list[int]:
        return self.selfs.get(name, [])

    def names(self, prefix: str) -> list[str]:
        spanned = {k[0] for k in self.durations if k[0].startswith(prefix)}
        counted = {k for k in self.counts if k.startswith(prefix)}
        return sorted(spanned | counted)

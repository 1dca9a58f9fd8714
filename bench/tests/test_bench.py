"""Self-tests for the benchmark's own code.

    python3 -m pytest bench/tests -q
"""

import importlib
import json
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import analysis  # noqa: E402
import campaign  # noqa: E402
import cc_sweep  # noqa: E402
import control_plane  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import SpanStats, Tracer, merge, self_times  # noqa: E402

WORKLOADS = (campaign, control_plane, cc_sweep, analysis)


def span(sid, parent, start, end, name="f", tag="", op=1):
    return (sid, parent, op, name, tag, start, end)


def test_self_time_subtracts_children_once():
    spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),      # overlaps span 3: 10..60 covered once
        span(3, 1, 30, 60),
        span(4, 2, 15, 25),      # grandchild: only span 2 loses it
        span(5, 1, 90, 130),     # runs past its parent: clipped at 100
        span(6, 0, 200, 210),    # a second root, no children
    ]
    assert self_times(spans) == {1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 10,
                                 5: 40, 6: 10}


def test_span_stats_counts_calls_times_and_tags():
    spans = [span(1, 0, 0, 10, "a", "x"), span(2, 0, 0, 30, "a", "y"),
             span(3, 1, 2, 6, "b")]
    stats = SpanStats(spans, {"c": 7})
    assert stats.calls("a") == 2 and stats.calls("a", "x") == 1
    assert stats.calls("c") == 7
    assert stats.mean_ns("a") == 20 and stats.total_ns("a", "y") == 30
    assert stats.self_values("a") == [6, 30]
    assert stats.names("") == ["a", "b", "c"]


def test_tracer_records_parents_and_operations_per_thread():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = tracer.wrap("m.inner", inner)
    outer = tracer.wrap("m.outer", lambda: wrapped_inner() + wrapped_inner())
    counted = tracer.count_wrapper("m.hot", lambda: None)
    assert outer() == 2
    th = threading.Thread(target=outer)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    counted()
    by_id = {s[0]: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s[1] == 0]
    assert [s[3] for s in roots] == ["m.outer", "m.outer"]
    assert roots[0][2] != roots[1][2]
    for s in tracer.spans:
        if s[1]:
            parent = by_id[s[1]]
            assert parent[3] == "m.outer" and parent[2] == s[2]
            assert parent[5] <= s[5] <= s[6] <= parent[6]
    assert tracer.counts == {"m.hot": 1}


def test_merge_keeps_parent_links_apart():
    mine = [span(1, 0, 0, 10), span(2, 1, 1, 5)]
    theirs = [span(1, 0, 0, 20, "g"), span(2, 1, 2, 8, "g")]
    spans, counts = merge(mine, {"x": 1}, theirs, {"x": 2})
    assert self_times(spans) == {1: 6, 2: 4, 3: 14, 4: 6}
    assert counts == {"x": 3}


@pytest.mark.parametrize("mod", WORKLOADS, ids=lambda m: m.NAME)
def test_same_seed_same_inputs_other_seed_other_inputs(mod):
    def inputs(seed):
        return json.dumps(mod.make_inputs(seed), sort_keys=True).encode()

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_analysis_input_files_are_byte_identical_per_seed(tmp_path):
    def files(seed, name):
        root = tmp_path / name
        root.mkdir()
        paths = analysis.write_inputs(analysis.make_inputs(seed), root)
        return {k: p.read_bytes() for k, p in paths.items()}

    assert files(3, "a") == files(3, "b")
    other = files(4, "c")
    a = files(3, "d")
    assert all(a[k] != other[k] for k in a if k != "segments.json")


def test_campaign_spikes_outlast_the_trigger_cooldown():
    for seed in range(20):
        for node in campaign.make_inputs(seed)["nodes"].values():
            quanta = node["forced_bad_handovers"]
            assert len(quanta) == campaign.SPIKES_PER_NODE
            assert all(b - a >= 3 for a, b in zip(quanta, quanta[1:]))
            assert quanta[-1] * 15 + 60 < campaign.UNIT_SPAN_S


def test_benchmark_json_lists_the_metrics_the_code_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    # campaign-replay runs by hand only: its host time is the disk's
    # write latency, too unsteady for a bound (README.md)
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(set(run.WORKLOADS) - {campaign.NAME})


def test_count_only_and_tagged_names_are_public_callables():
    names = {name for m in tracing.MODULES
             for _, _, name, _, _ in tracing._public_callables(
                 importlib.import_module(f"leobench.{m}"))}
    assert tracing.COUNT_ONLY <= names
    assert set(tracing.TAGS) <= names


def test_control_plane_mix_is_what_campaign_agents_send(tmp_path, monkeypatch):
    from leobench import orchestrator
    from common import RunRecord

    sent = {}
    call = orchestrator.LocalClient.call

    def counting_call(self, msg):
        kind = msg["type"]
        if kind == "COMPLETE" and msg["manifest"].get("state") == "PREEMPTED":
            kind = "PREEMPT"
        sent[kind] = sent.get(kind, 0) + 1
        return call(self, msg)

    monkeypatch.setattr(orchestrator.LocalClient, "call", counting_call)
    rec = RunRecord()
    unit = campaign.Unit(campaign.make_inputs(7), tmp_path, rec, False)
    unit.measure()
    unit.finish()
    assert rec.failed == 0
    assert sent == {kind: n * len(campaign.NODES)
                    for kind, n in control_plane.PER_NODE_MESSAGES}


def test_failure_counted_in_campaign_replay_fails_the_run(monkeypatch, capsys):
    from leobench.agent import Agent

    tick = Agent.tick
    calls = []

    def tick_then_raise_once(self):
        out = tick(self)
        calls.append(1)
        if len(calls) == 100:   # state is as usual; only the failure shows
            raise RuntimeError("injected")
        return out

    monkeypatch.setattr(Agent, "tick", tick_then_raise_once)
    assert run.main(["--workload", "campaign-replay", "--seconds", "0"]) == 1
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "check no_failures FAILED" in out
    assert "check digest_matches_recorded_default_seed ok" in out

"""analysis: the offline commands a user runs, through `leobench.cli.main`.

Set-up writes a telemetry trace (JSONL), an agent ping CSV, an agent
traceroute CSV and a segment map. One unit runs the command batch below in
this process: `profile export`, `predict fit` (ridge_ar and gbrt),
`predict eval`, `analyze cdf|spikes|segments|heatmap` and
`abr-eval --synthetic`. Without it predict, dissect, abr and cli would go
unmeasured; the daemons, the store's file churn and the link emulator's
event loop stay idle. The seed picks the terminal seed behind every input
file and the abr-eval seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

from common import RunRecord, digest, median

NAME = "analysis"
T0_MS = 1_700_000_000_000
TRACE_S = 1200
TRACEROUTE_PROBES = 300
ABR_TRACES = 12
SEGMENT_MAP = {"rules": [
    {"segment": "S1", "hop_index": 1},
    {"segment": "S2", "prefix": "100.64."},
    {"segment": "S3", "hop_index": 3},
    {"segment": "S4", "hop_index": 4},
    {"segment": "S5", "prefix": "142.250."},
    {"segment": "S6", "hop_index": 6},
]}


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    return {"sim_seed": int(rng.integers(0, 2**31)),
            "loss_seed": int(rng.integers(0, 2**31)),
            "tool_seed": int(rng.integers(0, 1000)),
            "trace_s": TRACE_S}


def write_inputs(plan: dict, root: Path) -> dict[str, Path]:
    """The input files the commands read, as an agent and a terminal would
    have written them."""
    from leobench.agent import PING_HEADER, TRACEROUTE_HEADER, traceroute_hops
    from leobench.terminal_sim import TerminalModelConfig, TerminalSim

    sim = TerminalSim(TerminalModelConfig(rng_seed=plan["sim_seed"]))
    samples = [sim.step(T0_MS + i * 1000) for i in range(plan["trace_s"])]
    loss = np.random.default_rng(plan["loss_seed"])
    paths = {name: root / name for name in
             ("telemetry.jsonl", "ping.csv", "traceroute.csv", "segments.json")}
    paths["telemetry.jsonl"].write_text(
        "".join(s.to_json_line().rstrip("\n") + "\n" for s in samples))
    ping = [PING_HEADER]
    for s in samples:
        lost = s.pop_latency_ms is None or loss.random() < (s.pop_drop_rate or 0.0)
        ping.append(f"{s.ts_ms},{0.0 if lost else round(s.pop_latency_ms, 3)},{int(lost)}")
    paths["ping.csv"].write_text("\n".join(ping) + "\n")
    trace = [TRACEROUTE_HEADER]
    for s in samples[:TRACEROUTE_PROBES]:
        if s.pop_latency_ms is not None:
            trace += [f"{s.ts_ms},{hop},{addr},{round(rtt, 3)}"
                      for hop, addr, rtt in traceroute_hops(s.pop_latency_ms, "8.8.8.8")]
    paths["traceroute.csv"].write_text("\n".join(trace) + "\n")
    paths["segments.json"].write_text(json.dumps(SEGMENT_MAP, indent=2))
    return paths


def commands(plan: dict, root: Path, inputs: dict[str, Path]) -> list[list[str]]:
    tel, seed = str(inputs["telemetry.jsonl"]), str(plan["tool_seed"])
    return [
        ["profile", "export", "--seed", seed, "--duration-s", "300",
         "--out", str(root / "link.csv")],
        ["predict", "fit", "--trace", tel, "--model-kind", "ridge_ar",
         "--out", str(root / "ridge.json")],
        ["predict", "fit", "--trace", tel, "--model-kind", "gbrt",
         "--out", str(root / "gbrt.json")],
        ["predict", "eval", "--trace", tel, "--model", str(root / "gbrt.json")],
        ["analyze", "cdf", "--input", str(inputs["ping.csv"]),
         "--out", str(root / "cdf.csv")],
        ["analyze", "spikes", "--input", str(inputs["ping.csv"]),
         "--out", str(root / "spikes.csv")],
        ["analyze", "segments", "--input", str(inputs["traceroute.csv"]),
         "--map", str(inputs["segments.json"]), "--out", str(root / "segments.csv")],
        ["analyze", "heatmap", "--input", tel, "--out", str(root / "heatmap.csv")],
        ["abr-eval", "--synthetic", str(ABR_TRACES), "--seed", seed],
    ]


class Unit:
    def __init__(self, plan: dict, root: Path, rec: RunRecord, traced: bool):
        self.root, self.rec = root, rec
        self.commands = commands(plan, root, write_inputs(plan, root))
        self.outputs: list = []

    def measure(self) -> float:
        from leobench import cli

        rec = self.rec
        perf = time.perf_counter
        start = perf()
        for argv in self.commands:
            out = io.StringIO()
            t = perf()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(["--json"] + argv)
            except Exception as exc:   # counted; the batch goes on
                rc = f"exception:{type(exc).__name__}"
            rec.op_latency_s.append(perf() - t)
            rec.attempted += 1
            if rc != 0:
                rec.fail(f"{' '.join(argv[:2])}: {rc}")
            # outputs name files by path; the unit's directory is not output
            self.outputs.append([argv[:2], out.getvalue().replace(str(self.root), "<unit>")])
        batch_s = perf() - start
        rec.note("bench.analysis_s", batch_s)
        return 1.0 / batch_s

    def finish(self) -> str:
        files = {p.name: p.read_bytes() for p in sorted(self.root.iterdir())
                 if p.suffix in (".csv", ".json")}
        parsed = [json.loads(text.strip().splitlines()[-1])
                  for _, text in self.outputs if text.strip()]
        self.rec.check("every_command_reported_ok",
                       len(parsed) == len(self.outputs)
                       and all(p.get("ok") for p in parsed))
        return digest([[argv, text] for argv, text in self.outputs],
                      sorted((name, digest(data)) for name, data in files.items()))


def named_metrics(rec: RunRecord) -> dict:
    return {"analysis_s": (median(rec.layer.get("bench.analysis_s", [])), "s")}

"""The leobench benchmark: one seeded workload per run.

    python3 bench/run.py --workload control-plane --seed 1 --seconds 40 --trace 0

Run from the root of a checkout of the repository; the program under test is
`src/leobench` of that checkout. Each run repeats its workload's unit of work
until --seconds have passed, checks the outputs, prints one line per metric
by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
instrumentation. With --trace 1 every public function of every leobench
module is wrapped in a span or a counter first, and the metrics are the
per-layer ones (see layers.py); spans are written to
.bench_scratch/trace-<workload>.jsonl. Scratch files live under
.bench_scratch/ and are removed when the run ends. The exit code is 0 when
every check passed, 1 when a check failed or a unit raised, and 2 when the
checkout holds no leobench sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch"

# the workload modules import leobench inside their functions, so they load
# before main() has checked for src/leobench
import analysis  # noqa: E402
import campaign  # noqa: E402
import cc_sweep  # noqa: E402
import control_plane  # noqa: E402
from common import (DEFAULT_SEED, RunRecord, env_record, median,  # noqa: E402
                    percentile, self_rss_mb)
from layers import layer_metrics  # noqa: E402
from tracing import SpanStats, Tracer, instrument, merge, write_trace  # noqa: E402

WORKLOADS = {m.NAME: m for m in (campaign, control_plane, cc_sweep, analysis)}

# what each one means on each workload is in README.md
END_TO_END = (("throughput", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p99_ms", "ms"), ("setup_s", "s"), ("rss_peak_mb", "MB"))


# set-ups timed on their own before the units: one run holds too few units
# for a steady median of set-ups that take a few milliseconds
SETUP_SAMPLES = 15


def fresh_dir(path: Path) -> Path:
    """A new directory for one unit. Every unit starts with no garbage and
    no dirty pages left by the previous one, whose rewrites and unlinks
    would otherwise be charged to this unit's set-up and disk waits."""
    path.mkdir()
    gc.collect()
    os.sync()
    return path


def close(unit) -> None:
    if hasattr(unit, "close"):   # a unit that holds a process or a log
        unit.close()


def run_unit(mod, plan: dict, unit_dir: Path, rec: RunRecord, traced: bool):
    """Set up, measure and check one unit; its rate and digest."""
    unit = mod.Unit(plan, unit_dir, rec, traced)
    try:
        return unit.measure(), unit.finish()
    finally:
        close(unit)


def run_units(mod, seed: int, seconds: float, scratch: Path, traced: bool) -> RunRecord:
    rec = RunRecord()
    plan = mod.make_inputs(seed)
    perf = time.perf_counter
    start = perf()
    # a traced run reports per-unit counts, which set-ups alone would skew
    for i in range(0 if traced else SETUP_SAMPLES):
        unit_dir = fresh_dir(scratch / f"setup{i}")
        t0 = perf()
        unit = mod.Unit(plan, unit_dir, rec, traced)
        rec.setup_s.append(perf() - t0)
        close(unit)
        shutil.rmtree(unit_dir)
    unit_s: list[float] = []
    # start a unit only while it is expected to end within the measured span
    while not unit_s or perf() - start + median(unit_s) <= seconds:
        unit_dir = fresh_dir(scratch / f"unit{rec.units}")
        t0 = perf()
        rate, unit_digest = run_unit(mod, plan, unit_dir, rec, traced)
        rec.unit_rates.append(rate)
        rec.digests.append(unit_digest)
        rec.units += 1
        unit_s.append(perf() - t0)
        shutil.rmtree(unit_dir)
    rec.measured_s = perf() - start
    if not rec.rss_peak_mb:
        rec.rss_peak_mb = self_rss_mb()
    return rec


def end_to_end(rec: RunRecord) -> dict[str, dict]:
    values = {
        "throughput": median(rec.unit_rates),
        "latency_p50_ms": percentile(rec.op_latency_s, 50) * 1e3,
        "latency_p99_ms": percentile(rec.op_latency_s, 99) * 1e3,
        "setup_s": median(rec.setup_s),
        "rss_peak_mb": rec.rss_peak_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(name: str, rec: RunRecord, tracer: Tracer) -> dict[str, dict]:
    spans, counts = tracer.spans, dict(tracer.counts)
    for other, other_counts in rec.remote_traces:
        spans, counts = merge(spans, counts, other, other_counts)
    write_trace(SCRATCH / f"trace-{name}.jsonl", spans, counts)
    return layer_metrics(SpanStats(spans, counts), rec)


def golden_check(mod, seed: int, rec: RunRecord, scratch: Path, traced: bool) -> dict:
    """Digest checks: every unit of this run agrees, and a unit on the
    default seed reproduces the digest recorded in golden.json."""
    digests = [d for d in rec.digests if d is not None]
    if not digests:
        return {}
    golden = json.loads((HERE / "golden.json").read_text()).get(mod.NAME)
    if seed == DEFAULT_SEED:
        reference = digests[0]
    else:
        reference = run_unit(mod, mod.make_inputs(DEFAULT_SEED),
                             fresh_dir(scratch / "reference"), RunRecord(), traced)[1]
    print(f"digest {mod.NAME} seed={seed} {digests[0]} "
          f"default-seed={reference} recorded={golden}")
    return {"digest_same_every_unit": len(set(digests)) == 1,
            "digest_matches_recorded_default_seed": reference == golden}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "leobench" / "__init__.py").is_file():
        print(f"bench: no leobench sources at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import leobench
    if Path(leobench.__file__).resolve().parent != (SRC / "leobench").resolve():
        print(f"bench: imported leobench from {leobench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    mod = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)

    scratch = SCRATCH / f"{args.workload}-{args.seed}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        print("env " + json.dumps(env_record(ROOT, scratch, args.seed, args.workload),
                                  sort_keys=True))
        try:
            rec = run_units(mod, args.seed, args.seconds, scratch, bool(args.trace))
        except Exception:
            traceback.print_exc()
            print("bench: a unit of work raised; no result", file=sys.stderr)
            return 1
        metrics = per_layer(mod.NAME, rec, tracer) if tracer else end_to_end(rec)
        checks = dict(rec.checks)
        checks["no_failures"] = rec.failed == 0
        checks.update(golden_check(mod, args.seed, rec, scratch, bool(args.trace)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"run workload={mod.NAME} seed={args.seed} trace={args.trace} "
          f"units={rec.units} measured_s={rec.measured_s:.2f} "
          f"operations={len(rec.op_latency_s)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    if not tracer:
        for name, (value, unit) in mod.named_metrics(rec).items():
            print(f"named {name} {value:.6g} {unit}")
    error_rate = rec.failed / rec.attempted if rec.attempted else 0.0
    print(f"named error_rate {error_rate:.6g} ratio "
          f"(failed {rec.failed} of {rec.attempted}: {json.dumps(rec.failures)})")
    for name, ok in sorted(checks.items()):
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    correct = all(checks.values())
    if not correct:
        failed = [name for name, ok in checks.items() if not ok]
        print(f"bench: check failed: {', '.join(sorted(failed))}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Runs the orchestrator daemon for the control-plane workload.

The daemon starts through `leobench.cli.main(["orchestrate", ...])`, exactly
as `leobench orchestrate --port 0 --log LOG --nodes NODES` starts it, and
prints the same startup line. On SIGINT it shuts down as that command does;
this launcher then writes the final orchestrator state and the process's
peak RSS to --stats-out. With --trace-out it first installs the benchmark's
tracer in this process and writes the spans there at exit.

    python3 bench/orch_server.py --log L --nodes n0,n1 --stats-out S [--trace-out T]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from common import self_rss_mb  # noqa: E402
from tracing import Tracer, instrument, write_trace  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--log", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--stats-out", required=True)
    p.add_argument("--trace-out")
    args = p.parse_args()

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        instrument(tracer)
    from leobench import cli, orchestrator

    final: dict = {}
    close = orchestrator.Orchestrator.close

    def close_and_record(self):
        final.setdefault("state", self.to_state())
        close(self)

    orchestrator.Orchestrator.close = close_and_record
    rc = cli.main(["orchestrate", "--port", "0", "--log", args.log,
                   "--nodes", args.nodes])
    if tracer is not None:
        write_trace(args.trace_out, tracer.spans, tracer.counts)
    Path(args.stats_out).write_text(json.dumps(
        {"rc": rc, "rss_peak_mb": self_rss_mb(), "state": final.get("state")}))
    return rc


if __name__ == "__main__":
    sys.exit(main())

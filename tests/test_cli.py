import json
import socket
import threading
import time

import numpy as np
import pytest

from leobench import dissect
from leobench.agent import traceroute_hops
from leobench.cli import CliError, build_parser, load_config, main
from leobench.orchestrator import Orchestrator, OrchestratorClient
from leobench.store import ResultsStore
from leobench.terminal_sim import TerminalModelConfig, TerminalSim

FIXTURES_MAP = json.dumps({"rules": [
    {"segment": "S1", "hop_index": 1},
    {"segment": "S2", "prefix": "100.64."},
    {"segment": "S3", "hop_index": 3},
    {"segment": "S4", "hop_index": 4},
    {"segment": "S5", "prefix": "142.250."},
    {"segment": "S6", "hop_index": 6},
]})


def parse(argv):
    return build_parser().parse_args(argv)


def stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


def write_ping_csv(path, n=200, seed=1, spike_at=None):
    rng = np.random.default_rng(seed)
    lines = ["ts_ms,rtt_ms,lost"]
    for i in range(n):
        rtt = 40.0 + rng.normal(0.0, 2.0)
        if spike_at is not None and spike_at <= i < spike_at + 15:
            rtt *= 3.0
        lost = 1 if rng.random() < 0.02 else 0
        lines.append(f"{i * 1000},{0.0 if lost else round(rtt, 3)},{lost}")
    path.write_text("\n".join(lines) + "\n")


def write_trace_csv(path, n_probes=7):
    lines = ["ts_ms,hop_index,hop_addr,rtt_ms"]
    for t in range(n_probes):
        for idx, addr, rtt in traceroute_hops(30.0 + t, "142.251.33.14"):
            lines.append(f"{t * 1000},{idx},{addr},{rtt}")
    path.write_text("\n".join(lines) + "\n")


def write_telemetry_jsonl(path, n=400, seed=9):
    sim = TerminalSim(TerminalModelConfig(rng_seed=seed))
    with open(path, "w") as f:
        for i in range(n):
            f.write(sim.step(1_700_000_000_000 + i * 1000).to_json_line() + "\n")


@pytest.fixture
def served(tmp_path):
    orch = Orchestrator(["n1", "n2"])
    srv, _ = orch.serve("127.0.0.1", 0)
    yield orch, srv.getsockname()[1]
    srv.close()
    orch.close()


def submit_spec(tmp_path, port, spec, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return main(["--json", "submit", "--spec", str(p),
                 "--orchestrator", f"127.0.0.1:{port}"])


WINDOW_SPEC = {"id": "e1", "kind": "PING", "overhead": "OVERHEAD",
               "clients": ["n1"], "schedule": {"windows": [[0, 60_000]]},
               "params": {}}


# --- configuration -------------------------------------------------------

def test_config_defaults():
    cfg = load_config(parse(["status"]))
    assert cfg.orchestrator_host == "127.0.0.1"
    assert cfg.orchestrator_port == 7600
    assert cfg.nodes == ("node-1",)


def test_config_file_then_env_then_flag(tmp_path, monkeypatch):
    store_a = tmp_path / "a"
    store_b = tmp_path / "b"
    store_a.mkdir()
    store_b.mkdir()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"orchestrator_port": 1111,
                                    "store_root": str(store_a)}))
    monkeypatch.setenv("LEO_ORCHESTRATOR_PORT", "2222")
    cfg = load_config(parse(["--config", str(cfg_file), "status"]))
    assert cfg.orchestrator_port == 2222          # env beats file
    assert cfg.store_root == str(store_a)

    monkeypatch.setenv("LEO_STORE_ROOT", str(store_b))
    args = parse(["--config", str(cfg_file), "results", "list", "x",
                  "--store-root", str(store_a)])
    cfg = load_config(args)
    assert cfg.store_root == str(store_a)         # flag beats env


def test_config_env_pointer(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"nodes": ["a", "b"]}))
    monkeypatch.setenv("LEO_CONFIG", str(cfg_file))
    assert load_config(parse(["status"])).nodes == ("a", "b")


@pytest.mark.parametrize("content", ["{not json", '{"unknown_key": 1}',
                                     '{"orchestrator_port": "x"}', "[1, 2]",
                                     '{"nodes": ["n1", "a/b"]}'])
def test_config_file_rejected(tmp_path, content):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(content)
    with pytest.raises(CliError) as exc:
        load_config(parse(["--config", str(cfg_file), "status"]))
    assert exc.value.payload["error"]["kind"] == "BadConfig"


def test_config_missing_file(tmp_path):
    with pytest.raises(CliError):
        load_config(parse(["--config", str(tmp_path / "nope.json"), "status"]))


def test_explicit_path_must_exist(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"store_root": str(tmp_path / "missing")}))
    rc = main(["--config", str(cfg_file), "status"])
    assert rc == 1
    err = stderr_error(capsys)
    assert err["kind"] == "BadConfig"
    assert "missing" in err["message"]


def test_default_paths_not_required():
    # The default store root need not exist until something writes to it.
    load_config(parse(["status"]))


def test_bad_hostport(capsys):
    rc = main(["status", "--orchestrator", "nope"])
    assert rc == 1
    assert stderr_error(capsys)["kind"] == "BadConfig"


# --- control plane over TCP ----------------------------------------------

def test_submit_and_status(served, tmp_path, capsys):
    orch, port = served
    assert submit_spec(tmp_path, port, WINDOW_SPEC) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": True, "experiment_id": "e1"}

    rc = main(["--json", "status", "--orchestrator", f"127.0.0.1:{port}"])
    assert rc == 0
    views = json.loads(capsys.readouterr().out)["experiments"]
    assert views[0]["id"] == "e1"
    assert views[0]["runs"][0]["state"] == "SCHEDULED"

    rc = main(["status", "--orchestrator", f"127.0.0.1:{port}"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "EXPERIMENT" in table and "e1" in table and "SCHEDULED" in table


def test_submit_conflict_exits_2(served, tmp_path, capsys):
    _, port = served
    assert submit_spec(tmp_path, port, WINDOW_SPEC) == 0
    clash = dict(WINDOW_SPEC, id="e2",
                 schedule={"windows": [[30_000, 90_000]]})
    rc = submit_spec(tmp_path, port, clash, name="clash.json")
    assert rc == 2
    err = stderr_error(capsys)
    assert err["kind"] == "ConflictError"
    assert err["clashing_ids"] == ["e1"]


def test_submit_bad_spec_exits_1(served, tmp_path, capsys):
    _, port = served
    bad = dict(WINDOW_SPEC, id="e3", clients=["ghost"])
    rc = submit_spec(tmp_path, port, bad, name="bad.json")
    assert rc == 1
    assert stderr_error(capsys)["kind"] == "UnknownNode"


def test_submit_missing_spec_file(tmp_path, capsys):
    rc = main(["submit", "--spec", str(tmp_path / "nope.json"),
               "--orchestrator", "127.0.0.1:1"])
    assert rc == 1
    assert stderr_error(capsys)["kind"] == "MissingFile"


def test_orchestrator_unreachable(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(WINDOW_SPEC))
    rc = main(["submit", "--spec", str(p), "--orchestrator", "127.0.0.1:1"])
    assert rc == 1
    assert stderr_error(capsys)["kind"] == "Unreachable"


# --- results store -------------------------------------------------------

def test_results_list_and_fetch(tmp_path, capsys):
    root = tmp_path / "store"
    root.mkdir()
    store = ResultsStore(root)
    src = tmp_path / "run"
    src.mkdir()
    (src / "ping.csv").write_text("ts_ms,rtt_ms,lost\n0,40.0,0\n")
    store.upload("exp", "n1", 5_000, src, {"experiment_id": "exp"})

    rc = main(["--json", "results", "list", "exp", "--store-root", str(root)])
    assert rc == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert len(runs) == 1 and runs[0]["node_id"] == "n1"

    dest = tmp_path / "out"
    rc = main(["--json", "results", "fetch", "exp", "--dest", str(dest),
               "--store-root", str(root)])
    assert rc == 0
    fetched = json.loads(capsys.readouterr().out)
    assert fetched["runs"] == 1
    assert (dest / "exp" / "n1" / "19700101T000005Z" / "ping.csv").is_file()


def test_results_fetch_unknown(tmp_path, capsys):
    root = tmp_path / "store"
    root.mkdir()
    rc = main(["results", "fetch", "ghost", "--dest", str(tmp_path / "d"),
               "--store-root", str(root)])
    assert rc == 1
    assert stderr_error(capsys)["kind"] == "UnknownExperiment"


# --- analysis ------------------------------------------------------------

def test_analyze_cdf_matches_library(tmp_path, capsys):
    ping = tmp_path / "ping.csv"
    write_ping_csv(ping, n=180, seed=3)
    out = tmp_path / "cdf.csv"
    rc = main(["--json", "analyze", "cdf", "--input", str(ping),
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    values = dissect.load_ping_csv(ping.read_text())
    stats = dissect.percentiles(values)
    assert payload["median_ms"] == stats.median
    assert payload["p99_ms"] == stats.p99
    assert payload["lost"] == stats.lost
    # read_text() folds the csv module's \r\n terminators to \n
    assert out.read_text() == dissect.cdf_csv(values).replace("\r\n", "\n")


def test_analyze_segments_matches_library(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace)
    segmap = tmp_path / "segmap.json"
    segmap.write_text(FIXTURES_MAP)
    rc = main(["--json", "analyze", "segments", "--input", str(trace),
               "--map", str(segmap)])
    assert rc == 0
    # without --out the CSV precedes the payload line on stdout
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    runs = dissect.load_traceroute_csv(trace.read_text())
    expected = dissect.segment_latencies(runs,
                                         dissect.SegmentMap.from_json(FIXTURES_MAP))
    assert payload["runs"] == 7
    got = {s["segment"]: s["one_way_ms"] for s in payload["segments"]}
    assert got == {s.segment: s.one_way_ms for s in expected}


def test_analyze_spikes_finds_injected_spike(tmp_path, capsys):
    ping = tmp_path / "ping.csv"
    write_ping_csv(ping, n=240, seed=5, spike_at=120)
    rc = main(["--json", "analyze", "spikes", "--input", str(ping),
               "--k-mult", "2.0", "--min-persist-s", "5"])
    assert rc == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    spikes = json.loads(last)["spikes"]
    assert len(spikes) == 1
    assert spikes[0]["start_s"] == 120
    assert spikes[0]["nearest_15s_multiple"] == 15


def test_analyze_heatmap(tmp_path, capsys):
    tele = tmp_path / "tele.jsonl"
    write_telemetry_jsonl(tele, n=300)
    out = tmp_path / "heat.csv"
    rc = main(["--json", "analyze", "heatmap", "--input", str(tele),
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"] >= 1
    assert out.read_text().startswith("az_bin,el_bin,count,p95_ms")


def test_analyze_missing_input(tmp_path, capsys):
    rc = main(["analyze", "cdf", "--input", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert stderr_error(capsys)["kind"] == "MissingFile"


def stale_tle():
    """One element set whose epoch is 8 days before the trace that
    write_telemetry_jsonl starts at 1_700_000_000_000 ms (day 310.92592593
    of 2023)."""
    line1 = "1 44238U 19029D   23310.92592593  .00001234  00000-0  81000-4 0  999"
    line2 = "2 44238  53.0551 123.4567 0001450  90.1234 270.0123 15.06391500 1234"
    with_checksum = [ln + str(sum(int(ch) if ch.isdigit() else ch == "-" for ch in ln) % 10)
                     for ln in (line1, line2)]
    return "\n".join(["STALE-1"] + with_checksum) + "\n"


def malformed_inputs(tmp_path):
    """Files each of which one analysis command cannot use."""
    (tmp_path / "all_lost.csv").write_text("ts_ms,rtt_ms,lost\n0,0,1\n1000,0,1\n")
    (tmp_path / "no_lost.csv").write_text("ts_ms,rtt_ms\n0,40.0\n1000,41.0\n")
    (tmp_path / "no_ts.csv").write_text("hop_index,hop_addr,rtt_ms\n1,10.0.0.1,3\n")
    (tmp_path / "uncovered.csv").write_text(
        "ts_ms,hop_index,hop_addr,rtt_ms\n0,1,10.0.0.1,3\n0,2,9.9.9.9,5\n")
    (tmp_path / "map.json").write_text(json.dumps(
        {"rules": [{"segment": "S1", "hop_index": 1}]}))
    (tmp_path / "profile.csv").write_text("a,b\n1,2\n")
    (tmp_path / "model.json").write_text(json.dumps(
        {"format_version": 2, "kind": "persistence"}))
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "rule_list.json").write_text(json.dumps({"rules": [1]}))
    (tmp_path / "store").mkdir()
    (tmp_path / "secret" / "n1").mkdir(parents=True)   # beside the store
    (tmp_path / "secret" / "n1" / "key.txt").write_text("x")
    write_telemetry_jsonl(tmp_path / "tele.jsonl", n=120)
    (tmp_path / "stale.tle").write_text(stale_tle())
    (tmp_path / "traces").mkdir()
    (tmp_path / "traces" / "t.csv").write_text("ts_ms,kbps\n0,100\n")
    (tmp_path / "wd" / "_state").mkdir(parents=True)
    run = {"op": "RUNNING", "run_id": "e-0", "experiment_id": "e",
           "run_start_ms": 0}
    (tmp_path / "wd" / "_state" / "journal.jsonl").write_text(
        json.dumps({"n": 1, **run}) + '\n{"n": 2, "op": \n'
        + json.dumps({"n": 3, **run}) + "\n")


@pytest.mark.parametrize("argv,kind", [
    ("analyze cdf --input all_lost.csv", "BadInput"),
    ("analyze cdf --input no_lost.csv", "BadInput"),
    ("analyze spikes --input no_lost.csv", "BadInput"),
    ("analyze segments --input no_ts.csv --map map.json", "BadInput"),
    ("analyze segments --input uncovered.csv --map map.json", "UncoveredHop"),
    ("sweep --profile profile.csv", "BadInput"),
    ("predict eval --trace tele.jsonl --model model.json", "BadInput"),
    ("predict eval --trace tele.jsonl --model list.json", "BadInput"),
    ("predict fit --trace tele.jsonl --tle stale.tle --out m.json", "BadInput"),
    ("analyze segments --input uncovered.csv --map list.json", "BadInput"),
    ("analyze segments --input uncovered.csv --map rule_list.json", "BadInput"),
    ("results fetch ../secret --store-root store --dest dest", "BadInput"),
    ("results list ../secret --store-root store", "BadInput"),
    ("abr-eval --traces traces", "BadInput"),
    ("orchestrate --nodes ../evil,n1 --port 0 --duration-s 0", "BadConfig"),
    ("agent --node-id ../evil --duration-s 0", "BadConfig"),
    ("LEO_NODES=n1,.hidden status", "BadConfig"),
    ("agent --node-id n1 --workdir wd --duration-s 0", "BadInput"),
])
def test_malformed_input_gives_one_json_error_line(tmp_path, capsys,
                                                   monkeypatch, argv, kind):
    malformed_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    words = argv.split()
    while "=" in words[0]:        # leading NAME=value words set the environment
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    assert main(words) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    reply = json.loads(lines[0])
    assert reply["ok"] is False and reply["error"]["kind"] == kind
    if "--workdir wd" in argv:
        assert "journal.jsonl:2:" in reply["error"]["message"]


# --- prediction ----------------------------------------------------------

def test_predict_fit_then_eval(tmp_path, capsys):
    tele = tmp_path / "tele.jsonl"
    write_telemetry_jsonl(tele, n=500, seed=11)
    model = tmp_path / "model.json"
    rc = main(["--json", "predict", "fit", "--trace", str(tele),
               "--model-kind", "ridge_ar", "--out", str(model)])
    assert rc == 0
    fitted = json.loads(capsys.readouterr().out)
    assert fitted["rows"] > 400 and model.is_file()

    rc = main(["--json", "predict", "eval", "--trace", str(tele),
               "--model", str(model)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == fitted["rows"]
    assert 0.0 < report["mape_pct"] < 50.0
    assert report["persistence_mape_pct"] > 0.0


def test_predict_missing_model(tmp_path, capsys):
    tele = tmp_path / "tele.jsonl"
    write_telemetry_jsonl(tele, n=120)
    rc = main(["predict", "eval", "--trace", str(tele),
               "--model", str(tmp_path / "nope.json")])
    assert rc == 1
    assert stderr_error(capsys)["kind"] == "MissingFile"


# --- profiles ------------------------------------------------------------

def test_profile_export_roundtrips(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    rc = main(["--json", "profile", "export", "--seed", "7",
               "--duration-s", "90", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] >= 90
    from leobench.leolink import LinkProfile
    profile = LinkProfile.from_csv(out.read_text())
    assert profile.to_csv().replace("\r\n", "\n") == out.read_text()


# --- daemons -------------------------------------------------------------

def test_orchestrate_announces_port(capsys):
    rc = main(["orchestrate", "--port", "0", "--nodes", "n1",
               "--duration-s", "0.2"])
    assert rc == 0
    line = json.loads(capsys.readouterr().out.splitlines()[0])
    assert line["listening"] > 0
    assert line["nodes"] == ["n1"]


def test_orchestrate_on_an_existing_log_carries_on(tmp_path, capsys):
    log = tmp_path / "orch.jsonl"
    first = Orchestrator(["n1"], log_path=log)
    first.submit_experiment(WINDOW_SPEC)
    first.heartbeat("n1", ts_ms=500, acks=[1])
    first.close()

    out = {}
    daemon = threading.Thread(target=lambda: out.setdefault("rc", main([
        "orchestrate", "--port", "0", "--nodes", "n1", "--log", str(log),
        "--duration-s", "2"])))
    daemon.start()
    announced, deadline = "", time.monotonic() + 10
    while "\n" not in announced and time.monotonic() < deadline:
        time.sleep(0.01)
        announced += capsys.readouterr().out
    port = json.loads(announced.splitlines()[0])["listening"]
    client = OrchestratorClient("127.0.0.1", port)
    seen = client.call({"type": "QUERY"})["result"]
    client.call({"type": "HEARTBEAT", "node_id": "n1", "ts_ms": 999})
    client.close()
    daemon.join()
    assert out["rc"] == 0
    assert [e["id"] for e in seen] == ["e1"]     # the first life's table

    restored = Orchestrator.restore(["n1"], log)
    state = restored.to_state()
    restored.close()
    assert list(state["specs"]) == ["e1"]
    assert state["nodes"] == {"n1": 999}
    numbers = [json.loads(line)["n"] for line in log.read_text().splitlines()]
    assert numbers == [1, 2, 3]


def test_terminal_sim_announces_port(tmp_path, capsys):
    log = tmp_path / "tele.jsonl"
    out = {}
    daemon = threading.Thread(target=lambda: out.setdefault("rc", main([
        "terminal-sim", "--seed", "3", "--duration-s", "1.3",
        "--log", str(log)])))
    daemon.start()
    announced, deadline = "", time.monotonic() + 10
    while "\n" not in announced and time.monotonic() < deadline:
        time.sleep(0.01)
        announced += capsys.readouterr().out
    line = json.loads(announced.splitlines()[0])
    assert line["listening"] > 0
    with socket.create_connection(("127.0.0.1", line["listening"]), timeout=10) as conn, \
            conn.makefile("r", encoding="utf-8") as fh:
        received = fh.read().splitlines()   # until the daemon closes the feed
    daemon.join(timeout=10)
    assert not daemon.is_alive() and out["rc"] == 0
    with pytest.raises(ConnectionRefusedError):   # the feed's port is closed too
        socket.create_connection(("127.0.0.1", line["listening"]))
    logged = log.read_text().splitlines()
    # the client gets the latest line on connecting, then every later one
    assert received and logged[logged.index(received[0]):] == received

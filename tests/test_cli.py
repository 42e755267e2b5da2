"""Command-line behavior: outputs, exit codes, manifests, determinism."""

import json
import signal
import socket
import subprocess
import sys
import time
from unittest import mock

import pytest

from agectl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, UsageError, main, parse_addr, parse_grid
from agectl.endpoints import UdpLink

CLI = [sys.executable, "-m", "agectl.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run([*CLI, *args], capture_output=True, text=True, timeout=120, **kwargs)


# -- parsing helpers -------------------------------------------------------------


def test_parse_addr():
    assert parse_addr("127.0.0.1:9000") == ("127.0.0.1", 9000)
    for bad in ("nocolon", ":123", "host:notaport", "host:0", "host:70000"):
        with pytest.raises(Exception):
            parse_addr(bad)


def test_parse_grid():
    assert parse_grid("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    for bad in ("1:2", "a:b:c", "0.5:0.1:0.1", "1:2:0", "1:inf:1", "1:2:nan", "inf:inf:1"):
        with pytest.raises(Exception):
            parse_grid(bad)
    # a step lost to rounding never advances; a fine step over a wide range
    # would build 10^12 points
    for bad in ("1e17:2e17:1", "0:1e9:1e-3"):
        with pytest.raises(UsageError):
            parse_grid(bad)
    # the point count comes from the span, not from an absolute tolerance
    assert parse_grid("1e-13:5e-13:1e-13") == [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]
    assert parse_grid("8.933:169.433:0.9")[-1] == 169.133
    assert parse_grid("3.6135:760.0935:3.94")[-1] == 760.0935


# -- analytics commands ------------------------------------------------------------


def test_analyze_mm1_value(capsys):
    assert main(["analyze", "mm1", "--mu", "1", "--lambda", "0.5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "3.5"


def test_analyze_optimum_mm1(capsys):
    assert main(["analyze", "optimum", "--mm1", "--mu", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert 0.51 <= doc["lambda_star"] <= 0.55


def test_analyze_tandem_sweep_is_unimodal(capsys):
    assert main(["analyze", "tandem", "--mu1", "1", "--mu2", "1", "--sweep", "0.05:0.9:0.01"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda,avg_age"
    ages = [float(line.split(",")[1]) for line in lines[1:]]
    best = min(range(len(ages)), key=ages.__getitem__)
    assert 0 < best < len(ages) - 1
    signs = [b < a for a, b in zip(ages, ages[1:])]
    assert signs == sorted(signs, reverse=True)  # decreasing then increasing


def test_analyze_mm1_needs_exactly_one_mode(capsys):
    assert main(["analyze", "mm1", "--mu", "1"]) == EXIT_USAGE
    assert main(["analyze", "mm1", "--mu", "1", "--lambda", "0.5", "--sweep", "0.1:0.2:0.1"]) == EXIT_USAGE


def test_analyze_unstable_is_runtime_error(capsys):
    assert main(["analyze", "mm1", "--mu", "1", "--lambda", "1.5"]) == EXIT_RUNTIME
    assert "unstable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mm1", "--mu", "nan", "--lambda", "0.5"],
        ["mm1", "--mu", "inf", "--lambda", "0.5"],
        ["mm1", "--mu", "1", "--lambda", "nan"],
        ["tandem", "--mu1", "1", "--mu2", "nan", "--lambda", "0.5"],
    ],
)
def test_analyze_non_finite_rate_is_runtime_error(capsys, argv):
    assert main(["analyze", *argv]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_flag_is_usage_error():
    proc = run_cli("analyze", "mm1", "--mu", "1", "--lambda", "0.5", "--frobnicate")
    assert proc.returncode == EXIT_USAGE


def test_monitor_bad_address_is_usage_error(capsys):
    assert main(["monitor", "--bind", "127.0.0.1"]) == EXIT_USAGE


@pytest.mark.parametrize("duration", ["nan", "inf", "-5", "0"])
@pytest.mark.parametrize(
    "command",
    [
        ["monitor", "--bind", "127.0.0.1:9"],
        ["source", "--peer", "127.0.0.1:9"],
        ["sweep", "--config", "tandem", "--grid", "0.1:0.5:0.1", "--out", "missing/sweep.csv"],
    ],
)
def test_endpoint_bad_duration_is_usage_error(capsys, command, duration):
    # checked before a socket is opened or a config is loaded
    assert main([*command, f"--duration={duration}"]) == EXIT_USAGE
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize("max_updates", ["0", "-3"])
def test_monitor_bad_max_updates_is_usage_error(capsys, max_updates):
    # checked before a socket is opened
    assert main(["monitor", "--bind", "127.0.0.1:9", f"--max-updates={max_updates}"]) == EXIT_USAGE
    assert "max_updates" in capsys.readouterr().err


def test_source_bad_alpha_is_usage_error(capsys):
    assert main(["source", "--peer", "127.0.0.1:9", "--alpha", "5"]) == EXIT_USAGE
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["monitor", "--bind"], ["source", "--peer"]])
def test_endpoint_closes_its_socket_when_the_trace_cannot_be_opened(tmp_path, capsys, command):
    trace = tmp_path / "missing" / "t.jsonl"
    with mock.patch.object(UdpLink, "close", autospec=True, side_effect=UdpLink.close) as close:
        code = main([*command, f"127.0.0.1:{free_port()}", "--trace", str(trace), "--duration", "1"])
    assert code == EXIT_RUNTIME
    assert close.call_count == 1
    assert str(trace) in capsys.readouterr().err


# -- sim command ----------------------------------------------------------------------


def small_sim_config(tmp_path, seed=3):
    doc = {
        "mode": "fixed_rate",
        "net": {"forward": [{"service": "exp", "rate": 1.0}]},
        "lambda": 0.5,
        "arrival": "poisson",
        "duration": 2000.0,
        "seed": seed,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_sim_writes_metrics_and_manifest(tmp_path, capsys):
    cfg = small_sim_config(tmp_path)
    out = tmp_path / "metrics.json"
    assert main(["sim", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["mode"] == "fixed_rate"
    assert doc["metrics"]["delivered"] > 500
    manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
    assert manifest["command"] == "sim"
    assert manifest["seed"] == 3
    assert str(out) in manifest["outputs"]
    assert len(manifest["config_digest"]) == 64


def test_sim_reruns_byte_identical(tmp_path, capsys):
    cfg = small_sim_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sim", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["sim", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sim_seed_override_changes_output(tmp_path, capsys):
    cfg = small_sim_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sim", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["sim", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == EXIT_OK
    assert out1.read_bytes() != out2.read_bytes()


def test_sim_bundled_net_a_reports_backlogs(tmp_path, capsys):
    out = tmp_path / "net_a.json"
    assert main(["sim", "--config", "net_a", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    result = doc["result"]
    assert len(result["forward_backlogs"]) == 6
    assert all(b >= 0 for b in result["forward_backlogs"])
    assert result["sources"][0]["epochs"] > 10


def test_sim_bundled_tandem_matches_analytics(tmp_path, capsys):
    from agectl.analytics import aoi_tandem

    out = tmp_path / "tandem.json"
    assert main(["sim", "--config", "tandem", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    metrics = doc["metrics"]
    assert metrics["delivered"] >= 1_000_000
    analytic = aoi_tandem(doc["lambda"], 1.0, 1.0)
    assert abs(metrics["avg_age"] - analytic) / analytic <= 0.02


def test_sim_schema_violation_names_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "fixed_rate", "net": {"forward": [{"service": "exp"}]}, "lambda": 0.5, "duration": 10}))
    assert main(["sim", "--config", str(path), "--out", str(tmp_path / "x.json")]) == EXIT_RUNTIME
    assert "rate" in capsys.readouterr().err


def test_sim_missing_config_is_usage_error(capsys):
    assert main(["sim", "--config", "no_such_config", "--out", "/tmp/x.json"]) == EXIT_USAGE


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_sim_rejects_non_finite_json_constants(tmp_path, capsys, constant):
    path = tmp_path / "cl.json"
    path.write_text(
        '{"mode": "closed_loop", "net": {"forward": [{"service": "exp", "rate": 1.0}], '
        '"reverse": [{"service": "exp", "rate": 10.0}]}, "duration": 50.0, '
        f'"probe_timeout": {constant}}}'
    )
    out = tmp_path / "x.json"
    assert main(["sim", "--config", str(path), "--out", str(out)]) == EXIT_RUNTIME
    assert constant in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("policy", 5, "policy"),
        ("payload_size", 2.5, "payload_size"),
        ("alpha", "x", "alpha"),
        ("alpha", 5.0, "alpha"),
        ("n_sources", True, "n_sources"),
        ("eta", True, "updates_per_epoch"),
        ("probe_count", 1.5, "probe_count"),
        ("policy", "fixed:nan", "fixed"),
        ("policy", "fixed:inf", "fixed"),
    ],
)
def test_sim_rejects_mistyped_closed_loop_fields(tmp_path, capsys, field, value, needle):
    doc = {
        "mode": "closed_loop",
        "net": {"forward": [{"service": "exp", "rate": 1.0}], "reverse": [{"service": "exp", "rate": 10.0}]},
        "duration": 50.0,
        field: value,
    }
    path = tmp_path / "cl.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    assert main(["sim", "--config", str(path), "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err and "Traceback" not in err
    assert not out.exists()


def test_sim_rejects_a_probe_timeout_past_the_warmup(tmp_path):
    # 2 sources starting anywhere in [0, 30 s) of a 10 s run used to run
    # nothing and exit 0 with NaN ages
    doc = {
        "mode": "closed_loop",
        "net": {"forward": [{"service": "exp", "rate": 1.0}], "reverse": [{"service": "exp", "rate": 10.0}]},
        "policy": "fixed:0.5",
        "n_sources": 2,
        "probe_timeout": 30,
        "duration": 10.0,
        "seed": 1,
    }
    path = tmp_path / "cl.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    proc = run_cli("sim", "--config", str(path), "--out", str(out))
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr.startswith("error:") and "probe_timeout" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_sim_rejects_fractional_cross_traffic_entry(tmp_path):
    # the open loop used to ignore such a flow, the closed loop to crash on it
    doc = {
        "mode": "fixed_rate",
        "net": {
            "forward": [{"service": "exp", "rate": 1.0}] * 2,
            "cross_traffic": [{"entry": 0.5, "rate_bps": 1000, "packet_bytes": 100}],
        },
        "lambda": 0.5,
        "duration": 100.0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    proc = run_cli("sim", "--config", str(path), "--out", str(out))
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr.startswith("error:") and "entry" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("where, key", [("top", "warmup_fraction"), ("net", "cross_trafic")])
def test_sim_rejects_unknown_config_key(tmp_path, where, key):
    doc = json.loads(small_sim_config(tmp_path).read_text())
    (doc if where == "top" else doc["net"])[key] = 0.5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    proc = run_cli("sim", "--config", str(path), "--out", str(out))
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr.startswith("error:") and repr(key) in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_sim_rejects_bool_seed(tmp_path, capsys):
    cfg = small_sim_config(tmp_path, seed=True)
    out = tmp_path / "x.json"
    assert main(["sim", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_non_integer_seed(tmp_path, capsys):
    cfg = small_sim_config(tmp_path, seed="abc")
    out = tmp_path / "c.csv"
    code = main(["sweep", "--config", str(cfg), "--grid", "0.2:0.4:0.2", "--duration", "100", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


# -- sweep command -----------------------------------------------------------------------


def test_sweep_csv_contract(tmp_path, capsys):
    cfg = small_sim_config(tmp_path)
    out = tmp_path / "curve.csv"
    code = main(["sweep", "--config", str(cfg), "--grid", "0.2:0.8:0.2",
                 "--duration", "2000", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,avg_age,ci_halfwidth"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        lam, age, ci = (float(x) for x in line.split(","))
        assert 0.2 <= lam <= 0.8 and age > 0
    assert (tmp_path / "curve.csv.manifest.json").exists()


def test_sweep_empty_grid_is_usage_error(tmp_path, capsys):
    cfg = small_sim_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--grid", "0.9:0.1:1",
                 "--out", str(tmp_path / "c.csv")]) == EXIT_USAGE


def test_sweep_reruns_identical(tmp_path, capsys):
    cfg = small_sim_config(tmp_path)
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    for out in (out1, out2):
        assert main(["sweep", "--config", str(cfg), "--grid", "0.3:0.6:0.3",
                     "--duration", "1500", "--out", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


# -- live endpoints ------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_loopback_source_monitor_pair(tmp_path):
    port = free_port()
    mon_trace = tmp_path / "monitor.jsonl"
    src_trace = tmp_path / "source.jsonl"
    monitor = subprocess.Popen(
        [*CLI, "monitor", "--bind", f"127.0.0.1:{port}", "--trace", str(mon_trace),
         "--duration", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(1.0)
    try:
        source = run_cli(
            "source", "--peer", f"127.0.0.1:{port}", "--policy", "fixed:40",
            "--payload-size", "64", "--duration", "2", "--probes", "3",
            "--probe-timeout", "0.5", "--trace", str(src_trace),
        )
    finally:
        monitor_out, _ = monitor.communicate(timeout=20)
    assert source.returncode == EXIT_OK, source.stderr
    summary = json.loads(source.stdout)
    assert summary["fresh_acks"] >= 1
    assert summary["lambda_final"] == 40.0
    mon_summary = json.loads(monitor_out)
    assert mon_summary["accepted"] >= 1
    records = [json.loads(line) for line in src_trace.read_text().splitlines()]
    assert records and all(r["lambda"] == 40.0 for r in records)
    mon_records = [json.loads(line) for line in mon_trace.read_text().splitlines()]
    assert mon_records and {"t", "age_reset", "seq"} == set(mon_records[0])


def test_monitor_sigint_flushes_and_exits_zero(tmp_path):
    port = free_port()
    trace = tmp_path / "trace.jsonl"
    monitor = subprocess.Popen(
        [*CLI, "monitor", "--bind", f"127.0.0.1:{port}", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(1.0)
    source = run_cli(
        "source", "--peer", f"127.0.0.1:{port}", "--policy", "fixed:30",
        "--payload-size", "32", "--duration", "1", "--probes", "2", "--probe-timeout", "0.5",
    )
    assert source.returncode == EXIT_OK, source.stderr
    monitor.send_signal(signal.SIGINT)
    monitor.communicate(timeout=10)
    assert monitor.returncode == EXIT_OK
    assert trace.read_text().strip(), "trace flushed on interrupt"


def test_source_init_failure_is_runtime_error():
    # nothing listening on the peer port: every probe times out
    proc = run_cli(
        "source", "--peer", f"127.0.0.1:{free_port()}", "--duration", "1",
        "--probes", "2", "--probe-timeout", "0.2",
    )
    assert proc.returncode == EXIT_RUNTIME
    assert "initialization failed" in proc.stderr

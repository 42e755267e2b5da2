"""Command-line behavior: outputs, exit codes, manifests, determinism."""

import json
import math
import signal
import socket
import subprocess
import sys
import time
from unittest import mock

import pytest

from agectl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, UsageError, load_config, main, parse_addr, parse_grid
from agectl import simkit, wire
from agectl.endpoints import SourceConfig, SourceSession, UdpLink
from agectl.simkit import ConfigError

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
    for bad in ("1e17:2e17:1", "0:1e9:1e-3", "0:1:0.5", "-1:1:1"):
        with pytest.raises(UsageError):
            parse_grid(bad)
    # the point count comes from the span, not from an absolute tolerance
    assert parse_grid("1e-13:5e-13:1e-13") == [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]
    assert parse_grid("8.933:169.433:0.9")[-1] == 169.133
    assert parse_grid("3.6135:760.0935:3.94")[-1] == 760.0935


def test_cli_import_loads_no_socket_dataclasses_or_analytics():
    # only an opened UdpLink needs socket and only the analyze commands need
    # analytics; the records are NamedTuples.  The interpreter (site, or a
    # test runner) may have loaded any of them already, so only what the
    # import of agectl adds counts, after numpy, which it always needs.
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import agectl.cli, agectl.simkit\n"
        "print(sorted({'socket', 'dataclasses', 'agectl.analytics'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_analyze_sweep_from_zero_is_usage_error(capsys):
    # a rate of zero is bad input, refused before the analytics run
    assert main(["analyze", "mm1", "--mu", "1", "--sweep", "0:0.5:0.25"]) == EXIT_USAGE
    assert "0 < lo" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, run",
    [
        (["sim", "--config", "mm1"], "run_fixed_rate"),
        (["sim", "--config", "net_a"], "run_closed_loop"),
        (["sweep", "--config", "net_a", "--grid", "10:90:40"], "sweep_lambda"),
    ],
)
def test_run_too_large_for_memory_is_an_error_line(tmp_path, capsys, command, run):
    # numpy raises a MemoryError subclass when a run's arrays cannot be
    # allocated; it must end in one error line, not a traceback
    out = tmp_path / "out"
    with mock.patch.object(simkit, run, side_effect=MemoryError("Unable to allocate 7.45 TiB")):
        assert main([*command, "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 7.45 TiB\n"
    assert not out.exists()


def test_sim_missing_config_is_usage_error(capsys):
    assert main(["sim", "--config", "no_such_config", "--out", "/tmp/x.json"]) == EXIT_USAGE


BAD_JSON = {
    "not-utf8": b'{"mode": "\xff"}',
    "too-deep": b"[" * 200_000,
}


@pytest.mark.parametrize("case", sorted(BAD_JSON))
def test_load_config_rejects_undecodable_json(tmp_path, case):
    path = tmp_path / "cfg.json"
    path.write_bytes(BAD_JSON[case])
    with pytest.raises(ConfigError, match="^config is not valid JSON: "):
        load_config(str(path))


@pytest.mark.parametrize("case", sorted(BAD_JSON))
def test_sim_reports_undecodable_json_in_one_line(tmp_path, case):
    path = tmp_path / "cfg.json"
    path.write_bytes(BAD_JSON[case])
    out = tmp_path / "x.json"
    proc = run_cli("sim", "--config", str(path), "--out", str(out))
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr.startswith("error: config is not valid JSON: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


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


def _strict_json(text: str):
    """Parse ``text`` as JSON that may hold no NaN or infinity."""

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


def test_sim_writes_undefined_figures_as_null(tmp_path, capsys):
    # fixed:0.5 over det 1/s closes no epoch in 20 s, so the source has no
    # estimate; the output must still be JSON, as load_config reads it
    doc = {
        "mode": "closed_loop",
        "net": {"forward": [{"service": "det", "rate": 1.0}], "reverse": [{"service": "det", "rate": 10.0}]},
        "policy": "fixed:0.5",
        "duration": 20.0,
        "seed": 0,
    }
    path, out = tmp_path / "cl.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert main(["sim", "--config", str(path), "--out", str(out)]) == EXIT_OK
    source = _strict_json(out.read_text())["result"]["sources"][0]
    for key in ("est_avg_age", "est_avg_backlog", "est_minus_true_age", "mean_rate"):
        assert source[key] is None, key
    assert source["true_avg_age"] > 0.0
    assert load_config(str(out))[0]["result"]["sources"][0]["est_avg_age"] is None


def test_source_summary_writes_undefined_figures_as_null(capsys):
    # probing ends on the first ACK and no epoch closes: no estimate yet
    session = SourceSession(SourceConfig(policy="fixed:4", probe_count=1))
    seq, gen_ts_us = wire.decode_update(session.on_timer(0.0))
    session.on_datagram(0.25, wire.encode_ack(seq, gen_ts_us))
    summary = session.summary()
    assert math.isnan(summary["est_avg_age"])
    with mock.patch("agectl.cli.UdpLink.connect"), mock.patch("agectl.cli.run_source", return_value=(summary, session)):
        assert main(["source", "--peer", "127.0.0.1:9", "--duration", "1"]) == EXIT_OK
    printed = _strict_json(capsys.readouterr().out)
    assert printed["est_avg_age"] is None and printed["est_avg_backlog"] is None
    assert printed["lambda_final"] == 4.0


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


FIXED_RATE_DOC = {
    "mode": "fixed_rate",
    "net": {"forward": [{"service": "exp", "rate": 1.0}]},
    "lambda": 0.5,
    "duration": 50.0,
}
CLOSED_LOOP_DOC = {
    "mode": "closed_loop",
    "net": {"forward": [{"service": "exp", "rate": 1.0}], "reverse": [{"service": "exp", "rate": 10.0}]},
    "duration": 50.0,
}


@pytest.mark.parametrize(
    "doc, keys",
    [
        # each of these used to run and exit 0, the other mode's fields ignored
        (
            {**FIXED_RATE_DOC, "n_sources": 6, "policy": "lazy", "payload_size": 64},
            ("n_sources", "policy", "payload_size"),
        ),
        ({**CLOSED_LOOP_DOC, "arrival": "periodic"}, ("arrival",)),
        ({**CLOSED_LOOP_DOC, "lambda": 0.5, "eta": 5}, ("lambda",)),
    ],
)
def test_sim_rejects_the_other_modes_fields(tmp_path, capsys, doc, keys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    assert main(["sim", "--config", str(path), "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == f"error: config of mode {doc['mode']!r} has unknown field(s) {', '.join(map(repr, keys))}\n"
    assert not out.exists()


def test_sweep_reads_either_modes_config(tmp_path, capsys):
    # a sweep runs the open loop over the config's net, as CI does with net_a;
    # the closed-loop fields there are read by sim only
    out = tmp_path / "curve.csv"
    assert main(["sweep", "--config", "net_a", "--grid", "10:90:40", "--duration", "20", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 4


def test_closed_loop_sim_rejects_update_bytes(tmp_path, capsys):
    # the closed loop's updates are frames of the header plus payload_size
    # bytes; a net.update_bytes there used to run, silently ignored
    doc = {**CLOSED_LOOP_DOC, "net": {**CLOSED_LOOP_DOC["net"], "update_bytes": 60000}}
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    assert main(["sim", "--config", str(path), "--out", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: net.update_bytes ") and "payload_size" in err and len(err.splitlines()) == 1
    assert not out.exists()
    # sweep runs the open loop, where update_bytes is the packet size
    curve = tmp_path / "curve.csv"
    assert main(["sweep", "--config", str(path), "--grid", "0.2:0.4:0.2", "--duration", "50", "--out", str(curve)]) == EXIT_OK
    assert len(curve.read_text().splitlines()) == 3


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


@pytest.mark.parametrize("field", ["rate", "lambda"])
def test_sim_rejects_an_int_too_large_for_a_float(tmp_path, field):
    # JSON reads the 401 digits as an int; the run once ended in an
    # OverflowError traceback
    doc = json.loads(small_sim_config(tmp_path).read_text())
    if field == "rate":
        doc["net"]["forward"][0]["rate"] = 10**400
    else:
        doc["lambda"] = 10**400
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    proc = run_cli("sim", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr.startswith("error:") and "too large for a float" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
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


def test_sweep_grid_from_zero_is_usage_error(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--config", "net_a", "--grid", "0:90:45", "--duration", "60", "--out", str(out)]) == EXIT_USAGE
    assert "0 < lo" in capsys.readouterr().err
    assert not out.exists()


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

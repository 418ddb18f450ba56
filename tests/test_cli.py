"""Command-line front end: exit codes, output formats, process round trip."""

import json
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ssd import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN_LOG = ROOT / "tests" / "golden" / "wire" / "usecase_session.log"


def run_cli(*argv):
    return cli.main(list(argv))


# --- check ---


def test_check_accepts_a_buildable_file(capsys):
    assert run_cli("check", str(SCENARIOS / "usecase.mj")) == 0
    assert capsys.readouterr().out == ""


def test_check_reports_gate_errors(tmp_path, capsys):
    bad = tmp_path / "bad.mj"
    bad.write_text("class Demo {\n    void Foo(in i) {\n    }\n}\n")
    assert run_cli("check", str(bad)) == 1
    out = capsys.readouterr().out
    assert re.match(r"ERROR unknown-type \d+:\d+ ", out)


def test_check_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "broken.mj"
    bad.write_text("class {\n")
    assert run_cli("check", str(bad)) == 1
    assert capsys.readouterr().out.startswith("ERROR ")


def test_check_missing_file(capsys):
    assert run_cli("check", "no/such/file.mj") == 3
    assert "error:" in capsys.readouterr().err


# --- deps ---


def test_deps_prints_sorted_dependents(capsys):
    rc = run_cli("deps", str(SCENARIOS / "inevitable.mj"), "--element", "Demo.someVar")
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["Demo.m2/body[0]", "Demo.someVar"]


def test_deps_unknown_element(capsys):
    rc = run_cli("deps", str(SCENARIOS / "inevitable.mj"), "--element", "Demo.ghost")
    assert rc == 2
    assert "no element named" in capsys.readouterr().err


# --- sim ---


def test_sim_run_writes_trace_and_report(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.txt"
    rc = run_cli(
        "sim", "run", str(SCENARIOS / "usecase.ssd"),
        "--mode", "ssd", "--trace", str(trace), "--report", str(report),
    )
    assert rc == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == ["metric", "ssd", "baseline"]
    assert "-" in table  # baseline column is absent in ssd-only mode
    for line in trace.read_text().splitlines():
        assert json.loads(line)["model"] == "ssd"
    report_lines = report.read_text().splitlines()
    assert report_lines[0] == "scenario=usecase.ssd"
    assert "ssd_commits=2" in report_lines


def test_sim_compare_prints_both_columns(capsys):
    rc = run_cli("sim", "compare", str(SCENARIOS / "usecase.ssd"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "conflicts_prevented" in out
    assert re.search(r"conflicts\s+0\s+1", out)


def test_sim_artifacts_are_deterministic(tmp_path):
    paths = []
    for label in ("a", "b"):
        trace = tmp_path / f"{label}.trace"
        report = tmp_path / f"{label}.report"
        rc = run_cli(
            "sim", "compare", str(SCENARIOS / "usecase.ssd"),
            "--trace", str(trace), "--report", str(report),
        )
        assert rc == 0
        paths.append((trace.read_bytes(), report.read_bytes()))
    assert paths[0] == paths[1]


def test_sim_failed_expectation_exits_1(tmp_path, capsys):
    (tmp_path / "demo.mj").write_text((SCENARIOS / "usecase.mj").read_text())
    script = tmp_path / "bad.ssd"
    script.write_text(
        "format: 1\nproject: demo.mj\ndevelopers: solo\nmode: ssd\nauto_commit: false\n\n"
        "10 solo rename_method Demo.Foo new_name=Bar expect=denied\n"
    )
    assert run_cli("sim", "run", str(script)) == 1
    assert "assertion failed" in capsys.readouterr().err


def test_sim_missing_scenario(capsys):
    assert run_cli("sim", "run", "no/such.ssd") == 3


def test_sim_malformed_scenario(tmp_path, capsys):
    script = tmp_path / "broken.ssd"
    script.write_text("format: 9\ndevelopers: a\n")
    assert run_cli("sim", "run", str(script)) == 2
    assert "error:" in capsys.readouterr().err


# --- usage and serve/client edges ---


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sim", "run", str(SCENARIOS / "usecase.ssd"), "--mode", "fast")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("unknown-command")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("client", "--connect", "nocolon", "--dev", "a", "--script", "x.ssd")
    assert exc.value.code == 2


def test_client_rejects_unknown_developer(capsys):
    rc = run_cli(
        "client", "--connect", "127.0.0.1:1", "--dev", "mallory",
        "--script", str(SCENARIOS / "usecase.ssd"),
    )
    assert rc == 2
    assert "not a developer" in capsys.readouterr().err


def test_client_connection_refused(capsys):
    # grab a port that is definitely closed
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    rc = run_cli(
        "client", "--connect", f"127.0.0.1:{port}", "--dev", "alice",
        "--script", str(SCENARIOS / "usecase.ssd"),
    )
    assert rc == 3


def test_serve_rejects_unbuildable_project(tmp_path, capsys):
    bad = tmp_path / "bad.mj"
    bad.write_text("class Demo {\n    void Foo(in i) {\n    }\n}\n")
    rc = run_cli("serve", "--listen", "127.0.0.1:0", "--project", str(bad))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_serve_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "kernel.conf"
    config.write_text("auto_commit = maybe\n")
    rc = run_cli(
        "serve", "--listen", "127.0.0.1:0",
        "--project", str(SCENARIOS / "usecase.mj"), "--config", str(config),
    )
    assert rc == 2
    assert "bad config" in capsys.readouterr().err


def test_serve_missing_project(capsys):
    rc = run_cli("serve", "--listen", "127.0.0.1:0", "--project", "no/such.mj")
    assert rc == 3


# --- full process round trip ---


def test_serve_and_clients_replay_the_walkthrough(tmp_path):
    config = tmp_path / "kernel.conf"
    config.write_text("auto_commit = false\n")
    log_path = tmp_path / "session.log"
    serve = subprocess.Popen(
        [
            sys.executable, "-m", "ssd.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--project", str(SCENARIOS / "usecase.mj"),
            "--config", str(config),
            "--session-log", str(log_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=ROOT,
    )
    try:
        banner = serve.stdout.readline()
        match = re.match(r"listening on 127\.0\.0\.1:(\d+)", banner)
        assert match, banner
        port = match.group(1)
        clients = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "ssd.cli", "client",
                    "--connect", f"127.0.0.1:{port}",
                    "--dev", dev,
                    "--script", str(SCENARIOS / "usecase.ssd"),
                    "--time-scale", "100",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                cwd=ROOT,
            )
            for dev in ("alice", "bob")
        ]
        for client in clients:
            out, _ = client.communicate(timeout=60)
            assert client.returncode == 0, out
    finally:
        serve.terminate()
        serve.wait(timeout=10)

    time.sleep(0.2)  # let the server flush its log on shutdown
    assert log_path.read_text() == GOLDEN_LOG.read_text()


def test_module_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "ssd.cli", "check", str(SCENARIOS / "usecase.mj")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert out.returncode == 0

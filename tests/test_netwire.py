"""Wire protocol: handshake, routing, error handling, log transparency."""

import contextlib
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from ssd import netwire
from ssd import simbench
from ssd.netwire import ClientError, WireServer, _LineSocket, client_session
from ssd.scenario import ScenarioAssertionError, load_scenario
from ssd.synckernel import KernelConfig

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_LOG = ROOT / "tests" / "golden" / "wire" / "usecase_session.log"
USECASE = ROOT / "scenarios" / "usecase.ssd"

DEMO = (ROOT / "scenarios" / "usecase.mj").read_text()
NO_AUTO = KernelConfig(auto_commit=False)


@contextlib.contextmanager
def serving(project=DEMO, config=NO_AUTO, session_log=None):
    server = WireServer(project, config, port=0, session_log=session_log)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_seconds": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=5)


@contextlib.contextmanager
def raw_client(server):
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        yield _LineSocket(sock)


def hello(line, dev, cid="h0"):
    line.send({"t": "hello", "dev": dev, "cid": cid})
    return line.recv_line(5)


def drain(line, seconds=0.2):
    """Collect whatever arrives within the window."""
    records = []
    deadline = time.monotonic() + seconds
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return records
        record = line.recv_line(remaining)
        if record is not None:
            records.append(record)


def await_cid(line, cid, timeout=5):
    records = []
    deadline = time.monotonic() + timeout
    while True:
        record = line.recv_line(deadline - time.monotonic())
        if record is None:
            raise AssertionError(f"no reply carrying cid {cid!r}; saw {records}")
        records.append(record)
        if record.get("cid") == cid:
            return records


def test_hello_ack_carries_the_snapshot():
    with serving() as server:
        with raw_client(server) as line:
            ack = hello(line, "alice", cid="c1")
            assert ack["t"] == "hello_ack"
            assert ack["cid"] == "c1"
            assert ack["dev"] == "alice"
            assert ack["version"] == 1
            assert ack["text"] == DEMO
            assert ack["last_seq"] == 0
            assert isinstance(ack["uptime_ms"], int) and ack["uptime_ms"] >= 0


def test_request_before_hello_disconnects():
    with serving() as server:
        with raw_client(server) as line:
            line.send({"t": "commit", "cid": "c1"})
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"]) == ("error", "proto")
            with pytest.raises(ClientError, match="closed"):
                line.recv_line(5)


def test_bad_json_disconnects():
    with serving() as server:
        with raw_client(server) as line:
            line.sock.sendall(b"this is not json\n")
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"]) == ("error", "proto")
            with pytest.raises(ClientError, match="closed"):
                line.recv_line(5)


def test_unknown_request_type_disconnects():
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "alice")
            line.send({"t": "dance", "cid": "c9"})
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"]) == ("error", "proto")
            with pytest.raises(ClientError, match="closed"):
                line.recv_line(5)


def test_domain_error_keeps_the_connection():
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "alice")
            line.send(
                {
                    "t": "edit",
                    "cid": "e1",
                    "kind": "rename_method",
                    "target": "Nope.missing",
                    "args": {"new_name": "x"},
                }
            )
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"], reply["cid"]) == ("error", "unknown-element", "e1")
            line.send({"t": "get_snapshot", "cid": "s1"})
            snap = line.recv_line(5)
            assert snap["t"] == "hello_ack" and snap["cid"] == "s1"
            assert snap["version"] == 1


def assert_still_serving(server):
    with raw_client(server) as other:
        assert hello(other, "second")["t"] == "hello_ack"


@pytest.mark.parametrize(
    "kind, target, args",
    [
        ("rename_class", ["Demo"], {"new_name": "X"}),
        ("rename_class", {"name": "Demo"}, {"new_name": "X"}),
        ("rename_class", True, {"new_name": "X"}),
        ("insert_statement", ["Demo.Foo/body"], {"text": "int a = 1;"}),
        ("insert_statement", {"path": "Demo.Foo/body"}, {"text": "int a = 1;"}),
        ("insert_statement", 1.5, {"text": "int a = 1;"}),
    ],
)
def test_non_scalar_edit_target_is_malformed_and_the_server_keeps_serving(kind, target, args):
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "alice")
            line.send({"t": "edit", "cid": "e1", "kind": kind, "target": target, "args": args})
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"], reply["cid"]) == ("error", "malformed-op", "e1")
            line.send({"t": "get_snapshot", "cid": "s1"})
            assert line.recv_line(5)["version"] == 1
        assert_still_serving(server)


def test_over_nested_json_is_a_proto_error_and_the_server_keeps_serving():
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "alice")
            line.sock.sendall(b"[" * 200_000 + b"]" * 200_000 + b"\n")
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"]) == ("error", "proto")
            with pytest.raises(ClientError, match="closed"):
                line.recv_line(5)
        assert_still_serving(server)


@pytest.mark.parametrize("newline", [False, True])
def test_oversized_request_line_is_a_proto_error_and_the_server_keeps_serving(monkeypatch, newline):
    # a small limit keeps a whole line with its newline inside one read
    limit = 64 if newline else netwire.MAX_LINE_BYTES
    monkeypatch.setattr(netwire, "MAX_LINE_BYTES", limit)
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "alice")
            line.sock.sendall(b" " * (limit + 1) + (b"\n" if newline else b""))
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"]) == ("error", "proto")
            assert str(limit) in reply["message"]
            with pytest.raises(ClientError, match="closed"):
                line.recv_line(5)
        assert_still_serving(server)


def test_edit_reply_sequence_and_cid_placement():
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "bob")
            line.send(
                {
                    "t": "edit",
                    "cid": "e1",
                    "kind": "rename_method",
                    "target": "Demo.Foo",
                    "args": {"new_name": "Foo1"},
                }
            )
            records = await_cid(line, "e1")
            assert [r["t"] for r in records] == ["lock_granted", "edit_applied", "build_status"]
            # only the primary reply (the last record for the requester) has a cid
            assert all("cid" not in r for r in records[:-1])
            assert [r["seq"] for r in records] == [1, 2, 3]
            assert records[-1]["details"]["status"] == "buildable"


def test_committed_is_broadcast_to_all_clients():
    with serving() as server:
        with raw_client(server) as bob, raw_client(server) as alice:
            hello(bob, "bob")
            hello(alice, "alice")
            bob.send(
                {
                    "t": "edit",
                    "cid": "e1",
                    "kind": "rename_method",
                    "target": "Demo.Foo",
                    "args": {"new_name": "Foo1"},
                }
            )
            await_cid(bob, "e1")
            assert drain(alice) == []  # bob's working events stay private
            bob.send({"t": "commit", "cid": "c1"})
            records = await_cid(bob, "c1")
            assert [r["t"] for r in records] == ["build_status", "committed"]
            assert records[-1]["cid"] == "c1"
            assert records[-1]["details"]["version"] == 2
            seen = drain(alice, 1.0)
            assert [r["t"] for r in seen] == ["committed"]
            assert "cid" not in seen[0]
            alice.send({"t": "get_snapshot", "cid": "s1"})
            snap = alice.recv_line(5)
            assert snap["version"] == 2 and "Foo1" in snap["text"]


def test_mode_change_is_broadcast():
    with serving() as server:
        with raw_client(server) as bob, raw_client(server) as alice:
            hello(bob, "bob")
            hello(alice, "alice")
            bob.send({"t": "set_mode", "cid": "m1", "mode": "off_record"})
            records = await_cid(bob, "m1")
            assert records[-1]["t"] == "mode_changed"
            assert records[-1]["details"]["mode"] == "off_record"
            seen = drain(alice, 1.0)
            assert [r["t"] for r in seen] == ["mode_changed"]
            assert "cid" not in seen[0]


def test_requests_with_no_effect_answer_noop():
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "alice")
            line.send({"t": "revert", "cid": "r1"})
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"], reply["cid"]) == ("error", "noop", "r1")
            line.send({"t": "set_mode", "cid": "m1", "mode": "on_record"})
            reply = line.recv_line(5)
            assert (reply["t"], reply["code"]) == ("error", "noop")


def test_buffered_edit_answers_a_private_gate_verdict():
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "carol")
            line.send({"t": "set_mode", "cid": "m1", "mode": "off_record"})
            await_cid(line, "m1")
            line.send(
                {
                    "t": "edit",
                    "cid": "b1",
                    "kind": "add_param",
                    "target": "Demo.Foo",
                    "args": {"type": "int", "name": "extra"},
                }
            )
            reply = line.recv_line(5)
            assert reply["t"] == "build_status" and reply["cid"] == "b1"
            assert reply["details"]["context"] == "buffer"
            assert reply["details"]["status"] == "buildable"
            assert "seq" not in reply  # buffered work never enters the event log
            line.send(
                {
                    "t": "edit",
                    "cid": "b2",
                    "kind": "add_param",
                    "target": "Demo.Foo",
                    "args": {"type": "Widget", "name": "w"},
                }
            )
            reply = line.recv_line(5)
            assert reply["details"]["status"] == "unbuildable"
            assert reply["details"]["errors"][0]["code"] == "unknown-type"


def test_bye_is_acknowledged():
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "alice")
            line.send({"t": "bye", "cid": "z1"})
            reply = line.recv_line(5)
            assert reply == {"t": "bye_ack", "cid": "z1"}
            with pytest.raises(ClientError, match="closed"):
                line.recv_line(5)


def test_reconnect_sees_current_state():
    with serving() as server:
        with raw_client(server) as line:
            hello(line, "bob")
            line.send(
                {
                    "t": "edit",
                    "cid": "e1",
                    "kind": "rename_method",
                    "target": "Demo.Foo",
                    "args": {"new_name": "Foo1"},
                }
            )
            await_cid(line, "e1")
        with raw_client(server) as line:
            ack = hello(line, "bob")
            assert ack["last_seq"] == 3
            assert ack["version"] == 1  # nothing committed yet


def run_clients(server, script, time_scale_ms=15.0):
    results = {}
    errors = []

    def one(dev):
        try:
            results[dev] = client_session(
                server.host, server.port, dev, script, time_scale_ms=time_scale_ms
            )
        except Exception as exc:  # surfaced after join
            errors.append((dev, exc))

    threads = [threading.Thread(target=one, args=(d,)) for d in script.developers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors
    return results


def test_wire_walkthrough_matches_in_process_event_log(tmp_path):
    script = load_scenario(USECASE)
    log_path = tmp_path / "session.log"
    with serving(script.project_text, script.config, session_log=str(log_path)) as server:
        results = run_clients(server, script)
    wire_log = log_path.read_text().splitlines()

    outcome = simbench.run_scenario(script, "ssd")
    kernel_log = [e.to_json() for e in outcome.results["ssd"].engine.events]
    assert wire_log == kernel_log
    assert wire_log == GOLDEN_LOG.read_text().splitlines()

    # bob: three edits and a commit; alice: denied once, retried, committed
    assert results["bob"].sent == 4
    assert results["alice"].sent == 3
    alice_kinds = [r["t"] for r in results["alice"].events()]
    assert "lock_denied" in alice_kinds
    assert alice_kinds.count("committed") == 2  # bob's broadcast and her own


PENDING_RETRY_PROJECT = """\
class Demo {
    int x;

    void Foo(int i) {
    }
}
"""

# alice's retry of the rename is still pending when her vt-30 edit falls due
PENDING_RETRY_SCRIPT = """\
format: 1
project: retry.mj
developers: alice bob
mode: ssd
auto_commit: false

10 bob rename_method Demo.Foo new_name=Foo1
20 alice rename_method Demo.Foo new_name=Foo2 retry=until_granted backoff=60
30 alice set_field_init Demo.x init=5
50 bob try_commit
100 alice try_commit
"""


def test_pending_retry_does_not_hold_back_later_actions_on_the_wire(tmp_path):
    script = simbench.parse_scenario(
        PENDING_RETRY_SCRIPT, name="retry.ssd", project_text=PENDING_RETRY_PROJECT
    )
    log_path = tmp_path / "session.log"
    with serving(script.project_text, script.config, session_log=str(log_path)) as server:
        run_clients(server, script)
    wire_log = log_path.read_text().splitlines()

    events = simbench.run_scenario(script, "ssd").results["ssd"].engine.events
    assert wire_log == [e.to_json() for e in events]
    # the vt-30 edit lands before bob's commit; the granted retry after it
    kinds = [(e.dev, e.kind, e.details.get("kind")) for e in events]
    assert kinds.index(("alice", "edit_applied", "set_field_init")) < kinds.index(
        ("bob", "committed", None)
    )
    assert kinds.index(("bob", "committed", None)) < kinds.index(
        ("alice", "edit_applied", "rename_method")
    )


def test_client_session_asserts_expectations(tmp_path):
    bad = simbench.parse_scenario(
        "format: 1\nproject: usecase.mj\ndevelopers: solo\nmode: ssd\nauto_commit: false\n\n"
        "10 solo rename_method Demo.Foo new_name=Bar expect=denied\n",
        name="bad.ssd",
        project_text=DEMO,
    )
    with serving() as server:
        with pytest.raises(ScenarioAssertionError, match="expected denied"):
            client_session(server.host, server.port, "solo", bad, time_scale_ms=1.0)


def test_serve_until_interrupted_announces_endpoint():
    server = WireServer(DEMO, NO_AUTO, port=0)

    class Once:
        def __init__(self):
            self.text = ""

        def write(self, chunk):
            self.text += chunk
            server.stop()

        def flush(self):
            pass

    out = Once()
    netwire.serve_until_interrupted(server, out=out)
    assert out.text == f"listening on {server.host}:{server.port}\n"

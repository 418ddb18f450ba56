"""Newline-delimited JSON protocol over TCP for driving a shared kernel.

One server process owns the kernel; each developer connects, says hello, and
sends requests. Every request line and response line is a single JSON object
whose `t` field names its type. Responses reuse the kernel's event records
verbatim (plus `t`, and `cid` echoed on the direct reply), so a session log
written by the server is exactly the kernel's event log: byte-comparable with
an in-process run of the same edits.

Routing: `committed` and `mode_changed` go to every connected client; all
other events go to the client registered for the event's developer. See
docs/protocol.md for the full request and response catalogue.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time
from dataclasses import dataclass, field

from .editops import EditRequest
from .scenario import (
    BUFFERED,
    DENIED,
    DONE,
    ERROR,
    GRANTED,
    MODE_BY_VERB,
    Action,
    Reply,
    ScenarioScript,
    drive,
)
from .synckernel import Kernel, KernelConfig, KernelError, OFF_RECORD

DEFAULT_PORT = 7457
MAX_LINE_BYTES = 1 << 20  # longest request line the server reads

_BROADCAST_KINDS = ("committed", "mode_changed")


class _Conn:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = b""
        self.dev: str | None = None


class WireServer:
    """Single-threaded server: requests from all connections are serialized
    through one selector loop, so kernel calls never interleave."""

    def __init__(
        self,
        project_text: str,
        config: KernelConfig | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        session_log: str | None = None,
    ):
        self.kernel = Kernel(
            project_text, config, clock=lambda: int(time.monotonic() * 1000)
        )
        self._sel = selectors.DefaultSelector()
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self.host, self.port = self._listener.getsockname()[:2]
        self._conns: dict[socket.socket, _Conn] = {}
        self._by_dev: dict[str, _Conn] = {}
        self._drained = 0
        self._log = open(session_log, "w", encoding="utf-8") if session_log else None
        self._stopping = False
        self.started = time.monotonic()

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self, poll_seconds: float = 0.1) -> None:
        try:
            while not self._stopping:
                for key, _mask in self._sel.select(poll_seconds):
                    if key.fileobj is self._listener:
                        self._accept()
                    else:
                        self._read(self._conns[key.fileobj])
        finally:
            self.close()

    def stop(self) -> None:
        self._stopping = True

    def close(self) -> None:
        for conn in list(self._conns.values()):
            self._drop(conn)
        try:
            self._sel.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._sel.close()
        if self._log:
            self._log.close()
            self._log = None

    # -- plumbing -----------------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(True)  # sends block; reads arrive via the selector
        conn = _Conn(sock)
        self._conns[sock] = conn
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _drop(self, conn: _Conn) -> None:
        if conn.sock not in self._conns:
            return
        del self._conns[conn.sock]
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        if conn.dev is not None and self._by_dev.get(conn.dev) is conn:
            del self._by_dev[conn.dev]

    def _send(self, conn: _Conn, record: dict) -> None:
        try:
            conn.sock.sendall(json.dumps(record, sort_keys=True).encode() + b"\n")
        except OSError:
            self._drop(conn)

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except OSError:
            self._drop(conn)
            return
        if not data:
            self._drop(conn)
            return
        conn.buf += data
        while b"\n" in conn.buf:
            raw, conn.buf = conn.buf.split(b"\n", 1)
            if len(raw) > MAX_LINE_BYTES:
                self._proto_error(conn, f"request line longer than {MAX_LINE_BYTES} bytes")
            elif raw.strip():
                self._handle(conn, raw)
            if conn.sock not in self._conns:
                return
        if len(conn.buf) > MAX_LINE_BYTES:
            self._proto_error(conn, f"request line longer than {MAX_LINE_BYTES} bytes")

    def _proto_error(self, conn: _Conn, message: str, cid=None) -> None:
        self._send(conn, {"t": "error", "cid": cid, "code": "proto", "message": message})
        self._drop(conn)

    # -- dispatch -----------------------------------------------------------

    def _handle(self, conn: _Conn, raw: bytes) -> None:
        try:
            msg = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            self._proto_error(conn, f"bad json: {exc}")
            return
        if not isinstance(msg, dict) or not isinstance(msg.get("t"), str):
            self._proto_error(conn, "request must be an object with a string 't'")
            return
        t = msg["t"]
        cid = msg.get("cid")
        if t == "hello":
            dev = msg.get("dev")
            if not isinstance(dev, str) or not dev:
                self._proto_error(conn, "hello requires a non-empty 'dev'", cid)
                return
            if dev not in self.kernel.devs:
                self.kernel.register(dev)
            conn.dev = dev
            self._by_dev[dev] = conn
            self._send(conn, self._snapshot_record(cid, dev))
            return
        if conn.dev is None:
            self._proto_error(conn, "say hello first", cid)
            return
        if t == "bye":
            self._send(conn, {"t": "bye_ack", "cid": cid})
            self._drop(conn)
            return
        if t == "get_snapshot":
            self._send(conn, self._snapshot_record(cid, conn.dev))
            return
        try:
            if t == "edit":
                if self._edit(conn, msg, cid):
                    return  # buffered edit: the synthesized reply was the answer
            elif t == "commit":
                self.kernel.try_commit(conn.dev)
            elif t == "revert":
                self.kernel.revert(conn.dev)
            elif t == "set_mode":
                self.kernel.set_mode(conn.dev, msg.get("mode"))
            else:
                self._proto_error(conn, f"unknown request type {t!r}", cid)
                return
        except KernelError as exc:
            self._flush_events(None, None)
            self._send(
                conn, {"t": "error", "cid": cid, "code": exc.code, "message": exc.message}
            )
            return
        self._flush_events(conn, cid)

    def _edit(self, conn: _Conn, msg: dict, cid) -> bool:
        """Returns True when the edit was buffered and already answered."""
        kind = msg.get("kind")
        target = msg.get("target")
        args = msg.get("args") or {}
        if not isinstance(kind, str) or not isinstance(args, dict):
            raise KernelError("malformed-op", "edit requires string 'kind' and object 'args'")
        request = EditRequest(kind, target, args)
        if self.kernel.devs[conn.dev].mode == OFF_RECORD:
            # buffered edits emit no kernel events; answer with a private
            # gate verdict shaped like a build_status record
            op, report = self.kernel.buffer_edit(conn.dev, request)
            self._send(
                conn,
                {
                    "t": "build_status",
                    "cid": cid,
                    "dev": conn.dev,
                    "details": {
                        "status": report.status,
                        "context": "buffer",
                        "target": op.target,
                        "errors": [e.to_record() for e in report.errors],
                    },
                },
            )
            return True
        self.kernel.request_edit(conn.dev, request)
        return False

    def _snapshot_record(self, cid, dev: str) -> dict:
        snap = self.kernel.snapshot
        return {
            "t": "hello_ack",
            "cid": cid,
            "dev": dev,
            "version": snap.version,
            "text": snap.text,
            "last_seq": self.kernel.events[-1].seq if self.kernel.events else 0,
            "uptime_ms": int((time.monotonic() - self.started) * 1000),
        }

    def _flush_events(self, requester: _Conn | None, cid) -> None:
        new = self.kernel.events[self._drained :]
        self._drained = len(self.kernel.events)
        if self._log:
            for event in new:
                self._log.write(event.to_json() + "\n")
            self._log.flush()
        primary = None
        if requester is not None:
            for i, event in enumerate(new):
                if event.kind in _BROADCAST_KINDS or event.dev == requester.dev:
                    primary = i
        for i, event in enumerate(new):
            record = event.to_record()
            record["t"] = event.kind
            if event.kind in _BROADCAST_KINDS:
                recipients = list(self._conns.values())
            else:
                recipient = self._by_dev.get(event.dev)
                recipients = [recipient] if recipient is not None else []
            for conn in recipients:
                out = record
                if conn is requester and i == primary and cid is not None:
                    out = dict(record)
                    out["cid"] = cid
                self._send(conn, out)
        if requester is not None and primary is None and requester.sock in self._conns:
            self._send(
                requester,
                {"t": "error", "cid": cid, "code": "noop", "message": "request had no effect"},
            )


# ---------------------------------------------------------------------------
# Client


class ClientError(RuntimeError):
    pass


@dataclass
class ClientResult:
    dev: str
    sent: int
    received: list[dict] = field(default_factory=list)

    def events(self) -> list[dict]:
        return [r for r in self.received if "seq" in r]


class _LineSocket:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = b""

    def send(self, record: dict) -> None:
        self.sock.sendall(json.dumps(record, sort_keys=True).encode() + b"\n")

    def recv_line(self, timeout: float | None) -> dict | None:
        """Next decoded line, or None on timeout. Raises ClientError on EOF."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while b"\n" not in self.buf:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return None
            self.sock.settimeout(remaining)
            try:
                data = self.sock.recv(65536)
            except socket.timeout:
                return None
            if not data:
                raise ClientError("server closed the connection")
            self.buf += data
        raw, self.buf = self.buf.split(b"\n", 1)
        return json.loads(raw.decode("utf-8"))


def _action_request(action: Action, target) -> dict:
    if action.is_edit:
        return {"t": "edit", "kind": action.verb, "target": target, "args": dict(action.args)}
    if action.verb in ("try_commit", "checkin"):
        return {"t": "commit"}
    if action.verb == "revert":
        return {"t": "revert"}
    return {"t": "set_mode", "mode": MODE_BY_VERB[action.verb]}


def _reply(action: Action, record: dict) -> Reply:
    kind = record.get("t")
    details = record.get("details") or {}
    if kind == "error":
        return Reply(ERROR, code=record.get("code", ""), message=record.get("message", ""))
    if kind == "lock_denied":
        return Reply(DENIED, target=details["target"])
    if details.get("context") == "buffer":
        return Reply(BUFFERED, target=details["target"], status=details["status"])
    return Reply(GRANTED if action.is_edit else DONE)


def client_session(
    host: str,
    port: int,
    dev: str,
    script: ScenarioScript,
    time_scale_ms: float = 10.0,
    out=None,
    response_timeout: float = 10.0,
) -> ClientResult:
    """Replay the script's actions for one developer against a server.

    The actions run through scenario.drive, as in the simulator. Virtual
    times become wall-clock delays of `time_scale_ms` milliseconds per unit.
    Every received line is appended to the result (and printed to `out`
    when given); events are deduplicated by seq in case a record arrives
    both as a direct reply and a broadcast.
    """
    result = ClientResult(dev, 0)
    seen_seqs: set[int] = set()

    def note(record: dict) -> None:
        if "seq" in record:
            if record["seq"] in seen_seqs:
                return
            seen_seqs.add(record["seq"])
        result.received.append(record)
        if out is not None:
            out.write(json.dumps(record, sort_keys=True) + "\n")

    def await_cid(line: _LineSocket, cid: str) -> dict:
        while True:
            record = line.recv_line(response_timeout)
            if record is None:
                raise ClientError(f"{dev}: timed out waiting for reply to {cid}")
            note(record)
            if record.get("cid") == cid:
                return record

    with socket.create_connection((host, port), timeout=response_timeout) as sock:
        line = _LineSocket(sock)
        line.send({"t": "hello", "dev": dev, "cid": "hello"})
        hello = await_cid(line, "hello")
        if hello.get("t") != "hello_ack":
            raise ClientError(f"{dev}: hello rejected: {hello}")
        # anchor the schedule to the server's clock so independently started
        # clients agree on when each virtual instant falls
        start = time.monotonic() - hello.get("uptime_ms", 0) / 1000.0

        def wait_until(vt: int) -> None:
            moment = start + vt * time_scale_ms / 1000.0
            while True:
                remaining = moment - time.monotonic()
                if remaining <= 0:
                    return
                record = line.recv_line(remaining)
                if record is not None:
                    note(record)

        def attempt(action: Action, n: int, target) -> Reply:
            cid = f"{action.line}.{n}"
            line.send(dict(_action_request(action, target), cid=cid))
            result.sent += 1
            return _reply(action, await_cid(line, cid))

        actions = [a for a in script.actions if a.dev == dev]
        # the client's output is what the server sent; it keeps no driver notes
        drive(script.name, actions, attempt, wait_until, lambda **_: None)
        line.send({"t": "bye", "cid": "bye"})
        await_cid(line, "bye")
    return result


def serve_until_interrupted(server: WireServer, out=None) -> None:
    if out is None:
        out = sys.stdout
    out.write(f"listening on {server.host}:{server.port}\n")
    out.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
        server.close()

"""The wire workload: `ssd serve` as a subprocess, started through
perfbench/wire_server.py with the default config (auto-commit on), on
simbench.make_project(classes=4); one load generator (this process) with two
connections, each a closed loop: it sends its next request when the reply
carrying the previous request's cid has arrived. About 75% of requests are
edits of the connection's own class, 25% `get_snapshot`.

The client leaves Nagle's algorithm on, as `ssd client` does, so transport
stalls show in the round-trip times.
"""

from __future__ import annotations

import json
import random
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from ssd import simbench, synckernel

import layers
import workloads
from stats import DENIED, KERNEL_ERROR, OK, PROTO_ERROR, REBASE_FAILURE, TIMEOUT
from workloads import PREFIX_OPS, SETUPS, STREAM, Result

DEVS = ("w0", "w1")
REPLY_TIMEOUT_S = 20.0
START_TIMEOUT_S = 30.0
# Before each request a connection waits a random think time. Without it the
# two loops lock into one phase for a whole run (every read queued behind the
# other connection's commit, or none), and the tails jump from run to run.
THINK_MAX_S = 0.020


def wire_inputs(seed: int) -> tuple[str, dict[str, list[tuple[dict, float]]]]:
    """Per connection, a stream of (request record without cid, think time)."""
    rng = random.Random(seed)
    classes = rng.sample(range(4), len(DEVS))
    streams: dict[str, list[tuple[dict, float]]] = {}
    for dev, c in zip(DEVS, classes):
        names = [f"f{j}" for j in range(4)]
        reads = workloads.Deck(rng, [True] + [False] * 3)
        edits = workloads.Deck(rng, workloads.OWN_EDITS)
        stream = []
        for _ in range(STREAM // 4):
            if reads.draw():
                record = {"t": "get_snapshot"}
            else:
                req = workloads.own_edit(rng, edits, f"C{c}", names)
                record = {"t": "edit", "kind": req.kind, "target": req.target, "args": req.args}
            stream.append((record, rng.uniform(0, THINK_MAX_S)))
        streams[dev] = stream
    return simbench.make_project(classes=4), streams


class Server:
    """One launcher subprocess and the files it writes."""

    def __init__(self, root: Path, out: Path, tag: str, project: Path, trace: bool):
        self.stats_path = out / f"wire-{tag}-stats.json"
        self.log_path = out / f"wire-{tag}-session.log"
        self.spans_path = out / f"wire-{tag}-spans.jsonl.gz"
        cmd = [
            sys.executable,
            str(root / "perfbench" / "wire_server.py"),
            "--stats", str(self.stats_path),
            "--trace", str(int(trace)),
            "--spans", str(self.spans_path),
            "--",
            "serve",
            "--project", str(project),
            "--listen", "127.0.0.1:0",
            "--session-log", str(self.log_path),
        ]
        self.proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()  # "listening on HOST:PORT"
        if not line.startswith("listening on "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> dict:
        """SIGINT, wait for the launcher to write its stats, return them."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop on SIGINT") from None
        with open(self.stats_path, encoding="utf-8") as f:
            return json.load(f)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()


class Conn:
    """One closed-loop client connection."""

    def __init__(self, port: int, dev: str):
        self.dev = dev
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.buf = b""
        self.sent: list[str] = []
        self.replies: dict[str, int] = {}
        self.pending: tuple[str, str, float] | None = None  # cid, kind, send time
        self.send_at: float | None = None  # when the next request is due
        self.seq = 0

    def send(self, record: dict, cid: str, kind: str) -> None:
        self.sock.sendall(json.dumps(dict(record, cid=cid), sort_keys=True).encode() + b"\n")
        self.sent.append(cid)
        self.pending = (cid, kind, time.perf_counter())

    def read_lines(self) -> list[dict]:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError(f"{self.dev}: server closed the connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def call(self, record: dict, cid: str) -> dict:
        """Send one request and block until its reply."""
        self.send(record, cid, "untimed")
        reply = None
        while reply is None:
            for rec in self.read_lines():
                reply = self.note(rec) or reply
        return reply

    def note(self, rec: dict) -> dict | None:
        cid = rec.get("cid")
        if cid is None:
            return None
        self.replies[cid] = self.replies.get(cid, 0) + 1
        if self.pending is not None and cid == self.pending[0]:
            self.pending = None
            return rec
        return None

    def close(self) -> None:
        self.sock.close()


def _outcome(reply: dict) -> str:
    if reply.get("t") == "error":
        return PROTO_ERROR if reply.get("code") == "proto" else KERNEL_ERROR
    return DENIED if reply.get("t") == "lock_denied" else OK


def drive(server: Server, conns: list[Conn], streams: dict, seconds: float, result: Result, rtts: list):
    """Run both connections' closed loops for `seconds`: each sends its next
    request a think time after the reply carrying the previous request's
    cid. Appends (dev, cid, kind, rtt ms) to `rtts`; returns round-trip
    times by kind, the number of completed requests and the elapsed time.
    Reads the server's peak memory when the first PREFIX_OPS requests have
    completed."""
    by_kind: dict[str, list[float]] = {}
    sel = selectors.DefaultSelector()
    start = time.perf_counter()
    deadline = start + seconds
    done = 0

    def send_next(conn: Conn) -> None:
        record, _think = streams[conn.dev][conn.seq]
        kind = "edit" if record["t"] == "edit" else "read"
        conn.send(record, f"{kind[0]}{conn.seq}", kind)
        conn.seq += 1

    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
        conn.send_at = start + streams[conn.dev][conn.seq][1]
    try:
        while True:
            now = time.perf_counter()
            for conn in conns:
                if conn.send_at is not None and conn.send_at <= now:
                    conn.send_at = None
                    send_next(conn)
            due = [c.send_at for c in conns if c.send_at is not None]
            if not due and not any(c.pending for c in conns):
                break
            ready = sel.select(max(0.0, min(due) - now) if due else REPLY_TIMEOUT_S)
            if not ready and not due:
                result.tally.record(TIMEOUT, sum(1 for c in conns if c.pending))
                break
            for key, _ in ready:
                conn = key.data
                for rec in conn.read_lines():
                    pending = conn.pending
                    if conn.note(rec) is None:
                        continue
                    cid, kind, sent = pending
                    now = time.perf_counter()
                    rtt = 1000 * (now - sent)
                    by_kind.setdefault(kind, []).append(rtt)
                    rtts.append((conn.dev, cid, kind, rtt))
                    result.tally.record(_outcome(rec))
                    done += 1
                    if done == PREFIX_OPS["wire"]:
                        result.peak_rss_mb = workloads.peak_rss_mb(server.proc.pid)
                    if now < deadline and conn.seq < len(streams[conn.dev]):
                        conn.send_at = now + streams[conn.dev][conn.seq][1]
    finally:
        for conn in conns:
            sel.unregister(conn.sock)
        sel.close()
    return by_kind, done, time.perf_counter() - start


def _start(root, out, tag, project, trace, result: Result | None = None):
    t0 = time.perf_counter()
    server = Server(root, out, tag, project, trace)
    try:
        conns = [Conn(server.port, dev) for dev in DEVS]
        for conn in conns:
            reply = conn.call({"t": "hello", "dev": conn.dev}, "hello")
            if reply.get("t") != "hello_ack":
                raise RuntimeError(f"hello rejected: {reply}")
    except BaseException:
        server.kill()
        raise
    if result is not None:
        result.setup_s.append(time.perf_counter() - t0)
    return server, conns


def _finish(server: Server, conns: list[Conn]) -> dict:
    try:
        for conn in conns:
            conn.call({"t": "bye"}, "bye")
            conn.close()
    except BaseException:
        server.kill()
        raise
    return server.stop()


def run_wire(root: Path, out: Path, seed: int, seconds: float, trace: bool) -> Result:
    result = Result("wire")
    text, streams = wire_inputs(seed)
    project = out / "wire-project.mj"
    project.write_text(text, encoding="utf-8")

    register: list[float] = []
    for i in range(SETUPS["wire"] - 1):
        server, conns = _start(root, out, f"setup{i}", project, False, result)
        register += _finish(server, conns)["samples"]["register"]
    server, conns = _start(root, out, "run", project, False, result)
    every_conn = list(conns)
    rtts: list = []
    try:
        if not trace:
            by_kind, done, elapsed = drive(server, conns, streams, seconds, result, rtts)
        else:
            untraced, _, _ = drive(server, conns, streams, seconds / 2, result, rtts)
            untraced_stats = _finish(server, conns)
            register += untraced_stats["samples"]["register"]
            result.check("untraced server: published snapshots pass the build gate",
                         untraced_stats["checks"]["published snapshots pass the build gate"])
            server, conns = _start(root, out, "traced", project, True)
            every_conn += conns
            rtts.clear()
            by_kind, done, elapsed = drive(server, conns, streams, seconds / 2, result, rtts)
        snapshot = conns[0].call({"t": "get_snapshot"}, "final")
        if done < PREFIX_OPS["wire"]:
            result.peak_rss_mb = workloads.peak_rss_mb(server.proc.pid)
    except BaseException:
        server.kill()
        raise
    stats = _finish(server, conns)
    result.ops, result.elapsed_s = done, elapsed
    result.samples = {
        "register": register + stats["samples"]["register"],
        "edit": by_kind.get("edit", []),
        "read": by_kind.get("read", []),
        "commit": stats["samples"]["try_commit"],
    }

    for name, problems in stats["checks"].items():
        result.check(name, problems)
    result.check("exactly one cid reply per request", _cid_problems(every_conn))
    events = [
        synckernel.KernelEvent.from_record(json.loads(line))
        for line in server.log_path.read_text(encoding="utf-8").splitlines()
    ]
    replayed = synckernel.Kernel.replay_committed(text, events)
    result.check(
        "replaying the session log gives the final get_snapshot text",
        [] if replayed == snapshot.get("text") else ["replayed text differs from get_snapshot"],
    )
    reverts = sum(1 for e in events if e.kind == "reverted" and e.details.get("reason") == "rebase-failure")
    if reverts:
        result.tally.record(REBASE_FAILURE, reverts)

    if trace:
        result.layers = stats["layers"]
        result.check("span structure", stats["spans_ok"])
        server_ms = {(dev, cid): (k + j) / 1e6 for dev, cid, k, j in stats["requests"]}
        kernel_ms = [k / 1e6 for _dev, _cid, k, _j in stats["requests"]]
        transport = [rtt - server_ms[(dev, cid)] for dev, cid, _kind, rtt in rtts if (dev, cid) in server_ms]
        result.layers["netwire.kernel_ms"] = sum(kernel_ms) / max(len(kernel_ms), 1)
        result.layers["netwire.transport_ms"] = sum(transport) / max(len(transport), 1)
        result.layers.update(layers.overhead(untraced, by_kind))
        result.notes.append(f"server spans written to {server.spans_path.relative_to(root)}")
    return result


def _cid_problems(conns: list[Conn]) -> list[str]:
    problems = []
    for conn in conns:
        for cid in conn.sent:
            if conn.replies.get(cid, 0) != 1:
                problems.append(f"{conn.dev} {cid}: {conn.replies.get(cid, 0)} replies")
        for cid in set(conn.replies) - set(conn.sent):
            problems.append(f"{conn.dev}: reply for unknown cid {cid}")
    return problems

"""Launcher for the wire workload's server: runs `ssd serve` in this process
with the benchmark's measurement installed from outside, then, after the
server has stopped (SIGINT), writes what it measured and checked as JSON.

    python3 perfbench/wire_server.py --stats F [--trace 0|1] [--spans F] -- serve ARGS...

Untraced, it keeps the latency of Kernel.register, request_edit and
try_commit. Traced, every request is a span tree rooted at
`WireServer._handle`; the `json` module inside `netwire` is replaced by a
timed shim that also counts the lines and bytes the server sends.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ssd import cli, netwire  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

# cids the load generator gives to requests outside the timed phase
UNTIMED_CIDS = {"hello": "setup", "bye": "bye", "final": "final"}


class TimedJson:
    """Stands in for the `json` module inside `netwire`: times encoding and
    decoding as `netwire.json` spans and counts each encoded line as sent."""

    def __init__(self, tracer: spans.Tracer):
        self._tracer = tracer

    def dumps(self, obj, **kwargs):
        sid = self._tracer.open("netwire.json")
        try:
            text = json.dumps(obj, **kwargs)
        finally:
            self._tracer.close(sid)
        self._tracer.count("netwire.lines_sent")
        self._tracer.count("netwire.bytes_sent", len(text.encode()) + 1)
        return text

    def loads(self, raw, **kwargs):
        sid = self._tracer.open("netwire.json")
        try:
            return json.loads(raw, **kwargs)
        finally:
            self._tracer.close(sid)

    def __getattr__(self, attr):
        return getattr(json, attr)


def _request_kind(raw: bytes) -> tuple[str, object]:
    try:
        msg = json.loads(raw)
    except ValueError:
        return "malformed", None
    cid = msg.get("cid") if isinstance(msg, dict) else None
    if cid in UNTIMED_CIDS:
        return UNTIMED_CIDS[cid], cid
    return {"edit": "edit", "get_snapshot": "read"}.get(msg.get("t"), "other"), cid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    import ssd

    patches = spans.Patches()
    timers = spans.Timers()
    tracer = spans.Tracer()
    captured = {}
    requests: list[tuple] = []  # (dev, cid, kind, request id)
    locks_max = [0]

    def capture(serve):
        def serve_until_interrupted(server, out=None):
            captured["server"] = server
            return serve(server, out)

        return serve_until_interrupted

    patches.replace(netwire, "serve_until_interrupted", capture(netwire.serve_until_interrupted))
    if args.trace:
        tracer.install(ssd, patches)
        patches.replace(netwire, "json", TimedJson(tracer))
        handle = netwire.WireServer._handle
        init = netwire.WireServer.__init__

        def traced_handle(self, conn, raw):
            kind, cid = _request_kind(raw)
            with tracer.request(kind) as rid:
                handle(self, conn, raw)
            requests.append((conn.dev, cid, kind, rid))
            locks_max[0] = max(locks_max[0], len(self.kernel.lock_holder))

        def traced_init(self, *a, **k):
            with tracer.request("setup"):
                init(self, *a, **k)

        patches.replace(netwire.WireServer, "_handle", traced_handle)
        patches.replace(netwire.WireServer, "__init__", traced_init)
    else:
        timers.install(ssd, patches)

    status = cli.main(serve_args)
    patches.undo()
    stats: dict = {"status": status}
    server = captured.get("server")
    if server is not None:
        kernel = server.kernel
        stats["checks"] = {
            "published snapshots pass the build gate": checks.snapshots_buildable(kernel),
            "no two developers hold dependent elements": checks.locks_independent(kernel),
        }
        stats["samples"] = timers.samples
        if args.trace:
            stats["spans_ok"] = checks.span_problems(tracer)
            stats["layers"], stats["requests"] = _layers(tracer, requests, kernel, locks_max[0])
            if args.spans:
                tracer.dump(args.spans)
    with open(args.stats, "w", encoding="utf-8") as out:
        json.dump(stats, out)
    return status


def _layers(tracer: spans.Tracer, requests, kernel, locks_max: int):
    """Per-layer metrics per timed request, and per timed request its
    (dev, cid, kernel ns, json ns) for the client to subtract from its
    round-trip time."""
    timed_kinds = ("edit", "read")
    ops = sum(1 for r in requests if r[2] in timed_kinds)
    counts = layers.kernel_counts(kernel.events)
    out = layers.layer_metrics(tracer, timed_kinds, ops, 1, counts, locks_max)
    for name in ("netwire.lines_sent", "netwire.bytes_sent"):
        out[name] = sum(n for (kind, key), n in tracer.counts.items() if kind in timed_kinds and key == name) / max(ops, 1)
    kernel_ns: dict[int, int] = {}
    json_ns: dict[int, int] = {}
    for i in range(len(tracer)):
        rid, parent = tracer.rid[i], tracer.parent[i]
        if rid < 0 or parent < 0:
            continue
        name = tracer.names[tracer.name[i]]
        dur = tracer.end[i] - tracer.start[i]
        if name == "netwire.json":
            json_ns[rid] = json_ns.get(rid, 0) + dur
        elif name.startswith("synckernel.") and tracer.parent[parent] < 0:
            kernel_ns[rid] = kernel_ns.get(rid, 0) + dur
    per_request = [
        (dev, cid, kernel_ns.get(rid, 0), json_ns.get(rid, 0))
        for dev, cid, kind, rid in requests
        if kind in timed_kinds
    ]
    return out, per_request


if __name__ == "__main__":
    sys.exit(main())

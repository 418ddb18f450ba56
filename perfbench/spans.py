"""Measurement installed from outside the program.

Nothing here edits `src/`: public functions of each module are replaced at
runtime by timing wrappers, and the `copy` module reference inside
`synckernel` and `baseline` is replaced by a shim whose `deepcopy` is timed.
`Patches.undo` puts every original back.

Two instruments share the wrappers:

* `Timers` keeps the latency of a few kernel entry points (register,
  request_edit, try_commit) for the untraced run; one clock read on each
  side of the call.
* `Tracer` keeps spans: name, start, end, parent span and request id, in
  memory as parallel integer columns, written out with `dump` at exit. Self
  time is computed from them afterwards (`self_times`).
"""

from __future__ import annotations

import copy as _copy
import gzip
import importlib
import json as _json
import time
from array import array
from contextlib import contextmanager

now_ns = time.perf_counter_ns

# Spanned entry points by module, as attribute paths. A span is named
# `<module>.<function>`; a method is named after its module, not its class.
SPANNED = {
    "minilang": ["parse_unit", "parse_statement", "parse_expression", "print_unit"],
    "semantics": ["resolve", "build_gate"],
    "depcore": [
        "annotate",
        "build_element_table",
        "union_tables",
        "ref_edges",
        "build_ref_index",
        "ElementTable.descendants",
    ],
    "editops": ["prepare", "apply_op"],
    "synckernel": [
        "replay_onto",
        "Kernel.register",
        "Kernel.request_edit",
        "Kernel.try_commit",
        "Kernel.revert",
        "Kernel.set_mode",
        "Kernel.buffer_edit",
        "Kernel.check_admission",
        "Kernel.replay_committed",
    ],
    "baseline": [
        "merge_trees",
        "BaselineRepo.register",
        "BaselineRepo.edit",
        "BaselineRepo.checkin",
        "BaselineRepo.revert",
    ],
    "simbench": ["run_scenario"],
}

# Called too often to span; counted only.
COUNTED = {"depcore": ["dependency_rule"]}

# Modules whose `copy` attribute is replaced by a timed shim.
COPY_SHIMMED = ("synckernel", "baseline")

# Kernel entry points whose latency the untraced run keeps.
TIMED = ("register", "request_edit", "try_commit")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        # read through __dict__ so a staticmethod is saved as itself
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _module(package, name: str):
    return importlib.import_module(f"{package.__name__}.{name}")


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrap_attr(patches: Patches, owner, attr: str, make) -> None:
    """Replace owner.attr with make(function), keeping staticmethods static."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        patches.replace(owner, attr, staticmethod(make(raw.__func__)))
    else:
        patches.replace(owner, attr, make(raw))


# ---------------------------------------------------------------------------
# Untraced latency timers


class Timers:
    """Latency samples (ms) of the kernel entry points in TIMED. Nested calls
    (an auto-commit inside request_edit) are each recorded."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name in TIMED}
        self.recording = True

    def install(self, ssd, patches: Patches) -> None:
        for name in TIMED:
            kernel = _module(ssd, "synckernel").Kernel
            _wrap_attr(patches, kernel, name, lambda fn, n=name: self._timed(fn, n))

    def _timed(self, fn, name: str):
        samples = self.samples[name]

        def timed(*args, **kwargs):
            start = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.recording:
                    samples.append((now_ns() - start) / 1e6)

        return timed


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory spans of one thread. A request is a root span; every span
    opened while it is open carries its id. Spans opened outside a request
    carry request id -1."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("q")
        self.rid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.request_kinds: list[str] = []
        self.counts: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        self._req = -1

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rid.append(self._req)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(now_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = now_ns()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        """Add n to a counter of the current request's kind; counts outside
        a request are dropped."""
        if self._req >= 0:
            key = (self.request_kinds[self._req], name)
            self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def request(self, kind: str):
        """Open a request: a root span named `request.<kind>`."""
        if self._stack:
            raise RuntimeError("requests do not nest")
        rid = len(self.request_kinds)
        self.request_kinds.append(kind)
        self._req = rid
        sid = self.open(f"request.{kind}")
        try:
            yield rid
        finally:
            self.close(sid)
            self._req = -1

    def spanned(self, fn, name: str):
        def spanned(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return spanned

    def counted(self, fn, name: str):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self, ssd, patches: Patches) -> None:
        """Wrap the SPANNED and COUNTED entry points and shim `copy` in
        COPY_SHIMMED."""
        for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for module_name, paths in table.items():
                module = _module(ssd, module_name)
                for path in paths:
                    owner, attr = _resolve(module, path)
                    name = f"{module_name}.{attr}"
                    _wrap_attr(patches, owner, attr, lambda fn, n=name: make(fn, n))
        for module_name in COPY_SHIMMED:
            module = _module(ssd, module_name)
            patches.replace(module, "copy", TimedCopy(self, f"{module_name}.tree_copy"))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i in range(len(self.start)):
                rid = self.rid[i]
                out.write(
                    _json.dumps(
                        [
                            i,
                            self.names[self.name[i]],
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            rid,
                            self.request_kinds[rid] if rid >= 0 else None,
                        ]
                    )
                    + "\n"
                )


class TimedCopy:
    """Stands in for the `copy` module inside one program module. Only the
    module's own `deepcopy` calls are spanned: the recursion inside
    `copy.deepcopy` looks `deepcopy` up in the real `copy` module, which is
    left untouched."""

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def deepcopy(self, x, memo=None):
        sid = self._tracer.open(self._name)
        try:
            return _copy.deepcopy(x, memo)
        finally:
            self._tracer.close(sid)

    def __getattr__(self, attr):
        return getattr(_copy, attr)


# ---------------------------------------------------------------------------
# Analysis


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of it its child spans cover.
    Spans of one thread nest, so the children's durations are subtracted."""
    result = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            result[p] -= end[i] - start[i]
    return result


def check_requests(tracer: Tracer, selfs: list[int]) -> list[str]:
    """Structural checks on the spans: children lie inside their parent and
    in the same request, no self time is negative, and within each request
    the self times sum to the request's duration."""
    problems: list[str] = []
    totals: dict[int, int] = {}
    roots: dict[int, int] = {}
    for i in range(len(tracer)):
        rid, p = tracer.rid[i], tracer.parent[i]
        if tracer.end[i] < tracer.start[i]:
            problems.append(f"span {i} ends before it starts")
        if selfs[i] < 0:
            problems.append(f"span {i} ({tracer.names[tracer.name[i]]}) has negative self time")
        if p >= 0:
            if tracer.rid[p] != rid:
                problems.append(f"span {i} and its parent are in different requests")
            if tracer.start[i] < tracer.start[p] or tracer.end[i] > tracer.end[p]:
                problems.append(f"span {i} is not inside its parent")
        elif rid >= 0:
            if rid in roots:
                problems.append(f"request {rid} has two root spans")
            roots[rid] = i
        if rid >= 0:
            totals[rid] = totals.get(rid, 0) + selfs[i]
    for rid, root in roots.items():
        if totals[rid] != tracer.end[root] - tracer.start[root]:
            problems.append(f"request {rid}: self times do not sum to its duration")
    return problems[:20]


def layer_totals(tracer: Tracer, selfs: list[int], kinds) -> dict[str, tuple[int, int]]:
    """Per span name: (calls, self ns) over the requests of the given kinds.
    Request root spans are left out."""
    kinds = set(kinds)
    wanted = {rid for rid, kind in enumerate(tracer.request_kinds) if kind in kinds}
    totals: dict[str, list[int]] = {}
    for i in range(len(tracer)):
        if tracer.rid[i] in wanted and tracer.parent[i] >= 0:
            entry = totals.setdefault(tracer.names[tracer.name[i]], [0, 0])
            entry[0] += 1
            entry[1] += selfs[i]
    return {name: (calls, ns) for name, (calls, ns) in totals.items()}

"""Coordination kernel for synchronized development.

One authoritative snapshot, one overlay per developer. An edit is admitted
only if nothing it touches depends on an element another developer holds;
admitted edits take element locks and apply to the editor's overlay. A commit
is allowed only when the overlay passes the build gate, so every propagated
state is buildable by construction. Commits rebase the other overlays, which
cannot fail under the lock discipline and is treated as an internal error if
it ever does. Off-the-record mode trades coordination for privacy: edits
bypass admission and are reconciled, or refused, when the developer comes
back on the record.

Everything observable is a KernelEvent with a gapless sequence number; the
committed events alone are enough to replay the snapshot byte for byte.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import dataclass, field

from . import depcore
from . import editops
from . import minilang as ml
from . import semantics

EVENT_KINDS = frozenset(
    [
        "lock_granted",
        "lock_denied",
        "edit_applied",
        "build_status",
        "committed",
        "reverted",
        "mode_changed",
        "reconcile_result",
    ]
)

ON_RECORD = "on_record"
OFF_RECORD = "off_record"

_BUILDABLE = semantics.BuildReport(semantics.BUILDABLE, [])


class KernelError(Exception):
    """Request rejected before it produced any event."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class KernelConfig:
    auto_commit: bool = True
    lock_lease_ms: int = 0  # 0 disables lease expiry

    @staticmethod
    def parse(text: str) -> "KernelConfig":
        """`key = value` lines; '#' starts a comment; unknown keys rejected."""
        values: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep or not key or not value:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            try:
                values[key] = KernelConfig.parse_value(key, value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return KernelConfig(**values)

    @staticmethod
    def parse_value(key: str, value: str) -> bool | int:
        """One setting from its text; ValueError on an unknown key or a bad
        value. The one validation of config keys, for config files and
        scenario headers alike."""
        if key == "auto_commit":
            if value not in ("true", "false"):
                raise ValueError("auto_commit must be true or false")
            return value == "true"
        if key == "lock_lease_ms":
            try:
                ms = int(value)
            except ValueError:
                raise ValueError("lock_lease_ms must be an integer") from None
            if ms < 0:
                raise ValueError("lock_lease_ms must be >= 0")
            return ms
        raise ValueError(f"unknown config key {key!r}")


@dataclass(frozen=True)
class KernelEvent:
    seq: int
    kind: str
    dev: str | None
    details: dict

    def to_record(self) -> dict:
        return {"seq": self.seq, "kind": self.kind, "dev": self.dev, "details": self.details}

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)

    @staticmethod
    def from_record(record: dict) -> "KernelEvent":
        return KernelEvent(record["seq"], record["kind"], record["dev"], record["details"])


@dataclass
class Snapshot:
    version: int
    tree: ml.Unit
    text: str
    table: depcore.ElementTable
    # Edge sets are replaced whole and never mutated, so the snapshot and
    # the overlays share them freely.
    edges: set[tuple[int, int]]

    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


@dataclass
class _Overlay:
    """A developer's view: a base snapshot plus a list of ops, replayed.

    On the record, `base` is the latest snapshot and `ops` the pending
    (locked, uncommitted) ops. Off the record, `base` is the snapshot the
    spell started from and `ops` the buffered ops. Either way `tree` equals
    `replay_onto(deepcopy(base.tree), ops)`. `table`, `edges` and `report`
    are derived from the tree by `Kernel._derive` after every change to it;
    with no ops they are the base snapshot's edges and a buildable report."""

    dev: str
    base: Snapshot
    tree: ml.Unit
    ops: list[editops.EditOp] = field(default_factory=list)
    mode: str = ON_RECORD
    table: depcore.ElementTable = field(init=False)
    edges: set[tuple[int, int]] = field(init=False)  # shared, see Snapshot
    report: semantics.BuildReport = field(init=False)


@dataclass
class EditOutcome:
    granted: bool
    op: editops.EditOp | None
    events: list[KernelEvent]
    report: semantics.BuildReport | None = None


@dataclass
class CommitOutcome:
    ok: bool
    version: int | None
    events: list[KernelEvent]
    report: semantics.BuildReport | None = None


@dataclass
class ModeOutcome:
    ok: bool
    mode: str
    events: list[KernelEvent]


def replay_onto(tree: ml.Unit, ops: list[editops.EditOp]) -> ml.Unit:
    """Apply ops in order to `tree`, mutating it, and return it. Each op
    finds its own target, so no element table is built. Deterministic."""
    for op in ops:
        editops.apply_op(tree, op)
    return tree


class Kernel:
    """The single logical coordination state machine.

    Callers are expected to serialize access (the network layer is
    single-threaded, the simulator is sequential)."""

    def __init__(
        self,
        source_text: str = "",
        config: KernelConfig | None = None,
        clock=None,
    ):
        self.config = config or KernelConfig()
        self.clock = clock or (lambda: int(time.monotonic() * 1000))
        self.initial_text = source_text
        tree, diags = ml.parse_unit(ml.SourceText(source_text, "<initial>"))
        if tree is None:
            raise ValueError(f"initial source does not parse: {diags[0].message}")
        self.alloc = depcore.IdAllocator()
        depcore.annotate(tree, self.alloc)
        gate = semantics.build_gate(tree)
        if not gate.report.buildable:
            first = gate.report.errors[0]
            raise ValueError(f"initial source is not buildable: {first.message}")
        self.snapshot = Snapshot(
            1, tree, ml.print_unit(tree), depcore.build_element_table(tree), depcore.edges_of(gate.bindings)
        )
        self.history: list[Snapshot] = [self.snapshot]
        self.events: list[KernelEvent] = []
        self.devs: dict[str, _Overlay] = {}
        self.lock_holder: dict[int, str] = {}
        self.lease_deadline: dict[int, int] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _emit(self, event_kind: str, dev: str | None, **details) -> KernelEvent:
        event = KernelEvent(len(self.events) + 1, event_kind, dev, details)
        self.events.append(event)
        return event

    def _overlay(self, dev: str) -> _Overlay:
        try:
            return self.devs[dev]
        except KeyError:
            raise KernelError("unknown-developer", f"unknown developer {dev!r}") from None

    def _views(self) -> tuple[depcore.ElementTable, depcore.RefIndex]:
        """The union of the snapshot and every on-record view: their element
        tables, snapshot first so authoritative entries win, and their
        reference edges. Built once per request. Off-record developers are
        invisible to admission by design."""
        views = [self.snapshot] + [ov for _, ov in sorted(self.devs.items()) if ov.mode == ON_RECORD]
        return (
            depcore.union_tables(view.table for view in views),
            depcore.build_ref_index(view.edges for view in views),
        )

    def locks_of(self, dev: str) -> set[int]:
        return {eid for eid, holder in self.lock_holder.items() if holder == dev}

    def _acquire(self, dev: str, eids) -> None:
        now = self.clock()
        for eid in eids:
            self.lock_holder[eid] = dev
            if self.config.lock_lease_ms > 0:
                self.lease_deadline[eid] = now + self.config.lock_lease_ms

    def _release_all(self, dev: str) -> None:
        for eid in [e for e, holder in self.lock_holder.items() if holder == dev]:
            del self.lock_holder[eid]
            self.lease_deadline.pop(eid, None)

    # -- registration and views ----------------------------------------------

    def _replayed(self, ops: list[editops.EditOp]) -> ml.Unit:
        """The current snapshot plus `ops`, on a fresh copy of its tree. The
        only place the kernel copies a tree."""
        return replay_onto(copy.deepcopy(self.snapshot.tree), ops)

    def _derive(self, ov: _Overlay) -> None:
        """Derive the view's element table, reference edges and build report
        from its tree; the one place they are computed. A view with no ops
        is its base snapshot, which passed the gate, so it takes the base's
        edges and a buildable report without a gate."""
        ov.table = depcore.build_element_table(ov.tree)
        if ov.ops:
            gate = semantics.build_gate(ov.tree)
            ov.edges, ov.report = depcore.edges_of(gate.bindings), gate.report
        else:
            ov.edges, ov.report = ov.base.edges, _BUILDABLE

    def _resync(self, ov: _Overlay, ops: list[editops.EditOp]) -> None:
        """Rebase the view on the current snapshot with `ops` on top. Raises
        ApplyError, leaving the overlay untouched, when the ops no longer
        apply."""
        ov.tree = self._replayed(ops)
        ov.base = self.snapshot
        ov.ops = ops
        self._derive(ov)

    def register(self, dev: str) -> None:
        if dev in self.devs:
            raise KernelError("duplicate-developer", f"developer {dev!r} already registered")
        ov = self.devs[dev] = _Overlay(dev, self.snapshot, self._replayed([]))
        self._derive(ov)

    def view_text(self, dev: str) -> str:
        return ml.print_unit(self._overlay(dev).tree)

    def view_table(self, dev: str) -> depcore.ElementTable:
        return self._overlay(dev).table

    # -- dependency admission ------------------------------------------------

    def _pair_rule(self, a: int, b: int, index, table) -> int | None:
        # ids not in any view (fresh creations, locks on since-deleted
        # elements) can only collide by identity
        if a == b:
            return 1
        if a not in table or b not in table:
            return None
        return depcore.dependency_rule(a, b, index, table)

    def _admission_conflicts(self, dev: str, touched, table, index) -> list[dict]:
        """Dependencies between the touched set and other developers' locks,
        judged on the union of the views (see `_views`), in deterministic
        order. A denial reports the first; reconciliation reports them all."""
        held = sorted((holder, eid) for eid, holder in self.lock_holder.items() if holder != dev)
        found: list[dict] = []
        for t in sorted(touched):
            for holder, eid in held:
                rule = self._pair_rule(t, eid, index, table)
                if rule is not None:
                    found.append({"holder": holder, "rule": rule, "pair": [t, eid]})
        return found

    def _prepare(
        self, ov: _Overlay, request: editops.EditRequest, union: depcore.ElementTable
    ) -> editops.EditOp:
        def descendants(eid: int) -> set[int]:
            return (union if eid in union else ov.table).descendants(eid)

        try:
            return editops.prepare(ov.tree, ov.table, request, self.alloc, descendants)
        except editops.OpError as exc:
            raise KernelError(exc.code, exc.message) from None

    # -- the edit pipeline ---------------------------------------------------

    def _on_record(self, dev: str, refused: str) -> _Overlay:
        ov = self._overlay(dev)
        if ov.mode != ON_RECORD:
            raise KernelError("off-record-violation", f"{dev} is off the record; {refused}")
        return ov

    def _apply(self, ov: _Overlay, op: editops.EditOp) -> None:
        editops.apply_op(ov.tree, op)
        ov.ops.append(op)
        self._derive(ov)

    def check_admission(self, dev: str, request: editops.EditRequest) -> list[dict]:
        """Dry-run admission: resolve the request against the developer's
        view and return every blocking pair, without taking locks, applying
        anything, or emitting events. Creation requests still consume fresh
        element ids."""
        ov = self._on_record(dev, "coordinated edits refused")
        union, index = self._views()
        op = self._prepare(ov, request, union)
        return self._admission_conflicts(dev, op.touched, union, index)

    def request_edit(self, dev: str, request: editops.EditRequest) -> EditOutcome:
        """Admission, locking, application, gate. Emits lock_denied or
        lock_granted + edit_applied + build_status (+ commit events when
        auto_commit is on and the overlay is buildable)."""
        ov = self._on_record(dev, "coordinated edits refused")
        self.check_leases()
        union, index = self._views()
        op = self._prepare(ov, request, union)
        conflicts = self._admission_conflicts(dev, op.touched, union, index)
        if conflicts:
            # the first conflict supplies holder, rule and pair
            event = self._emit(
                "lock_denied",
                dev,
                kind=op.kind,
                target=op.target,
                touched=list(op.touched),
                **conflicts[0],
            )
            return EditOutcome(False, op, [event])

        events = []
        self._acquire(dev, op.touched)
        events.append(
            self._emit(
                "lock_granted",
                dev,
                kind=op.kind,
                target=op.target,
                touched=list(op.touched),
                created=list(op.created),
            )
        )
        self._apply(ov, op)
        events.append(
            self._emit("edit_applied", dev, kind=op.kind, target=op.target, op=op.to_record())
        )
        report = self._gate(ov, context="edit", events=events)
        if self.config.auto_commit and report.buildable:
            events.extend(self.try_commit(dev).events)
        return EditOutcome(True, op, events, report)

    def _gate(self, ov: _Overlay, context: str, events: list[KernelEvent]) -> semantics.BuildReport:
        """Emit the view's build status from the report derived with its tree."""
        report = ov.report
        events.append(
            self._emit(
                "build_status",
                ov.dev,
                status=report.status,
                context=context,
                errors=[e.to_record() for e in report.errors],
            )
        )
        return report

    def buffer_edit(self, dev: str, request: editops.EditRequest) -> tuple[editops.EditOp, semantics.BuildReport]:
        """Off-the-record edit: no admission, no locks, no events. The op is
        recorded for later reconciliation and the gate verdict is returned
        privately to the caller."""
        ov = self._overlay(dev)
        if ov.mode != OFF_RECORD:
            raise KernelError("not-off-record", f"{dev} is on the record; use request_edit")
        union, _index = self._views()
        op = self._prepare(ov, request, union)
        # deliberately no events: the kernel keeps no public trace of
        # off-record work, and admission does not see off-record views
        self._apply(ov, op)
        return op, ov.report

    # -- commit and propagation ----------------------------------------------

    def try_commit(self, dev: str) -> CommitOutcome:
        ov = self._on_record(dev, "cannot commit")
        if not ov.ops:
            raise KernelError("empty-overlay", f"{dev} has nothing to commit")
        events: list[KernelEvent] = []
        report = self._gate(ov, context="commit", events=events)
        if not report.buildable:
            return CommitOutcome(False, None, events, report)

        # Rebuild the new snapshot by replaying the pending ops onto a copy of
        # the old one; the result must equal the overlay tree, element ids
        # included, so the overlay's edges are the snapshot's too.
        new_tree = self._replayed(ov.ops)
        new_table = depcore.build_element_table(new_tree)
        if new_tree != ov.tree or list(new_table.elements) != list(ov.table.elements):
            raise AssertionError("replayed snapshot diverged from overlay")
        version = self.snapshot.version + 1
        self.snapshot = Snapshot(version, new_tree, ml.print_unit(new_tree), new_table, ov.edges)
        self.history.append(self.snapshot)
        committed_ops = [op.to_record() for op in ov.ops]
        events.append(
            self._emit(
                "committed",
                dev,
                version=version,
                ops=committed_ops,
                text_sha256=self.snapshot.sha256(),
            )
        )
        self._release_all(dev)
        ov.ops = []
        ov.base = self.snapshot  # the overlay already holds the new snapshot's tree
        for other_name, other in sorted(self.devs.items()):
            if other_name == dev or other.mode != ON_RECORD:
                continue
            self._rebase(other, events)
        return CommitOutcome(True, version, events, report)

    def _rebase(self, ov: _Overlay, events: list[KernelEvent]) -> None:
        """Re-apply a developer's pending ops onto the new snapshot. Lock
        discipline makes failure impossible; if it happens anyway the overlay
        is reverted rather than left corrupt."""
        try:
            self._resync(ov, ov.ops)
        except editops.ApplyError as exc:
            dropped = len(ov.ops)
            self._release_all(ov.dev)
            self._resync(ov, [])
            events.append(
                self._emit(
                    "reverted",
                    ov.dev,
                    reason="rebase-failure",
                    detail=f"{exc.code}: {exc}",
                    dropped_ops=dropped,
                )
            )

    def revert(self, dev: str, reason: str = "user") -> list[KernelEvent]:
        """Discard pending (or off-record buffered) work, release locks, and
        resynchronize the developer's view with the current snapshot.
        Idempotent: with nothing to discard it emits nothing."""
        ov = self._overlay(dev)
        dropped = len(ov.ops)
        was_off = ov.mode == OFF_RECORD
        if dropped == 0 and not was_off and not self.locks_of(dev):
            return []
        self._release_all(dev)
        self._resync(ov, [])
        events = [self._emit("reverted", dev, reason=reason, dropped_ops=dropped)]
        if was_off:
            ov.mode = ON_RECORD
            events.append(self._emit("mode_changed", dev, mode=ON_RECORD, via="revert"))
        return events

    # -- off-the-record mode -------------------------------------------------

    def set_mode(self, dev: str, mode: str) -> ModeOutcome:
        if mode not in (ON_RECORD, OFF_RECORD):
            raise KernelError("malformed-op", f"unknown mode {mode!r}")
        ov = self._overlay(dev)
        if mode == ov.mode:
            return ModeOutcome(True, mode, [])
        if mode == OFF_RECORD:
            if ov.ops:
                raise KernelError(
                    "nonempty-overlay", f"{dev} has uncommitted work; commit or revert first"
                )
            # with no ops the view already is the latest snapshot, which
            # becomes the spell's departure snapshot
            self._release_all(dev)
            ov.mode = OFF_RECORD
            event = self._emit(
                "mode_changed", dev, mode=OFF_RECORD, at_version=self.snapshot.version
            )
            return ModeOutcome(True, OFF_RECORD, [event])
        return self._reconcile(ov)

    def _reconcile(self, ov: _Overlay) -> ModeOutcome:
        """Coming back on the record: the buffered ops must still be
        admissible and nothing they touched may have changed meanwhile."""
        dev = ov.dev
        created = {eid for op in ov.ops for eid in op.created}
        touched = {eid for op in ov.ops for eid in op.touched} - created
        old = ov.base
        changed: list[dict] = []
        for eid in sorted(touched):
            if eid not in old.table:
                # should be unreachable (all non-created touched ids come
                # from the departure view); treat as drift rather than trust it
                changed.append({"element": eid, "change": "untracked"})
            elif eid not in self.snapshot.table:
                changed.append({"element": eid, "change": "deleted"})
            else:
                before = depcore.element_content(old.table.info(eid).node)
                after = depcore.element_content(self.snapshot.table.info(eid).node)
                if before != after:
                    changed.append({"element": eid, "change": "modified"})
        blocked = self._admission_conflicts(dev, touched | created, *self._views())
        replay_failure: str | None = None
        # with no commit during the spell the view already is base plus ops
        if not changed and not blocked and ov.base is not self.snapshot:
            try:
                self._resync(ov, ov.ops)
            except editops.ApplyError as exc:
                replay_failure = f"{exc.code}: {exc}"

        if changed or blocked or replay_failure:
            event = self._emit(
                "reconcile_result",
                dev,
                result="conflict",
                ops=len(ov.ops),
                changed=changed,
                blocked=blocked,
                replay_failure=replay_failure,
            )
            return ModeOutcome(False, OFF_RECORD, [event])

        events = [self._emit("reconcile_result", dev, result="clean", ops=len(ov.ops))]
        self._acquire(dev, touched | created)
        ov.mode = ON_RECORD
        events.append(self._emit("mode_changed", dev, mode=ON_RECORD, at_version=self.snapshot.version))
        if ov.ops:
            report = self._gate(ov, context="reconcile", events=events)
            if self.config.auto_commit and report.buildable:
                commit = self.try_commit(dev)
                events.extend(commit.events)
        return ModeOutcome(True, ON_RECORD, events)

    # -- leases ---------------------------------------------------------------

    def check_leases(self, now_ms: int | None = None) -> list[KernelEvent]:
        """Force-revert any developer holding an expired lock. No-op when
        leases are disabled."""
        if self.config.lock_lease_ms <= 0 or not self.lease_deadline:
            return []
        now = self.clock() if now_ms is None else now_ms
        expired_devs = sorted(
            {
                self.lock_holder[eid]
                for eid, deadline in self.lease_deadline.items()
                if deadline <= now and eid in self.lock_holder
            }
        )
        events: list[KernelEvent] = []
        for dev in expired_devs:
            events.extend(self.revert(dev, reason="lease-expired"))
        return events

    # -- replay ---------------------------------------------------------------

    @staticmethod
    def replay_committed(initial_text: str, events: list[KernelEvent]) -> str:
        """Reconstruct the final snapshot text from the committed events
        alone. Byte-identical to the live kernel's snapshot text."""
        tree, diags = ml.parse_unit(ml.SourceText(initial_text, "<replay>"))
        if tree is None:
            raise ValueError(f"initial source does not parse: {diags[0].message}")
        depcore.annotate(tree, depcore.IdAllocator())
        for event in sorted(events, key=lambda e: e.seq):
            if event.kind != "committed":
                continue
            ops = [editops.EditOp.from_record(r) for r in event.details["ops"]]
            tree = replay_onto(tree, ops)
        return ml.print_unit(tree)

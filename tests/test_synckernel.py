"""The coordination kernel: admission, gating, commit propagation, modes."""

import copy
import json
import textwrap

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from ssd import depcore
from ssd import minilang as ml
from ssd import semantics
from ssd import synckernel
from ssd.editops import EditRequest
from ssd.synckernel import (
    EVENT_KINDS,
    Kernel,
    KernelConfig,
    KernelError,
    KernelEvent,
    OFF_RECORD,
    ON_RECORD,
    replay_onto,
)

DEMO = textwrap.dedent(
    """\
    class Demo {
        void Foo(int i) {
        }
    }
    """
)

SHARED = textwrap.dedent(
    """\
    class Demo {
        int someVar;

        void m1() {
        }

        void m2() {
            int otherVar = someVar;
        }
    }
    """
)


def make(source=DEMO, auto_commit=False, lease=0, devs=("alice", "bob"), clock=None):
    kernel = Kernel(source, KernelConfig(auto_commit=auto_commit, lock_lease_ms=lease), clock=clock)
    for dev in devs:
        kernel.register(dev)
    return kernel


def kinds(events):
    return [e.kind for e in events]


# -- the worked example -----------------------------------------------------


def test_rename_collision_walkthrough():
    """Two developers rename the same method; the second is denied, retries
    after the first commits, and both changes land sequentially."""
    kernel = make()
    r1 = kernel.request_edit("bob", EditRequest("rename_method", "Demo.Foo", {"new_name": "Foo1"}))
    assert r1.granted and r1.report.buildable
    r2 = kernel.request_edit("bob", EditRequest("add_param", "Demo.Foo1", {"type": "in", "name": "newParam"}))
    assert r2.granted and not r2.report.buildable
    assert [e.code for e in r2.report.errors] == ["unknown-type"]

    denial = kernel.request_edit("alice", EditRequest("rename_method", "Demo.Foo", {"new_name": "Foo2"}))
    assert not denial.granted
    [event] = denial.events
    assert event.kind == "lock_denied"
    assert event.details["holder"] == "bob"
    assert event.details["rule"] == 1
    foo = event.details["target"]
    assert event.details["pair"] == [foo, foo]

    fix = kernel.request_edit("bob", EditRequest("set_param_type", "Demo.Foo1.newParam", {"type": "int"}))
    assert fix.granted and fix.report.buildable
    commit = kernel.try_commit("bob")
    assert commit.ok and commit.version == 2
    assert "void Foo1(int i, int newParam)" in kernel.snapshot.text
    assert kernel.locks_of("bob") == set()

    # alice retries by element id: the qname she used no longer exists
    retry = kernel.request_edit("alice", EditRequest("rename_method", foo, {"new_name": "Foo2"}))
    assert retry.granted
    commit2 = kernel.try_commit("alice")
    assert commit2.ok and commit2.version == 3
    assert kernel.snapshot.text == textwrap.dedent(
        """\
        class Demo {
            void Foo2(int i, int newParam) {
            }
        }
        """
    )

    seqs = [e.seq for e in kernel.events]
    assert seqs == list(range(1, len(seqs) + 1))
    assert Kernel.replay_committed(DEMO, kernel.events) == kernel.snapshot.text


def test_initial_source_must_parse_and_build():
    with pytest.raises(ValueError):
        Kernel("class {", KernelConfig())
    with pytest.raises(ValueError):
        Kernel("class A { in x; }", KernelConfig())


# -- admission rules --------------------------------------------------------


def test_rule2_same_method_statements_conflict():
    kernel = make(SHARED)
    src_stmt = "Demo.m2/body[0]"
    r1 = kernel.request_edit("alice", EditRequest("replace_statement", src_stmt, {"text": "int otherVar = someVar + 1;"}))
    assert r1.granted
    r2 = kernel.request_edit("bob", EditRequest("insert_statement", "Demo.m2/body", {"text": "int more = 1;"}))
    assert not r2.granted
    assert r2.events[0].details["rule"] in (1, 2)


def test_rule3_reference_conflict_blocks_rename():
    kernel = make(SHARED)
    r1 = kernel.request_edit("alice", EditRequest("replace_statement", "Demo.m2/body[0]", {"text": "int otherVar = someVar + 1;"}))
    assert r1.granted
    r2 = kernel.request_edit("bob", EditRequest("rename_field", "Demo.someVar", {"new_name": "newSomeVar"}))
    assert not r2.granted
    event = r2.events[0]
    assert event.details["holder"] == "alice"
    # reported pair: the field bob wants against the statement alice holds
    assert event.details["rule"] == 3
    field = kernel.view_table("bob").resolve_qname("Demo.someVar")
    stmt = event.details["pair"][1]
    assert event.details["pair"] == [field, stmt]
    assert stmt in kernel.locks_of("alice")


def test_rule3_fires_from_index_when_elements_differ():
    kernel = make(SHARED)
    r1 = kernel.request_edit("alice", EditRequest("set_field_init", "Demo.someVar", {"init": "5"}))
    assert r1.granted
    r2 = kernel.request_edit(
        "bob", EditRequest("replace_statement", "Demo.m2/body[0]", {"text": "int otherVar = someVar * 2;"})
    )
    assert not r2.granted
    assert r2.events[0].details["rule"] == 3


def test_disjoint_edits_are_concurrent():
    src = "class A {\n    int x;\n}\n\nclass B {\n    int y;\n}\n"
    kernel = make(src)
    assert kernel.request_edit("alice", EditRequest("set_field_init", "A.x", {"init": "1"})).granted
    assert kernel.request_edit("bob", EditRequest("set_field_init", "B.y", {"init": "2"})).granted
    assert kernel.try_commit("alice").ok
    assert kernel.try_commit("bob").ok
    assert "int x = 1;" in kernel.snapshot.text
    assert "int y = 2;" in kernel.snapshot.text


def test_same_dev_reacquires_own_locks():
    kernel = make(SHARED)
    assert kernel.request_edit("alice", EditRequest("rename_field", "Demo.someVar", {"new_name": "v2"})).granted
    assert kernel.request_edit("alice", EditRequest("rename_field", "Demo.v2", {"new_name": "v3"})).granted


def test_each_admission_builds_the_union_of_the_views_once(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(depcore, name)

        def wrapper(views):
            calls.append(name)
            return original(views)

        return wrapper

    for name in ("union_tables", "build_ref_index"):
        monkeypatch.setattr(depcore, name, counted(name))
    kernel = make(SHARED, devs=("carol", "dana"))
    kernel.set_mode("carol", OFF_RECORD)
    kernel.buffer_edit("carol", EditRequest("rename_method", "Demo.m1", {"new_name": "quiet"}))
    once = ["union_tables", "build_ref_index"]
    for request in (
        lambda: kernel.request_edit("dana", EditRequest("set_field_init", "Demo.someVar", {"init": "4"})),
        lambda: kernel.request_edit("dana", EditRequest("rename_method", "Demo.m2", {"new_name": "n"})),
        lambda: kernel.check_admission("dana", EditRequest("rename_field", "Demo.someVar", {"new_name": "v"})),
        lambda: kernel.set_mode("carol", ON_RECORD),
    ):
        calls.clear()
        request()
        assert calls == once


def test_delete_sees_other_developers_unpublished_statements():
    kernel = make(SHARED)
    grant = kernel.request_edit("alice", EditRequest("insert_statement", "Demo.m1/body", {"text": "int fresh = 1;"}))
    assert grant.granted
    new_stmt = grant.op.created[0]
    denial = kernel.request_edit("bob", EditRequest("delete_method", "Demo.m1"))
    assert not denial.granted
    assert new_stmt in denial.events[0].details["touched"]
    assert denial.events[0].details["holder"] == "alice"


def test_creations_in_distinct_classes_do_not_interfere():
    src = "class A {\n}\n\nclass B {\n}\n"
    kernel = make(src)
    assert kernel.request_edit("alice", EditRequest("add_field", "A", {"type": "int", "name": "x"})).granted
    assert kernel.request_edit("bob", EditRequest("add_field", "B", {"type": "int", "name": "y"})).granted


# -- gate and commit --------------------------------------------------------


def test_unbuildable_overlay_does_not_propagate():
    kernel = make()
    kernel.request_edit("bob", EditRequest("add_param", "Demo.Foo", {"type": "in", "name": "p"}))
    outcome = kernel.try_commit("bob")
    assert not outcome.ok
    assert kernel.snapshot.version == 1
    assert "in p" not in kernel.snapshot.text
    status = [e for e in outcome.events if e.kind == "build_status"]
    assert status and status[0].details["context"] == "commit"
    assert status[0].details["errors"][0]["code"] == "unknown-type"
    # bob keeps his locks while the overlay is broken
    assert kernel.locks_of("bob")


def test_commit_with_empty_overlay_is_refused():
    kernel = make()
    with pytest.raises(KernelError) as err:
        kernel.try_commit("bob")
    assert err.value.code == "empty-overlay"


def test_auto_commit_publishes_each_buildable_state():
    kernel = make(auto_commit=True)
    kernel.request_edit("bob", EditRequest("rename_method", "Demo.Foo", {"new_name": "Foo1"}))
    assert kernel.snapshot.version == 2
    assert "Foo1" in kernel.snapshot.text
    assert kernel.locks_of("bob") == set()
    # an unbuildable edit stays local under auto-commit
    r2 = kernel.request_edit("bob", EditRequest("add_param", "Demo.Foo1", {"type": "in", "name": "p"}))
    assert "committed" not in [e.kind for e in r2.events]
    assert kernel.snapshot.version == 2
    r3 = kernel.request_edit("bob", EditRequest("set_param_type", "Demo.Foo1.p", {"type": "int"}))
    assert [e.details["version"] for e in r3.events if e.kind == "committed"] == [3]
    assert "int p" in kernel.snapshot.text


def test_commit_resolves_only_the_rebased_views_with_ops(monkeypatch):
    # the committer's tree is unchanged since its last gate and carol has no
    # ops, so bob's rebased view is the only tree to resolve
    kernel = make(SHARED, devs=("alice", "bob", "carol"))
    for text in ("int a = 1;", "int b = 2;"):
        kernel.request_edit("alice", EditRequest("insert_statement", "Demo.m1/body", {"text": text}))
    kernel.request_edit(
        "bob", EditRequest("replace_statement", "Demo.m2/body[0]", {"text": "int otherVar = someVar + 1;"})
    )
    resolved = []
    resolve = semantics.resolve
    monkeypatch.setattr(semantics, "resolve", lambda unit: resolved.append(unit) or resolve(unit))
    assert kernel.try_commit("alice").ok
    assert resolved == [kernel.devs["bob"].tree]


def test_descendants_in_a_union_reach_what_another_view_nested():
    def fixpoint(table, eid):
        out = {eid}
        changed = True
        while changed:
            changed = False
            for info in table.elements.values():
                if info.eid not in out and info.parent in out:
                    out.add(info.eid)
                    changed = True
        return out

    kernel = make(SHARED, devs=("alice", "bob", "carol"))
    nested = "while (true) { if (true) { int a = 1; } else { while (false) { int b = 2; } } }"
    granted = kernel.request_edit("bob", EditRequest("insert_statement", "Demo.m1/body", {"text": nested}))
    assert len(granted.op.created) == 5
    kernel.request_edit("carol", EditRequest("insert_statement", "Demo.m2/body", {"text": "int c = 3;", "at": 0}))
    union, _index = kernel._views()
    m1 = kernel.snapshot.table.resolve_qname("Demo.m1")
    assert union.descendants(m1) == {m1, *granted.op.created}
    for eid in union.elements:
        assert union.descendants(eid) == fixpoint(union, eid), eid


def test_commit_rebases_other_overlays():
    kernel = make(SHARED)
    kernel.request_edit("alice", EditRequest("set_field_init", "Demo.someVar", {"init": "9"}))
    kernel.request_edit("bob", EditRequest("rename_method", "Demo.m1", {"new_name": "m1b"}))
    assert kernel.try_commit("alice").ok
    # bob's pending rename survived the rebase onto version 2
    assert "int someVar = 9;" in kernel.view_text("bob")
    assert "void m1b()" in kernel.view_text("bob")
    assert kernel.try_commit("bob").ok
    assert "void m1b()" in kernel.snapshot.text


def test_revert_releases_locks_and_discards_work():
    kernel = make()
    kernel.request_edit("bob", EditRequest("rename_method", "Demo.Foo", {"new_name": "Broken"}))
    events = kernel.revert("bob")
    assert kinds(events) == ["reverted"]
    assert events[0].details["dropped_ops"] == 1
    assert kernel.locks_of("bob") == set()
    assert kernel.view_text("bob") == DEMO
    grant = kernel.request_edit("alice", EditRequest("rename_method", "Demo.Foo", {"new_name": "Foo2"}))
    assert grant.granted


def test_revert_with_nothing_pending_is_a_no_op():
    kernel = make()
    assert kernel.revert("bob") == []
    assert kernel.events == []


# -- event log --------------------------------------------------------------


def test_event_sequence_for_granted_edit():
    kernel = make()
    outcome = kernel.request_edit("bob", EditRequest("rename_method", "Demo.Foo", {"new_name": "X"}))
    assert kinds(outcome.events) == ["lock_granted", "edit_applied", "build_status"]
    granted, applied, status = outcome.events
    assert granted.details["touched"] == [applied.details["target"]]
    assert status.details["status"] == "buildable"
    assert status.details["context"] == "edit"


def test_events_serialize_deterministically():
    kernel = make()
    kernel.request_edit("bob", EditRequest("rename_method", "Demo.Foo", {"new_name": "X"}))
    kernel.try_commit("bob")
    for event in kernel.events:
        assert event.kind in EVENT_KINDS
        record = event.to_record()
        assert KernelEvent.from_record(record) == event
        blob = event.to_json()
        assert json.loads(blob) == record
        assert blob == json.dumps(record, sort_keys=True)
        assert "time" not in record and "timestamp" not in record


def test_replay_committed_ignores_noise_events():
    kernel = make(SHARED)
    kernel.request_edit("alice", EditRequest("rename_field", "Demo.someVar", {"new_name": "v"}))
    kernel.revert("alice")
    kernel.request_edit("bob", EditRequest("set_field_init", "Demo.someVar", {"init": "3"}))
    kernel.try_commit("bob")
    kernel.request_edit("alice", EditRequest("rename_method", "Demo.m1", {"new_name": "renamed"}))
    kernel.try_commit("alice")
    assert Kernel.replay_committed(SHARED, kernel.events) == kernel.snapshot.text


# -- off the record ---------------------------------------------------------


def test_off_record_requires_clean_overlay():
    kernel = make()
    kernel.request_edit("bob", EditRequest("rename_method", "Demo.Foo", {"new_name": "X"}))
    with pytest.raises(KernelError) as err:
        kernel.set_mode("bob", OFF_RECORD)
    assert err.value.code == "nonempty-overlay"


def test_off_record_edits_are_invisible_and_unlocked():
    kernel = make(SHARED, devs=("carol", "dana"))
    kernel.set_mode("carol", OFF_RECORD)
    op, report = kernel.buffer_edit(
        "carol", EditRequest("replace_statement", "Demo.m2/body[0]", {"text": "int otherVar = someVar + 1;"})
    )
    assert report.buildable
    assert kernel.locks_of("carol") == set()
    # no events leaked
    assert [e.kind for e in kernel.events] == ["mode_changed"]
    with pytest.raises(KernelError) as err:
        kernel.request_edit("carol", EditRequest("rename_method", "Demo.m1", {"new_name": "X"}))
    assert err.value.code == "off-record-violation"
    with pytest.raises(KernelError):
        kernel.try_commit("carol")
    # dana is free to take the dependent element
    assert kernel.request_edit(
        "dana", EditRequest("rename_field", "Demo.someVar", {"new_name": "renamedVar"})
    ).granted


def test_reconcile_conflict_when_buffered_work_drifted():
    kernel = make(SHARED, devs=("carol", "dana"))
    kernel.set_mode("carol", OFF_RECORD)
    kernel.buffer_edit(
        "carol", EditRequest("replace_statement", "Demo.m2/body[0]", {"text": "int otherVar = someVar + 1;"})
    )
    kernel.request_edit("dana", EditRequest("rename_field", "Demo.someVar", {"new_name": "renamedVar"}))
    assert kernel.try_commit("dana").ok
    outcome = kernel.set_mode("carol", ON_RECORD)
    assert not outcome.ok
    [event] = outcome.events
    assert event.kind == "reconcile_result"
    assert event.details["result"] == "conflict"
    assert event.details["changed"], "drifted elements must be listed"
    assert kernel.devs["carol"].mode == OFF_RECORD  # still off the record


def test_reconcile_blocked_by_held_lock():
    kernel = make(SHARED, devs=("carol", "dana"))
    kernel.set_mode("carol", OFF_RECORD)
    kernel.buffer_edit(
        "carol", EditRequest("replace_statement", "Demo.m2/body[0]", {"text": "int otherVar = someVar + 1;"})
    )
    # dana holds the field lock, undercommitted, when carol returns
    kernel.request_edit("dana", EditRequest("rename_field", "Demo.someVar", {"new_name": "blocked"}))
    outcome = kernel.set_mode("carol", ON_RECORD)
    assert not outcome.ok
    details = outcome.events[0].details
    assert details["result"] == "conflict"
    assert details["blocked"], "blocking pairs must be listed"
    assert details["blocked"][0]["holder"] == "dana"


def test_reconcile_clean_adopts_buffer():
    kernel = make(SHARED, devs=("carol", "dana"))
    kernel.set_mode("carol", OFF_RECORD)
    kernel.buffer_edit("carol", EditRequest("rename_method", "Demo.m1", {"new_name": "quiet"}))
    kernel.request_edit("dana", EditRequest("set_field_init", "Demo.someVar", {"init": "4"}))
    assert kernel.try_commit("dana").ok
    outcome = kernel.set_mode("carol", ON_RECORD)
    assert outcome.ok
    event_kinds = kinds(outcome.events)
    assert "reconcile_result" in event_kinds and "mode_changed" in event_kinds
    assert outcome.events[0].details["result"] == "clean"
    assert kernel.devs["carol"].mode == ON_RECORD
    assert kernel.locks_of("carol")
    assert "void quiet()" in kernel.view_text("carol")
    assert "int someVar = 4;" in kernel.view_text("carol")
    assert kernel.try_commit("carol").ok


BRANCHY = textwrap.dedent(
    """\
    class C {
        int f;

        void m() {
            if (true) {
            } else {
            }
        }
    }
    """
)


@pytest.mark.parametrize(
    "slot, dana_edit, failure",
    [
        (
            "else",
            EditRequest("replace_statement", "C.m/body[0]", {"text": "f = 4;"}),
            "malformed-op: 'C.m/body[0]' has no statement slot 'else'",
        ),
        (
            "then",
            EditRequest("delete_statement", "C.m/body[0]"),
            "unknown-element: element 4 not in this view",
        ),
    ],
)
def test_reconcile_reports_why_the_buffered_ops_no_longer_apply(slot, dana_edit, failure):
    # the apply-time error text reaches the event log as replay_failure
    kernel = make(BRANCHY, devs=("carol", "dana"))
    kernel.set_mode("carol", OFF_RECORD)
    kernel.buffer_edit("carol", EditRequest("insert_statement", f"C.m/body[0]/{slot}", {"text": "f = 1;"}))
    assert kernel.request_edit("dana", dana_edit).granted
    assert kernel.try_commit("dana").ok
    outcome = kernel.set_mode("carol", ON_RECORD)
    assert not outcome.ok
    [event] = outcome.events
    assert event.details["changed"] == [] and event.details["blocked"] == []
    assert event.details["replay_failure"] == failure


class _CountingCopy:
    """Stands in for the `copy` module and counts `deepcopy` calls."""

    def __init__(self):
        self.calls = 0

    def deepcopy(self, x, memo=None):
        self.calls += 1
        return copy.deepcopy(x, memo)

    def __getattr__(self, name):
        return getattr(copy, name)


@pytest.mark.parametrize("buffered", [False, True])
def test_an_off_record_spell_without_a_commit_copies_no_tree(monkeypatch, buffered):
    kernel = make(SHARED, devs=("carol", "dana"))
    counting = _CountingCopy()
    monkeypatch.setattr(synckernel, "copy", counting)
    assert kernel.set_mode("carol", OFF_RECORD).ok
    if buffered:
        kernel.buffer_edit("carol", EditRequest("rename_method", "Demo.m1", {"new_name": "quiet"}))
    outcome = kernel.set_mode("carol", ON_RECORD)
    assert outcome.ok and outcome.events[0].details["result"] == "clean"
    assert counting.calls == 0
    carol = kernel.devs["carol"]
    assert carol.base is kernel.snapshot
    assert carol.edges == depcore.ref_edges(carol.tree)
    assert ("void quiet()" in kernel.view_text("carol")) == buffered


THREE = textwrap.dedent(
    """\
    class A {
        int a;

        void m() {
        }
    }

    class B {
        int b;

        void n() {
        }
    }
    """
)


def test_a_commit_builds_one_element_table_per_replayed_view(monkeypatch):
    kernel = make(THREE, devs=("alice", "bob", "carol"))
    for request in (
        EditRequest("set_field_init", "A.a", {"init": "1"}),
        EditRequest("add_method", "A", {"name": "k"}),
        EditRequest("rename_method", "A.m", {"new_name": "m2"}),
    ):
        assert kernel.request_edit("alice", request).granted
    for request in (
        EditRequest("set_field_init", "B.b", {"init": "2"}),
        EditRequest("rename_method", "B.n", {"new_name": "n2"}),
    ):
        assert kernel.request_edit("bob", request).granted
    counting = _CountingCopy()
    monkeypatch.setattr(synckernel, "copy", counting)
    tables = []
    build = depcore.build_element_table
    monkeypatch.setattr(depcore, "build_element_table", lambda unit: tables.append(unit) or build(unit))
    assert kernel.try_commit("alice").ok
    # the new snapshot, bob's view and carol's view
    assert counting.calls == 3
    assert len(tables) == counting.calls


def test_revert_returns_offrecord_developer_to_the_record():
    kernel = make(devs=("carol",))
    kernel.set_mode("carol", OFF_RECORD)
    kernel.buffer_edit("carol", EditRequest("rename_method", "Demo.Foo", {"new_name": "X"}))
    events = kernel.revert("carol")
    assert kinds(events) == ["reverted", "mode_changed"]
    assert kernel.devs["carol"].mode == ON_RECORD
    assert kernel.view_text("carol") == DEMO


# -- leases -----------------------------------------------------------------


def test_expired_lease_forces_revert():
    now = {"ms": 0}
    kernel = make(lease=100, clock=lambda: now["ms"])
    kernel.request_edit("bob", EditRequest("rename_method", "Demo.Foo", {"new_name": "Slow"}))
    assert kernel.locks_of("bob")
    now["ms"] = 50
    assert kernel.check_leases() == []
    now["ms"] = 150
    events = kernel.check_leases()
    assert kinds(events) == ["reverted"]
    assert events[0].details["reason"] == "lease-expired"
    assert kernel.locks_of("bob") == set()
    grant = kernel.request_edit("alice", EditRequest("rename_method", "Demo.Foo", {"new_name": "Quick"}))
    assert grant.granted


def test_active_edits_refresh_under_lease():
    now = {"ms": 0}
    kernel = make(lease=100, clock=lambda: now["ms"])
    kernel.request_edit("bob", EditRequest("rename_method", "Demo.Foo", {"new_name": "A"}))
    now["ms"] = 80
    kernel.request_edit("bob", EditRequest("rename_method", "Demo.A", {"new_name": "B"}))
    now["ms"] = 150  # first grant would have expired; the second refreshed it
    assert kernel.check_leases() == []
    assert kernel.locks_of("bob")


# -- config -----------------------------------------------------------------


def test_config_parse():
    cfg = KernelConfig.parse("auto_commit = false\nlock_lease_ms = 250\n# comment\n")
    assert cfg.auto_commit is False
    assert cfg.lock_lease_ms == 250
    assert KernelConfig.parse("") == KernelConfig()
    with pytest.raises(ValueError):
        KernelConfig.parse("no_such_key = 1")
    with pytest.raises(ValueError):
        KernelConfig.parse("auto_commit = maybe")
    with pytest.raises(ValueError):
        KernelConfig.parse("lock_lease_ms = -5")


# -- randomized state machine ----------------------------------------------

MACHINE_SOURCE = textwrap.dedent(
    """\
    class Hub {
        int a;
        int b = 1;

        void m1() {
            a = b + 1;
        }

        void m2() {
            b = a;
        }
    }
    """
)

_DEVS = ("d1", "d2", "d3")


class KernelMachine(RuleBasedStateMachine):
    """Random edits, commits, reverts and off-record spells; cross-developer
    lock pairs must stay independent and only buildable snapshots may
    publish."""

    @initialize()
    def setup(self):
        self.kernel = make(MACHINE_SOURCE, devs=_DEVS)
        self.counter = 0

    def _fresh(self):
        self.counter += 1
        return self.counter

    def _request(self, dev, request):
        # an off-record developer's edits are buffered, not admitted
        try:
            if self.kernel.devs[dev].mode == OFF_RECORD:
                return self.kernel.buffer_edit(dev, request)
            return self.kernel.request_edit(dev, request)
        except KernelError:
            return None

    def _pick(self, dev, kind_filter):
        table = self.kernel.view_table(dev)
        eids = [e for e in sorted(table.elements) if table.info(e).kind == kind_filter]
        return table, eids

    @rule(dev=st.sampled_from(_DEVS), seed=st.integers(0, 1000))
    def edit_field_init(self, dev, seed):
        table, fields = self._pick(dev, depcore.FIELD)
        if fields:
            target = fields[seed % len(fields)]
            self._request(dev, EditRequest("set_field_init", target, {"init": str(seed % 10)}))

    @rule(dev=st.sampled_from(_DEVS), seed=st.integers(0, 1000))
    def rename_field(self, dev, seed):
        table, fields = self._pick(dev, depcore.FIELD)
        if fields:
            target = fields[seed % len(fields)]
            self._request(dev, EditRequest("rename_field", target, {"new_name": f"fld{self._fresh()}"}))

    @rule(dev=st.sampled_from(_DEVS), seed=st.integers(0, 1000))
    def replace_statement(self, dev, seed):
        table, stmts = self._pick(dev, depcore.STATEMENT)
        if stmts:
            target = stmts[seed % len(stmts)]
            self._request(dev, EditRequest("replace_statement", target, {"text": f"int t{self._fresh()} = {seed % 7};"}))

    @rule(dev=st.sampled_from(_DEVS), seed=st.integers(0, 1000))
    def insert_statement(self, dev, seed):
        table, methods = self._pick(dev, depcore.METHOD)
        if methods:
            target = methods[seed % len(methods)]
            self._request(dev, EditRequest("insert_statement", target, {"slot": "body", "text": f"int n{self._fresh()} = 0;"}))

    @rule(dev=st.sampled_from(_DEVS))
    def add_field(self, dev):
        table, classes = self._pick(dev, depcore.CLASS)
        if classes:
            self._request(dev, EditRequest("add_field", classes[0], {"type": "int", "name": f"g{self._fresh()}"}))

    @rule(dev=st.sampled_from(_DEVS))
    def commit(self, dev):
        try:
            self.kernel.try_commit(dev)
        except KernelError:
            pass

    @rule(dev=st.sampled_from(_DEVS))
    def revert(self, dev):
        self.kernel.revert(dev)

    @rule(dev=st.sampled_from(_DEVS))
    def go_off_record(self, dev):
        try:
            self.kernel.set_mode(dev, OFF_RECORD)
        except KernelError:
            pass  # uncommitted work

    @rule(dev=st.sampled_from(_DEVS))
    def come_back_on_record(self, dev):
        self.kernel.set_mode(dev, ON_RECORD)

    @invariant()
    def snapshot_is_buildable(self):
        if not hasattr(self, "kernel"):
            return
        assert semantics.build_gate(self.kernel.snapshot.tree).report.buildable

    @invariant()
    def cross_developer_lock_sets_are_disjoint(self):
        # admission evaluates dependency pairs against the union view at
        # request time; an edit to an element a developer already holds may
        # introduce a reference edge to another held element afterwards, so
        # the standing guarantee is element-level: one holder per element
        if not hasattr(self, "kernel"):
            return
        for i, first in enumerate(_DEVS):
            for second in _DEVS[i + 1 :]:
                both = self.kernel.locks_of(first) & self.kernel.locks_of(second)
                assert not both, f"{first} and {second} both hold {sorted(both)}"

    @invariant()
    def locks_belong_to_pending_work(self):
        if not hasattr(self, "kernel"):
            return
        for dev in _DEVS:
            claimed = set()
            for op in self.kernel.devs[dev].ops:
                claimed |= set(op.touched) | set(op.created)
            assert self.kernel.locks_of(dev) <= claimed

    @invariant()
    def derived_state_matches_a_rebuild_from_the_trees(self):
        # tables, edges and reports are derived when a tree changes; each
        # must equal what a from-scratch pass over the same tree yields
        if not hasattr(self, "kernel"):
            return
        snap = self.kernel.snapshot
        assert snap.edges == depcore.ref_edges(snap.tree)
        assert snap.text == ml.print_unit(snap.tree)
        for dev, ov in sorted(self.kernel.devs.items()):
            # off-record views too: their edges are invisible, not stale
            assert ov.edges == depcore.ref_edges(ov.tree), dev
            if ov.ops:
                assert ov.report == semantics.build_gate(ov.tree).report, dev
            else:
                assert ov.report.buildable, dev
            rebuilt = depcore.build_element_table(ov.tree)
            assert [(e, ov.table.qname(e)) for e in ov.table.elements] == [
                (e, rebuilt.qname(e)) for e in rebuilt.elements
            ], dev

    @invariant()
    def every_view_is_its_base_plus_its_ops(self):
        if not hasattr(self, "kernel"):
            return
        for dev, ov in sorted(self.kernel.devs.items()):
            tree = replay_onto(copy.deepcopy(ov.base.tree), ov.ops)
            assert tree == ov.tree, dev
            assert list(depcore.build_element_table(tree).elements) == list(ov.table.elements), dev
            if ov.mode == ON_RECORD:
                assert ov.base is self.kernel.snapshot, dev

    @invariant()
    def event_log_is_gapless_and_replayable(self):
        if not hasattr(self, "kernel"):
            return
        seqs = [e.seq for e in self.kernel.events]
        assert seqs == list(range(1, len(seqs) + 1))
        assert Kernel.replay_committed(MACHINE_SOURCE, self.kernel.events) == self.kernel.snapshot.text


KernelMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestKernelMachine = KernelMachine.TestCase

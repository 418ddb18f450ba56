"""Checkin/checkout baseline: merges, conflict kinds, mine-wins resolution."""

import collections
import copy
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import baseline
from ssd import depcore
from ssd import editops
from ssd import minilang as ml
from ssd import semantics
from ssd import simbench


def req(kind, target=None, **args):
    return editops.EditRequest(kind, target, args)


SRC = """\
class A {
    int f = 0;

    void m(int p) {
        int x = f;
    }

    void k() {
    }
}
"""


def make(src: str = SRC, devs=("d1", "d2")) -> baseline.BaselineRepo:
    repo = baseline.BaselineRepo(src)
    for dev in devs:
        repo.register(dev)
    return repo


# --- repository mechanics ---


def test_initial_source_must_parse():
    with pytest.raises(ValueError, match="does not parse"):
        baseline.BaselineRepo("class {")


def test_register_twice_and_unknown_dev_raise():
    repo = make()
    with pytest.raises(ValueError, match="already registered"):
        repo.register("d1")
    with pytest.raises(ValueError, match="unknown developer"):
        repo.edit("ghost", req("rename_field", "A.f", new_name="g"))


def test_edits_stay_private_until_checkin():
    repo = make()
    repo.edit("d1", req("rename_field", "A.f", new_name="g"))
    assert "int g = 0;" in repo.view_text("d1")
    assert "int f = 0;" in repo.central_text()
    assert "int f = 0;" in repo.view_text("d2")


def test_fast_forward_checkin_skips_merge():
    repo = make()
    repo.edit("d1", req("rename_field", "A.f", new_name="g"))
    res = repo.checkin("d1")
    assert res.changed and not res.merged
    assert res.conflicts == []
    assert res.version == 2
    assert repo.merge_invocations == 0
    assert repo.checkins == 1
    assert "int g = 0;" in repo.central_text()
    # the working copy is resynchronized on the new base
    assert repo.view_text("d1") == repo.central_text()


def test_empty_checkin_keeps_version():
    repo = make()
    res = repo.checkin("d1")
    assert not res.changed and not res.merged
    assert res.version == 1
    assert repo.checkins == 1


def test_revert_discards_working_copy():
    repo = make()
    repo.edit("d1", req("delete_method", "A.k"))
    assert "void k()" not in repo.view_text("d1")
    repo.revert("d1")
    assert repo.view_text("d1") == repo.central_text()
    res = repo.checkin("d1")
    assert not res.changed


def test_stale_edit_request_raises_op_error():
    repo = make()
    repo.edit("d1", req("delete_method", "A.m"))
    repo.checkin("d1")
    repo.checkin("d2")  # resync d2 onto the new base
    with pytest.raises(editops.OpError):
        repo.edit("d2", req("rename_method", "A.m", new_name="m2"))


# --- merge outcomes, one per conflict kind ---


def test_disjoint_edits_merge_without_conflict():
    repo = make()
    repo.edit("d1", req("insert_statement", "A.m/body", text="int y = p;"))
    repo.checkin("d1")
    repo.edit("d2", req("set_field_init", "A.f", init="7"))
    res = repo.checkin("d2")
    assert res.merged and res.changed
    assert res.conflicts == []
    assert repo.merge_invocations == 1
    text = repo.central_text()
    assert "int f = 7;" in text and "int y = p;" in text
    assert semantics.build_gate(repo.central).report.buildable


def test_rename_collision_is_content_conflict_mine_wins():
    repo = baseline.BaselineRepo(
        "class Demo {\n    void Foo(int i) {\n    }\n}\n"
    )
    repo.register("bob")
    repo.register("alice")
    foo = depcore.build_element_table(repo.central).resolve_qname("Demo.Foo")
    repo.edit("bob", req("rename_method", "Demo.Foo", new_name="Foo1"))
    repo.edit("bob", req("add_param", "Demo.Foo1", type="int", name="newParam"))
    repo.checkin("bob")
    repo.edit("alice", req("rename_method", "Demo.Foo", new_name="Foo2"))
    res = repo.checkin("alice")
    assert [c.kind for c in res.conflicts] == [baseline.CONTENT]
    assert res.conflicts[0].eid == foo
    # alice's name wins on the contested element; bob's new child survives
    assert repo.central_text() == (
        "class Demo {\n    void Foo2(int i, int newParam) {\n    }\n}\n"
    )


def test_same_statement_rewrite_is_content_conflict():
    src = textwrap.dedent(
        """\
        class Demo {
            int someVar;

            void m2() {
                int otherVar = someVar;
            }
        }
        """
    )
    repo = make(src)
    stmt = depcore.build_element_table(repo.central).resolve_qname("Demo.m2/body[0]")
    repo.edit("d1", req("replace_statement", "Demo.m2/body[0]", text="int otherVar = someVar + 1;"))
    repo.checkin("d1")
    repo.edit("d2", req("replace_statement", "Demo.m2/body[0]", text="int otherVar = someVar * 2;"))
    res = repo.checkin("d2")
    assert [(c.kind, c.eid) for c in res.conflicts] == [(baseline.CONTENT, stmt)]
    assert "int otherVar = someVar * 2;" in repo.central_text()


def test_delete_modify_conflict_revives_element():
    # central deleted the method, the checking-in copy renamed it
    repo = make()
    repo.edit("d1", req("delete_method", "A.m"))
    repo.checkin("d1")
    repo.edit("d2", req("rename_method", "A.m", new_name="m2"))
    res = repo.checkin("d2")
    assert [c.kind for c in res.conflicts] == [baseline.DELETE_MODIFY]
    assert res.conflicts[0].qname == "A.m2"
    # the element itself survives; children untouched locally follow the
    # central deletion, so the revived method comes back hollow
    assert "void m2() {\n    }" in repo.central_text()
    assert "int x = f;" not in repo.central_text()


def test_modify_delete_conflict_keeps_deletion():
    repo = make()
    repo.edit("d1", req("rename_method", "A.m", new_name="mx"))
    repo.checkin("d1")
    repo.edit("d2", req("delete_method", "A.m"))
    res = repo.checkin("d2")
    assert [c.kind for c in res.conflicts] == [baseline.MODIFY_DELETE]
    assert res.conflicts[0].qname == "A.mx"
    text = repo.central_text()
    assert "mx" not in text and "void m(" not in text


def test_competing_inserts_are_an_order_conflict():
    repo = make()
    method = depcore.build_element_table(repo.central).resolve_qname("A.m")
    repo.edit("d1", req("insert_statement", "A.m/body", text="int a = 1;", at=0))
    repo.checkin("d1")
    repo.edit("d2", req("insert_statement", "A.m/body", text="int b = 2;", at=0))
    res = repo.checkin("d2")
    assert [(c.kind, c.eid) for c in res.conflicts] == [(baseline.ORDER, method)]
    # mine's run first, theirs-only additions after it, stable suffix intact
    body = repo.central_text()
    assert body.index("int b = 2;") < body.index("int a = 1;") < body.index("int x = f;")


def test_competing_class_creations_are_one_order_conflict_on_the_unit():
    repo = make()
    repo.edit("d1", req("create_class", name="B"))
    repo.checkin("d1")
    repo.edit("d2", req("create_class", name="C"))
    res = repo.checkin("d2")
    assert res.conflicts == [
        baseline.Conflict(baseline.ORDER, None, "<unit>", "both sides changed the class list")
    ]
    # central holds both classes: mine first, theirs-only after it
    assert [cls.name for cls in repo.central.classes] == ["A", "C", "B"]


def test_unbuildable_merge_is_a_build_conflict():
    # element-wise clean: one side renames the field (cascade rewrites its
    # own references), the other adds a reference in a different method
    repo = make()
    repo.edit("d1", req("rename_field", "A.f", new_name="g"))
    repo.checkin("d1")
    repo.edit("d2", req("insert_statement", "A.k/body", text="int z = f;"))
    res = repo.checkin("d2")
    assert [c.kind for c in res.conflicts] == [baseline.BUILD]
    assert res.conflicts[0].eid is None
    assert res.conflicts[0].qname == "<unit>"
    assert "does not build" in res.conflicts[0].detail
    assert not semantics.build_gate(repo.central).report.buildable


def test_element_conflict_suppresses_build_conflict():
    # the merged tree is unbuildable here too, but the content conflict
    # already explains it, so no build record is added on top
    repo = make()
    repo.edit("d1", req("rename_field", "A.f", new_name="g"))
    repo.checkin("d1")
    repo.edit("d2", req("replace_statement", "A.m/body[0]", text="int y = f;"))
    res = repo.checkin("d2")
    assert [c.kind for c in res.conflicts] == [baseline.CONTENT]
    assert not semantics.build_gate(repo.central).report.buildable


def test_identical_changes_merge_silently():
    repo = make()
    repo.edit("d1", req("rename_method", "A.m", new_name="same"))
    repo.checkin("d1")
    repo.edit("d2", req("rename_method", "A.m", new_name="same"))
    res = repo.checkin("d2")
    assert res.merged and not res.changed
    assert res.conflicts == []
    assert res.version == 2


def test_checkin_always_lands_and_resyncs():
    repo = make()
    repo.edit("d1", req("rename_field", "A.f", new_name="g"))
    repo.checkin("d1")
    repo.edit("d2", req("set_field_init", "A.f", init="9"))
    res = repo.checkin("d2")
    assert res.changed  # mine-wins: the checkin is never rejected
    assert repo.view_text("d2") == repo.central_text()
    wc = repo.devs["d2"]
    assert wc.base_version == repo.version
    assert wc.base_tree == wc.tree == repo.central  # no edits left pending


def test_edits_after_a_fast_forward_checkin_leave_shared_trees_alone():
    # central and base trees are shared read-only; a fast-forward checkin
    # adopts the working tree as central, so the working copy must move on
    # to a tree of its own
    repo = make()
    repo.edit("d1", req("rename_field", "A.f", new_name="g"))
    res = repo.checkin("d1")
    assert res.changed and not res.merged
    central = repo.central_text()
    d1_base = ml.print_unit(repo.devs["d1"].base_tree)
    d2_base = ml.print_unit(repo.devs["d2"].base_tree)
    repo.edit("d1", req("rename_field", "A.g", new_name="h"))
    repo.edit("d1", req("insert_statement", "A.k/body", text="int y = 1;"))
    repo.edit("d2", req("delete_method", "A.k"))
    assert repo.central_text() == central
    assert ml.print_unit(repo.devs["d1"].base_tree) == d1_base == central
    assert ml.print_unit(repo.devs["d2"].base_tree) == d2_base != central


class _CountingCopy:
    """Stands in for the `copy` module and counts, per element id, every
    element node a `deepcopy` call copies, nested ones included."""

    def __init__(self):
        self.copies = collections.Counter()

    def deepcopy(self, x, memo=None):
        memo = {} if memo is None else memo
        out = copy.deepcopy(x, memo)
        for copied in memo.values():
            if depcore.kind_of(copied) is not None:
                self.copies[copied.eid] += 1
        return out

    def __getattr__(self, name):
        return getattr(copy, name)


def _element_nodes(tree):
    return [info.node for info in depcore.build_element_table(tree).elements.values()]


def test_merge_copies_each_element_once_and_shares_none(monkeypatch):
    repo = make(simbench.make_project(classes=2))
    repo.edit("d1", req("rename_field", "C0.f1", new_name="g1"))
    repo.checkin("d1")
    repo.edit("d2", req("insert_statement", "C1.m0/body", text="if (true) { f0 = 1; } else { while (false) { f1 = 2; } }"))
    repo.edit("d2", req("add_param", "C1.m1", type="int", name="q"))
    wc = repo.devs["d2"]
    base, mine, theirs = wc.base_tree, wc.tree, repo.central

    counting = _CountingCopy()
    monkeypatch.setattr(baseline, "copy", counting)
    merged, conflicts = baseline.merge_trees(base, mine, theirs)

    assert conflicts == []
    text = ml.print_unit(merged)
    assert "int g1" in text and "while (false)" in text and "int q" in text
    merged_eids = list(depcore.build_element_table(merged).elements)
    assert counting.copies == collections.Counter(merged_eids)
    inputs = {id(node) for tree in (base, mine, theirs) for node in _element_nodes(tree)}
    assert not any(id(node) in inputs for node in _element_nodes(merged))


def test_conflict_record_shape():
    c = baseline.Conflict(baseline.CONTENT, 4, "A.m", "both sides changed this element")
    assert c.to_record() == {
        "kind": "content",
        "eid": 4,
        "qname": "A.m",
        "detail": "both sides changed this element",
    }


# --- diff3 over child sequences ---


def test_diff3_no_changes():
    assert baseline.diff3_seq([1, 2, 3], [1, 2, 3], [1, 2, 3]) == ([1, 2, 3], False)


def test_diff3_disjoint_replacements_merge():
    merged, conflict = baseline.diff3_seq([1, 2, 3, 4], [1, 9, 3, 4], [1, 2, 3, 8])
    assert merged == [1, 9, 3, 8]
    assert not conflict


def test_diff3_conflicting_replacement_keeps_mine_then_theirs():
    merged, conflict = baseline.diff3_seq([1, 2, 3], [1, 7, 3], [1, 8, 3])
    assert conflict
    assert merged == [1, 7, 8, 3]


def test_diff3_delete_vs_modify_conflicts():
    merged, conflict = baseline.diff3_seq([1, 2], [1], [1, 9])
    assert conflict
    assert merged == [1, 9]


def test_diff3_same_insertion_both_sides():
    merged, conflict = baseline.diff3_seq([1, 2], [3, 1, 2], [3, 1, 2])
    assert merged == [3, 1, 2]
    assert not conflict


atoms = st.lists(st.integers(min_value=0, max_value=5), max_size=8)


@settings(max_examples=200, deadline=None)
@given(a=atoms, other=atoms)
def test_diff3_one_side_unchanged_yields_the_other(a, other):
    assert baseline.diff3_seq(a, a, other) == (other, False)
    assert baseline.diff3_seq(a, other, a) == (other, False)


@settings(max_examples=200, deadline=None)
@given(a=atoms, other=atoms)
def test_diff3_identical_sides_never_conflict(a, other):
    merged, conflict = baseline.diff3_seq(a, other, other)
    assert merged == other
    assert not conflict

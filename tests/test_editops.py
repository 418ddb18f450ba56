"""Edit operations: validation, touched sets, application, determinism."""

import copy
import textwrap

import pytest

from ssd import depcore
from ssd import editops
from ssd import minilang as ml


def build(src: str, alloc: depcore.IdAllocator | None = None):
    unit, diags = ml.parse_unit(ml.SourceText(textwrap.dedent(src), "<test>"))
    assert unit is not None, diags
    alloc = alloc or depcore.IdAllocator()
    depcore.annotate(unit, alloc)
    return unit, depcore.build_element_table(unit), alloc


def run(tree, table, alloc, kind, target=None, **args):
    op = editops.prepare(depcore.ref_edges(tree), table, editops.EditRequest(kind, target, args), alloc)
    editops.apply_op(tree, op)
    return op, depcore.build_element_table(tree)


BASE = """\
class Demo {
    int someVar;

    void Foo(int i) {
        int local = someVar + i;
    }
}
"""


def test_rename_method_cascades_to_call_sites():
    tree, table, alloc = build(
        """\
        class A {
            void helper() {
            }

            void caller() {
                helper();
                helper();
            }
        }
        """
    )
    helper = table.resolve_qname("A.helper")
    s0 = table.resolve_qname("A.caller/body[0]")
    s1 = table.resolve_qname("A.caller/body[1]")
    op, table = run(tree, table, alloc, "rename_method", "A.helper", new_name="go")
    assert set(op.touched) == {helper, s0, s1}
    assert op.created == ()
    assert ml.print_unit(tree) == textwrap.dedent(
        """\
        class A {
            void go() {
            }

            void caller() {
                go();
                go();
            }
        }
        """
    )
    # identities survive the rename
    assert table.qname(helper) == "A.go"
    assert table.qname(s0) == "A.caller/body[0]"


def test_rename_field_rewrites_reference_text():
    tree, table, alloc = build(BASE)
    field = table.resolve_qname("Demo.someVar")
    stmt = table.resolve_qname("Demo.Foo/body[0]")
    op, table = run(tree, table, alloc, "rename_field", "Demo.someVar", new_name="renamed")
    assert set(op.touched) == {field, stmt}
    assert "int local = renamed + i;" in ml.print_unit(tree)


def test_rename_param_updates_uses():
    tree, table, alloc = build(BASE)
    op, table = run(tree, table, alloc, "rename_param", "Demo.Foo.i", new_name="count")
    assert "void Foo(int count)" in ml.print_unit(tree)
    assert "someVar + count" in ml.print_unit(tree)


def test_add_field_add_method_create_fresh_elements():
    tree, table, alloc = build(BASE)
    op, table = run(tree, table, alloc, "add_field", "Demo", type="int", name="extra", init="2")
    assert op.created == op.touched and len(op.created) == 1
    assert table.qname(op.created[0]) == "Demo.extra"
    op2, table = run(tree, table, alloc, "add_method", "Demo", name="fresh", ret="int")
    assert table.qname(op2.created[0]) == "Demo.fresh"
    printed = ml.print_unit(tree)
    assert "int extra = 2;" in printed
    assert "int fresh() {" in printed


def test_add_param_touches_method_and_new_param():
    tree, table, alloc = build(BASE)
    foo = table.resolve_qname("Demo.Foo")
    op, table = run(tree, table, alloc, "add_param", "Demo.Foo", type="in", name="newParam")
    assert set(op.touched) == {foo, op.created[0]}
    assert "void Foo(int i, in newParam)" in ml.print_unit(tree)
    op2, table = run(tree, table, alloc, "set_param_type", "Demo.Foo.newParam", type="int")
    assert op2.touched == (op.created[0],)
    assert "void Foo(int i, int newParam)" in ml.print_unit(tree)


def test_remove_param_touches_param_and_method():
    tree, table, alloc = build(BASE)
    foo = table.resolve_qname("Demo.Foo")
    i = table.resolve_qname("Demo.Foo.i")
    op, table = run(tree, table, alloc, "remove_param", "Demo.Foo.i")
    assert set(op.touched) == {foo, i}
    assert "void Foo()" in ml.print_unit(tree)


def test_insert_statement_appends_by_default():
    tree, table, alloc = build(BASE)
    foo = table.resolve_qname("Demo.Foo")
    op, table = run(
        tree, table, alloc, "insert_statement", "Demo.Foo/body", text="local = 0;"
    )
    assert set(op.created) <= set(op.touched)
    assert foo in op.touched
    assert table.qname(op.created[0]) == "Demo.Foo/body[1]"
    op2, table = run(
        tree, table, alloc, "insert_statement", "Demo.Foo/body", text="int first = 1;", at=0
    )
    assert table.qname(op2.created[0]) == "Demo.Foo/body[0]"
    body = [ml.print_statement(s, 0) for s in tree.classes[0].members[1].body]
    assert body == ["int first = 1;", "int local = someVar + i;", "local = 0;"]


def test_insert_statement_into_if_arms():
    tree, table, alloc = build(
        """\
        class A {
            void m(bool p) {
                if (p) {
                    int a = 1;
                } else {
                }
            }
        }
        """
    )
    op, table = run(
        tree, table, alloc, "insert_statement", "A.m/body[0]/else", text="int b = 2;"
    )
    assert table.qname(op.created[0]) == "A.m/body[0]/else[0]"
    assert "int b = 2;" in ml.print_unit(tree)
    # an element id plus an explicit slot addresses the same container
    iff = table.resolve_qname("A.m/body[0]")
    op2, table = run(
        tree, table, alloc, "insert_statement", iff, slot="then", text="int c = 3;"
    )
    assert table.qname(op2.created[0]) == "A.m/body[0]/then[1]"


def test_replace_statement_keeps_root_identity():
    tree, table, alloc = build(BASE)
    stmt = table.resolve_qname("Demo.Foo/body[0]")
    op, table = run(
        tree, table, alloc, "replace_statement", "Demo.Foo/body[0]",
        text="int local = someVar * 2;",
    )
    assert op.target == stmt
    assert op.created == ()  # single replacement statement reuses the slot id
    assert table.resolve_qname("Demo.Foo/body[0]") == stmt
    assert "int local = someVar * 2;" in ml.print_unit(tree)


def test_replace_statement_with_nested_block_creates_inner_ids():
    tree, table, alloc = build(BASE)
    stmt = table.resolve_qname("Demo.Foo/body[0]")
    op, table = run(
        tree, table, alloc, "replace_statement", "Demo.Foo/body[0]",
        text="if (i < 1) {\n    int local = 0;\n}",
    )
    assert table.resolve_qname("Demo.Foo/body[0]") == stmt
    assert len(op.created) == 1
    assert table.qname(op.created[0]) == "Demo.Foo/body[0]/then[0]"
    assert stmt in op.touched and op.created[0] in op.touched


def test_delete_statement_touches_descendants():
    tree, table, alloc = build(
        """\
        class A {
            void m(bool p) {
                if (p) {
                    int a = 1;
                    int b = 2;
                }
            }
        }
        """
    )
    iff = table.resolve_qname("A.m/body[0]")
    inner = {
        table.resolve_qname("A.m/body[0]/then[0]"),
        table.resolve_qname("A.m/body[0]/then[1]"),
    }
    op, table = run(tree, table, alloc, "delete_statement", "A.m/body[0]")
    assert set(op.touched) == {iff} | inner
    assert tree.classes[0].members[0].body == []


def test_delete_method_and_class():
    tree, table, alloc = build(BASE)
    op, table = run(tree, table, alloc, "delete_method", "Demo.Foo")
    assert "Foo" not in ml.print_unit(tree)
    op2, table = run(tree, table, alloc, "delete_class", "Demo")
    assert ml.print_unit(tree) == ""


def test_delete_class_removes_the_class_it_names_not_an_equal_one():
    # eid takes no part in AST equality: only identity tells the two apart
    tree, table, alloc = build("class A {\n}\n\nclass A {\n}\n")
    run(tree, table, alloc, "delete_class", 2)
    assert [cls.eid for cls in tree.classes] == [1]


def test_delete_uses_widened_descendants_when_given():
    tree, table, alloc = build(BASE)
    foo = table.resolve_qname("Demo.Foo")
    phantom = 9999  # another developer's statement under Foo, unknown here

    def widened(eid):
        return table.descendants(eid) | ({phantom} if eid == foo else set())

    op = editops.prepare(
        depcore.ref_edges(tree),
        table,
        editops.EditRequest("delete_method", "Demo.Foo", {}),
        alloc,
        descendants=widened,
    )
    assert phantom in op.touched


def test_create_class_and_set_ops():
    tree, table, alloc = build("")
    op, table = run(tree, table, alloc, "create_class", name="Fresh")
    assert op.target is None and op.created == op.touched
    assert ml.print_unit(tree) == "class Fresh {\n}\n"
    op2, table = run(tree, table, alloc, "add_field", "Fresh", type="int", name="x")
    op3, table = run(tree, table, alloc, "set_field_init", "Fresh.x", init="41")
    assert "int x = 41;" in ml.print_unit(tree)
    op4, table = run(tree, table, alloc, "set_field_init", "Fresh.x")
    assert "int x;" in ml.print_unit(tree)
    op5, table = run(tree, table, alloc, "set_field_type", "Fresh.x", type="bool")
    assert "bool x;" in ml.print_unit(tree)
    op6, table = run(tree, table, alloc, "add_method", "Fresh", name="m")
    op7, table = run(tree, table, alloc, "set_return_type", "Fresh.m", ret="int")
    assert "int m() {" in ml.print_unit(tree)
    op8, table = run(tree, table, alloc, "rename_class", "Fresh", new_name="Renamed")
    assert "class Renamed {" in ml.print_unit(tree)


def test_rename_class_cascades_to_type_references():
    tree, table, alloc = build(
        """\
        class Node {
        }

        class Holder {
            Node kept;
        }
        """
    )
    kept = table.resolve_qname("Holder.kept")
    op, table = run(tree, table, alloc, "rename_class", "Node", new_name="Cell")
    assert kept in op.touched
    assert "Cell kept;" in ml.print_unit(tree)


def test_validation_errors():
    tree, table, alloc = build(BASE)

    def expect(code, kind, target=None, **args):
        with pytest.raises(editops.OpError) as err:
            editops.prepare(depcore.ref_edges(tree), table, editops.EditRequest(kind, target, args), alloc)
        assert err.value.code == code

    expect("malformed-op", "warp_method", "Demo.Foo")
    expect("malformed-op", "rename_method")  # no target
    expect("unknown-element", "rename_method", "Demo.Nope", new_name="x")
    expect("unknown-element", "insert_statement", "Demo.Nope/body", text="int x;")
    expect("malformed-op", "rename_method", "Demo.someVar", new_name="x")
    expect("malformed-op", "rename_method", "Demo.Foo", new_name="not a name")
    expect("malformed-op", "rename_method", "Demo.Foo")  # missing new_name
    expect("malformed-op", "add_field", "Demo", type="int", name="bad.name")
    expect("malformed-op", "add_field", "Demo", type="int", name="x", init="1 +")
    expect("malformed-op", "insert_statement", "Demo.Foo/body", text="not-a-stmt +")
    expect("malformed-op", "insert_statement", "Demo.Foo/body", text="int x;", at=7)
    expect("malformed-op", "add_param", "Demo.Foo", type="int", name="p", at=9)
    # JSON booleans are not positions, although Python counts them as ints
    for flag in (True, False):
        expect("malformed-op", "insert_statement", "Demo.Foo/body", text="int x;", at=flag)
        expect("malformed-op", "add_param", "Demo.Foo", type="int", name="p", at=flag)
    expect("malformed-op", "replace_statement", "Demo.Foo/body[0]", text="")
    # a method's element lists other than its body hold no statements
    expect("malformed-op", "insert_statement", "Demo.Foo/then", text="int x;")
    foo = table.resolve_qname("Demo.Foo")
    expect("malformed-op", "insert_statement", foo, text="int x;", slot="params")


def test_typo_type_is_accepted_by_ops_and_left_to_the_gate():
    # the admission layer must not pre-empt the binder: "in" is storable
    tree, table, alloc = build(BASE)
    op, table = run(tree, table, alloc, "add_param", "Demo.Foo", type="in", name="p")
    assert "in p" in ml.print_unit(tree)


def test_prepared_op_applies_identically_to_copies():
    tree, table, alloc = build(BASE)
    op = editops.prepare(
        depcore.ref_edges(tree),
        table,
        editops.EditRequest("replace_statement", "Demo.Foo/body[0]", {"text": "return;"}),
        alloc,
    )
    copy_a = copy.deepcopy(tree)
    copy_b = copy.deepcopy(tree)
    editops.apply_op(copy_a, op)
    editops.apply_op(copy_b, op)
    assert copy_a == copy_b
    ta = depcore.build_element_table(copy_a)
    tb = depcore.build_element_table(copy_b)
    assert sorted(ta.elements) == sorted(tb.elements)


def test_op_record_round_trip():
    tree, table, alloc = build(BASE)
    op = editops.prepare(
        depcore.ref_edges(tree),
        table,
        editops.EditRequest("rename_method", "Demo.Foo", {"new_name": "Bar"}),
        alloc,
    )
    record = op.to_record()
    assert record["kind"] == "rename_method"
    assert editops.EditOp.from_record(record) == op


def test_apply_after_target_vanished_raises_apply_error():
    tree, table, alloc = build(BASE)
    op = editops.prepare(
        depcore.ref_edges(tree),
        table,
        editops.EditRequest("rename_method", "Demo.Foo", {"new_name": "Bar"}),
        alloc,
    )
    run(tree, table, alloc, "delete_method", "Demo.Foo")
    with pytest.raises(editops.ApplyError):
        editops.apply_op(tree, op)


NO_ELSE = """\
class C {
    int f;

    void m() {
        if (true) {
            f = 1;
        }
    }
}
"""


@pytest.mark.parametrize(
    "kind, target, args, code",
    [
        ("insert_statement", "C.m/body[0]", {"slot": "else", "at": 0, "text": "f = 2;"}, "malformed-op"),
        ("insert_statement", "C.m", {"slot": "body", "at": 2, "text": "f = 2;"}, "malformed-op"),
        ("set_field_init", 99, {"init": "2"}, "unknown-element"),
    ],
    ids=["missing-slot", "position-out-of-range", "target-gone"],
)
def test_a_failing_op_leaves_the_tree_as_it_was(kind, target, args, code):
    # ops as a rebase can meet them: made for a tree other than this one
    tree, table, alloc = build(NO_ELSE)
    eid = table.resolve_qname(target) if isinstance(target, str) else target
    created = (alloc.fresh(),) if kind == "insert_statement" else ()
    op = editops.EditOp(kind, eid, args, (eid, *created), created)
    classes, text = tree.classes, ml.print_unit(tree)
    with pytest.raises(editops.ApplyError) as err:
        editops.apply_op(tree, op)
    assert err.value.code == code
    assert tree.classes is classes
    assert ml.print_unit(tree) == text


# -- persistence: an op changes only the root it is given, plus fresh copies --

SHARING = """\
class Node {
    int v = 1;

    int get(int k) {
        if (k < v) {
            return k;
        } else {
            return v;
        }
    }

    void put(int k) {
        v = get(k) + k;
    }
}

class Holder {
    Node kept;

    Node make(Node n) {
        Node local = n;
        return local;
    }
}
"""

EVERY_KIND = [
    ("create_class", None, {"name": "Fresh"}),
    ("rename_class", "Node", {"new_name": "Cell"}),
    ("delete_class", "Holder", {}),
    ("add_field", "Node", {"type": "int", "name": "w", "init": "2"}),
    ("rename_field", "Node.v", {"new_name": "w"}),
    ("set_field_type", "Node.v", {"type": "bool"}),
    ("set_field_init", "Node.v", {"init": "7"}),
    ("add_method", "Holder", {"name": "fresh", "ret": "int"}),
    ("rename_method", "Node.get", {"new_name": "fetch"}),
    ("set_return_type", "Node.put", {"ret": "int"}),
    ("delete_method", "Node.put", {}),
    ("add_param", "Node.put", {"type": "int", "name": "q", "at": 0}),
    ("rename_param", "Node.get.k", {"new_name": "key"}),
    ("set_param_type", "Node.get.k", {"type": "bool"}),
    ("remove_param", "Node.put.k", {}),
    ("insert_statement", "Node.get/body[0]/else", {"text": "int z = 0;", "at": 0}),
    ("replace_statement", "Node.put/body[0]", {"text": "if (true) { v = 2; }"}),
    ("delete_statement", "Node.get/body[0]", {}),
]


def test_every_kind_is_covered():
    assert sorted(kind for kind, _target, _args in EVERY_KIND) == sorted(editops.EDIT_KINDS)


def _record(info):
    return (info.eid, info.kind, info.parent, info.qname, id(info.node), info.method)


def _class_of(table, eid):
    while table.info(eid).parent is not None:
        eid = table.info(eid).parent
    return eid


@pytest.mark.parametrize("kind, target, args", EVERY_KIND, ids=[case[0] for case in EVERY_KIND])
def test_an_op_leaves_every_tree_sharing_its_nodes_alone(kind, target, args):
    tree, table, alloc = build(SHARING)
    op = editops.prepare(depcore.ref_edges(tree), table, editops.EditRequest(kind, target, args), alloc)
    text, before = ml.print_unit(tree), copy.deepcopy(tree)
    ids = list(table.elements)

    shared = copy.copy(tree)
    editops.apply_op(shared, op)
    assert ml.print_unit(tree) == text
    assert tree == before
    assert list(depcore.build_element_table(tree).elements) == ids

    deep = copy.deepcopy(before)
    editops.apply_op(deep, op)
    assert shared == deep
    assert ml.print_unit(shared) == ml.print_unit(deep) != text
    assert list(depcore.build_element_table(shared).elements) == list(
        depcore.build_element_table(deep).elements
    )

    # a table built with the original's as prior equals one built from scratch
    reused = depcore.build_element_table(shared, table)
    fresh = depcore.build_element_table(shared)
    assert [_record(info) for info in reused.elements.values()] == [
        _record(info) for info in fresh.elements.values()
    ]
    assert reused.by_qname == fresh.by_qname

    # a class holding nothing the op changes is the original's object
    changed = {_class_of(table, eid) for eid in {op.target, *op.touched} if eid in table}
    for cls in shared.classes:
        if cls.eid in table and cls.eid not in changed:
            assert cls is tree.classes[[c.eid for c in tree.classes].index(cls.eid)]


def test_a_rename_copies_only_the_paths_to_its_sites():
    tree, table, alloc = build(SHARING)
    op = editops.prepare(
        depcore.ref_edges(tree), table, editops.EditRequest("rename_field", "Node.v", {"new_name": "w"}), alloc
    )
    shared = copy.copy(tree)
    editops.apply_op(shared, op)
    node, holder = shared.classes
    assert holder is tree.classes[1]
    get, put = node.members[1], node.members[2]
    old_get = tree.classes[0].members[1]
    assert get is not old_get and put is not tree.classes[0].members[2]
    # the parameter and the then-arm hold no site
    assert get.params[0] is old_get.params[0]
    assert get.body[0].then_body is old_get.body[0].then_body
    assert get.body[0].cond.left is old_get.body[0].cond.left
    assert put.body[0].value.left is tree.classes[0].members[2].body[0].value.left


def test_a_table_reuses_the_records_of_elements_left_in_place():
    tree, table, alloc = build(SHARING)
    iff = table.resolve_qname("Node.get/body[0]")
    kept = table.resolve_qname("Holder.kept")
    op = editops.prepare(
        depcore.ref_edges(tree),
        table,
        editops.EditRequest("insert_statement", "Node.get/body", {"text": "int z = 0;", "at": 0}),
        alloc,
    )
    shared = copy.copy(tree)
    editops.apply_op(shared, op)
    rebuilt = depcore.build_element_table(shared, table)
    assert rebuilt.info(kept) is table.info(kept)
    # the if statement is the same node, one place further down
    assert rebuilt.info(iff) is not table.info(iff)
    assert rebuilt.qname(iff) == "Node.get/body[1]"

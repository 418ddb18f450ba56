"""Element identity, qualified names, and the dependency predicate.

The dependency rules are checked against a brute-force oracle written here
from scratch: its own parent walk for the shared-method rule and its own
scope resolver for the reference rule. Production code computes the same
facts through the element table and binding index; the two must agree on
every ordered element pair of every fixture.
"""

import textwrap

import pytest

from ssd import depcore
from ssd import minilang as ml


def build(src: str):
    unit, diags = ml.parse_unit(ml.SourceText(src, "<test>"))
    assert unit is not None, diags
    depcore.annotate(unit, depcore.IdAllocator())
    table = depcore.build_element_table(unit)
    index = depcore.build_ref_index({"main": depcore.ref_edges(unit)})
    return unit, table, index


# -- oracle -----------------------------------------------------------------


def oracle_parent_map(unit):
    """eid -> (node, parent eid), recomputed by direct recursion."""
    nodes = {}

    def stmt_walk(stmt, parent):
        nodes[stmt.eid] = (stmt, parent)
        if isinstance(stmt, ml.IfStmt):
            for child in stmt.then_body:
                stmt_walk(child, stmt.eid)
            for child in stmt.else_body or []:
                stmt_walk(child, stmt.eid)
        elif isinstance(stmt, ml.WhileStmt):
            for child in stmt.body:
                stmt_walk(child, stmt.eid)

    for cls in unit.classes:
        nodes[cls.eid] = (cls, None)
        for member in cls.members:
            nodes[member.eid] = (member, cls.eid)
            if isinstance(member, ml.MethodDecl):
                for param in member.params:
                    nodes[param.eid] = (param, member.eid)
                for stmt in member.body:
                    stmt_walk(stmt, member.eid)
    return nodes


def oracle_nearest_method(nodes, eid):
    cur = eid
    while cur is not None:
        node, parent = nodes[cur]
        if isinstance(node, ml.MethodDecl):
            return cur
        cur = parent
    return None


def oracle_refs(unit):
    """(owner element, referenced declaration) pairs via an independent
    resolver: innermost block, then parameters, then fields; calls bind to
    same-class methods; non-builtin type names bind to classes."""
    edges = set()
    classes = {}
    for cls in unit.classes:
        classes.setdefault(cls.name, cls)

    def type_edge(owner, name):
        if name not in ml.BUILTIN_TYPES and name in classes:
            edges.add((owner, classes[name].eid))

    for cls in classes.values():
        fields = {}
        methods = {}
        for member in cls.members:
            if isinstance(member, ml.FieldDecl):
                fields.setdefault(member.name, member)
            else:
                methods.setdefault(member.name, member)

        def expr_refs(expr, owner, lookup):
            if isinstance(expr, ml.NameRef):
                decl = lookup(expr.name)
                if decl is not None:
                    edges.add((owner, decl.eid))
            elif isinstance(expr, ml.Binary):
                expr_refs(expr.left, owner, lookup)
                expr_refs(expr.right, owner, lookup)
            elif isinstance(expr, ml.Call):
                if expr.name in methods:
                    edges.add((owner, methods[expr.name].eid))
                for arg in expr.args:
                    expr_refs(arg, owner, lookup)

        for member in cls.members:
            if isinstance(member, ml.FieldDecl):
                type_edge(member.eid, member.type_name)
                if member.init is not None:
                    expr_refs(member.init, member.eid, lambda n, f=fields: f.get(n))
                continue
            if member.ret_type != "void":
                type_edge(member.eid, member.ret_type)
            params = {}
            for param in member.params:
                type_edge(param.eid, param.type_name)
                params.setdefault(param.name, param)
            blocks = []

            def lookup(name):
                for block in reversed(blocks):
                    if name in block:
                        return block[name]
                if name in params:
                    return params[name]
                return fields.get(name)

            def do_stmt(stmt):
                owner = stmt.eid
                if isinstance(stmt, ml.VarDeclStmt):
                    type_edge(owner, stmt.type_name)
                    if stmt.init is not None:
                        expr_refs(stmt.init, owner, lookup)
                    fresh = not any(stmt.name in b for b in blocks)
                    if fresh and stmt.name not in params:
                        blocks[-1][stmt.name] = stmt
                elif isinstance(stmt, ml.AssignStmt):
                    decl = lookup(stmt.target.name)
                    if decl is not None:
                        edges.add((owner, decl.eid))
                    expr_refs(stmt.value, owner, lookup)
                elif isinstance(stmt, ml.ReturnStmt):
                    if stmt.value is not None:
                        expr_refs(stmt.value, owner, lookup)
                elif isinstance(stmt, ml.ExprStmt):
                    expr_refs(stmt.expr, owner, lookup)
                elif isinstance(stmt, ml.IfStmt):
                    expr_refs(stmt.cond, owner, lookup)
                    walk(stmt.then_body)
                    if stmt.else_body is not None:
                        walk(stmt.else_body)
                elif isinstance(stmt, ml.WhileStmt):
                    expr_refs(stmt.cond, owner, lookup)
                    walk(stmt.body)

            def walk(body):
                blocks.append({})
                for stmt in body:
                    do_stmt(stmt)
                blocks.pop()

            walk(member.body)
    return edges


def oracle_rule(nodes, refs, a, b):
    if a == b:
        return 1
    ma = oracle_nearest_method(nodes, a)
    if ma is not None and ma == oracle_nearest_method(nodes, b):
        return 2
    if (a, b) in refs or (b, a) in refs:
        return 3
    return None


# -- fixtures ---------------------------------------------------------------

FIXTURES = [
    # rename-vs-reference pair: the canonical inevitable-conflict shape
    """\
    class Demo {
        int someVar;

        void m2() {
            int otherVar = someVar;
        }
    }
    """,
    # lone method with a parameter
    """\
    class Demo {
        void Foo(int i) {
        }
    }
    """,
    # call web between methods plus field traffic
    """\
    class Acc {
        int total;
        int step = 1;

        int bump() {
            total = total + step;
            return total;
        }

        void run(int times) {
            int i = 0;
            while (i < times) {
                bump();
                i = i + step;
            }
        }
    }
    """,
    # nested blocks, shadowing, locals referencing locals
    """\
    class Nest {
        int depth;

        void dig(bool deeper) {
            int mark = depth;
            if (deeper) {
                int inner = mark + 1;
                depth = inner;
            } else {
                depth = mark;
            }
        }
    }
    """,
    # two classes: typed fields cross classes, calls stay in-class
    """\
    class B {
        void ping() {
        }
    }

    class A {
        B other;

        void ping() {
            ping();
        }
    }
    """,
    # param shadows field: references must bind to the param
    """\
    class Shade {
        int v = 3;

        int pick(int v) {
            return v;
        }

        int read() {
            return v;
        }
    }
    """,
    # field initializers referencing fields: element pairs with no method
    """\
    class Chain {
        int a = 1;
        int b = a + 1;
        int c = b + a;
    }
    """,
    # statement-to-statement references through locals
    """\
    class Locals {
        void m() {
            int x = 1;
            int y = x + 2;
            x = y;
        }
    }
    """,
    # two independent methods over disjoint fields
    """\
    class Split {
        int left;
        int right;

        void touchLeft() {
            left = 1;
        }

        void touchRight() {
            right = 2;
        }
    }
    """,
    # returns, call arguments, and method return types
    """\
    class Ret {
        int base = 10;

        int half(int n) {
            return n / 2;
        }

        int quarter() {
            return half(half(base));
        }
    }
    """,
    # class-typed locals and parameters
    """\
    class Node {
        int value;
    }

    class Holder {
        Node kept;

        void keep(Node fresh) {
            Node tmp = fresh;
            kept = tmp;
        }
    }
    """,
    # duplicate declarations: first declaration wins the bindings
    """\
    class Dup {
        int x;
        int x;

        void m() {
            x = 1;
        }
    }
    """,
]


def test_fixture_corpus_shape():
    assert len(FIXTURES) >= 10
    for src in FIXTURES:
        _, table, _ = build(textwrap.dedent(src))
        assert 3 <= len(table.elements) <= 50


@pytest.mark.parametrize("idx", range(len(FIXTURES)))
def test_dependency_rules_match_bruteforce_oracle(idx):
    unit, table, index = build(textwrap.dedent(FIXTURES[idx]))
    nodes = oracle_parent_map(unit)
    refs = oracle_refs(unit)
    eids = sorted(table.elements)
    assert set(nodes) == set(eids)
    checked = 0
    for a in eids:
        for b in eids:
            expected = oracle_rule(nodes, refs, a, b)
            actual = depcore.dependency_rule(a, b, index, table)
            assert actual == expected, (
                f"fixture {idx}: pair ({table.qname(a)}, {table.qname(b)}) "
                f"oracle={expected} got={actual}"
            )
            checked += 1
    assert checked == len(eids) ** 2


def test_dependency_is_symmetric_but_not_transitive():
    src = textwrap.dedent(
        """\
        class T {
            int shared;

            void m1() {
                shared = 1;
            }

            void m2() {
                shared = 2;
            }
        }
        """
    )
    unit, table, index = build(src)
    stmt1 = table.resolve_qname("T.m1/body[0]")
    stmt2 = table.resolve_qname("T.m2/body[0]")
    shared = table.resolve_qname("T.shared")
    assert depcore.dependency_rule(stmt1, shared, index, table) == 3
    assert depcore.dependency_rule(shared, stmt1, index, table) == 3
    assert depcore.dependency_rule(shared, stmt2, index, table) == 3
    # both statements depend on the field, not on each other
    assert depcore.dependency_rule(stmt1, stmt2, index, table) is None


def test_rule_order_identity_beats_method_beats_reference():
    src = textwrap.dedent(
        """\
        class T {
            int f;

            void m() {
                f = 1;
                f = 2;
            }
        }
        """
    )
    _, table, index = build(src)
    s0 = table.resolve_qname("T.m/body[0]")
    s1 = table.resolve_qname("T.m/body[1]")
    f = table.resolve_qname("T.f")
    m = table.resolve_qname("T.m")
    assert depcore.dependency_rule(s0, s0, index, table) == 1
    # same enclosing method wins even though both also reference f
    assert depcore.dependency_rule(s0, s1, index, table) == 2
    assert depcore.dependency_rule(s0, m, index, table) == 2
    assert depcore.dependency_rule(s0, f, index, table) == 3


def test_qualified_names():
    src = textwrap.dedent(
        """\
        class Demo {
            int someVar;

            void m2(int n) {
                int otherVar = someVar;
                if (n < 2) {
                    otherVar = 0;
                } else {
                    otherVar = 1;
                }
            }
        }
        """
    )
    _, table, _ = build(src)
    qnames = {table.qname(eid) for eid in table.elements}
    assert qnames == {
        "Demo",
        "Demo.someVar",
        "Demo.m2",
        "Demo.m2.n",
        "Demo.m2/body[0]",
        "Demo.m2/body[1]",
        "Demo.m2/body[1]/then[0]",
        "Demo.m2/body[1]/else[0]",
    }
    for eid in table.elements:
        assert table.resolve_qname(table.qname(eid)) == eid


def test_method_of_is_nearest_ancestor_or_self():
    src = textwrap.dedent(
        """\
        class T {
            int f;

            void m(int p) {
                while (true) {
                    int inner = p;
                }
            }
        }
        """
    )
    _, table, _ = build(src)
    m = table.resolve_qname("T.m")
    assert table.method_of[m] == m
    assert table.method_of[table.resolve_qname("T.m.p")] == m
    assert table.method_of[table.resolve_qname("T.m/body[0]")] == m
    assert table.method_of[table.resolve_qname("T.m/body[0]/body[0]")] == m
    assert table.method_of.get(table.resolve_qname("T.f")) is None
    assert table.method_of.get(table.resolve_qname("T")) is None


def test_descendants():
    src = textwrap.dedent(
        """\
        class T {
            void m() {
                if (true) {
                    int a = 1;
                    int b = 2;
                }
            }
        }
        """
    )
    _, table, _ = build(src)
    m = table.resolve_qname("T.m")
    iff = table.resolve_qname("T.m/body[0]")
    names = {table.qname(e) for e in table.descendants(m)}
    assert names == {
        "T.m",
        "T.m/body[0]",
        "T.m/body[0]/then[0]",
        "T.m/body[0]/then[1]",
    }
    assert table.descendants(iff) >= {iff}


def test_unknown_eid_raises():
    _, table, index = build("class T {\n}\n")
    with pytest.raises(depcore.UnknownElementError):
        table.info(999)
    with pytest.raises(depcore.UnknownElementError):
        depcore.dependency_rule(999, 999, index, table)
    with pytest.raises(depcore.UnknownElementError):
        table.resolve_qname("Nope")


def test_dependents_of_contains_self_and_is_pairwise():
    src = textwrap.dedent(
        """\
        class T {
            int f;

            void m1() {
                f = 1;
            }

            void m2() {
                int x = f;
            }
        }
        """
    )
    _, table, index = build(src)
    f = table.resolve_qname("T.f")
    deps = depcore.dependents_of(f, index, table)
    assert f in deps
    names = {table.qname(e) for e in deps}
    # pairwise only: statements referencing f are in, their methods are not
    assert names == {"T.f", "T.m1/body[0]", "T.m2/body[0]"}


def test_annotate_assigns_unique_ids_once():
    unit, diags = ml.parse_unit(
        ml.SourceText("class A { int x; void m() { x = 1; } }", "<test>")
    )
    assert unit is not None, diags
    alloc = depcore.IdAllocator()
    depcore.annotate(unit, alloc)
    table = depcore.build_element_table(unit)
    eids = sorted(table.elements)
    assert len(eids) == len(set(eids))
    before = list(eids)
    depcore.annotate(unit, alloc)  # second pass must not restamp
    table2 = depcore.build_element_table(unit)
    assert sorted(table2.elements) == before


def test_union_tables_first_view_wins():
    unit_a, table_a, _ = build("class A {\n    int x;\n}\n")
    alloc = depcore.IdAllocator()
    unit_b, diags = ml.parse_unit(ml.SourceText("class B {\n}\n", "<test>"))
    assert unit_b is not None, diags
    depcore.annotate(unit_b, alloc)
    table_b = depcore.build_element_table(unit_b)
    merged = depcore.union_tables([table_a, table_b])
    assert set(merged.elements) >= set(table_a.elements) | set(table_b.elements)
    x = table_a.resolve_qname("A.x")
    assert merged.qname(x) == "A.x"

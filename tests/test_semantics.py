"""Name binding, type checking, and the build gate."""

import textwrap

from ssd import depcore
from ssd import minilang as ml
from ssd import semantics


def gated(src: str) -> semantics.GateResult:
    unit, diags = ml.parse_unit(ml.SourceText(src, "<test>"))
    assert unit is not None, diags
    depcore.annotate(unit, depcore.IdAllocator())
    return semantics.build_gate(unit, version_checked="<test>")


def codes(src: str) -> list[str]:
    return [e.code for e in gated(src).report.errors]


def test_wellformed_program_is_buildable():
    result = gated(
        textwrap.dedent(
            """\
            class Demo {
                int someVar = 1;

                int m2(int scale) {
                    int otherVar = someVar * scale;
                    return otherVar;
                }

                void reset() {
                    if (0 < someVar) {
                        someVar = 0;
                    }
                    m2(2);
                }
            }
            """
        )
    )
    assert result.report.status == semantics.BUILDABLE
    assert result.report.buildable
    assert result.report.errors == []
    assert result.report.version_checked == "<test>"
    assert result.bindings is not None


def test_typo_in_type_name_is_caught_by_binder_not_parser():
    # "in newParam" parses fine; the gate flags the unknown type
    src = "class Demo {\n    void Foo(in newParam) {\n    }\n}\n"
    result = gated(src)
    assert not result.report.buildable
    [err] = result.report.errors
    assert err.code == "unknown-type"
    assert "'in'" in err.message
    assert (err.span.line, err.span.col) == (2, 14)


def test_one_character_fix_flips_exactly_one_error():
    broken = "class Demo {\n    void Foo(in newParam) {\n    }\n}\n"
    fixed = broken.replace("in newParam", "int newParam")
    assert codes(broken) == ["unknown-type"]
    assert codes(fixed) == []


def test_duplicate_declarations():
    assert codes("class A { int x; int x; }") == ["duplicate-declaration"]
    assert codes("class A { } class A { }") == ["duplicate-declaration"]
    assert codes("class A { void m() { } void m() { } }") == ["duplicate-declaration"]
    assert codes("class A { void m(int a, int a) { } }") == ["duplicate-declaration"]
    assert (
        codes("class A { void m() { int v; int v; } }") == ["duplicate-declaration"]
    )


def test_block_scoping_allows_shadow_free_reuse_across_branches():
    src = textwrap.dedent(
        """\
        class A {
            void m(bool p) {
                if (p) {
                    int t = 1;
                } else {
                    int t = 2;
                }
            }
        }
        """
    )
    assert codes(src) == []


def test_unresolved_identifier_and_call():
    assert codes("class A { void m() { y = 1; } }") == ["unresolved-identifier"]
    assert codes("class A { void m() { nothere(); } }") == ["unresolved-call"]
    # calls resolve within the class only
    assert codes("class A { void m() { } } class B { void n() { m(); } }") == [
        "unresolved-call"
    ]


def test_type_mismatches():
    assert codes("class A { int x = true; }") == ["type-mismatch"]
    assert codes("class A { int x; void m() { x = true; } }") == ["type-mismatch"]
    assert codes("class A { int f() { return true; } }") == ["type-mismatch"]
    assert codes("class A { void f() { return 1; } }") == ["type-mismatch"]
    assert codes('class A { String s = "ok"; bool b = 1 < 2; }') == []


def test_condition_must_be_bool():
    assert codes("class A { void m() { if (1) { } } }") == ["bad-condition-type"]
    assert codes("class A { void m() { while (0) { } } }") == ["bad-condition-type"]
    assert codes("class A { void m(bool go) { while (go) { } } }") == []


def test_arity_and_argument_types():
    assert codes("class A { void m(int a) { } void n() { m(); } }") == ["arity-mismatch"]
    assert codes("class A { void m(int a) { } void n() { m(1, 2); } }") == [
        "arity-mismatch"
    ]
    assert codes("class A { void m(int a) { } void n() { m(true); } }") == [
        "type-mismatch"
    ]


def test_class_types_resolve_across_classes():
    assert codes("class B { } class A { B other; }") == []
    assert codes("class A { B other; }") == ["unknown-type"]


def test_errors_sorted_by_position():
    src = textwrap.dedent(
        """\
        class A {
            in bad1;
            void m() {
                y = 1;
                z = 2;
            }
        }
        """
    )
    errors = gated(src).report.errors
    assert [e.code for e in errors] == [
        "unknown-type",
        "unresolved-identifier",
        "unresolved-identifier",
    ]
    positions = [(e.span.line, e.span.col) for e in errors]
    assert positions == sorted(positions)


def test_gate_collects_bind_and_check_errors_together():
    src = "class A { in bad; int x; void m() { x = true; } }"
    assert sorted(codes(src)) == ["type-mismatch", "unknown-type"]


def test_unbuildable_gate_result_carries_the_bindings_it_judged():
    # the gate's table is the best-effort resolve: resolvable sites survive
    # a failed verdict, so callers can take reference edges from it
    src = "class A { in bad; int x; void m() { x = true; y = 1; } }"
    unit, _ = ml.parse_unit(ml.SourceText(src, "<test>"))
    depcore.annotate(unit, depcore.IdAllocator())
    result = semantics.build_gate(unit)
    assert not result.report.buildable
    x, m = unit.classes[0].members[1:]
    assert [(s.kind, s.name, s.target, s.owner) for s in result.bindings.sites] == [
        ("ident", "x", x.eid, m.body[0].eid)
    ]
    assert depcore.edges_of(result.bindings) == depcore.ref_edges(unit)


def test_param_shadows_field():
    src = textwrap.dedent(
        """\
        class A {
            int v;

            void m(bool v) {
                if (v) {
                    return;
                }
            }
        }
        """
    )
    assert codes(src) == []


def test_binding_sites_point_at_declarations():
    src = textwrap.dedent(
        """\
        class A {
            int total;

            int read() {
                return total;
            }

            void m() {
                total = read();
            }
        }
        """
    )
    unit, _ = ml.parse_unit(ml.SourceText(src, "<test>"))
    depcore.annotate(unit, depcore.IdAllocator())
    result = semantics.resolve(unit)
    assert result.errors == []
    cls = unit.classes[0]
    total, read, m = cls.members
    targets = {(s.kind, s.name): s.target for s in result.table.sites}
    assert targets[("ident", "total")] == total.eid
    assert targets[("call", "read")] == read.eid
    owners = {s.owner for s in result.table.sites}
    assert read.body[0].eid in owners and m.body[0].eid in owners


def test_a_class_named_classes_is_type_checked_like_any_other():
    # the class map must not share a namespace with per-class member scopes
    for name in ("K", "classes"):
        src = textwrap.dedent(
            f"""\
            class {name} {{
            }}

            class Main {{
                void m() {{
                    {name} c;
                    c = 1;
                }}
            }}
            """
        )
        errors = gated(src).report.errors
        assert [(e.code, e.message) for e in errors] == [
            ("type-mismatch", f"expected {name}, got int")
        ], name

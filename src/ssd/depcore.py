"""Element identity and the pairwise dependency predicate.

Every lockable AST node (class, field, method, param, statement) carries a
stable numeric element id. Two elements are dependent when they are the same
element, when they share an enclosing method (ancestor-or-self), or when one
contains a reference that resolves to the other's declaration. The reference
index unions edges from the authoritative snapshot and every developer
overlay, so a reference someone is still typing already counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import minilang as ml
from . import semantics

CLASS = "class"
FIELD = "field"
METHOD = "method"
PARAM = "param"
STATEMENT = "statement"

_STMT_TYPES = (
    ml.VarDeclStmt,
    ml.AssignStmt,
    ml.ReturnStmt,
    ml.ExprStmt,
    ml.IfStmt,
    ml.WhileStmt,
)


class UnknownElementError(KeyError):
    """Raised when an element id or qualified name does not exist in a view."""


def kind_of(node) -> str | None:
    if isinstance(node, ml.ClassDecl):
        return CLASS
    if isinstance(node, ml.FieldDecl):
        return FIELD
    if isinstance(node, ml.MethodDecl):
        return METHOD
    if isinstance(node, ml.Param):
        return PARAM
    if isinstance(node, _STMT_TYPES):
        return STATEMENT
    return None


class IdAllocator:
    """Strictly increasing element-id source; ids are never reused."""

    def __init__(self, start: int = 1):
        self._next = start

    def fresh(self) -> int:
        eid = self._next
        self._next += 1
        return eid


def annotate(unit: ml.Unit, alloc: IdAllocator) -> None:
    """Assign fresh element ids to every element node that lacks one, in
    deterministic pre-order."""
    for node, _seq, _i in walk(unit):
        if node.eid is None:
            node.eid = alloc.fresh()


def walk(node) -> Iterator[tuple[object, list, int]]:
    """Yield (element, its container list, its index there) for every
    element below `node`, in pre-order."""
    for _slot, seq in child_slots(node):
        for i, child in enumerate(seq):
            yield child, seq, i
            yield from walk(child)


def child_slots(node) -> list[tuple[str, list]]:
    """Ordered element-bearing child lists of a container node."""
    if isinstance(node, ml.Unit):
        return [("classes", node.classes)]
    if isinstance(node, ml.ClassDecl):
        return [("members", node.members)]
    if isinstance(node, ml.MethodDecl):
        return [("params", node.params), ("body", node.body)]
    if isinstance(node, ml.IfStmt):
        slots = [("then", node.then_body)]
        if node.else_body is not None:
            slots.append(("else", node.else_body))
        return slots
    if isinstance(node, ml.WhileStmt):
        return [("body", node.body)]
    return []


def element_content(node) -> tuple:
    """The element's own content, child elements excluded. Used for three-way
    comparison in the baseline merge and for off-record reconciliation."""
    kind = kind_of(node)
    if kind == CLASS:
        return ("class", node.name)
    if kind == FIELD:
        init = ml.print_expr(node.init) if node.init is not None else None
        return ("field", node.type_name, node.name, init)
    if kind == METHOD:
        return ("method", node.ret_type, node.name)
    if kind == PARAM:
        return ("param", node.type_name, node.name)
    if isinstance(node, ml.VarDeclStmt):
        init = ml.print_expr(node.init) if node.init is not None else None
        return ("stmt", "var", node.type_name, node.name, init)
    if isinstance(node, ml.AssignStmt):
        return ("stmt", "assign", node.target.name, ml.print_expr(node.value))
    if isinstance(node, ml.ReturnStmt):
        value = ml.print_expr(node.value) if node.value is not None else None
        return ("stmt", "return", value)
    if isinstance(node, ml.ExprStmt):
        return ("stmt", "expr", ml.print_expr(node.expr))
    if isinstance(node, ml.IfStmt):
        return ("stmt", "if", ml.print_expr(node.cond), node.else_body is not None)
    if isinstance(node, ml.WhileStmt):
        return ("stmt", "while", ml.print_expr(node.cond))
    raise TypeError(f"not an element node: {node!r}")


@dataclass(slots=True)
class ElementInfo:
    eid: int
    kind: str
    parent: int | None
    qname: str
    node: object
    method: int | None  # nearest method ancestor-or-self


@dataclass
class ElementTable:
    """Element directory of one tree, or of a union of views: id -> info,
    plus qualified-name lookup (a union has none). `elements` is in pre-order,
    so every parent comes before its children; `descendants` relies on it."""

    elements: dict[int, ElementInfo] = field(default_factory=dict)
    by_qname: dict[str, int] = field(default_factory=dict)

    def info(self, eid: int) -> ElementInfo:
        try:
            return self.elements[eid]
        except KeyError:
            raise UnknownElementError(eid) from None

    def __contains__(self, eid: int) -> bool:
        return eid in self.elements

    def qname(self, eid: int) -> str:
        return self.info(eid).qname

    def resolve_qname(self, qname: str) -> int:
        try:
            return self.by_qname[qname]
        except KeyError:
            raise UnknownElementError(qname) from None

    def descendants(self, eid: int) -> set[int]:
        """eid plus every element below it, in one pass: a child is reached
        after its parent, which is already in the set if it is below eid."""
        self.info(eid)
        out = {eid}
        for info in self.elements.values():
            if info.parent in out:
                out.add(info.eid)
        return out


def build_element_table(unit: ml.Unit) -> ElementTable:
    """Index an annotated tree. Raises ValueError on a node without an id."""
    table = ElementTable()

    def add(node, kind: str, parent: int | None, qname: str, method: int | None) -> int:
        if node.eid is None:
            raise ValueError(f"element without id: {qname}")
        table.elements[node.eid] = ElementInfo(node.eid, kind, parent, qname, node, method)
        table.by_qname.setdefault(qname, node.eid)
        return node.eid

    def add_stmts(body: list[ml.Stmt], parent_eid: int, prefix: str, method: int) -> None:
        for i, stmt in enumerate(body):
            qname = f"{prefix}[{i}]"
            eid = add(stmt, STATEMENT, parent_eid, qname, method)
            if isinstance(stmt, ml.IfStmt):
                add_stmts(stmt.then_body, eid, f"{qname}/then", method)
                if stmt.else_body is not None:
                    add_stmts(stmt.else_body, eid, f"{qname}/else", method)
            elif isinstance(stmt, ml.WhileStmt):
                add_stmts(stmt.body, eid, f"{qname}/body", method)

    for cls in unit.classes:
        cls_eid = add(cls, CLASS, None, cls.name, None)
        for member in cls.members:
            if isinstance(member, ml.FieldDecl):
                add(member, FIELD, cls_eid, f"{cls.name}.{member.name}", None)
            else:
                qname = f"{cls.name}.{member.name}"
                m_eid = add(member, METHOD, cls_eid, qname, member.eid)  # ancestor-or-self
                for param in member.params:
                    add(param, PARAM, m_eid, f"{qname}.{param.name}", m_eid)
                add_stmts(member.body, m_eid, f"{qname}/body", m_eid)
    return table


def union_tables(tables: Iterable[ElementTable]) -> ElementTable:
    """Combine tables from several views; the first view providing an element
    wins. Parent chains for shared elements agree across views (there are no
    move operations), so the union is well defined. It keeps parents before
    children: each table holds every ancestor of its elements, and
    `dict.update` leaves a key it already holds where it stands. A union
    fills only `elements`: it has no `by_qname`."""
    out = ElementTable()
    for table in reversed(list(tables)):
        out.elements.update(table.elements)
    return out


# ---------------------------------------------------------------------------
# Reference index


@dataclass
class RefIndex:
    """Directed reference edges (from-element, to-declaration). Symmetry is
    applied by the predicate, not stored."""

    edges: set[tuple[int, int]] = field(default_factory=set)

    def add(self, from_eid: int, to_eid: int, source: str) -> None:
        # `source` names where the edge came from; the index does not keep it
        self.edges.add((from_eid, to_eid))

    def has(self, from_eid: int, to_eid: int) -> bool:
        return (from_eid, to_eid) in self.edges


def edges_of(bindings: semantics.BindingTable) -> set[tuple[int, int]]:
    """(owner element, target declaration) pairs of a binding table.
    Unresolvable references have no site and so contribute nothing."""
    return {
        (site.owner, site.target)
        for site in bindings.sites
        if site.owner is not None and site.target is not None
    }


def ref_edges(unit: ml.Unit) -> set[tuple[int, int]]:
    """Best-effort reference edges of one tree, resolved from scratch."""
    return edges_of(semantics.resolve(unit).table)


def build_ref_index(edge_sets: Iterable[set[tuple[int, int]]]) -> RefIndex:
    """Union the reference edges of every view (authoritative snapshot plus
    developer overlays)."""
    return RefIndex(set().union(*edge_sets))


# ---------------------------------------------------------------------------
# Dependency predicate


def dependency_rule(a: int, b: int, index: RefIndex, table: ElementTable) -> int | None:
    """Which rule makes a and b dependent: 1 same element, 2 shared enclosing
    method, 3 reference either way. None when independent."""
    method_a = table.info(a).method
    method_b = table.info(b).method
    if a == b:
        return 1
    if method_a is not None and method_a == method_b:
        return 2
    if index.has(a, b) or index.has(b, a):
        return 3
    return None


def dependent(a: int, b: int, index: RefIndex, table: ElementTable) -> bool:
    return dependency_rule(a, b, index, table) is not None


def dependents_of(eid: int, index: RefIndex, table: ElementTable) -> set[int]:
    """All elements dependent on eid (pairwise set, not a closure; always
    contains eid itself)."""
    table.info(eid)
    return {other for other in table.elements if dependent(eid, other, index, table)}

"""The semantic edit vocabulary: changes are operations on elements, never
text diffs.

Each operation resolves to a target element, computes the set of elements it
touches (target, rename cascade sites, created elements), and can be applied
deterministically to any tree in which its element ids exist. Created
elements receive their ids at preparation time and reuse them on every
(re)application, so replaying a pending list onto a base always reproduces
the same materialized tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Callable

from . import depcore
from . import minilang as ml
from . import semantics

EDIT_KINDS = frozenset(
    [
        "create_class",
        "rename_class",
        "delete_class",
        "add_field",
        "rename_field",
        "set_field_type",
        "set_field_init",
        "add_method",
        "rename_method",
        "set_return_type",
        "delete_method",
        "add_param",
        "rename_param",
        "set_param_type",
        "remove_param",
        "insert_statement",
        "replace_statement",
        "delete_statement",
    ]
)

# statement-list containers addressable as QNAME/slot
_CONTAINER_SLOTS = {"body", "then", "else"}

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class OpError(Exception):
    """Rejected operation; code is one of unknown-element, malformed-op."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class EditRequest:
    """Client-side shape: target is a qualified name (or already an element
    id); the kernel boundary translates it into an EditOp."""

    kind: str
    target: str | int | None = None
    args: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class EditOp:
    kind: str
    target: int | None  # resolved element id; None only for create_class
    args: dict
    touched: tuple[int, ...]
    created: tuple[int, ...]

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "args": dict(self.args),
            "touched": list(self.touched),
            "created": list(self.created),
        }

    @staticmethod
    def from_record(record: dict) -> "EditOp":
        return EditOp(
            record["kind"],
            record["target"],
            dict(record["args"]),
            tuple(record["touched"]),
            tuple(record["created"]),
        )


def _check_name(name, what: str) -> str:
    if not isinstance(name, str) or not _IDENT_RE.match(name) or name in ml.KEYWORDS:
        raise OpError("malformed-op", f"invalid {what}: {name!r}")
    return name


def _check_type(name, what: str, allow_void: bool = False) -> str:
    # Any identifier is accepted as a type name; whether it means anything is
    # the build gate's verdict, not the operation's.
    if not isinstance(name, str):
        raise OpError("malformed-op", f"invalid {what}: {name!r}")
    if name in ml.BUILTIN_TYPES or (allow_void and name == "void"):
        return name
    if not _IDENT_RE.match(name) or name in ml.KEYWORDS:
        raise OpError("malformed-op", f"invalid {what}: {name!r}")
    return name


def _parse_stmt_text(text) -> ml.Stmt:
    if not isinstance(text, str):
        raise OpError("malformed-op", "statement text must be a string")
    stmt, diags = ml.parse_statement(ml.SourceText(text, "<edit>"))
    if stmt is None:
        raise OpError("malformed-op", f"statement does not parse: {diags[0].message}")
    return stmt


def _parse_expr_text(text) -> ml.Expr:
    if not isinstance(text, str):
        raise OpError("malformed-op", "expression text must be a string")
    expr, diags = ml.parse_expression(ml.SourceText(text, "<edit>"))
    if expr is None:
        raise OpError("malformed-op", f"expression does not parse: {diags[0].message}")
    return expr


def stmt_elements(stmt: ml.Stmt) -> list[ml.Stmt]:
    """The statement and every nested statement, pre-order."""
    return [stmt] + [node for node, _seq, _i in depcore.walk(stmt)]


def resolve_target(table: depcore.ElementTable, target: str | int) -> int:
    if isinstance(target, int):
        table.info(target)
        return target
    return table.resolve_qname(target)


def resolve_container(
    table: depcore.ElementTable, path: str | int, slot_arg: str | None = None
) -> tuple[int, str, list]:
    """Resolve `QNAME/slot` (or an owner id plus explicit slot) to the owner
    element and its statement list."""
    if isinstance(path, int):
        owner = path
        slot = slot_arg or "body"
        try:
            table.info(owner)
        except depcore.UnknownElementError:
            raise OpError("unknown-element", f"unknown element: {owner}") from None
    else:
        prefix, _, slot = path.rpartition("/")
        if not prefix or slot not in _CONTAINER_SLOTS:
            raise OpError("malformed-op", f"not a statement container: {path!r}")
        try:
            owner = table.resolve_qname(prefix)
        except depcore.UnknownElementError:
            raise OpError("unknown-element", f"unknown element: {prefix!r}") from None
    return owner, slot, _statements(table.info(owner).node, slot, lambda: table.qname(owner))


def _statements(node, slot: str, qname: Callable[[], str]) -> list:
    """The statement list `slot` of `node`; `qname()` names the node in the
    error when it has no such list."""
    if slot in _CONTAINER_SLOTS:
        for name, stmts in depcore.child_slots(node):
            if name == slot:
                return stmts
    raise OpError("malformed-op", f"'{qname()}' has no statement slot '{slot}'")


def _cascade_owners(tree: ml.Unit, target_eid: int) -> set[int]:
    """Elements containing a reference that resolves to target_eid."""
    result = semantics.resolve(tree)
    return {
        site.owner
        for site in result.table.sites
        if site.target == target_eid and site.owner is not None
    }


_EXPECTED_TARGET_KIND = {
    "rename_class": depcore.CLASS,
    "delete_class": depcore.CLASS,
    "add_field": depcore.CLASS,
    "add_method": depcore.CLASS,
    "rename_field": depcore.FIELD,
    "set_field_type": depcore.FIELD,
    "set_field_init": depcore.FIELD,
    "rename_method": depcore.METHOD,
    "set_return_type": depcore.METHOD,
    "delete_method": depcore.METHOD,
    "add_param": depcore.METHOD,
    "rename_param": depcore.PARAM,
    "set_param_type": depcore.PARAM,
    "remove_param": depcore.PARAM,
    "replace_statement": depcore.STATEMENT,
    "delete_statement": depcore.STATEMENT,
}


def prepare(
    tree: ml.Unit,
    table: depcore.ElementTable,
    request: EditRequest,
    alloc: depcore.IdAllocator,
    descendants: Callable[[int], set[int]] | None = None,
) -> EditOp:
    """Validate a request against a view, allocate ids for created elements,
    and compute the touched set.

    `descendants` widens subtree computation for destructive ops beyond this
    view (the kernel passes a union over all developer views so a delete also
    touches elements other developers created underneath)."""
    kind = request.kind
    if kind not in EDIT_KINDS:
        raise OpError("malformed-op", f"unknown edit kind {kind!r}")
    if descendants is None:
        descendants = table.descendants
    args = dict(request.args)

    target: int | None = None
    if kind == "create_class":
        _check_name(args.get("name"), "class name")
        created = (alloc.fresh(),)
        return EditOp(kind, None, {"name": args["name"]}, created, created)

    if request.target is None:
        raise OpError("malformed-op", f"{kind} requires a target")
    if isinstance(request.target, bool) or not isinstance(request.target, (str, int)):
        raise OpError("malformed-op", f"target must be a name or an element id: {request.target!r}")
    if kind == "insert_statement":
        owner, slot, stmts = resolve_container(table, request.target, args.get("slot"))
        at = args.get("at", len(stmts))
        if isinstance(at, bool) or not isinstance(at, int) or not 0 <= at <= len(stmts):
            raise OpError("malformed-op", f"insert position {at!r} out of range")
        parsed = _parse_stmt_text(args.get("text"))
        created = tuple(alloc.fresh() for _ in stmt_elements(parsed))
        method = table.info(owner).method
        touched = set(created) | ({method} if method is not None else set())
        return EditOp(
            kind,
            owner,
            {"slot": slot, "at": at, "text": args["text"]},
            tuple(sorted(touched)),
            created,
        )

    try:
        target = resolve_target(table, request.target)
    except depcore.UnknownElementError:
        raise OpError("unknown-element", f"unknown element: {request.target!r}") from None
    info = table.info(target)
    expected = _EXPECTED_TARGET_KIND.get(kind)
    if expected is not None and info.kind != expected:
        raise OpError(
            "malformed-op", f"{kind} target must be a {expected}, got {info.kind}"
        )

    if kind in ("rename_class", "rename_field", "rename_method", "rename_param"):
        new_name = _check_name(args.get("new_name"), "name")
        touched = {target} | _cascade_owners(tree, target)
        return EditOp(kind, target, {"new_name": new_name}, tuple(sorted(touched)), ())

    if kind == "add_field":
        _check_type(args.get("type"), "field type")
        _check_name(args.get("name"), "field name")
        payload = {"type": args["type"], "name": args["name"]}
        if args.get("init") is not None:
            _parse_expr_text(args["init"])
            payload["init"] = args["init"]
        created = (alloc.fresh(),)
        return EditOp(kind, target, payload, created, created)

    if kind == "add_method":
        _check_type(args.get("ret", "void"), "return type", allow_void=True)
        _check_name(args.get("name"), "method name")
        created = (alloc.fresh(),)
        return EditOp(
            kind, target, {"name": args["name"], "ret": args.get("ret", "void")}, created, created
        )

    if kind == "add_param":
        _check_type(args.get("type"), "parameter type")
        _check_name(args.get("name"), "parameter name")
        method_node = info.node
        at = args.get("at", len(method_node.params))
        if isinstance(at, bool) or not isinstance(at, int) or not 0 <= at <= len(method_node.params):
            raise OpError("malformed-op", f"parameter position {at!r} out of range")
        new_eid = alloc.fresh()
        return EditOp(
            kind,
            target,
            {"type": args["type"], "name": args["name"], "at": at},
            tuple(sorted({target, new_eid})),
            (new_eid,),
        )

    if kind == "set_field_type":
        _check_type(args.get("type"), "field type")
        return EditOp(kind, target, {"type": args["type"]}, (target,), ())
    if kind == "set_param_type":
        _check_type(args.get("type"), "parameter type")
        return EditOp(kind, target, {"type": args["type"]}, (target,), ())
    if kind == "set_return_type":
        _check_type(args.get("ret"), "return type", allow_void=True)
        return EditOp(kind, target, {"ret": args["ret"]}, (target,), ())

    if kind == "set_field_init":
        payload = {}
        if args.get("init") is not None:
            _parse_expr_text(args["init"])
            payload["init"] = args["init"]
        return EditOp(kind, target, payload, (target,), ())

    if kind == "remove_param":
        method = info.parent
        return EditOp(kind, target, {}, tuple(sorted({target, method})), ())

    if kind == "replace_statement":
        parsed = _parse_stmt_text(args.get("text"))
        created = tuple(alloc.fresh() for _ in stmt_elements(parsed)[1:])
        touched = descendants(target) | set(created) | {target}
        return EditOp(kind, target, {"text": args["text"]}, tuple(sorted(touched)), created)

    if kind in ("delete_class", "delete_method", "delete_statement"):
        touched = descendants(target) | {target}
        return EditOp(kind, target, {}, tuple(sorted(touched)), ())

    raise OpError("malformed-op", f"unhandled edit kind {kind!r}")  # pragma: no cover


class ApplyError(Exception):
    """An op cannot be applied to this tree (element vanished, text no longer
    parses). Under lock discipline this never happens on rebase."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _find(tree: ml.Unit, eid: int) -> tuple[list, int]:
    """Container list and index of an element, found by walking the tree."""
    for node, seq, i in depcore.walk(tree):
        if node.eid == eid:
            return seq, i
    raise ApplyError("unknown-element", f"element {eid} not in this view")


def _stamp(stmt: ml.Stmt, ids: list[int]) -> None:
    for node in stmt_elements(stmt):
        node.eid = ids.pop(0)


def apply_op(tree: ml.Unit, op: EditOp) -> None:
    """Apply one prepared op to `tree` in place. The op finds its target by
    walking `tree` and changes only nodes of `tree`; it reads no element
    table, so a caller builds one when it needs it. Deterministic: same tree
    and op always produce the same result, including created element ids."""
    kind = op.kind
    if kind == "create_class":
        tree.classes.append(ml.ClassDecl(op.args["name"], [], eid=op.created[0]))
        return

    seq, i = _find(tree, op.target)
    node = seq[i]
    if kind in ("rename_class", "rename_field", "rename_method", "rename_param"):
        new_name = op.args["new_name"]
        # cascade: rewrite every reference site of this declaration
        result = semantics.resolve(tree)
        for site in result.table.sites:
            if site.target == op.target:
                setattr(site.node, site.attr, new_name)
        node.name = new_name
        return
    if kind in ("delete_class", "delete_method", "remove_param", "delete_statement"):
        del seq[i]
        return
    if kind == "add_field":
        init = _parse_expr_text(op.args["init"]) if "init" in op.args else None
        node.members.append(
            ml.FieldDecl(op.args["type"], op.args["name"], init, eid=op.created[0])
        )
        return
    if kind == "add_method":
        node.members.append(
            ml.MethodDecl(op.args["ret"], op.args["name"], [], [], eid=op.created[0])
        )
        return
    if kind in ("set_field_type", "set_param_type"):
        node.type_name = op.args["type"]
        return
    if kind == "set_field_init":
        node.init = _parse_expr_text(op.args["init"]) if "init" in op.args else None
        return
    if kind == "set_return_type":
        node.ret_type = op.args["ret"]
        return
    if kind == "add_param":
        node.params.insert(
            op.args["at"], ml.Param(op.args["type"], op.args["name"], eid=op.created[0])
        )
        return
    if kind == "insert_statement":
        # only the error names the owner, so only the error builds a table
        try:
            stmts = _statements(
                node, op.args["slot"], lambda: depcore.build_element_table(tree).qname(op.target)
            )
        except OpError as exc:
            raise ApplyError(exc.code, exc.message) from None
        at = op.args["at"]
        if not 0 <= at <= len(stmts):
            raise ApplyError("malformed-op", f"insert position {at} out of range")
        parsed = _parse_stmt_text(op.args["text"])
        _stamp(parsed, list(op.created))
        stmts.insert(at, parsed)
        return
    if kind == "replace_statement":
        parsed = _parse_stmt_text(op.args["text"])
        _stamp(parsed, [op.target] + list(op.created))
        seq[i] = parsed
        return
    raise ApplyError("malformed-op", f"unhandled edit kind {kind!r}")  # pragma: no cover

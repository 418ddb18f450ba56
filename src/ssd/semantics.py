"""Name resolution, simple type checking, and the build gate.

Buildable means: every reference resolves, declarations are unique, and the
usual assignment/condition/call typing rules hold. Only buildable states are
eligible for propagation; everything here is a pure function of the tree.

Resolution order for identifiers is locals, then parameters, then fields of
the enclosing class; calls resolve to methods of the enclosing class; type
names resolve to builtins or declared classes. No overloading exists, so a
reference never resolves to two declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import minilang as ml
from .minilang import Span

BUILDABLE = "buildable"
UNBUILDABLE = "unbuildable"


@dataclass(frozen=True)
class BuildError:
    span: Span
    code: str
    message: str

    def sort_key(self) -> tuple[int, str]:
        return (self.span.start, self.code)

    def to_record(self) -> dict:
        """The error as it appears in build_status events and replies."""
        return {
            "code": self.code,
            "message": self.message,
            "line": self.span.line,
            "col": self.span.col,
        }


@dataclass
class RefSite:
    """One reference site: the AST node and attribute holding the name, the
    declaration it resolves to, and the innermost element containing it."""

    node: object
    attr: str  # attribute on `node` holding the referenced name
    span: Span
    kind: str  # "ident" | "call" | "type"
    name: str
    target: int  # element id of the declaration
    decl: object  # declaration AST node
    owner: int | None  # element id of the innermost enclosing element


@dataclass
class BindingTable:
    sites: list[RefSite] = field(default_factory=list)
    classes: dict[str, int] = field(default_factory=dict)  # class name -> eid
    # Keyed by node identity: spans are only unique for freshly parsed files,
    # not for trees assembled from edit operations.
    _site_by_node: dict[int, RefSite] = field(default_factory=dict)

    def add(self, site: RefSite) -> None:
        self.sites.append(site)
        self._site_by_node[id(site.node)] = site

    def site_of(self, node) -> RefSite | None:
        return self._site_by_node.get(id(node))


@dataclass
class BuildReport:
    status: str
    errors: list[BuildError]
    version_checked: str = ""

    @property
    def buildable(self) -> bool:
        return self.status == BUILDABLE


@dataclass
class ResolveResult:
    table: BindingTable
    errors: list[BuildError]


@dataclass
class GateResult:
    report: BuildReport
    bindings: BindingTable  # what the gate judged, buildable or not


def _decl_type(decl) -> str:
    if isinstance(decl, (ml.FieldDecl, ml.Param, ml.VarDeclStmt)):
        return decl.type_name
    if isinstance(decl, ml.MethodDecl):
        return decl.ret_type
    raise TypeError(f"not a declaration: {decl!r}")


class _Resolver:
    """Best-effort whole-tree resolution: collects every resolvable reference
    site and every binding error in one pass."""

    def __init__(self, unit: ml.Unit):
        self.unit = unit
        self.table = BindingTable()
        self.errors: list[BuildError] = []
        self.classes: dict[str, ml.ClassDecl] = {}

    def error(self, span: Span, code: str, message: str) -> None:
        self.errors.append(BuildError(span, code, message))

    def run(self) -> ResolveResult:
        for cls in self.unit.classes:
            if cls.name in self.classes:
                self.error(cls.span, "duplicate-declaration", f"duplicate class '{cls.name}'")
            else:
                self.classes[cls.name] = cls
        self.table.classes = {
            name: cls.eid for name, cls in self.classes.items() if cls.eid is not None
        }
        for cls in self.classes.values():
            self._class(cls)
        self.errors.sort(key=BuildError.sort_key)
        return ResolveResult(self.table, self.errors)

    def _class(self, cls: ml.ClassDecl) -> None:
        fields: dict[str, ml.FieldDecl] = {}
        methods: dict[str, ml.MethodDecl] = {}
        for member in cls.members:
            if isinstance(member, ml.FieldDecl):
                if member.name in fields:
                    self.error(
                        member.span,
                        "duplicate-declaration",
                        f"duplicate field '{member.name}' in class '{cls.name}'",
                    )
                else:
                    fields[member.name] = member
            else:
                if member.name in methods:
                    self.error(
                        member.span,
                        "duplicate-declaration",
                        f"duplicate method '{member.name}' in class '{cls.name}'",
                    )
                else:
                    methods[member.name] = member
        for member in cls.members:
            if isinstance(member, ml.FieldDecl):
                self._type_ref(member, "type_name", member.span, owner=member.eid)
                if member.init is not None:
                    self._expr(member.init, fields, methods, [], owner=member.eid)
            else:
                self._method(member, fields, methods)

    def _method(self, method: ml.MethodDecl, fields, methods) -> None:
        if method.ret_type != "void":
            self._type_ref(method, "ret_type", method.span, owner=method.eid)
        params: dict[str, ml.Param] = {}
        for param in method.params:
            self._type_ref(param, "type_name", param.span, owner=param.eid)
            if param.name in params:
                self.error(
                    param.span,
                    "duplicate-declaration",
                    f"duplicate parameter '{param.name}' in method '{method.name}'",
                )
            else:
                params[param.name] = param
        scope: list[dict[str, ml.VarDeclStmt]] = [{}]
        self._body(method.body, fields, methods, params, scope)

    def _body(self, body, fields, methods, params, scope) -> None:
        scope.append({})
        for stmt in body:
            self._stmt(stmt, fields, methods, params, scope)
        scope.pop()

    def _lookup_var(self, name: str, fields, params, scope):
        for block in reversed(scope):
            if name in block:
                return block[name]
        if name in params:
            return params[name]
        if name in fields:
            return fields[name]
        return None

    def _stmt(self, stmt, fields, methods, params, scope) -> None:
        locals_env = [params] + scope
        if isinstance(stmt, ml.VarDeclStmt):
            self._type_ref(stmt, "type_name", stmt.span, owner=stmt.eid)
            if stmt.init is not None:
                self._expr(stmt.init, fields, methods, locals_env, owner=stmt.eid)
            already = any(stmt.name in block for block in scope) or stmt.name in params
            if already:
                self.error(
                    stmt.span,
                    "duplicate-declaration",
                    f"'{stmt.name}' is already declared in this scope",
                )
            else:
                scope[-1][stmt.name] = stmt
        elif isinstance(stmt, ml.AssignStmt):
            self._ident_ref(stmt.target, fields, params, scope, owner=stmt.eid)
            self._expr(stmt.value, fields, methods, locals_env, owner=stmt.eid)
        elif isinstance(stmt, ml.ReturnStmt):
            if stmt.value is not None:
                self._expr(stmt.value, fields, methods, locals_env, owner=stmt.eid)
        elif isinstance(stmt, ml.ExprStmt):
            self._expr(stmt.expr, fields, methods, locals_env, owner=stmt.eid)
        elif isinstance(stmt, ml.IfStmt):
            self._expr(stmt.cond, fields, methods, locals_env, owner=stmt.eid)
            self._body(stmt.then_body, fields, methods, params, scope)
            if stmt.else_body is not None:
                self._body(stmt.else_body, fields, methods, params, scope)
        elif isinstance(stmt, ml.WhileStmt):
            self._expr(stmt.cond, fields, methods, locals_env, owner=stmt.eid)
            self._body(stmt.body, fields, methods, params, scope)

    def _expr(self, expr, fields, methods, locals_env, owner) -> None:
        if isinstance(expr, ml.NameRef):
            params = locals_env[0] if locals_env else {}
            scope = locals_env[1:] if locals_env else []
            self._ident_ref(expr, fields, params, scope, owner)
        elif isinstance(expr, ml.Binary):
            self._expr(expr.left, fields, methods, locals_env, owner)
            self._expr(expr.right, fields, methods, locals_env, owner)
        elif isinstance(expr, ml.Call):
            decl = methods.get(expr.name)
            if decl is None:
                self.error(
                    expr.span, "unresolved-call", f"no method '{expr.name}' in this class"
                )
            elif decl.eid is not None:
                self.table.add(
                    RefSite(expr, "name", expr.span, "call", expr.name, decl.eid, decl, owner)
                )
            for arg in expr.args:
                self._expr(arg, fields, methods, locals_env, owner)

    def _ident_ref(self, ref: ml.NameRef, fields, params, scope, owner) -> None:
        decl = self._lookup_var(ref.name, fields, params, scope)
        if decl is None:
            self.error(
                ref.span, "unresolved-identifier", f"'{ref.name}' is not declared here"
            )
        elif decl.eid is not None:
            self.table.add(
                RefSite(ref, "name", ref.span, "ident", ref.name, decl.eid, decl, owner)
            )

    def _type_ref(self, node, attr: str, span: Span, owner) -> None:
        name = getattr(node, attr)
        if name in ml.BUILTIN_TYPES:
            return
        decl = self.classes.get(name)
        if decl is None:
            self.error(span, "unknown-type", f"unknown type '{name}'")
        elif decl.eid is not None:
            self.table.add(RefSite(node, attr, span, "type", name, decl.eid, decl, owner))


def resolve(unit: ml.Unit) -> ResolveResult:
    """Best-effort binding of the whole tree: partial table plus all errors."""
    return _Resolver(unit).run()


# ---------------------------------------------------------------------------
# Type checking


class _Checker:
    def __init__(self, unit: ml.Unit, table: BindingTable):
        self.unit = unit
        self.table = table
        self.errors: list[BuildError] = []

    def error(self, span: Span, code: str, message: str) -> None:
        self.errors.append(BuildError(span, code, message))

    def run(self) -> list[BuildError]:
        for cls in self.unit.classes:
            for member in cls.members:
                if isinstance(member, ml.FieldDecl):
                    if member.init is not None:
                        self._check_value(member.init, member.type_name, member.span)
                else:
                    self._method(member)
        self.errors.sort(key=BuildError.sort_key)
        return self.errors

    def _site_decl(self, expr):
        site = self.table.site_of(expr)
        return None if site is None else site.decl

    def _method(self, method: ml.MethodDecl) -> None:
        for stmt in method.body:
            self._stmt(stmt, method)

    def _stmt(self, stmt, method: ml.MethodDecl) -> None:
        if isinstance(stmt, ml.VarDeclStmt):
            if stmt.init is not None and self._known_type(stmt.type_name):
                self._check_value(stmt.init, stmt.type_name, stmt.span)
            elif stmt.init is not None:
                self._type(stmt.init)
        elif isinstance(stmt, ml.AssignStmt):
            decl = self._site_decl(stmt.target)
            if decl is not None and self._known_type(_decl_type(decl)):
                self._check_value(stmt.value, _decl_type(decl), stmt.span)
            else:
                self._type(stmt.value)
        elif isinstance(stmt, ml.ReturnStmt):
            if stmt.value is None:
                if method.ret_type != "void":
                    self.error(
                        stmt.span,
                        "type-mismatch",
                        f"method '{method.name}' must return {method.ret_type}",
                    )
            else:
                if method.ret_type == "void":
                    self.error(
                        stmt.span,
                        "type-mismatch",
                        f"void method '{method.name}' cannot return a value",
                    )
                    self._type(stmt.value)
                elif self._known_type(method.ret_type):
                    self._check_value(stmt.value, method.ret_type, stmt.span)
        elif isinstance(stmt, ml.ExprStmt):
            self._type(stmt.expr)  # void calls are fine in statement position
        elif isinstance(stmt, ml.IfStmt):
            self._condition(stmt.cond)
            for child in stmt.then_body:
                self._stmt(child, method)
            for child in stmt.else_body or []:
                self._stmt(child, method)
        elif isinstance(stmt, ml.WhileStmt):
            self._condition(stmt.cond)
            for child in stmt.body:
                self._stmt(child, method)

    def _known_type(self, name: str) -> bool:
        return name in ml.BUILTIN_TYPES or name in self.table.classes

    def _condition(self, cond) -> None:
        actual = self._type(cond)
        if actual is not None and actual != "bool":
            self.error(
                cond.span, "bad-condition-type", f"condition must be bool, got {actual}"
            )

    def _check_value(self, expr, expected: str, at: Span) -> None:
        actual = self._type(expr)
        if actual is None:
            return
        if actual == "void":
            self.error(expr.span, "type-mismatch", "void value used as expression")
        elif actual != expected:
            self.error(
                expr.span, "type-mismatch", f"expected {expected}, got {actual}"
            )

    def _operand(self, expr, expected: str, op: str) -> None:
        actual = self._type(expr)
        if actual is not None and actual != expected:
            self.error(
                expr.span,
                "type-mismatch",
                f"operator '{op}' needs {expected} operands, got {actual}",
            )

    def _type(self, expr) -> str | None:
        """Expression type, or None when unknowable (a binding error was
        already reported for some part of it)."""
        if isinstance(expr, ml.IntLit):
            return "int"
        if isinstance(expr, ml.BoolLit):
            return "bool"
        if isinstance(expr, ml.StrLit):
            return "String"
        if isinstance(expr, ml.NameRef):
            decl = self._site_decl(expr)
            if decl is None:
                return None
            declared = _decl_type(decl)
            return declared if self._known_type(declared) else None
        if isinstance(expr, ml.Binary):
            if expr.op in ("+", "-", "*", "/"):
                self._operand(expr.left, "int", expr.op)
                self._operand(expr.right, "int", expr.op)
                return "int"
            if expr.op == "<":
                self._operand(expr.left, "int", expr.op)
                self._operand(expr.right, "int", expr.op)
                return "bool"
            if expr.op in ("&&", "||"):
                self._operand(expr.left, "bool", expr.op)
                self._operand(expr.right, "bool", expr.op)
                return "bool"
            if expr.op == "==":
                left = self._type(expr.left)
                right = self._type(expr.right)
                if left is not None and right is not None and left != right:
                    self.error(
                        expr.span,
                        "type-mismatch",
                        f"cannot compare {left} with {right}",
                    )
                return "bool"
            raise ValueError(f"unknown operator {expr.op!r}")
        if isinstance(expr, ml.Call):
            decl = self._site_decl(expr)
            for arg in expr.args:
                self._type(arg)
            if decl is None:
                return None
            assert isinstance(decl, ml.MethodDecl)
            if len(expr.args) != len(decl.params):
                self.error(
                    expr.span,
                    "arity-mismatch",
                    f"call to '{decl.name}' expects {len(decl.params)} "
                    f"argument(s), got {len(expr.args)}",
                )
            else:
                for arg, param in zip(expr.args, decl.params):
                    if self._known_type(param.type_name):
                        actual = self._type(arg)
                        if actual is not None and actual != param.type_name:
                            self.error(
                                arg.span,
                                "type-mismatch",
                                f"argument '{param.name}' of '{decl.name}' "
                                f"expects {param.type_name}, got {actual}",
                            )
            return decl.ret_type
        raise TypeError(f"not an expression node: {expr!r}")


def build_gate(unit: ml.Unit, version_checked: str = "") -> GateResult:
    """The propagation predicate: bind then type-check, aggregating errors
    from both stages. The binding table is returned whatever the verdict.
    Deterministic: identical trees yield identical reports, errors ordered by
    (start offset, code)."""
    resolved = resolve(unit)
    errors = list(resolved.errors)
    errors.extend(_Checker(unit, resolved.table).run())
    errors.sort(key=BuildError.sort_key)
    status = UNBUILDABLE if errors else BUILDABLE
    return GateResult(BuildReport(status, errors, version_checked), resolved.table)

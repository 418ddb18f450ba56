"""Name resolution, simple type checking, and the build gate.

Buildable means: every reference resolves, declarations are unique, and the
usual assignment/condition/call typing rules hold. Only buildable states are
eligible for propagation; everything here is a pure function of the tree.

Resolution order for identifiers is locals, then parameters, then fields of
the enclosing class; calls resolve to methods of the enclosing class; type
names resolve to builtins or declared classes. No overloading exists, so a
reference never resolves to two declarations. A class name binds to its
first declaration.

Binding and type checking are one walk: each expression is bound and typed
in the same visit, so every class, a duplicate one included, is bound and
checked, and each error is reported once.
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
    element id of the declaration it resolves to, and the innermost element
    containing it."""

    node: object
    attr: str  # attribute on `node` holding the referenced name
    kind: str  # "ident" | "call" | "type"
    name: str
    target: int  # element id of the declaration
    owner: int | None  # element id of the innermost enclosing element


@dataclass
class BindingTable:
    sites: list[RefSite] = field(default_factory=list)


@dataclass
class BuildReport:
    status: str
    errors: list[BuildError]

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


class _Walker:
    """One best-effort pass over the tree: binds every resolvable reference
    site and type-checks each expression as it binds it, collecting the
    errors of both."""

    def __init__(self, unit: ml.Unit):
        self.unit = unit
        self.table = BindingTable()
        self.errors: list[BuildError] = []
        self.classes: dict[str, ml.ClassDecl] = {}
        # scope of the class, method and blocks being walked
        self.fields: dict[str, ml.FieldDecl] = {}
        self.methods: dict[str, ml.MethodDecl] = {}
        self.method: ml.MethodDecl | None = None
        self.params: dict[str, ml.Param] = {}
        self.scope: list[dict[str, ml.VarDeclStmt]] = []

    def error(self, span: Span, code: str, message: str) -> None:
        self.errors.append(BuildError(span, code, message))

    def run(self) -> ResolveResult:
        for cls in self.unit.classes:
            if cls.name in self.classes:
                self.error(cls.span, "duplicate-declaration", f"duplicate class '{cls.name}'")
            else:
                self.classes[cls.name] = cls
        for cls in self.unit.classes:
            self._class(cls)
        self.errors.sort(key=BuildError.sort_key)
        return ResolveResult(self.table, self.errors)

    def _class(self, cls: ml.ClassDecl) -> None:
        self.fields, self.methods = {}, {}
        for member in cls.members:
            declared = self.fields if isinstance(member, ml.FieldDecl) else self.methods
            if member.name in declared:
                kind = "field" if isinstance(member, ml.FieldDecl) else "method"
                self.error(
                    member.span,
                    "duplicate-declaration",
                    f"duplicate {kind} '{member.name}' in class '{cls.name}'",
                )
            else:
                declared[member.name] = member
        for member in cls.members:
            if isinstance(member, ml.FieldDecl):
                self.params, self.scope = {}, []
                self._type_ref(member, "type_name")
                if member.init is not None:
                    self._check_value(member.init, self._known(member.type_name), owner=member.eid)
            else:
                self._method(member)

    def _method(self, method: ml.MethodDecl) -> None:
        self.method, self.params, self.scope = method, {}, []
        if method.ret_type != "void":
            self._type_ref(method, "ret_type")
        for param in method.params:
            self._type_ref(param, "type_name")
            if param.name in self.params:
                self.error(
                    param.span,
                    "duplicate-declaration",
                    f"duplicate parameter '{param.name}' in method '{method.name}'",
                )
            else:
                self.params[param.name] = param
        self._body(method.body)

    def _body(self, body: list[ml.Stmt]) -> None:
        self.scope.append({})
        for stmt in body:
            self._stmt(stmt)
        self.scope.pop()

    def _stmt(self, stmt) -> None:
        owner = stmt.eid
        if isinstance(stmt, ml.VarDeclStmt):
            self._type_ref(stmt, "type_name")
            if stmt.init is not None:
                self._check_value(stmt.init, self._known(stmt.type_name), owner)
            if any(stmt.name in block for block in self.scope) or stmt.name in self.params:
                self.error(
                    stmt.span,
                    "duplicate-declaration",
                    f"'{stmt.name}' is already declared in this scope",
                )
            else:
                self.scope[-1][stmt.name] = stmt
        elif isinstance(stmt, ml.AssignStmt):
            decl = self._bind_var(stmt.target, owner)
            expected = None if decl is None else self._known(decl.type_name)
            self._check_value(stmt.value, expected, owner)
        elif isinstance(stmt, ml.ReturnStmt):
            method = self.method
            if stmt.value is None:
                if method.ret_type != "void":
                    self.error(
                        stmt.span,
                        "type-mismatch",
                        f"method '{method.name}' must return {method.ret_type}",
                    )
            elif method.ret_type == "void":
                self.error(
                    stmt.span,
                    "type-mismatch",
                    f"void method '{method.name}' cannot return a value",
                )
                self._type(stmt.value, owner)
            else:
                self._check_value(stmt.value, self._known(method.ret_type), owner)
        elif isinstance(stmt, ml.ExprStmt):
            self._type(stmt.expr, owner)  # void calls are fine in statement position
        elif isinstance(stmt, ml.IfStmt):
            self._condition(stmt.cond, owner)
            self._body(stmt.then_body)
            if stmt.else_body is not None:
                self._body(stmt.else_body)
        elif isinstance(stmt, ml.WhileStmt):
            self._condition(stmt.cond, owner)
            self._body(stmt.body)

    def _known(self, name: str) -> str | None:
        """`name` if it names a type, None when unknown."""
        return name if name in ml.BUILTIN_TYPES or name in self.classes else None

    def _bind(self, node, attr: str, kind: str, decl, owner) -> None:
        if decl.eid is not None:
            name = getattr(node, attr)
            self.table.sites.append(RefSite(node, attr, kind, name, decl.eid, owner))

    def _bind_var(self, ref: ml.NameRef, owner):
        """The declaration `ref` names (locals, then parameters, then
        fields), or None after reporting it unresolved."""
        for block in reversed(self.scope):
            if ref.name in block:
                decl = block[ref.name]
                break
        else:
            decl = self.params.get(ref.name) or self.fields.get(ref.name)
        if decl is None:
            self.error(ref.span, "unresolved-identifier", f"'{ref.name}' is not declared here")
        else:
            self._bind(ref, "name", "ident", decl, owner)
        return decl

    def _type_ref(self, decl_node, attr: str) -> None:
        """Bind the type name a declaration holds in `attr`; the declaration
        is its own owner."""
        name = getattr(decl_node, attr)
        if name in ml.BUILTIN_TYPES:
            return
        decl = self.classes.get(name)
        if decl is None:
            self.error(decl_node.span, "unknown-type", f"unknown type '{name}'")
        else:
            self._bind(decl_node, attr, "type", decl, decl_node.eid)

    def _condition(self, cond, owner) -> None:
        actual = self._type(cond, owner)
        if actual is not None and actual != "bool":
            self.error(
                cond.span, "bad-condition-type", f"condition must be bool, got {actual}"
            )

    def _check_value(self, expr, expected: str | None, owner) -> None:
        """Type `expr` and hold it to `expected`, unless that is None."""
        actual = self._type(expr, owner)
        if actual is None or expected is None:
            return
        if actual == "void":
            self.error(expr.span, "type-mismatch", "void value used as expression")
        elif actual != expected:
            self.error(
                expr.span, "type-mismatch", f"expected {expected}, got {actual}"
            )

    def _operand(self, expr, expected: str, op: str, owner) -> None:
        actual = self._type(expr, owner)
        if actual is not None and actual != expected:
            self.error(
                expr.span,
                "type-mismatch",
                f"operator '{op}' needs {expected} operands, got {actual}",
            )

    def _type(self, expr, owner) -> str | None:
        """Bind the references in `expr` and return its type, or None when
        unknowable (an error was already reported for some part of it)."""
        if isinstance(expr, ml.IntLit):
            return "int"
        if isinstance(expr, ml.BoolLit):
            return "bool"
        if isinstance(expr, ml.StrLit):
            return "String"
        if isinstance(expr, ml.NameRef):
            decl = self._bind_var(expr, owner)
            return None if decl is None else self._known(decl.type_name)
        if isinstance(expr, ml.Binary):
            if expr.op in ("+", "-", "*", "/"):
                self._operand(expr.left, "int", expr.op, owner)
                self._operand(expr.right, "int", expr.op, owner)
                return "int"
            if expr.op == "<":
                self._operand(expr.left, "int", expr.op, owner)
                self._operand(expr.right, "int", expr.op, owner)
                return "bool"
            if expr.op in ("&&", "||"):
                self._operand(expr.left, "bool", expr.op, owner)
                self._operand(expr.right, "bool", expr.op, owner)
                return "bool"
            if expr.op == "==":
                left = self._type(expr.left, owner)
                right = self._type(expr.right, owner)
                if left is not None and right is not None and left != right:
                    self.error(
                        expr.span,
                        "type-mismatch",
                        f"cannot compare {left} with {right}",
                    )
                return "bool"
            raise ValueError(f"unknown operator {expr.op!r}")
        if isinstance(expr, ml.Call):
            decl = self.methods.get(expr.name)
            if decl is None:
                self.error(
                    expr.span, "unresolved-call", f"no method '{expr.name}' in this class"
                )
            else:
                self._bind(expr, "name", "call", decl, owner)
            actuals = [self._type(arg, owner) for arg in expr.args]
            if decl is None:
                return None
            if len(expr.args) != len(decl.params):
                self.error(
                    expr.span,
                    "arity-mismatch",
                    f"call to '{decl.name}' expects {len(decl.params)} "
                    f"argument(s), got {len(expr.args)}",
                )
            else:
                for arg, actual, param in zip(expr.args, actuals, decl.params):
                    expected = self._known(param.type_name)
                    if actual is not None and expected is not None and actual != expected:
                        self.error(
                            arg.span,
                            "type-mismatch",
                            f"argument '{param.name}' of '{decl.name}' "
                            f"expects {expected}, got {actual}",
                        )
            return decl.ret_type
        raise TypeError(f"not an expression node: {expr!r}")


def resolve(unit: ml.Unit) -> ResolveResult:
    """Bind and type-check the whole tree, best effort: the partial binding
    table plus every error, ordered by (start offset, code)."""
    return _Walker(unit).run()


def build_gate(unit: ml.Unit) -> GateResult:
    """The propagation predicate: buildable iff `resolve` finds no error. The
    binding table is returned whatever the verdict. Deterministic: identical
    trees yield identical reports."""
    resolved = resolve(unit)
    status = UNBUILDABLE if resolved.errors else BUILDABLE
    return GateResult(BuildReport(status, resolved.errors), resolved.table)

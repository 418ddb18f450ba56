"""MiniJ: a deliberately small Java-like language.

Lexer, recursive-descent parser, AST node types, and a canonical
pretty-printer. One compilation unit holds classes; classes hold fields and
methods; method bodies are statements over int/bool/String expressions and
same-class calls. There is no inheritance, no packages, and no dotted field
access. The grammar is documented in docs/grammar.md; source files use the
``.mj`` extension, UTF-8, LF line endings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

KEYWORDS = frozenset(
    ["class", "void", "int", "bool", "String", "if", "else", "while", "return", "true", "false"]
)
BUILTIN_TYPES = frozenset(["int", "bool", "String"])

MAX_NESTING_DEPTH = 200


@dataclass(frozen=True)
class Span:
    """Half-open byte range [start, end) plus the 1-based line/col of start."""

    start: int
    end: int
    line: int
    col: int


NO_SPAN = Span(0, 0, 1, 1)


@dataclass(frozen=True)
class SourceText:
    text: str
    origin: str = "<inline>"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: Span
    code: str
    message: str


class ParseFailure(Exception):
    """Internal fail-fast signal; callers receive diagnostics, not exceptions."""

    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# AST
#
# `span` and `eid` never participate in equality: two trees are equal iff they
# are structurally identical. `eid` is the stable element identity stamped on
# lockable nodes by the kernel (see depcore).


@dataclass
class IntLit:
    value: int
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass
class BoolLit:
    value: bool
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass
class StrLit:
    value: str
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass
class NameRef:
    name: str
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass
class Binary:
    op: str
    left: Expr
    right: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass
class Call:
    name: str
    args: list[Expr]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


Expr = Union[IntLit, BoolLit, StrLit, NameRef, Binary, Call]


@dataclass
class VarDeclStmt:
    type_name: str
    name: str
    init: Expr | None
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class AssignStmt:
    target: NameRef
    value: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class ReturnStmt:
    value: Expr | None
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class ExprStmt:
    expr: Expr
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class IfStmt:
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] | None
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class WhileStmt:
    cond: Expr
    body: list[Stmt]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


Stmt = Union[VarDeclStmt, AssignStmt, ReturnStmt, ExprStmt, IfStmt, WhileStmt]


@dataclass
class Param:
    type_name: str
    name: str
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class FieldDecl:
    type_name: str
    name: str
    init: Expr | None
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class MethodDecl:
    ret_type: str
    name: str
    params: list[Param]
    body: list[Stmt]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


Member = Union[FieldDecl, MethodDecl]


@dataclass
class ClassDecl:
    name: str
    members: list[Member]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)
    eid: int | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass
class Unit:
    classes: list[ClassDecl]
    span: Span = field(default=NO_SPAN, compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "kw" | "int" | "string" | "op" | "eof"
    value: str
    span: Span


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<op>&&|\|\||==|[+\-*/<=;,(){}])
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _unescape(raw: str, span: Span) -> str:
    out = []
    i = 1  # skip opening quote
    stop = len(raw) - 1
    while i < stop:
        ch = raw[i]
        if ch == "\\":
            esc = raw[i + 1]
            if esc not in _ESCAPES:
                raise ParseFailure(
                    ParseDiagnostic(span, "unknown-token", f"unknown escape '\\{esc}' in string")
                )
            out.append(_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _escape(value: str) -> str:
    out = ['"']
    for ch in value:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def tokenize(text: str) -> list[Token]:
    """Lex `text`, raising ParseFailure with an unknown-token diagnostic on
    the first character no rule covers."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = Span(pos, pos + 1, line, pos - line_start + 1)
            raise ParseFailure(
                ParseDiagnostic(span, "unknown-token", f"unknown token {text[pos]!r}")
            )
        kind = m.lastgroup
        lexeme = m.group()
        span = Span(pos, m.end(), line, pos - line_start + 1)
        if kind == "ws":
            nl = lexeme.count("\n")
            if nl:
                line += nl
                line_start = pos + lexeme.rindex("\n") + 1
        elif kind == "ident":
            tokens.append(Token("kw" if lexeme in KEYWORDS else "ident", lexeme, span))
        elif kind == "string":
            tokens.append(Token("string", _unescape(lexeme, span), span))
        else:
            tokens.append(Token(kind, lexeme, span))
        pos = m.end()
    tokens.append(Token("eof", "", Span(n, n, line, n - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

# binding strength, all operators left-associative
_PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "<": 4, "+": 5, "-": 5, "*": 6, "/": 6}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def fail(self, message: str) -> ParseFailure:
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.value)
        return ParseFailure(
            ParseDiagnostic(tok.span, "unexpected-token", f"{message}, found {found}")
        )

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> Token:
        if not self.at(kind, value):
            raise self.fail(f"expected {what or value or kind}")
        return self.advance()

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseFailure(
                ParseDiagnostic(self.peek().span, "nesting-too-deep", "input nests too deeply")
            )

    def _leave(self) -> None:
        self.depth -= 1

    def span_from(self, start: Span) -> Span:
        prev = self.tokens[max(self.pos - 1, 0)]
        return Span(start.start, max(prev.span.end, start.start), start.line, start.col)

    # -- declarations

    def unit(self) -> Unit:
        start = self.peek().span
        classes = []
        while not self.at("eof"):
            classes.append(self.class_decl())
        return Unit(classes, span=self.span_from(start))

    def class_decl(self) -> ClassDecl:
        start = self.expect("kw", "class").span
        name = self.expect("ident", what="class name").value
        self.expect("op", "{")
        members: list[Member] = []
        while not self.at("op", "}"):
            members.append(self.member())
        self.expect("op", "}")
        return ClassDecl(name, members, span=self.span_from(start))

    def type_name(self, allow_void: bool = False) -> str:
        tok = self.peek()
        if tok.kind == "kw" and (tok.value in BUILTIN_TYPES or (allow_void and tok.value == "void")):
            return self.advance().value
        if tok.kind == "ident":
            return self.advance().value
        raise self.fail("expected type name")

    def member(self) -> Member:
        start = self.peek().span
        type_name = self.type_name(allow_void=True)
        name = self.expect("ident", what="member name").value
        if self.at("op", "("):
            return self.method_rest(type_name, name, start)
        if type_name == "void":
            raise self.fail("expected '(' after void member name")
        init = None
        if self.at("op", "="):
            self.advance()
            init = self.expression()
        self.expect("op", ";")
        return FieldDecl(type_name, name, init, span=self.span_from(start))

    def method_rest(self, ret_type: str, name: str, start: Span) -> MethodDecl:
        self.expect("op", "(")
        params: list[Param] = []
        if not self.at("op", ")"):
            while True:
                pstart = self.peek().span
                ptype = self.type_name()
                pname = self.expect("ident", what="parameter name").value
                params.append(Param(ptype, pname, span=self.span_from(pstart)))
                if self.at("op", ","):
                    self.advance()
                    continue
                break
        self.expect("op", ")")
        body = self.block()
        return MethodDecl(ret_type, name, params, body, span=self.span_from(start))

    # -- statements

    def block(self) -> list[Stmt]:
        self._enter()
        self.expect("op", "{")
        stmts = []
        while not self.at("op", "}"):
            stmts.append(self.statement())
        self.expect("op", "}")
        self._leave()
        return stmts

    def statement(self) -> Stmt:
        start = self.peek().span
        tok = self.peek()
        if tok.kind == "kw" and tok.value == "return":
            self.advance()
            value = None
            if not self.at("op", ";"):
                value = self.expression()
            self.expect("op", ";")
            return ReturnStmt(value, span=self.span_from(start))
        if tok.kind == "kw" and tok.value == "if":
            self.advance()
            self.expect("op", "(")
            cond = self.expression()
            self.expect("op", ")")
            then_body = self.block()
            else_body = None
            if self.at("kw", "else"):
                self.advance()
                else_body = self.block()
            return IfStmt(cond, then_body, else_body, span=self.span_from(start))
        if tok.kind == "kw" and tok.value == "while":
            self.advance()
            self.expect("op", "(")
            cond = self.expression()
            self.expect("op", ")")
            body = self.block()
            return WhileStmt(cond, body, span=self.span_from(start))
        # local declaration: TYPE IDENT [= expr] ;
        if (tok.kind == "kw" and tok.value in BUILTIN_TYPES) or (
            tok.kind == "ident" and self.peek(1).kind == "ident"
        ):
            type_name = self.type_name()
            name = self.expect("ident", what="variable name").value
            init = None
            if self.at("op", "="):
                self.advance()
                init = self.expression()
            self.expect("op", ";")
            return VarDeclStmt(type_name, name, init, span=self.span_from(start))
        # assignment: IDENT = expr ;
        if tok.kind == "ident" and self.peek(1).kind == "op" and self.peek(1).value == "=":
            target = NameRef(self.advance().value, span=tok.span)
            self.advance()
            value = self.expression()
            self.expect("op", ";")
            return AssignStmt(target, value, span=self.span_from(start))
        expr = self.expression()
        self.expect("op", ";")
        return ExprStmt(expr, span=self.span_from(start))

    # -- expressions

    def expression(self, min_prec: int = 1) -> Expr:
        self._enter()
        start = self.peek().span
        left = self.primary()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.value not in _PRECEDENCE:
                break
            prec = _PRECEDENCE[tok.value]
            if prec < min_prec:
                break
            self.advance()
            right = self.expression(prec + 1)
            left = Binary(tok.value, left, right, span=self.span_from(start))
        self._leave()
        return left

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.value), span=tok.span)
        if tok.kind == "string":
            self.advance()
            return StrLit(tok.value, span=tok.span)
        if tok.kind == "kw" and tok.value in ("true", "false"):
            self.advance()
            return BoolLit(tok.value == "true", span=tok.span)
        if tok.kind == "ident":
            if self.peek(1).kind == "op" and self.peek(1).value == "(":
                self.advance()
                self.advance()
                args = []
                if not self.at("op", ")"):
                    while True:
                        args.append(self.expression())
                        if self.at("op", ","):
                            self.advance()
                            continue
                        break
                close = self.expect("op", ")")
                return Call(
                    tok.value,
                    args,
                    span=Span(tok.span.start, close.span.end, tok.span.line, tok.span.col),
                )
            self.advance()
            return NameRef(tok.value, span=tok.span)
        if tok.kind == "op" and tok.value == "(":
            self.advance()
            expr = self.expression()
            self.expect("op", ")")
            return expr
        raise self.fail("expected expression")


def parse_unit(src: SourceText) -> tuple[Unit | None, list[ParseDiagnostic]]:
    """Parse a whole compilation unit. Returns (ast, []) on success or
    (None, diagnostics) on the first lexical/syntactic error."""
    try:
        parser = _Parser(tokenize(src.text))
        return parser.unit(), []
    except ParseFailure as fail:
        return None, [fail.diagnostic]


def parse_statement(src: SourceText) -> tuple[Stmt | None, list[ParseDiagnostic]]:
    """Parse exactly one statement; trailing input is an error."""
    try:
        parser = _Parser(tokenize(src.text))
        stmt = parser.statement()
        if not parser.at("eof"):
            tok = parser.peek()
            return None, [
                ParseDiagnostic(
                    tok.span, "trailing-input", f"trailing input after statement: {tok.value!r}"
                )
            ]
        return stmt, []
    except ParseFailure as fail:
        return None, [fail.diagnostic]


def parse_expression(src: SourceText) -> tuple[Expr | None, list[ParseDiagnostic]]:
    """Parse exactly one expression (used for field initializer payloads)."""
    try:
        parser = _Parser(tokenize(src.text))
        expr = parser.expression()
        if not parser.at("eof"):
            tok = parser.peek()
            return None, [
                ParseDiagnostic(
                    tok.span, "trailing-input", f"trailing input after expression: {tok.value!r}"
                )
            ]
        return expr, []
    except ParseFailure as fail:
        return None, [fail.diagnostic]


# ---------------------------------------------------------------------------
# Canonical printer
#
# 4-space indents, one statement per line, fields first-come order, blank line
# between a method and any neighbouring member, blank line between classes.
# parse(print(ast)) is structurally equal to ast for every well-formed tree.

_INDENT = "    "


def print_expr(expr: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, StrLit):
        return _escape(expr.value)
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, Call):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Binary):
        prec = _PRECEDENCE[expr.op]
        text = (
            f"{print_expr(expr.left, prec, False)} {expr.op} {print_expr(expr.right, prec, True)}"
        )
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {expr!r}")


def _stmt_lines(stmt: Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(stmt, VarDeclStmt):
        if stmt.init is None:
            return [f"{pad}{stmt.type_name} {stmt.name};"]
        return [f"{pad}{stmt.type_name} {stmt.name} = {print_expr(stmt.init)};"]
    if isinstance(stmt, AssignStmt):
        return [f"{pad}{stmt.target.name} = {print_expr(stmt.value)};"]
    if isinstance(stmt, ReturnStmt):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {print_expr(stmt.value)};"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{print_expr(stmt.expr)};"]
    if isinstance(stmt, IfStmt):
        lines = [f"{pad}if ({print_expr(stmt.cond)}) {{"]
        for child in stmt.then_body:
            lines.extend(_stmt_lines(child, depth + 1))
        if stmt.else_body is None:
            lines.append(f"{pad}}}")
        else:
            lines.append(f"{pad}}} else {{")
            for child in stmt.else_body:
                lines.extend(_stmt_lines(child, depth + 1))
            lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, WhileStmt):
        lines = [f"{pad}while ({print_expr(stmt.cond)}) {{"]
        for child in stmt.body:
            lines.extend(_stmt_lines(child, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"not a statement node: {stmt!r}")


def print_statement(stmt: Stmt, depth: int = 0) -> str:
    return "\n".join(_stmt_lines(stmt, depth))


def _member_lines(member: Member) -> list[str]:
    if isinstance(member, FieldDecl):
        if member.init is None:
            return [f"{_INDENT}{member.type_name} {member.name};"]
        return [f"{_INDENT}{member.type_name} {member.name} = {print_expr(member.init)};"]
    params = ", ".join(f"{p.type_name} {p.name}" for p in member.params)
    lines = [f"{_INDENT}{member.ret_type} {member.name}({params}) {{"]
    for stmt in member.body:
        lines.extend(_stmt_lines(stmt, 2))
    lines.append(f"{_INDENT}}}")
    return lines


def print_unit(ast: Unit) -> str:
    """Render the canonical source text; empty unit renders as empty string."""
    chunks = []
    for cls in ast.classes:
        lines = [f"class {cls.name} {{"]
        prev_was_method = False
        for i, member in enumerate(cls.members):
            is_method = isinstance(member, MethodDecl)
            if i > 0 and (is_method or prev_was_method):
                lines.append("")
            lines.extend(_member_lines(member))
            prev_was_method = is_method
        lines.append("}")
        chunks.append("\n".join(lines))
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"

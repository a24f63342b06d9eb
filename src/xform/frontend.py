"""Parser for the loop language and its transformation pragmas.

The accepted surface:

    program    := decl* stmt*
    decl       := "array" ID "[" INT ("," INT)* "]" ("init" ("zero"|"random"))? ";"
                | "maybe_alias" "(" ID "," ID ")" ";"
                | "param" ID "=" INT ("opaque")? ";"
    stmt       := pragma* (forloop | whileloop) | ifstmt | assign | "{" stmt* "}"
    forloop    := "for" "(" ID "=" expr ";" ID "<" expr ";" ID "+=" INT ")" stmt
    whileloop  := "while" "(" expr ")" stmt
    ifstmt     := "if" "(" expr ")" stmt ("else" stmt)?
    assign     := ID "[" expr ("," expr)* "]" ("="|"+=") expr ";"
    pragma     := "#pragma" "xform" ("loop" "(" ID ("," ID)* ")")? KIND clause*
                  with "fallback" | "force" | "required" modifiers

Expressions are int64 arithmetic (+ - * / % with C truncation), comparisons
producing 0/1, `&&`, the builtins min/max/disjoint, array reads, loop
variables and params.  For-loops must be canonical: strictly `<` bound with a
positive constant `+=` step; anything else is a syntax error, not a legality
verdict.  `//` comments run to end of line.  Names and integer literals are
ASCII: any other letter or digit is an unrecognized character.

Every statement receives an `s<k>` id in source preorder.  A bare
`{ stmt* }` means nothing of its own, as the language has no local
declarations: its statements join the list around it (a body or the
program), and it still takes an id, so that every other statement keeps the
id its position gives it.  Pragma stacks are attached to the loop that
lexically follows them, bottom-most pragma first.
"""

from __future__ import annotations

import re

from .kinds import BY_SURFACE
from .lang import (
    INT64_MAX, INT64_MIN, PRECEDENCE, AliasDecl, ArrayDecl, ArrayRead, Assign, BinOp, Call,
    Directive, Expr, ForLoop, IfStmt, IntLit, ParamDecl, Program, VarRef, WhileLoop,
    array_reads, child_bodies, free_vars, subexprs,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(msg)
        self.msg = msg
        self.line = line
        self.col = col

    def __str__(self):
        if self.line:
            return f"{self.msg} (line {self.line}, col {self.col})"
        return self.msg


MODIFIERS = ("fallback", "force", "required")


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>//[^\n]*)
      | (?P<nl>\n)
      | (?P<pragma>\#pragma\b)
      | (?P<int>\d+)
      | (?P<id>[A-Za-z_]\w*)
      | (?P<op><=|>=|==|!=|\+=|&&|[-+*/%<>=(),;{}\[\]])
    """,
    re.VERBOSE | re.ASCII,  # the grammar's names and digits are ASCII
)

_KEYWORDS = {"for", "while", "if", "else", "array", "param", "maybe_alias"}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    in_pragma = False
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unrecognized character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        tok_text = m.group()
        col = pos - line_start + 1
        pos = m.end()
        if kind == "nl":
            if in_pragma:
                toks.append(Token("EOL", "\n", line, col))
                in_pragma = False
            line += 1
            line_start = pos
            continue
        if kind in ("ws", "comment"):
            continue
        if kind == "pragma":
            in_pragma = True
            toks.append(Token("PRAGMA", tok_text, line, col))
        elif kind == "int":
            toks.append(Token("INT", tok_text, line, col))
        elif kind == "id":
            toks.append(Token("KW" if tok_text in _KEYWORDS else "ID", tok_text, line, col))
        else:
            toks.append(Token(tok_text, tok_text, line, col))
    if in_pragma:
        toks.append(Token("EOL", "\n", line, pos - line_start + 1))
    toks.append(Token("EOF", "", line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.stmt_counter = 0
        self.directive_counter = 0

    # token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            expected = what or f"'{kind}'"
            raise ParseError(f"expected {expected}, found {t.text!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def fresh_sid(self) -> str:
        sid = f"s{self.stmt_counter}"
        self.stmt_counter += 1
        return sid

    def items(self, item) -> list:
        """`item ("," item)*`: the values of the items."""
        vals = [item()]
        while self.accept(","):
            vals.append(item())
        return vals

    # grammar --------------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while True:
            t = self.peek()
            if t.kind == "KW" and t.text in ("array", "param", "maybe_alias"):
                self.parse_decl(prog)
            else:
                break
        prog.body = self.parse_body(top=True)
        self.validate(prog)
        return prog

    def parse_decl(self, prog: Program):
        t = self.next()
        if t.text == "array":
            name = self.expect("ID", "array name").text
            self.expect("[")
            dims = self.items(self.parse_dim)
            self.expect("]")
            init = "zero"
            if self.at("ID", "init"):
                self.next()
                kw = self.expect("ID", "'zero' or 'random'")
                if kw.text not in ("zero", "random"):
                    raise ParseError(f"unknown init mode {kw.text!r}", kw.line, kw.col)
                init = kw.text
            self.expect(";")
            prog.arrays.append(ArrayDecl(name, tuple(dims), init, t.line))
        elif t.text == "param":
            name = self.expect("ID", "param name").text
            self.expect("=")
            value = self.parse_int()
            opaque = self.accept("ID", "opaque") is not None
            self.expect(";")
            prog.params.append(ParamDecl(name, value, opaque, t.line))
        else:  # maybe_alias
            self.expect("(")
            a = self.expect("ID", "array name").text
            self.expect(",")
            b = self.expect("ID", "array name").text
            self.expect(")")
            self.expect(";")
            prog.aliases.append(AliasDecl(a, b, t.line))

    def parse_dim(self) -> int:
        t = self.peek()
        v = self.parse_int("positive integer dimension", signed=False)
        if v <= 0:
            raise ParseError("array dimensions must be positive", t.line, t.col)
        return v

    def parse_stmt(self):
        pragmas: list[Directive] = []
        while self.at("PRAGMA"):
            pragmas.append(self.parse_pragma_line())
        if pragmas and not (self.at("KW", "for") or self.at("KW", "while")):
            self.fail("pragma must be followed by a loop")
        t = self.peek()
        if t.kind == "KW" and t.text == "for":
            loop = self.parse_for()
        elif t.kind == "KW" and t.text == "while":
            loop = self.parse_while()
        elif t.kind == "KW" and t.text == "if":
            return self.parse_if()
        elif t.kind == "ID":
            return self.parse_assign()
        else:
            self.fail(f"expected a statement, found {t.text!r}")
        # directive stacks are bottom-most-first: the pragma nearest the loop
        # is the last one written, so it lands at index 0
        loop.pragmas = list(reversed(pragmas))
        return loop

    def parse_for(self) -> ForLoop:
        kw = self.next()
        sid = self.fresh_sid()
        self.expect("(")
        var = self.expect("ID", "loop variable").text
        self.expect("=")
        lower = self.parse_expr()
        self.expect(";")
        v2 = self.expect("ID", "loop variable")
        if v2.text != var:
            raise ParseError(f"non-canonical for-loop: condition must test '{var}'", v2.line, v2.col)
        if not self.at("<"):
            self.fail("non-canonical for-loop: only '<' bounds are accepted")
        self.next()
        upper = self.parse_expr()
        self.expect(";")
        v3 = self.expect("ID", "loop variable")
        if v3.text != var:
            raise ParseError(f"non-canonical for-loop: increment must update '{var}'", v3.line, v3.col)
        if not self.at("+="):
            self.fail("non-canonical for-loop: increment must be '+= <positive int>'")
        self.next()
        st = self.peek()
        step = self.parse_int("positive integer step", signed=False)
        if step < 1:
            raise ParseError("non-canonical for-loop: step must be positive", st.line, st.col)
        self.expect(")")
        body = self.parse_body()
        return ForLoop(var, lower, upper, step, body, [], sid, kw.line)

    def parse_while(self) -> WhileLoop:
        kw = self.next()
        sid = self.fresh_sid()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_body()
        return WhileLoop(cond, body, [], sid, kw.line)

    def parse_if(self) -> IfStmt:
        kw = self.next()
        sid = self.fresh_sid()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_body()
        else_body = None
        if self.at("KW", "else"):
            self.next()
            else_body = self.parse_body()
        return IfStmt(cond, then_body, else_body, sid, kw.line)

    def parse_body(self, top: bool = False) -> list:
        """A loop or if body, one statement or a braced list; with `top`, the
        program's statements.  A bare block's braces are counted here, not
        parsed by a call, so that they cost no Python frame per level."""
        if not (top or self.accept("{")):
            return [self.parse_stmt()]
        stmts, depth = [], 0 if top else 1  # the braces open in this list
        while depth or top and not self.at("EOF"):
            if self.accept("{"):  # a bare block: its statements join the list
                self.fresh_sid()
                depth += 1
            elif depth and self.accept("}"):
                depth -= 1
            elif self.at("EOF"):
                self.fail("unterminated '{'")
            else:
                stmts.append(self.parse_stmt())
        return stmts

    def parse_assign(self) -> Assign:
        t = self.peek()
        sid = self.fresh_sid()
        name = self.next().text
        self.expect("[", "'[' (assignments target array elements)")
        index = self.items(self.parse_expr)
        self.expect("]")
        if self.at("="):
            op = "="
        elif self.at("+="):
            op = "+="
        else:
            self.fail("expected '=' or '+='")
        self.next()
        value = self.parse_expr()
        self.expect(";")
        return Assign(name, tuple(index), op, value, sid, t.line)

    # expressions: precedence climbing over `lang.PRECEDENCE`, then unary

    def parse_expr(self, min_prec: int = 1) -> Expr:
        e = self.parse_unary()
        while PRECEDENCE.get(self.peek().kind, 0) >= min_prec:
            op = self.next().text
            e = BinOp(op, e, self.parse_expr(PRECEDENCE[op] + 1))  # left-associative
        return e

    def parse_unary(self) -> Expr:
        if self.at("-"):
            if self.toks[self.pos + 1].kind == "INT":
                return IntLit(self.parse_int())
            self.next()
            return BinOp("-", IntLit(0), self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            return IntLit(self.parse_int())
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "ID":
            self.next()
            if t.text in ("min", "max", "disjoint") and self.at("("):
                self.next()
                args = self.items(self.parse_expr)
                self.expect(")")
                if len(args) != 2:
                    raise ParseError(f"{t.text} takes exactly 2 arguments", t.line, t.col)
                return Call(t.text, tuple(args))
            if self.at("["):
                self.next()
                index = self.items(self.parse_expr)
                self.expect("]")
                return ArrayRead(t.text, tuple(index))
            return VarRef(t.text)
        self.fail(f"expected an expression, found {t.text!r}")

    # pragmas ---------------------------------------------------------------

    def parse_pragma_line(self) -> Directive:
        start = self.next()  # PRAGMA token
        ns = self.expect("ID", "'xform'")
        if ns.text != "xform":
            raise ParseError(f"unknown pragma namespace {ns.text!r} (expected 'xform')", ns.line, ns.col)
        targets: tuple[str, ...] = ()
        if self.at("ID", "loop") and self.toks[self.pos + 1].kind == "(":
            self.next()
            self.next()
            targets = tuple(self.items(lambda: self.expect("ID", "loop name").text))
            self.expect(")")
        kt = self.expect("ID", "transformation name")
        kind = BY_SURFACE.get(kt.text)
        if kind is None:
            raise ParseError(f"unknown transformation {kt.text!r}", kt.line, kt.col)
        schema = kind.clauses
        clauses: dict[str, object] = {}
        safety = "default"
        safety_explicit = False
        required = False
        while not self.at("EOL"):
            ct = self.expect("ID", "clause or modifier")
            cname = ct.text
            if cname in MODIFIERS:
                if self.at("("):
                    raise ParseError(f"modifier {cname!r} takes no arguments", ct.line, ct.col)
                if cname == "required":
                    required = True
                else:
                    if safety_explicit:
                        raise ParseError("conflicting safety modifiers", ct.line, ct.col)
                    safety = cname
                    safety_explicit = True
                continue
            if cname not in schema:
                raise ParseError(f"unknown clause {cname!r} for {kt.text}", ct.line, ct.col)
            if cname in clauses:
                raise ParseError(f"duplicate clause {cname!r}", ct.line, ct.col)
            clauses[cname] = self.parse_clause_value(cname, schema[cname], ct)
        self.expect("EOL")
        msg = kind.validate(clauses, targets)
        if msg:
            raise ParseError(msg, kt.line, kt.col)
        d = Directive(kind.name, targets, clauses, safety, safety_explicit, required,
                      start.line, self.directive_counter)
        self.directive_counter += 1
        return d

    def parse_clause_value(self, cname: str, shape: str, ct: Token):
        if shape == "flag":
            if self.at("("):
                raise ParseError(f"clause {cname!r} takes no arguments", ct.line, ct.col)
            return True
        self.expect("(")
        if shape.startswith("keyword:"):
            kw = self.expect("ID", "keyword")
            allowed = shape.split(":", 1)[1].split("|")
            if kw.text not in allowed:
                raise ParseError(f"clause {cname!r} expects one of {', '.join(allowed)}", kw.line, kw.col)
            self.expect(")")
            return kw.text
        if shape in ("int", "ints", "id", "ids"):
            ints = shape in ("int", "ints")
            vals = self.items(self.parse_int if ints
                              else lambda: self.expect("ID", "identifier").text)
            self.expect(")")
            if shape in ("ints", "ids"):
                return tuple(vals)
            if len(vals) != 1:
                what = "integer" if ints else "identifier"
                raise ParseError(f"clause {cname!r} takes one {what}", ct.line, ct.col)
            return vals[0]
        if shape == "groups":
            groups = [[self.expect("ID", "statement id").text]]
            while True:
                if self.accept(","):
                    groups[-1].append(self.expect("ID", "statement id").text)
                elif self.accept(";"):
                    groups.append([self.expect("ID", "statement id").text])
                else:
                    break
            self.expect(")")
            return tuple(tuple(g) for g in groups)
        raise AssertionError(shape)

    def parse_int(self, what: str = "integer", signed: bool = True) -> int:
        """An integer literal, with a leading '-' when `signed`; it must lie
        in int64."""
        neg = signed and self.accept("-") is not None
        t = self.expect("INT", what)
        v = -int(t.text) if neg else int(t.text)
        if not INT64_MIN <= v <= INT64_MAX:
            raise ParseError(f"integer literal {v} is outside int64", t.line, t.col)
        return v

    # semantic validation ----------------------------------------------------

    def validate(self, prog: Program):
        arrays = {}
        for a in prog.arrays:
            if a.name in arrays:
                raise ParseError(f"duplicate array {a.name!r}", a.line, 1)
            arrays[a.name] = a
        params = {}
        for p in prog.params:
            if p.name in params or p.name in arrays:
                raise ParseError(f"duplicate declaration {p.name!r}", p.line, 1)
            params[p.name] = p
        for al in prog.aliases:
            for nm in (al.first, al.second):
                if nm not in arrays:
                    raise ParseError(f"maybe_alias references undeclared array {nm!r}", al.line, 1)
            if al.first == al.second:
                raise ParseError("maybe_alias requires two distinct arrays", al.line, 1)

        def check_ref(array: str, index: tuple, line: int):
            if array not in arrays:
                raise ParseError(f"undeclared array {array!r}", line, 1)
            if len(index) != len(arrays[array].dims):
                raise ParseError(
                    f"array {array!r} has {len(arrays[array].dims)} dimensions", line, 1)

        def check_expr(e: Expr, scope: set[str], line: int):
            for r in array_reads(e):
                check_ref(r.array, r.index, line)
            for v in sorted(free_vars(e)):
                if v not in scope and v not in params:
                    raise ParseError(f"undeclared identifier {v!r}", line, 1)
            for x in subexprs(e):
                if isinstance(x, Call) and x.func == "disjoint":
                    for a in x.args:
                        if not isinstance(a, VarRef) or a.name not in arrays:
                            raise ParseError("disjoint() arguments must be declared arrays", line, 1)

        def walk(stmts, scope: set[str]):
            for s in stmts:
                inner = scope
                if isinstance(s, Assign):
                    check_ref(s.array, s.index, s.line)
                    for e in (*s.index, s.value):
                        check_expr(e, scope, s.line)
                elif isinstance(s, ForLoop):
                    if s.var in scope or s.var in params or s.var in arrays:
                        raise ParseError(
                            f"loop variable {s.var!r} shadows an enclosing declaration", s.line, 1)
                    check_expr(s.lower, scope, s.line)
                    check_expr(s.upper, scope, s.line)
                    inner = scope | {s.var}
                elif isinstance(s, (WhileLoop, IfStmt)):
                    check_expr(s.cond, scope, s.line)
                for body in child_bodies(s):
                    walk(body, inner)

        walk(prog.body, set())


def parse_program(text: str) -> Program:
    """Parse source text into a Program, or raise ParseError."""
    return _Parser(text).parse_program()


def parse_directive(line: str) -> Directive:
    """Parse a single pragma line into a Directive."""
    p = _Parser(line if line.endswith("\n") else line + "\n")
    if not p.at("PRAGMA"):
        p.fail("expected '#pragma'")
    return p.parse_pragma_line()

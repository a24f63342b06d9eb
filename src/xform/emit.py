"""Pretty-printer: turns a (possibly transformed) program back into source.

Output is deterministic and reparses to a structurally equal tree.  Bodies
are always braced and pragma stacks are printed back above their loop, so
emit(parse(text)) is a normal form: emitting it again reproduces the exact
bytes.  A loop carrying the parallel mark is printed with a
`#pragma xform parallel` line, as if the mark had been written in the source.
"""

from __future__ import annotations

from .kinds import KINDS
from .lang import (
    PRECEDENCE, ArrayRead, Assign, BinOp, Call, Directive, Expr, ForLoop, IfStmt,
    IntLit, Program, Stmt, VarRef, WhileLoop,
)


def expr_str(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, ArrayRead):
        return f"{e.array}[{', '.join(expr_str(i) for i in e.index)}]"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(expr_str(a) for a in e.args)})"
    if isinstance(e, BinOp):
        prec = PRECEDENCE[e.op]
        # left-associative: right operand at equal precedence needs parens
        s = f"{expr_str(e.lhs, prec)} {e.op} {expr_str(e.rhs, prec + 1)}"
        return f"({s})" if prec < parent_prec else s
    raise TypeError(f"not an expression: {e!r}")


def directive_str(d: Directive) -> str:
    parts = ["#pragma xform"]
    if d.targets:
        parts.append(f"loop({','.join(d.targets)})")
    kind = KINDS[d.kind]
    parts.append(kind.surface)
    for cname in kind.clauses:
        if cname not in d.clauses:
            continue
        v = d.clauses[cname]
        if v is True:
            parts.append(cname)
        elif isinstance(v, tuple) and v and isinstance(v[0], tuple):
            groups = ";".join(",".join(g) for g in v)
            parts.append(f"{cname}({groups})")
        elif isinstance(v, tuple):
            parts.append(f"{cname}({','.join(str(x) for x in v)})")
        else:
            parts.append(f"{cname}({v})")
    if d.safety_explicit:
        parts.append(d.safety)
    if d.required:
        parts.append("required")
    return " ".join(parts)


class _Emitter:
    def __init__(self, annotate: bool):
        self.annotate = annotate
        self.lines: list[str] = []

    def line(self, depth: int, text: str):
        self.lines.append("  " * depth + text)

    def emit_body(self, stmts: list[Stmt], depth: int):
        for s in stmts:
            self.emit_stmt(s, depth)

    def emit_stmt(self, s: Stmt, depth: int):
        if isinstance(s, Assign):
            idx = ", ".join(expr_str(i) for i in s.index)
            self.line(depth, f"{s.array}[{idx}] {s.op} {expr_str(s.value)};")
        elif isinstance(s, ForLoop):
            for d in reversed(s.pragmas):  # bottom-most printed nearest the loop
                self.line(depth, directive_str(d))
            if s.parallel:
                self.line(depth, "#pragma xform parallel")
            note = ""
            if self.annotate and s.origin != "source":
                note = f" // from: {s.origin.split(':', 1)[1]}"
            head = f"for ({s.var} = {expr_str(s.lower)}; {s.var} < {expr_str(s.upper)}; {s.var} += {s.step}) {{"
            self.line(depth, head + note)
            self.emit_body(s.body, depth + 1)
            self.line(depth, "}")
        elif isinstance(s, WhileLoop):
            for d in reversed(s.pragmas):
                self.line(depth, directive_str(d))
            self.line(depth, f"while ({expr_str(s.cond)}) {{")
            self.emit_body(s.body, depth + 1)
            self.line(depth, "}")
        elif isinstance(s, IfStmt):
            self.line(depth, f"if ({expr_str(s.cond)}) {{")
            self.emit_body(s.then_body, depth + 1)
            if s.else_body is not None:
                self.line(depth, "} else {")
                self.emit_body(s.else_body, depth + 1)
            self.line(depth, "}")
        else:
            raise TypeError(f"not a statement: {s!r}")


def emit_program(p: Program, annotate: bool = False) -> str:
    """Render a program as source text (deterministic normal form)."""
    em = _Emitter(annotate)
    for a in p.arrays:
        dims = ", ".join(str(d) for d in a.dims)
        em.line(0, f"array {a.name}[{dims}] init {a.init};")
    for al in p.aliases:
        em.line(0, f"maybe_alias({al.first}, {al.second});")
    for pr in p.params:
        opq = " opaque" if pr.opaque else ""
        em.line(0, f"param {pr.name} = {pr.value}{opq};")
    if (p.arrays or p.aliases or p.params) and p.body:
        em.line(0, "")
    em.emit_body(p.body, 0)
    return "\n".join(em.lines) + "\n"

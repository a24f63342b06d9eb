"""AST for the structured loop language, plus the structural helpers every
stage shares.

Expressions are frozen dataclasses and safe to share between trees; statements
are plain mutable dataclasses that the transformation catalog clones before
rewriting.  Each assignment carries ``orig_coords``: for every source loop it
was originally nested in, an expression that recovers that loop's iteration
value from the *current* variables.  Transformations rewrite those expressions
along with the code, which is what lets the interpreter report traces in
original-loop coordinates no matter how mangled the tree is.

`evaluate` is the one place an expression gets its int64 value, and
`subexprs` the one expression walker.  The interpreter passes itself as the
memory that answers reads and `disjoint`; the dependence enumerator passes
none, and `simplify` folds constants only through `evaluate`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field


INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class ArrayRead:
    array: str
    index: tuple["Expr", ...]


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / % < <= > >= == != &&
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # min | max | disjoint
    args: tuple["Expr", ...]


Expr = IntLit | VarRef | ArrayRead | BinOp | Call


class EvalError(Exception):
    """An expression has no int64 value: an overflow, a zero divisor, an
    unbound variable, an index out of bounds, or a read with no memory."""


def idiv(a: int, b: int) -> int:
    """Integer division truncating toward zero (C semantics)."""
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def imod(a: int, b: int) -> int:
    return a - idiv(a, b) * b


def int64(v: int) -> int:
    """`v`, or EvalError when it does not fit in int64."""
    if INT64_MIN <= v <= INT64_MAX:
        return v
    raise EvalError("int64 overflow")


# The binary operators and the min/max builtins.  `evaluate` passes each
# binary operator's result through `int64`, so `+ - * /` fault on overflow;
# `/ %` fault on a zero divisor.
OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": idiv,
    "%": imod,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "&&": lambda a, b: 1 if a != 0 and b != 0 else 0,
    "min": min,
    "max": max,
}


def evaluate(e: Expr, env: dict[str, int], mem=None) -> int:
    """The int64 value of `e` under `env`, or EvalError.

    `mem.load(array, idx)` answers array reads and `mem.disjoint(a, b)` the
    `disjoint` builtin; without a `mem` both raise EvalError.
    """
    t = type(e)
    if t is VarRef:
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if t is BinOp:
        v = OPS[e.op](evaluate(e.lhs, env, mem), evaluate(e.rhs, env, mem))
        return v if INT64_MIN <= v <= INT64_MAX else int64(v)
    if t is IntLit:
        return e.value
    if t is ArrayRead:
        if mem is None:
            raise EvalError("memory-dependent expression")
        return mem.load(e.array, [evaluate(i, env, mem) for i in e.index])
    if t is Call:
        if e.func == "disjoint":
            if mem is None:
                raise EvalError("alias-binding-dependent expression")
            return int(mem.disjoint(e.args[0].name, e.args[1].name))
        return OPS[e.func](evaluate(e.args[0], env, mem), evaluate(e.args[1], env, mem))
    raise TypeError(f"not an expression: {e!r}")


def flat_index(array: str, dims: tuple[int, ...], idx) -> int:
    """Row-major element number of `array[idx]`, or EvalError out of bounds."""
    flat = 0
    for d, i in zip(dims, idx):
        if not 0 <= i < d:
            raise EvalError(f"index {i} out of bounds for {array}[{d}]")
        flat = flat * d + i
    return flat


def subexprs(e: Expr):
    """`e` and every expression inside it, in preorder.  The arguments of
    `disjoint` name arrays and are not expressions, so they are skipped."""
    yield e
    if isinstance(e, BinOp):
        yield from subexprs(e.lhs)
        yield from subexprs(e.rhs)
    elif isinstance(e, ArrayRead):
        for i in e.index:
            yield from subexprs(i)
    elif isinstance(e, Call) and e.func != "disjoint":
        for a in e.args:
            yield from subexprs(a)


def free_vars(e: Expr) -> set[str]:
    return {x.name for x in subexprs(e) if isinstance(x, VarRef)}


def array_reads(e: Expr):
    """Every ArrayRead node in an expression, including nested ones."""
    return [x for x in subexprs(e) if isinstance(x, ArrayRead)]


def subst(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Substitute variables in an expression; returns a new expression."""
    if not mapping:
        return e
    if isinstance(e, VarRef):
        return mapping.get(e.name, e)
    if isinstance(e, IntLit):
        return e
    if isinstance(e, ArrayRead):
        return ArrayRead(e.array, tuple(subst(i, mapping) for i in e.index))
    if isinstance(e, BinOp):
        return BinOp(e.op, subst(e.lhs, mapping), subst(e.rhs, mapping))
    if isinstance(e, Call):
        return Call(e.func, tuple(subst(a, mapping) for a in e.args))
    raise TypeError(f"not an expression: {e!r}")


def _fold(e: BinOp) -> IntLit | None:
    """`e`, whose operands are literals, as a literal; None when it has no
    int64 value (a fault must stay visible to the interpreter)."""
    try:
        return IntLit(evaluate(e, {}))
    except EvalError:
        return None


def simplify(e: Expr) -> Expr:
    """Light constant folding and algebraic cleanup.

    Constants are folded only by `evaluate`, so an operation that would
    overflow or divide by zero is left in the tree.
    """
    if isinstance(e, (IntLit, VarRef)):
        return e
    if isinstance(e, ArrayRead):
        return ArrayRead(e.array, tuple(simplify(i) for i in e.index))
    if isinstance(e, Call):
        args = tuple(simplify(a) for a in e.args)
        if e.func in ("min", "max"):
            if all(isinstance(a, IntLit) for a in args):
                return IntLit(evaluate(Call(e.func, args), {}))
            if len(args) == 2 and args[0] == args[1]:
                return args[0]
        return Call(e.func, args)
    if isinstance(e, BinOp):
        l, r = simplify(e.lhs), simplify(e.rhs)
        op = e.op
        if isinstance(l, IntLit) and isinstance(r, IntLit):
            folded = _fold(BinOp(op, l, r))
            if folded is not None:
                return folded
        if op == "-":
            if l == r:
                return IntLit(0)
            if isinstance(l, BinOp) and l.op == "+":
                if l.lhs == r:
                    return l.rhs
                if l.rhs == r:
                    return l.lhs
        if op in ("+", "-") and isinstance(r, IntLit):
            if r.value == 0:
                return l
            if r.value < 0:  # x + -c -> x - c, x - -c -> x + c
                flipped = _fold(BinOp("-", IntLit(0), r))
                if flipped is not None:
                    return simplify(BinOp("-" if op == "+" else "+", l, flipped))
            elif isinstance(l, BinOp) and l.op in ("+", "-") and isinstance(l.rhs, IntLit):
                # ((x +- c1) +- c2) -> x + c
                c = _fold(BinOp(op, BinOp(l.op, IntLit(0), l.rhs), r))
                if c is not None:
                    return simplify(BinOp("+", l.lhs, c))
        if op == "+" and isinstance(l, IntLit) and l.value == 0:
            return r
        if op == "/" and isinstance(r, IntLit) and r.value == 1:
            return l
        if op == "%" and isinstance(r, IntLit) and r.value == 1:
            return IntLit(0)
        if op == "*":
            for a, b in ((l, r), (r, l)):
                if isinstance(a, IntLit):
                    if a.value == 0:
                        return IntLit(0)
                    if a.value == 1:
                        return b
        return BinOp(op, l, r)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Directives


@dataclass
class Directive:
    """One transformation request, as attached ahead of a loop."""

    kind: str                      # canonical kind name, e.g. "strip_mine"
    targets: tuple[str, ...]       # loop names; empty = "the following loop"
    clauses: dict[str, object]
    safety: str = "default"        # default | fallback | force
    safety_explicit: bool = False  # written on the directive (wins over CLI)
    required: bool = False
    line: int = 0
    uid: int = -1

    def describe(self) -> str:
        tgt = f" loop({','.join(self.targets)})" if self.targets else ""
        return f"{self.kind}{tgt}"


def directive_equal(a: Directive, b: Directive) -> bool:
    return (a.kind == b.kind and a.targets == b.targets and a.clauses == b.clauses
            and a.safety == b.safety and a.required == b.required)


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Assign:
    array: str
    index: tuple[Expr, ...]
    op: str                       # "=" or "+="
    value: Expr
    stmt_id: str = ""
    line: int = 0
    orig_coords: tuple[tuple[str, Expr], ...] = ()


@dataclass
class ForLoop:
    var: str
    lower: Expr
    upper: Expr
    step: int
    body: list["Stmt"] = field(default_factory=list)
    pragmas: list[Directive] = field(default_factory=list)
    stmt_id: str = ""
    line: int = 0
    name: str = ""                # unique loop name (ir.name_loops)
    origin: str = "source"        # "source" or "generated:<kind>#<uid>"
    parallel: bool = False


@dataclass
class WhileLoop:
    cond: Expr
    body: list["Stmt"] = field(default_factory=list)
    pragmas: list[Directive] = field(default_factory=list)
    stmt_id: str = ""
    line: int = 0
    name: str = ""
    origin: str = "source"


@dataclass
class IfStmt:
    cond: Expr
    then_body: list["Stmt"] = field(default_factory=list)
    else_body: list["Stmt"] | None = None
    stmt_id: str = ""
    line: int = 0


@dataclass
class Block:
    body: list["Stmt"] = field(default_factory=list)
    stmt_id: str = ""
    line: int = 0


Stmt = Assign | ForLoop | WhileLoop | IfStmt | Block


# ---------------------------------------------------------------------------
# Declarations and programs


@dataclass
class ArrayDecl:
    name: str
    dims: tuple[int, ...]
    init: str = "zero"            # zero | random
    line: int = 0

    @property
    def total(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n


@dataclass
class AliasDecl:
    first: str
    second: str
    line: int = 0


@dataclass
class ParamDecl:
    name: str
    value: int
    opaque: bool = False
    line: int = 0


@dataclass
class Program:
    arrays: list[ArrayDecl] = field(default_factory=list)
    aliases: list[AliasDecl] = field(default_factory=list)
    params: list[ParamDecl] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    def param_values(self, include_opaque: bool = True) -> dict[str, int]:
        return {p.name: p.value for p in self.params if include_opaque or not p.opaque}

    def opaque_params(self) -> set[str]:
        return {p.name for p in self.params if p.opaque}


# ---------------------------------------------------------------------------
# Tree utilities


def child_bodies(s: Stmt) -> list[list[Stmt]]:
    if isinstance(s, (ForLoop, WhileLoop, Block)):
        return [s.body]
    if isinstance(s, IfStmt):
        return [s.then_body] + ([s.else_body] if s.else_body is not None else [])
    return []


def iter_stmts(stmts: list[Stmt]):
    """All statements in preorder."""
    for s in stmts:
        yield s
        for b in child_bodies(s):
            yield from iter_stmts(b)


def iter_loops(stmts: list[Stmt]):
    for s in iter_stmts(stmts):
        if isinstance(s, (ForLoop, WhileLoop)):
            yield s


def find_loop(stmts: list[Stmt], name: str):
    for l in iter_loops(stmts):
        if l.name == name:
            return l
    return None


def containing_list(stmts: list[Stmt], node: Stmt):
    """Locate the body list (and index) physically holding `node`."""
    for i, s in enumerate(stmts):
        if s is node:
            return stmts, i
    for s in stmts:
        for b in child_bodies(s):
            found = containing_list(b, node)
            if found is not None:
                return found
    return None


def clone_stmt(s: Stmt) -> Stmt:
    if isinstance(s, Assign):
        return Assign(s.array, s.index, s.op, s.value, s.stmt_id, s.line, s.orig_coords)
    if isinstance(s, ForLoop):
        return ForLoop(s.var, s.lower, s.upper, s.step, clone_body(s.body),
                       list(s.pragmas), s.stmt_id, s.line, s.name, s.origin, s.parallel)
    if isinstance(s, WhileLoop):
        return WhileLoop(s.cond, clone_body(s.body), list(s.pragmas),
                         s.stmt_id, s.line, s.name, s.origin)
    if isinstance(s, IfStmt):
        return IfStmt(s.cond, clone_body(s.then_body),
                      clone_body(s.else_body) if s.else_body is not None else None,
                      s.stmt_id, s.line)
    if isinstance(s, Block):
        return Block(clone_body(s.body), s.stmt_id, s.line)
    raise TypeError(f"not a statement: {s!r}")


def clone_body(stmts: list[Stmt]) -> list[Stmt]:
    return [clone_stmt(s) for s in stmts]


def clone_program(p: Program) -> Program:
    return Program(list(p.arrays), list(p.aliases), list(p.params), clone_body(p.body))


def subst_stmt(s: Stmt, mapping: dict[str, Expr]) -> Stmt:
    """Clone a statement with variables substituted, respecting shadowing."""
    if isinstance(s, Assign):
        return Assign(s.array,
                      tuple(subst(i, mapping) for i in s.index),
                      s.op, subst(s.value, mapping), s.stmt_id, s.line,
                      tuple((n, subst(e, mapping)) for n, e in s.orig_coords))
    if isinstance(s, ForLoop):
        inner = {k: v for k, v in mapping.items() if k != s.var}
        return ForLoop(s.var, subst(s.lower, mapping), subst(s.upper, mapping), s.step,
                       subst_body(s.body, inner), list(s.pragmas),
                       s.stmt_id, s.line, s.name, s.origin, s.parallel)
    if isinstance(s, WhileLoop):
        return WhileLoop(subst(s.cond, mapping), subst_body(s.body, mapping),
                         list(s.pragmas), s.stmt_id, s.line, s.name, s.origin)
    if isinstance(s, IfStmt):
        return IfStmt(subst(s.cond, mapping), subst_body(s.then_body, mapping),
                      subst_body(s.else_body, mapping) if s.else_body is not None else None,
                      s.stmt_id, s.line)
    if isinstance(s, Block):
        return Block(subst_body(s.body, mapping), s.stmt_id, s.line)
    raise TypeError(f"not a statement: {s!r}")


def subst_body(stmts: list[Stmt], mapping: dict[str, Expr]) -> list[Stmt]:
    return [subst_stmt(s, mapping) for s in stmts]


def strip_pragmas(p: Program) -> Program:
    out = clone_program(p)
    for l in iter_loops(out.body):
        l.pragmas = []
    return out


# ---------------------------------------------------------------------------
# Structural equality (ignores ids, lines, names, origins, coords)


def structurally_equal(a, b, compare_pragmas: bool = False) -> bool:
    if isinstance(a, Program) and isinstance(b, Program):
        if [(d.name, d.dims, d.init) for d in a.arrays] != [(d.name, d.dims, d.init) for d in b.arrays]:
            return False
        if [(d.first, d.second) for d in a.aliases] != [(d.first, d.second) for d in b.aliases]:
            return False
        if [(d.name, d.value, d.opaque) for d in a.params] != [(d.name, d.value, d.opaque) for d in b.params]:
            return False
        return _body_equal(a.body, b.body, compare_pragmas)
    if isinstance(a, list) and isinstance(b, list):
        return _body_equal(a, b, compare_pragmas)
    return _stmt_equal(a, b, compare_pragmas)


def _body_equal(a, b, cp):
    return len(a) == len(b) and all(_stmt_equal(x, y, cp) for x, y in zip(a, b))


def _stmt_equal(a, b, cp):
    if type(a) is not type(b):
        return False
    if isinstance(a, Assign):
        return (a.array == b.array and a.index == b.index
                and a.op == b.op and a.value == b.value)
    if isinstance(a, ForLoop):
        if not (a.var == b.var and a.lower == b.lower and a.upper == b.upper
                and a.step == b.step and a.parallel == b.parallel):
            return False
        if cp and not _pragmas_equal(a.pragmas, b.pragmas):
            return False
        return _body_equal(a.body, b.body, cp)
    if isinstance(a, WhileLoop):
        if a.cond != b.cond:
            return False
        if cp and not _pragmas_equal(a.pragmas, b.pragmas):
            return False
        return _body_equal(a.body, b.body, cp)
    if isinstance(a, IfStmt):
        if a.cond != b.cond or not _body_equal(a.then_body, b.then_body, cp):
            return False
        if (a.else_body is None) != (b.else_body is None):
            return False
        return a.else_body is None or _body_equal(a.else_body, b.else_body, cp)
    if isinstance(a, Block):
        return _body_equal(a.body, b.body, cp)
    raise TypeError(f"not a statement: {a!r}")


def _pragmas_equal(a, b):
    return len(a) == len(b) and all(directive_equal(x, y) for x, y in zip(a, b))


def alpha_normalize(stmts: list[Stmt]) -> list[Stmt]:
    """Rename loop variables to v0, v1, ... in preorder.

    Used to compare trees for equality up to the names a transformation chose
    for its generated loops.
    """
    counter = [0]

    def go(body, mapping):
        out = []
        for s in body:
            if isinstance(s, ForLoop):
                nv = f"v{counter[0]}"
                counter[0] += 1
                inner = dict(mapping)
                inner[s.var] = VarRef(nv)
                loop = ForLoop(nv, subst(s.lower, mapping), subst(s.upper, mapping),
                               s.step, go(s.body, inner), [], s.stmt_id, s.line,
                               "", s.origin, s.parallel)
                out.append(loop)
            elif isinstance(s, WhileLoop):
                out.append(WhileLoop(subst(s.cond, mapping), go(s.body, mapping)))
            elif isinstance(s, IfStmt):
                out.append(IfStmt(subst(s.cond, mapping), go(s.then_body, mapping),
                                  go(s.else_body, mapping) if s.else_body is not None else None))
            elif isinstance(s, Block):
                out.append(Block(go(s.body, mapping)))
            else:
                out.append(subst_stmt(s, mapping))
        return out

    return go(stmts, {})

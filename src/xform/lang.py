"""AST for the structured loop language, plus the structural helpers every
stage shares.

Expressions are frozen dataclasses and safe to share between trees; statements
are plain mutable dataclasses that the transformation catalog clones before
rewriting.  There are four statement kinds: a bare `{ ... }` in the source
is no statement, as the parser puts its statements in the list around it.
Each assignment carries ``orig_coords``: for every source loop it was
originally nested in, an expression that recovers that loop's iteration
value from the *current* variables.  Transformations rewrite those expressions
along with the code, which is what lets the interpreter report traces in
original-loop coordinates no matter how mangled the tree is.

Each rule is stated once here: `fold` gives a constant operation its int64
value, `trip_count` a loop's iterations, `interval` an expression's static
bounds (on an environment of points, its value), `affine` its affine form
(for `loop_range`, `kinds.fuse` and the conservative dependence tests),
`step_counts` is the one static walk of a region, `locate` finds a node in
the tree, `PRECEDENCE` orders the operators for the parser and the printer,
and `subexprs` walks an expression.  The dependence enumerator's closures
(`xform.deps`) and the interpreter's lowering (`xform.lower`) fold through
`fold` and keep its checks, in the order of evaluation of the tests'
reference evaluator (`tests/reference_lang.py`).  `simplify` never changes
an expression's value or fault; only the builders call it, on the code
they write, and no analysis reads its rules.
"""

from __future__ import annotations

import gc
import operator
from contextlib import contextmanager
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


# The binary operators by how tightly they bind, all left-associative.
PRECEDENCE = {"&&": 1, "<": 2, "<=": 2, ">": 2, ">=": 2, "==": 2, "!=": 2,
              "+": 3, "-": 3, "*": 4, "/": 4, "%": 4}


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


# The binary operators and the min/max builtins.  `fold` rejects a result
# outside int64, so `+ - * /` fault on overflow; `/ %` fault on a zero divisor.
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


def fold(op: str, a: int, b: int) -> int | None:
    """`a op b` for a binary operator or min/max, or None where it has no
    int64 value: it overflows or divides by zero."""
    try:
        v = OPS[op](a, b)
    except EvalError:
        return None
    return v if INT64_MIN <= v <= INT64_MAX else None


def trip_count(lower: int, upper: int, step: int) -> int:
    """How many times a loop from `lower` to below `upper` by `step` runs."""
    return max(0, -(-(upper - lower) // step))


def flat_index(array: str, dims: tuple[int, ...], idx) -> int:
    """Row-major element number of `array[idx]`, or EvalError out of bounds."""
    flat = 0
    for d, i in zip(dims, idx):
        if not 0 <= i < d:
            raise EvalError(f"index {i} out of bounds for {array}[{d}]")
        flat = flat * d + i
    return flat


# ---------------------------------------------------------------------------
# Static ranges: what the loop bounds and params fix before a run (interval
# analysis after Harrison, "Compiler analysis of the value ranges for
# variables", 1977, used to drop bounds checks as in Bodík, Gupta & Sarkar,
# "ABCD: eliminating array bounds checks on demand", 2000).  An environment
# maps each name in scope to its interval (lo, hi), a param's being (v, v),
# or to None when nothing is known of it.

Interval = tuple[int, int]


def op_interval(op: str, a: Interval | None, b: Interval | None) -> Interval | None:
    """The interval of `x op y` for x in `a` and y in `b`, or None when the
    operation may fault there, or when an operand's interval is unknown.  On
    two points it is `fold`'s value.  `/` and `%` are known only by a
    constant other than 0 and -1, which can neither fault nor overflow."""
    if a is None or b is None:
        return None
    if a[0] == a[1] and b[0] == b[1]:
        v = fold(op, a[0], b[0])
        return None if v is None else (v, v)
    if op in ("/", "%"):
        c = b[0]
        if b[0] != b[1] or c in (0, -1):
            return None
        if op == "/":  # truncation is monotone in the dividend
            ends = (idiv(a[0], c), idiv(a[1], c))
            return min(ends), max(ends)
        m = abs(c) - 1  # the remainder takes the dividend's sign
        if a[0] >= 0:
            return (a[0], a[1]) if a[1] <= m else (0, m)
        if a[1] <= 0:
            return (a[0], a[1]) if a[0] >= -m else (-m, 0)
        return max(a[0], -m), min(a[1], m)
    if op in ("+", "-", "*"):
        if op == "+":
            lo, hi = a[0] + b[0], a[1] + b[1]
        elif op == "-":
            lo, hi = a[0] - b[1], a[1] - b[0]
        else:
            corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
            lo, hi = min(corners), max(corners)
        return (lo, hi) if INT64_MIN <= lo and hi <= INT64_MAX else None
    if op in ("min", "max"):
        f = OPS[op]
        return f(a[0], b[0]), f(a[1], b[1])
    return 0, 1


def interval(e: Expr, env: dict) -> Interval | None:
    """Bounds on `e`'s value under `env`, or None when `e` may fault or its
    bounds are unknown: an array read or `disjoint` anywhere in it is."""
    t = type(e)
    if t is IntLit:
        return e.value, e.value
    if t is VarRef:
        return env.get(e.name)
    if t is BinOp:
        return op_interval(e.op, interval(e.lhs, env), interval(e.rhs, env))
    if t is Call and e.func != "disjoint":
        return op_interval(e.func, interval(e.args[0], env), interval(e.args[1], env))
    return None


def loop_range(loop: "ForLoop", env: dict) -> tuple[int | None, Interval | None]:
    """`loop`'s trip count and its variable's interval under `env`, each None
    when the bounds do not fix it.  The trip count comes from two constant
    bounds, else from `upper - lower` whose `affine` form is a constant
    (`i < i0 + 4`), a name that `env` holds at one point read as its value."""
    lo, hi, step = interval(loop.lower, env), interval(loop.upper, env), loop.step
    if lo is not None and hi is not None and lo[0] == lo[1] and hi[0] == hi[1]:
        trips = trip_count(lo[0], hi[0], step)
    else:
        consts = {n: v[0] for n, v in env.items() if v is not None and v[0] == v[1]}
        extent = affine(BinOp("-", loop.upper, loop.lower), {}, consts)
        trips = None if extent is None or extent.keys() - {None} else \
            trip_count(0, extent.get(None, 0), step)
    if lo is None or hi is None:
        return trips, None
    last = hi[1] - 1 if trips is None else min(hi[1] - 1, lo[1] + (trips - 1) * step)
    return trips, (lo[0], last) if lo[0] <= last else None


def step_counts(stmts: list["Stmt"], env: dict, exact_only: bool = False):
    """The one static walk of a region: (exact, bound, proved) for `stmts`
    under `env`.

    `exact` counts the statements, assignments and loop iterations one run
    executes when no value decides them: no `while` or `if`, and every trip
    count known (`loop_range`).  A run that faults stops within them.
    `bound` holds the counts a run stays within where values decide: an `if`
    runs both branches and a trip count not known is bounded by its
    variable's interval.  Each is None where its rule fails: `exact` at a
    `while`, an `if` or an unknown trip count, `bound` at a `while` or a
    loop with no interval and unknown bounds.  `proved` is whether
    `interval` proves that a walk values every loop bound, condition,
    subscript and original coordinate inside int64 and without a zero
    divisor.  Subscript bounds are not checked, a `while` is taken as never
    reached, and the body of a loop that never runs is counted, not proved.
    For a caller that reads `exact` alone, `exact_only` stops the walk where
    `exact` fails and neither bounds nor proves: `bound` is None and
    `proved` False."""
    total = [0, 0, 0]
    exact = proved = True
    bound = not exact_only

    def known(exprs, env) -> bool:
        return all(interval(e, env) is not None for e in exprs)

    def walk(stmts, env, times, prove):
        nonlocal exact, bound, proved
        for s in stmts:
            prove = prove and proved
            if not (exact if exact_only else bound or prove):  # nothing left to value here
                return
            total[0] += times
            t = type(s)
            if t is Assign:
                total[1] += times
                # (a read in a subscript has no interval)
                if prove and not known([*s.index,
                                        *(x for r in array_reads(s.value) for x in r.index),
                                        *(e for _, e in s.orig_coords)], env):
                    proved = False
            elif t is ForLoop:
                if prove and not known((s.lower, s.upper), env):
                    proved = prove = False
                trips, var = loop_range(s, env)
                if trips is None:
                    exact = False
                    if var is None:  # with known bounds it never runs
                        bound = bound and known((s.lower, s.upper), env)
                        continue
                    trips = (var[1] - var[0]) // s.step + 1
                total[2] += times * trips
                walk(s.body, {**env, s.var: var}, times * trips, prove and var is not None)
            elif t is IfStmt:
                exact = False
                if prove and not known((s.cond,), env):
                    proved = prove = False
                for body in child_bodies(s):
                    walk(body, env, times, prove)
            else:  # a while: values decide its count
                exact = bound = False

    walk(stmts, env, 1, not exact_only)
    counts = tuple(total)
    return counts if exact else None, counts if bound else None, proved and not exact_only


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector, restoring its previous state on
    exit, also by an exception: for code that builds many long-lived objects
    and few reference cycles.  Also a decorator (`transforms.apply_pipeline`)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def subexprs(e: Expr):
    """`e` and every expression inside it, in preorder.  The arguments of
    `disjoint` name arrays and are not expressions, so they are skipped."""
    stack = [e]  # not recursive: a generator per level would pass on every item
    while stack:
        e = stack.pop()
        yield e
        t = type(e)
        if t is BinOp:
            stack += e.rhs, e.lhs
        elif t is ArrayRead:
            stack += reversed(e.index)
        elif t is Call and e.func != "disjoint":
            stack += reversed(e.args)


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


def simplify(e: Expr) -> Expr:
    """Light constant folding and cleanup that keeps every value and fault:
    constants fold only by `fold`, an operand is dropped only where it
    changes nothing (`x + 0`, `x * 1`, `x / 1`, `min(a, a)`), and `(x +- c1)
    +- c2` becomes `x + c` only where c1 and c2 move x one way, so that both
    overflow together."""
    t = type(e)
    if t is ArrayRead:
        return ArrayRead(e.array, tuple(simplify(i) for i in e.index))
    if t is not BinOp and (t is not Call or e.func == "disjoint"):
        return e
    op, (l, r) = (e.op, (e.lhs, e.rhs)) if t is BinOp else (e.func, e.args)
    l, r = simplify(l), simplify(r)
    if isinstance(l, IntLit) and isinstance(r, IntLit):
        v = fold(op, l.value, r.value)
        if v is not None:
            return IntLit(v)
    if t is Call:  # min or max
        return l if l == r else Call(op, (l, r))
    if op in ("+", "-") and isinstance(r, IntLit):
        if r.value == 0:
            return l
        if r.value < 0:  # x + -c -> x - c, x - -c -> x + c
            flipped = fold("-", 0, r.value)
            if flipped is not None:
                return simplify(BinOp("-" if op == "+" else "+", l, IntLit(flipped)))
        elif isinstance(l, BinOp) and l.op in ("+", "-") and isinstance(l.rhs, IntLit):
            # ((x +- c1) +- c2) -> x + c where c1 and c2 move x one way
            c1 = fold(l.op, 0, l.rhs.value)
            c = None if c1 is None or (c1 > 0) != (op == "+") else fold(op, c1, r.value)
            if c is not None:
                return simplify(BinOp("+", l.lhs, IntLit(c)))
    if op == "+" and isinstance(l, IntLit) and l.value == 0:
        return r
    if op in ("*", "/") and isinstance(r, IntLit) and r.value == 1:
        return l
    if op == "*" and isinstance(l, IntLit) and l.value == 1:
        return r
    return BinOp(op, l, r)


def affine(e: Expr, levels: dict[str, int], consts: dict[str, int]) -> dict | None:
    """`e` as an affine form `{term: coefficient}`, no coefficient 0: a term
    is the level of an enclosing loop (its variable in `levels`), another
    name not in `consts` (an opaque param), or None for the constant.  A
    name in `consts` is its value, and an operation on two constants folds
    by `fold`.  None where `e` is not affine or such an operation faults.
    Wherever `e` has a value, the form gives it."""
    t = type(e)
    if t is IntLit:
        return {None: e.value} if e.value else {}
    if t is VarRef:
        if e.name in levels or e.name not in consts:
            return {levels.get(e.name, e.name): 1}
        return affine(IntLit(consts[e.name]), levels, consts)
    if t is not BinOp and (t is not Call or e.func == "disjoint"):
        return None
    op, (a, b) = (e.op, (e.lhs, e.rhs)) if t is BinOp else (e.func, e.args)
    l, r = affine(a, levels, consts), affine(b, levels, consts)
    if l is None or r is None:
        return None
    if l.keys() <= {None} >= r.keys():  # a constant operation
        v = fold(op, l.get(None, 0), r.get(None, 0))
        return None if v is None else affine(IntLit(v), levels, consts)
    if op == "*" and r.keys() <= {None}:
        l, r = r, l  # the constant factor first
    if op == "*" and l.keys() <= {None}:
        return {k: l[None] * c for k, c in r.items()} if l else {}
    if op not in ("+", "-"):
        return None
    sign = 1 if op == "+" else -1
    out = {k: l.get(k, 0) + sign * r.get(k, 0) for k in l.keys() | r.keys()}
    return {k: c for k, c in out.items() if c}


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


Stmt = Assign | ForLoop | WhileLoop | IfStmt


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

    def param_values(self, include_opaque: bool = True) -> dict[str, int]:
        return {p.name: p.value for p in self.params if include_opaque or not p.opaque}

    def param_ranges(self, include_opaque: bool = True) -> dict[str, Interval]:
        """The params as the environment of `interval`: each one a point."""
        return {n: (v, v) for n, v in self.param_values(include_opaque).items()}

    def opaque_params(self) -> set[str]:
        return {p.name for p in self.params if p.opaque}


# ---------------------------------------------------------------------------
# Tree utilities


def child_bodies(s: Stmt) -> list[list[Stmt]]:
    if isinstance(s, (ForLoop, WhileLoop)):
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


def locate(stmts: list[Stmt], node: Stmt):
    """Where `node` sits in `stmts`: (the body list holding it, its index
    there, the index of the top-level statement around it, the for-loops
    around it, outermost first), or None when it is not there."""
    def find(body, top, outer):
        for i, s in enumerate(body):
            here = i if top is None else top
            if s is node:
                return body, i, here, list(outer)
            inner = outer + (s,) if type(s) is ForLoop else outer
            for b in child_bodies(s):
                found = find(b, here, inner)
                if found is not None:
                    return found
        return None
    return find(stmts, None, ())


def clone_program(p: Program) -> Program:
    return Program(list(p.arrays), list(p.aliases), list(p.params), subst_body(p.body, {}))


def subst_stmt(s: Stmt, mapping: dict[str, Expr]) -> Stmt:
    """Clone a statement with variables substituted, respecting shadowing."""
    if isinstance(s, Assign):
        if not mapping:
            return Assign(s.array, s.index, s.op, s.value, s.stmt_id, s.line, s.orig_coords)
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
    raise TypeError(f"not a statement: {s!r}")


def subst_body(stmts: list[Stmt], mapping: dict[str, Expr]) -> list[Stmt]:
    return [subst_stmt(s, mapping) for s in stmts]


def strip_pragmas(p: Program) -> Program:
    out = clone_program(p)
    for l in iter_loops(out.body):
        l.pragmas = []
    return out

"""The reference evaluator and the tree-equality oracles of the tests.

`evaluate` values an expression under a dict environment with every check
of the language, in its order of evaluation: it is the oracle of
`lang.fold`, `lang.interval` and `lang.simplify`, and the reference
interpreter and dependence walker value expressions with it.
`structurally_equal` compares programs, bodies or statements and ignores
statement ids, lines, loop names, origins and original coordinates;
`alpha_normalize` renames loop variables so that trees can be compared up to
the names a transformation chose for its generated loops.
"""

from __future__ import annotations

from xform.lang import (
    INT64_MAX, INT64_MIN, OPS, ArrayRead, Assign, BinOp, Call, Directive, EvalError,
    Expr, ForLoop, IfStmt, IntLit, Program, Stmt, VarRef, WhileLoop, int64, subst, subst_stmt,
)


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


def directive_equal(a: Directive, b: Directive) -> bool:
    return (a.kind == b.kind and a.targets == b.targets and a.clauses == b.clauses
            and a.safety == b.safety and a.required == b.required)


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
            else:
                out.append(subst_stmt(s, mapping))
        return out

    return go(stmts, {})

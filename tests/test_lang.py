"""The reference evaluator against the constant folder, the static ranges and
the static walk."""

import pytest
from hypothesis import example, given, settings, strategies as st

from xform import lang, plan_pipeline
from xform.kinds import TransformError
from xform.lang import (
    INT64_MAX, INT64_MIN, ArrayRead, Assign, BinOp, Call, EvalError, ForLoop, IfStmt, IntLit,
    VarRef, array_reads, flat_index, interval, loop_range, op_interval, simplify, step_counts,
    strip_pragmas, subexprs, subst_stmt,
)
from xform.transforms import build_candidate

from conftest import parse_named
from reference_lang import evaluate

MAX, MIN = INT64_MAX, INT64_MIN


def lit(v):
    return IntLit(v)


def op(o, a, b):
    return BinOp(o, a if not isinstance(a, int) else lit(a), b if not isinstance(b, int) else lit(b))


@pytest.mark.parametrize("e, value", [
    (op("/", op("-", 0, 7), 2), -3),
    (op("%", op("-", 0, 7), 2), -1),
    (op("/", 7, op("-", 0, 2)), -3),
    (op("%", 7, op("-", 0, 2)), 1),
    (op("+", MAX - 1, 1), MAX),
    (op("-", MIN + 1, 1), MIN),
    (op("*", op("-", 0, 2), 2**62), MIN),
    (op("&&", 3, op("<", 1, 2)), 1),
    (op("!=", 4, 4), 0),
    (Call("min", (lit(3), lit(-5))), -5),
    (Call("max", (lit(3), lit(-5))), 3),
    (op("+", VarRef("x"), 1), 42),
])
def test_evaluate_values(e, value):
    assert evaluate(e, {"x": 41}) == value


@pytest.mark.parametrize("e, message", [
    (op("+", MAX, 1), "int64 overflow"),
    (op("-", MIN, 1), "int64 overflow"),
    (op("*", MAX, 2), "int64 overflow"),
    (op("*", MIN, -1), "int64 overflow"),
    (op("/", MIN, -1), "int64 overflow"),
    (op("/", 7, 0), "division by zero"),
    (op("%", 7, 0), "division by zero"),
    (op("+", VarRef("y"), 1), "unbound variable 'y'"),
    (ArrayRead("A", (lit(0),)), "memory-dependent expression"),
    (Call("disjoint", (VarRef("A"), VarRef("B"))), "alias-binding-dependent expression"),
])
def test_evaluate_faults(e, message):
    with pytest.raises(EvalError, match=f"^{message}$"):
        evaluate(e, {"x": 41})


def test_evaluate_reads_through_mem():
    class Mem:
        def load(self, array, idx):
            return 100 * len(array) + flat_index(array, (3, 4), idx)

        def disjoint(self, a, b):
            return a != b

    e = op("+", ArrayRead("A", (lit(1), VarRef("x"))),
           Call("disjoint", (VarRef("A"), VarRef("B"))))
    assert evaluate(e, {"x": 2}, Mem()) == 100 + 6 + 1
    with pytest.raises(EvalError, match=r"^index 4 out of bounds for A\[4\]$"):
        evaluate(e, {"x": 4}, Mem())


def test_subexprs_skips_disjoint_array_names():
    e = op("+", ArrayRead("A", (VarRef("i"),)), Call("disjoint", (VarRef("A"), VarRef("B"))))
    assert list(subexprs(e)) == [e, e.lhs, VarRef("i"), e.rhs]


@pytest.mark.parametrize("e", [
    op("+", op("+", VarRef("x"), MAX), 10),
    op("+", VarRef("x"), MIN),
    op("*", MAX, 2),
])
def test_simplify_leaves_a_faulting_constant_unfolded(e):
    for x in subexprs(simplify(e)):
        if isinstance(x, IntLit):
            assert MIN <= x.value <= MAX


VARS = ("x", "y")
EDGE = st.sampled_from([0, 1, 2, -1, 7, MAX, MIN, MAX - 1, MIN + 1, 2**32])
leaves = st.one_of(EDGE.map(IntLit), st.integers(MIN, MAX).map(IntLit),
                   st.sampled_from(VARS).map(VarRef))


def _node(children):
    binops = st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "%", "<", "==", "&&"]),
                       children, children)
    calls = st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]),
                      children, children)
    return st.one_of(binops, binops, calls)


exprs = st.recursive(leaves, _node, max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(exprs, st.fixed_dictionaries({v: st.one_of(EDGE, st.integers(MIN, MAX)) for v in VARS}))
def test_simplify_keeps_the_value_and_int64_literals(e, env):
    s = simplify(e)
    for x in subexprs(s):
        if isinstance(x, IntLit):
            assert MIN <= x.value <= MAX, s
    try:
        value = evaluate(e, env)
    except EvalError:
        return
    assert evaluate(s, env) == value, s


# ---------------------------------------------------------------------------
# Static ranges

small_exprs = st.recursive(st.one_of(st.integers(-5, 5).map(IntLit),
                                     st.sampled_from(VARS).map(VarRef)), _node, max_leaves=8)
ranges = st.tuples(st.one_of(EDGE, st.integers(-20, 20)), st.integers(0, 12)).map(
    lambda r: (r[0], r[0] + r[1]) if r[0] + r[1] <= MAX else (r[0] - r[1], r[0]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(exprs, small_exprs), st.fixed_dictionaries({v: ranges for v in VARS}),
       st.data())
def test_an_interval_bounds_the_value_and_rules_out_a_fault(e, env, data):
    known = interval(e, env)
    if known is None:
        return
    for _ in range(4):
        point = {v: data.draw(st.sampled_from(env[v]) | st.integers(*env[v])) for v in VARS}
        assert known[0] <= evaluate(e, point) <= known[1], (e, point)


wide = st.tuples(st.one_of(EDGE, st.integers(MIN, MAX)), st.one_of(EDGE, st.integers(MIN, MAX)))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["/", "%"]), st.one_of(ranges, wide.map(sorted).map(tuple)),
       st.one_of(st.integers(-9, 9), EDGE, st.integers(MIN, MAX)), st.data())
def test_division_by_a_constant_has_an_interval_that_holds(op, a, c, data):
    known = op_interval(op, a, (c, c))
    assert known is not None or c in (0, -1), (op, a, c)
    for x in (a[0], a[1], data.draw(st.integers(*a))):
        try:
            value = evaluate(BinOp(op, IntLit(x), IntLit(c)), {})
        except EvalError:
            assert known is None
            continue
        assert known is None or known[0] <= value <= known[1], (op, a, c, x)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([VarRef("x"), IntLit(3), BinOp("*", VarRef("x"), IntLit(2))]),
       st.integers(-3, 6), st.sampled_from(["+", "min"]), st.integers(1, 3), ranges)
def test_a_loop_range_holds_every_iteration(lower, extent, upper_op, step, x_range):
    # bounds over an enclosing variable x: a constant extent, or a clamp
    upper = (BinOp("+", lower, IntLit(extent)) if upper_op == "+"
             else Call("min", (BinOp("+", lower, IntLit(extent)), IntLit(4))))
    loop = ForLoop("j", lower, upper, step)
    trips, var = loop_range(loop, {"x": x_range})
    for x in range(x_range[0], x_range[1] + 1):
        try:
            lb, ub = evaluate(lower, {"x": x}), evaluate(upper, {"x": x})
        except EvalError:
            continue
        values = list(range(lb, ub, step))
        assert trips is None or trips == len(values)
        assert var is None or all(var[0] <= v <= var[1] for v in values)


def test_an_unsubstituted_copy_shares_its_expression_tuples():
    s = Assign("A", (VarRef("i"),), "+=", IntLit(1), "s1", 3, (("i", VarRef("i")),))
    for mapping in ({}, {"j": IntLit(0)}):
        c = subst_stmt(s, mapping)
        assert c == s and c is not s
    c = subst_stmt(s, {})
    assert c.index is s.index and c.orig_coords is s.orig_coords


# ---------------------------------------------------------------------------
# The static walk


def reference_walk(stmts, env) -> tuple[list[int], bool]:
    """Run `stmts`' control flow, valuing with `evaluate`: the statements,
    assignments and loop iterations executed, and whether a bound, guard,
    subscript or original coordinate faulted (the walk stops there)."""
    total = [0, 0, 0]

    def walk(stmts, env):
        for s in stmts:
            total[0] += 1
            if isinstance(s, Assign):
                total[1] += 1
                for e in (*s.index, *(x for r in array_reads(s.value) for x in r.index),
                          *(e for _, e in s.orig_coords)):
                    evaluate(e, env)
            elif isinstance(s, ForLoop):
                lb, ub = evaluate(s.lower, env), evaluate(s.upper, env)
                for v in range(lb, ub, s.step):
                    total[2] += 1
                    walk(s.body, {**env, s.var: v})
            elif isinstance(s, IfStmt):
                walk(s.then_body if evaluate(s.cond, env) != 0 else s.else_body or [], env)
            else:
                walk(s.body, env)
    try:
        walk(stmts, env)
    except EvalError:
        return total, True
    return total, False


@st.composite
def guarded_programs(draw):
    """A 2-deep nest like `test_properties`' with an `if` guard, triangular
    or clamped inner bounds, a divisor param that may be 0 and an outer
    loop near int64's ends, under one directive or none."""
    def pick(*options):
        return draw(st.sampled_from(options))

    def stmt():
        subs = ("0", "j", "j", "i - B", "j / Z", "i * 2 - B")
        return f"A[{pick(*subs)}, {pick(*subs)}] = A[{pick(*subs)}, 0] + i;"

    guard = pick(None, None, "j < i - B", "i * 2 > B", "j % Z == 0")
    body = stmt() if guard is None else f"if ({guard}) {stmt()} else {{ {stmt()} {stmt()} }}"
    step = draw(st.integers(1, 2))
    pragma = pick("", "reverse", "reverse", "loop(i) stripmine size(2)",
                  "loop(i,j) tile sizes(2,2)", "loop(i) unroll factor(2)", "loop(j) unroll factor(3)", "loop(i,j) collapse",
                  "loop(i,j) interchange permutation(j,i)", "loop(j) reverse")
    return (f"param B = {pick(0, 0, 2**62, MAX - 20)};\nparam Z = {pick(0, 1, 1)};\n"
            "array A[8,8] init random;\n"
            + (f"#pragma xform {pragma}\n" if pragma else "")
            + f"for (i = B; i < B + {draw(st.integers(0, 5)) * step}; i += {step})\n"
            f"  for (j = {pick('0', '0', 'i - B', '(i - B) / Z')}; "
            f"j < {pick('3', '3', 'i - B + 2', 'min(i - B, 4)')}; j += 1)\n    {body}\n")


@settings(max_examples=300, deadline=None)
@given(guarded_programs())
@example(f"param B = {2**62};\narray A[8,8] init random;\n#pragma xform reverse\n"  # a coordinate faults
         "for (i = B; i < B + 2; i += 1)\n  for (j = 0; j < 3; j += 1)\n    A[j, 0] = i;\n")
def test_the_static_walk_bounds_counts_and_proves_a_run(src):
    p = parse_named(src)
    programs = [strip_pragmas(p)]
    for pd in plan_pipeline(p).steps:
        try:
            programs.append(build_candidate(p, pd)[0])
        except TransformError:
            pass
    for q in programs:
        counts, bound, proved = step_counts(q.body, q.param_ranges(include_opaque=False))
        assert step_counts(q.body, q.param_ranges(include_opaque=False), exact_only=True)[0] \
            == counts, src
        walked, faulted = reference_walk(q.body, q.param_values(include_opaque=False))
        if bound is not None:
            assert all(b >= w for b, w in zip(bound, walked)), (src, bound, walked)
        if counts is not None:
            assert counts == bound and (faulted or list(counts) == walked), (src, counts, walked)
        assert not (proved and faulted), src


def test_a_walk_for_exact_counts_stops_where_they_fail(monkeypatch):
    p = parse_named("array A[8] init random;\nfor (i = 0; i < 8; i += 1) if (i < 2) A[i] = 1;\n"
                    "for (i = 0; i < 8; i += 1)\n  for (j = 0; j < 8; j += 1) A[j] = i;\n")
    env = p.param_ranges(include_opaque=False)
    seen = []
    real = lang.loop_range
    monkeypatch.setattr(lang, "loop_range", lambda loop, env: seen.append(loop) or real(loop, env))
    assert step_counts(p.body, env, exact_only=True) == (None, None, False)
    assert len(seen) == 1  # the first loop: the walk stops at its `if`
    seen.clear()
    assert step_counts(p.body, env) == (None, (90, 72, 80), True)
    assert len(seen) == 3

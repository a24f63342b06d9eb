"""The expression evaluator and the constant folder."""

import pytest
from hypothesis import given, settings, strategies as st

from xform.lang import (
    INT64_MAX, INT64_MIN, ArrayRead, BinOp, Call, EvalError, IntLit, VarRef,
    evaluate, flat_index, simplify, subexprs,
)

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

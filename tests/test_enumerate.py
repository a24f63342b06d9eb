"""The closure-compiled enumerator against the tree-walking reference: the
same instances, `steps` and access table, or the same exception and message,
on every region; the conflict graph built from the table against the one
built per instance; and no code compiled on the transform path."""

import builtins
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from xform import deps, plan_pipeline
from xform.deps import DepsError, _CapExceeded, _exact_set, enumerate_instances
from xform.lang import (
    INT64_MAX, INT64_MIN, AliasDecl, ArrayDecl, ArrayRead, Assign, BinOp, Call,
    EvalError, ForLoop, IfStmt, IntLit, ParamDecl, Program, VarRef, WhileLoop, strip_pragmas,
)
from xform.transforms import apply_pipeline, build_candidate

from conftest import parse_named
from reference_deps import reference_enumerate_instances, reference_graph, table
from test_conflict_graph import DGEMM16, nests

# N is a param, P an opaque one, q is bound nowhere; the loops bind i, j and
# N, so N is also a param shadowed by a loop variable
NAMES = ("i", "j", "N", "P", "q")
LITERALS = (0, 1, 2, 3, -1, 5, INT64_MAX, INT64_MIN, INT64_MAX - 1, INT64_MIN + 1, 2**62)
OPERATORS = ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&")
# 1-D, 2-D and 3-D arrays take the three address forms
DIMS = {"A": (4,), "B": (4, 4), "C": (2, 3, 2)}
# (lower, upper) bounds: small, empty, near both int64 ends, an opaque or an
# unbound upper bound, and (outermost only) 12,000 trips, past the step
# budget of caps 1 and 7
BOUNDS = ((IntLit(0), IntLit(3)), (IntLit(1), IntLit(4)), (IntLit(0), VarRef("N")),
          (IntLit(3), IntLit(0)), (VarRef("i"), BinOp("+", VarRef("i"), IntLit(2))),
          (IntLit(INT64_MAX - 2), IntLit(INT64_MAX)),
          (IntLit(INT64_MIN), IntLit(INT64_MIN + 2)),
          (IntLit(0), VarRef("P")), (IntLit(0), VarRef("q")), (IntLit(0), IntLit(12000)))


@st.composite
def regions(draw):
    """A program and its body built as a tree, so that names the parser
    would reject (unbound, read after their loop) reach the enumerator.
    Names are mostly those of enclosing loops, so most regions enumerate."""
    ids = itertools.count()

    def name(bound):
        if draw(st.integers(0, 24)):
            return draw(st.sampled_from(bound + ("N",)))
        return draw(st.sampled_from(NAMES))

    def expr(bound, depth=0):
        kind = draw(st.sampled_from(("lit", "var", "var", "bin", "bin", "minmax", "read",
                                     "disjoint") if depth < 2 else ("lit", "var")))
        if kind == "lit":
            return IntLit(draw(st.sampled_from(LITERALS)))
        if kind == "var":
            return VarRef(name(bound))
        if kind == "bin":
            return BinOp(draw(st.sampled_from(OPERATORS)), expr(bound, depth + 1),
                         expr(bound, depth + 1))
        if kind == "minmax":
            return Call(draw(st.sampled_from(("min", "max"))),
                        (expr(bound, depth + 1), expr(bound, depth + 1)))
        if kind == "read":
            return ArrayRead("A", (subscript(bound),))
        return Call("disjoint", (VarRef("A"), VarRef("B")))

    def subscript(bound):
        kind = draw(st.sampled_from(("var",) * 4 + ("plus", "plus", "lit", "expr")))
        if kind == "var":
            return VarRef(name(bound))
        if kind == "plus":
            return BinOp(draw(st.sampled_from(("+", "-"))), VarRef(name(bound)),
                         IntLit(draw(st.integers(-1, 2))))
        if kind == "lit":
            return IntLit(draw(st.integers(-1, 4)))
        return expr(bound, 1)

    def cond(bound):
        if draw(st.booleans()):
            return IntLit(draw(st.integers(0, 1)))
        return expr(bound)

    def body(depth, bound):
        return [stmt(depth, bound) for _ in range(draw(st.integers(0 if depth else 1, 3)))]

    def stmt(depth, bound):
        kind = draw(st.sampled_from(("assign",) * 4 + ("for",) * (3 + 9 * (depth == 0))
                                    + ("if", "if") + ("while",) * (depth == 1)
                                    if depth < 3 else ("assign",)))
        sid = f"s{next(ids)}"
        if kind == "assign":
            array = draw(st.sampled_from(sorted(DIMS)))
            index = tuple(subscript(bound) for _ in DIMS[array])
            coords = tuple((f"o{k}", subscript(bound)) for k in range(draw(st.integers(0, 2))))
            return Assign(array, index, draw(st.sampled_from(("=", "+="))), expr(bound),
                          sid, 0, coords)
        if kind == "for":
            lower, upper = draw(st.sampled_from(BOUNDS[:3] * 3 + (BOUNDS if depth == 0
                                                                   else BOUNDS[:-1])))
            var = draw(st.sampled_from(("i", "j", "N")))
            return ForLoop(var, lower, upper, draw(st.integers(1, 2)),
                           body(depth + 1, bound + (var,)), stmt_id=sid, name=f"L{sid}")
        if kind == "if":
            other = body(depth + 1, bound) if draw(st.booleans()) else None
            return IfStmt(cond(bound), body(depth + 1, bound), other, sid)
        return WhileLoop(cond(bound), body(depth + 1, bound), stmt_id=sid, name=f"L{sid}")

    program = Program([ArrayDecl(a, d) for a, d in DIMS.items()], [AliasDecl("A", "B")],
                      [ParamDecl("N", 3), ParamDecl("P", 5, opaque=True)], body(0, ()))
    return program, program.body


def outcome(enumerate_, program, scope, cap):
    """The enumeration, its step count and its access table, or the
    exception and its message."""
    try:
        out = enumerate_(program, scope, cap)
    except Exception as e:  # every exception type the enumerator raises is compared
        return type(e), str(e)
    return list(out), out.steps, table(program, scope, out)


@settings(max_examples=400, deadline=None)
@given(regions(), st.sampled_from((1, 7, 4096)))
def test_enumeration_matches_the_reference(region, cap):
    program, scope = region
    assert outcome(enumerate_instances, program, scope, cap) == \
        outcome(reference_enumerate_instances, program, scope, cap)


# Regions at the edges the random ones rarely hit exactly: each hand case
# tells apart a change of the order of the checks or of a bound by one
EDGES = [
    # steps: exactly the budget of cap 1 (10,100 iterations), then one past it
    "for (i = 0; i < 10100; i += 1)\n  if (i < 0) A[0] = 1;\n",
    "for (i = 0; i < 10101; i += 1)\n  if (i < 0) A[0] = 1;\n",
    # exactly 7 instances, then 8
    "for (i = 0; i < 7; i += 1)\n  A[i % 4] = 1;\n",
    "for (i = 0; i < 8; i += 1)\n  A[i % 4] = 1;\n",
    # the second and the eighth instance write out of bounds: the write's
    # subscript is checked before the instance cap
    "for (i = 0; i < 8; i += 1)\n  A[i * 5] = 1;\n",
    "for (i = 0; i < 8; i += 1)\n  A[i / 7 * 4 + i % 4] = 1;\n",
    # a read out of bounds before a write out of bounds, and all subscripts
    # valued before any bounds check
    "for (i = 0; i < 2; i += 1)\n  B[i + 4, 0] = B[0, i + 5];\n",
    "for (i = 0; i < 2; i += 1)\n  B[i + 4, 1 / i] = 0;\n",
    # int64 overflow: folded constants, a loop variable, a bound, a condition
    "A[9223372036854775807 + 1 - 9223372036854775807] = 0;\n",
    "for (i = 0; i < 2; i += 1)\n  if (9223372036854775807 + i > 0) A[i] = 1;\n",
    "for (i = 9223372036854775806; i < 9223372036854775807; i += 1)\n  A[i * 2 - i * 2] = 1;\n",
    "for (i = 0; i < 9223372036854775807 + 1; i += 1)\n  A[0] = 1;\n",
    "for (i = 0; i < 2; i += 1)\n  A[(0 - 9223372036854775807 - 1) / (i - 1) - (0 - 9223372036854775807 - 1)] = 1;\n",
    # zero divisors, folded and not
    "A[4 / 0] = 0;\n",
    "for (i = 0; i < 2; i += 1)\n  A[3 % (1 - i)] = 0;\n",
    # an else branch, min and max, and && that values both sides
    "for (i = 0; i < 4; i += 1)\n  if (i < 2 && 1 / (3 - i) >= 0) B[i, min(i, 2)] = 1; else B[max(i, 3), i] = 1;\n",
]


@pytest.mark.parametrize("cap", (1, 7, 4096))
@pytest.mark.parametrize("src", EDGES)
def test_edge_regions_match_the_reference(src, cap):
    p = parse_named("array A[4] init zero;\narray B[4,4] init zero;\n" + src)
    assert outcome(enumerate_instances, p, p.body, cap) == \
        outcome(reference_enumerate_instances, p, p.body, cap)


def test_original_coordinates_are_valued_after_the_cap():
    """A fault in an original coordinate of the instance past the cap is
    never raised: the cap is checked first."""
    p = parse_named("array A[4] init zero;\nfor (i = 0; i < 4; i += 1)\n  A[i] = 1;\n")
    assign = p.body[0].body[0]
    assign.orig_coords = (("i", BinOp("/", IntLit(1), BinOp("-", VarRef("i"), IntLit(1)))),)
    for cap in (1, 2, 4096):
        assert outcome(enumerate_instances, p, p.body, cap) == \
            outcome(reference_enumerate_instances, p, p.body, cap)
    assert outcome(enumerate_instances, p, p.body, 1)[0] is _CapExceeded


# The column path: an innermost loop of assignments runs an execution as
# columns, and any event in it replays the execution one trip at a time

HEADER = "array A[4] init zero;\narray B[4,4] init zero;\n"
# 10,698 loop iterations and no instance: the step budget of cap 7 (10,700)
# runs out at the third trip of the loop after it
STEPS = "for (o = 0; o < 10698; o += 1)\n  if (o < 0) A[0] = 1;\n"

COLUMNS = [
    # statement 2 faults at trip 0, statement 1 (valued first as a column) at trip 3
    ("for (i = 0; i < 4; i += 1) { A[i + 1] = 1; B[4 - i, 0] = 2; }", (4096,)),
    # cap 7 reached inside 3 statements x 4 trips, and caps around 12
    ("for (i = 0; i < 4; i += 1) { A[i] = 1; B[i, 0] = A[i]; B[0, i] += 1; }",
     (7, 11, 12, 4096)),
    # the step budget passed inside a column: with no fault, before the
    # fault of the third trip, and after the fault of the second
    (STEPS + "for (i = 0; i < 4; i += 1) A[i] = 1;", (7, 4096)),
    (STEPS + "for (i = 0; i < 4; i += 1) A[i * 2] = 1;", (7, 4096)),
    (STEPS + "for (i = 0; i < 4; i += 1) A[i * 4] = 1;", (7, 4096)),
    # a rectangular perfect nest runs as one column: a fault at its second
    # outer trip, the step budget passed inside it, and an inner loop whose
    # bounds read the outer variable, which runs as a column per outer trip
    ("for (i = 0; i < 3; i += 1)\n  for (j = 0; j < 4; j += 1) B[0, i + j] = 1;", (7, 4096)),
    (STEPS + "for (i = 0; i < 2; i += 1)\n  for (j = 0; j < 2; j += 1) A[j] = 1;", (7, 4096)),
    ("for (i = 0; i < 3; i += 1)\n  for (j = i; j < 4; j += 1) B[i, j] = B[j, i] + 1;",
     (7, 4096)),
    # an overflow at the last trip of a column
    ("for (i = 9223372036854775803; i < 9223372036854775807; i += 1) A[i + 2 - i] = 1;",
     (4096,)),
    # one address read twice in one instance, and written by other instances
    ("for (i = 0; i < 4; i += 1)\n  for (j = 0; j < 4; j += 1) B[i, j] = B[i, j] + B[i, j];",
     (4096,)),
    ("for (i = 0; i < 4; i += 1)\n  for (j = 0; j < 4; j += 1) A[j] = A[i] + A[i];", (4096,)),
]


@pytest.mark.parametrize("src, caps", COLUMNS)
def test_column_regions_match_the_reference(src, caps):
    p = parse_named(HEADER + src + "\n")
    for cap in caps:
        out = outcome(enumerate_instances, p, p.body, cap)
        assert out == outcome(reference_enumerate_instances, p, p.body, cap), cap
        if type(out[0]) is list:
            assert graphs(p, p.body, cap) == graphs(p, p.body, cap, reference=True)


def test_an_original_coordinate_faults_after_the_cap_check_in_a_column():
    """The second statement's original coordinate faults at trip 2 (the
    sixth instance): a cap of 5 stops the walk first, a cap of 6 meets the
    fault."""
    p = parse_named(HEADER + "for (i = 0; i < 4; i += 1) { A[i] = 1; B[i, 0] = 2; }\n")
    p.body[0].body[1].orig_coords = (
        ("i", BinOp("/", IntLit(1), BinOp("-", VarRef("i"), IntLit(2)))),)
    outcomes = {cap: outcome(enumerate_instances, p, p.body, cap) for cap in range(1, 10)}
    for cap, out in outcomes.items():
        assert out == outcome(reference_enumerate_instances, p, p.body, cap), cap
    assert outcomes[5][0] is _CapExceeded
    assert outcomes[6] == (EvalError, "division by zero")


def test_copies_of_one_statement_keep_their_class_increasing():
    """After an unroll, two copies of one statement run under the same loop
    names: one class, its positions in the order of execution."""
    p = parse_named(HEADER + "#pragma xform loop(j) unroll factor(2)\n"
                    "for (i = 0; i < 3; i += 1)\n  for (j = 0; j < 4; j += 1)\n"
                    "    B[i, j] = B[i, j] + 1;\n")
    cand, _ = build_candidate(strip_pragmas(p), plan_pipeline(p).steps[0])
    out = enumerate_instances(cand, cand.body)
    [((loops, _), (_, cols))] = out.classes.items()
    assert loops == ("i", "j") and cols[0] == list(range(12))
    assert [inst.orig for inst in out][:3] == [(("i", 0), ("j", 0)), (("i", 0), ("j", 1)),
                                               (("i", 0), ("j", 2))]
    assert outcome(enumerate_instances, cand, cand.body, 4096) == \
        outcome(reference_enumerate_instances, cand, cand.body, 4096)
    assert graphs(cand, cand.body) == graphs(cand, cand.body, reference=True)


# The conflict graph from the access table against the per-instance oracle


def graphs(program, scope, cap=4096, reference=False):
    """The linear, full and may-alias pairs of an exact set: built from the
    enumeration's access table, or per instance from the reference walk."""
    if reference:
        ds = reference_graph(program, reference_enumerate_instances(program, scope, cap))
    else:
        ds = _exact_set(program, enumerate_instances(program, scope, cap))
    return sorted(ds.pairs), ds.full_pairs, ds.alias_pairs


def _stripped(src):
    p = strip_pragmas(parse_named(src))
    return p, p.body


@settings(max_examples=300, deadline=None)
@given(st.one_of(regions(), nests().map(_stripped)))
def test_the_graph_from_the_table_matches_the_per_instance_oracle(region):
    program, scope = region
    try:
        built = graphs(program, scope)
    except (DepsError, EvalError, _CapExceeded):
        return
    assert built == graphs(program, scope, reference=True)


def test_transform_path_compiles_no_code(monkeypatch):
    """The dgemm M=16 pipeline enumerates once and never calls `compile` or
    `exec`."""
    calls = {"compile": 0, "exec": 0, "enumerate": 0}
    originals = {name: getattr(builtins, name) for name in ("compile", "exec")}
    enumerate_ = deps.enumerate_instances

    def counted(name, fn):
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return wrapper

    p = parse_named(DGEMM16)
    plan = plan_pipeline(p)
    for name, fn in originals.items():
        monkeypatch.setattr(builtins, name, counted(name, fn))
    monkeypatch.setattr(deps, "enumerate_instances", counted("enumerate", enumerate_))
    res = apply_pipeline(p, plan)
    monkeypatch.undo()
    assert [r.verdict.kind for r in res.reports] == ["always_valid"] * 4
    assert calls == {"compile": 0, "exec": 0, "enumerate": 1}

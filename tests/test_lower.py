"""The lowered interpreter against the tree-walking reference: the same final
memory, the same CSV rows and the same fault text on every program."""

import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from xform import apply_pipeline, interp, plan_pipeline
from xform.interp import RunFault, alias_bindings
from xform.lang import (
    INT64_MAX, INT64_MIN, Assign, BinOp, ForLoop, IntLit, Program, VarRef, strip_pragmas,
)
from xform.ir import name_loops
import xform.lower
from xform.lower import MAX_DEPTH, STEP_BUDGET, lower, source

import reference_interp
from conftest import corpus_names, load_corpus, parse_named
from test_properties import nest_programs

def step_budget(steps: int):
    """`lower.STEP_BUDGET` set to `steps` while a program is lowered and run:
    lowering reads it to decide where to take steps, and a run starts from it."""
    return mock.patch.object(xform.lower, "STEP_BUDGET", steps)


def outcome(run, program, **kw):
    """(snapshot, trace) of a run, or its fault text."""
    try:
        mem, trace = run(program, **kw)
    except RunFault as e:
        return str(e)
    return mem.snapshot(), trace


def assert_same_runs(program: Program, budgets=(10**7,), seed=3, offsets=(0,)):
    """Both interpreters under every alias binding, untraced and traced."""
    for binding in alias_bindings(program, offsets):
        for budget in budgets:
            kw = dict(seed=seed, alias_binding=binding)
            want = outcome(reference_interp.run, program, record_trace=False,
                           step_budget=budget, **kw)
            with step_budget(budget):
                got = outcome(interp.run, program, record_trace=False, **kw)
            assert got == want, (binding, budget)
    assert_same_rows(program, budgets, seed, offsets)


def csv_outcome(program, **kw):
    """(snapshot, rows) of a csv-mode run, or its fault text."""
    try:
        mem, rows = interp.run(program, **kw)
    except RunFault as e:
        return str(e)
    return mem.snapshot(), rows


def reference_csv_outcome(program, **kw):
    """The same from the reference's records and formatter."""
    try:
        mem, trace = reference_interp.run(program, **kw)
    except RunFault as e:
        return str(e)
    return mem.snapshot(), reference_interp.trace_csv(trace).splitlines()[1:]


def assert_same_rows(program: Program, budgets=(10**7,), seed=3, offsets=(0, 2)):
    """The csv lowering against the reference formatter, under every binding."""
    for budget in budgets:
        with step_budget(budget):
            lowered = lower(program, True)
            for binding in alias_bindings(program, offsets):
                kw = dict(seed=seed, alias_binding=binding)
                want = reference_csv_outcome(program, step_budget=budget, **kw)
                assert csv_outcome(lowered, **kw) == want, (binding, budget)


# ---------------------------------------------------------------------------
# Random programs: statements of every kind, every operator, literals near
# both int64 ends, subscripts that may leave the bounds, `disjoint` guards

LITERALS = (0, 0, 1, 2, 3, -1, -5, INT64_MAX, INT64_MIN, INT64_MAX - 2, INT64_MIN + 1, 2**62)
OPERATORS = ("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&")
HEADER = ("param N = 2;\narray A[6] init random;\narray B[3,4] init random;\n"
          "array C[5] init zero;\nmaybe_alias(A, C);\n")


def literal(v: int) -> str:
    return str(v) if v >= 0 else f"({v})"


@st.composite
def exprs(draw, scope, depth=2):
    kind = draw(st.sampled_from(("lit", "var", "read", "bin", "bin", "call", "disjoint", "twice")
                                if depth > 0 else ("lit", "var")))
    if kind == "lit":
        return literal(draw(st.sampled_from(LITERALS)))
    if kind == "var":
        return draw(st.sampled_from(scope + ["N"]))
    if kind == "read":
        if draw(st.booleans()):
            return f"A[{draw(subscripts(scope, depth - 1, 6))}]"
        return (f"B[{draw(subscripts(scope, depth - 1, 3))}, "
                f"{draw(subscripts(scope, depth - 1, 4))}]")
    if kind == "call":
        return (f"{draw(st.sampled_from(('min', 'max')))}({draw(exprs(scope, depth - 1))}, "
                f"{draw(exprs(scope, depth - 1))})")
    if kind == "disjoint":
        return "disjoint(A, C)"
    if kind == "twice":  # one array read twice, at one element or at two
        e = draw(subscripts(scope, depth - 1, 5))
        return f"(A[{e}] + A[{e}{draw(st.sampled_from(('', ' + 1')))}])"
    return (f"({draw(exprs(scope, depth - 1))} {draw(st.sampled_from(OPERATORS))} "
            f"{draw(exprs(scope, depth - 1))})")


@st.composite
def subscripts(draw, scope, depth, size):
    """Mostly clamped into the bounds, sometimes not."""
    small = draw(st.integers(min_value=-1, max_value=3))
    if scope and draw(st.integers(0, 3)) > 0:
        e = draw(st.sampled_from(scope)) + (f" + {small}" if small else "")
    elif draw(st.booleans()):
        e = str(abs(small))
    else:
        e = draw(exprs(scope, depth))
    return f"min(max({e}, 0), {size - 1})" if draw(st.integers(0, 4)) else e


@st.composite
def statements(draw, scope, depth):
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(("assign", "assign", "for", "if", "while", "block")
                                    if depth > 0 else ("assign",)))
        if kind == "assign":
            if draw(st.booleans()):
                array, size = draw(st.sampled_from((("A", 6), ("C", 5))))
                target = f"{array}[{draw(subscripts(scope, 1, size))}]"
            else:
                target = f"B[{draw(subscripts(scope, 1, 3))}, {draw(subscripts(scope, 1, 4))}]"
            op = draw(st.sampled_from(("=", "+=")))
            value = draw(exprs(scope))
            if op == "+=" and draw(st.booleans()):  # the target read as well
                value = f"({target} - {value})"
            out.append(f"{target} {op} {value};")
        elif kind == "for":
            var = f"v{len(scope)}"
            lower = draw(st.sampled_from(["0", "1", literal(INT64_MAX - 4), literal(INT64_MIN)]
                                         + scope))
            count = draw(st.integers(min_value=0, max_value=4))
            step = draw(st.sampled_from((1, 1, 2)))
            body = draw(statements(scope + [var], depth - 1))
            out.append(f"for ({var} = {lower}; {var} < {lower} + {count}; {var} += {step}) "
                       f"{{ {body} }}")
        elif kind == "if":
            cond = draw(exprs(scope))
            then = draw(statements(scope, depth - 1))
            other = f" else {{ {draw(statements(scope, depth - 1))} }}" if draw(st.booleans()) else ""
            out.append(f"if ({cond}) {{ {then} }}{other}")
        elif kind == "while":
            body = draw(statements(scope, depth - 1))
            cond = draw(st.sampled_from((f"C[4] < {draw(st.integers(0, 4))}",
                                         draw(exprs(scope, 1)))))
            out.append(f"while ({cond}) {{ C[4] += 1; {body} }}")
        else:
            out.append(f"{{ {draw(statements(scope, depth - 1))} }}")
    return "\n".join(out)


@st.composite
def programs(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(nest_programs())
    return HEADER + draw(statements([], 3)) + "\n"


@settings(max_examples=400, deadline=None)
@given(programs(), st.sampled_from((3, 17, 60, 400, 5000, 5000)), st.integers(0, 5))
def test_lowered_runs_match_the_reference(src, budget, seed):
    assert_same_runs(parse_named(src), budgets=(budget,), seed=seed, offsets=(0, 2))


@settings(max_examples=200, deadline=None)
@given(programs(), st.data(), st.integers(0, 5))
def test_budgets_around_the_static_step_count_match_the_reference(src, data, seed):
    # a counted program runs without budget steps when the budget covers its
    # T steps, and per-step-checked below that: the two meet at T
    program = parse_named(src)
    steps = source(program, False).steps
    assume(steps is not None)
    budget = data.draw(st.integers(0, steps + 1), label="budget")
    assert_same_runs(program, budgets=sorted({budget, max(steps - 1, 0), steps, steps + 1}),
                     seed=seed, offsets=(0, 2))


@settings(max_examples=300, deadline=None)
@given(programs(), st.integers(0, 5))
def test_csv_rows_match_the_reference_formatter(src, seed):
    assert_same_rows(parse_named(src), budgets=(3, 60, 5000), seed=seed)


# ---------------------------------------------------------------------------
# Deterministic: the corpus and the dgemm pipeline, before and after


def originals_and_results(sizes=(8, 17, 32)):
    sources = [(name, load_corpus(name)) for name in corpus_names()]
    dgemm = load_corpus("05_dgemm.loop")  # M = 16
    sources += [(f"dgemm{m}", dgemm.replace("16", str(m))) for m in sizes]
    for name, src in sources:
        p = parse_named(src)
        yield name, "original", strip_pragmas(p)
        for mode in ("default", "fallback", "force"):
            res = apply_pipeline(p, plan_pipeline(p), safety_override=mode)
            if res.error is None:
                yield name, mode, res.program


@pytest.mark.parametrize("program", [pytest.param(p, id=f"{name}-{mode}")
                                     for name, mode, p in originals_and_results()])
def test_corpus_and_dgemm_runs_match_the_reference(program):
    assert_same_runs(program, seed=5)


@pytest.mark.parametrize("program", [pytest.param(p, id=f"{name}-{mode}")
                                     for name, mode, p in originals_and_results((8, 17))])
def test_corpus_and_dgemm_csv_rows_match_the_reference(program):
    assert_same_rows(program, seed=5)


# ---------------------------------------------------------------------------
# What a naive lowering gets wrong


def test_unbound_and_shadowed_names_match_the_reference():
    # built directly: the parser rejects both shapes
    i, n = VarRef("i"), VarRef("N")
    inner = ForLoop("i", IntLit(0), IntLit(2), 1, [Assign("A", (i,), "+=", n)], line=3)
    outer = ForLoop("i", IntLit(1), IntLit(3), 1, [inner, Assign("A", (i,), "+=", IntLit(5))],
                    line=2)
    after = Assign("A", (IntLit(0),), "=", BinOp("+", n, i), line=6)
    p = parse_named("param N = 7;\narray A[4] init random;\n")
    p.body = [outer]
    p = name_loops(p)
    assert_same_runs(p)  # the outer i again after the inner loop
    p.body.append(after)
    assert_same_runs(p)
    with pytest.raises(RunFault, match=r"^unbound variable 'i' \(line 6\)$"):
        interp.run(p)


def test_a_shadowed_loop_above_the_depth_limit_matches_the_reference():
    # the second loop reuses the first one's name; the split below it must
    # still see the first one's value, which the trace records
    body = [Assign("A", (VarRef("i0"),), "+=", IntLit(1), line=MAX_DEPTH + 5)]
    for k in reversed(range(MAX_DEPTH + 3)):
        body = [ForLoop("i0" if k < 2 else f"i{k}", IntLit(0), IntLit(2 if k < 2 else 1), 1,
                        body, line=2 + k)]
    p = parse_named("array A[4] init random;\n")
    p.body = body
    assert_same_runs(name_loops(p))


@pytest.mark.parametrize("last", [9223372036854775806, 9223372036854775807])  # last faults
@pytest.mark.parametrize("depth", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 2 * MAX_DEPTH + 3])
def test_bodies_past_the_depth_limit_match_the_reference(depth, last):
    loops = "".join(f"for (i{k} = 0; i{k} < {1 + k % 2}; i{k} += 1)\n" for k in range(depth))
    p = parse_named("array A[4] init random;\n" + loops
                    + f"  if (i1 < 1) A[i{depth - 1}] += i0 + 1; else A[3] = {last} + i1;\n")
    assert_same_runs(p, budgets=(10**7, 2 * depth + 5))
    if last == 9223372036854775807:
        with pytest.raises(RunFault, match=rf"^int64 overflow \(line {depth + 2}\)$"):
            interp.run(p)


@pytest.mark.parametrize("value, fault", [
    (IntLit(1), "int64 overflow"),
    (BinOp("/", IntLit(1), BinOp("-", VarRef("i"), VarRef("i"))), "division by zero"),
])
def test_original_coordinates_are_valued_after_the_value(value, fault):
    # a transformation writes the original coordinates as expressions, which
    # can fault; the value's own fault comes first
    p = parse_named("array A[4] init random;\nfor (i = 1; i < 3; i += 1)\n  A[i] = 0;\n")
    s = p.body[0].body[0]
    s.value, s.orig_coords = value, (("i", BinOp("+", VarRef("i"), IntLit(INT64_MAX))),)
    assert_same_runs(p)
    with pytest.raises(RunFault, match=rf"^{fault} \(line 3\)$"):
        interp.run(p)


@pytest.mark.parametrize("value, sides", [("1 + B[i]", 2), ("B[i] + 1", 1)])
def test_equivalent_lowers_each_program_once_and_runs_every_trial(monkeypatch, value, sides):
    # equal programs have one outcome: one lowering and one run per trial and binding
    src = ("array A[4] init random;\narray B[4] init random;\nmaybe_alias(A, B);\n"
           "for (i = 0; i < 4; i += 1)\n  A[i] = {};\n")
    p1, p2 = parse_named(src.format("B[i] + 1")), parse_named(src.format(value))
    assert len(alias_bindings(p1)) == 2 and (p1 == p2) == (sides == 1)
    lowered, runs = [], Counter()
    real_lower, real_run = interp.lower, interp.run

    def counting_lower(program, traced):
        lowered.append(program)
        return real_lower(program, traced)

    def counting_run(program, *args, **kw):
        runs[id(program)] += 1
        return real_run(program, *args, **kw)

    monkeypatch.setattr(interp, "lower", counting_lower)
    monkeypatch.setattr(interp, "run", counting_run)
    assert interp.equivalent(p1, p2, trials=20)
    assert [id(p) for p in lowered] == [id(p1), id(p2)][:sides]
    assert sorted(runs.values()) == [20 * 2] * sides  # sides x 20 trials x 2 bindings


# ---------------------------------------------------------------------------
# Checks the loop ranges prove away, and budget steps taken only past the budget


def dgemm_nest(m: int):
    return strip_pragmas(parse_named(load_corpus("05_dgemm.loop").replace("16", str(m))))


def test_the_checked_form_returns_the_budget_minus_the_step_count():
    p = dgemm_nest(8)
    steps = source(p, False).steps
    assert steps == 1 + 8 + 8 * (1 + 8) + 64 * (1 + 8) + 512
    assert lower(p, False).fn(interp.Memory(p), 10**9, None) == 10**9  # no budget step
    with step_budget(steps - 1):
        checked = lower(p, False).fn
    assert checked(interp.Memory(p), 10**9, None) == 10**9 - steps


def test_dgemm_runs_with_no_bounds_check_and_no_budget_step():
    for traced in (False, True):
        src = source(dgemm_nest(32), traced)
        assert "out of bounds" not in src.text and "bud -= 1" not in src.text
        assert src.steps == 1 + 32 + 32 * 33 + 32 * 32 * 33 + 32**3
        assert src.proved == 6 and src.checks == 2  # the two value overflows stay


@pytest.mark.parametrize("budget", [10**7, 17, 16])  # the fault is the 17th step
def test_an_off_by_one_subscript_still_faults_at_the_last_iteration(budget):
    p = parse_named("array A[8] init random;\nfor (i = 0; i < 8; i += 1)\n"
                    "  A[i] = A[i + 1] + 1;\n")
    assert "out of bounds" in source(p, False).text
    assert_same_runs(p, budgets=(budget,))
    message = r"^index 8 out of bounds for A\[8\] \(line 3\)$" if budget >= 17 \
        else r"^step budget exceeded \(line 3\)$"
    with step_budget(budget), pytest.raises(RunFault, match=message):
        interp.run(p)


def counted(trips: int, before: str = "") -> Program:
    """A counted program of T = 1 + 3 * trips steps, plus one per line of
    `before`; its last step is `A[1] = i` (line 4 without `before`) at the
    last trip."""
    return parse_named(f"array A[2] init random;\n{before}for (i = 0; i < {trips}; i += 1) {{\n"
                       "  A[0] = i;\n  A[1] = i;\n}\n")


@pytest.mark.parametrize("program, over", [
    (counted(3333333), False),  # T = 10**7 = STEP_BUDGET
    (counted(3333333, "A[0] = 0;\n"), True),  # T = STEP_BUDGET + 1
])
def test_a_counted_program_takes_budget_steps_only_past_the_budget(program, over):
    src = source(program, False)
    assert src.steps == STEP_BUDGET + over
    assert ("bud -= 1" in src.text) == over


def test_one_step_past_the_budget_compiles_once_and_faults_at_the_last_step(monkeypatch):
    p = counted(13)  # T = 40
    compiled = []

    def counting_compile(*args):
        compiled.append(args)
        return compile(*args)

    monkeypatch.setattr(xform.lower, "compile", counting_compile, raising=False)
    with step_budget(39):
        src = source(p, False)
        assert src.steps == 40 and "bud -= 1" in src.text
        lowered = lower(p, False)
        mem = interp.Memory(p, seed=4)
        with pytest.raises(RunFault, match=r"^step budget exceeded \(line 4\)$"):
            interp.run(lowered, record_trace=False, memory=mem)
    assert len(compiled) == 1
    walk = reference_interp._Run(p, None, 4, None, 39, {})
    with pytest.raises(RunFault, match=r"^step budget exceeded \(line 4\)$"):
        walk.exec_body(p.body)
    assert mem.snapshot() == walk.snapshot() and mem.array_values("A") == (12, 11)


def test_a_statement_checks_each_unproved_subscript_once():
    p = parse_named("array A[6] init random;\nfor (i = 0; i < 8; i += 1)\n"
                    "  A[i] += A[i] + A[i];\n")
    src = source(p, False)
    assert src.text.count("if not 0 <= v_i < 6:") == 1 and src.checks == 1 + 2
    assert_same_runs(p)
    with pytest.raises(RunFault, match=r"^index 6 out of bounds for A\[6\] \(line 3\)$"):
        interp.run(p)


def statement_temporaries(text: str) -> list[list[str]]:
    """The values of each statement's temporaries, which restart at t1."""
    out: list[list[str]] = []
    for line in text.splitlines():
        name, _, value = line.strip().partition(" = ")
        if name == "t1":
            out.append([])
        if name.startswith("t") and name[1:].isdigit():
            out[-1].append(value)
    return out


def hoisted_values(text: str) -> list[str]:
    """The values of the hoisted lines, `h<k> = value`, in text order."""
    return [line.strip().partition(" = ")[2] for line in text.splitlines()
            if re.fullmatch(r"h\d+", line.strip().partition(" = ")[0])]


def test_a_statement_computes_each_operation_once():
    # the unrolled dgemm indexes C[i2 + 1, j2 + 2] and A[i2 + 1, k2] in one
    # statement, and its other statements use `v_i2 + 1` and `v_j2 + 2` too:
    # each is hoisted, computed once per trip of its loop and proved once
    p = parse_named(load_corpus("05_dgemm.loop"))
    final = apply_pipeline(p, plan_pipeline(p), safety_override="fallback").program
    for traced in (False, True):
        src = source(final, traced)
        hoisted = hoisted_values(src.text)
        assert {"v_i2 + 1", "v_j2 + 2"} <= set(hoisted)
        assert len(set(hoisted)) == len(hoisted), hoisted
        values = statement_temporaries(src.text)
        assert all(len(set(v)) == len(v) for v in values), values
    # 71 proved before the statement's CSE, 61 before hoisting: 6 more repeats
    assert (src.checks, src.proved) == (16, 55)
    assert_same_runs(final, seed=5)


@pytest.mark.parametrize("value", [
    "(A[i] + 9223372036854775707) * (A[i] + 9223372036854775707) + i",  # faults from A[i] > 100
    "A[i + 1] + A[i + 1] * (i + 1) + min(i + 1, 3) / (i - 2)",
])
def test_a_repeated_operation_faults_and_traces_as_written(value):
    p = parse_named(f"array A[6] init random;\nfor (i = 0; i < 5; i += 1)\n  A[i] = {value};\n")
    assert all(len(set(v)) == len(v) for v in statement_temporaries(source(p, False).text))
    assert_same_runs(p, seed=5)


# ---------------------------------------------------------------------------
# Hoisting: what moves to a loop's head cannot fault and reads no memory


def test_an_overflowing_value_in_a_loop_of_no_trips_does_not_move():
    # i + 5 overflows for the last i's, so it stays in the inner loop, which never runs
    p = parse_named("array A[4] init random;\n"
                    "for (i = 9223372036854775800; i < 9223372036854775807; i += 1)\n"
                    "  for (j = 0; j < 0; j += 1)\n    A[0] = i + 5;\n")
    text = source(p, False).text
    assert "v_i + 5" in text and hoisted_values(text) == []
    assert_same_runs(p)
    interp.run(p)  # no fault


def test_a_guarded_division_stays_under_its_guard():
    p = parse_named("array A[4] init random;\nfor (i = 0; i < 4; i += 1)\n"
                    "  if (i != 0) A[i] = 10 / i;\n")
    text = source(p, False).text
    assert hoisted_values(text) == ["1 if v_i != 0 else 0"]  # the condition cannot fault
    guard, divide = text.index("if h1 != 0:"), text.index("idiv(10, v_i)")
    assert guard < divide
    assert_same_runs(p)


def test_a_traced_nest_past_the_depth_limit_hoists_within_each_function():
    # the innermost statement reads variables of loops outside its function:
    # their values move to that function's head, never across the call
    depth = MAX_DEPTH + 4
    trips = [2 if k in (0, 1, depth - 1) else 1 for k in range(depth)]
    loops = "".join(f"for (i{k} = 0; i{k} < {t}; i{k} += 1)\n" for k, t in enumerate(trips))
    p = parse_named("array A[4,4] init random;\n" + loops
                    + f"  A[i0 + i1, i{depth - 1}] += i0 * 2 + i1;\n")
    for traced in (False, True):
        text = source(p, traced).text
        functions = text.split("\ndef ")
        assert len(functions) == 2
        for f in functions:  # each function assigns every hoisted name it reads
            assert set(re.findall(r"\bh\d+\b", f)) == set(re.findall(r"^ *(h\d+) = ", f, re.M))
        # the row's run up to the innermost coordinate moves too
        assert any(v.startswith('f"s') for v in hoisted_values(functions[1])) == traced
    assert_same_runs(p)


@pytest.mark.parametrize("program", [pytest.param(p, id=f"{name}-{mode}")
                                     for name, mode, p in originals_and_results((8, 32))])
def test_no_hoisted_line_checks_reads_memory_or_takes_a_step(program):
    for traced in (False, True):
        for value in hoisted_values(source(program, traced).text):
            assert not re.search(r"raise|EvalError|\bc_|\bb_|mem\.|disjoint|bud|trace", value), value

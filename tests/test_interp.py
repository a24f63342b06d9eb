"""Interpreter semantics: determinism, traces, faults, alias bindings."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from xform import equivalent, run
from xform.interp import Memory, RunFault, _random_cells, alias_bindings

from conftest import parse_named, run_pipeline
from reference_interp import order_preserved, parallel_consistent, trace_csv
from reference_interp import run as reference_run


def test_simple_loop_memory_and_trace():
    p = parse_named("array A[3] init zero;\nfor (i = 0; i < 3; i += 1) A[i] = i;\n")
    mem, trace = run(p)
    assert mem.array_values("A") == (0, 1, 2)
    assert trace == ["s1,i=0,,A[0]", "s1,i=1,,A[1]", "s1,i=2,,A[2]"]


def test_determinism():
    p = parse_named("array A[6] init random;\narray B[6] init random;\n"
                    "for (i = 0; i < 6; i += 1) A[i] = A[i] * B[i];\n")
    m1, t1 = run(p, seed=42)
    m2, t2 = run(p, seed=42)
    assert m1.snapshot() == m2.snapshot()
    assert t1 == t2
    m3, _ = run(p, seed=43)
    assert m3.snapshot() != m1.snapshot()


def test_random_init_range():
    p = parse_named("array A[64] init random;\n")
    mem, _ = run(p, seed=7)
    assert all(-100 <= v <= 100 for v in mem.array_values("A"))


def test_while_loop_and_step_budget():
    p = parse_named("array A[1] init zero;\nwhile (A[0] < 5) A[0] += 1;\n")
    mem, _ = run(p)
    assert mem.array_values("A") == (5,)
    p2 = parse_named("array A[1] init zero;\nwhile (1) A[0] = 0;\n")
    with pytest.raises(RunFault, match="budget"):
        run(p2, step_budget=1000)


def test_arithmetic_faults():
    p = parse_named("array A[1] init zero;\nA[0] = 1 / 0;\n")
    with pytest.raises(RunFault, match="division"):
        run(p)
    p2 = parse_named("array A[1] init zero;\n"
                     "A[0] = 9223372036854775807;\nA[0] += 1;\n")
    with pytest.raises(RunFault, match="overflow"):
        run(p2)



def test_division_overflow_faults():
    p = parse_named("array A[1] init zero;\n"
                    "A[0] = (0 - 9223372036854775807 - 1) / (0 - 1);\n")
    with pytest.raises(RunFault, match=r"int64 overflow \(line 2\)"):
        run(p)


@pytest.mark.parametrize("src, message", [
    ("array A[2] init zero;\nA[0] = 9223372036854775807;\nA[0] += 1;\n",
     "int64 overflow (line 3)"),
    ("array A[4] init zero;\nparam Z = 0;\nfor (i = 0; i < 4 / Z; i += 1)\n  A[i] = i;\n",
     "division by zero (line 3)"),
    ("array A[3] init zero;\nfor (i = 0; i < 3; i += 1)\n  A[i] = A[i + 1];\n",
     "index 3 out of bounds for A[3] (line 3)"),
    ("array A[4] init random;\nfor (i = 0; i < 4; i += 1)\n"
     "  if (A[i] / (i - 2) > 0)\n    A[i] = 1;\n",
     "division by zero (line 3)"),
    # the condition faults once the body has run: the while-loop's line
    ("array A[2] init zero;\nA[0] = 1;\nwhile (10 / A[0] > 5)\n  A[0] = A[0] - 1;\n",
     "division by zero (line 3)"),
])
def test_fault_names_the_faulting_statement_line(src, message):
    with pytest.raises(RunFault) as info:
        run(parse_named(src))
    assert str(info.value) == message

def test_out_of_bounds_faults():
    p = parse_named("array A[3] init zero;\nfor (i = 0; i < 4; i += 1) A[i] = 0;\n")
    with pytest.raises(RunFault, match="out of bounds"):
        run(p)


def test_division_truncates_toward_zero():
    p = parse_named("array A[4] init zero;\n"
                    "A[0] = 7 / 2;\nA[1] = 0 - 7 / 2;\nA[2] = 7 % 3;\nA[3] = 0 - (7 % 3);\n")
    mem, _ = run(p)
    assert mem.array_values("A") == (3, -3, 1, -1)


def test_min_max_and_comparisons():
    p = parse_named("array A[4] init zero;\n"
                    "A[0] = min(3, 5);\nA[1] = max(3, 5);\nA[2] = (2 < 3) && (3 <= 3);\n"
                    "A[3] = (2 == 3) != (4 > 5);\n")
    mem, _ = run(p)
    assert mem.array_values("A") == (3, 5, 1, 0)


def test_equivalence_program_with_itself():
    p = parse_named("array A[8] init random;\n"
                    "for (i = 0; i < 8; i += 1) A[i] = A[i] + i;\n")
    assert equivalent(p, p, trials=5, seed=0)


def test_equivalence_detects_divergence():
    p1 = parse_named("array A[8] init random;\n"
                     "for (i = 1; i < 8; i += 1) A[i] = A[i-1] + 1;\n")
    p2 = parse_named("array A[8] init random;\n"
                     "for (i = 1; i < 8; i += 1) A[8-i] = A[7-i] + 1;\n")
    rep = equivalent(p1, p2, trials=20, seed=0)
    assert not rep and "A[" in rep.detail


def test_equivalent_draws_one_memory_per_trial_and_binding(monkeypatch):
    src = ("array A[4] init random;\narray B[4] init random;\nmaybe_alias(A, B);\n"
           "for (i = 0; i < 4; i += 1)\n  A[i] = B[i] + 1;\n")
    drawn, real = [], Memory.__init__

    def counting(self, *args, **kw):
        drawn.append(args)
        real(self, *args, **kw)
    monkeypatch.setattr(Memory, "__init__", counting)
    assert equivalent(parse_named(src), parse_named(src), trials=20)
    assert len(drawn) == 20 * 2  # trials x bindings


def test_alias_bindings_enumeration():
    p = parse_named("array A[4] init zero;\narray B[4] init zero;\narray C[4] init zero;\n"
                    "maybe_alias(A, B);\nmaybe_alias(A, C);\n")
    assert len(alias_bindings(p)) == 4  # 2^2


def test_overlapping_binding_shares_storage():
    p = parse_named("array A[4] init zero;\narray B[4] init zero;\nmaybe_alias(A, B);\n"
                    "for (i = 0; i < 4; i += 1) A[i] = i + 1;\n")
    mem, _ = run(p, alias_binding={("A", "B"): 0})
    assert mem.array_values("B") == (1, 2, 3, 4)
    assert not mem.disjoint("A", "B")
    mem2, _ = run(p, alias_binding={("A", "B"): None})
    assert mem2.array_values("B") == (0, 0, 0, 0)
    assert mem2.disjoint("A", "B")


def test_overlap_with_offset():
    p = parse_named("array A[4] init zero;\narray B[4] init zero;\nmaybe_alias(A, B);\n"
                    "A[2] = 9;\n")
    mem, _ = run(p, alias_binding={("A", "B"): 2})
    assert mem.array_values("B")[0] == 9


def test_rtc_guard_picks_fallback_under_overlap():
    p, res = run_pipeline(open("tests/corpus/23_rtc_alias.loop").read())
    from xform.lang import strip_pragmas
    orig = strip_pragmas(p)
    for binding in alias_bindings(p):
        m1, _ = run(orig, seed=11, alias_binding=binding)
        m2, _ = run(res.program, seed=11, alias_binding=binding)
        assert m1.snapshot() == m2.snapshot()


def test_order_preserved_requires_exact_sequence():
    p = parse_named("array A[3] init zero;\nfor (i = 0; i < 3; i += 1) A[i] = i;\n")
    _, t = reference_run(p)
    assert order_preserved(t, t)
    assert not order_preserved(t, t[::-1])


def test_parallel_consistent_empty_loop():
    p = parse_named("array A[1] init zero;\nfor (i = 5; i < 5; i += 1) A[0] = i;\n")
    p.body[0].parallel = True
    assert parallel_consistent(p, "i", trials=3, seed=0)


def test_trace_csv_format():
    p = parse_named("array A[2,2] init zero;\n"
                    "for (i = 0; i < 2; i += 1)\n  for (j = 0; j < 2; j += 1)\n"
                    "    A[i,j] += i;\n")
    _, t = reference_run(p)
    lines = trace_csv(t).splitlines()
    assert run(p)[1] == lines[1:]
    assert lines[0] == "stmt,iter_vec,reads,writes"
    assert lines[1] == "s2,i=0;j=0,A[0],A[0]"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 300))
def test_random_cells_are_the_per_cell_randint_draws(seed, total):
    drawn, per_cell = random.Random(seed), random.Random(seed)
    assert _random_cells(drawn, total) == [per_cell.randint(-100, 100) for _ in range(total)]
    assert drawn.getstate() == per_cell.getstate()


def test_memory_fills_random_arrays_in_declaration_order():
    p = parse_named("array A[3,4] init random;\narray Z[5] init zero;\n"
                    "array B[7] init random;\nfor (i = 0; i < 1; i += 1) Z[i] = 1;\n")
    rng = random.Random(9)
    a = [rng.randint(-100, 100) for _ in range(12)]
    b = [rng.randint(-100, 100) for _ in range(7)]
    assert Memory(p, seed=9).snapshot() == {"A": tuple(a), "Z": (0,) * 5, "B": tuple(b)}

"""Interpreter semantics: determinism, traces, faults, alias bindings."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from xform import equivalent, run
from xform.interp import EquivalenceReport, Memory, RunFault, _random_cells, alias_bindings
from xform.lang import clone_program
from xform.lower import lower

from conftest import load_corpus, parse_named, run_pipeline
from reference_interp import order_preserved, parallel_consistent, trace_csv
from reference_interp import run as reference_run
from test_lower import step_budget


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
    with step_budget(1000), pytest.raises(RunFault, match="budget"):
        run(p2)


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
    laid, drawn = [], []
    real_init, real_cells = Memory.__init__, Memory._cells

    def laying(self, *args, **kw):
        laid.append(args)
        real_init(self, *args, **kw)

    def drawing(self, seed):
        drawn.append(seed)
        return real_cells(self, seed)
    monkeypatch.setattr(Memory, "__init__", laying)
    monkeypatch.setattr(Memory, "_cells", drawing)
    assert equivalent(parse_named(src), parse_named(src), trials=20)
    assert len(drawn) == 20 * 2  # trials x bindings
    assert len(laid) == 2  # one layout per binding


# the alias chains and overlaps that a layout places: A~B and B~C put three
# arrays in one segment, and a zero array drawn after a random one clears the
# cells they share
ALIAS_CHAIN = ("array A[6] init random;\narray B[2,3] init zero;\narray C[5] init random;\n"
               "array D[3] init random;\nmaybe_alias(A, B);\nmaybe_alias(B, C);\n"
               "for (i = 0; i < 5; i += 1)\n  C[i] = A[i] + D[i % 3];\n")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([load_corpus("23_rtc_alias.loop"), ALIAS_CHAIN]),
       st.integers(0, 2**31), st.integers(0, 2**31))
def test_drawn_memory_is_the_memory_its_seed_builds(src, first, seed):
    p = parse_named(src)
    for binding in alias_bindings(p, offsets=(0, 2)):
        layout = Memory(p, binding, first)
        run(p, record_trace=False, memory=layout)  # a run changes the cells, not the layout
        drawn, fresh = layout.draw(seed), Memory(p, binding, seed)
        assert drawn.snapshot() == fresh.snapshot()
        assert drawn.segments == fresh.segments
        assert (drawn.views, drawn.seed, drawn.binding) == (fresh.views, fresh.seed, fresh.binding)


def test_copies_and_draws_share_no_cells_with_their_memory():
    p = parse_named(ALIAS_CHAIN)
    for binding in alias_bindings(p, offsets=(0, 2)):
        mem = Memory(p, binding, 5)
        before = {s: list(cells) for s, cells in mem.segments.items()}
        for new, seed in ((mem.copy(), 5), (mem.draw(9), 9)):
            assert new.seed == seed and new.views is mem.views
            shared = set(map(id, new.segments.values())) & set(map(id, mem.segments.values()))
            assert not shared
            for cells in new.segments.values():
                cells[:] = [1000] * len(cells)
            assert mem.segments == before and mem.seed == 5
        assert mem.copy().segments == before


def _two_sided(p1, p2, trials: int, seed: int) -> EquivalenceReport:
    """`equivalent` as two runs of a fresh memory per trial and binding."""
    master = random.Random(seed)
    seeds = [master.randrange(2**31) for _ in range(max(trials, 1))]
    low1, low2 = lower(p1, False), lower(p2, False)
    faulted = 0
    for t, s in enumerate(seeds):
        both = False
        for binding in alias_bindings(p1):
            outcomes = []
            for low in (low1, low2):
                try:
                    outcomes.append(run(low, s, binding, record_trace=False)[0].snapshot())
                except RunFault as e:
                    outcomes.append(str(e).rsplit(" (line ", 1)[0])
            if outcomes[0] != outcomes[1]:
                return EquivalenceReport(False, t + 1, "differ")
            both |= isinstance(outcomes[0], str)
        faulted += both
    return EquivalenceReport(True, len(seeds), faulted=faulted)


@pytest.mark.parametrize("src", [
    load_corpus("23_rtc_alias.loop"), load_corpus("24_while_reverse.loop"), ALIAS_CHAIN,
    # faults where the drawn A[0] is a multiple of 3
    "array A[4] init random;\nfor (i = 0; i < 4; i += 1)\n  A[i] = 10 / (A[0] % 3) + i;\n",
])
def test_equal_programs_report_what_two_runs_report(src):
    p = parse_named(src)
    report = equivalent(p, clone_program(p), trials=12, seed=3)
    assert report == _two_sided(p, clone_program(p), trials=12, seed=3)
    if "10 /" in src:
        assert 0 < report.faulted < report.trials


def test_alias_bindings_enumeration():
    p = parse_named("array A[4] init zero;\narray B[4] init zero;\narray C[4] init zero;\n"
                    "maybe_alias(A, B);\nmaybe_alias(A, C);\n")
    assert len(alias_bindings(p)) == 4  # 2^2


def nested_bindings(program, offsets):
    """The nested loop that `alias_bindings` replaced."""
    pairs = [(a.first, a.second) for a in program.aliases]
    bindings = [{}]
    for pair in pairs:
        new = []
        for b in bindings:
            for choice in (None,) + tuple(offsets):
                nb = dict(b)
                nb[pair] = choice
                new.append(nb)
        bindings = new
    return bindings


@pytest.mark.parametrize("offsets", [(0,), (0, 2)])
@pytest.mark.parametrize("pairs", range(4))
def test_alias_bindings_keep_the_order_of_the_nested_loop(pairs, offsets):
    aliases = ["maybe_alias(A, B);", "maybe_alias(A, C);", "maybe_alias(B, D);"][:pairs]
    p = parse_named("".join(f"array {a}[4] init zero;\n" for a in "ABCD")
                    + "".join(f"{al}\n" for al in aliases))
    got = [list(b.items()) for b in alias_bindings(p, offsets)]
    assert got == [list(b.items()) for b in nested_bindings(p, offsets)]
    assert len(got) == (1 + len(offsets)) ** pairs


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

"""Safety-matrix conformance and verdict classification."""

import pytest
from hypothesis import given, settings, strategies as st

from xform import equivalent
from xform.deps import compute_dependences
from xform.lang import strip_pragmas
from xform.legality import (
    ALWAYS_VALID, HARD_ERROR, IMPOSSIBLE, INVALID, KEEP_ORIGINAL, TRANSFORM,
    TRANSFORM_WITH_RTC, VALID_WITH_RTC, Verdict, resolve,
)

from conftest import parse_named, run_pipeline
from reference_deps import judge_marked


# the full verdict x mode matrix, required=False
EXPECTED = {
    (ALWAYS_VALID, "default"): TRANSFORM,
    (ALWAYS_VALID, "fallback"): TRANSFORM,
    (ALWAYS_VALID, "force"): TRANSFORM,
    (VALID_WITH_RTC, "default"): TRANSFORM,       # applied without a check
    (VALID_WITH_RTC, "fallback"): TRANSFORM_WITH_RTC,
    (VALID_WITH_RTC, "force"): KEEP_ORIGINAL,
    (INVALID, "default"): TRANSFORM,              # semantics may change
    (INVALID, "fallback"): KEEP_ORIGINAL,
    (INVALID, "force"): KEEP_ORIGINAL,
    (IMPOSSIBLE, "default"): KEEP_ORIGINAL,
    (IMPOSSIBLE, "fallback"): KEEP_ORIGINAL,
    (IMPOSSIBLE, "force"): KEEP_ORIGINAL,
}


@pytest.mark.parametrize("verdict", [ALWAYS_VALID, VALID_WITH_RTC, INVALID, IMPOSSIBLE])
@pytest.mark.parametrize("mode", ["default", "fallback", "force"])
@pytest.mark.parametrize("required", [False, True])
def test_safety_matrix(verdict, mode, required):
    v = Verdict(verdict, rtc_pairs=(("A", "B"),) if verdict == VALID_WITH_RTC else ())
    action = resolve(v, mode, required)
    expected = EXPECTED[(verdict, mode)]
    if expected == KEEP_ORIGINAL and required:
        expected = HARD_ERROR
    assert action.kind == expected
    if action.kind == TRANSFORM_WITH_RTC:
        assert action.rtc_pairs == (("A", "B"),)


def test_strip_mine_is_always_valid_even_on_carried_deps():
    _, res = run_pipeline("""
array A[9] init random;

#pragma xform stripmine size(2)
for (i = 1; i < 9; i += 1)
  A[i] = A[i-1] + 1;
""")
    assert res.reports[0].verdict.kind == ALWAYS_VALID


def test_reverse_while_is_impossible():
    _, res = run_pipeline("""
array A[1] init zero;

#pragma xform reverse
while (A[0] < 3)
  A[0] += 1;
""")
    r = res.reports[0]
    assert r.verdict.kind == IMPOSSIBLE
    assert r.action.kind == KEEP_ORIGINAL
    assert r.warning.startswith("warning: reverse on loop 'while'")


def test_invalid_interchange_carries_a_witness():
    _, res = run_pipeline("""
array A[8,8] init random;

#pragma xform loop(i,j) interchange permutation(j,i) fallback
for (i = 1; i < 8; i += 1)
  for (j = 0; j < 7; j += 1)
    A[i,j] = A[i-1,j+1] + 1;
""")
    r = res.reports[0]
    assert r.verdict.kind == INVALID
    w = r.verdict.witness
    assert w is not None and w.kind == "flow" and w.distance == (1, -1)


def test_rtc_verdict_and_guard():
    p, res = run_pipeline("""
array A[8] init random;
array B[8] init random;
maybe_alias(A, B);

#pragma xform reverse fallback
for (i = 0; i < 8; i += 1)
  A[i] = B[7-i] + 1;
""")
    r = res.reports[0]
    assert r.verdict.kind == VALID_WITH_RTC
    assert r.verdict.rtc_pairs == (("A", "B"),)
    from xform.lang import IfStmt, Call
    guard = res.program.body[0]
    assert isinstance(guard, IfStmt)
    assert isinstance(guard.cond, Call) and guard.cond.func == "disjoint"
    assert guard.else_body is not None
    assert equivalent(strip_pragmas(p), res.program, trials=30, seed=7)


def test_no_alias_involvement_means_no_guard():
    _, res = run_pipeline("""
array A[8] init random;
array B[8] init random;
array C[8] init random;
maybe_alias(B, C);

#pragma xform reverse fallback
for (i = 0; i < 8; i += 1)
  A[i] = A[i] + 1;
""")
    # B/C never touched by the transformed nest: verdict stays always_valid
    assert res.reports[0].verdict.kind == ALWAYS_VALID
    from xform.lang import IfStmt
    assert not any(isinstance(s, IfStmt) for s in res.program.body)


def test_nested_rtc_transforms_combine_into_one_guard():
    p, res = run_pipeline("""
array A[8] init random;
array B[8] init random;
array C[8] init random;
maybe_alias(A, B);
maybe_alias(A, C);

#pragma xform loop(i) stripemine count(2) outer_id(o) inner_id(v) fallback
#pragma xform reverse fallback
for (i = 0; i < 8; i += 1)
  A[i] = B[7-i] + C[7-i];
""")
    kinds = [(r.verdict.kind, r.action.kind) for r in res.reports]
    assert all(v == VALID_WITH_RTC and a == TRANSFORM_WITH_RTC for v, a in kinds)
    from xform.lang import BinOp, IfStmt
    guard = res.program.body[0]
    assert isinstance(guard, IfStmt)
    assert isinstance(guard.cond, BinOp) and guard.cond.op == "&&"
    # interpreter agrees under all four alias bindings
    assert equivalent(strip_pragmas(p), res.program, trials=20, seed=5)


def test_force_on_rtc_keeps_original_with_warning():
    _, res = run_pipeline("""
array A[8] init random;
array B[8] init random;
maybe_alias(A, B);

#pragma xform reverse force
for (i = 0; i < 8; i += 1)
  A[i] = B[7-i] + 1;
""")
    r = res.reports[0]
    assert r.verdict.kind == VALID_WITH_RTC
    assert r.action.kind == KEEP_ORIGINAL
    assert "valid with rtc" in r.warning


def test_required_upgrades_warning_to_hard_error():
    _, res = run_pipeline("""
array A[9] init random;

#pragma xform reverse fallback required
for (i = 1; i < 9; i += 1)
  A[i] = A[i-1] + 1;
""")
    r = res.reports[0]
    assert r.action.kind == HARD_ERROR
    assert res.error is not None and res.error.startswith("error: reverse on loop 'i'")


def test_directive_safety_wins_over_cli_override():
    src = """
array A[9] init random;

#pragma xform reverse fallback
for (i = 1; i < 9; i += 1)
  A[i] = A[i-1] + 1;
"""
    _, res = run_pipeline(src, safety_override="default")
    assert res.reports[0].action.kind == KEEP_ORIGINAL  # fallback kept
    _, res2 = run_pipeline(src.replace(" fallback", ""), safety_override="fallback")
    assert res2.reports[0].action.kind == KEEP_ORIGINAL  # override applied
    _, res3 = run_pipeline(src.replace(" fallback", ""))
    assert res3.reports[0].action.kind == TRANSFORM  # plain default


def test_keep_original_leaves_ids_unbound_with_chained_diagnostic():
    _, res = run_pipeline("""
array A[9] init random;

#pragma xform loop(i_t) unroll factor(2)
#pragma xform loop(i) stripemine count(2) outer_id(i_f) inner_id(i_t) fallback
for (i = 1; i < 9; i += 1)
  A[i] = A[i-1] + 1;
""")
    first, second = res.reports
    assert first.action.kind == KEEP_ORIGINAL  # carried dep blocks stripe
    assert second.verdict.kind == IMPOSSIBLE
    assert "because stripe_mine" in second.verdict.detail
    assert "was not applied" in second.warning


def test_warning_format():
    _, res = run_pipeline("""
array A[9] init random;

#pragma xform reverse fallback
for (i = 1; i < 9; i += 1)
  A[i] = A[i-1] + 1;
""")
    w = res.reports[0].warning
    assert w.startswith("warning: reverse on loop 'i' (line ")
    assert "invalid" in w


# conservative-mode judgements (forced with a tiny enumeration cap) ----------


def test_conservative_interchange_blocked_and_allowed():
    blocker = """
array A[8,8] init random;

#pragma xform loop(i,j) interchange permutation(j,i) fallback
for (i = 1; i < 8; i += 1)
  for (j = 0; j < 7; j += 1)
    A[i,j] = A[i-1,j+1] + 1;
"""
    _, res = run_pipeline(blocker, max_enum=1)
    assert res.reports[0].verdict.kind == INVALID
    free = """
array P[5,6] init random;
array Q[5,6] init random;

#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 0; i < 5; i += 1)
  for (j = 0; j < 6; j += 1)
    P[i,j] = Q[i,j] + 1;
"""
    _, res2 = run_pipeline(free, max_enum=1)
    assert res2.reports[0].verdict.kind == ALWAYS_VALID


def test_conservative_tile_requires_nonnegative_band_components():
    src = """
array A[8,8] init random;

#pragma xform loop(i,j) tile sizes(2,2) fallback
for (i = 1; i < 8; i += 1)
  for (j = 0; j < 7; j += 1)
    A[i,j] = A[i-1,j+1] + 1;
"""
    _, res = run_pipeline(src, max_enum=1)
    assert res.reports[0].verdict.kind == INVALID
    forward = src.replace("A[i-1,j+1]", "A[i-1,j]")
    _, res2 = run_pipeline(forward, max_enum=1)
    assert res2.reports[0].verdict.kind == ALWAYS_VALID


def test_conservative_level_checks_reverse_and_parallel():
    dep = """
array A[9] init random;

#pragma xform reverse fallback
for (i = 1; i < 9; i += 1)
  A[i] = A[i-1] + 1;
"""
    _, res = run_pipeline(dep, max_enum=1)
    assert res.reports[0].verdict.kind == INVALID
    free = """
array A[9] init random;
array B[9] init random;

#pragma xform parallel
for (i = 0; i < 9; i += 1)
  A[i] = B[i] * 2;
"""
    _, res2 = run_pipeline(free, max_enum=1)
    assert res2.reports[0].verdict.kind == ALWAYS_VALID


def test_conservative_distribute_part_rule():
    _, res = run_pipeline(open("tests/corpus/15_distribute_valid.loop").read(),
                          max_enum=1)
    assert res.reports[0].verdict.kind == ALWAYS_VALID
    _, res2 = run_pipeline(open("tests/corpus/16_distribute_invalid.loop").read(),
                           max_enum=1)
    assert res2.reports[0].verdict.kind == INVALID


def test_conservative_fuse_rejects_any_cross_loop_dependence():
    # the exact path proves this fusion safe; the conservative floor cannot,
    # and must refuse rather than guess
    _, res = run_pipeline(open("tests/corpus/17_fuse_pair.loop").read(),
                          max_enum=1, safety_override="fallback")
    assert res.reports[0].verdict.kind == INVALID
    assert res.reports[0].action.kind == KEEP_ORIGINAL


def test_conservative_rtc_on_alias_pairs():
    _, res = run_pipeline(open("tests/corpus/23_rtc_alias.loop").read(), max_enum=1)
    r = res.reports[0]
    assert r.verdict.kind == VALID_WITH_RTC
    assert r.verdict.rtc_pairs == (("A", "B"),)


@pytest.mark.parametrize("max_enum", [1, 4096])
def test_fuse_past_alias_pair_still_sees_definite_dependence(max_enum):
    # the (A,B) may-alias dependence comes first; the flow dependence on C
    # that fusion breaks must still make the verdict invalid on both routes
    p, res = run_pipeline("""
array A[16] init random;
array B[16] init random;
array C[17] init random;
maybe_alias(A, B);

#pragma xform loop(i,j) fuse fallback
for (i = 0; i < 16; i += 1)
  C[i] = A[i] + 1;
for (j = 0; j < 16; j += 1)
  B[j] = C[j + 1];
""", max_enum=max_enum)
    r = res.reports[0]
    assert r.verdict.describe() == "invalid: dependence flow s1->s3 () would be violated"
    assert r.action.kind == KEEP_ORIGINAL
    assert equivalent(strip_pragmas(p), res.program, trials=5, seed=3)


# a parallel mark against the reversal of the same loop ------------------------

SUBSCRIPTS = ["a", "b", "c", "a+b", "b+c", "a+c", "a-b+3", "b-c+3", "a-c+3", "a+b+c", "2*b", "3"]


@st.composite
def marked_nests(draw):
    """3-deep nests of 1-2 statements over two 1-D arrays, with a directive
    slot `KIND` on one of the three loops."""
    stmts = []
    for _ in range(draw(st.integers(1, 2))):
        dst, src = draw(st.sampled_from("AB")), draw(st.sampled_from("AB"))
        sub = [draw(st.sampled_from(SUBSCRIPTS)) for _ in range(2)]
        op = draw(st.sampled_from(["=", "+="]))
        stmts.append(f"{dst}[{sub[0]}] {op} {src}[{sub[1]}] + 1;")
    head = "".join(f"{'  ' * d}for ({v} = 0; {v} < {draw(st.integers(1, 4))}; {v} += 1)\n"
                   for d, v in enumerate("abc"))
    alias = draw(st.sampled_from(["", "maybe_alias(A, B);\n"]))
    target = draw(st.sampled_from("abc"))
    return ("array A[16] init random;\narray B[16] init random;\n" + alias
            + f"#pragma xform loop({target}) KIND\n" + head
            + "      { " + " ".join(stmts) + " }\n")


@settings(max_examples=300, deadline=None)
@given(marked_nests())
def test_parallel_and_reverse_agree_on_exact_nests(src):
    # both hold iff no conflicting pair within one execution of the loop
    # differs in its trip, which the mark's own oracle checks
    p = parse_named(src.replace("KIND", "reverse"))
    depset = compute_dependences(strip_pragmas(p), p.body)
    assert depset.exact
    reports = []
    for kind in ("parallel", "reverse"):
        _, res = run_pipeline(src.replace("KIND", kind), safety_override="fallback")
        reports.append(res.reports[0])
    verdicts = [(r.verdict.kind, r.verdict.rtc_pairs) for r in reports]
    assert verdicts[0] == verdicts[1], src
    oracle = judge_marked(depset, reports[0].target)
    assert (reports[0].verdict.describe(), reports[0].verdict.rtc_pairs) == \
        (oracle.describe(), oracle.rtc_pairs), src


def test_a_mark_needs_no_arithmetic_proof():
    # `interval` cannot prove the condition inside int64 (j / 3 may be 1 where
    # 3 - j is 3), so a reverse goes to the conservative rule, whose may-alias
    # dependence has no known distance; a mark rewrites no arithmetic, so it
    # keeps the exact verdict: A and B are touched in one trip of j only
    src = """array A[8] init random;
array B[8] init random;
maybe_alias(A, B);

#pragma xform loop(j) KIND
for (i = 0; i < 8; i += 1)
  for (j = 0; j < 4; j += 1)
    if ((j / 3) * 9223372036854775807 + (3 - j) == 3) A[i] = B[i] + 1;
"""
    got = {}
    for kind in ("parallel", "reverse"):
        _, res = run_pipeline(src.replace("KIND", kind), safety_override="force")
        got[kind] = res.reports[0].verdict.describe()
    assert got == {"parallel": "always valid", "reverse": "valid with rtc [disjoint(A,B)]"}

"""Dependence analysis: spec examples against the brute-force oracle, plus
soundness and lexicographic-order properties over random programs."""

import pytest
from hypothesis import example, given, settings, strategies as st

from xform import apply_pipeline, cli, compute_dependences, deps, parse_program, plan_pipeline
from xform.deps import (
    DepsError, _CapExceeded, conservative_dependences, enumerate_instances, leading_sign,
)
from xform.ir import name_loops
from xform.legality import ALWAYS_VALID

from reference_deps import brute_force_dependences, dep_signature, is_superset
from conftest import load_corpus, parse_named, run_pipeline


def deps_of(src, conservative=False):
    p = parse_named(src)
    nest = p.body[0]
    ds = compute_dependences(p, nest, max_enum=1 if conservative else 4096)
    return p, nest, ds


def test_flow_distance_one():
    p, nest, ds = deps_of("array A[8] init random;\n"
                          "for (i = 1; i < 8; i += 1) A[i] = A[i-1] + 1;\n")
    assert ds.exact
    oracle = brute_force_dependences(p, nest)
    assert dep_signature(ds) == dep_signature(oracle)
    flows = [d for d in ds.deps if d.kind == "flow"]
    assert [(d.loops, d.distance) for d in flows] == [(("i",), (1,))]


def test_distinct_arrays_no_dependences():
    _, _, ds = deps_of("array A[8] init random;\narray B[8] init random;\n"
                       "for (i = 0; i < 8; i += 1) A[i] = B[i] + 1;\n")
    assert ds.exact and ds.deps == []


def test_classic_interchange_blocker_distance():
    p, nest, ds = deps_of("array A[8,8] init random;\n"
                          "for (i = 1; i < 8; i += 1)\n"
                          "  for (j = 0; j < 7; j += 1)\n"
                          "    A[i,j] = A[i-1,j+1] + 1;\n")
    assert ds.exact
    assert dep_signature(ds) == dep_signature(brute_force_dependences(p, nest))
    assert any(d.kind == "flow" and d.distance == (1, -1) for d in ds.deps)


def test_stencil_carries_nothing():
    p, nest, ds = deps_of("array A[12] init random;\narray B[12] init random;\n"
                          "for (i = 1; i < 11; i += 1) A[i] = B[i-1] + B[i] + B[i+1];\n")
    assert ds.exact
    assert dep_signature(ds) == dep_signature(brute_force_dependences(p, nest))
    assert all(all(x == 0 for x in d.distance) for d in ds.deps)


def test_reduction_all_distances():
    p, nest, ds = deps_of("array S[1] init zero;\narray A[6] init random;\n"
                          "for (i = 0; i < 6; i += 1) S[0] += A[i];\n")
    oracle = brute_force_dependences(p, nest)
    assert dep_signature(ds) == dep_signature(oracle)
    for kind in ("output", "flow"):
        dists = {d.distance[0] for d in ds.deps if d.kind == kind}
        assert dists == {1, 2, 3, 4, 5}


def test_oracle_agreement_on_stride_loops():
    src = ("array A[24] init random;\n"
           "for (i = 3; i < 24; i += 3) A[i] = A[i-3] * 2;\n")
    p, nest, ds = deps_of(src)
    assert ds.exact
    oracle = brute_force_dependences(p, nest)
    assert dep_signature(ds) == dep_signature(oracle)
    # distances are logical trips, not physical values
    assert any(d.distance == (1,) for d in ds.deps if d.kind == "flow")


def test_conservative_is_superset_and_flagged():
    src = ("array A[8] init random;\n"
           "for (i = 1; i < 8; i += 1) A[i] = A[i-1] + 1;\n")
    p, nest, ds = deps_of(src, conservative=True)
    assert not ds.exact
    oracle = brute_force_dependences(p, nest)
    assert is_superset(ds, oracle)


def test_opaque_param_forces_conservative():
    src = ("param N = 8 opaque;\narray A[16] init random;\n"
           "for (i = 1; i < N; i += 1) A[i] = A[i-1] + 1;\n")
    p, nest, ds = deps_of(src)
    assert not ds.exact
    oracle = brute_force_dependences(p, nest)
    assert is_superset(ds, oracle)


@pytest.mark.parametrize("nest", [
    # the inner loop starts at the outer loop's value: its distance in
    # values (4) is none in trips, and the outer loop carries the flow
    "for (i = 0; i < 8; i += 4)\n  for (j = i; j < i + 4; j += 1) A[j + 4] = A[j];\n",
    # starts of either parity under a step of 2: an odd distance in values
    "for (i = 0; i < 2; i += 1)\n  for (j = i; j < i + 4; j += 2) A[j + 1] = A[j];\n",
])
def test_strong_siv_under_a_lower_bound_that_moves_covers_the_oracle(nest):
    p = parse_named("array A[12] init random;\n" + nest)
    cons = compute_dependences(p, p.body[0], max_enum=1)
    assert not cons.exact
    assert is_superset(cons, brute_force_dependences(p, p.body[0]))


def test_strong_siv_under_a_lower_bound_that_moves_keeps_a_distance_in_one_start():
    p = parse_named("array A[4,12] init random;\nfor (i = 0; i < 4; i += 1)\n"
                    "  for (j = i; j < i + 4; j += 1) A[i, j + 1] = A[i, j];\n")
    cons = compute_dependences(p, p.body[0], max_enum=1)
    assert [d.pretty() for d in cons.deps] == ["flow s2->s2 (0,1)"]
    assert is_superset(cons, brute_force_dependences(p, p.body[0]))


# two sibling loops of one variable name: the exact route finds `anti s4->s2 (1)`
REPRO_SIBLINGS = """array A[4,10] init random;
array B[4,10];
#pragma xform reverse
for (i = 0; i < 3; i += 1) {
  for (j = 0; j < 8; j += 1)
    A[i, j + 1] = i + 1;
  for (j = 0; j < 8; j += 1)
    B[i, j] = A[i + 1, j];
}
"""


def test_sibling_loops_of_one_variable_name_keep_a_reversal_out(tmp_path):
    path = tmp_path / "siblings.loop"
    path.write_text(REPRO_SIBLINGS)
    assert cli.main([str(path), "--safety", "fallback", "--max-enum", "1", "--verify", "3"]) == 0
    _, res = run_pipeline(REPRO_SIBLINGS, safety_override="fallback", max_enum=1)
    assert res.reports[0].verdict.kind != ALWAYS_VALID


@pytest.mark.parametrize("body, dep", [
    ("A[i + N] = A[i + N + 1] + 1;", "anti s1->s1 (1)"),
    ("A[i + N + 1] = A[i + N] + 1;", "flow s1->s1 (1)"),
])
def test_opaque_params_cancel_in_either_order(body, dep):
    p = parse_named("param N = 2 opaque;\narray A[16] init random;\n"
                    f"for (i = 0; i < 8; i += 1) {body}\n")
    ds = compute_dependences(p, p.body[0])
    assert not ds.exact and [d.pretty() for d in ds.deps] == [dep]
    assert is_superset(ds, brute_force_dependences(p, p.body[0]))


def test_nonaffine_subscript_assumed_dependent():
    src = ("array A[8] init random;\narray X[8] init random;\n"
           "for (i = 0; i < 8; i += 1) A[X[i]%8] = i;\n")
    p, nest, ds = deps_of(src)
    assert not ds.exact
    assert any(d.src == d.snk and d.kind == "output" for d in ds.deps)


def test_may_alias_pairs_tracked_separately():
    src = ("array A[8] init random;\narray B[8] init random;\nmaybe_alias(A, B);\n"
           "for (i = 0; i < 8; i += 1) A[i] = B[i] + 1;\n")
    p, nest, ds = deps_of(src)
    assert ds.exact
    static = [d for d in ds.deps if d.alias is None]
    aliased = [d for d in ds.deps if d.alias == ("A", "B")]
    assert static == [] and aliased


def test_while_in_region_is_an_error():
    p = parse_named("array A[2] init zero;\n"
                    "for (i = 0; i < 2; i += 1) { while (A[0] < 1) A[0] += 1; }\n")
    with pytest.raises(DepsError, match="while-loop"):
        compute_dependences(p, p.body[0])
    with pytest.raises(DepsError, match="while-loop"):
        brute_force_dependences(p, p.body[0])


# ---------------------------------------------------------------------------
# Properties over random programs


@st.composite
def random_1d_program(draw):
    ub = draw(st.integers(min_value=3, max_value=8))
    n_stmts = draw(st.integers(min_value=1, max_value=2))
    lines = ["array A[12] init random;", "array B[12] init random;"]
    body = []
    for _ in range(n_stmts):
        tgt = draw(st.sampled_from(["A", "B"]))
        op = draw(st.sampled_from(["=", "+="]))
        w_off = draw(st.integers(min_value=-2, max_value=2))
        r_arr = draw(st.sampled_from(["A", "B"]))
        r_off = draw(st.integers(min_value=-2, max_value=2))
        body.append(f"  {tgt}[i+{w_off+2}] {op} {r_arr}[i+{r_off+2}] + 1;")
    lines.append(f"for (i = 0; i < {ub}; i += 1) {{")
    lines.extend(body)
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def random_2d_program(draw):
    ub1 = draw(st.integers(min_value=2, max_value=5))
    ub2 = draw(st.integers(min_value=2, max_value=5))
    offs = [draw(st.integers(min_value=-1, max_value=1)) for _ in range(4)]
    op = draw(st.sampled_from(["=", "+="]))
    return (f"array A[8,8] init random;\n"
            f"for (i = 0; i < {ub1}; i += 1)\n"
            f"  for (j = 0; j < {ub2}; j += 1)\n"
            f"    A[i+{offs[0]+1},j+{offs[1]+1}] {op} A[i+{offs[2]+1},j+{offs[3]+1}] + 1;\n")


@settings(max_examples=60, deadline=None)
@given(random_1d_program())
def test_exact_matches_oracle_1d(src):
    p = parse_named(src)
    ds = compute_dependences(p, p.body[0])
    assert ds.exact
    assert dep_signature(ds) == dep_signature(brute_force_dependences(p, p.body[0]))


@settings(max_examples=40, deadline=None)
@given(random_2d_program())
def test_exact_matches_oracle_2d(src):
    p = parse_named(src)
    ds = compute_dependences(p, p.body[0])
    assert ds.exact
    assert dep_signature(ds) == dep_signature(brute_force_dependences(p, p.body[0]))


# sibling loops of one name are different loops: `j` in one says nothing of
# `j` in the other; `N` is opaque, so it cancels only against itself
SUBSCRIPTS = ("i", "i + 1", "j", "j + 1", "2 * j", "i + j", "7 - j", "j + N",
              "(i * j) % 5", "j / 2", "0", "3")


@st.composite
def random_sibling_program(draw):
    """An outer loop `i` around two sibling loops whose variables are the
    same or different, each with one statement on `A`."""
    rank = draw(st.integers(min_value=1, max_value=2))
    lines = ["param N = 2 opaque;", f"array A[{','.join(['9'] * rank)}] init random;",
             f"for (i = 0; i < {draw(st.integers(min_value=2, max_value=3))}; i += 1) {{"]
    for var in ("j", draw(st.sampled_from(["j", "k"]))):
        subs = [", ".join(draw(st.sampled_from(SUBSCRIPTS)).replace("j", var)
                          for _ in range(rank)) for _ in range(2)]
        ub = draw(st.integers(min_value=1, max_value=4))
        op = draw(st.sampled_from(["=", "+="]))
        lines += [f"  for ({var} = 0; {var} < {ub}; {var} += 1)",
                  f"    A[{subs[0]}] {op} A[{subs[1]}] + 1;"]
    return "\n".join(lines) + "\n}\n"


@settings(max_examples=80, deadline=None)
@given(st.one_of(random_1d_program(), random_sibling_program()))
@example(REPRO_SIBLINGS.replace("#pragma xform reverse\n", ""))
@example("array A[9] init random;\narray B[3,3];\nfor (i = 0; i < 3; i += 1) {\n"
         "  for (j = 0; j < 3; j += 1)\n    A[i + j] = i;\n"
         "  for (j = 0; j < 3; j += 1)\n    B[i, j] = A[i + j] + 1;\n}\n")
def test_conservative_covers_oracle(src):
    p = parse_named(src)
    cons = compute_dependences(p, p.body[0], max_enum=1)
    assert not cons.exact
    assert is_superset(cons, brute_force_dependences(p, p.body[0]))


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_1d_program(), random_2d_program()))
def test_original_distances_lexicographically_nonneg(src):
    p = parse_named(src)
    for ds in (compute_dependences(p, p.body[0]),
               brute_force_dependences(p, p.body[0])):
        for d in ds.deps:
            assert leading_sign(d.distance) != -1, d.pretty()


# ---------------------------------------------------------------------------
# A region is counted before it is walked


@pytest.mark.parametrize("m", [17, 24, 32])
def test_an_over_cap_dgemm_goes_conservative_without_a_walk(monkeypatch, m):
    p = parse_named(load_corpus("05_dgemm.loop").replace("16", str(m)))
    nest = p.body[0]
    with pytest.raises(_CapExceeded):  # where the walk ended before counting
        enumerate_instances(p, [nest], 4096)
    walked = conservative_dependences(p, [nest], "enumeration cap exceeded")

    def no_walk(*args):
        raise AssertionError("an over-cap region was enumerated")
    monkeypatch.setattr(deps, "enumerate_instances", no_walk)
    ds = compute_dependences(p, nest)
    assert not ds.exact and ds.reason == walked.reason
    assert ds.pretty() == walked.pretty()
    assert apply_pipeline(p, plan_pipeline(p), safety_override="fallback").error is None


@pytest.mark.parametrize("src, caps", [
    ("for (i = 0; i < 8; i += 1) A[i] = A[i] + 1;", (-1, 0, 1, 7, 8, 9)),
    ("for (i = 0; i < 0; i += 1) A[i] = 1;", (-1, 0, 1)),
    ("for (i = 0; i < 4; i += 1)\n  for (j = i; j < i + 3; j += 1) A[j] = A[i] + 1;",
     (11, 12, 13)),
    # instances within the cap, loop iterations past its step budget (10,100)
    ("for (i = 0; i < 10101; i += 1)\n  for (j = 0; j < 0; j += 1) A[0] = 1;", (1,)),
    ("for (i = 0; i < 10100; i += 1)\n  for (j = 0; j < 0; j += 1) A[0] = 1;", (1,)),
    # uncounted: a guard, an opaque bound
    ("for (i = 0; i < 8; i += 1) if (i < 2) A[i] = 1;", (1, 2, 3)),
    ("for (i = 0; i < N; i += 1) A[i] = 1;", (1, 8)),
])
def test_counting_a_region_decides_as_walking_it(monkeypatch, src, caps):
    p = parse_named("param N = 8 opaque;\narray A[8] init random;\n" + src + "\n")
    counted = [compute_dependences(p, p.body[0], cap) for cap in caps]
    monkeypatch.setattr(deps, "step_counts", lambda *args, **kw: (None, None, False))
    walked = [compute_dependences(p, p.body[0], cap) for cap in caps]
    assert [(d.exact, d.pretty()) for d in counted] == [(d.exact, d.pretty()) for d in walked]

"""Per-transformation behavior: replacement structure, trace order and
instance preservation, verdicts for the rejection cases."""

import pytest

from xform import equivalent, kinds, parse_program, plan_pipeline, transforms
from xform.emit import emit_program
from xform.kinds import MAX_COPIES, TransformError
from xform.lang import INT64_MAX, Assign, ForLoop, IfStmt, iter_loops, iter_stmts, strip_pragmas
from xform.legality import ALWAYS_VALID, IMPOSSIBLE, INVALID

from conftest import corpus_names, load_corpus, parse_named, run_pipeline, with_directive
from reference_interp import instance_multiset, order_preserved, run
from reference_lang import alpha_normalize, structurally_equal


def applied(res):
    assert res.error is None
    for r in res.reports:
        assert r.action.kind in ("transform", "transform_with_rtc"), r.warning
    return res.program


def traces(p, q, seed=0):
    _, t0 = run(p, seed=seed)
    _, t1 = run(q, seed=seed)
    return t0, t1


# ---------------------------------------------------------------------------
# strip-mine


def test_strip_mine_12_by_3_strips_in_order():
    p, res = run_pipeline("array A[12] init zero;\n"
                          "#pragma xform stripmine size(3)\n"
                          "for (i = 0; i < 12; i += 1) A[i] = i;\n")
    out = applied(res)
    _, t1 = run(out)
    # original order, grouped into strips starting at 0,3,6,9
    assert [r.ivec[0][1] for r in t1] == list(range(12))
    floors = [r.cur_ivec[0] for r in t1]
    assert floors == [0, 0, 0, 3, 3, 3, 6, 6, 6, 9, 9, 9]


def test_strip_mine_size_one_trace_unchanged():
    p, res = run_pipeline("array A[5] init zero;\n"
                          "#pragma xform stripmine size(1)\n"
                          "for (i = 0; i < 5; i += 1) A[i] = i;\n")
    t0, t1 = traces(strip_pragmas(p), applied(res))
    assert order_preserved(t0, t1)


def test_strip_mine_residue_min_bound():
    p, res = run_pipeline("array A[10] init zero;\n"
                          "#pragma xform stripmine size(4)\n"
                          "for (i = 0; i < 10; i += 1) A[i] = i;\n")
    out = applied(res)
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)
    sizes = {}
    for r in t1:
        sizes[r.cur_ivec[0]] = sizes.get(r.cur_ivec[0], 0) + 1
    assert sizes == {0: 4, 4: 4, 8: 2}  # last strip short


# ---------------------------------------------------------------------------
# stripe-mine


def test_stripe_mine_count_3_order():
    p, res = run_pipeline("array A[12] init zero;\n"
                          "#pragma xform stripemine count(3)\n"
                          "for (i = 0; i < 12; i += 1) A[i] = i;\n")
    _, t1 = run(applied(res))
    assert [r.ivec[0][1] for r in t1] == [0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11]


def test_stripe_mine_count_equals_tripcount_is_identity_order():
    p, res = run_pipeline("array A[6] init zero;\n"
                          "#pragma xform stripemine count(6)\n"
                          "for (i = 0; i < 6; i += 1) A[i] = i;\n")
    t0, t1 = traces(strip_pragmas(p), applied(res))
    assert order_preserved(t0, t1)


def test_stripe_mine_non_divisible_is_impossible():
    _, res = run_pipeline("array A[10] init zero;\n"
                          "#pragma xform stripemine count(3)\n"
                          "for (i = 0; i < 10; i += 1) A[i] = i;\n")
    assert res.reports[0].verdict.kind == IMPOSSIBLE


def test_stripe_mine_memory_matches_on_independent_body():
    p, res = run_pipeline("array A[12] init random;\narray B[12] init random;\n"
                          "#pragma xform stripemine count(4)\n"
                          "for (i = 0; i < 12; i += 1) A[i] = B[i] * 2;\n")
    assert equivalent(strip_pragmas(p), applied(res), trials=25, seed=1)


# ---------------------------------------------------------------------------
# unroll


def test_full_unroll_four_straight_line_bodies():
    p, res = run_pipeline("array A[4] init zero;\n"
                          "#pragma xform unroll full\n"
                          "for (i = 0; i < 4; i += 1) A[i] = i;\n")
    out = applied(res)
    assert all(isinstance(s, Assign) for s in out.body)
    assert len(out.body) == 4
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)


def test_partial_unroll_7_by_2_pairs_plus_residue():
    p, res = run_pipeline("array A[7] init zero;\n"
                          "#pragma xform unroll factor(2)\n"
                          "for (i = 0; i < 7; i += 1) A[i] = i;\n")
    out = applied(res)
    loop = out.body[0]
    assert isinstance(loop, ForLoop) and loop.step == 2
    assert isinstance(loop.body[1], IfStmt)  # guarded second copy
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)


def test_full_unroll_needs_constant_trip_count():
    _, res = run_pipeline("param N = 4 opaque;\narray A[8] init zero;\n"
                          "#pragma xform unroll full\n"
                          "for (i = 0; i < N; i += 1) A[i] = i;\n")
    assert res.reports[0].verdict.kind == IMPOSSIBLE


@pytest.mark.parametrize("build", [
    lambda p, loop: kinds.unroll_partial(p, loop, MAX_COPIES + 1, 0),
    lambda p, loop: kinds.unroll_and_jam(p, loop, MAX_COPIES + 1, 0),
    lambda p, loop: kinds.unroll_full(p, loop),
], ids=["factor", "jam", "full"])
def test_an_unroll_past_the_copy_limit_is_refused(build):
    p = parse_named(f"array A[8] init zero;\nfor (i = 0; i < {MAX_COPIES + 1}; i += 1)\n"
                    "  for (j = 0; j < 2; j += 1) A[j] = i;\n")
    with pytest.raises(TransformError, match=f"^the step would make {MAX_COPIES + 1} copies of "
                                             f"the loop body, more than the limit of {MAX_COPIES}$"):
        build(p, p.body[0])


@pytest.mark.parametrize("pragma, copies", [
    ("#pragma xform unroll factor(1024)\nfor (i = 0; i < 8; i += 1)\n"
     "  A[i, 0] = A[i, 0] + i;\n", 8),
    ("#pragma xform unrollingandjam factor(1024)\nfor (i = 0; i < 5; i += 1)\n"
     "  for (j = 0; j < 2; j += 1) A[i, j] = A[i, j] + i;\n", 5),
], ids=["unroll", "jam"])
def test_an_unroll_past_a_known_trip_count_copies_once_per_trip(pragma, copies):
    # the copies past the last trip could never run; the copy limit counts
    # only the copies made
    p, res = run_pipeline("array A[8,2] init random;\n" + pragma)
    assert res.reports[0].verdict.kind == ALWAYS_VALID
    assert sum(isinstance(s, Assign) for s in iter_stmts(res.program.body)) == copies
    assert equivalent(strip_pragmas(p), res.program, trials=2)


# ---------------------------------------------------------------------------
# unroll-and-jam


def test_unroll_and_jam_dgemm_factors_4_and_8_give_32_copies():
    p, res = run_pipeline("""
param M = 16;
array C[16,16] init random;
array A[16,16] init random;
array B[16,16] init random;

#pragma xform loop(i2) unrollingandjam factor(4)
#pragma xform loop(j2) unrollingandjam factor(8)
#pragma xform loop(i1,j1,k1,i2,j2) interchange permutation(j1,k1,i1,j2,i2)
#pragma xform loop(i,j,k) tile sizes(8,8,8) floor_ids(i1,j1,k1) tile_ids(i2,j2,k2)
for (i = 0; i < M; i += 1)
  for (j = 0; j < M; j += 1)
    for (k = 0; k < M; k += 1)
      C[i,j] += A[i,k] * B[k,j];
""")
    out = applied(res)
    innermost = None
    for l in iter_loops(out.body):
        innermost = l
    assigns = [s for s in innermost.body if isinstance(s, Assign)]
    assert len(assigns) == 32
    assert equivalent(strip_pragmas(p), out, trials=3, seed=2)


def test_unroll_and_jam_factor_2_memory_equal():
    p, res = run_pipeline(open("tests/corpus/28_uaj2d.loop").read())
    assert equivalent(strip_pragmas(p), applied(res), trials=25, seed=3)


def test_unroll_and_jam_requires_inner_loop():
    _, res = run_pipeline("array A[8] init zero;\n"
                          "#pragma xform unrollingandjam factor(2)\n"
                          "for (i = 0; i < 8; i += 1) A[i] = i;\n")
    assert res.reports[0].verdict.kind == IMPOSSIBLE


def test_unroll_and_jam_blocked_by_jam_dependence():
    # jamming i copies moves them across j iterations; the diagonal
    # dependence makes that reordering unsafe
    _, res = run_pipeline("""
array A[10,10] init random;

#pragma xform unrollingandjam factor(2) fallback
for (i = 1; i < 9; i += 1)
  for (j = 1; j < 9; j += 1)
    A[i,j] = A[i-1,j+1] + 1;
""")
    assert res.reports[0].verdict.kind == INVALID


# ---------------------------------------------------------------------------
# interchange


def test_interchange_identity_permutation_keeps_tree():
    p, res = run_pipeline("""
array A[4,4] init zero;

#pragma xform loop(i,j) interchange permutation(i,j)
for (i = 0; i < 4; i += 1)
  for (j = 0; j < 4; j += 1)
    A[i,j] = i + j;
""")
    assert res.reports[0].verdict.kind == ALWAYS_VALID
    assert structurally_equal(strip_pragmas(p).body, res.program.body)


def test_interchange_independent_nest_transposes_trace():
    p, res = run_pipeline("""
array A[3,4] init zero;

#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 0; i < 3; i += 1)
  for (j = 0; j < 4; j += 1)
    A[i,j] = i * 10 + j;
""")
    out = applied(res)
    assert equivalent(strip_pragmas(p), out, trials=5, seed=0)
    _, t1 = run(out)
    pairs = [(dict(r.ivec)["i"], dict(r.ivec)["j"]) for r in t1]
    assert pairs == [(i, j) for j in range(4) for i in range(3)]


# ---------------------------------------------------------------------------
# peel


def test_peel_first_zero_is_identity():
    p, res = run_pipeline("array A[5] init zero;\n"
                          "#pragma xform peel first(0)\n"
                          "for (i = 0; i < 5; i += 1) A[i] = i;\n")
    assert structurally_equal(strip_pragmas(p).body, res.program.body)


def test_peel_multiple_4_on_10_main_8_epilogue_2():
    p, res = run_pipeline(open("tests/corpus/12_peel_multiple4.loop").read())
    out = applied(res)
    main, epi = out.body
    assert (main.lower.value, main.upper.value) == (0, 8)
    assert (epi.lower.value, epi.upper.value) == (8, 10)
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)


def test_peel_last_2_on_7():
    p, res = run_pipeline(open("tests/corpus/11_peel_last2.loop").read())
    out = applied(res)
    main, epi = out.body
    assert (main.lower.value, main.upper.value) == (0, 5)
    assert (epi.lower.value, epi.upper.value) == (5, 7)
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)


def test_peel_first_larger_than_tripcount():
    p, res = run_pipeline("array A[3] init zero;\n"
                          "#pragma xform peel first(9)\n"
                          "for (i = 0; i < 3; i += 1) A[i] = i;\n")
    out = applied(res)
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)


@pytest.mark.parametrize("pragma", [f"tile sizes({INT64_MAX})", f"peel first({INT64_MAX})"])
def test_a_generated_constant_outside_int64_is_impossible(pragma):
    _, res = run_pipeline("array A[8] init zero;\n"
                          f"#pragma xform {pragma}\n"
                          "for (i = 0; i < 8; i += 2) A[i] = i;\n")
    verdict = res.reports[0].verdict
    assert verdict.kind == IMPOSSIBLE
    assert verdict.detail == f"generated constant {2 * INT64_MAX} is outside int64"
    text = emit_program(res.program)
    assert emit_program(parse_program(text)) == text


def test_peel_multiple_with_opaque_bounds_impossible():
    _, res = run_pipeline("param N = 8 opaque;\narray A[16] init zero;\n"
                          "#pragma xform peel multiple(4)\n"
                          "for (i = 0; i < N; i += 1) A[i] = i;\n")
    assert res.reports[0].verdict.kind == IMPOSSIBLE


# ---------------------------------------------------------------------------
# collapse


def test_collapse_3x4_row_major():
    p, res = run_pipeline(open("tests/corpus/13_collapse34.loop").read())
    out = applied(res)
    loops = list(iter_loops(out.body))
    assert len(loops) == 1 and loops[0].name == "c"
    assert (loops[0].lower.value, loops[0].upper.value, loops[0].step) == (0, 12, 1)
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)


def test_collapse_k1_is_identity_renaming():
    p, res = run_pipeline("array A[5] init zero;\n"
                          "#pragma xform collapse levels(1) collapsed_id(c)\n"
                          "for (i = 2; i < 7; i += 1) A[i-2] = i;\n")
    out = applied(res)
    loop = out.body[0]
    assert loop.name == "c" and loop.lower.value == 0 and loop.upper.value == 5
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)


def test_collapse_triangular_impossible():
    _, res = run_pipeline("""
array A[6,6] init zero;

#pragma xform loop(i,j) collapse
for (i = 0; i < 6; i += 1)
  for (j = 0; j < i; j += 1)
    A[i,j] = 1;
""")
    assert res.reports[0].verdict.kind == IMPOSSIBLE


# ---------------------------------------------------------------------------
# distribute / fuse


def test_distribute_hmmer_three_loops_dc_keeps_self_dependence():
    p, res = run_pipeline(open("tests/corpus/14_distribute_hmmer.loop").read())
    out = applied(res)
    assert res.reports[0].verdict.kind == ALWAYS_VALID
    loops = [s for s in out.body if isinstance(s, ForLoop)]
    assert len(loops) == 3
    assert equivalent(strip_pragmas(p), out, trials=25, seed=4)


def test_distribute_single_statement_identity():
    p, res = run_pipeline("array A[5] init zero;\n"
                          "#pragma xform distribute\n"
                          "for (i = 0; i < 5; i += 1) A[i] = i;\n")
    assert res.reports[0].verdict.kind == ALWAYS_VALID
    assert structurally_equal(strip_pragmas(p).body, res.program.body)


def test_distribute_forward_dependence_valid_backward_invalid():
    _, res_ok = run_pipeline(open("tests/corpus/15_distribute_valid.loop").read())
    assert res_ok.reports[0].verdict.kind == ALWAYS_VALID
    _, res_bad = run_pipeline(open("tests/corpus/16_distribute_invalid.loop").read())
    assert res_bad.reports[0].verdict.kind == INVALID


def test_distribute_treats_blocks_and_ifs_as_single_statements():
    p, res = run_pipeline("""
param M = 6;
array A[9] init random;
array B[9] init random;
array C[9] init random;

#pragma xform distribute
for (i = 1; i < 9; i += 1) {
  { A[i] = i; B[i] = A[i] * 2; }
  if (i < M) {
    C[i] = B[i] + 1;
  }
}
""")
    out = applied(res)
    loops = [s for s in out.body if isinstance(s, ForLoop)]
    assert len(loops) == 2  # block and if are one statement each
    assert equivalent(strip_pragmas(p), out, trials=15, seed=3)


def test_distribute_explicit_parts_regroup():
    p, res = run_pipeline("""
array A[9] init random;
array B[9] init random;
array C[9] init random;

#pragma xform distribute parts(s1,s2;s3) ids(front,back)
for (i = 1; i < 9; i += 1) {
  A[i] = i;
  B[i] = A[i] * 2;
  C[i] = i - 1;
}
""")
    out = applied(res)
    loops = [s for s in out.body if isinstance(s, ForLoop)]
    assert [l.name for l in loops] == ["front", "back"]
    assert len(loops[0].body) == 2 and len(loops[1].body) == 1
    assert equivalent(strip_pragmas(p), out, trials=15, seed=3)


def test_distribute_unknown_statement_id():
    from xform import plan_pipeline, apply_pipeline
    p = parse_named("array A[5] init zero;\n"
                    "#pragma xform distribute parts(s9)\n"
                    "for (i = 0; i < 5; i += 1) A[i] = i;\n")
    res = apply_pipeline(p, plan_pipeline(p))
    assert res.reports[0].verdict.kind == IMPOSSIBLE
    assert "unknown statement id" in res.reports[0].verdict.detail


def test_fuse_undoes_distribute():
    src = """array A[9] init random;
array B[9] init random;

for (i = 1; i < 9; i += 1) {
  A[i] = i * 2;
  B[i] = A[i-1] + 1;
}
"""
    base = parse_named(src)
    distributed = with_directive(base, "distribute", {"ids": ("p", "q")})
    _, res1 = run_pipeline_from(distributed)
    refused = with_directive_program(res1.program, "fuse", {"fused_id": "f"},
                                     targets=("p", "q"))
    _, res2 = run_pipeline_from(refused)
    out = applied(res2)
    assert structurally_equal(alpha_normalize(strip_pragmas(base).body),
                              alpha_normalize(out.body))


def test_fuse_paper_pair_is_legal_but_neighbor_variant_is_not():
    # the two-loop chain: stencil into A, then pointwise A update; fusing is
    # safe because iteration i of the second loop only reads A[i]
    _, res = run_pipeline(open("tests/corpus/17_fuse_pair.loop").read())
    assert res.reports[0].verdict.kind == ALWAYS_VALID
    # a second loop reading A[i+1] consumes a value the fused iteration has
    # not produced yet
    _, res2 = run_pipeline(open("tests/corpus/18_fuse_invalid.loop").read())
    assert res2.reports[0].verdict.kind == INVALID


def test_fuse_independent_siblings_memory_equal():
    p, res = run_pipeline("""
array A[8] init random;
array B[8] init random;

#pragma xform loop(i,j) fuse fused_id(f)
for (i = 0; i < 8; i += 1)
  A[i] = i * 3;
for (j = 0; j < 8; j += 1)
  B[j] = j - 1;
""")
    out = applied(res)
    assert len([s for s in out.body if isinstance(s, ForLoop)]) == 1
    assert equivalent(strip_pragmas(p), out, trials=10, seed=6)


def test_fuse_domain_mismatch_impossible():
    _, res = run_pipeline("""
array A[8] init random;

#pragma xform loop(i,j) fuse fused_id(f)
for (i = 0; i < 8; i += 1)
  A[i] = i;
for (j = 0; j < 7; j += 1)
  A[j] = j;
""")
    assert res.reports[0].verdict.kind == IMPOSSIBLE


# ---------------------------------------------------------------------------
# reverse / parallel


def test_reverse_free_loop_reverses_trace():
    p, res = run_pipeline(open("tests/corpus/19_reverse_free.loop").read())
    out = applied(res)
    assert equivalent(strip_pragmas(p), out, trials=20, seed=0)
    t0, t1 = traces(strip_pragmas(p), out)
    assert [r.key() for r in t1] == [r.key() for r in t0][::-1]


def test_reverse_carried_dependence_invalid():
    _, res = run_pipeline(open("tests/corpus/20_reverse_dep.loop").read())
    assert res.reports[0].verdict.kind == INVALID


def test_parallel_independent_and_reduction():
    from reference_interp import parallel_consistent
    p, res = run_pipeline(open("tests/corpus/21_parallel_indep.loop").read())
    out = applied(res)
    marked = next(l for l in iter_loops(out.body) if l.parallel)
    assert parallel_consistent(out, marked.name, trials=6, seed=0)
    _, res2 = run_pipeline(open("tests/corpus/22_parallel_reduction.loop").read())
    assert res2.reports[0].verdict.kind == INVALID


def test_parallel_after_tile_on_floor_loop():
    p, res = run_pipeline(open("tests/corpus/04_tile3d_heat.loop").read())
    out = applied(res)
    marked = [l.name for l in iter_loops(out.body) if l.parallel]
    assert marked == ["i1"]
    from reference_interp import parallel_consistent
    assert parallel_consistent(out, "i1", trials=4, seed=1)



def test_parallel_after_rectangular_peeled_tile_on_floor_loops():
    p, res = run_pipeline("""
array A[10,10] init random;

#pragma xform tile sizes(3,4) peel(rectangular)
#pragma xform parallel
for (i = 0; i < 10; i += 1)
  for (j = 0; j < 10; j += 1)
    A[i,j] = A[i,j] * 2 + j;
""")
    out = applied(res)
    marked = [l.name for l in iter_loops(out.body) if l.parallel]
    assert marked == ["i_f", "i_f_p2"]
    from reference_interp import parallel_consistent
    for name in marked:
        assert parallel_consistent(out, name, trials=4, seed=1)

def test_parallel_inconsistent_on_sequential_chain():
    from reference_interp import parallel_consistent
    p = parse_named("array A[9] init random;\n"
                    "for (i = 1; i < 9; i += 1) A[i] = A[i-1] + 1;\n")
    p.body[0].parallel = True
    assert not parallel_consistent(p, "i", trials=6, seed=0)


# ---------------------------------------------------------------------------
# tile


def test_tile_sizes_one_keeps_trace_order():
    p, res = run_pipeline("""
array A[3,3] init zero;

#pragma xform loop(i,j) tile sizes(1,1)
for (i = 0; i < 3; i += 1)
  for (j = 0; j < 3; j += 1)
    A[i,j] = i + j;
""")
    t0, t1 = traces(strip_pragmas(p), applied(res))
    assert order_preserved(t0, t1)


def test_tile_1d_equals_strip_mine_tree():
    base = parse_named("array A[12] init zero;\n"
                       "for (i = 0; i < 12; i += 1) A[i] = i;\n")
    tiled = with_directive(base, "tile", {"sizes": (3,), "floor_ids": ("f",),
                                          "tile_ids": ("t",)})
    stripped = with_directive(base, "strip_mine", {"size": 3, "floor_id": "f",
                                                   "tile_id": "t"})
    _, r1 = run_pipeline_from(tiled)
    _, r2 = run_pipeline_from(stripped)
    assert structurally_equal(applied(r1).body, applied(r2).body)


def test_tile_2x2_over_4x4_instance_bijection():
    p, res = run_pipeline(open("tests/corpus/03_tile2d.loop").read())
    out = applied(res)
    t0, t1 = traces(strip_pragmas(p), out)
    assert instance_multiset(t0) == instance_multiset(t1)
    assert len(t1) == 16
    # tile-major order: the first four instances form the (0,0) tile
    first_tile = [(dict(r.ivec)["i"], dict(r.ivec)["j"]) for r in t1[:4]]
    assert set(first_tile) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_tile_rectangular_peel_splits_partial_tiles():
    p, res = run_pipeline("""
array A[11,7] init random;

#pragma xform loop(i,j) tile sizes(4,4) peel(rectangular)
for (i = 0; i < 11; i += 1)
  for (j = 0; j < 7; j += 1)
    A[i,j] = A[i,j] + 1;
""")
    out = applied(res)
    # 11x7 with 4x4 tiles: main region plus 3 epilogue region nests
    assert len([s for s in out.body if isinstance(s, ForLoop)]) == 4
    t0, t1 = traces(strip_pragmas(p), out)
    assert instance_multiset(t0) == instance_multiset(t1)
    # full tiles are exact: the main region's tile loops have no min bounds
    from xform.lang import Call
    main_i2 = next(l for l in iter_loops(out.body) if l.name == "i_t")
    assert not isinstance(main_i2.upper, Call)
    assert equivalent(strip_pragmas(p), out, trials=10, seed=2)


def _deep_band(trips, sizes, peel=""):
    k = len(trips)
    ids = ",".join(f"i{d}" for d in range(k))
    loops = "".join(f"for (i{d} = 0; i{d} < {n}; i{d} += 1)\n" for d, n in enumerate(trips))
    return run_pipeline(f"array A[2] init zero;\n#pragma xform loop({ids}) tile "
                        f"sizes({','.join(map(str, sizes))}){peel}\n{loops}A[0] += 1;\n")


def test_tile_of_twenty_one_trip_loops_emits_one_nest():
    # only the regions that are emitted are built: a band of k loops once
    # walked all 2^k region masks, about 4 s of CPU for k = 20
    k = 20
    p, res = _deep_band([1] * k, [2] * k)
    out = applied(res)
    assert len(out.body) == 1
    assert [l.name for l in iter_loops(out.body)] == (
        [f"i{d}_f" for d in range(k)] + [f"i{d}_t" for d in range(k)])
    lines = [l.strip() for l in emit_program(out).splitlines()]
    assert lines[2] == "for (i0_f = 0; i0_f < 1; i0_f += 2) {"
    assert lines[2 + 2 * k - 1] == "for (i19_t = i19_f; i19_t < min(i19_f + 2, 1); i19_t += 1) {"
    assert lines[2 + 2 * k] == "A[0] += 1;"
    assert equivalent(strip_pragmas(p), out, trials=2)


def test_tile_rectangular_peel_of_a_deep_band_emits_only_remainder_regions():
    # two of twenty dimensions leave a remainder: four regions, in mask order
    p, res = _deep_band([1] * 18 + [3, 3], [1] * 18 + [2, 2], " peel(rectangular)")
    out = applied(res)
    assert [l.name for l in out.body] == ["i0_f", "i0_f_p262144", "i0_f_p524288",
                                          "i0_f_p786432"]
    assert equivalent(strip_pragmas(p), out, trials=2)


def test_tile_non_perfect_nest_impossible():
    _, res = run_pipeline("""
array A[4,4] init zero;
array R[4] init zero;

#pragma xform loop(i,j) tile sizes(2,2)
for (i = 0; i < 4; i += 1) {
  R[i] = 0;
  for (j = 0; j < 4; j += 1)
    A[i,j] = 1;
}
""")
    assert res.reports[0].verdict.kind == IMPOSSIBLE


# ---------------------------------------------------------------------------
# pipeline-level behavior


def test_empty_pipeline_is_identity():
    p, res = run_pipeline("array A[4] init zero;\n"
                          "for (i = 0; i < 4; i += 1) A[i] = i;\n")
    assert res.reports == []
    assert structurally_equal(strip_pragmas(p).body, res.program.body)


def test_transform_on_inner_loop_of_a_nest():
    p, res = run_pipeline("""
array A[6,9] init random;

for (i = 0; i < 6; i += 1) {
  #pragma xform stripmine size(3)
  for (j = 0; j < 9; j += 1)
    A[i,j] = A[i,j] + i * j;
}
""")
    out = applied(res)
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)
    names = [l.name for l in iter_loops(out.body)]
    assert names == ["i", "j_f", "j_t"]


def test_transform_on_loop_under_a_guard():
    p, res = run_pipeline("""
param N = 5;
array A[8] init random;

if (N > 2) {
  #pragma xform reverse
  for (i = 0; i < 8; i += 1)
    A[i] = A[i] * 2;
}
""")
    out = applied(res)
    assert equivalent(strip_pragmas(p), out, trials=10, seed=1)
    _, t1 = run(out)
    assert [r.ivec[0][1] for r in t1] == list(range(8))[::-1]


def test_directives_on_two_sibling_nests_apply_in_preorder():
    p, res = run_pipeline("""
array A[8] init random;
array B[8] init random;

#pragma xform stripmine size(2)
for (i = 0; i < 8; i += 1)
  A[i] = i;
#pragma xform reverse
for (j = 0; j < 8; j += 1)
  B[j] = A[j] + 1;
""")
    out = applied(res)
    assert [r.directive.kind for r in res.reports] == ["strip_mine", "reverse"]
    assert equivalent(strip_pragmas(p), out, trials=10, seed=4)


def test_tile_with_may_alias_becomes_two_version_nest():
    p, res = run_pipeline("""
array A[6,6] init random;
array B[6,6] init random;
maybe_alias(A, B);

#pragma xform loop(i,j) tile sizes(3,2) fallback
for (i = 0; i < 6; i += 1)
  for (j = 0; j < 6; j += 1)
    A[i,j] = B[j,i] + 1;
""")
    r = res.reports[0]
    assert r.verdict.kind == "valid_with_rtc"
    assert r.verdict.rtc_pairs == (("A", "B"),)
    guard = res.program.body[0]
    assert isinstance(guard, IfStmt) and guard.else_body is not None
    assert equivalent(strip_pragmas(p), res.program, trials=25, seed=9)


def test_transforms_on_empty_domain():
    for kind, clauses in (("strip_mine", {"size": 2}),
                          ("unroll", {"full": True}),
                          ("reverse", {}),
                          ("peel", {"first": 1})):
        p, res = run_pipeline("array A[4] init random;\n"
                              "for (i = 3; i < 3; i += 1) A[i] = i;\n")
        base = strip_pragmas(p)
        candidate = with_directive(p, kind, clauses)
        from xform import apply_pipeline, plan_pipeline
        res = apply_pipeline(candidate, plan_pipeline(candidate))
        assert res.error is None, kind
        assert equivalent(base, res.program, trials=3, seed=0), kind


def test_chained_distribute_then_fuse_in_one_pipeline():
    p, res = run_pipeline("""
array A[9] init random;
array B[9] init random;

#pragma xform loop(p,q) fuse fused_id(f)
#pragma xform distribute ids(p,q)
for (i = 1; i < 9; i += 1) {
  A[i] = i * 2;
  B[i] = A[i-1] + 1;
}
""")
    out = applied(res)
    assert [r.directive.kind for r in res.reports] == ["distribute", "fuse"]
    assert len([s for s in out.body if isinstance(s, ForLoop)]) == 1
    assert out.body[0].name == "f"
    assert equivalent(strip_pragmas(p), out, trials=15, seed=2)


def test_simd_decomposition_orderings_verify_with_differing_traces():
    pa, ra = run_pipeline(open("tests/corpus/25_simd_a.loop").read())
    pb, rb = run_pipeline(open("tests/corpus/26_simd_b.loop").read())
    outa, outb = applied(ra), applied(rb)
    assert equivalent(strip_pragmas(pa), outa, trials=20, seed=0)
    assert equivalent(strip_pragmas(pb), outb, trials=20, seed=0)
    # both keep the original instance order, but the executed loop structure
    # differs when the trip count is not a multiple of the vector width
    _, ta = run(outa)
    _, tb = run(outb)
    assert order_preserved(ta, tb)
    assert [r.cur_ivec for r in ta] != [r.cur_ivec for r in tb]


def test_strip_mine_with_stride_loop():
    p, res = run_pipeline("array A[20] init zero;\n"
                          "#pragma xform stripmine size(2)\n"
                          "for (i = 1; i < 20; i += 3) A[i] = i;\n")
    out = applied(res)
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)
    assert [r.ivec[0][1] for r in t1] == [1, 4, 7, 10, 13, 16, 19]


def test_stripe_mine_with_stride_loop():
    p, res = run_pipeline("array A[24] init zero;\n"
                          "#pragma xform stripemine count(3)\n"
                          "for (i = 0; i < 24; i += 2) A[i] = i;\n")
    out = applied(res)
    _, t1 = run(out)
    # 12 logical iterations in 3-element stripes with logical stride 4
    assert [r.ivec[0][1] for r in t1][:6] == [0, 8, 16, 2, 10, 18]
    _, t0 = run(strip_pragmas(p))
    assert instance_multiset(t0) == instance_multiset(t1)


def test_reverse_with_stride_loop():
    p, res = run_pipeline("array A[20] init random;\narray B[20] init random;\n"
                          "#pragma xform reverse\n"
                          "for (i = 1; i < 20; i += 3) A[i] = B[i] + 1;\n")
    out = applied(res)
    _, t1 = run(out)
    assert [r.ivec[0][1] for r in t1] == [19, 16, 13, 10, 7, 4, 1]
    assert equivalent(strip_pragmas(p), out, trials=10, seed=8)


def test_collapse_with_strides_and_offsets():
    p, res = run_pipeline("""
array A[9,11] init random;

#pragma xform loop(i,j) collapse
for (i = 2; i < 9; i += 3)
  for (j = 1; j < 11; j += 4)
    A[i,j] = A[i,j] * 2;
""")
    out = applied(res)
    t0, t1 = traces(strip_pragmas(p), out)
    assert order_preserved(t0, t1)
    loop = out.body[0]
    assert (loop.lower.value, loop.upper.value, loop.step) == (0, 9, 1)


@pytest.mark.parametrize("name", corpus_names() + ["dgemm8"])
def test_a_candidate_shares_no_statement_with_its_input(monkeypatch, name):
    # a builder may move the candidate's own statements, but neither reuses
    # the input's (the program of record when the step is not applied) nor
    # places one statement twice
    src = load_corpus("05_dgemm.loop").replace("16", "8") if name == "dgemm8" \
        else load_corpus(name)
    p = parse_named(src)
    real, calls = transforms.build_candidate, []

    def checked(program, pd):
        calls.append(pd)
        cand, info = real(program, pd)
        after = [id(s) for s in iter_stmts(cand.body)]
        assert len(set(after)) == len(after), pd.directive.describe()
        assert set(after).isdisjoint(id(s) for s in iter_stmts(program.body)), \
            pd.directive.describe()
        return cand, info

    monkeypatch.setattr(transforms, "build_candidate", checked)
    for mode in ("default", "fallback", "force"):
        transforms.apply_pipeline(p, plan_pipeline(p), safety_override=mode)
    assert calls


# helpers used above -------------------------------------------------------


def run_pipeline_from(program):
    from xform import apply_pipeline, plan_pipeline
    res = apply_pipeline(program, plan_pipeline(program))
    return program, res


def with_directive_program(program, kind, clauses, targets=()):
    from xform.lang import Directive, clone_program
    p = clone_program(program)
    loop = next(l for l in iter_loops(p.body) if isinstance(l, ForLoop))
    loop.pragmas = [Directive(kind, tuple(targets), dict(clauses),
                              "default", False, False, loop.line, 0)]
    return p

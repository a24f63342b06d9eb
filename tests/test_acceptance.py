"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Each test pins its tolerance: trace comparisons are exact
sequence or multiset equality, memory comparisons are exact int64 equality,
and the timed criteria assert their wall-clock budgets.
"""

import os
import subprocess
import sys
import time

from xform import (
    apply_pipeline, compute_dependences, emit_program,
    equivalent, parse_program, plan_pipeline,
)
from xform.deps import DepsError
from xform.lang import Directive, ForLoop, WhileLoop, iter_loops, strip_pragmas
from xform.legality import (
    ALWAYS_VALID, HARD_ERROR, IMPOSSIBLE, INVALID, KEEP_ORIGINAL, TRANSFORM,
    TRANSFORM_WITH_RTC, VALID_WITH_RTC, Verdict, resolve,
)

from conftest import (
    CORPUS_DIR, corpus_names, first_top_for, load_corpus, parse_named,
    run_pipeline, with_directive,
)
from reference_deps import brute_force_dependences, dep_signature, is_superset
from reference_interp import instance_multiset, order_preserved, run
from reference_lang import alpha_normalize, structurally_equal


def _ok(n, text):
    print(f"\nACCEPTANCE {n} {text}: PASS")


def _pipeline(program, **kw):
    return apply_pipeline(program, plan_pipeline(program), **kw)


def _programs_with_top_for():
    out = []
    for name in corpus_names():
        p = parse_named(load_corpus(name))
        if first_top_for(p) is not None:
            out.append((name, p))
    return out


def _const_trips_of(program, loop):
    from xform.kinds import _const_trips
    return _const_trips(program, loop)


# ---------------------------------------------------------------------------


def test_c1_safety_matrix_conformance():
    t0 = time.time()
    expected = {
        (ALWAYS_VALID, "default"): TRANSFORM,
        (ALWAYS_VALID, "fallback"): TRANSFORM,
        (ALWAYS_VALID, "force"): TRANSFORM,
        (VALID_WITH_RTC, "default"): TRANSFORM,
        (VALID_WITH_RTC, "fallback"): TRANSFORM_WITH_RTC,
        (VALID_WITH_RTC, "force"): KEEP_ORIGINAL,
        (INVALID, "default"): TRANSFORM,
        (INVALID, "fallback"): KEEP_ORIGINAL,
        (INVALID, "force"): KEEP_ORIGINAL,
        (IMPOSSIBLE, "default"): KEEP_ORIGINAL,
        (IMPOSSIBLE, "fallback"): KEEP_ORIGINAL,
        (IMPOSSIBLE, "force"): KEEP_ORIGINAL,
    }
    checked = 0
    for (vk, mode), want in expected.items():
        for required in (False, True):
            v = Verdict(vk, rtc_pairs=(("A", "B"),) if vk == VALID_WITH_RTC else ())
            got = resolve(v, mode, required).kind
            want_r = HARD_ERROR if (want == KEEP_ORIGINAL and required) else want
            assert got == want_r, (vk, mode, required)
            checked += 1
    assert checked == 24
    assert time.time() - t0 < 1.0
    _ok(1, "safety-matrix conformance (24 cells)")


def test_c2_order_preservation_over_corpus():
    covered = set()
    for name, base in _programs_with_top_for():
        original = strip_pragmas(base)
        loop = first_top_for(original)
        trips = _const_trips_of(original, loop)
        specs = [("strip_mine", {"size": 3}),
                 ("unroll", {"factor": 2}),
                 ("peel", {"first": 2}),
                 ("collapse", {"levels": 1})]
        if trips is not None:
            specs += [("unroll", {"full": True}),
                      ("peel", {"last": 2}),
                      ("peel", {"multiple": 3})]
        _, t_orig = run(original, seed=5)
        for kind, clauses in specs:
            candidate = with_directive(base, kind, clauses)
            res = _pipeline(candidate)
            assert res.error is None, (name, kind, res.error)
            assert all(r.action.kind == TRANSFORM for r in res.reports), \
                (name, kind, res.reports[0].warning)
            _, t_new = run(res.program, seed=5)
            assert order_preserved(t_orig, t_new), (name, kind, clauses)
            covered.add(name)
    assert len(covered) >= 15, f"only {len(covered)} corpus programs exercised"

    # Strip-mining 12 iterations by 3 reproduces the strip grouping
    _, res = run_pipeline(load_corpus("01_stripmine12.loop"))
    _, t = run(res.program)
    assert [r.ivec[0][1] for r in t] == list(range(12))
    assert [r.cur_ivec[0] for r in t] == [0, 0, 0, 3, 3, 3, 6, 6, 6, 9, 9, 9]
    # Stripe-mining with count 3 reproduces the stripe order
    _, res = run_pipeline(load_corpus("02_stripemine12.loop"))
    _, t = run(res.program)
    assert [r.ivec[0][1] for r in t] == [0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11]
    _ok(2, f"order preservation over {len(covered)} programs "
           "+ strip/stripe reference orders")


def test_c3_instance_bijection():
    t0 = time.time()
    checked = 0
    for name, base in _programs_with_top_for():
        original = strip_pragmas(base)
        loop = first_top_for(original)
        trips = _const_trips_of(original, loop)
        band = [loop.name]
        cur = loop
        while len(cur.body) == 1 and isinstance(cur.body[0], ForLoop):
            cur = cur.body[0]
            band.append(cur.name)
        specs = [("reverse", {}, ()), ("distribute", {}, ())]
        if len(band) >= 2:
            specs.append(("tile", {"sizes": (2, 2)}, tuple(band[:2])))
            specs.append(("interchange", {"permutation": (band[1], band[0])},
                          tuple(band[:2])))
        else:
            specs.append(("tile", {"sizes": (2,)}, ()))
        if trips is not None and trips > 0:
            count = next((c for c in (3, 2, 4, 5) if trips % c == 0), trips)
            specs.append(("stripe_mine", {"count": count}, ()))
        _, t_orig = run(original, seed=5)
        want = instance_multiset(t_orig)
        for kind, clauses, targets in specs:
            candidate = with_directive(base, kind, clauses, targets=targets)
            res = _pipeline(candidate)  # default mode: applied even if invalid
            assert res.error is None
            if res.reports[0].action.kind != TRANSFORM:
                continue  # structurally impossible here; not counted
            _, t_new = run(res.program, seed=5)
            assert instance_multiset(t_new) == want, (name, kind)
            checked += 1
    # fuse, on the two fusable corpus programs
    for name in ("17_fuse_pair.loop", "18_fuse_invalid.loop"):
        base = parse_named(load_corpus(name))
        original = strip_pragmas(base)
        candidate = with_directive(base, "fuse", {"fused_id": "f"},
                                   targets=("i", "j"))
        res = _pipeline(candidate)
        assert res.reports[0].action.kind == TRANSFORM
        _, t_orig = run(original, seed=5)
        _, t_new = run(res.program, seed=5)
        assert instance_multiset(t_new) == instance_multiset(t_orig), name
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"instance bijection took {elapsed:.1f}s"
    _ok(3, f"instance bijection across {checked} applications in {elapsed:.1f}s")


def test_c4_oracle_equivalence_and_divergence_detection():
    for name in corpus_names():
        base = parse_named(load_corpus(name))
        res = _pipeline(base, safety_override="fallback")
        assert res.error is None, name
        report = equivalent(strip_pragmas(base), res.program, trials=100, seed=0)
        assert report, (name, report.detail)
    # the Invalid interchange applied under default mode must be caught
    r = subprocess.run(
        [sys.executable, "-m", "xform",
         os.path.join(CORPUS_DIR, "06_interchange_blocker.loop"),
         "--verify", "100"],
        capture_output=True, text=True)
    assert r.returncode == 2, r.stderr
    assert "verification mismatch" in r.stderr
    _ok(4, f"oracle equivalence (100 trials x {len(corpus_names())} programs) "
           "+ divergence detected (exit 2)")


def test_c5_dependence_soundness():
    nests = 0
    for name in corpus_names():
        p = parse_named(load_corpus(name))
        p = strip_pragmas(p)
        for s in p.body:
            if not isinstance(s, ForLoop):
                continue
            try:
                oracle = brute_force_dependences(p, s)
            except DepsError:
                continue
            ds = compute_dependences(p, s)
            if ds.exact:
                assert dep_signature(ds) == dep_signature(oracle), name
            else:
                assert is_superset(ds, oracle), name
            cons = compute_dependences(p, s, max_enum=1)
            assert not cons.exact
            assert is_superset(cons, oracle), name
            nests += 1
    assert nests >= 15
    # the classic blocker: distance (1,-1), and interchange of it is invalid
    p = parse_named(load_corpus("06_interchange_blocker.loop"))
    nest = first_top_for(p)
    ds = compute_dependences(p, nest)
    assert any(d.kind == "flow" and d.distance == (1, -1) for d in ds.deps)
    res = _pipeline(p, safety_override="fallback")
    assert res.reports[0].verdict.kind == INVALID
    _ok(5, f"dependence soundness on {nests} nests + (1,-1) blocker")


def test_c6_composition_identities():
    # tile(k=1, s, peel=none) builds the same tree as strip_mine(s)
    for name in ("01_stripmine12.loop", "09_unroll_partial7.loop",
                 "19_reverse_free.loop"):
        base = parse_named(load_corpus(name))
        tiled = with_directive(base, "tile",
                               {"sizes": (3,), "floor_ids": ("f",), "tile_ids": ("t",)})
        striped = with_directive(base, "strip_mine",
                                 {"size": 3, "floor_id": "f", "tile_id": "t"})
        r1, r2 = _pipeline(tiled), _pipeline(striped)
        assert structurally_equal(r1.program.body, r2.program.body), name

    # fuse(distribute(L)) == L up to generated names
    for name in ("14_distribute_hmmer.loop", "15_distribute_valid.loop",
                  "16_distribute_invalid.loop"):
        base = parse_named(load_corpus(name))
        loop = first_top_for(base)
        parts = len(loop.body)
        ids = tuple(f"p{k}" for k in range(parts))
        distributed = with_directive(base, "distribute", {"ids": ids})
        r1 = _pipeline(distributed)  # default mode applies even when invalid
        assert all(r.action.kind == TRANSFORM for r in r1.reports), name
        refused = r1.program
        back = with_directive_named(refused, "fuse", {"fused_id": "f"}, ids)
        r2 = _pipeline(back)
        assert all(r.action.kind == TRANSFORM for r in r2.reports), name
        assert structurally_equal(alpha_normalize(strip_pragmas(base).body),
                                  alpha_normalize(r2.program.body)), name

    # partial unroll == strip-mine + full unroll of the strip, trace-exact
    for name, factor in (("01_stripmine12.loop", 3), ("08_unroll_full4.loop", 2),
                         ("10_peel_first3.loop", 2)):
        base = parse_named(load_corpus(name))
        partial = with_directive(base, "unroll", {"factor": factor})
        r1 = _pipeline(partial)
        assert all(r.action.kind == TRANSFORM for r in r1.reports)
        two_step = strip_pragmas(base)
        loop = first_top_for(two_step)
        loop.pragmas = [
            Directive("strip_mine", (), {"size": factor, "floor_id": "sf",
                                         "tile_id": "st"}, line=loop.line, uid=0),
            Directive("unroll", ("st",), {"full": True}, line=loop.line, uid=1),
        ]
        r2 = _pipeline(two_step)
        assert all(r.action.kind == TRANSFORM for r in r2.reports), name
        _, t1 = run(r1.program, seed=3)
        _, t2 = run(r2.program, seed=3)
        assert order_preserved(t1, t2), name
    _ok(6, "composition identities (tile/strip, fuse/distribute, unroll/strip+full)")


def with_directive_named(program, kind, clauses, targets):
    from xform.lang import clone_program
    p = clone_program(program)
    loop = next(iter_loops(p.body))
    loop.pragmas = [Directive(kind, tuple(targets), dict(clauses),
                              "default", False, False, loop.line, 0)]
    return p


def test_c7_decomposition_example_both_orderings():
    pa = parse_named(load_corpus("25_simd_a.loop"))
    pb = parse_named(load_corpus("26_simd_b.loop"))
    ra, rb = _pipeline(pa), _pipeline(pb)
    for res in (ra, rb):
        assert res.error is None
        assert all(r.action.kind == TRANSFORM for r in res.reports)
    assert equivalent(strip_pragmas(pa), ra.program, trials=100, seed=0)
    assert equivalent(strip_pragmas(pb), rb.program, trials=100, seed=0)
    _, ta = run(ra.program)
    _, tb = run(rb.program)
    # same instances, same original order, different executed loop structure
    assert order_preserved(ta, tb)
    assert [r.cur_ivec for r in ta] != [r.cur_ivec for r in tb]
    _ok(7, "vector-width decomposition: both orderings verify, traces differ")


def test_c8_dgemm_pipeline_regression():
    t0 = time.time()
    base = parse_named(load_corpus("05_dgemm.loop"))
    plan = plan_pipeline(base)
    assert [s.directive.kind for s in plan.steps] == [
        "tile", "interchange", "unroll_and_jam", "unroll_and_jam"]
    res = apply_pipeline(base, plan)
    assert res.error is None
    for r in res.reports:
        assert r.verdict.kind == ALWAYS_VALID, r.warning
        assert r.action.kind == TRANSFORM
    report = equivalent(strip_pragmas(base), res.program, trials=100, seed=0)
    assert report, report.detail
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"dgemm regression took {elapsed:.1f}s"
    _ok(8, f"dgemm pipeline (tile+interchange+2x unroll-and-jam) in {elapsed:.1f}s")


def test_c9_roundtrip_everything():
    count = 0
    for name in corpus_names():
        src = load_corpus(name)
        p = parse_program(src)
        text = emit_program(p)
        assert structurally_equal(p, parse_program(text), compare_pragmas=True), name
        assert emit_program(parse_program(text)) == text, name
        count += 1
        for mode in (None, "fallback"):
            base = parse_named(src)
            res = _pipeline(base, safety_override=mode)
            if res.error:
                continue
            out = emit_program(res.program)
            assert emit_program(parse_program(out)) == out, (name, mode)
            count += 1
    _ok(9, f"parse/emit round-trip on {count} sources")

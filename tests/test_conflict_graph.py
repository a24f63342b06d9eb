"""The linear conflict graph: write-separated adjacent pairs decide order
preservation exactly as all conflicting pairs do, the verdict text is the one
all pairs give, a pipeline that carries the graph from step to step
reports exactly what classifying every step from scratch reports, and a
pipeline runs with the cyclic collector paused and then as the caller had
it."""

import contextlib
import dataclasses
import gc

import pytest
from hypothesis import given, settings, strategies as st

from xform import cli, deps, emit_program, plan_pipeline, transforms
from xform.deps import compute_dependences, enumerate_instances
from xform.legality import _judge_order, judge_exact
from xform.lang import strip_pragmas
from xform.transforms import TransformError, apply_pipeline, build_candidate, classify

from reference_deps import brute_force_dependences, judge_walked, keyed, placed_deps, rows
from conftest import corpus_names, load_corpus, parse_named, run_pipeline

HEADER = "array A[16,16] init random;\narray B[16,16] init random;\n"

DIRECTIVES = [
    "#pragma xform loop(i) reverse",
    "#pragma xform loop(j) reverse",
    "#pragma xform loop(i,j) interchange permutation(j,i)",
    "#pragma xform loop(i,j) tile sizes(2,2)",
    "#pragma xform loop(i,j) tile sizes(3,2) peel(rectangular)",
    "#pragma xform loop(i) stripemine count(2)",
    "#pragma xform loop(j) stripemine count(2)",
    "#pragma xform loop(i) unrollingandjam factor(2)",
    "#pragma xform loop(j) distribute",
]


@st.composite
def subscripts(draw):
    def one(var):
        form = draw(st.sampled_from(["var", "const"]))
        if form == "const":
            return str(draw(st.integers(min_value=0, max_value=2)))
        return f"{var}+{draw(st.integers(min_value=0, max_value=2))}"
    return f"{one('i')}, {one('j')}"


@st.composite
def nests(draw):
    """2-deep nests of 1-3 statements; constant subscripts make addresses
    that many instances read and write, in any mix."""
    n1 = draw(st.integers(min_value=2, max_value=6))
    n2 = draw(st.integers(min_value=2, max_value=6))
    stmts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        dst = draw(st.sampled_from(["A", "B"]))
        src = draw(st.sampled_from(["A", "B"]))
        op = draw(st.sampled_from(["=", "+="]))
        stmts.append(f"{dst}[{draw(subscripts())}] {op} {src}[{draw(subscripts())}] + i;")
    directive = draw(st.sampled_from(DIRECTIVES))
    alias = draw(st.sampled_from(["", "maybe_alias(A, B);\n"]))
    return (HEADER + alias + directive + "\n"
            f"for (i = 0; i < {n1}; i += 1)\n"
            f"  for (j = 0; j < {n2}; j += 1) {{ {' '.join(stmts)} }}\n")


def _reaches(edges, n):
    succ = [[] for _ in range(n)]
    for i, j, _ in edges:
        succ[i].append(j)
    out = []
    for s in range(n):
        seen, todo = set(), [s]
        while todo:
            for t in succ[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        out.append(seen)
    return out


@settings(max_examples=200, deadline=None)
@given(nests())
def test_linear_edges_decide_like_all_pairs(src):
    p = parse_named(src)
    cur = strip_pragmas(p)
    depset = compute_dependences(cur, cur.body)
    assert depset.exact
    # at most two edges per access, and a chain of edges joins every pair
    accesses = sum(len(set(zip(*fc))) for fc in depset.instances.accesses.values())
    assert len(depset.pairs) <= 2 * accesses
    reach = _reaches(depset.pairs, len(depset.instances))
    assert all(j in reach[i] for i, j, _ in depset.full_pairs)

    try:
        cand, _ = build_candidate(cur, plan_pipeline(p).steps[0])
    except TransformError:
        return
    cinsts = enumerate_instances(cand, cand.body)
    walked = {c.key: c for c in cinsts}
    placed = [(c.loops, c.logical, c.pos) for c in (walked[i.key] for i in depset.instances)]
    times = [p[2] for p in placed]
    linear = _judge_order(depset, depset.pairs, times)
    full = _judge_order(depset, depset.full_pairs, times)
    assert linear.kind == full.kind, src
    assert judge_exact(depset, times).describe() == full.describe(), src
    if full.kind == "always_valid":
        # the carried graph is the candidate's own
        fresh = compute_dependences(cand, cand.body)
        assert keyed(depset) == keyed(fresh), src
        assert placed_deps(depset, placed) == set(fresh.deps), src


# hand cases ----------------------------------------------------------------

W_R_R_W = HEADER + """for (i = 0; i < 4; i += 1)
  if (i % 3 == 0) A[0,0] = i; else B[i,0] = A[0,0];
"""

W_R_W_R = HEADER + """for (i = 0; i < 4; i += 1)
  if (i % 2 == 0) A[0,0] = i; else B[i,0] = A[0,0];
"""


def _region(src):
    p = parse_named(src)
    return compute_dependences(p, p.body[0])


def _schedule(instances, order):
    """The region's instances run in another order (or some dropped/twice)."""
    return [dataclasses.replace(instances[k], pos=n) for n, k in enumerate(order)]


def _times(order):
    """Each instance's time when the region runs its instances in `order`."""
    return [order.index(k) for k in range(len(order))]


def test_swapping_reads_between_two_writes_is_valid():
    ds = _region(W_R_R_W)
    assert judge_exact(ds, _times([0, 2, 1, 3])).kind == "always_valid"


def test_read_moved_past_the_next_write_keeps_the_old_witness():
    ds = _region(W_R_R_W)
    times = _times([0, 2, 3, 1])
    verdict = judge_exact(ds, times)
    assert verdict.describe() == "invalid: dependence anti s3->s2 (2) would be violated"
    full = _judge_order(ds, ds.full_pairs, times)
    assert verdict.describe() == full.describe()


def test_witness_is_the_first_violated_pair_of_all_pairs():
    ds = _region(W_R_W_R)
    times = _times([3, 0, 1, 2])
    linear = _judge_order(ds, ds.pairs, times)
    assert linear.describe() == "invalid: dependence flow s2->s3 (1) would be violated"
    assert judge_exact(ds, times).describe() == \
        "invalid: dependence flow s2->s3 (3) would be violated"
    assert judge_walked(ds, _schedule(ds.instances, [3, 0, 1, 2])).describe() == \
        judge_exact(ds, times).describe()


CONFLICT_FREE = HEADER + "for (i = 0; i < 3; i += 1) B[i,0] = 1;\n"


def test_every_instance_must_run_exactly_once():
    # the oracle of the schedules sees a candidate that does not
    ds = _region(CONFLICT_FREE)
    assert ds.pairs == [] and ds.full_pairs == []
    insts = ds.instances
    assert judge_walked(ds, _schedule(insts, [2, 1, 0])).kind == "always_valid"
    assert judge_walked(ds, _schedule(insts, [0, 2])).describe() == \
        "invalid: instance of s1 disappears from the schedule"
    assert judge_walked(ds, _schedule(insts, [0, 1, 1, 2])).describe() == \
        "invalid: instance of s1 runs more than once"
    longer = _region(CONFLICT_FREE.replace("i < 3", "i < 4")).instances
    extra = _schedule([*insts, longer[3]], [0, 1, 2, 3])
    assert judge_walked(ds, extra).describe() == \
        "invalid: instance of s1 is not in the original schedule"


def test_parallel_witness_comes_from_all_pairs():
    # the first carried edge is a flow; the first carried pair is an anti
    _, res = run_pipeline(load_corpus("22_parallel_reduction.loop"))
    assert res.reports[0].verdict.describe() == \
        "invalid: dependence anti s1->s1 (1) would be violated"


def test_instance_keys_are_stored_by_both_enumerations():
    p = parse_named(W_R_W_R)
    exact = compute_dependences(p, p.body[0])
    oracle = brute_force_dependences(p, p.body[0])
    assert [i.key for i in exact.instances] == [(i.stmt, i.orig) for i in exact.instances]
    assert [i.key for i in oracle.instances] == [i.key for i in exact.instances]


# carrying the graph across a pipeline -------------------------------------

DGEMM16 = load_corpus("05_dgemm.loop")

PIPELINES = {
    # default mode applies the invalid interchange; the reverse of the new
    # inner loop after it is judged on a fresh graph of the interchanged nest
    "invalid_then_judged": """array A[8,8] init random;

#pragma xform loop(i) reverse
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 1; i < 8; i += 1)
  for (j = 0; j < 7; j += 1)
    A[i,j] = A[i-1,j+1] + 1;
""",
    # at --max-enum 100 the nest fits the exact route (6 instances, 15,100
    # loop steps) and the tiled nest does not (25,100 steps), so the reverse
    # is judged conservatively from scratch, and must be with a carried graph
    "step_cap": """array A[256,160] init random;

#pragma xform loop(i2) reverse
#pragma xform loop(i,j) tile sizes(1,3) floor_ids(i1,j1) tile_ids(i2,j2)
for (i = 0; i < 100; i += 1)
  for (j = 0; j < 150; j += 1)
    if (i + j < 3) A[i+j, 0] = A[i+j, 0] + 1;
""",
    # an exact always-valid interchange carries its graph into a step that
    # reads it in the current schedule: the reverse of the new inner loop,
    # judged invalid, with the first violated pair in the current order as
    # its witness ...
    "carried_then_invalid": """array A[8,8] init random;

#pragma xform loop(i) reverse
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 1; i < 8; i += 1)
  for (j = 0; j < 7; j += 1)
    A[i,j] = A[i-1,j] + A[i,j+1];
""",
    # ... a parallel mark, judged by reverse's schedule ...
    "carried_then_parallel": """array A[8,8] init random;

#pragma xform loop(i) parallel
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 1; i < 8; i += 1)
  for (j = 0; j < 8; j += 1)
    A[i,j] = A[i-1,j] + 1;
""",
    # ... and a reverse whose generated arithmetic is not proved inside
    # int64, so the schedule gate fails and the conservative rule runs (over
    # a param bound, since `reverse` reflects between two constant bounds
    # within the loop's own values)
    "carried_then_unproved": """param L = 9223372036854775801;
array A[8,8] init random;

#pragma xform loop(i) reverse
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = L; i < 9223372036854775807; i += 1)
  for (j = 0; j < 8; j += 1)
    A[i - 9223372036854775800, j] = A[i - 9223372036854775801, j] + 1;
""",
    # a valid mark reads the graph that an interchange carried, with no fresh
    # analysis ...
    "carried_then_valid_parallel": """array A[8,8] init random;

#pragma xform loop(i) parallel
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 0; i < 8; i += 1)
  for (j = 1; j < 8; j += 1)
    A[i,j] = A[i,j-1] + 1;
""",
    # ... and carries it on in the current order: the fusion after a mark on
    # the first sibling is invalid, and would be valid on the reversed order
    "parallel_then_siblings": """array A[4,8] init random;
array B[4,8] init random;

#pragma xform loop(i,j) fuse fused_id(f)
#pragma xform loop(i) parallel
for (o = 0; o < 4; o += 1) {
  for (i = 0; i < 8; i += 1)
    A[o,i] = o + i;
  for (j = 0; j < 8; j += 1)
    B[o,j] = A[o,7-j] + 1;
}
""",
}

# the second step of each: its kind, and whether a schedule judges it
CARRIED_PATHS = {
    "carried_then_invalid": ("reverse", True),
    "carried_then_parallel": ("parallel", True),
    "carried_then_unproved": ("reverse", False),
}


def _outcome(p, monkeypatch, carried: bool, **kw):
    with monkeypatch.context() as m:
        if not carried:
            real = transforms.classify
            m.setattr(transforms, "classify",
                      lambda *a, graphs, **k: real(*a, graphs={}, **k))
        res = apply_pipeline(p, plan_pipeline(p), **kw)
    reports = [(r.verdict.kind, r.verdict.describe(), r.action.kind, r.action.rtc_pairs,
                r.warning) for r in res.reports]
    return reports, res.error, emit_program(res.program, annotate=True)


@pytest.mark.parametrize("name", corpus_names() + sorted(PIPELINES))
def test_carried_graph_reports_match_from_scratch(name, monkeypatch):
    p = parse_named(PIPELINES[name] if name in PIPELINES else load_corpus(name))
    for mode in ("default", "fallback", "force"):
        for max_enum in (1, 64, 100, 4096):
            kw = dict(safety_override=mode, max_enum=max_enum)
            assert _outcome(p, monkeypatch, True, **kw) == \
                _outcome(p, monkeypatch, False, **kw), (name, mode, max_enum)


def _spied_steps(name, monkeypatch):
    """Apply a pipeline under fallback; per step (kind, whether a graph was
    carried into it, verdict, the exactness of each analysis it read), and
    whether each exact step found a schedule."""
    steps, scheduled, analyses = [], [], []
    classify_, exact_schedule = transforms.classify, transforms.exact_schedule
    compute = deps.compute_dependences

    def spy_compute(*a, **k):
        ds = compute(*a, **k)
        analyses.append(ds.exact)
        return ds

    def spy_classify(*a, graphs, **k):
        carried = bool(graphs)
        analyses.clear()
        verdict = classify_(*a, graphs=graphs, **k)
        steps.append((a[1].directive.kind, carried, verdict.describe(), list(analyses)))
        return verdict

    def spy_schedule(*a, **k):
        place = exact_schedule(*a, **k)
        scheduled.append(place is not None)
        return place

    monkeypatch.setattr(transforms, "classify", spy_classify)
    monkeypatch.setattr(transforms, "exact_schedule", spy_schedule)
    monkeypatch.setattr(deps, "compute_dependences", spy_compute)
    p = parse_named(PIPELINES[name])
    apply_pipeline(p, plan_pipeline(p), safety_override="fallback")
    return steps, scheduled


@pytest.mark.parametrize("name", sorted(CARRIED_PATHS))
def test_each_rare_path_reads_a_carried_graph(name, monkeypatch):
    steps, scheduled = _spied_steps(name, monkeypatch)
    kind, by_schedule = CARRIED_PATHS[name]
    # a carried step reads one fresh analysis, and it is exact; the witness
    # is in the interchanged nest's loops (j,i), not the source's
    assert steps == [("interchange", False, "always valid", [True]),
                     (kind, True, "invalid: dependence flow s2->s2 (0,1) would be violated",
                      [True])]
    assert scheduled == [True, by_schedule]


@pytest.mark.parametrize("name, first, second, verdict", [
    ("carried_then_valid_parallel", "interchange", "parallel", "always valid"),
    ("parallel_then_siblings", "parallel", "fuse",
     "invalid: dependence flow s2->s4 (0) would be violated"),
])
def test_a_step_after_a_valid_step_reads_no_fresh_analysis(name, first, second, verdict,
                                                             monkeypatch):
    # a mark is judged on the carried graph, and carries it on unchanged
    steps, scheduled = _spied_steps(name, monkeypatch)
    assert steps == [(first, False, "always valid", [True]),
                     (second, True, verdict, [])]
    assert scheduled == [True, True]


def test_invalid_step_drops_the_graph():
    p = parse_named(PIPELINES["invalid_then_judged"])
    cur = strip_pragmas(p)
    first, _ = plan_pipeline(p).steps
    cand, info = build_candidate(cur, first)
    graphs = {(0, 1): (compute_dependences(cur, cur.body), None)}
    assert classify(cur, first, cand, info, graphs=graphs).kind == "invalid"
    assert graphs == {}
    res = apply_pipeline(p, plan_pipeline(p))
    assert [r.verdict.kind for r in res.reports] == ["invalid", "always_valid"]


def test_candidate_over_the_step_cap_is_not_carried():
    p = parse_named(PIPELINES["step_cap"])
    res = apply_pipeline(p, plan_pipeline(p), max_enum=100)
    assert [r.verdict.kind for r in res.reports] == ["always_valid", "invalid"]
    assert res.reports[1].verdict.witness.distance == (None,) * 4


def test_valid_step_carries_the_candidates_graph():
    p = parse_named(DGEMM16)
    cur = strip_pragmas(p)
    pd = plan_pipeline(p).steps[0]
    cand, info = build_candidate(cur, pd)
    graphs: dict = {}
    assert classify(cur, pd, cand, info, graphs=graphs).kind == "always_valid"
    span = (info.span_start, info.span_start + info.span_new)
    assert list(graphs) == [span]
    region, placement = graphs[span]
    # the region's own graph, unchanged, and the candidate's placement
    assert list(region.instances) == list(compute_dependences(cur, cur.body).instances)
    cscope = cand.body[span[0]:span[1]]
    walked = enumerate_instances(cand, cscope)
    placed = rows(placement, len(region.instances))
    assert [(region.instances[k].key, *placed[k][:2])
            for k in sorted(range(len(placed)), key=lambda k: placed[k][2])] == \
        [(c.key, c.loops, c.logical) for c in walked]
    fresh = compute_dependences(cand, cscope)
    assert keyed(region) == keyed(fresh)
    assert placed_deps(region, placed) == set(fresh.deps)


@pytest.mark.parametrize("m, instances, edges", [(8, 512, 896), (12, 1_728, 3_168),
                                                  (16, 4_096, 7_680)])
def test_dgemm_graph_sizes(m, instances, edges):
    # per address C[i,j], the k loop's read/write chain: a flow and an output
    # edge per instance after the first
    p = strip_pragmas(parse_named(DGEMM16.replace("16", str(m))))
    ds = compute_dependences(p, p.body)
    assert ds.exact
    assert (len(ds.instances), len(ds.pairs), len(ds.alias_pairs)) == (instances, edges, 0)


def test_dgemm_pipeline_builds_one_graph(monkeypatch):
    calls = {"compute": 0, "enumerate": 0}
    compute, enumerate_ = deps.compute_dependences, deps.enumerate_instances

    def counted_compute(*a, **k):
        calls["compute"] += 1
        return compute(*a, **k)

    def counted_enumerate(*a, **k):
        calls["enumerate"] += 1
        return enumerate_(*a, **k)

    monkeypatch.setattr(deps, "compute_dependences", counted_compute)
    monkeypatch.setattr(deps, "enumerate_instances", counted_enumerate)
    p = parse_named(DGEMM16)
    res = apply_pipeline(p, plan_pipeline(p))
    assert [r.verdict.kind for r in res.reports] == ["always_valid"] * 4
    # every step reads the carried graph and its placement, none a fresh one
    assert calls == {"compute": 1, "enumerate": 1}


# the collector pause --------------------------------------------------------


@contextlib.contextmanager
def collector(enabled: bool):
    """Run with the cyclic collector on or off, then restore its state."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_no_collection_runs_during_a_pipeline(monkeypatch):
    # from the first step to the end of the last; the collection the pause
    # defers may run as it ends, depending on what ran before
    p = parse_named(DGEMM16)
    plan = plan_pipeline(p)
    events = []
    real = transforms.classify

    def classify(*a, **k):
        events.append("step")
        verdict = real(*a, **k)
        events.append("step done")
        return verdict

    def record(phase, info):
        if phase == "start":
            events.append(f"collection of generation {info['generation']}")

    monkeypatch.setattr(transforms, "classify", classify)
    gc.callbacks.append(record)
    try:
        with collector(True):
            res = apply_pipeline(p, plan)
            assert gc.isenabled()
    finally:
        gc.callbacks.remove(record)
    assert [r.verdict.kind for r in res.reports] == ["always_valid"] * 4
    first, last = events.index("step"), len(events) - events[::-1].index("step done")
    assert set(events[first:last]) == {"step", "step done"}


DEEP_SUM = ("array A[8] init random;\n\n#pragma xform reverse\n"
            "for (i = 0; i < 8; i += 1)\n  A[i] = " + " + ".join(["i"] * 2000) + ";\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_the_callers_collector_state_comes_back(enabled, tmp_path, monkeypatch, capsys):
    p = parse_named(DGEMM16)
    with collector(enabled):
        apply_pipeline(p, plan_pipeline(p))
        assert gc.isenabled() == enabled

    # a sum 2,000 terms deep parses in a loop and overflows the stack of a
    # recursive walk in the pipeline; the error leaves through cli.main
    real, escaped = transforms.apply_pipeline, []

    def spy(*a, **k):
        try:
            return real(*a, **k)
        except RecursionError:
            escaped.append(gc.isenabled())
            raise

    monkeypatch.setattr(transforms, "apply_pipeline", spy)
    path = tmp_path / "deep.loop"
    path.write_text(DEEP_SUM)
    with collector(enabled):
        assert cli.main([str(path), "--emit", "-"]) == 1
        assert gc.isenabled() == enabled
    assert escaped == [enabled]
    assert capsys.readouterr().err == "error: program nests too deeply to process\n"


def test_an_rtc_verdict_builds_no_conflicting_pairs():
    # an rtc verdict reads only the may-alias pairs, so it needs no second pass
    p = parse_named("array A[8] init random;\narray B[8] init random;\nmaybe_alias(A, B);\n"
                    "for (i = 0; i < 4; i += 1)\n  A[i] = A[i] + B[3 - i];\n")
    ds = compute_dependences(p, p.body[0])
    assert ds.exact and ds.alias_pairs
    assert judge_exact(ds, _times([3, 2, 1, 0])).kind == "valid_with_rtc"
    assert "full_pairs" not in ds.__dict__

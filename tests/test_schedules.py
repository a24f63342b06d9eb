"""The kinds' schedules against the walked candidate.

Wherever a step of an exact region is judged by its kind's schedule
(`transforms.exact_schedule`), the placement it gives, sorted by time, must
be the candidate's execution order with the candidate's loop names and
trips; its verdict must be the one the walked candidate gives
(`reference_deps.judge_walked`) against a fresh analysis of the current
region; and the graph it carries, placed in the candidate's schedule, must
be the one a fresh analysis of the candidate builds: the same pairs by
instance key and the same distance vectors.  A `parallel` mark is judged by
reverse's schedule as a check only: its verdict must be the one
`reference_deps.judge_marked` gives on a fresh analysis of the current
region, and it carries the current placement unchanged.  Every step also
checks that the arithmetic gate is sound: a step it lets through walks
without a fault.  And every placement, made a class of instances at a time,
must give the rows of the per-instance placer
(`reference_deps.reference_placer`) from the same current placement.
"""

import pytest
from hypothesis import given, settings, strategies as st

from xform import deps, plan_pipeline, transforms
from xform.deps import DepsError, compute_dependences
from xform.lang import iter_loops, step_counts

from conftest import corpus_names, load_corpus, parse_named
from reference_deps import (
    judge_marked, judge_walked, keyed, placed_deps, reference_placer, rows, walk_candidate,
)
from test_properties import nest_programs


def assert_same_graph(depset, placement, fresh):
    """`depset`, with its instances where `placement` puts them, is the graph
    a fresh analysis builds: instances in order with their loops and trips,
    linear, full and alias pairs by key, and distance vectors."""
    assert fresh.exact
    placed = rows(placement, len(depset.instances))
    order = sorted(range(len(placed)), key=lambda k: placed[k][2])
    assert [(depset.instances[k].key, *placed[k][:2]) for k in order] == \
        [(i.key, i.loops, i.logical) for i in fresh.instances]
    assert keyed(depset) == keyed(fresh)
    assert placed_deps(depset, placed) == set(fresh.deps)


def check_step(program, pd, cand, info, max_enum, graphs):
    """Check one step's schedule against its walked candidate; returns how
    the step is judged, by its "schedule", as a "mark" or why not, the
    verdict the walked candidate or the mark's oracle gives (None unless by
    a schedule) and the placement the step carries if valid."""
    if info.schedule is None:
        return "no schedule", None, None
    stop = info.span_start + info.span_old
    region = program.body[info.span_start:stop]
    depset, placement = graphs.get((info.span_start, stop), (None, None))
    if depset is None:
        try:
            depset = compute_dependences(program, region, max_enum)
        except DepsError:
            return "no analysis", None, None
    if not depset.exact:
        return "conservative region", None, None
    cscope = cand.body[info.span_start:info.span_start + info.span_new]
    proved = step_counts(cscope, cand.param_ranges(include_opaque=False))[2]
    place = transforms.exact_schedule(program, pd, info, proved)
    walked = walk_candidate(cand, cscope)
    if place is None:
        if walked is None:
            return "unscheduled", None, None
        names = [l.name for l in iter_loops(region)]
        if any(names.count(t) > 1 for t in pd.targets):
            return "ambiguous", None, None  # copies of a target loop share its name
        return "unscheduled, walkable", None, None
    assert walked is not None, "the gate let through a candidate whose walk faults"

    current = depset
    if placement is not None:
        current = compute_dependences(program, region, max_enum)
        assert_same_graph(depset, placement, current)
    if "mark" in info.meta:  # the candidate runs in the current order
        return "mark", judge_marked(current, pd.targets[0]), placement
    placed = place(depset.instances, placement)
    view = rows(placed, len(depset.instances))
    order = sorted(range(len(view)), key=lambda k: view[k][2])
    assert [(depset.instances[k].key, view[k][0], view[k][1]) for k in order] == \
        [(c.key, c.loops, c.logical) for c in walked]
    verdict = judge_walked(current, walked)
    if verdict.kind == "always_valid" and deps.fits(len(walked), walked.steps, max_enum):
        assert_same_graph(depset, placed, compute_dependences(cand, cscope, max_enum))
    return "schedule", verdict, placed


def checked_pipeline(src: str, monkeypatch, **kw) -> list[str]:
    """Apply a program's pipeline, checking every step; returns the steps'
    statuses."""
    seen = []
    real = transforms.classify

    def classify(program, pd, cand, info, reason="", max_enum=4096, *, graphs):
        if cand is None:
            return real(program, pd, cand, info, reason, max_enum, graphs=graphs)
        status, walked_verdict, placed = check_step(program, pd, cand, info, max_enum, graphs)
        seen.append(status)
        verdict = real(program, pd, cand, info, reason, max_enum, graphs=graphs)
        if status in ("schedule", "mark"):
            assert verdict == walked_verdict
            # what a step carries is the placement checked above
            assert [placement for _, placement in graphs.values()] in ([], [placed])
        return verdict

    p = parse_named(src)
    with monkeypatch.context() as m:
        m.setattr(transforms, "classify", classify)
        transforms.apply_pipeline(p, plan_pipeline(p), **kw)
    return seen


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_schedules_match_the_walked_candidates(name, monkeypatch):
    for mode in ("default", "fallback", "force"):
        seen = checked_pipeline(load_corpus(name), monkeypatch, safety_override=mode)
        assert "unscheduled, walkable" not in seen, (name, mode)


@pytest.mark.parametrize("m", [8, 12, 16])
def test_dgemm_schedules_match_the_walked_candidates(m, monkeypatch):
    src = load_corpus("05_dgemm.loop").replace("16", str(m))
    seen = checked_pipeline(src, monkeypatch, safety_override="fallback")
    assert seen == ["schedule"] * 4


@pytest.mark.parametrize("src, max_enum, status", [
    # reverse of a loop that the unroll copied: its name is not unique
    ("array A[8,8] init random;\n#pragma xform loop(j) reverse\n"
     "#pragma xform loop(i) unroll factor(2)\nfor (i = 0; i < 8; i += 1)\n"
     "  for (j = 0; j < 8; j += 1) A[i,j] = A[i,j] + 1;\n", 4096, "ambiguous"),
    # 10,100 loop iterations fit a cap of 1; no step budget gates the tiled
    # 17,550, since the candidate is never walked
    ("array A[2] init random;\n#pragma xform loop(i,j) tile sizes(2,2)\n"
     "for (i = 0; i < 100; i += 1)\n  for (j = 0; j < 100; j += 1)\n"
     "    for (k = 0; k < 0; k += 1) A[0] = 1;\n", 1, "schedule"),
])
def test_each_gate_before_a_schedule_is_reached(src, max_enum, status, monkeypatch):
    assert checked_pipeline(src, monkeypatch, max_enum=max_enum)[-1] == status


# the columnar placer against the per-instance one ---------------------------


def placed_like_the_oracle(src: str, monkeypatch, **kw) -> list[int]:
    """Apply a program's pipeline, checking that every placement the steps
    make gives the rows of the per-instance placer
    (`reference_deps.reference_placer`) from the same current placement;
    returns the number of classes of each placement checked."""
    seen = []
    real = transforms.exact_schedule

    def exact_schedule(program, pd, info, proved):
        place = real(program, pd, info, proved)
        if place is None:
            return None
        oracle = reference_placer(info.schedule, info.meta, info.outer,
                                  program.param_ranges(include_opaque=False))

        def checked(instances, placement=None):
            placed = place(instances, placement)
            n = len(instances)
            assert rows(placed, n) == oracle(instances, placement and rows(placement, n))
            seen.append(len(placed))
            return placed
        return checked

    p = parse_named(src)
    with monkeypatch.context() as m:
        m.setattr(transforms, "exact_schedule", exact_schedule)
        transforms.apply_pipeline(p, plan_pipeline(p), **kw)
    return seen


PERFBENCH_SETTINGS = [("default", 4096), ("fallback", 4096), ("force", 4096), ("fallback", 1)]


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_placements_match_the_per_instance_placer(name, monkeypatch):
    for mode, max_enum in PERFBENCH_SETTINGS:
        placed_like_the_oracle(load_corpus(name), monkeypatch, safety_override=mode,
                               max_enum=max_enum)


@pytest.mark.parametrize("m", [8, 9, 10, 12, 16])
def test_dgemm_placements_match_the_per_instance_placer(m, monkeypatch):
    src = load_corpus("05_dgemm.loop").replace("16", str(m))
    seen = placed_like_the_oracle(src, monkeypatch, safety_override="fallback")
    assert len(seen) == 4
    # M = 9 and 10 peel a remainder of one and two trips (cuts [8, 8, 8]):
    # the tile splits the one class into the 8 regions it reaches
    assert seen[0] == (8 if m in (9, 10) else 1)


# stacked pipelines on generated nests ---------------------------------------


def _one(draw, live: list[str]):
    """One directive on the live loop names: (pragma text, consumed, introduced)."""
    x = draw(st.sampled_from(live))
    kind = draw(st.sampled_from(["reverse", "stripemine", "stripmine", "unroll",
                                 "unrollingandjam", "tile", "interchange", "distribute"]))
    if kind in ("tile", "interchange") and len(live) > 1:
        y = draw(st.sampled_from([n for n in live if n != x]))
        if kind == "interchange":
            return f"loop({x},{y}) interchange permutation({y},{x})", (), ()
        peel = draw(st.sampled_from(["", " peel(rectangular)"]))
        a, b = draw(st.integers(2, 3)), draw(st.integers(1, 3))
        return (f"loop({x},{y}) tile sizes({a},{b}){peel}", (x, y),
                (f"{x}_f", f"{y}_f", f"{x}_t", f"{y}_t"))
    if kind == "stripemine":
        return f"loop({x}) stripemine count(2)", (x,), (f"{x}_o", f"{x}_i")
    if kind == "stripmine":
        return f"loop({x}) stripmine size(2)", (x,), (f"{x}_f", f"{x}_t")
    if kind == "unroll":
        return f"loop({x}) unroll factor(2)", (), ()
    if kind == "unrollingandjam":
        return f"loop({x}) unrollingandjam factor({draw(st.integers(2, 3))})", (), ()
    if kind == "distribute":
        return f"loop({x}) distribute", (x,), ()
    return f"loop({x}) reverse", (), ()


@st.composite
def stacked_programs(draw):
    """A `test_properties` nest under 1-3 stacked directives, each naming
    loops the source or an earlier directive introduced."""
    src = draw(nest_programs())
    live = ["i", "j"] if "for (j" in src else ["i"]
    pragmas = []
    for _ in range(draw(st.integers(1, 3))):
        text, consumed, introduced = _one(draw, live)
        pragmas.append(f"#pragma xform {text}")
        live = [n for n in live if n not in consumed] + list(introduced)
        if not live:
            break
    head, loop = src.rsplit("\n", 2)[0], src.rsplit("\n", 2)[1]
    return head + "\n" + "\n".join(reversed(pragmas)) + "\n" + loop + "\n"


@settings(max_examples=150, deadline=None)
@given(stacked_programs(), st.sampled_from(["default", "fallback"]),
       st.sampled_from([4096, 24]))
def test_stacked_schedules_match_the_walked_candidates(src, mode, max_enum):
    with pytest.MonkeyPatch.context() as m:
        seen = checked_pipeline(src, m, safety_override=mode, max_enum=max_enum)
    assert "unscheduled, walkable" not in seen, src

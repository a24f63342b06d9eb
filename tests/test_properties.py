"""Whole-system properties over randomly generated programs: whatever the
pipeline applies under fallback mode must preserve semantics; order-preserving
transforms must preserve traces exactly; everything applied must preserve the
instance multiset."""

from hypothesis import example, given, settings, strategies as st

from xform import apply_pipeline, emit_program, equivalent, parse_program, plan_pipeline
from xform.ir import name_loops
from xform.lang import Directive, ForLoop, strip_pragmas

from conftest import first_top_for
from reference_interp import instance_multiset, order_preserved, run


@st.composite
def nest_programs(draw):
    """1- or 2-deep nests with affine accesses, possibly loop-carried.  A loop
    may start at the param `L`, and never run where `L` is above its upper
    bound."""
    depth = draw(st.integers(min_value=1, max_value=2))
    n1 = draw(st.integers(min_value=2, max_value=9))
    decls = [f"param L = {draw(st.integers(min_value=0, max_value=12))};",
             "array A[16,16] init random;", "array B[16,16] init random;"]
    lower = st.sampled_from(["0", "0", "L"])
    if depth == 1:
        o1 = draw(st.integers(min_value=-2, max_value=2))
        o2 = draw(st.integers(min_value=-2, max_value=2))
        arr = draw(st.sampled_from(["A", "B"]))
        op = draw(st.sampled_from(["=", "+="]))
        body = f"A[i+{o1+2}, 0] {op} {arr}[i+{o2+2}, 1] + i;"
        loop = f"for (i = {draw(lower)}; i < {n1}; i += 1) {{ {body} }}"
    else:
        n2 = draw(st.integers(min_value=2, max_value=6))
        o = [draw(st.integers(min_value=-1, max_value=1)) for _ in range(4)]
        op = draw(st.sampled_from(["=", "+="]))
        body = f"A[i+{o[0]+1}, j+{o[1]+1}] {op} A[i+{o[2]+1}, j+{o[3]+1}] + B[i, j];"
        loop = (f"for (i = {draw(lower)}; i < {n1}; i += 1) {{ "
                f"for (j = {draw(lower)}; j < {n2}; j += 1) {{ {body} }} }}")
    return "\n".join(decls) + "\n" + loop + "\n"


ORDER_PRESERVING_SPECS = [
    ("strip_mine", {"size": 2}),
    ("strip_mine", {"size": 3}),
    ("unroll", {"factor": 2}),
    ("unroll", {"full": True}),
    ("peel", {"first": 1}),
    ("peel", {"last": 2}),
    ("peel", {"multiple": 3}),
    ("collapse", {"levels": 1}),
    ("collapse", {"levels": 2}),
]

ORDER_CHANGING_SPECS = [
    ("reverse", {}),
    ("stripe_mine", {"count": 2}),
    ("distribute", {}),
    ("tile", {"sizes": (2, 2)}),
    ("interchange", {}),
    ("parallel", {}),
]


def _attach(src, kind, clauses):
    p = name_loops(parse_program(src))
    loop = first_top_for(p)
    targets = ()
    cl = dict(clauses)
    if kind in ("tile", "interchange") or clauses.get("levels") == 2:
        if not (len(loop.body) == 1 and isinstance(loop.body[0], ForLoop)):
            return None  # they need a 2-deep nest
    if kind == "tile":
        targets = (loop.name, loop.body[0].name)
    if kind == "interchange":
        cl["permutation"] = (loop.body[0].name, loop.name)
    loop.pragmas = [Directive(kind, targets, cl, "default", False, False,
                              loop.line, 0)]
    return p


@settings(max_examples=50, deadline=None)
@given(nest_programs(), st.sampled_from(ORDER_PRESERVING_SPECS))
@example("array A[10,10] init zero;\n"  # two negative trip counts
         "for (i = 5; i < 0; i += 1) for (j = 5; j < 0; j += 1) A[i,j] = 7;\n",
         ("collapse", {"levels": 2}))
def test_order_preserving_transforms_keep_traces(src, spec):
    kind, clauses = spec
    p = _attach(src, kind, clauses)
    if p is None:
        return
    res = apply_pipeline(p, plan_pipeline(p))
    assert res.error is None
    assert res.reports[0].verdict.kind == "always_valid"
    original = strip_pragmas(p)
    _, t0 = run(original, seed=1)
    _, t1 = run(res.program, seed=1)
    assert order_preserved(t0, t1), (src, spec)
    assert equivalent(original, res.program, trials=5, seed=1)


@settings(max_examples=50, deadline=None)
@given(nest_programs(), st.sampled_from(ORDER_CHANGING_SPECS))
def test_applied_transforms_preserve_instance_multisets(src, spec):
    kind, clauses = spec
    p = _attach(src, kind, clauses)
    if p is None:
        return
    res = apply_pipeline(p, plan_pipeline(p))  # default: applied unless impossible
    assert res.error is None
    if res.reports[0].action.kind != "transform":
        return
    original = strip_pragmas(p)
    _, t0 = run(original, seed=1)
    _, t1 = run(res.program, seed=1)
    assert instance_multiset(t0) == instance_multiset(t1), (src, spec)


@settings(max_examples=50, deadline=None)
@given(nest_programs(), st.sampled_from(ORDER_CHANGING_SPECS))
def test_fallback_mode_always_preserves_semantics(src, spec):
    kind, clauses = spec
    p = _attach(src, kind, clauses)
    if p is None:
        return
    res = apply_pipeline(p, plan_pipeline(p), safety_override="fallback")
    assert res.error is None
    assert equivalent(strip_pragmas(p), res.program, trials=5, seed=2), (src, spec)


@settings(max_examples=40, deadline=None)
@given(nest_programs(), st.sampled_from(ORDER_PRESERVING_SPECS + ORDER_CHANGING_SPECS))
def test_transformed_output_round_trips(src, spec):
    kind, clauses = spec
    p = _attach(src, kind, clauses)
    if p is None:
        return
    res = apply_pipeline(p, plan_pipeline(p))
    text = emit_program(res.program)
    assert emit_program(parse_program(text)) == text

"""Pretty-printer round-trips: parse/emit stability over the corpus and over
transformed outputs, plus hypothesis-generated programs."""

from hypothesis import given, settings, strategies as st

from xform import apply_pipeline, emit_program, parse_program, plan_pipeline
from xform.ir import name_loops
from xform.lang import strip_pragmas

from conftest import corpus_names, load_corpus, parse_named, run_pipeline
from reference_lang import structurally_equal


def test_roundtrip_whole_corpus():
    for name in corpus_names():
        src = load_corpus(name)
        p = parse_program(src)
        text = emit_program(p)
        q = parse_program(text)
        assert structurally_equal(p, q, compare_pragmas=True), name
        assert emit_program(q) == text, name


def _fold_parallel_marks(p):
    """The emitter prints the parallel flag as a pragma line; reparsing turns
    it back into a directive.  Clear both representations for comparison."""
    from xform.lang import iter_loops
    out = strip_pragmas(p)
    for l in iter_loops(out.body):
        if hasattr(l, "parallel"):
            l.parallel = False
    return out


def test_roundtrip_transformed_outputs():
    for name in corpus_names():
        for mode in (None, "fallback"):
            _, res = run_pipeline(load_corpus(name), safety_override=mode)
            if res.error:
                continue
            text = emit_program(res.program)
            q = parse_program(text)
            assert emit_program(q) == text, (name, mode)
            assert structurally_equal(_fold_parallel_marks(res.program),
                                      _fold_parallel_marks(q)), name


def test_tiled_output_contains_min_bound_for_partial_tiles():
    _, res = run_pipeline("array A[10] init zero;\n"
                          "#pragma xform stripmine size(4)\n"
                          "for (i = 0; i < 10; i += 1) A[i] = i;\n")
    text = emit_program(res.program)
    assert "min(i_f + 4, 10)" in text


def test_rtc_output_reparses_and_guards():
    _, res = run_pipeline(load_corpus("23_rtc_alias.loop"))
    text = emit_program(res.program)
    assert "if (disjoint(A, B)) {" in text
    assert "} else {" in text
    q = parse_program(text)
    assert emit_program(q) == text


def test_keep_original_output_matches_normalized_input():
    src = load_corpus("20_reverse_dep.loop")  # invalid reverse under fallback
    p, res = run_pipeline(src)
    assert res.reports[0].action.kind == "keep_original"
    normalized = emit_program(strip_pragmas(parse_named(src)))
    assert emit_program(res.program) == normalized


def test_parallel_mark_emitted_as_pragma():
    _, res = run_pipeline(load_corpus("21_parallel_indep.loop"))
    text = emit_program(res.program)
    assert "#pragma xform parallel\nfor (i = 0; i < 8; i += 1) {" in text
    q = parse_program(text)
    assert emit_program(q) == text


def test_annotate_comments_are_skipped_on_reparse():
    _, res = run_pipeline(load_corpus("01_stripmine12.loop"))
    text = emit_program(res.program, annotate=True)
    assert "// from: strip_mine#0" in text
    q = parse_program(text)
    assert structurally_equal(strip_pragmas(res.program), strip_pragmas(q))


def test_precedence_aware_printing():
    p = parse_program("array A[9] init zero;\nA[0] = (1 + 2) * (3 - 4) % 5;\n")
    text = emit_program(p)
    assert "A[0] = (1 + 2) * (3 - 4) % 5;" in text
    assert structurally_equal(p, parse_program(text))


@st.composite
def small_programs(draw):
    ub = draw(st.integers(min_value=1, max_value=9))
    step = draw(st.integers(min_value=1, max_value=3))
    off = draw(st.integers(min_value=0, max_value=2))
    op = draw(st.sampled_from(["=", "+="]))
    expr = draw(st.sampled_from(["i", "i * 2 + 1", "min(i, 3)", "B[i] % 7 + 2",
                                 "i / 2 - B[i]"]))
    guard = draw(st.booleans())
    body = f"A[i+{off}] {op} {expr};"
    if guard:
        body = f"if (i % 2 == 0) {{ {body} }}"
    return (f"array A[12] init random;\narray B[12] init random;\n"
            f"for (i = 0; i < {ub}; i += {step}) {{ {body} }}\n")


@settings(max_examples=80, deadline=None)
@given(small_programs())
def test_roundtrip_random_programs(src):
    p = parse_program(src)
    text = emit_program(p)
    q = parse_program(text)
    assert structurally_equal(p, q, compare_pragmas=True)
    assert emit_program(q) == text

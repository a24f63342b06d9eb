"""Parser tests: grammar, pragma syntax, statement ids, rejection cases."""

import pytest

from xform import parse_directive, parse_program
from xform.frontend import ParseError
from xform.lang import Assign, ForLoop, IntLit, VarRef, WhileLoop, iter_stmts


def test_minimal_program():
    p = parse_program("array A[12] init zero;\nfor (i = 0; i < 12; i += 1) A[i] = i;\n")
    assert len(p.body) == 1
    loop = p.body[0]
    assert isinstance(loop, ForLoop)
    assert loop.var == "i"
    assert loop.lower == IntLit(0)
    assert loop.upper == IntLit(12)
    assert loop.step == 1
    assert loop.stmt_id == "s0"
    body = loop.body
    assert len(body) == 1 and isinstance(body[0], Assign)
    assert body[0].stmt_id == "s1"
    assert body[0].value == VarRef("i")


def test_statement_ids_are_source_preorder():
    p = parse_program("""
array A[4] init zero;
for (i = 0; i < 4; i += 1) {
  A[i] = 0;
  if (i < 2) {
    A[i] = 1;
  }
}
A[0] = 9;
""")
    ids = [s.stmt_id for s in iter_stmts(p.body)]
    assert ids == ["s0", "s1", "s2", "s3", "s4"]


def test_tile_pragma_over_three_deep_nest():
    p = parse_program("""
array A[16,1,1024] init zero;
#pragma xform tile sizes(16,1,1024)
for (i = 0; i < 16; i += 1)
  for (j = 0; j < 1; j += 1)
    for (k = 0; k < 1024; k += 1)
      A[i,j,k] = 0;
""")
    d = p.body[0].pragmas[0]
    assert d.kind == "tile"
    assert d.targets == ()
    assert d.clauses == {"sizes": (16, 1, 1024)}


def test_full_tile_pragma_with_ids_and_peel():
    d = parse_directive("#pragma xform loop(i,j,k) tile sizes(64,2048,256) "
                        "floor_ids(i1,j1,k1) tile_ids(i2,j2,k2) peel(rectangular)")
    assert d.kind == "tile"
    assert d.targets == ("i", "j", "k")
    assert len(d.clauses) == 4
    assert d.clauses["floor_ids"] == ("i1", "j1", "k1")
    assert d.clauses["tile_ids"] == ("i2", "j2", "k2")
    assert d.clauses["peel"] == "rectangular"


def test_unrollingandjam_pragma():
    d = parse_directive("#pragma xform loop(i2) unrollingandjam factor(4)")
    assert d.kind == "unroll_and_jam"
    assert d.targets == ("i2",)
    assert d.clauses["factor"] == 4


def test_interchange_pragma_five_names():
    d = parse_directive("#pragma xform interchange permutation(j1,k1,i1,j2,i2)")
    assert d.kind == "interchange"
    assert d.clauses["permutation"] == ("j1", "k1", "i1", "j2", "i2")


def test_unknown_transformation_rejected():
    with pytest.raises(ParseError, match="unknown transformation"):
        parse_directive("#pragma xform frobnicate")


def test_unknown_clause_rejected():
    with pytest.raises(ParseError, match="unknown clause"):
        parse_directive("#pragma xform unroll chunk(4)")


def test_duplicate_clause_rejected():
    with pytest.raises(ParseError, match="duplicate clause"):
        parse_directive("#pragma xform stripmine size(2) size(3)")


def test_unroll_factor_one_rejected_at_parse():
    with pytest.raises(ParseError, match="factor must be >= 2"):
        parse_directive("#pragma xform unroll factor(1)")


def test_safety_modifiers():
    d = parse_directive("#pragma xform reverse fallback required")
    assert d.safety == "fallback"
    assert d.safety_explicit
    assert d.required
    d2 = parse_directive("#pragma xform reverse")
    assert d2.safety == "default"
    assert not d2.safety_explicit


def test_conflicting_safety_modifiers_rejected():
    with pytest.raises(ParseError, match="conflicting safety"):
        parse_directive("#pragma xform reverse fallback force")


def test_noncanonical_step_rejected():
    with pytest.raises(ParseError, match="non-canonical"):
        parse_program("array A[4] init zero;\nfor (i = 4; i > 0; i -= 1) A[i] = 0;\n")


def test_noncanonical_bound_rejected():
    with pytest.raises(ParseError, match="non-canonical"):
        parse_program("array A[4] init zero;\nfor (i = 0; i <= 3; i += 1) A[i] = 0;\n")


def test_zero_step_rejected():
    with pytest.raises(ParseError, match="positive"):
        parse_program("array A[4] init zero;\nfor (i = 0; i < 3; i += 0) A[i] = 0;\n")


def test_directive_stack_is_bottom_up():
    p = parse_program("""
array A[8] init zero;
#pragma xform loop(i_t) unroll factor(2)
#pragma xform stripmine size(4)
for (i = 0; i < 8; i += 1)
  A[i] = i;
""")
    stack = p.body[0].pragmas
    # bottom-most pragma (stripmine, nearest the loop) is index 0
    assert [d.kind for d in stack] == ["strip_mine", "unroll"]


def test_pragma_must_precede_loop():
    with pytest.raises(ParseError, match="followed by a loop"):
        parse_program("array A[4] init zero;\n#pragma xform unroll full\nA[0] = 1;\n")


def test_pragma_allowed_on_while():
    p = parse_program("""
array A[1] init zero;
#pragma xform reverse
while (A[0] < 3)
  A[0] += 1;
""")
    assert isinstance(p.body[0], WhileLoop)
    assert p.body[0].pragmas[0].kind == "reverse"


def test_undeclared_array_rejected():
    with pytest.raises(ParseError, match="undeclared array"):
        parse_program("for (i = 0; i < 3; i += 1) A[i] = 0;\n")


def test_undeclared_scalar_rejected():
    with pytest.raises(ParseError, match="undeclared identifier"):
        parse_program("array A[4] init zero;\nA[0] = n;\n")


def test_param_and_opaque():
    p = parse_program("param N = 8 opaque;\nparam M = -2;\narray A[8] init zero;\n"
                      "for (i = 0; i < N; i += 1) A[i] = M;\n")
    assert p.params[0].opaque and p.params[0].value == 8
    assert not p.params[1].opaque and p.params[1].value == -2


def test_maybe_alias_validation():
    with pytest.raises(ParseError, match="undeclared"):
        parse_program("array A[4] init zero;\nmaybe_alias(A, B);\n")


def test_shadowing_rejected():
    with pytest.raises(ParseError, match="shadows"):
        parse_program("array A[4,4] init zero;\n"
                      "for (i = 0; i < 4; i += 1) for (i = 0; i < 4; i += 1) A[i,i] = 0;\n")


def test_dimension_mismatch_rejected():
    with pytest.raises(ParseError, match="dimensions"):
        parse_program("array A[4,4] init zero;\nfor (i = 0; i < 4; i += 1) A[i] = 0;\n")


def test_peel_requires_exactly_one_spec():
    with pytest.raises(ParseError, match="exactly one"):
        parse_directive("#pragma xform peel first(1) last(2)")
    with pytest.raises(ParseError, match="exactly one"):
        parse_directive("#pragma xform peel")


def test_distribute_parts_groups():
    d = parse_directive("#pragma xform distribute parts(s1,s2;s3) ids(a,b)")
    assert d.clauses["parts"] == (("s1", "s2"), ("s3",))
    assert d.clauses["ids"] == ("a", "b")


def test_expression_precedence():
    p = parse_program("array A[9] init zero;\nA[0] = 1 + 2 * 3 - 4 % 3;\n")
    from xform.interp import run
    mem, _ = run(p)
    assert mem.array_values("A")[0] == 1 + 2 * 3 - 4 % 3


def test_comments_are_skipped():
    p = parse_program("// a comment\narray A[4] init zero; // trailing\n"
                      "for (i = 0; i < 4; i += 1) A[i] = i; // body\n")
    assert len(p.body) == 1


def test_collapse_target_count_must_match_levels():
    with pytest.raises(ParseError, match=r"collapse target count must match levels\(...\)"):
        parse_directive("#pragma xform loop(i,j) collapse levels(3)")


@pytest.mark.parametrize("src", [
    "param N = 99999999999999999999;\n",
    "param N = -9223372036854775809;\n",
    "array A[1] init zero;\nA[0] = 99999999999999999999;\n",
    "array A[1] init zero;\nA[0] = 0 - 9223372036854775808;\n",
])
def test_integer_literal_outside_int64_is_rejected(src):
    with pytest.raises(ParseError, match="outside int64"):
        parse_program(src)


def test_int64_min_literal_parses():
    p = parse_program("param N = -9223372036854775808;\narray A[1] init zero;\n"
                      "A[0] = -9223372036854775808;\n")
    assert p.params[0].value == -2**63
    assert p.body[0].value == IntLit(-2**63)

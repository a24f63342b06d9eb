"""Loop naming, tree dumps, pipeline planning and name resolution."""

import pytest

from xform import name_loops, parse_program, plan_pipeline
from xform.ir import PlanError, dump_tree, resolve_loop_name
from xform.lang import ForLoop, iter_loops

from conftest import parse_named


def loops_of(src):
    p = parse_named(src)
    return p, [l.name for l in iter_loops(p.body)]


def test_nested_names_default_to_induction_vars():
    _, names = loops_of("array A[4,4] init zero;\n"
                        "for (i = 0; i < 4; i += 1)\n"
                        "  for (j = 0; j < 4; j += 1)\n"
                        "    A[i,j] = 0;\n")
    assert names == ["i", "j"]


def test_sibling_duplicates_get_hash_suffix():
    _, names = loops_of("array A[4] init zero;\n"
                        "for (i = 0; i < 4; i += 1) A[i] = 0;\n"
                        "for (i = 0; i < 4; i += 1) A[i] = 1;\n")
    assert names == ["i", "i#2"]


def test_dgemm_nest_preorder():
    _, names = loops_of("array C[4,4] init zero;\n"
                        "for (i = 0; i < 4; i += 1)\n"
                        "  for (j = 0; j < 4; j += 1)\n"
                        "    for (k = 0; k < 4; k += 1)\n"
                        "      C[i,j] += k;\n")
    assert names == ["i", "j", "k"]


def test_while_loops_are_named_opaque_nodes():
    p, names = loops_of("array A[1] init zero;\n"
                        "while (A[0] < 2) A[0] += 1;\n"
                        "while (A[0] < 4) A[0] += 1;\n")
    assert names == ["while", "while#2"]
    assert dump_tree(p).splitlines() == ["while while source", "while#2 while source"]


def test_dump_tree_format():
    p, _ = loops_of("array A[12] init zero;\n"
                    "for (i = 2; i < 12; i += 2) A[i] = 0;\n")
    assert dump_tree(p) == "i [2,12) step=2 source"


def test_assign_coords_record_enclosing_source_loops():
    p = parse_named("array A[4,4] init zero;\n"
                    "for (i = 0; i < 4; i += 1)\n"
                    "  for (j = 0; j < 4; j += 1)\n"
                    "    A[i,j] = 0;\n")
    assign = p.body[0].body[0].body[0]
    assert [n for n, _ in assign.orig_coords] == ["i", "j"]


def test_plan_orders_stack_bottom_up_and_resolves_generated_names():
    p = parse_named("""
array A[8,8] init zero;
#pragma xform loop(i1,j1) interchange permutation(j1,i1)
#pragma xform loop(i,j) tile sizes(2,2) floor_ids(i1,j1) tile_ids(i2,j2)
for (i = 0; i < 8; i += 1)
  for (j = 0; j < 8; j += 1)
    A[i,j] = i + j;
""")
    plan = plan_pipeline(p)
    assert [s.directive.kind for s in plan.steps] == ["tile", "interchange"]
    assert plan.steps[0].introduced == ("i1", "j1", "i2", "j2")
    assert set(plan.steps[1].targets) == {"i1", "j1"}


def test_plan_rejects_unknown_loop():
    p = parse_named("array A[4] init zero;\n"
                    "#pragma xform loop(q) unroll factor(2)\n"
                    "for (i = 0; i < 4; i += 1) A[i] = 0;\n")
    with pytest.raises(PlanError, match="unknown loop 'q'"):
        plan_pipeline(p)


def test_plan_rejects_reference_to_consumed_loop():
    p = parse_named("""
array A[8] init zero;
#pragma xform loop(i) unroll factor(2)
#pragma xform stripmine size(2)
for (i = 0; i < 8; i += 1)
  A[i] = i;
""")
    # stripmine consumes i (producing i_f, i_t); the later unroll still names i
    with pytest.raises(PlanError, match="replaced by strip_mine"):
        plan_pipeline(p)


def test_plan_rejects_colliding_generated_name():
    p = parse_named("""
array A[8,8] init zero;
#pragma xform loop(i) stripmine size(2) floor_id(j)
for (i = 0; i < 8; i += 1)
  for (j = 0; j < 8; j += 1)
    A[i,j] = 0;
""")
    with pytest.raises(PlanError, match="collides"):
        plan_pipeline(p)


def test_empty_target_means_following_loop():
    p = parse_named("array A[4] init zero;\n"
                    "#pragma xform unroll factor(2)\n"
                    "for (i = 0; i < 4; i += 1) A[i] = 0;\n")
    plan = plan_pipeline(p)
    assert plan.steps[0].targets == ("i",)
    assert plan.steps[0].attached == "i"


def test_interchange_empty_target_uses_permutation_names():
    p = parse_named("""
array A[4,4] init zero;
#pragma xform interchange permutation(j,i)
for (i = 0; i < 4; i += 1)
  for (j = 0; j < 4; j += 1)
    A[i,j] = 0;
""")
    plan = plan_pipeline(p)
    assert set(plan.steps[0].targets) == {"i", "j"}


def test_interchange_anchor_target_resolves_child_loop_too():
    # loop(i) names only the anchor; the permutation resolves both handles
    p = parse_named("""
array A[4,4] init zero;
#pragma xform loop(i) interchange permutation(j,i)
for (i = 0; i < 4; i += 1)
  for (j = 0; j < 4; j += 1)
    A[i,j] = 0;
""")
    plan = plan_pipeline(p)
    assert set(plan.steps[0].targets) == {"i", "j"}
    from xform import apply_pipeline
    res = apply_pipeline(p, plan)
    assert [l.name for l in iter_loops(res.program.body)] == ["j", "i"]


def test_resolve_loop_name():
    p = parse_named("array A[4] init zero;\nfor (i = 0; i < 4; i += 1) A[i] = 0;\n")
    assert resolve_loop_name(p, "i").name == "i"
    with pytest.raises(PlanError, match="unknown loop"):
        resolve_loop_name(p, "zz")
    from xform.lang import Directive
    with pytest.raises(PlanError, match="replaced"):
        resolve_loop_name(p, "gone", {"gone": Directive("tile", (), {}, line=3)})


def test_name_uniqueness_holds_after_every_pipeline_step():
    from xform import apply_pipeline
    src = open("tests/corpus/05_dgemm.loop").read()
    p = parse_named(src)
    res = apply_pipeline(p, plan_pipeline(p))
    names = [l.name for l in iter_loops(res.program.body)]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("pragma, name", [
    ("tile sizes(4) floor_ids(a) tile_ids(a)", "a"),
    ("stripmine size(4) floor_id(a) tile_id(a)", "a"),
    ("stripmine size(4) floor_id(i_t)", "i_t"),  # the default tile_id
])
def test_plan_rejects_generated_name_introduced_twice(pragma, name):
    p = parse_named(f"array A[8] init zero;\n#pragma xform {pragma}\n"
                    "for (i = 0; i < 8; i += 1) A[i] = i;\n")
    with pytest.raises(PlanError, match=f"generated loop name '{name}' is introduced twice"):
        plan_pipeline(p)

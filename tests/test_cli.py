"""Driver behavior: exit codes, output flags, determinism."""

import os
import subprocess
import sys

import pytest

from xform import cli, emit_program, parse_program

from conftest import CORPUS_DIR

XFORM = [sys.executable, "-m", "xform"]


def run_cli(*args, cwd=None):
    return subprocess.run(XFORM + list(args), capture_output=True, text=True, cwd=cwd)


def corpus(name):
    return os.path.join(CORPUS_DIR, name)


def test_valid_pipeline_with_verify_exits_zero():
    r = run_cli(corpus("01_stripmine12.loop"), "--verify", "100")
    assert r.returncode == 0, r.stderr
    assert "verified" in r.stderr


def test_dgemm_pipeline_verifies():
    r = run_cli(corpus("05_dgemm.loop"), "--verify", "5")
    assert r.returncode == 0, r.stderr


def test_while_reverse_required_is_exit_one():
    r = run_cli(corpus("24_while_reverse.loop"), "--required")
    assert r.returncode == 1
    assert r.stderr.startswith("error: reverse on loop 'while'")


def test_invalid_interchange_default_verify_is_exit_two():
    r = run_cli(corpus("06_interchange_blocker.loop"), "--verify", "20")
    assert r.returncode == 2
    assert "verification mismatch" in r.stderr


def test_invalid_interchange_fallback_keeps_original_exit_zero():
    r = run_cli(corpus("06_interchange_blocker.loop"), "--safety", "fallback",
                "--verify", "5")
    assert r.returncode == 0
    assert "warning: interchange on loop 'i'" in r.stderr


def test_parse_error_is_exit_one():
    bad = os.path.join(CORPUS_DIR, os.pardir, "_bad.loop")
    with open(bad, "w") as f:
        f.write("for (i = 4; i > 0; i -= 1) A[i] = 0;\n")
    try:
        r = run_cli(bad)
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
    finally:
        os.unlink(bad)


def test_plan_error_is_exit_one():
    bad = os.path.join(CORPUS_DIR, os.pardir, "_plan.loop")
    with open(bad, "w") as f:
        f.write("array A[4] init zero;\n#pragma xform loop(q) unroll factor(2)\n"
                "for (i = 0; i < 4; i += 1) A[i] = 0;\n")
    try:
        r = run_cli(bad)
        assert r.returncode == 1
        assert "unknown loop 'q'" in r.stderr
    finally:
        os.unlink(bad)


def test_dump_tree_output():
    r = run_cli(corpus("01_stripmine12.loop"), "--dump-tree")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "i_f [0,12) step=3 generated:strip_mine#0"
    assert lines[1] == "  i_t [i_f,i_f + 3) step=1 generated:strip_mine#0"


def test_deps_output_format():
    r = run_cli(corpus("06_interchange_blocker.loop"), "--deps", "--safety", "fallback")
    assert "flow s2->s2 (1,-1) exact" in r.stdout


def test_emit_to_stdout():
    r = run_cli(corpus("02_stripemine12.loop"), "--emit", "-")
    assert r.returncode == 0
    assert "for (i_o = 0; i_o < 4; i_o += 1) {" in r.stdout


def test_trace_csv(tmp_path):
    out = tmp_path / "t.csv"
    r = run_cli(corpus("02_stripemine12.loop"), "--trace", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stmt,iter_vec,reads,writes"
    assert [l.split(",")[1] for l in lines[1:5]] == ["i=0", "i=4", "i=8", "i=1"]


def test_trace_to_stdout_is_the_trace_file(tmp_path):
    args = (corpus("03_tile2d.loop"), "--seed", "3", "--trace")
    r = run_cli(*args, "-", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert run_cli(*args, str(tmp_path / "t.csv")).returncode == 0
    assert r.stdout == (tmp_path / "t.csv").read_text()
    assert r.stdout.startswith("stmt,iter_vec,reads,writes\n")
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("src, char", [
    # two names that Python's NFKC normalisation of identifiers would merge
    ("for (xfi = 0; xfi < 2; xfi += 1)\n  for (x\ufb01 = 0; x\ufb01 < 2; x\ufb01 += 1)\n"
     "    A[xfi * 2 + x\ufb01] = xfi + 10;\n", "\ufb01"),
    ("A[\u0663] = 1;\n", "\u0663"),  # an Arabic-Indic digit three
], ids=["ligature-name", "arabic-digit"])
def test_non_ascii_names_and_digits_are_unrecognized(tmp_path, src, char):
    path = tmp_path / "in.loop"
    path.write_text("array A[4] init zero;\n" + src, encoding="utf-8")
    r = run_cli(str(path), "--verify", "2", "--trace", str(tmp_path / "t.csv"))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: unrecognized character {char!r}"), r.stderr
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr, r.stderr


def test_identical_invocations_are_deterministic():
    args = (corpus("05_dgemm.loop"), "--verify", "3", "--seed", "9", "--emit", "-")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert (r1.stdout, r1.stderr, r1.returncode) == (r2.stdout, r2.stderr, r2.returncode)


def test_each_in_process_call_sees_only_its_own_flags(capsys):
    assert cli.build_arg_parser() is cli.build_arg_parser()  # built once
    dgemm = corpus("05_dgemm.loop")
    flagged = [dgemm, "--deps", "--emit", "-", "--safety", "force", "--max-enum", "1"]
    assert cli.main(flagged) == 0
    first = capsys.readouterr()
    assert first.out.startswith("nest 'i' (line ") and "#pragma" not in first.out
    assert first.err.startswith("warning: tile on loop 'i' (line ")
    assert cli.main([dgemm]) == 0
    assert capsys.readouterr() == ("", "")  # no deps, no emit, exact and applied
    assert cli.main(flagged) == 0
    assert capsys.readouterr() == first


def test_max_enum_forces_conservative_path():
    # with a tiny cap the analysis falls back to conservative tests, which
    # still prove the stencil loop dependence-free
    r = run_cli(corpus("19_reverse_free.loop"), "--max-enum", "1", "--verify", "5")
    assert r.returncode == 0, r.stderr


def _nested_parens(path):
    path.write_text("array A[4] init zero;\nA[0] = " + "(" * 3000 + "1" + ")" * 3000 + ";\n")
    return (str(path),)


def _nested_fors(path):
    loops = "".join(f"for (i{k} = 0; i{k} < 1; i{k} += 1)\n" for k in range(330))
    path.write_text("array A[4] init zero;\n" + loops + "A[0] = 1;\n")
    return (str(path),)


def _non_utf8(path):
    path.write_bytes(b"array A[4] init zero;\n// caf\xe9\n")
    return (str(path),)


def _unwritable(flag):
    def args(path):
        path.write_text("array A[4] init zero;\nfor (i = 0; i < 4; i += 1) A[i] = i;\n")
        return (str(path), flag, str(path.parent / "missing" / "out"))
    return args


@pytest.mark.parametrize("make_args", [
    _non_utf8, _unwritable("--emit"), _unwritable("--trace"), _nested_parens, _nested_fors,
], ids=["non-utf8", "emit-path", "trace-path", "parens", "for-loops"])
def test_bad_input_is_an_error_line_not_a_traceback(tmp_path, make_args):
    r = run_cli(*make_args(tmp_path / "in.loop"))
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize("pragma", ["loop(i,i) fuse", "loop(i,i) collapse",
                                    "loop(i,i) tile sizes(2,2)"])
def test_a_target_named_twice_is_a_parse_error(tmp_path, pragma):
    path = tmp_path / "in.loop"
    path.write_text(f"array A[4] init zero;\n#pragma xform {pragma}\n"
                    "for (i = 0; i < 4; i += 1) A[i] = i;\n")
    r = run_cli(str(path))
    assert r.returncode == 1
    kind = pragma.split()[1]
    assert r.stderr == f"error: {kind} names a target loop twice (line 2, col 25)\n", r.stderr


@pytest.mark.parametrize("flags", [("--dump-tree",), ("--emit", "-"), ("--deps",)])
def test_closed_stdout_is_an_error_line_not_a_traceback(flags):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        r = subprocess.run(XFORM + [corpus("05_dgemm.loop"), *flags],
                           stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr and "Exception ignored" not in r.stderr, r.stderr
    assert r.stderr.startswith("error: cannot write stdout:"), r.stderr


@pytest.mark.parametrize("depth, braced", [
    *(pytest.param(depth, False, id=str(depth)) for depth in (19, 20, 21, 100, 300)),
    pytest.param(300, True, id="300-braced"),
])
def test_deeply_nested_loops_verify(tmp_path, depth, braced):
    loops = "".join(f"for (i{k} = 0; i{k} < 1; i{k} += 1){' {' * braced}\n"
                    for k in range(depth))
    path = tmp_path / "in.loop"
    path.write_text("array A[4] init zero;\n" + loops + "A[0] = 1;\n" + "}" * depth * braced)
    r = run_cli(str(path), "--verify", "2")
    assert r.returncode == 0, r.stderr
    assert r.stderr == "verified: 2 trials, memory identical\n"


def test_deeply_nested_ifs_verify(tmp_path):
    ifs = "".join(f"if ({k} < i + 100)\n" for k in range(100))
    path = tmp_path / "in.loop"
    path.write_text("array A[4] init zero;\n#pragma xform reverse\n"
                    "for (i = 0; i < 4; i += 1)\n" + ifs + "A[i] = i;\n")
    r = run_cli(str(path), "--verify", "2", "--trace", str(tmp_path / "t.csv"))
    assert r.returncode == 0, r.stderr
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 4


def test_loop_variables_named_like_generated_code_verify(tmp_path):
    path = tmp_path / "in.loop"
    path.write_text("array A[2,2,2] init random;\n"
                    "#pragma xform tile sizes(2)\n"
                    "for (range = 0; range < 2; range += 1)\n"
                    "  for (min = 0; min < 2; min += 1)\n"
                    "    for (bud = 0; bud < 2; bud += 1)\n"
                    "      for (t1 = 0; t1 < 2; t1 += 1)\n"
                    "        A[range, bud, t1] += range * bud + t1;\n")
    r = run_cli(str(path), "--verify", "2", "--trace", str(tmp_path / "t.csv"))
    assert r.returncode == 0, r.stderr
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 16


def test_fault_on_both_sides_is_a_match(tmp_path):
    path = tmp_path / "in.loop"
    path.write_text("array A[4] init random;\n#pragma xform reverse\n"
                    "for (i = 0; i < 4; i += 1)\n  A[i] = A[i] / (A[i] - A[i]);\n")
    r = run_cli(str(path), "--verify", "3")
    assert r.returncode == 0, r.stderr
    assert r.stderr == "verified: 3 trials, memory identical; 3 faulted identically\n"


@pytest.mark.parametrize("src, fault", [
    # the generated floor loop computes i_f + 4 past INT64_MAX
    ("array A[8] init zero;\n#pragma xform tile sizes(4)\n"
     "for (i = 9223372036854775800; i < 9223372036854775806; i += 1)\n"
     "  A[i - 9223372036854775800] = 1;\n", "'int64 overflow (line 2)'"),
])
def test_fault_only_in_the_output_is_a_mismatch(tmp_path, src, fault):
    path = tmp_path / "in.loop"
    path.write_text(src)
    r = run_cli(str(path), "--safety", "fallback", "--verify", "3")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("verification mismatch: trial 0 (seed "), r.stderr
    assert r.stderr.endswith(f"binding distinct): no fault vs fault {fault}\n"), r.stderr


def test_reverse_near_two_to_the_62_reflects_within_the_loop_values(tmp_path):
    # lower + lower + last overflows; lower + (lower + last - i) does not
    path = tmp_path / "in.loop"
    path.write_text("array A[8] init zero;\n#pragma xform reverse\n"
                    "for (i = 4611686018427387904; i < 4611686018427387910; i += 1)\n"
                    "  A[i - 4611686018427387904] = i - 4611686018427387904;\n")
    r = run_cli(str(path), "--safety", "fallback", "--verify", "3", "--emit", "-")
    assert r.returncode == 0, r.stderr
    assert "A[4611686018427387904 + (4611686018427387909 - i) - 4611686018427387904]" in r.stdout
    assert r.stderr == "verified: 3 trials, memory identical\n"


def test_running_out_of_steps_is_an_error_not_a_mismatch(tmp_path):
    path = tmp_path / "in.loop"
    path.write_text("array A[1] init zero;\nwhile (1)\n  A[0] = 0;\n")
    r = run_cli(str(path), "--verify", "1")
    assert r.returncode == 1
    assert r.stderr == "error: verification run failed: step budget exceeded (line 3)\n"


def test_a_faulting_trace_run_is_an_error_and_writes_no_file(tmp_path):
    path, out = tmp_path / "in.loop", tmp_path / "t.csv"
    path.write_text("array A[4] init random;\nfor (i = 0; i < 4; i += 1)\n"
                    "  A[i] = A[i] / (i - 2);\n")
    r = run_cli(str(path), "--trace", str(out))
    assert r.returncode == 1
    assert r.stderr == "error: trace run failed: division by zero (line 3)\n"
    assert not out.exists()


def test_a_trace_run_out_of_steps_is_an_error(tmp_path):
    path, out = tmp_path / "in.loop", tmp_path / "t.csv"
    path.write_text("array A[1] init zero;\nwhile (1)\n  A[0] = 0;\n")
    r = run_cli(str(path), "--trace", str(out))
    assert r.returncode == 1
    assert r.stderr == "error: trace run failed: step budget exceeded (line 3)\n"
    assert not out.exists()


@pytest.mark.parametrize("depth", [100, 300])
def test_reverse_over_a_deep_nest_enumerates_exactly(tmp_path, depth):
    """Every loop runs once, so the exact route enumerates all `depth` levels."""
    loops = "".join(f"for (i{k} = 0; i{k} < 1; i{k} += 1)\n" for k in range(depth))
    path = tmp_path / "in.loop"
    path.write_text("array A[4] init zero;\n#pragma xform reverse\n" + loops + "A[i0] = i0;\n")
    r = run_cli(str(path), "--deps", "--emit", "-")
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    nest = "".join(f"{'  ' * k}for (i{k} = 0; i{k} < 1; i{k} += 1) {{\n" for k in range(depth))
    close = "".join(f"{'  ' * k}}}\n" for k in reversed(range(depth)))
    assert r.stdout == ("nest 'i0' (line 3):\n  (no dependences) exact\n"
                        "array A[4] init zero;\n\n" + nest
                        + "  " * depth + "A[0 - i0] = 0 - i0;\n" + close)


def test_min_max_and_disjoint_are_loop_variables_unless_called(tmp_path):
    path = tmp_path / "in.loop"
    path.write_text("array A[4,4] init random;\narray B[4] init zero;\n"
                    "#pragma xform reverse\n"
                    "for (min = 0; min < 4; min += 1)\n"
                    "  for (max = 0; max < 2; max += 1)\n"
                    "    for (disjoint = 0; disjoint < 2; disjoint += 1)\n"
                    "      A[min, max + disjoint] = min(min, max) + max(A[min, 0], disjoint);\n")
    r = run_cli(str(path), "--verify", "2", "--emit", "-")
    assert r.returncode == 0, r.stderr
    assert r.stderr == "verified: 2 trials, memory identical\n"
    assert "A[3 - min, max + disjoint] = min(3 - min, max) + max(A[3 - min, 0], disjoint);" \
        in r.stdout, r.stdout


def test_parallel_inside_an_outer_loop_is_judged_per_execution(tmp_path):
    # the anti pair (o, i) -> (o + 1, i + 1) is carried by 'o', not by 'i':
    # within one execution of 'i' every iteration touches its own element
    path = tmp_path / "in.loop"
    path.write_text("array A[5] init random;\n\n"
                    "for (o = 0; o < 3; o += 1)\n"
                    "  #pragma xform parallel fallback\n"
                    "  for (i = 0; i < 3; i += 1)\n"
                    "    A[o - i + 2] = A[o - i + 2] + 1;\n")
    r = run_cli(str(path), "--emit", "-", "--verify", "2")
    assert r.returncode == 0, r.stderr
    assert r.stderr == "verified: 2 trials, memory identical\n"
    assert "  #pragma xform parallel\n  for (i = 0; i < 3; i += 1) {\n" in r.stdout


@pytest.mark.parametrize("bound", [
    "(N / 0) - (N / 0) + 4",                                 # x - x
    "(9223372036854775807 + N) - 9223372036854775807 + 4",   # (a + b) - a
    "(N + 9223372036854775807) - 9223372036854775807 + 4",   # (a + b) - b
    "(N + 9223372036854775807) - 9223372036854775800",       # constants moving x both ways
    "(N * 9223372036854775807) * 0 + 4",                     # x * 0
    "(N / 0) % 1 + 4",                                       # x % 1
])
def test_a_rewritten_bound_keeps_its_fault(tmp_path, bound):
    # the bound faults; the builder's `simplify` must not rewrite that away
    path = tmp_path / "in.loop"
    path.write_text("param N = 3;\narray A[8] init random;\n\n#pragma xform reverse\n"
                    f"for (i = 0; i < {bound}; i += 1)\n  A[i] = i;\n")
    r = run_cli(str(path), "--safety", "fallback", "--verify", "2")
    assert r.returncode == 0, r.stderr
    assert r.stderr == "verified: 2 trials, memory identical; 2 faulted identically\n"


@pytest.mark.parametrize("lowers, fused", [
    (("t + 1 - 1", "t"), "for (f = t + 1 - 1; f < N; f += 1) {"),
    (("t", "t + 1 - 1"), "for (f = t; f < N; f += 1) {"),
])
def test_fuse_matches_bounds_that_are_one_affine_form(tmp_path, lowers, fused):
    path = tmp_path / "in.loop"
    path.write_text("param N = 6;\narray A[4,8] init random;\narray B[4,8] init random;\n\n"
                    "#pragma xform loop(i,j) fuse fused_id(f)\n"
                    "for (t = 0; t < 3; t += 1) {\n"
                    f"  for (i = {lowers[0]}; i < N; i += 1)\n    A[t,i] = t + i;\n"
                    f"  for (j = {lowers[1]}; j < N; j += 1)\n    B[t,j] = A[t,j] + 1;\n}}\n")
    r = run_cli(str(path), "--safety", "fallback", "--verify", "2", "--emit", "-")
    assert r.returncode == 0, r.stderr
    assert r.stderr == "verified: 2 trials, memory identical\n"
    assert f"  {fused}\n    A[t, f] = t + f;\n    B[t, f] = A[t, f] + 1;\n" in r.stdout, r.stdout


@pytest.mark.parametrize("lowers, warned", [
    # `j`'s bound overflows from t = 1 and `i`'s does not: fusing would drop the fault
    (("t", "t + 9223372036854775807 - 9223372036854775807"), True),
    # the kept bound faults first in both programs, and `t` cannot fault
    (("t + 9223372036854775807 - 9223372036854775807", "t"), False),
])
def test_fuse_drops_only_a_bound_that_cannot_fault(tmp_path, lowers, warned):
    path = tmp_path / "in.loop"
    path.write_text("param N = 6;\narray A[4,8] init random;\narray B[4,8] init random;\n\n"
                    "#pragma xform loop(i,j) fuse fused_id(f)\n"
                    "for (t = 0; t < 3; t += 1) {\n"
                    f"  for (i = {lowers[0]}; i < N; i += 1)\n    A[t,i] = t + i;\n"
                    f"  for (j = {lowers[1]}; j < N; j += 1)\n    B[t,j] = j;\n}}\n")
    r = run_cli(str(path), "--safety", "fallback", "--verify", "2")
    assert r.returncode == 0, r.stderr
    assert r.stderr.endswith("verified: 2 trials, memory identical; 2 faulted identically\n")
    assert ("impossible: fuse requires identical loop domains" in r.stderr) == warned


COLLAPSE_EMPTY = ("#pragma xform collapse levels(2)\n"
                  "for (i = {0}; i < {1}; i += 1)\n  for (j = {2}; j < {1}; j += 1)\n"
                  "    A[i,j] = 7;\n")


@pytest.mark.parametrize("safety", ["default", "fallback", "force"])
@pytest.mark.parametrize("head, bounds, total", [
    ("", ("5", "0", "5"), "i_c < 0;"),
    ("param N = 0;\n", ("5", "N", "4"), "i_c < max(N - 5, 0) * max(N - 4, 0);"),
])
def test_a_collapse_of_loops_that_never_run_runs_nothing(tmp_path, safety, head, bounds, total):
    # each level's trip count is negative: their product used to be positive
    path, out = tmp_path / "in.loop", tmp_path / "out.loop"
    path.write_text(head + "array A[10,10] init zero;\n\n" + COLLAPSE_EMPTY.format(*bounds))
    r = run_cli(str(path), "--safety", safety, "--verify", "3", "--emit", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stderr == "verified: 3 trials, memory identical\n"
    text = out.read_text()
    assert total in text
    assert emit_program(parse_program(text)) == text


@pytest.mark.parametrize("safety", ["default", "fallback", "force"])
@pytest.mark.parametrize("src, message", [
    ("param N = 8;\narray A[8] init zero;\n#pragma xform stripmine size(2) floor_id(N)\n"
     "for (i = 0; i < 8; i += 1)\n  A[i] = N;\n", "'N' is a param (line 3)"),
    ("array A[8] init zero;\n#pragma xform stripmine size(2) floor_id(A)\n"
     "for (i = 0; i < 8; i += 1)\n  A[i] = i;\n", "'A' is an array (line 2)"),
    # the second `i` loop is named `i#2`, and its variable is still `i`
    ("array A[8] init zero;\narray B[8,8] init zero;\n#pragma xform stripmine size(2)\n"
     "for (i = 0; i < 8; i += 1)\n  A[i] = i;\nfor (i = 0; i < 8; i += 1)\n"
     "  #pragma xform stripmine size(2) floor_id(i)\n  for (j = 0; j < 8; j += 1)\n"
     "    B[i,j] = i;\n", "'i' is the variable of loop 'i#2' (line 7)"),
    # reversed, the loop `i#2` keeps its name and its variable `i`
    ("array A[8] init zero;\narray B[8,8] init zero;\n#pragma xform stripmine size(2)\n"
     "for (i = 0; i < 8; i += 1)\n  A[i] = i;\n#pragma xform reverse\n"
     "for (i = 0; i < 8; i += 1)\n  #pragma xform stripmine size(2) floor_id(i)\n"
     "  for (j = 0; j < 8; j += 1)\n    B[i,j] += i;\n",
     "'i' is the variable of loop 'i#2' (line 8)"),
    # the default ids derive from the name `i#2`
    ("array A[8] init zero;\nfor (i = 0; i < 8; i += 1)\n  A[i] = i;\n"
     "#pragma xform stripmine size(2)\nfor (i = 0; i < 8; i += 1)\n  A[i] += 1;\n",
     "'i#2_f' is not an identifier; name the loop with the directive's id clauses (line 4)"),
])
def test_a_generated_name_that_is_taken_is_a_plan_error(tmp_path, safety, src, message):
    path = tmp_path / "in.loop"
    path.write_text(src)
    r = run_cli(str(path), "--safety", safety, "--verify", "3", "--emit", "-")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: generated loop name {message}\n"


@pytest.mark.parametrize("first, second", [
    ("", "reverse"), ("", "parallel"), ("", "unroll factor(2)"),
    ("", "peel first(1) prologue_id(p)"), ("", "peel last(1) epilogue_id(e)"),
    # a sibling loop's variable is in another scope
    ("stripmine size(2) floor_id(i)", ""),
])
def test_steps_on_a_second_loop_over_the_same_variable_verify(tmp_path, first, second):
    # the second loop is named `i#2`; a step that keeps that name keeps the variable `i`
    path, out = tmp_path / "in.loop", tmp_path / "out.loop"
    path.write_text("array A[8] init random;\narray B[8] init random;\n\n" +
                    f"#pragma xform {first}\n" * bool(first) +
                    "for (i = 0; i < 8; i += 1)\n  A[i] = i;\n" +
                    f"#pragma xform {second}\n" * bool(second) +
                    "for (i = 0; i < 8; i += 1)\n  B[i] += A[i];\n")
    r = run_cli(str(path), "--safety", "fallback", "--verify", "3", "--emit", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stderr == "verified: 3 trials, memory identical\n"
    text = out.read_text()
    assert emit_program(parse_program(text)) == text

"""Driver behavior: exit codes, output flags, determinism."""

import os
import subprocess
import sys

import pytest

from conftest import CORPUS_DIR

XFORM = [sys.executable, "-m", "xform"]


def run_cli(*args):
    return subprocess.run(XFORM + list(args), capture_output=True, text=True)


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


def test_identical_invocations_are_deterministic():
    args = (corpus("05_dgemm.loop"), "--verify", "3", "--seed", "9", "--emit", "-")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert (r1.stdout, r1.stderr, r1.returncode) == (r2.stdout, r2.stderr, r2.returncode)


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

"""Smoke tests of the example scripts under scripts/."""

import json
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True)


def test_run_corpus_fallback_preserves_every_program():
    r = run_script("run_corpus.py", "--safety", "fallback", "--trials", "2")
    assert r.returncode == 0, r.stderr
    programs = [l for l in r.stdout.splitlines() if not l.startswith(" ")]
    assert len(programs) == 29
    assert "DIVERGED" not in r.stdout and "HARD ERROR" not in r.stdout


def test_dgemm_demo_verifies():
    r = run_script("dgemm_demo.py", "--size", "4")
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip().endswith("memory identical")


def test_show_lowering_prints_the_source_and_its_check_counts():
    path = os.path.join(CORPUS, "05_dgemm.loop")
    r = run_script("show_lowering.py", path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("def f0(mem, bud, trace):\n")
    assert "out of bounds" not in r.stdout and "bud -= 1" not in r.stdout
    assert r.stdout.splitlines()[-1] == ("# checks: 2 emitted, 6 proved away; "
                                         "steps: 8737, paid once before the run")
    r = run_script("show_lowering.py", os.path.join(CORPUS, "24_while_reverse.loop"), "--traced")
    assert r.returncode == 0, r.stderr
    assert "trace.append(" in r.stdout and "bud -= 1" in r.stdout
    assert r.stdout.rstrip().endswith("steps: not static: a budget step per statement "
                                      "and loop iteration")


def test_show_lowering_into_a_closed_pipe_prints_no_traceback():
    path = os.path.join(CORPUS, "05_dgemm.loop")
    p = subprocess.Popen([sys.executable, os.path.join(SCRIPTS, "show_lowering.py"), path],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    p.stdout.close()  # the reader is gone before the script writes
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait() == 1
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_cli_digest_runs_the_gates_and_the_rejected_directives(tmp_path):
    for only, programs in (("gate_", 2), ("rejected_", 4)):
        out = str(tmp_path / f"{only}.jsonl")
        r = run_script("cli_digest.py", "--only", only, "--out", out)
        assert r.returncode == 0, r.stderr
        with open(out, encoding="utf-8") as f:
            lines = [json.loads(line) for line in f]
        assert len(lines) == 12 * programs
        # a target named twice is a parse error; everything else runs and verifies
        assert all(d["exit"] == (1 if "repeated_name" in d["argv"][0] else 0)
                   for d in lines), lines


def test_cli_digest_of_a_subset_matches_itself(tmp_path):
    digests = []
    for name in ("a.jsonl", "b.jsonl"):
        r = run_script("cli_digest.py", "--only", "fuse", "--out", str(tmp_path / name))
        assert r.returncode == 0, r.stderr
        digests.append(str(tmp_path / name))
    with open(digests[0], encoding="utf-8") as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) == 16 and all(d["exit"] == 0 for d in lines)
    assert sum(d["trace"] is not None for d in lines) == 8
    r = run_script("cli_digest.py", "--compare", *digests)
    assert r.returncode == 0 and r.stdout == "0 of 16 commands differ\n", r.stdout


def load_bench_ab():
    import importlib.util
    spec = importlib.util.spec_from_file_location("bench_ab", os.path.join(SCRIPTS, "bench_ab.py"))
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    return bench_ab


def test_bench_ab_counts_the_pairs_the_change_won():
    bench_ab = load_bench_ab()
    parent, change = [1.0, 1.1, 1.2, 1.0, 1.3], [0.5, 1.1, 0.6, 0.7, 0.6]
    lower = bench_ab.compare(parent, change, "lower")
    assert (lower["change_won"], lower["pairs"]) == (4, 5)  # a tie counts for neither side
    assert lower["parent"]["median"] == 1.1 and lower["change"]["median"] == 0.6
    assert not lower["gain_rule_met"]  # 4 of 5 pairs
    higher = bench_ab.compare(parent, change, "higher")
    assert higher["change_won"] == 0 and not higher["gain_rule_met"]
    assert bench_ab.compare(parent, [0.5] * 5, "lower")["gain_rule_met"]


def test_bench_ab_takes_the_median_time_and_the_one_count_of_the_traced_runs():
    bench_ab = load_bench_ab()
    runs = [{"deps.compute_ms": t, "cli.trace_overhead_s": s, "deps.pairs": 23_488,
             "deps.exact_share": 1.0} for t, s in ((9.0, 0.3), (4.0, 0.1), (5.0, 0.2))]
    assert bench_ab.traced_medians(runs) == {"deps.compute_ms": 5.0, "cli.trace_overhead_s": 0.2,
                                             "deps.pairs": 23_488, "deps.exact_share": 1.0}
    runs[2]["deps.pairs"] = 23_487
    with pytest.raises(RuntimeError, match="deps.pairs differs between traced runs"):
        bench_ab.traced_medians(runs)

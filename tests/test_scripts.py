"""Smoke tests of the example scripts under scripts/."""

import os
import subprocess
import sys

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

"""Smoke tests of the example scripts under scripts/."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


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

import glob
import os

import pytest

from xform import apply_pipeline, name_loops, parse_program, plan_pipeline
from xform.lang import Directive, ForLoop, strip_pragmas

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def xform_importable_in_subprocesses():
    """Tests that run `python -m xform` import it from this checkout,
    whatever their working directory and PYTHONPATH."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (SRC_DIR, os.environ.get("PYTHONPATH")))))
        yield


def corpus_paths():
    return sorted(glob.glob(os.path.join(CORPUS_DIR, "*.loop")))


def corpus_names():
    return [os.path.basename(p) for p in corpus_paths()]


def load_corpus(name: str) -> str:
    with open(os.path.join(CORPUS_DIR, name), "r", encoding="utf-8") as f:
        return f.read()


def parse_named(src: str):
    return name_loops(parse_program(src))


def run_pipeline(src: str, **kw):
    """parse -> name -> plan -> apply; returns (program, PipelineResult)."""
    p = parse_named(src)
    res = apply_pipeline(p, plan_pipeline(p), **kw)
    return p, res


def first_top_for(program) -> ForLoop | None:
    for s in program.body:
        if isinstance(s, ForLoop):
            return s
    return None


def with_directive(program, kind: str, clauses: dict, targets=(), safety="default"):
    """Attach one synthesized directive to the first top-level for-loop of a
    pragma-stripped copy of `program`."""
    p = strip_pragmas(program)
    loop = first_top_for(p)
    assert loop is not None, "program has no top-level for-loop"
    loop.pragmas = [Directive(kind, tuple(targets), dict(clauses), safety,
                              False, False, loop.line, 0)]
    return p


@pytest.fixture
def corpus():
    return {name: load_corpus(name) for name in corpus_names()}

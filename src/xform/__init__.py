"""Pragma-driven source-to-source loop transformation engine.

Pipeline: parse -> name loops -> plan directives -> check legality ->
apply -> emit, with a reference interpreter as the semantic oracle.
"""

from .frontend import ParseError, parse_directive, parse_program
from .ir import PlanError, dump_tree, name_loops, plan_pipeline
from .deps import brute_force_dependences, compute_dependences
from .legality import resolve
from .transforms import apply_pipeline, build_candidate
from .interp import equivalent, order_preserved, parallel_consistent, run
from .emit import emit_program

__all__ = [
    "ParseError", "PlanError",
    "parse_program", "parse_directive",
    "name_loops", "plan_pipeline", "dump_tree",
    "compute_dependences", "brute_force_dependences",
    "resolve", "apply_pipeline", "build_candidate",
    "run", "equivalent", "order_preserved", "parallel_consistent",
    "emit_program",
]

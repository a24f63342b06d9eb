"""Command-line driver: parse -> plan -> legality -> apply -> emit/verify.

Exit codes: 0 success (warnings allowed), 1 parse or hard error (a `required`
directive could not be applied), 2 verification mismatch (the transformed
program's final memory or fault diverged from the original's — which default
mode legally permits, but tooling needs to see).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import deps as depmod
from . import emit, interp, ir, transforms
from .frontend import ParseError, parse_program
from .ir import PlanError
from .lang import ForLoop, Program, strip_pragmas


@functools.cache  # built on the first call, and reused by in-process callers
def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="xform",
        description="source-to-source loop transformation engine")
    p.add_argument("input", help="input program (.loop)")
    p.add_argument("--safety", choices=["default", "fallback", "force"], default=None,
                   help="safety mode for directives without an explicit modifier")
    p.add_argument("--required", action="store_true",
                   help="treat every could-not-apply warning as a hard error")
    p.add_argument("--verify", type=int, default=0, metavar="N",
                   help="check the output against the original over N seeded trials")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--emit", metavar="PATH", default=None,
                   help="write transformed source to PATH ('-' for stdout)")
    p.add_argument("--annotate", action="store_true",
                   help="annotate emitted loops with their originating directive")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the transformed program's execution trace as CSV "
                        "('-' for stdout)")
    p.add_argument("--dump-tree", action="store_true",
                   help="print the named loop tree after transformation")
    p.add_argument("--deps", action="store_true",
                   help="print the dependence sets of the input program")
    p.add_argument("--max-enum", type=int, default=depmod.MAX_ENUM, metavar="K",
                   help="instance cap for exact dependence enumeration")
    return p


def _print_deps(program: Program, max_enum: int):
    for s in program.body:
        if isinstance(s, ForLoop):
            print(f"nest '{s.name}' (line {s.line}):")
            try:
                ds = depmod.compute_dependences(program, s, max_enum)
                for line in ds.pretty().splitlines():
                    print(f"  {line}")
            except depmod.DepsError as e:
                print(f"  (unanalyzable: {e})")


def _write(path: str, text: str) -> bool:
    """Write `text` to `path` ('-' for stdout), or report why not and
    return False."""
    if path == "-":
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except RecursionError:
        # the parser and the tree walkers recurse once per nesting level
        print("error: program nests too deeply to process", file=sys.stderr)
        return 1
    except BrokenPipeError as e:
        # the reader closed stdout early; send what is still buffered to
        # devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {e}", file=sys.stderr)
        return 1


def _run(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {args.input}: {e}", file=sys.stderr)
        return 1

    try:
        program = ir.name_loops(parse_program(text))
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.deps:
        _print_deps(program, args.max_enum)

    try:
        plan = ir.plan_pipeline(program)
    except PlanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    result = transforms.apply_pipeline(
        program, plan, safety_override=args.safety,
        required_all=args.required, max_enum=args.max_enum)
    for w in result.warnings:
        print(w, file=sys.stderr)
    if result.error is not None:
        return 1

    final = result.program
    if args.dump_tree:
        print(ir.dump_tree(final))
    if args.emit is not None:
        if not _write(args.emit, emit.emit_program(final, annotate=args.annotate)):
            return 1
    if args.trace is not None:
        try:
            _, rows = interp.run(final, seed=args.seed, record_trace=True)
        except interp.RunFault as e:
            print(f"error: trace run failed: {e}", file=sys.stderr)
            return 1
        if not _write(args.trace, "\n".join([interp.CSV_HEADER, *rows]) + "\n"):
            return 1
    if args.verify > 0:
        original = strip_pragmas(program)
        try:
            report = interp.equivalent(original, final, trials=args.verify,
                                       seed=args.seed)
        except interp.RunFault as e:
            print(f"error: verification run failed: {e}", file=sys.stderr)
            return 1
        if not report:
            print(f"verification mismatch: {report.detail}", file=sys.stderr)
            return 2
        faulted = f"; {report.faulted} faulted identically" if report.faulted else ""
        print(f"verified: {report.trials} trials, memory identical{faulted}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

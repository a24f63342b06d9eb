#!/usr/bin/env python3
"""Print the Python that a program is lowered to, and how many run-time
checks the lowering emitted and how many the loop ranges proved away.

    python3 scripts/show_lowering.py PATH [--traced]

The program is lowered as written; its pragmas are not applied (write the
transformed program with `xform PATH --emit OUT` and show OUT for that).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from xform import name_loops, parse_program
from xform.frontend import ParseError
from xform.lower import STEP_BUDGET, source


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("path", help="input program (.loop)")
    ap.add_argument("--traced", action="store_true", help="the form that writes --trace rows")
    args = ap.parse_args()
    with open(args.path, encoding="utf-8") as f:
        text = f.read()
    try:
        program = name_loops(parse_program(text))
    except ParseError as e:
        sys.exit(f"error: {e}")
    src = source(program, args.traced)
    ticks = "a budget step per statement and loop iteration"
    if src.steps is None:
        steps = f"not static: {ticks}"
    elif src.steps > STEP_BUDGET:
        steps = f"{src.steps}, over the budget of {STEP_BUDGET}: {ticks}"
    else:
        steps = f"{src.steps}, within the budget of {STEP_BUDGET}: no budget step"
    try:
        print(src.text)
        print(f"# checks: {src.checks} emitted, {src.proved} proved away; steps: {steps}")
        sys.stdout.flush()
    except BrokenPipeError as e:
        # the reader closed stdout early (`| head`); send what is still
        # buffered to devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(f"error: cannot write stdout: {e}")


if __name__ == "__main__":
    main()

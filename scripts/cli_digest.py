#!/usr/bin/env python3
"""Digest what the CLI prints for a fixed command set, to show that a change
leaves its output byte for byte as it was.

    python3 scripts/cli_digest.py --out new.jsonl
    python3 scripts/cli_digest.py --src ../parent --out old.jsonl
    python3 scripts/cli_digest.py --compare old.jsonl new.jsonl

Each command runs in this one process through `xform.cli.main(argv)` and
gives one JSON line: the command, its exit code (or the exception that
escaped), and the SHA-256 of its stdout, its stderr and its `--trace` file.
`--src DIR` imports `xform` from `DIR/src`, so another checkout (a parent
commit, say) is digested with the same commands and inputs.  `--compare A B`
lists the commands whose lines differ and exits 1 if any do.

The commands, run inside a fresh scratch directory so that every path in
them is the same from run to run:

* the corpus (`tests/corpus`, read from this checkout) and the dgemm
  pipeline at M = 8, 16, 17, 32, each in two forms:
  `--emit - --annotate --dump-tree --deps` and
  `--verify 3 --seed 5 --trace trace.csv`; the corpus under
  `--safety default`, `fallback`, `force` and `fallback --max-enum 1`, dgemm
  under `fallback`;
* `EDGES`, programs at the edges of the analyses (faults, int64 limits,
  step budgets, deep nests, the exact schedules of every order-changing
  directive and the gates before them, graphs carried into the steps that
  read them, parallel marks and reversals inside an outer loop, after and
  before a carried step and over arithmetic that faults or that `interval`
  cannot bound, strong SIV under a lower bound that moves, sibling loops
  that share a variable's name,
  directives the builders refuse or copy past a known trip count, loop
  bounds whose faults a rewrite of `lang.simplify` used to drop, sibling
  loops whose bounds are equal only as affine forms or whose dropped bound
  faults or reads an array, a kept step over a program that faults on some
  trials, collapses of loops that never run, generated loop names that a
  param, an array or another loop's variable already has, steps on a later
  loop over a variable that keep its name, a value that overflows only
  inside a loop of no trips, which the lowering must not hoist, and a traced
  nest deeper than the lowering's function split whose innermost statement
  reads the outer variables)
  under the corpus' four settings, in those two forms and
  `--verify 2 --seed 0 --trace trace.csv`.

`--only SUBSTRING` keeps the commands whose program name contains it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DGEMM = """param M = {m};
array C[{m},{m}] init random;
array A[{m},{m}] init random;
array B[{m},{m}] init random;

#pragma xform loop(i2) unrollingandjam factor(2)
#pragma xform loop(j2) unrollingandjam factor(4)
#pragma xform loop(i1,j1,k1,i2,j2) interchange permutation(j1,k1,i1,j2,i2)
#pragma xform loop(i,j,k) tile sizes(4,4,4) floor_ids(i1,j1,k1) tile_ids(i2,j2,k2) peel(rectangular)
for (i = 0; i < M; i += 1)
  for (j = 0; j < M; j += 1)
    for (k = 0; k < M; k += 1)
      C[i,j] += A[i,k] * B[k,j];
"""


def _nested_loops(depth: int) -> str:
    head = "".join(f"for (v{d} = 0; v{d} < 2; v{d} += 1)\n" for d in range(depth))
    return "array A[4] init random;\n\n#pragma xform reverse\n" + head + "  A[v0 + v1] += 1;\n"


def _deep_traced_nest(depth: int) -> str:
    head = "".join(f"for (i{d} = 0; i{d} < {2 if d in (0, 1, depth - 1) else 1}; i{d} += 1)\n"
                   for d in range(depth))
    return (f"array A[4,4] init random;\n\n#pragma xform loop(i{depth - 1}) reverse\n" + head
            + f"  A[i0 + i1, i{depth - 1}] += i0 * 2 + i1;\n")


def _nested_ifs(depth: int) -> str:
    conds = "".join(f"if (i < {100 - d}) " for d in range(depth))
    return ("array A[8] init random;\n\n#pragma xform reverse\n"
            f"for (i = 0; i < 8; i += 1)\n  {conds}A[i] = A[i] + 1;\n")


EDGES = {
    "zero_divisor_bound": """array A[8] init random;
param Z = 0;

#pragma xform reverse
for (i = 0; i < 8 / Z; i += 1)
  A[i] = 1;
""",
    "out_of_bounds_read": """array A[8] init random;

#pragma xform reverse
for (i = 0; i < 8; i += 1)
  A[i] = A[i + 2] + 1;
""",
    "reverse_2_62": """array A[8] init random;

#pragma xform reverse
for (i = 4611686018427387904; i < 4611686018427387910; i += 1)
  A[i - 4611686018427387904] = i - 4611686018427387904;
""",
    "tile_2_63": """array A[8] init random;

#pragma xform tile sizes(4)
for (i = 9223372036854775800; i < 9223372036854775806; i += 1)
  A[i - 9223372036854775800] = 1;
""",
    "opaque_bound_peeled_tile": """param N = 6 opaque;
array A[8,8] init random;

#pragma xform loop(i,j) tile sizes(4,4) peel(rectangular)
for (i = 0; i < N; i += 1)
  for (j = 0; j < 7; j += 1)
    A[i,j] = A[i,j] + 1;
""",
    "memory_condition": """array A[8] init random;

#pragma xform reverse
for (i = 0; i < 8; i += 1)
  if (A[i] > 0) A[i] = 0;
""",
    "disjoint_condition": """array A[8] init random;
array B[8] init random;
maybe_alias(A, B);

#pragma xform reverse
for (i = 0; i < 8; i += 1)
  if (disjoint(A, B)) A[i] = B[i];
""",
    "shadowed_param": """param i = 3;
array A[8] init random;

#pragma xform reverse
for (i = 0; i < 8; i += 1)
  A[i] = i;
""",
    "unreached_while": """array A[8] init random;

#pragma xform reverse
for (i = 0; i < 8; i += 1)
  if (i > 100) { while (A[0] < 3) A[0] += 1; } else A[i] = A[i] + i;
""",
    "trips_20000": """array A[4] init random;

#pragma xform reverse
for (i = 0; i < 20000; i += 1)
  A[i % 4] = i;
""",
    "loop_variable_min": """array A[8,8] init random;

#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 0; i < 8; i += 1)
  for (j = 0; j < min(i, 5); j += 1)
    A[i,j] = A[j,i] + 1;
""",
    "shared_division_by_zero": """array A[8] init random;
param Z = 0;

#pragma xform reverse
for (i = 0; i < 8; i += 1)
  A[i] = i / Z;
""",
    "peeled_tile_3d": """param N = 7;
array A[8,8,8] init random;

#pragma xform loop(i,j,k) tile sizes(2,3,4) peel(rectangular)
for (t = 0; t < 3; t += 1)
  for (i = t + 1; i < N; i += 1)
    for (j = 0; j < 8; j += 2)
      for (k = 0; k < 5; k += 1)
        A[i,j,k + t] = A[i - 1,j,k] + 1;
""",
    "nested_loops_21": _nested_loops(21),
    "nested_ifs_60": _nested_ifs(60),
    "while_forever": """array A[4] init random;

#pragma xform reverse
for (i = 0; i < 4; i += 1)
  while (1) A[i] += 1;
""",
    "overflowing_value": """array A[8] init random;

#pragma xform reverse
for (i = 0; i < 8; i += 1)
  A[i] = 9223372036854775807 + i;
""",
    "repeated_reads_unroll": """array A[16] init random;

#pragma xform unroll factor(3)
for (i = 0; i < 14; i += 1)
  A[i + 2] = A[i] + A[i] * A[i + 1];
""",
    "off_by_one": """array A[8] init random;

#pragma xform reverse
for (i = 0; i < 8; i += 1)
  A[i + 1] = A[i] + 1;
""",
    "repeated_unproved_subscript": """param N = 9 opaque;
array A[8] init random;

for (i = 0; i < N; i += 1)
  A[i] = A[i] + A[i];
""",
    "steps_over_budget": """array A[2] init random;

#pragma xform reverse
for (i = 0; i < 5000000; i += 1)
  A[0] = i;
""",
    "steps_under_budget": """array A[2] init random;

for (i = 0; i < 4995000; i += 1)
  A[1] = i;
""",
    "index_near_int64": """array A[8] init random;

#pragma xform loop(i_o) reverse
#pragma xform stripemine count(2)
for (i = 9223372036854775000; i < 9223372036854775008; i += 1)
  A[i - 9223372036854775000] = A[(i - 9223372036854775000) % 8] + 1;
""",
    "triangular_schedules": """param N = 9;
array A[10,10] init random;

#pragma xform loop(i) reverse
#pragma xform loop(j) reverse
for (i = 0; i < N; i += 2)
  for (j = i; j < N; j += 3)
    A[i,j] = A[i,j] + A[i,j - i] + j;
""",
    "alias_guard_stack": """array A[12] init random;
array B[12] init random;
maybe_alias(A, B);

#pragma xform loop(a,b) fuse fused_id(f)
#pragma xform loop(i) distribute parts(s1;s2) ids(a,b)
for (i = 0; i < 12; i += 1) {
  A[i] = B[i] + 1;
  B[i] = A[i] * 2;
}
""",
    # an exact always-valid step carries its graph into a step that reads it
    # in the current schedule: an invalid one's witness, a parallel mark, and
    # the conservative rule after a failed gate (unproved arithmetic)
    "carried_then_invalid": """array A[8,8] init random;

#pragma xform loop(i) reverse
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 1; i < 8; i += 1)
  for (j = 0; j < 7; j += 1)
    A[i,j] = A[i-1,j] + A[i,j+1];
""",
    "carried_then_parallel": """array A[8,8] init random;

#pragma xform loop(i) parallel
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 1; i < 8; i += 1)
  for (j = 0; j < 8; j += 1)
    A[i,j] = A[i-1,j] + 1;
""",
    "carried_then_unproved": """array A[8,8] init random;

#pragma xform loop(i) reverse
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 9223372036854775801; i < 9223372036854775807; i += 1)
  for (j = 0; j < 8; j += 1)
    A[i - 9223372036854775800, j] = A[i - 9223372036854775801, j] + 1;
""",
    # the same over a param lower bound: `reverse` reflects between two
    # constant bounds within the loop's values, but not from `L + L + 5`
    "carried_then_unproved_param": """param L = 9223372036854775801;
array A[8,8] init random;

#pragma xform loop(i) reverse
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = L; i < 9223372036854775807; i += 1)
  for (j = 0; j < 8; j += 1)
    A[i - 9223372036854775800, j] = A[i - 9223372036854775801, j] + 1;
""",
    # the gate of an exact schedule, a target whose name the region repeats,
    # and a candidate past the step budget of --max-enum 1, which no gate
    # stops since the candidate is never walked
    "gate_unique_names": """array A[8,8] init random;

#pragma xform loop(j) reverse
#pragma xform loop(i) unroll factor(2)
for (i = 0; i < 8; i += 1)
  for (j = 0; j < 8; j += 1)
    A[i,j] = A[i,j] + 1;
""",
    "gate_step_budget": """array A[2] init random;

#pragma xform loop(i,j) tile sizes(2,2)
for (i = 0; i < 100; i += 1)
  for (j = 0; j < 100; j += 1)
    for (k = 0; k < 0; k += 1)
      A[0] = 1;
""",
    # directives the builders refuse: a target named twice, too many body
    # copies, a generated constant outside int64
    "rejected_repeated_name": """array A[8] init random;

#pragma xform loop(i,i) fuse
for (i = 0; i < 8; i += 1)
  A[i] = i;
""",
    "rejected_unroll_1025": """array A[8] init random;

#pragma xform unroll factor(1025)
for (i = 0; i < 1025; i += 1)
  A[i % 8] = A[i % 8] + i;
""",
    # an unroll past a known trip count makes one copy per trip
    "unroll_past_trips": """array A[8] init random;

#pragma xform unroll factor(1024)
for (i = 0; i < 8; i += 1)
  A[i] = A[i] + i;
""",
    # a parallel mark inside an outer loop that carries the only dependence
    "parallel_under_outer": """array A[5] init random;

for (o = 0; o < 3; o += 1)
  #pragma xform parallel fallback
  for (i = 0; i < 3; i += 1)
    A[o - i + 2] = A[o - i + 2] + 1;
""",
    # a valid mark reads the graph an interchange carried; a mark on the
    # first of two siblings carries it on, in the current order, to their fusion
    "carried_then_valid_parallel": """array A[8,8] init random;

#pragma xform loop(i) parallel
#pragma xform loop(i,j) interchange permutation(j,i)
for (i = 0; i < 8; i += 1)
  for (j = 1; j < 8; j += 1)
    A[i,j] = A[i,j-1] + 1;
""",
    "parallel_then_siblings": """array A[4,8] init random;
array B[4,8] init random;

#pragma xform loop(i,j) fuse fused_id(f)
#pragma xform loop(i) parallel
for (o = 0; o < 4; o += 1) {
  for (i = 0; i < 8; i += 1)
    A[o,i] = o + i;
  for (j = 0; j < 8; j += 1)
    B[o,j] = A[o,7-j] + 1;
}
""",
    # a reversal and a mark on the first of two siblings inside an outer
    # loop: whatever the siblings share, one execution of the marked loop
    # reorders none of it
    "level_first_sibling": """array A[4,8] init random;
array B[4,8] init random;

for (o = 0; o < 4; o += 1) {
  #pragma xform parallel
  #pragma xform reverse
  for (i = 0; i < 8; i += 1)
    A[o,i] = o + i;
  for (j = 0; j < 8; j += 1)
    B[o,j] = A[o,7-j] + 1;
}
""",
    # strong SIV on a loop whose lower bound moves with the outer loop
    "siv_moving_lower_bound": """array A[12] init random;

#pragma xform loop(i) reverse
for (i = 0; i < 8; i += 4)
  for (j = i; j < i + 4; j += 1)
    A[j + 4] = A[j];
""",
    # two sibling loops that share a variable's name: their `j`s are
    # different loops, so `j + 1` and `j` in them prove nothing apart
    "siblings_share_a_variable": """array A[4,10] init random;
array B[4,10];

#pragma xform reverse
for (i = 0; i < 3; i += 1) {
  for (j = 0; j < 8; j += 1)
    A[i, j + 1] = i + 1;
  for (j = 0; j < 8; j += 1)
    B[i, j] = A[i + 1, j];
}
""",
    # marks over values that fault or overflow int64, with and without a
    # may-alias pair, and over a condition that `interval` cannot bound
    # inside int64, so the arithmetic gate does not prove it
    "parallel_unproved_value": """array A[8] init random;

#pragma xform parallel
for (i = 0; i < 8; i += 1)
  A[i] = 100 / (i - 1) + (i / 7) * 9223372036854775807;
""",
    "parallel_unproved_value_alias": """array A[8] init random;
array B[8] init random;
maybe_alias(A, B);

#pragma xform parallel
for (i = 0; i < 8; i += 1)
  A[i] = B[i] + 100 / (i - 1) + (i / 7) * 9223372036854775807;
""",
    "parallel_unproved_condition_alias": """array A[8] init random;
array B[8] init random;
maybe_alias(A, B);

#pragma xform loop(j) parallel
for (i = 0; i < 8; i += 1)
  for (j = 0; j < 4; j += 1)
    if ((j / 3) * 9223372036854775807 + (3 - j) == 3) A[i] = B[i] + 1;
""",
    "rejected_tile_int64": """array A[8] init random;

#pragma xform tile sizes(9223372036854775807)
for (i = 0; i < 8; i += 2)
  A[i] = A[i] + i;
""",
    "rejected_peel_int64": """array A[8] init random;

#pragma xform peel first(9223372036854775807)
for (i = 0; i < 8; i += 2)
  A[i] = A[i] + i;
""",
    # sibling loops fused on lower bounds that are one affine form, `t` and
    # `t + 1 - 1`, though `lang.simplify` keeps them apart
    "siblings_one_affine_bound": """param N = 6;
array A[4,8] init random;
array B[4,8] init random;

#pragma xform loop(i,j) fuse fused_id(f)
for (t = 0; t < 3; t += 1) {
  for (i = t; i < N; i += 1)
    A[t,i] = t + i;
  for (j = t + 1 - 1; j < N; j += 1)
    B[t,j] = A[t,j] + 1;
}
""",
    # ... and one whose dropped bound overflows from t = 1 where the kept
    # one does not, or reads what the first loop writes
    "siblings_dropped_bound_faults": """param N = 6;
array A[4,8] init random;
array B[4,8] init random;

#pragma xform loop(i,j) fuse fused_id(f)
for (t = 0; t < 3; t += 1) {
  for (i = t; i < N; i += 1)
    A[t,i] = t + i;
  for (j = t + 9223372036854775807 - 9223372036854775807; j < N; j += 1)
    B[t,j] = j;
}
""",
    "siblings_bound_reads_array": """array A[4] init zero;
array B[8] init random;

#pragma xform loop(i,j) fuse fused_id(f)
for (i = 0; i < A[0] + 3; i += 1)
  A[0] = 2;
for (j = 0; j < A[0] + 3; j += 1)
  B[j] = j;
""",
    # an invalid reversal that `fallback` keeps, over a division by a drawn
    # cell: the output is the input, and some trials fault
    "kept_step_faults_on_some_trials": """array A[8] init random;

#pragma xform reverse
for (i = 1; i < 8; i += 1)
  A[i] = A[i - 1] + 100 / (A[6] % 3);
""",
    # collapses of loops that never run: two negative trip counts used to
    # multiply to a positive count
    "collapse_empty_levels": """array A[10,10] init zero;

#pragma xform collapse levels(2)
for (i = 5; i < 0; i += 1)
  for (j = 5; j < 0; j += 1)
    A[i,j] = 7;
""",
    "collapse_empty_levels_param": """param N = 0;
array A[10,10] init zero;

#pragma xform collapse levels(2)
for (i = 5; i < N; i += 1)
  for (j = 4; j < N; j += 1)
    A[i,j] = 7;
""",
    # generated loop names, and so variables, that a param, an array or the
    # variable of another loop already has
    "generated_name_is_param": """param N = 8;
array A[8] init zero;

#pragma xform stripmine size(2) floor_id(N)
for (i = 0; i < 8; i += 1)
  A[i] = N;
""",
    "generated_name_is_array": """array A[8] init zero;

#pragma xform stripmine size(2) floor_id(A)
for (i = 0; i < 8; i += 1)
  A[i] = i;
""",
    "generated_name_is_loop_variable": """array A[8] init zero;
array B[8,8] init zero;

#pragma xform stripmine size(2)
for (i = 0; i < 8; i += 1)
  A[i] = i;
for (i = 0; i < 8; i += 1) {
  #pragma xform stripmine size(2) floor_id(i)
  for (j = 0; j < 8; j += 1)
    B[i,j] = i;
}
""",
    # later loops over `i` are named `i#2`, `i#3`: a step that keeps such a
    # name keeps the variable `i`, and a sibling's `i` is in another scope
    "kept_names_of_later_loops": """array A[8] init random;
array B[8] init random;

#pragma xform stripmine size(2) floor_id(i)
for (i = 0; i < 8; i += 1)
  A[i] = i;
#pragma xform reverse
for (i = 0; i < 8; i += 1)
  B[i] += A[i];
#pragma xform peel first(1) prologue_id(p)
for (i = 0; i < 8; i += 1)
  A[i] += B[i];
""",
    "kept_name_keeps_its_variable": """array A[8] init zero;
array B[8,8] init zero;

#pragma xform stripmine size(2)
for (i = 0; i < 8; i += 1)
  A[i] = i;
#pragma xform reverse
for (i = 0; i < 8; i += 1) {
  #pragma xform stripmine size(2) floor_id(i)
  for (j = 0; j < 8; j += 1)
    B[i,j] += i;
}
""",
    # what the lowering hoists to a loop's head cannot fault: `i + 5`
    # overflows for the last i's, inside a loop that never runs
    "hoist_overflow_in_no_trips": """array A[4] init random;

#pragma xform reverse
for (i = 9223372036854775800; i < 9223372036854775807; i += 1)
  for (j = 0; j < 0; j += 1)
    A[0] = i + 5;
""",
    # 16 levels, past the lowering's split into a second function at 12
    "hoist_deep_traced_nest": _deep_traced_nest(16),
}
# a reversal over a bound whose fault one rule of `lang.simplify` used to
# drop: x - x, (a + b) - a, (a + b) - b, constants moving x both ways,
# x * 0 and x % 1
EDGES.update((f"simplify_{name}", "param N = 3;\narray A[8] init random;\n\n"
               f"#pragma xform reverse\nfor (i = 0; i < {bound}; i += 1)\n  A[i] = i;\n")
              for name, bound in (
                  ("difference", "(N / 0) - (N / 0) + 4"),
                  ("sum_minus_first", "(9223372036854775807 + N) - 9223372036854775807 + 4"),
                  ("sum_minus_second", "(N + 9223372036854775807) - 9223372036854775807 + 4"),
                  ("opposite_constants", "(N + 9223372036854775807) - 9223372036854775800"),
                  ("times_zero", "(N * 9223372036854775807) * 0 + 4"),
                  ("mod_one", "(N / 0) % 1 + 4")))

SETTINGS = (("--safety", "default"), ("--safety", "fallback"), ("--safety", "force"),
            ("--safety", "fallback", "--max-enum", "1"))
SHOW = ("--emit", "-", "--annotate", "--dump-tree", "--deps")
VERIFY = ("--verify", "3", "--seed", "5", "--trace", "trace.csv")
VERIFY_SEED0 = ("--verify", "2", "--seed", "0", "--trace", "trace.csv")


def programs() -> dict[str, str]:
    """Every input, by the file name it is written under."""
    out = {p.name: p.read_text(encoding="utf-8")
           for p in sorted((ROOT / "tests" / "corpus").glob("*.loop"))}
    for m in (8, 16, 17, 32):
        out[f"dgemm{m}.loop"] = DGEMM.format(m=m)
    for name, text in EDGES.items():
        out[f"edge_{name}.loop"] = text
    return out


def commands(names) -> list[tuple[str, ...]]:
    out = []
    for name in names:
        if name.startswith("dgemm"):
            out += [(name, "--safety", "fallback", *form) for form in (SHOW, VERIFY)]
            continue
        forms = (SHOW, VERIFY, VERIFY_SEED0) if name.startswith("edge_") else (SHOW, VERIFY)
        out += [(name, *setting, *form) for setting in SETTINGS for form in forms]
    return out


def _sha(data) -> str | None:
    if data is None:
        return None
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def digest(cli, argv: tuple[str, ...]) -> dict:
    """Run one command in the current directory; its digest line."""
    trace = Path("trace.csv")
    trace.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit) as e:  # any escape is the finding
            code = f"{type(e).__name__}: {e}"
    return {"argv": list(argv), "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue()),
            "trace": _sha(trace.read_bytes()) if trace.exists() else None}


def run(src: Path, only: str, sink) -> int:
    sys.path.insert(0, str(src / "src"))
    from xform import cli  # noqa: E402  (from the tree `--src` names)

    inputs = {n: t for n, t in programs().items() if only in n}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as tmp:
        os.chdir(tmp)
        try:
            for name, text in inputs.items():
                Path(name).write_text(text, encoding="utf-8")
            argvs = commands(inputs)
            for argv in argvs:
                sink.write(json.dumps(digest(cli, argv)) + "\n")
        finally:
            os.chdir(cwd)
    return len(argvs)


def compare(a: str, b: str) -> int:
    def load(path):
        with open(path, encoding="utf-8") as f:
            return {tuple(d["argv"]): d for d in map(json.loads, f)}
    left, right = load(a), load(b)
    differ = [k for k in left.keys() | right.keys() if left.get(k) != right.get(k)]
    for argv in sorted(differ):
        fields = [f for f in ("exit", "stdout", "stderr", "trace")
                  if (left.get(argv) or {}).get(f) != (right.get(argv) or {}).get(f)]
        print(f"{' '.join(argv)}: {', '.join(fields)} differ")
    print(f"{len(differ)} of {len(left.keys() | right.keys())} commands differ")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT), help="checkout whose xform runs")
    ap.add_argument("--out", default="-", help="digest file ('-' for stdout)")
    ap.add_argument("--only", default="", metavar="SUBSTRING",
                    help="keep the programs whose file name contains it")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digests")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.out == "-":
        n = run(Path(args.src).resolve(), args.only, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as sink:
            n = run(Path(args.src).resolve(), args.only, sink)
    print(f"{n} commands digested", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The xform benchmark: the CLI as its users run it, end to end and per layer.

    python3 perfbench/run.py --workload dgemm-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 10    # every workload, both modes

Run from the root of a source checkout; it imports `xform` from `src/`.
Every command goes through `xform.cli.main(argv)` in this one process and
thread, in two forms:

* transform: `xform P --safety MODE --emit -`
* verified:  the same plus `--verify N --seed S` (the `--seed` is this run's)

`--trace 0` times passes over all transform commands and over all verified
commands, about half of `--seconds` each, and prints the end-to-end metrics.
`--trace 1` alternates untraced passes with passes traced by `layers.Tracer`
and prints the per-layer metrics.  Every command's exit code, verification
message and emitted text are checked; the last line of stdout is one JSON
object.  Details, and the spans of the last traced pass, go to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import DETERMINISTIC, Tracer  # noqa: E402
from workloads import CORPUS, DGEMM, WORKLOADS, Program, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS_DIR = ROOT / "tests" / "corpus"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 15

# Timed commands write only to captured stdout (`--emit -`) and send
# `--trace` output to the null device.  Opening a file for writing has cost
# 27 ms to 64 ms on the disk of a shared VM, against 0.006 ms on tmpfs, and
# that is most of a small corpus command: one `--emit PATH` took 70 ms of a
# 73 ms CLI call.  The benchmark may write only inside its checkout, which
# rules out tmpfs, so the trace file is written and checked once, in the
# untimed check pass.
TRACE_SINK = os.devnull


@dataclass(frozen=True)
class Command:
    program: Program
    setting: str
    verified: bool
    argv: tuple[str, ...]
    expected: int


def import_xform():
    """Import `xform` from this checkout afresh; returns its `cli` module."""
    for name in [n for n in sys.modules if n == "xform" or n.startswith("xform.")]:
        del sys.modules[name]
    cli = importlib.import_module("xform.cli")
    if Path(cli.__file__).resolve().parent != SRC / "xform":
        raise RuntimeError(f"imported xform from {cli.__file__}, not from {SRC}")
    return cli


def setup(w: Workload):
    """Import xform and write or read the workload's inputs."""
    cli = import_xform()
    programs = []
    if w.dgemm_sizes:
        inputs = OUT / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        for m in w.dgemm_sizes:
            p = Program(str(inputs / f"dgemm{m}.loop"), DGEMM.format(m=m), m)
            # a new file each time: truncating one that still has unwritten
            # data makes ext4 flush it first, which costs tens of ms
            Path(p.name).unlink(missing_ok=True)
            Path(p.name).write_text(p.text, encoding="utf-8")
            programs.append(p)
    else:
        for name in CORPUS:
            path = CORPUS_DIR / name
            programs.append(Program(str(path), path.read_text(encoding="utf-8")))
    return cli, programs


def build_commands(w: Workload, programs, seed: int, trace_path: str):
    transform, verified = [], []
    for setting, flags in w.settings.items():
        for p in programs:
            base = (p.name, *flags, "--emit", "-")
            name = Path(p.name).name
            transform.append(Command(p, setting, False, base,
                                     w.expected_exit(name, setting, False)))
            extra = ("--verify", str(w.verify_trials), "--seed", str(seed))
            if w.trace_on_verify:
                extra += ("--trace", trace_path)
            verified.append(Command(p, setting, True, base + extra,
                                    w.expected_exit(name, setting, True)))
    return transform, verified


class Bench:
    def __init__(self, w: Workload, cli, programs):
        self.w, self.cli, self.programs = w, cli, programs
        # checks use the unwrapped parser, so they never show up in a trace
        self.parse_program = cli.parse_program
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, commands):
        """Run commands back to back; returns (wall seconds, results)."""
        gc.collect()
        results = []
        start = time.perf_counter()
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(list(cmd.argv))
                except (Exception, SystemExit):
                    rc = None
                    err.write(traceback.format_exc())
            results.append((cmd, rc, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - start
        return wall, results

    def problem(self, cmd: Command, rc, out: str, err: str) -> str | None:
        if rc is None:
            return "exception escaped cli.main: " + err.strip().splitlines()[-1]
        if rc != cmd.expected:
            return f"exit {rc}, expected {cmd.expected}: {err.strip()[:200]}"
        if cmd.verified:
            want = "verified: " if cmd.expected == 0 else "verification mismatch: "
            if want not in err:
                return f"stderr lacks {want!r}: {err.strip()[:200]}"
        try:
            self.parse_program(out)
        except Exception as e:  # any failure to re-parse is the finding
            return f"emitted text does not re-parse: {e}"
        return None

    def check(self, results) -> tuple[int, int]:
        """Count outcomes of one pass; returns (applied, requested) directives
        of its transform commands."""
        applied = requested = 0
        for cmd, rc, out, err in results:
            self.attempted += 1
            why = self.problem(cmd, rc, out, err)
            if why is not None:
                self.failures.append(f"{cmd.program.name} [{cmd.setting}"
                                     f"{', verified' if cmd.verified else ''}]: {why}")
            if not cmd.verified:
                warnings = sum(1 for line in err.splitlines() if line.startswith("warning:"))
                requested += cmd.program.pragmas
                applied += cmd.program.pragmas - warnings
        return applied, requested

    def check_pass(self, seed: int):
        """Untimed first pass: fills caches, checks every command, and checks
        each trace file against its known row count (one row per statement
        instance; the dgemm nest runs its one statement M^3 times)."""
        trace_file = OUT / "trace.csv"
        transform, verified = build_commands(self.w, self.programs, seed, str(trace_file))
        self.check(self.run_pass(transform)[1])
        for cmd in verified:
            trace_file.unlink(missing_ok=True)
            self.check(self.run_pass([cmd])[1])
            if not self.w.trace_on_verify:
                continue
            rows = (trace_file.read_text(encoding="utf-8").splitlines()
                    if trace_file.exists() else [])
            m = cmd.program.size
            self.attempted += 1
            if rows[:1] != ["stmt,iter_vec,reads,writes"] or len(rows) != 1 + m ** 3:
                self.failures.append(f"{cmd.program.name}: trace has {len(rows) - 1} "
                                     f"rows after its header, expected {m ** 3}")
        trace_file.unlink(missing_ok=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(bench: Bench, seed: int, seconds: float, setups: list[float]):
    transform, verified = build_commands(bench.w, bench.programs, seed, TRACE_SINK)
    t_walls, v_walls = [], []
    applied = requested = 0
    deadline = time.perf_counter() + seconds
    while not v_walls or time.perf_counter() < deadline:
        # each kind of pass gets about half the time, however long one pass is
        if sum(t_walls) <= sum(v_walls):
            wall, results = bench.run_pass(transform)
            t_walls.append(wall)
            a, r = bench.check(results)
            applied, requested = applied + a, requested + r
        else:
            wall, results = bench.run_pass(verified)
            v_walls.append(wall)
            bench.check(results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = len(bench.failures)
    # The program does the same work in every pass, so pass-to-pass spread
    # is interference from other tenants of the machine, which only adds
    # time.  Over sets of ten runs on 2 shared cores the fastest pass spread
    # from run to run as little as the median pass or less (corpus
    # transform_s: 0.017 against 0.165), so it is the reported pass time;
    # the median and quartiles are printed and recorded beside it.
    metrics = {
        "transform_s": (min(t_walls), "s"),
        "verified_s": (min(v_walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": (1 - failed / bench.attempted, "ratio"),
    }
    detail = {
        "passes": len(t_walls),
        "transform_walls_s": t_walls, "verified_walls_s": v_walls,
        "setup_walls_s": setups,
        "applied": applied, "requested": requested,
    }
    for name, values in (("transform_s", t_walls), ("verified_s", v_walls), ("setup_s", setups)):
        q1, q3 = quartiles(values)
        print(f"{name:12s} {metrics[name][0]:.4f} s  of {len(values)}: min {min(values):.4f}, "
              f"q1 {q1:.4f}, median {statistics.median(values):.4f}, q3 {q3:.4f}, "
              f"max {max(values):.4f}")
    print(f"{'peak_rss_mb':12s} {rss_mb:.1f} MB")
    print(f"{'applied_share':12s} {applied / requested:.4f}  "
          f"({applied}/{requested} directives over {len(t_walls)} transform passes)")
    print(f"{'failed_share':12s} {failed / bench.attempted:.4f}  "
          f"({failed}/{bench.attempted} commands)")
    return metrics, detail


def per_layer(bench: Bench, seed: int, seconds: float):
    commands = build_commands(bench.w, bench.programs, seed, TRACE_SINK)

    def traced_pass(cmds):
        tracer = Tracer()
        tracer.install()
        try:
            wall_t, res_t = bench.run_pass(cmds[0])
            wall_v, res_v = bench.run_pass(cmds[1])
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(*bench.check(res_t))
        bench.check(res_v)
        return wall_t + wall_v, metrics, tracer.spans

    plain_walls, traced_walls, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        wall_t, res_t = bench.run_pass(commands[0])
        wall_v, res_v = bench.run_pass(commands[1])
        bench.check(res_t)
        bench.check(res_v)
        plain_walls.append(wall_t + wall_v)
        wall, m, spans = traced_pass(commands)
        traced_walls.append(wall)
        traced.append(m)
    _, other, _ = traced_pass(build_commands(bench.w, bench.programs, seed + 1, TRACE_SINK))

    # determinism self-check: counts repeat exactly, whatever the seed
    for label, m in [("same seed", m) for m in traced[1:]] + [("seed + 1", other)]:
        for name in DETERMINISTIC:
            bench.attempted += 1
            if m[name] != traced[0][name]:
                bench.failures.append(f"determinism ({label}): {name} = {m[name]}, "
                                      f"first traced pass gave {traced[0][name]}")

    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["cli.trace_overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain_walls))
    units = {name: ("ms" if name.endswith("_ms") else "s" if name.endswith("_s")
                    else "ratio" if name.endswith("_share") else "count")
             for name in metrics}
    for name, value in metrics.items():
        shown = f"{value:14.4f}" if units[name] != "count" else f"{value:9.0f}"
        print(f"{name:32s} {shown} {units[name]}")
    t0 = spans[0][1] if spans else 0.0
    detail = {
        "traced_passes": len(traced),
        "plain_walls_s": plain_walls,
        "traced_walls_s": traced_walls,
        "spans": [[name, 1e3 * (s - t0), 1e3 * (e - t0), parent]
                  for name, s, e, parent in spans],  # the last traced pass
    }
    return {name: (value, units[name]) for name, value in metrics.items()}, detail


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "xform").glob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="omit to run every workload, untraced and traced, "
                         "each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload is None:
        worst = 0
        for name in WORKLOADS:
            for trace in (0, 1):
                print(f"== {name} --trace {trace}", flush=True)
                worst = max(worst, subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)]).returncode)
        return worst

    if not (SRC / "xform" / "cli.py").is_file():
        print(f"error: no xform sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli, programs = setup(w)
        setups.append(time.perf_counter() - start)

    bench = Bench(w, cli, programs)
    bench.check_pass(args.seed)
    if args.trace:
        metrics, detail = per_layer(bench, args.seed, args.seconds)
    else:
        metrics, detail = end_to_end(bench, args.seed, args.seconds, setups)
    lines = src_lines()
    print(f"src_lines {lines}  (src/xform/*.py)")
    for f in bench.failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, src_lines=lines, failures=bench.failures, **detail)
    path = OUT / f"{w.name}-trace{args.trace}.json"
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

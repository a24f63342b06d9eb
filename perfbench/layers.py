"""Per-layer tracing, installed from outside the program.

Each listed public function of `xform` is replaced by a wrapper that records
a span (layer, start, end, parent) in memory and updates counters from the
call's result.  The wrapper is bound in every `xform` module that holds the
function, not only where it is defined: `transforms` imports
`enumerate_instances` by name and `cli` imports `parse_program` by name, and
a call through a missed binding would simply go uncounted.

A layer's self time is its spans' duration minus the time their child spans
cover.  Some functions are only counted, without a span, because on some
workloads they never run and a time metric would read exactly 0 on every
run; their time stays in the caller's self time:
`conservative_dependences` in `deps.compute`, and `trace_csv` (not wrapped)
in `cli.main`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

JUDGES = ("judge_exact", "judge_parallel_exact", "judge_level_conservative",
          "judge_permutation_conservative", "judge_band_nonneg_conservative",
          "judge_parts_conservative")

# (layer, module, function, records a span)
TARGETS = (
    ("cli.main", "cli", "main", True),
    ("frontend.parse", "frontend", "parse_program", True),
    ("ir.name", "ir", "name_loops", True),
    ("ir.plan", "ir", "plan_pipeline", True),
    ("transforms.apply", "transforms", "apply_pipeline", True),
    ("transforms.build_candidate", "transforms", "build_candidate", True),
    ("transforms.classify", "transforms", "classify", True),
    ("deps.compute", "deps", "compute_dependences", True),
    ("deps.enumerate", "deps", "enumerate_instances", True),
    ("deps.conservative", "deps", "conservative_dependences", False),
    *(("legality.judge", "legality", j, True) for j in JUDGES),
    ("interp.run", "interp", "run", True),
    ("interp.equivalent", "interp", "equivalent", True),
    ("emit.emit", "emit", "emit_program", True),
)

VERDICTS = ("always_valid", "valid_with_rtc", "invalid", "impossible")


def _record_trace(args, kwargs) -> bool:
    # interp.run(program, seed=0, alias_binding=None, record_trace=True, ...)
    return kwargs.get("record_trace", args[3] if len(args) > 3 else True)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _observe(self, layer: str, args, kwargs, result):
        c = self.counts
        if layer == "ir.plan":
            c["ir.directives"] += len(result.steps)
        elif layer == "transforms.build_candidate":
            c["transforms.candidates"] += 1
        elif layer == "transforms.classify":
            c["legality." + result.kind] += 1
        elif layer == "deps.compute" and result.exact:
            c["deps.exact"] += 1
            c["deps.instances"] += len(result.instances)
            c["deps.pairs"] += len(result.pairs) + len(result.alias_pairs)
        elif layer == "interp.run" and _record_trace(args, kwargs):
            c["interp.trace_run_calls"] += 1
        elif layer == "emit.emit":
            c["emit.lines"] += result.count("\n")

    def _wrap(self, layer: str, fn, spanned: bool):
        spans, stack, calls = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[layer + ".calls"] += 1  # also calls that raise
            if not spanned:
                result = fn(*args, **kwargs)
                self._observe(layer, args, kwargs, result)
                return result
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            self._observe(layer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every listed function in every loaded `xform` module."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "xform" or name.startswith("xform.")]
        wrappers = {}
        for layer, mod, name, spanned in TARGETS:
            fn = getattr(sys.modules["xform." + mod], name)
            wrappers[fn] = self._wrap(layer, fn, spanned)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if callable(value) and value in wrappers:  # other values may be unhashable
                    setattr(m, attr, wrappers[value])
                    self._patched.append((m, attr, value))

    def uninstall(self):
        for m, attr, value in reversed(self._patched):
            setattr(m, attr, value)
        self._patched.clear()

    def self_ms(self) -> dict[str, float]:
        """Self time per layer in ms; checks that it adds up to the roots."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[layer] = out.get(layer, 0.0) + 1e3 * (end - start - child)
        roots = [s for s in self.spans if s[3] < 0]
        if any(s[0] != "cli.main" for s in roots):
            raise AssertionError("a traced call ran outside cli.main")
        total = sum(1e3 * (end - start) for _, start, end, _ in roots)
        if abs(sum(out.values()) - total) > 1e-6 * max(total, 1.0):
            raise AssertionError(f"layer self times add up to {sum(out.values())} ms, "
                                 f"cli.main took {total} ms")
        return out

    def metrics(self, applied: int, requested: int) -> dict[str, float]:
        """The per-layer metrics of this pass (trace overhead added by the caller)."""
        ms, c = self.self_ms(), self.counts
        compute = c["deps.compute.calls"]
        return {
            "frontend.parse_ms": ms.get("frontend.parse", 0.0),
            "frontend.parse_calls": c["frontend.parse.calls"],
            "ir.name_ms": ms.get("ir.name", 0.0),
            "ir.plan_ms": ms.get("ir.plan", 0.0),
            "ir.directives": c["ir.directives"],
            "transforms.apply_ms": ms.get("transforms.apply", 0.0),
            "transforms.build_candidate_ms": ms.get("transforms.build_candidate", 0.0),
            "transforms.candidates": c["transforms.candidates"],
            "transforms.classify_ms": ms.get("transforms.classify", 0.0),
            "transforms.classify_calls": c["transforms.classify.calls"],
            "deps.compute_ms": ms.get("deps.compute", 0.0),
            "deps.compute_calls": compute,
            "deps.enumerate_ms": ms.get("deps.enumerate", 0.0),
            "deps.enumerate_calls": c["deps.enumerate.calls"],
            "deps.conservative_calls": c["deps.conservative.calls"],
            "deps.instances": c["deps.instances"],
            "deps.pairs": c["deps.pairs"],
            "deps.exact_share": c["deps.exact"] / compute if compute else 0.0,
            "legality.judge_ms": ms.get("legality.judge", 0.0),
            **{"legality." + v: c["legality." + v] for v in VERDICTS},
            "interp.run_ms": ms.get("interp.run", 0.0),
            "interp.run_calls": c["interp.run.calls"],
            "interp.trace_run_calls": c["interp.trace_run_calls"],
            "interp.equivalent_ms": ms.get("interp.equivalent", 0.0),
            "emit.emit_ms": ms.get("emit.emit", 0.0),
            "emit.lines": c["emit.lines"],
            "cli.main_ms": ms.get("cli.main", 0.0),
            "cli.applied_share": applied / requested,
        }


# Counts that must repeat exactly for the same seed and must not depend on it.
DETERMINISTIC = ("deps.instances", "deps.pairs", *("legality." + v for v in VERDICTS),
                 "emit.lines", "cli.applied_share")

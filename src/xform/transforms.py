"""The directive pipeline: build each directive's candidate, classify it,
resolve the safety mode, and apply.

The catalog of rewrites and everything else particular to one directive
kind lives in `kinds`.  A rewrite that keeps the execution order by
construction is always valid.  Everything else is checked against the
dependence analysis: in exact mode every conflicting instance pair must keep
its execution order in the candidate tree; in conservative mode the kind's
distance-vector rule applies.  The exact conflict graph is built once per
region and carried from step to step for as long as each step is exact and
always valid.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import deps as depmod
from . import legality
from .deps import DepsError, _CapExceeded, enumerate_instances
from .ir import PlannedDirective, PlannedPipeline
from .kinds import KINDS, SIBLINGS, TransformError, _const_trips  # noqa: F401 (re-exported)
from .lang import (
    Directive, EvalError, Program, Stmt, clone_program, clone_stmt, containing_list,
    find_loop, iter_loops, iter_stmts, strip_pragmas,
)
from .legality import (
    HARD_ERROR, IMPOSSIBLE, KEEP_ORIGINAL, TRANSFORM_WITH_RTC, Action, Verdict,
    warning_text,
)


# ---------------------------------------------------------------------------
# Dispatcher


@dataclass
class ApplyInfo:
    span_start: int
    span_old: int
    span_new: int
    binds: dict[str, str]
    notes: list[str]
    meta: dict


def _top_index(program: Program, node: Stmt) -> int:
    for i, s in enumerate(program.body):
        if s is node:
            return i
        for inner in iter_stmts([s]):
            if inner is node:
                return i
    raise AssertionError("node not in program")


def build_candidate(program: Program, pd: PlannedDirective) -> tuple[Program, ApplyInfo]:
    """Clone the program and apply one directive structurally (no legality)."""
    cand = clone_program(program)
    d = pd.directive
    kind = KINDS[d.kind]
    taken = {l.name for l in iter_loops(cand.body)}
    nodes = []
    for t in pd.targets:
        n = find_loop(cand.body, t)
        if n is None:
            raise TransformError(f"loop '{t}' is not available")
        nodes.append(n)
    loops = kind.loops(cand, nodes, pd.targets)
    res = kind.build(cand, loops, kind.with_ids(d.clauses, pd.targets), d.uid, taken)

    # the replacement takes the place of the outermost target loop, or of
    # all the sibling loops
    tops = sorted({_top_index(cand, l) for l in loops})
    found = containing_list(cand.body, loops[0])
    assert found is not None
    container, idx = found
    count = len(loops) if kind.shape == SIBLINGS else 1
    container[idx:idx + count] = res.replacement
    if container is cand.body:
        span_new = len(tops) - count + len(res.replacement)
    else:
        span_new = len(tops)
    info = ApplyInfo(tops[0], len(tops), span_new, res.binds, res.notes, res.meta)
    return cand, info


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class DirectiveReport:
    directive: Directive
    target: str
    verdict: Verdict
    action: Action
    warning: str = ""


@dataclass
class PipelineResult:
    program: Program
    reports: list[DirectiveReport]
    error: str | None = None

    @property
    def warnings(self) -> list[str]:
        return [r.warning for r in self.reports if r.warning]


def classify(program: Program, pd: PlannedDirective, candidate: Program | None,
             info: ApplyInfo | None, impossible_reason: str = "",
             max_enum: int = 4096, *, graphs: dict) -> Verdict:
    """Classify one planned directive against the current tree.

    `graphs` carries exact conflict graphs from one step of a pipeline to the
    next, keyed by top-level span (start, stop).  On entry it may hold the
    graph of a region of `program`; classify empties it.  After an exact
    always-valid verdict it stores the candidate's graph under the
    candidate's span, unless the candidate is too large for `max_enum` to
    analyze exactly from scratch.  An always-valid step is applied in every
    safety mode.
    """
    carried = graphs.copy()
    graphs.clear()
    if candidate is None:
        return Verdict(IMPOSSIBLE, impossible_reason)
    kind = KINDS[pd.directive.kind]
    if kind.always_valid and kind.always_valid(program, pd.targets, pd.directive.clauses,
                                               info.meta):
        return Verdict(legality.ALWAYS_VALID)

    stop = info.span_start + info.span_old
    depset = carried.get((info.span_start, stop))
    if depset is None:
        try:
            depset = depmod.compute_dependences(program, program.body[info.span_start:stop],
                                                max_enum)
        except DepsError as e:
            return Verdict(IMPOSSIBLE, str(e))

    if depset.exact:
        if kind.exact is not None:
            return kind.exact(depset, info.meta)
        cstop = info.span_start + info.span_new
        cscope = candidate.body[info.span_start:cstop]
        try:
            cinsts = enumerate_instances(candidate, cscope, max_enum * 2)
        except DepsError as e:
            return Verdict(IMPOSSIBLE, str(e))
        except (EvalError, _CapExceeded):
            pass  # fall through to the conservative judgement
        else:
            verdict = legality.judge_exact(depset, cinsts)
            if verdict.kind == legality.ALWAYS_VALID:
                graph = depmod.reorder(depset, cinsts, cscope, max_enum)
                if graph is not None:
                    graphs[(info.span_start, cstop)] = graph
            return verdict

    return kind.conservative(depset, info.meta)


def apply_pipeline(program: Program, plan: PlannedPipeline,
                   safety_override: str | None = None, required_all: bool = False,
                   max_enum: int = 4096) -> PipelineResult:
    """Fold classify -> resolve -> apply over the planned pipeline.

    Keep-original outcomes leave their ids unbound (later references get a
    chained diagnostic).  Runtime-checked regions are versioned at the end:
    one combined disjointness guard per top-level region, with the original
    source as the fallback branch.
    """
    cur = strip_pragmas(program)
    tags: list[tuple[int, ...]] = [(i,) for i in range(len(cur.body))]
    pristine: dict[int, Stmt] = {i: clone_stmt(s) for i, s in enumerate(cur.body)}
    rtc_conds: dict[int, dict] = {}
    kept_ids: dict[str, Directive] = {}
    reports: list[DirectiveReport] = []
    graphs: dict = {}  # exact conflict graph of the current program, see classify

    for pd in plan.steps:
        d = pd.directive
        mode = d.safety if d.safety_explicit else (safety_override or d.safety)
        req = d.required or required_all
        target_name = d.targets[0] if d.targets else pd.attached

        candidate = info = None
        impossible_reason = ""
        missing = [t for t in pd.targets if find_loop(cur.body, t) is None]
        if missing:
            impossible_reason = f"loop '{missing[0]}' is not available"
            if missing[0] in kept_ids:
                k = kept_ids[missing[0]]
                impossible_reason += (f" because {k.kind} (line {k.line}) "
                                      "was not applied")
        else:
            try:
                candidate, info = build_candidate(cur, pd)
            except TransformError as e:
                impossible_reason = str(e)

        verdict = classify(cur, pd, candidate, info, impossible_reason, max_enum,
                           graphs=graphs)
        action = legality.resolve(verdict, mode, req)
        warning = ""
        if action.kind in (KEEP_ORIGINAL, HARD_ERROR):
            warning = warning_text(d, target_name, verdict.describe(),
                                   hard=action.kind == HARD_ERROR)
        reports.append(DirectiveReport(d, target_name, verdict, action, warning))
        if action.kind == HARD_ERROR:
            return PipelineResult(cur, reports, error=warning)
        if action.kind == KEEP_ORIGINAL:
            for name in pd.introduced:
                if name not in pd.consumed:
                    kept_ids[name] = d
            continue
        span = slice(info.span_start, info.span_start + info.span_old)
        merged = tuple(dict.fromkeys(a for t in tags[span] for a in t))
        if action.kind == TRANSFORM_WITH_RTC:
            for a in merged:
                rtc_conds.setdefault(a, {}).update(dict.fromkeys(action.rtc_pairs))
        cur = candidate
        tags[span] = [merged] * info.span_new

    # finalize: wrap runtime-checked regions in versioning guards
    if rtc_conds:
        body: list[Stmt] = []
        i = 0
        while i < len(cur.body):
            j = i
            while j < len(cur.body) and tags[j] == tags[i]:
                j += 1
            atoms = tags[i]
            pairs: dict = {}
            for a in atoms:
                pairs.update(rtc_conds.get(a, {}))
            group = cur.body[i:j]
            if pairs:
                fallback = [clone_stmt(pristine[a]) for a in sorted(atoms)]
                body.extend(legality.synthesize_rtc(tuple(pairs), group, fallback))
            else:
                body.extend(group)
            i = j
        cur = Program(cur.arrays, cur.aliases, cur.params, body)
    return PipelineResult(cur, reports)

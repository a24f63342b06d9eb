"""The directive pipeline: build each directive's candidate, classify it,
resolve the safety mode, and apply.

The catalog of rewrites and everything else particular to one directive
kind lives in `kinds`.  A rewrite that keeps the execution order by
construction is always valid.  Everything else is checked against the
dependence analysis.  In exact mode every conflicting instance pair must
keep its execution order in the candidate (a mark, in its loop reversed):
the kind's schedule gives each instance of the region its time there, and
the candidate is never walked, only counted and proved once by
`lang.step_counts`.  In conservative mode the kind's distance-vector rule
applies, and so it does for an exact region whose candidate a walk could
not value (arithmetic that `lang.interval` cannot prove) or whose target
loop names are not unique in the region.  The exact conflict graph is built
once per region and carried from step to step unchanged, with its
instances' placement in the current schedule (`schedules`), while each step
is exact and always valid; a verdict that reads the current schedule's
instances analyzes the region afresh.  A pipeline pauses the cyclic collector.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import deps as depmod
from . import legality
from .deps import DepsError
from .ir import PlannedDirective, PlannedPipeline
from .kinds import KINDS, SIBLINGS, TransformError
from .lang import (
    INT64_MAX, INT64_MIN, Assign, Directive, ForLoop, IfStmt, IntLit, Program, Stmt,
    WhileLoop, clone_program, find_loop, gc_paused, iter_loops, iter_stmts, locate,
    step_counts, strip_pragmas, subexprs, subst_stmt,
)
from .legality import (
    HARD_ERROR, IMPOSSIBLE, KEEP_ORIGINAL, TRANSFORM_WITH_RTC, Action, Verdict,
    warning_text,
)
from .schedules import placer


# ---------------------------------------------------------------------------
# Dispatcher


@dataclass
class ApplyInfo:
    span_start: int
    span_old: int
    span_new: int
    meta: dict
    outer: list[ForLoop]  # the for-loops around the targets, outermost first


def _constants(s: Stmt) -> list[int]:
    """The loop step and the literals of a statement's own expressions."""
    if isinstance(s, Assign):
        exprs = (*s.index, s.value, *(e for _, e in s.orig_coords))
    elif isinstance(s, ForLoop):
        exprs = (s.lower, s.upper, IntLit(s.step))
    else:
        exprs = (s.cond,) if isinstance(s, (IfStmt, WhileLoop)) else ()
    return [x.value for e in exprs for x in subexprs(e) if type(x) is IntLit]


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
    container, idx, top, outer = locate(cand.body, loops[0])
    res = kind.build(cand, loops, kind.with_ids(d.clauses, pd.targets), d.uid, taken)
    for s in iter_stmts(res.replacement):  # generated statements: the directive's line
        if s.line == 0:
            s.line = d.line
        for v in _constants(s):
            if not INT64_MIN <= v <= INT64_MAX:
                raise TransformError(f"generated constant {v} is outside int64")

    # the replacement takes the place of the outermost target loop, or of
    # all the sibling loops; nested, it stays within one top-level statement
    count = len(loops) if kind.shape == SIBLINGS else 1
    container[idx:idx + count] = res.replacement
    if container is cand.body:
        return cand, ApplyInfo(top, count, len(res.replacement), res.meta, outer)
    return cand, ApplyInfo(top, 1, 1, res.meta, outer)


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
    next, keyed by top-level span (start, stop): the region's first
    `DependenceSet`, in enumeration order, and its instances' placement in
    the current schedule.  On entry it may hold the graph of a region of
    `program`; classify empties it.  After an exact always-valid verdict it
    stores the graph and the candidate's placement under the candidate's
    span where a fresh analysis of the candidate would be exact (a mark's
    schedule is a check: it carries the current placement).  A verdict that
    reads the current schedule's instances (a witness or a conservative rule)
    reads such an analysis of the region (`deps.compute_dependences`).  An
    always-valid step is applied in every safety mode.
    """
    carried = graphs.copy()
    graphs.clear()
    if candidate is None:
        return Verdict(IMPOSSIBLE, impossible_reason)
    kind = KINDS[pd.directive.kind]
    if kind.schedule is None or (kind.always_valid and kind.always_valid(
            program, pd.targets, pd.directive.clauses, info.meta)):
        return Verdict(legality.ALWAYS_VALID)

    start, stop = info.span_start, info.span_start + info.span_old
    region = program.body[start:stop]
    depset, placement = carried.get((start, stop), (None, None))
    if depset is None:
        try:
            depset = depmod.compute_dependences(program, region, max_enum)
        except DepsError as e:
            return Verdict(IMPOSSIBLE, str(e))

    def current():  # the graph over the instances of the current schedule
        return depset if placement is None else depmod.compute_dependences(
            program, region, max_enum)

    if depset.exact:
        cstop = start + info.span_new
        cscope = candidate.body[start:cstop]
        _, bound, proved = step_counts(cscope, candidate.param_ranges(include_opaque=False))
        place = exact_schedule(program, pd, info, proved)
        if place is not None:
            placed = place(depset.instances, placement)
            verdict = legality.judge_exact(depset, [p[2] for p in placed])
            if verdict.kind == legality.INVALID and placement is not None:
                # the witness is the first violated pair in the current order
                fresh = current()
                verdict = legality.judge_exact(fresh, [p[2] for p in place(fresh.instances)])
            # carried only where the next step would analyze the candidate
            # exactly: its instances are the region's, its steps bounded
            if (verdict.kind == legality.ALWAYS_VALID and bound
                    and depmod.fits(len(placed), bound[2], max_enum)):
                graphs[(start, cstop)] = depset, placement if "mark" in info.meta else placed
            return verdict

    return kind.conservative(current(), info.meta)


def exact_schedule(program: Program, pd: PlannedDirective, info: ApplyInfo, proved: bool):
    """The kind's schedule of an exact region (`schedules.placer`), or None where
    the step goes to the kind's conservative rule: where a walk of the
    candidate could fault, as a mark's cannot and `lang.step_counts` has not
    `proved`, or where a target's name is not unique in the region, so its
    instances cannot be told apart from those of the loop's copies."""
    start = info.span_start
    region = [l.name for l in iter_loops(program.body[start:start + info.span_old])]
    if not ((proved or "mark" in info.meta) and all(region.count(t) == 1 for t in pd.targets)):
        return None
    return placer(KINDS[pd.directive.kind].schedule, info.meta, info.outer,
                  program.param_ranges(include_opaque=False))


@gc_paused()
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
    pristine = list(cur.body)  # never changed: every candidate is built on a clone
    rtc_conds: dict[int, dict] = {}
    kept_ids: dict[str, Directive] = {}
    reports: list[DirectiveReport] = []
    graphs: dict = {}  # exact conflict graph and placement of the current program, see classify

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
                fallback = [subst_stmt(pristine[a], {}) for a in sorted(atoms)]
                body.extend(legality.synthesize_rtc(tuple(pairs), group, fallback))
            else:
                body.extend(group)
            i = j
        cur = Program(cur.arrays, cur.aliases, cur.params, body)
    return PipelineResult(cur, reports)

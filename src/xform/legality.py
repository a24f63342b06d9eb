"""Legality classification and safety-mode resolution.

Every planned transformation lands in one of four verdicts:

* always_valid   — cannot change semantics (structurally order-preserving,
                   or every dependence survives the new schedule)
* valid_with_rtc — only declared may-alias pairs could break it; a runtime
                   disjointness check can guard the transformed version
* invalid        — some dependence on definitely-shared storage is violated
* impossible     — structurally not applicable (while-loops, imperfect
                   nests, unknown trip counts where one is required, ...)

The verdict crosses with the safety mode (default / fallback / force) to an
action; `required` upgrades every keep-original warning to a hard error:

                     default        fallback       force
    always_valid     transform      transform      transform
    valid_with_rtc   transform      rtc-guarded    keep + warn
    invalid          transform      keep + warn    keep + warn
    impossible       keep + warn    keep + warn    keep + warn

Note the default column: by design the transformation is applied even when
it changes semantics, and no runtime check is inserted.

The exact judge, `judge_exact`, reads the region's conflict graph: it
compares each edge's two times in the candidate, which the kind's schedule
map gives (`schedules`; a `parallel` mark is judged by reverse's).  The
conservative judges read distance vectors, whose first decisive entry only
`deps.leading_sign` finds; a level step (reverse, stripemine, parallel)
reorders only the instances in one execution of its loop, so it judges no
dependence outside that loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deps import Dependence, DependenceSet, distance, leading_sign
from .lang import Call, Expr, BinOp, IfStmt, Stmt, VarRef

ALWAYS_VALID = "always_valid"
VALID_WITH_RTC = "valid_with_rtc"
INVALID = "invalid"
IMPOSSIBLE = "impossible"

TRANSFORM = "transform"
TRANSFORM_WITH_RTC = "transform_with_rtc"
KEEP_ORIGINAL = "keep_original"
HARD_ERROR = "hard_error"


@dataclass
class Verdict:
    kind: str
    detail: str = ""
    rtc_pairs: tuple[tuple[str, str], ...] = ()
    witness: Dependence | None = None

    def describe(self) -> str:
        if self.kind == VALID_WITH_RTC:
            conds = " && ".join(f"disjoint({a},{b})" for a, b in self.rtc_pairs)
            return f"valid with rtc [{conds}]"
        out = self.kind.replace("_", " ")
        if self.witness is not None:
            out += f": dependence {self.witness.pretty()} would be violated"
        elif self.detail:
            out += f": {self.detail}"
        return out


@dataclass
class Action:
    kind: str
    rtc_pairs: tuple[tuple[str, str], ...] = ()


_MATRIX = {
    (ALWAYS_VALID, "default"): TRANSFORM,
    (ALWAYS_VALID, "fallback"): TRANSFORM,
    (ALWAYS_VALID, "force"): TRANSFORM,
    (VALID_WITH_RTC, "default"): TRANSFORM,
    (VALID_WITH_RTC, "fallback"): TRANSFORM_WITH_RTC,
    (VALID_WITH_RTC, "force"): KEEP_ORIGINAL,
    (INVALID, "default"): TRANSFORM,
    (INVALID, "fallback"): KEEP_ORIGINAL,
    (INVALID, "force"): KEEP_ORIGINAL,
    (IMPOSSIBLE, "default"): KEEP_ORIGINAL,
    (IMPOSSIBLE, "fallback"): KEEP_ORIGINAL,
    (IMPOSSIBLE, "force"): KEEP_ORIGINAL,
}


def resolve(verdict: Verdict, mode: str, required: bool) -> Action:
    """Map verdict x safety mode (x required) to the action to take."""
    kind = _MATRIX[(verdict.kind, mode)]
    if kind == KEEP_ORIGINAL:
        return Action(HARD_ERROR if required else KEEP_ORIGINAL)
    if kind == TRANSFORM_WITH_RTC:
        return Action(TRANSFORM_WITH_RTC, verdict.rtc_pairs)
    return Action(TRANSFORM)


def warning_text(directive, loop_name: str, verdict_text: str, hard: bool = False) -> str:
    sev = "error" if hard else "warning"
    return (f"{sev}: {directive.kind} on loop '{loop_name}' "
            f"(line {directive.line}): {verdict_text}")


# ---------------------------------------------------------------------------
# Schedule checks


def judge_exact(depset: DependenceSet, times: list) -> Verdict:
    """Check a schedule of the region against its conflict graph: `times[k]`
    is the time of instance k in the candidate (a tuple from the kind's
    schedule, compared lexicographically).  Only may-alias violations are
    rtc-recoverable.

    Every edge of `depset.pairs` must keep its order: those are the linear
    write-separated adjacent pairs, and they are kept in order exactly when
    every conflicting pair is.  An invalid verdict is repeated on all
    conflicting pairs (`depset.full_pairs`), so that its witness is the first
    violated pair in execution order; an rtc verdict reads only `alias_pairs`.
    """
    verdict = _judge_order(depset, depset.pairs, times)
    if verdict.kind == INVALID:
        verdict = _judge_order(depset, depset.full_pairs, times)
    return verdict


def _judge_order(depset: DependenceSet, pairs, times: list) -> Verdict:
    for (i, j, kind) in pairs:
        if times[i] > times[j]:
            return Verdict(INVALID, witness=_pair_to_dep(depset.instances, i, j, kind))
    return _rtc_verdict(pair for (i, j, kind, pair) in depset.alias_pairs
                        if times[i] > times[j])


# a name the benchmark tracer's `JUDGES` list still binds
judge_parallel_exact = judge_exact


def _rtc_verdict(pairs) -> Verdict:
    """Valid with a check of the may-alias `pairs` that would be violated,
    or always valid when there are none."""
    rtc = tuple(sorted(set(pairs)))
    if rtc:
        return Verdict(VALID_WITH_RTC, rtc_pairs=rtc)
    return Verdict(ALWAYS_VALID)


def _pair_to_dep(instances, i, j, kind) -> Dependence:
    a, b = instances[i], instances[j]
    return Dependence(a.stmt, b.stmt, kind, *distance(a, b))


# conservative checks operate on summarized distance vectors ----------------


def _carried_outside(dep: Dependence, names: set[str]) -> bool:
    """True when the dependence is certainly carried by a loop above every
    loop in `names`: its entries there lead with a fixed positive one."""
    k = next((k for k, loop in enumerate(dep.loops) if loop in names), len(dep.loops))
    return leading_sign(dep.distance[:k]) == 1


def _violates_at_level(dep: Dependence, loop_name: str) -> bool:
    """Could this dependence be carried by `loop_name`?  Not outside the
    loop, nor where it is carried further out or its entries down to this
    level are 0; an unknown or negative entry that leads is played safe."""
    if loop_name not in dep.loops:
        return False
    k = dep.loops.index(loop_name)
    return leading_sign(dep.distance[:k]) != 1 and leading_sign(dep.distance[:k + 1]) != 0


def _judge_deps(depset: DependenceSet, violates) -> Verdict:
    """Invalid at the first violated dependence on definitely-shared storage;
    otherwise valid with a check of every violated may-alias pair."""
    rtc = []
    for dep in depset.deps:
        if violates(dep):
            if dep.alias is None:
                return Verdict(INVALID, witness=dep)
            rtc.append(dep.alias)
    return _rtc_verdict(rtc)


def judge_level_conservative(depset: DependenceSet, loop_name: str) -> Verdict:
    """Conservative verdict for order-changing single-level transforms
    (reverse, stripe-mine, parallel): no dependence may be carried here."""
    return _judge_deps(depset, lambda dep: _violates_at_level(dep, loop_name))


def judge_permutation_conservative(depset: DependenceSet, new_order: list[str]) -> Verdict:
    """Interchange: permuted distance vectors must stay lexicographically
    non-negative; unknown entries are assumed hostile."""
    band = set(new_order)

    def violates(dep):
        if _carried_outside(dep, band) or not band <= set(dep.loops):
            # statements not nested under the whole band keep their order
            return False
        comp = dict(zip(dep.loops, dep.distance))
        return leading_sign([comp[l] for l in _permute_loops(dep.loops, new_order)]) in (None, -1)

    return _judge_deps(depset, violates)


def _permute_loops(loops: tuple[str, ...], new_order: list[str]) -> list[str]:
    band_positions = [k for k, l in enumerate(loops) if l in set(new_order)]
    out = list(loops)
    for pos, name in zip(band_positions, new_order):
        out[pos] = name
    return out


def judge_band_nonneg_conservative(depset: DependenceSet, band: list[str]) -> Verdict:
    """Tiling a band is safe when every dependence not carried outside has
    fixed non-negative components across the whole band."""
    bandset = set(band)

    def violates(dep):
        if _carried_outside(dep, bandset):
            return False
        comp = dict(zip(dep.loops, dep.distance))
        return any(comp.get(l, 0) is None or comp.get(l, 0) < 0 for l in band)

    return _judge_deps(depset, violates)


def judge_parts_conservative(depset: DependenceSet, part_of: dict[str, int]) -> Verdict:
    """Distribution: no dependence may point from a later part to an earlier
    one (the earlier part's loop will have run to completion first)."""
    return _judge_deps(depset, lambda dep: (dep.src in part_of and dep.snk in part_of
                                            and part_of[dep.src] > part_of[dep.snk]))


def judge_fused_conservative(depset: DependenceSet, loop_of: dict[str, int]) -> Verdict:
    """Fusion: no dependence may join statements of two of the fused loops
    (their distance across the fused loop is not known)."""
    return _judge_deps(depset, lambda dep: (dep.src in loop_of and dep.snk in loop_of
                                            and loop_of[dep.src] != loop_of[dep.snk]))


# ---------------------------------------------------------------------------
# Runtime-check synthesis


def rtc_condition(pairs: tuple[tuple[str, str], ...]) -> Expr:
    conds: list[Expr] = [Call("disjoint", (VarRef(a), VarRef(b))) for a, b in pairs]
    cond = conds[0]
    for c in conds[1:]:
        cond = BinOp("&&", cond, c)
    return cond


def synthesize_rtc(pairs: tuple[tuple[str, str], ...],
                   transformed: list[Stmt], original: list[Stmt]) -> list[Stmt]:
    """Version a region: the transformed code runs only when the involved
    arrays are disjoint, otherwise the original code runs.  With no pairs the
    transformed region is returned unguarded."""
    if not pairs:
        return transformed
    return [IfStmt(rtc_condition(pairs), transformed, original)]

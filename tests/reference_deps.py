"""The dependence oracles the tests check `xform.deps` against.

`reference_enumerate_instances` is the tree walker that `deps`'s closure
compiler replaced: it walks the region's statements and values every
expression with `reference_lang.evaluate` over a dict environment.  It is the
differential reference for `deps.enumerate_instances`, which must give the
same `Enumeration` (`steps` included) or raise the same exception with the
same message.

`brute_force_dependences` is independent of both: it runs the reference
tree walker (`reference_interp`) over the region and compares touched
addresses pairwise over its trace records.  `is_superset`, `covers` and
`dep_signature` compare dependence sets.

`judge_walked` is the exact judge as it was before the kinds stated their
schedules: it reads each instance's place from the candidate's enumerated
instances (`walk_candidate`), and so also sees an instance that the
candidate drops, runs twice or adds.  It is the oracle of the schedules.
`judge_marked` is the exact judge of a `parallel` mark as it was before the
mark was judged by reverse's schedule: no conflicting pair in one execution
of the marked loop may differ in its trip.  It is the oracle of the marks.

`keyed` and `placed_deps` compare a graph carried across a pipeline with a
fresh analysis of the current program: by instance key, which is the same
in every schedule, and by the distance vectors the carried placement gives.
"""

from __future__ import annotations

import dataclasses

from xform.deps import (
    Dependence, DependenceSet, DepsError, Enumeration, Instance, _CapExceeded, _exact_set,
    _reads, _step_budget, _summarize, enumerate_instances,
)
from xform.lang import (
    Assign, Block, EvalError, ForLoop, IfStmt, Program, Stmt, WhileLoop, flat_index, iter_stmts,
)
from xform.legality import ALWAYS_VALID, INVALID, Verdict, _pair_to_dep, _rtc_verdict

import reference_interp
from reference_lang import evaluate


def reference_enumerate_instances(program: Program, scope: list[Stmt],
                                  max_instances: int = 4096) -> Enumeration:
    """Walk the region's full iteration space without touching memory.

    Raises DepsError on while-loops, EvalError when anything depends on
    memory or opaque params (or has no int64 value), _CapExceeded past the
    instance cap or past `_step_budget(max_instances)` loop iterations.
    """
    env = program.param_values(include_opaque=False)
    dims = {a.name: a.dims for a in program.arrays}
    reads = {id(s): _reads(s) for s in iter_stmts(scope) if isinstance(s, Assign)}
    out = Enumeration()
    stack: list[tuple[str, int, int]] = []
    steps = [0]
    budget = _step_budget(max_instances)

    def addr_of(array, index):
        return (array, flat_index(array, dims[array], [evaluate(i, env) for i in index]))

    def walk(stmts: list[Stmt]):
        for s in stmts:
            if isinstance(s, Assign):
                acc = [addr_of(r.array, r.index) for r in reads[id(s)]]
                waddr = addr_of(s.array, s.index)
                if s.op == "+=":
                    acc.append(waddr)
                if len(out) >= max_instances:
                    raise _CapExceeded()
                orig = tuple((n, evaluate(e, env)) for n, e in s.orig_coords)
                out.append(Instance(
                    len(out), s.stmt_id, orig,
                    tuple(n for n, _, _ in stack),
                    tuple(t for _, _, t in stack),
                    frozenset(acc), frozenset((waddr,)), (s.stmt_id, orig)))
            elif isinstance(s, ForLoop):
                lb = evaluate(s.lower, env)
                ub = evaluate(s.upper, env)
                saved = env.get(s.var)
                trip = 0
                for v in range(lb, ub, s.step) if ub > lb else []:
                    steps[0] += 1
                    if steps[0] > budget:
                        raise _CapExceeded()
                    env[s.var] = v
                    stack.append((s.name, v, trip))
                    walk(s.body)
                    stack.pop()
                    trip += 1
                if saved is None:
                    env.pop(s.var, None)
                else:
                    env[s.var] = saved
            elif isinstance(s, WhileLoop):
                raise DepsError("while-loop in analyzed region")
            elif isinstance(s, IfStmt):
                if evaluate(s.cond, env) != 0:
                    walk(s.then_body)
                elif s.else_body is not None:
                    walk(s.else_body)
            elif isinstance(s, Block):
                walk(s.body)

    walk(scope)
    out.steps = steps[0]
    return out


def brute_force_dependences(program: Program, scope, cap: int = 10**5) -> DependenceSet:
    """Oracle: run the reference interpreter over the region and compare
    every pair of trace records.  Exact by construction; capped at `cap`
    instances."""
    stmts = scope if isinstance(scope, list) else [scope]
    for inner in iter_stmts(stmts):
        if isinstance(inner, WhileLoop):
            raise DepsError("while-loop in analyzed region")
    sub = Program(program.arrays, program.aliases, program.params, stmts)
    _, trace = reference_interp.run(sub, seed=0, step_budget=10 * cap + 1000)
    if len(trace) > cap:
        raise DepsError(f"region exceeds the oracle cap of {cap} instances")
    instances = []
    for k, r in enumerate(trace):
        instances.append(Instance(k, r.stmt, r.ivec, r.cur_loops, r.cur_logical,
                                  frozenset(r.reads), frozenset(r.writes), (r.stmt, r.ivec)))
    return _exact_set(program, instances)


def covers(general: Dependence, specific: Dependence) -> bool:
    """Does a (possibly wildcarded) dependence subsume an exact one?"""
    if (general.src, general.snk, general.kind) != (specific.src, specific.snk, specific.kind):
        return False
    if general.loops != specific.loops:
        return False
    return all(g is None or g == s for g, s in zip(general.distance, specific.distance))


def is_superset(general: DependenceSet, specific: DependenceSet) -> bool:
    return all(any(covers(g, s) for g in general.deps) for s in specific.deps)


def dep_signature(ds: DependenceSet) -> frozenset:
    return frozenset((d.src, d.snk, d.kind, d.loops, d.distance, d.alias) for d in ds.deps)


def walk_candidate(candidate: Program, scope: list[Stmt]):
    """The candidate region's instances in execution order, or None where the
    walk faults (the step then goes to the kind's conservative rule).  The
    cap is far above any region the tests judge exactly, so a walk never
    stops at it."""
    try:
        return enumerate_instances(candidate, scope, 10**6)
    except (EvalError, _CapExceeded):
        return None


def keyed(ds: DependenceSet):
    """The linear, full and alias pairs of an exact set, by instance key."""
    key = [inst.key for inst in ds.instances]
    return ({(key[i], key[j], kind) for i, j, kind in ds.pairs},
            {(key[i], key[j], kind) for i, j, kind in ds.full_pairs},
            {(key[i], key[j], kind, pair) for i, j, kind, pair in ds.alias_pairs})


def placed_deps(ds: DependenceSet, placement: list[tuple]) -> set:
    """The distance vectors of an exact set with each instance's loops and
    trips where `placement` (loop names, trips, time) puts it."""
    insts = [dataclasses.replace(inst, loops=loops, logical=logical)
             for inst, (loops, logical, _) in zip(ds.instances, placement)]
    return set(_summarize(insts, ds.full_pairs, ds.alias_pairs))


def judge_walked(depset: DependenceSet, cand_instances: list[Instance]) -> Verdict:
    """The candidate must run each instance of the region exactly once and
    keep every edge of `depset.pairs` in order; a failed check is repeated on
    `depset.full_pairs` for the witness."""
    positions = {inst.key: inst.pos for inst in cand_instances}
    verdict = _judge_walked(depset, depset.pairs, cand_instances, positions)
    if verdict.kind != ALWAYS_VALID:
        verdict = _judge_walked(depset, depset.full_pairs, cand_instances, positions)
    return verdict


def _judge_walked(depset: DependenceSet, pairs, cand_instances: list[Instance],
                  positions: dict) -> Verdict:
    instances = depset.instances
    new = [positions.get(inst.key) for inst in instances]  # candidate position, or None
    for (i, j, kind) in pairs:
        pa, pb = new[i], new[j]
        if pa is None or pb is None:
            return Verdict(INVALID, f"instance of {instances[i if pa is None else j].stmt} "
                                    "disappears from the schedule")
        if pa > pb:
            return Verdict(INVALID, witness=_pair_to_dep(instances, i, j, kind))
    mismatch = _schedule_mismatch(instances, cand_instances, positions, new)
    if mismatch:
        return Verdict(INVALID, mismatch)
    return _rtc_verdict(pair for (i, j, kind, pair) in depset.alias_pairs if new[i] > new[j])


def _schedule_mismatch(instances: list[Instance], cand_instances: list[Instance],
                       positions: dict, new: list) -> str:
    """Why the candidate does not run each instance exactly once, or ''."""
    if None in new:
        return f"instance of {instances[new.index(None)].stmt} disappears from the schedule"
    if len(positions) != len(instances):
        keys = {inst.key for inst in instances}
        extra = next(c for c in cand_instances if c.key not in keys)
        return f"instance of {extra.stmt} is not in the original schedule"
    if len(cand_instances) != len(positions):  # some key repeats
        for c in cand_instances:
            if positions[c.key] != c.pos:
                return f"instance of {c.stmt} runs more than once"
    return ""


def judge_marked(depset: DependenceSet, loop_name: str) -> Verdict:
    """A marked loop may run its iterations in any order: no conflicting pair
    in one execution of it may differ in its trip count.  This is checked on
    all pairs, not on the linear edges: being carried is not transitive, so a
    chain of edges none of which is carried can join two instances that are."""
    instances = depset.instances

    def carried(i, j):
        a, b = instances[i], instances[j]
        if loop_name not in a.loops or loop_name not in b.loops:
            return False
        ka = a.loops.index(loop_name)
        kb = b.loops.index(loop_name)
        if a.loops[:ka + 1] != b.loops[:kb + 1] or a.logical[:ka] != b.logical[:kb]:
            return False
        return a.logical[ka] != b.logical[kb]

    for (i, j, kind) in depset.full_pairs:
        if carried(i, j):
            return Verdict(INVALID, witness=_pair_to_dep(instances, i, j, kind))
    return _rtc_verdict(pair for (i, j, kind, pair) in depset.alias_pairs if carried(i, j))

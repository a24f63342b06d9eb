"""The dependence oracles the tests check `xform.deps` against.

`reference_enumerate_instances` is the tree walker that `deps`'s closure
compiler replaced: it walks the region's statements one instance at a time
and values every expression with `reference_lang.evaluate` over a dict
environment, keeping each instance's reads and writes (`Walked`).  It is
the differential reference for `deps.enumerate_instances`, which must give
the same instances, `steps` and access table (`table`, the view both share)
or raise the same exception with the same message.

`reference_graph` is the graph builder that `deps` replaced by one sort of
each array's access table: per address, every instance's accesses in
execution order (`_accesses_by_address`), then the linear, full and
may-alias pairs built from those per-instance sets.  It is the oracle of
the pairs `deps` builds from the table.

`brute_force_dependences` is independent of both enumerators: it runs the
reference tree walker (`reference_interp`) over the region and compares
touched addresses pairwise over its trace records, with `reference_graph`.
`is_superset`, `covers` and `dep_signature` compare dependence sets.

`judge_walked` is the exact judge as it was before the kinds stated their
schedules: it reads each instance's place from the candidate's enumerated
instances (`walk_candidate`), and so also sees an instance that the
candidate drops, runs twice or adds.  It is the oracle of the schedules.
`judge_marked` is the exact judge of a `parallel` mark as it was before the
mark was judged by reverse's schedule: no conflicting pair in one execution
of the marked loop may differ in its trip.  It is the oracle of the marks.

`lex_nonneg`, `prefix_definitely_carried_outside`, `violates_at_level`,
`violates_permutation` and `violates_band` are the conservative rules' scans
of a distance vector as they were before `deps.leading_sign` stated the
reading of its first decisive entry once.  With `legality._judge_deps` they
are the oracle of the conservative judges.

`keyed` and `placed_deps` compare a graph carried across a pipeline with a
fresh analysis of the current program: by instance key, which is the same
in every schedule, and by the distance vectors the carried placement gives.
`rows` is the one per-instance view of a placement: `(loop names, trips,
time)` per instance, in the order of enumeration.

`reference_placer` is the placer as it was before `schedules` rewrote a
class of instances by columns: one call of the kind's per-instance
`rewrite` per instance, with its placement in `rows` form.  It is the
oracle of the columnar placer, which must give the same rows at every step.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter, floordiv, itemgetter, mod

from xform import schedules
from xform.deps import (
    Dependence, DependenceSet, DepsError, Enumeration, Instance, _CapExceeded, _pair_kind,
    _reads, _step_budget, _summarize, enumerate_instances,
)
from xform.lang import (
    Assign, EvalError, ForLoop, IfStmt, Program, Stmt, WhileLoop, flat_index, iter_stmts,
)
from xform.legality import (
    ALWAYS_VALID, INVALID, Verdict, _pair_to_dep, _permute_loops, _rtc_verdict,
)

import reference_interp
from reference_lang import evaluate


class Walked(list):
    """Instances in execution order, with each one's (reads, writes) in
    `accesses`, as sets of (array, element number), and `steps`."""
    steps = 0

    def __init__(self):
        super().__init__()
        self.accesses: list[tuple[frozenset, frozenset]] = []


def reference_enumerate_instances(program: Program, scope: list[Stmt],
                                  max_instances: int = 4096) -> Walked:
    """Walk the region's full iteration space without touching memory.

    Raises DepsError on while-loops, EvalError when anything depends on
    memory or opaque params (or has no int64 value), _CapExceeded past the
    instance cap or past `_step_budget(max_instances)` loop iterations.
    """
    env = program.param_values(include_opaque=False)
    dims = {a.name: a.dims for a in program.arrays}
    reads = {id(s): _reads(s) for s in iter_stmts(scope) if isinstance(s, Assign)}
    out = Walked()
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
                    tuple(t for _, _, t in stack), (s.stmt_id, orig)))
                out.accesses.append((frozenset(acc), frozenset((waddr,))))
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

    walk(scope)
    out.steps = steps[0]
    return out


def table(program: Program, scope: list[Stmt], out) -> dict:
    """The access table of an enumeration, or of a reference walk's
    per-instance accesses: per array that `scope` writes or a may-alias pair
    names, its accesses as a sorted list of (element number,
    `2 * position + is_write`) without repeats."""
    if isinstance(out, Enumeration):
        return {a: sorted(set(zip(*fc))) for a, fc in out.accesses.items()}
    recorded = {s.array for s in iter_stmts(scope) if isinstance(s, Assign)}
    recorded.update(a for al in program.aliases for a in (al.first, al.second))
    entries: dict = {a: set() for a in recorded}
    for inst, (reads, writes) in zip(out, out.accesses):
        for is_write, addrs in ((0, reads), (1, writes)):
            for array, flat in addrs:
                if array in entries:
                    entries[array].add((flat, 2 * inst.pos + is_write))
    return {a: sorted(entries[a]) for a in sorted(entries)}


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
    walked = Walked()
    for k, r in enumerate(trace):
        walked.append(Instance(k, r.stmt, r.ivec, r.cur_loops, r.cur_logical, (r.stmt, r.ivec)))
        walked.accesses.append((frozenset(r.reads), frozenset(r.writes)))
    return reference_graph(program, walked)


# the per-instance graph builder ---------------------------------------------


def reference_graph(program: Program, walked: Walked) -> DependenceSet:
    """The exact set of a walk, built per instance as before `deps` built it
    from one sort of each array's accesses."""
    ds = DependenceSet(True, walked, _linear_pairs(walked), _alias_pairs(program, walked))
    ds.full_pairs = _all_pairs(walked)
    return ds


def _accesses_by_address(walked: Walked) -> dict:
    """Per address, its accesses (pos, is_write) in execution order; an
    instance reads an address before it writes it."""
    buckets: dict = {}
    for inst, (reads, writes) in zip(walked, walked.accesses):
        for addr in reads:
            buckets.setdefault(addr, []).append((inst.pos, False))
        for addr in writes:
            buckets.setdefault(addr, []).append((inst.pos, True))
    return buckets


def _all_pairs(walked: Walked) -> list[tuple[int, int, str]]:
    """Every pair of instances that touch one address, at least one writing."""
    pairs = set()
    for accesses in _accesses_by_address(walked).values():
        if not any(w for _, w in accesses):
            continue
        for (p1, w1) in accesses:
            for (p2, w2) in accesses:
                if p1 < p2 and (w1 or w2):
                    pairs.add((p1, p2, _pair_kind(w1, w2)))
    return sorted(pairs)


def _linear_pairs(walked: Walked) -> list[tuple[int, int, str]]:
    """The write-separated adjacent pairs: a chain of them joins every pair
    `_all_pairs` lists, and there are at most two per access."""
    pairs = []
    for accesses in _accesses_by_address(walked).values():
        last_write = None
        reads: list[int] = []  # since last_write
        for pos, is_write in accesses:
            if is_write:
                pairs.extend((r, pos, "anti") for r in reads if r != pos)
                if last_write is not None:
                    pairs.append((last_write, pos, "output"))
                last_write, reads = pos, []
            else:
                if last_write is not None:
                    pairs.append((last_write, pos, "flow"))
                reads.append(pos)
    return pairs


def _alias_pairs(program: Program, walked: Walked):
    """Every may-alias pair: each access to one declared array against each
    access to the other, at least one writing."""
    def touches(array):  # (pos, writes it) of each instance accessing `array`
        out = []
        for inst, (reads, writes) in zip(walked, walked.accesses):
            written = any(arr == array for arr, _ in writes)
            if written or any(arr == array for arr, _ in reads):
                out.append((inst.pos, written))
        return out

    alias_pairs = set()
    for al in program.aliases:
        a, b = al.first, al.second
        touch_a, touch_b = touches(a), touches(b)
        if len(touch_a) * len(touch_b) > 4_000_000:
            raise _CapExceeded()
        for (pa, wa) in touch_a:
            for (pb, wb) in touch_b:
                if pa == pb:
                    continue
                if not (wa or wb):
                    continue
                i, j = (pa, pb) if pa < pb else (pb, pa)
                wi, wj = (wa, wb) if pa < pb else (wb, wa)
                alias_pairs.add((i, j, _pair_kind(wi, wj), (a, b)))
    return sorted(alias_pairs)


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


def rows(placement: list[tuple], n: int) -> list[tuple]:
    """A placement of `n` instances per instance: (loop names, trips, time)
    in the order of their enumeration."""
    out = [None] * n
    for pos, loops, _, cols, times in placement:
        for k, (p, time) in enumerate(zip(pos, times)):
            out[p] = loops, tuple(col[k] for col in cols), time
    return out


def placed_deps(ds: DependenceSet, placed: list[tuple]) -> set:
    """The distance vectors of an exact set with each instance's loops and
    trips where `placed` (per instance, as `rows` gives) puts it."""
    insts = [dataclasses.replace(inst, loops=loops, logical=logical)
             for inst, (loops, logical, _) in zip(ds.instances, placed)]
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


def lex_nonneg(distance: tuple[object, ...]) -> bool:
    for d in distance:
        if d is None:
            return True  # could be positive
        if d > 0:
            return True
        if d < 0:
            return False
    return True


def prefix_definitely_carried_outside(dep: Dependence, names: set[str]) -> bool:
    """True when the dependence is certainly carried by a loop above the
    region of interest (first non-zero component is a fixed positive entry
    on a loop not in `names`)."""
    for loop, d in zip(dep.loops, dep.distance):
        if loop in names:
            return False
        if d is None:
            return False
        if d > 0:
            return True
        if d < 0:
            return False
    return False


def violates_at_level(dep: Dependence, loop_name: str) -> bool:
    """Could this dependence be carried by `loop_name`?"""
    for loop, d in zip(dep.loops, dep.distance):
        if loop == loop_name:
            return d is None or d != 0
        if d is None:
            return True  # unknown outer carrier: play safe
        if d > 0:
            return False  # carried further out; this level's order is free
        if d < 0:
            return True
    return False  # loop not among the common loops: instances coincide there


def violates_permutation(dep: Dependence, new_order: list[str]) -> bool:
    """Interchange: may the permuted vector lead with a negative entry?"""
    band = set(new_order)
    if prefix_definitely_carried_outside(dep, band):
        return False
    if not band <= set(dep.loops):
        return False
    comp = dict(zip(dep.loops, dep.distance))
    for l in _permute_loops(dep.loops, new_order):
        if comp[l] is None or comp[l] < 0:
            return True
        if comp[l] > 0:
            return False
    return False


def violates_band(dep: Dependence, band: list[str]) -> bool:
    """Tiling: may an entry of the band be negative, where the dependence
    is not carried outside it?"""
    if prefix_definitely_carried_outside(dep, set(band)):
        return False
    comp = dict(zip(dep.loops, dep.distance))
    return any(comp.get(l, 0) is None or comp.get(l, 0) < 0 for l in band)


# the per-instance placer ----------------------------------------------------


def reference_placer(schedule, meta: dict, outer: list, params: dict):
    """The columnar `schedule` of `schedules` as one per-instance rewrite
    per instance: a function of the instances and their current placement
    in `rows` form (None before any step), giving their rows in the
    candidate."""
    depth = len(outer)
    heads, rewrite = PER_INSTANCE[schedule](meta, depth, schedules._outer_values(outer, params))

    def place(instances, placement=None) -> list[tuple]:
        first: dict = {}  # outer trips -> the current time of a member of that execution
        out = []
        for inst, (loops, logical, time) in zip(instances, placement or map(_where, instances)):
            if len(loops) > depth and loops[depth] in heads:
                rep = first.setdefault(logical[:depth], time)
                new_loops, new_logical, key = rewrite(loops, logical, inst.stmt)
                out.append((new_loops, new_logical, (rep, *key, time)))
            else:
                out.append((loops, logical, (time,)))
        return out
    return place


_where = attrgetter("loops", "logical", "pos")  # an instance's placement before any step


def _renamer(depth: int, width: int, names):
    """Loop names with the `width` names at `depth` replaced by `names`."""
    names = tuple(names)
    return lambda loops: loops[:depth] + names + loops[depth + width:]


def _tile(meta, depth, values):
    sizes, regions, cuts = meta["sizes"], meta["regions"], meta["cuts"]
    k = len(sizes)
    renames = {mask: _renamer(depth, k, f + p) for mask, (f, p) in regions.items()}
    peeled = [(d, c) for d, c in enumerate(cuts) if c is not None]

    def rewrite(loops, logical, stmt):
        band = logical[depth:depth + k]
        if not peeled:
            floors, points = tuple(map(floordiv, band, sizes)), tuple(map(mod, band, sizes))
            return (renames[0](loops), logical[:depth] + floors + points + logical[depth + k:],
                    (0, *floors, *points))
        env = values(logical[:depth])
        w = {d: c if type(c) is int else schedules._trips(*c, env) for d, c in peeled}
        mask = sum(1 << d for d in w if band[d] >= w[d])
        floors = tuple([t // z for d, (t, z) in enumerate(zip(band, sizes))
                        if not mask >> d & 1])
        points = tuple([t - w[d] if mask >> d & 1 else t % z
                        for d, (t, z) in enumerate(zip(band, sizes))])
        return (renames[mask](loops),
                logical[:depth] + floors + points + logical[depth + k:], (mask, *floors, *points))
    return meta["band"][:1], rewrite


def _stripe(meta, depth, values):
    stride, rename = meta["stride"], _renamer(depth, 1, meta["ids"])

    def rewrite(loops, logical, stmt):
        here = (logical[depth] % stride, logical[depth] // stride)
        return rename(loops), logical[:depth] + here + logical[depth + 1:], here
    return (meta["level"],), rewrite


def _jam(meta, depth, values):
    factor, inner = meta["factor"], depth + len(meta["jam_order"])

    def rewrite(loops, logical, stmt):
        q, copy = divmod(logical[depth], factor)
        return (loops, logical[:depth] + (q,) + logical[depth + 1:],
                (q, *logical[depth + 1:inner], copy))
    return meta["jam_order"][-1:], rewrite


def _interchange(meta, depth, values):
    band, order = meta["band"], meta["order"]
    k, rename = len(band), _renamer(depth, len(band), order)
    pick = itemgetter(*[depth + band.index(name) for name in order])  # k > 1: a tuple

    def rewrite(loops, logical, stmt):
        moved = pick(logical)
        return rename(loops), logical[:depth] + moved + logical[depth + k:], moved
    return band[:1], rewrite


def _distribute(meta, depth, values):
    part_of = meta["part_of"]
    renames = [_renamer(depth, 1, (name,)) for name in meta["names"]]

    def rewrite(loops, logical, stmt):
        part = part_of[stmt]
        return renames[part](loops), logical, (part, logical[depth])
    return (meta["level"],), rewrite


def _fuse(meta, depth, values):
    index = {name: i for i, name in enumerate(meta["names"])}
    rename = _renamer(depth, 1, (meta["fused_id"],))

    def rewrite(loops, logical, stmt):
        return rename(loops), logical, (logical[depth], index[loops[depth]])
    return tuple(meta["names"]), rewrite


def _reverse(meta, depth, values):
    trips, (lower, upper, step) = meta["trips"], meta["bounds"]

    def rewrite(loops, logical, stmt):
        t = logical[depth]
        n = trips
        if n is None:
            n = schedules._trips(lower, upper, step, values(logical[:depth]))
        return loops, logical[:depth] + (n - 1 - t,) + logical[depth + 1:], (-t,)
    return (meta["level"],), rewrite


PER_INSTANCE = {
    schedules.tile_schedule: _tile, schedules.stripe_schedule: _stripe,
    schedules.jam_schedule: _jam, schedules.interchange_schedule: _interchange,
    schedules.distribute_schedule: _distribute, schedules.fuse_schedule: _fuse,
    schedules.reverse_schedule: _reverse,
}

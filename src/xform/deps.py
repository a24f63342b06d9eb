"""Dependence analysis over affine array accesses.

Two routes, matching how much the program lets us see:

* exact: when every bound, guard, and subscript in the analyzed region is a
  pure function of loop variables and non-opaque params, and the region's
  instance count fits the enumeration cap, walk the whole iteration space
  abstractly and build the region's conflict graph.  `lang.evaluate` runs
  with no memory there; its `EvalError` message becomes the `reason`.

* conservative: otherwise fall back to ZIV and strong-SIV subscript tests per
  dimension; anything those cannot analyze is assumed dependent with unknown
  (`*`) distance entries.  Accesses to declared may-alias pairs are kept in a
  separate rtc-eligible bucket rather than folded into the static set.

The exact conflict graph (`DependenceSet.pairs`) is linear in the number of
accesses: per address, walked in execution order, each write is joined to
the reads since the previous write (anti), each of those reads to the write
before it (flow), and consecutive writes to each other (output).  Every
conflicting pair is joined by a chain of these edges, so a schedule that runs
each instance once keeps all conflicting pairs in order exactly when it keeps
the edges in order.  The distance vectors (`DependenceSet.deps`) are
summarized on first use from all conflicting pairs (`full_pairs`), so
`--deps` and the conservative rules read the same data however the set was
built.  Instance keys and accessed addresses do not change under a
transformation, so once a candidate has kept every edge in order, `reorder`
carries the graph over to it without building it again.  Pairs of declared
may-alias arrays stay bipartite (every access of one against every access of
the other), capped at 4M pairs.

Distance vectors are in logical iterations (trip counts), source before sink,
so they are lexicographically non-negative for the original program.

`brute_force_dependences` is the independent oracle: it runs the real
interpreter and compares touched addresses pairwise over the trace; the
enumerator walks statements itself to stay independent of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import interp
from .lang import (
    Assign, BinOp, Block, EvalError, Expr, ForLoop, IfStmt, IntLit, Program, Stmt,
    VarRef, WhileLoop, array_reads, child_bodies, evaluate, flat_index, iter_loops,
    iter_stmts, simplify, subst,
)


class DepsError(Exception):
    """Analysis cannot proceed at all (e.g. a while-loop in the region)."""


class _CapExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Result types


@dataclass(frozen=True)
class Dependence:
    src: str                         # statement id
    snk: str
    kind: str                        # flow | anti | output
    loops: tuple[str, ...]           # common enclosing loops, outermost first
    distance: tuple[object, ...]     # int per loop, or None for '*'
    alias: tuple[str, str] | None = None

    def pretty(self) -> str:
        vec = ",".join("*" if d is None else str(d) for d in self.distance)
        tag = f" alias({self.alias[0]},{self.alias[1]})" if self.alias else ""
        return f"{self.kind} {self.src}->{self.snk} ({vec}){tag}"


@dataclass
class Instance:
    pos: int
    stmt: str
    orig: tuple[tuple[str, int], ...]
    loops: tuple[str, ...]
    logical: tuple[int, ...]
    reads: frozenset
    writes: frozenset
    key: tuple                       # (stmt, orig): the same in every schedule


class Enumeration(list):
    """Instances in execution order; `steps` counts the loop iterations walked."""
    steps = 0


def _step_budget(max_instances: int) -> int:
    """Loop iterations an enumeration capped at `max_instances` may walk."""
    return 100 * max_instances + 10000


@dataclass
class DependenceSet:
    exact: bool
    loops: tuple[str, ...]
    instances: list[Instance] | None = None
    pairs: list[tuple[int, int, str]] = field(default_factory=list)  # linear edges
    alias_pairs: list[tuple[int, int, str, tuple[str, str]]] = field(default_factory=list)
    reason: str = ""

    @cached_property
    def full_pairs(self) -> list[tuple[int, int, str]]:
        """Every conflicting static pair, sorted (exact sets only)."""
        return _all_pairs(self.instances)

    @cached_property
    def deps(self) -> list[Dependence]:
        """Distance vectors; conservative sets assign them at construction."""
        return _summarize(self.instances, self.full_pairs, self.alias_pairs)

    def pretty(self) -> str:
        mode = "exact" if self.exact else "conservative"
        if not self.deps:
            return f"(no dependences) {mode}"
        return "\n".join(f"{d.pretty()} {mode}" for d in self.deps)


def covers(general: Dependence, specific: Dependence) -> bool:
    """Does a (possibly wildcarded) dependence subsume an exact one?"""
    if (general.src, general.snk, general.kind) != (specific.src, specific.snk, specific.kind):
        return False
    if general.loops != specific.loops:
        return False
    return all(g is None or g == s for g, s in zip(general.distance, specific.distance))


def is_superset(general: "DependenceSet", specific: "DependenceSet") -> bool:
    return all(any(covers(g, s) for g in general.deps) for s in specific.deps)


def lex_nonneg(distance: tuple[object, ...]) -> bool:
    for d in distance:
        if d is None:
            return True  # could be positive
        if d > 0:
            return True
        if d < 0:
            return False
    return True


def common_loops(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The loops two accesses share: the common prefix of their loop names."""
    k = 0
    for na, nb in zip(a, b):
        if na != nb:
            break
        k += 1
    return a[:k]


# ---------------------------------------------------------------------------
# Abstract enumeration (memory-free)


def _reads(s: Assign) -> list:
    """The array reads in an assignment's subscripts and value."""
    return [r for e in (*s.index, s.value) for r in array_reads(e)]


def enumerate_instances(program: Program, scope: list[Stmt],
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


def positions_by_key(instances: list[Instance]) -> dict:
    return {inst.key: inst.pos for inst in instances}


def _scope_loops(scope: list[Stmt]) -> tuple[str, ...]:
    return tuple(l.name for l in iter_loops(scope) if isinstance(l, ForLoop))


def _pair_kind(first_is_write: bool, second_is_write: bool) -> str:
    if first_is_write and second_is_write:
        return "output"
    return "flow" if first_is_write else "anti"


def _summarize(instances: list[Instance], pairs, alias_pairs) -> list[Dependence]:
    seen = {}
    for entry in pairs:
        i, j, kind = entry
        a, b = instances[i], instances[j]
        common = common_loops(a.loops, b.loops)
        dist = tuple(b.logical[x] - a.logical[x] for x in range(len(common)))
        if a.stmt == b.stmt and all(d == 0 for d in dist):
            continue  # degenerate same-instance pairing
        seen.setdefault((a.stmt, b.stmt, kind, common, dist, None), None)
    for (i, j, kind, pair) in alias_pairs:
        a, b = instances[i], instances[j]
        common = common_loops(a.loops, b.loops)
        seen.setdefault((a.stmt, b.stmt, kind, common, (None,) * len(common), pair), None)
    return [Dependence(*key) for key in seen]


def _accesses_by_address(instances: list[Instance]) -> dict:
    """Per address, its accesses (pos, is_write) in execution order; an
    instance reads an address before it writes it."""
    buckets: dict = {}
    for inst in instances:
        for addr in inst.reads:
            buckets.setdefault(addr, []).append((inst.pos, False))
        for addr in inst.writes:
            buckets.setdefault(addr, []).append((inst.pos, True))
    return buckets


def _all_pairs(instances: list[Instance]) -> list[tuple[int, int, str]]:
    """Every pair of instances that touch one address, at least one writing."""
    pairs = set()
    for accesses in _accesses_by_address(instances).values():
        if not any(w for _, w in accesses):
            continue
        for (p1, w1) in accesses:
            for (p2, w2) in accesses:
                if p1 < p2 and (w1 or w2):
                    pairs.add((p1, p2, _pair_kind(w1, w2)))
    return sorted(pairs)


def _linear_pairs(instances: list[Instance]) -> list[tuple[int, int, str]]:
    """The write-separated adjacent pairs: a chain of them joins every pair
    `_all_pairs` lists, and there are at most two per access."""
    pairs = []
    for accesses in _accesses_by_address(instances).values():
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


def _alias_pairs(program: Program, instances: list[Instance]):
    """Every may-alias pair: each access to one declared array against each
    access to the other, at least one writing."""
    def touches(array):  # (pos, writes it) of each instance accessing `array`
        out = []
        for inst in instances:
            written = any(arr == array for arr, _ in inst.writes)
            if written or any(arr == array for arr, _ in inst.reads):
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


def _exact_set(program: Program, instances: list[Instance], stmts: list[Stmt]) -> DependenceSet:
    return DependenceSet(True, _scope_loops(stmts), instances, _linear_pairs(instances),
                         _alias_pairs(program, instances))


def reorder(depset: DependenceSet, instances: Enumeration, stmts: list[Stmt],
            max_enum: int) -> DependenceSet | None:
    """`depset`'s graph over another schedule of the same region, which runs
    each instance once and keeps every edge in order (an exact always-valid
    candidate).  Every address then sees its writes, and the reads between
    two writes, in the same order, so the key-level edges are unchanged.
    None when enumerating `stmts` afresh under `max_enum` would hit a cap,
    so that the next step keeps the route it would take from scratch."""
    if len(instances) > max_enum or instances.steps > _step_budget(max_enum):
        return None
    pos = positions_by_key(instances)
    new = [pos[inst.key] for inst in depset.instances]
    return DependenceSet(True, _scope_loops(stmts), instances,
                         [(new[i], new[j], kind) for i, j, kind in depset.pairs],
                         sorted((new[i], new[j], kind, pair)
                                for i, j, kind, pair in depset.alias_pairs))


# ---------------------------------------------------------------------------
# Conservative subscript tests


@dataclass
class _Ref:
    stmt: str
    pos: int                       # textual preorder position
    array: str
    index: tuple[Expr, ...]
    write: bool
    loops: tuple[str, ...]         # enclosing for-loop names
    loop_vars: tuple[str, ...]
    steps: tuple[int, ...]
    trips: tuple[object, ...]      # int or None


def _collect_refs(program: Program, scope: list[Stmt]) -> list[_Ref]:
    refs: list[_Ref] = []
    params = program.param_values(include_opaque=False)
    counter = [0]

    def resolve(e: Expr) -> Expr:
        return simplify(subst(e, {k: IntLit(v) for k, v in params.items()}))

    def trips_of(loop: ForLoop) -> object:
        try:
            lb = evaluate(loop.lower, params)
            ub = evaluate(loop.upper, params)
        except EvalError:
            return None
        return max(0, -(-(ub - lb) // loop.step))

    def walk(stmts, loops: tuple):
        for s in stmts:
            if isinstance(s, WhileLoop):
                raise DepsError("while-loop in analyzed region")
            pos = counter[0]  # textual preorder position
            counter[0] += 1
            if isinstance(s, Assign):
                names = tuple(l.name for l in loops)
                lvars = tuple(l.var for l in loops)
                steps = tuple(l.step for l in loops)
                trips = tuple(trips_of(l) for l in loops)
                accesses = [(r.array, r.index, False) for r in _reads(s)]
                if s.op == "+=":
                    accesses.append((s.array, s.index, False))
                accesses.append((s.array, s.index, True))
                for array, index, write in accesses:
                    refs.append(_Ref(s.stmt_id, pos, array, tuple(resolve(x) for x in index),
                                     write, names, lvars, steps, trips))
            for body in child_bodies(s):
                walk(body, loops + (s,) if isinstance(s, ForLoop) else loops)

    walk(scope, ())
    return refs


def _linearize(e: Expr, loop_vars: set[str]):
    """expr -> (coeffs over loop vars, symbolic rest) or None if non-affine."""
    if isinstance(e, IntLit):
        return {}, e
    if isinstance(e, VarRef):
        if e.name in loop_vars:
            return {e.name: 1}, IntLit(0)
        return {}, e
    if isinstance(e, BinOp):
        if e.op in ("+", "-"):
            l = _linearize(e.lhs, loop_vars)
            r = _linearize(e.rhs, loop_vars)
            if l is None or r is None:
                return None
            lc, lrest = l
            rc, rrest = r
            sign = 1 if e.op == "+" else -1
            coeffs = dict(lc)
            for v, c in rc.items():
                coeffs[v] = coeffs.get(v, 0) + sign * c
            return coeffs, simplify(BinOp(e.op, lrest, rrest))
        if e.op == "*":
            for a, b in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                sa = simplify(a)
                if isinstance(sa, IntLit):
                    lb = _linearize(b, loop_vars)
                    if lb is None:
                        return None
                    bc, brest = lb
                    return ({v: c * sa.value for v, c in bc.items()},
                            simplify(BinOp("*", IntLit(sa.value), brest)))
            return None
        return None
    return None


def _conservative_pair(r1: _Ref, r2: _Ref):
    """Analyze one reference pair; returns None if proven independent, else a
    distance constraint {var: int} with an `unknown_vars` set."""
    common_names = common_loops(r1.loops, r2.loops)
    # (name, var1, var2, step, trips)
    common = [(n, r1.loop_vars[k], r2.loop_vars[k], r1.steps[k], r1.trips[k])
              for k, n in enumerate(common_names)]
    # the common-loop level of each variable, in either reference
    var_pos = ({c[1]: k for k, c in enumerate(common)},
               {c[2]: k for k, c in enumerate(common)})
    constraints: dict[int, int] = {}
    unknown = False
    for f1, f2 in zip(r1.index, r2.index):
        lv = set(v for _, v, _, _, _ in common) | set(v2 for _, _, v2, _, _ in common)
        l1 = _linearize(f1, lv)
        l2 = _linearize(f2, lv)
        if l1 is None or l2 is None:
            unknown = True
            continue
        c1, rest1 = l1
        c2, rest2 = l2
        diff_rest = simplify(BinOp("-", rest1, rest2))
        # collect net coefficients per common-loop position (vars may differ
        # textually between the two refs but denote the same loop level)
        net: dict[int | None, list[int]] = {}
        for side, coeffs in enumerate((c1, c2)):
            for v, c in coeffs.items():
                net.setdefault(var_pos[side].get(v), [0, 0])[side] += c
        if None in net:  # a variable of no common loop
            unknown = True
            continue
        involved = [k for k, (a, b) in net.items() if a != 0 or b != 0]
        if not involved:
            # ZIV: constant difference
            if isinstance(diff_rest, IntLit):
                if diff_rest.value != 0:
                    return None  # proven independent
            else:
                unknown = True
            continue
        if len(involved) == 1:
            k = involved[0]
            a1, a2 = net[k]
            if a1 != a2 or a1 == 0:
                unknown = True  # weak SIV; assume dependent
                continue
            if not isinstance(diff_rest, IntLit):
                unknown = True
                continue
            # a*v1 + rest1 = a*v2 + rest2  =>  v2 - v1 = (rest1-rest2)/a
            delta_num = diff_rest.value
            if delta_num % a1 != 0:
                return None
            phys = delta_num // a1
            step = common[k][3]
            if phys % step != 0:
                return None
            logical = phys // step
            trips = common[k][4]
            if trips is not None and abs(logical) >= trips > 0:
                return None
            if trips == 0:
                return None
            if k in constraints and constraints[k] != logical:
                return None
            constraints[k] = logical
            continue
        unknown = True  # coupled subscripts (MIV): assume dependent
    distance = tuple(constraints.get(k) for k in range(len(common)))
    return common_names, distance, unknown


def _neg(distance):
    return tuple(None if d is None else -d for d in distance)


def conservative_dependences(program: Program, scope: list[Stmt], reason: str) -> DependenceSet:
    refs = _collect_refs(program, scope)
    declared = {(a.first, a.second) for a in program.aliases}
    alias_decl = declared | {(b, a) for a, b in declared}
    seen = {}

    def emit(src: _Ref, snk: _Ref, names, dist, alias):
        if src.stmt == snk.stmt and all(d == 0 for d in dist):
            return
        kind = _pair_kind(src.write, snk.write)
        seen.setdefault((src.stmt, snk.stmt, kind, tuple(names), dist, alias), None)

    for i1, r1 in enumerate(refs):
        for r2 in refs[i1:]:
            same = r1.array == r2.array
            aliased = (r1.array, r2.array) in alias_decl
            if not same and not aliased:
                continue
            if not (r1.write or r2.write):
                continue
            if same:
                res = _conservative_pair(r1, r2)
                if res is None:
                    continue
                names, dist, unknown = res
                if unknown:
                    dist = tuple(None for _ in dist)
                # orient source-before-sink
                if lex_nonneg(dist):
                    if all(d == 0 for d in dist):
                        src, snk = (r1, r2) if r1.pos <= r2.pos else (r2, r1)
                        emit(src, snk, names, dist, None)
                    else:
                        emit(r1, r2, names, dist, None)
                if any(d is None or d != 0 for d in dist) and lex_nonneg(_neg(dist)):
                    emit(r2, r1, names, _neg(dist), None)
            else:
                names = common_loops(r1.loops, r2.loops)
                dist = (None,) * len(names)
                pair = (r1.array, r2.array) if (r1.array, r2.array) in declared else (r2.array, r1.array)
                emit(r1, r2, names, dist, pair)
                emit(r2, r1, names, dist, pair)

    ds = DependenceSet(exact=False, loops=_scope_loops(scope), reason=reason)
    ds.deps = [Dependence(*key) for key in seen]
    return ds


# ---------------------------------------------------------------------------
# Public entry points


def compute_dependences(program: Program, scope, max_enum: int = 4096) -> DependenceSet:
    """Dependences of a region: exact by enumeration when possible, else a
    conservative superset.  `scope` is a loop node or a statement list."""
    stmts = scope if isinstance(scope, list) else [scope]
    try:
        return _exact_set(program, enumerate_instances(program, stmts, max_enum), stmts)
    except _CapExceeded:
        return conservative_dependences(program, stmts, "enumeration cap exceeded")
    except EvalError as e:
        return conservative_dependences(program, stmts, str(e))


def brute_force_dependences(program: Program, scope, cap: int = 10**5) -> DependenceSet:
    """Oracle: run the interpreter over the region and compare every pair of
    trace records.  Exact by construction; capped at `cap` instances."""
    stmts = scope if isinstance(scope, list) else [scope]
    for inner in iter_stmts(stmts):
        if isinstance(inner, WhileLoop):
            raise DepsError("while-loop in analyzed region")
    sub = Program(program.arrays, program.aliases, program.params, stmts)
    _, trace = interp.run(sub, seed=0, record_trace=True, step_budget=10 * cap + 1000)
    if len(trace) > cap:
        raise DepsError(f"region exceeds the oracle cap of {cap} instances")
    instances = []
    for k, r in enumerate(trace):
        instances.append(Instance(k, r.stmt, r.ivec, r.cur_loops, r.cur_logical,
                                  frozenset(r.reads), frozenset(r.writes), (r.stmt, r.ivec)))
    return _exact_set(program, instances, stmts)


def dep_signature(ds: DependenceSet) -> frozenset:
    return frozenset((d.src, d.snk, d.kind, d.loops, d.distance, d.alias) for d in ds.deps)

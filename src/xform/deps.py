"""Dependence analysis over affine array accesses.

Two routes, matching how much the program lets us see:

* exact: when every bound, guard, and subscript in the analyzed region is a
  pure function of loop variables and non-opaque params, and the region's
  instance count fits the enumeration cap, run the whole iteration space
  abstractly and build the region's conflict graph.  The enumerator
  translates the region once into nested closures that fold constants with
  `lang.fold` and keep its checks, with no memory; an `EvalError` message
  becomes the `reason`.
  A region is counted before it is walked: when its instance and iteration
  counts are fixed before it runs (no `while` or `if`, every trip count
  known: the exact counts of `lang.step_counts`) and pass the cap or the
  step budget, it goes conservative at once, with the reason "enumeration
  cap exceeded" even where the walk would have stopped at a fault first.

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
transformation, so once a candidate has kept every edge in order, the graph
is the candidate's too: a pipeline carries it unchanged, in the order of its
first enumeration, with the placement that the steps' schedule maps give:
its instances in classes of one statement under the same loop names, with a
column of trips per loop and a time per instance (`schedules`).
`compute_dependences` is the only source of a graph: a verdict that reads
the instances in the current schedule analyzes the current region afresh.
The candidate is never walked.  Where a walk of it would fault, the step is
judged conservatively instead, and the proof of `lang.step_counts` is the
test of that: the candidate's arithmetic must be inside int64 and free of
zero divisors over the intervals of `lang.interval`.  Pairs of declared
may-alias arrays stay bipartite (every access of one against every access
of the other), capped at 4M pairs.

Distance vectors are in logical iterations (trip counts), source before sink,
so their `leading_sign` (the one reading of a vector's first decisive entry)
is not -1 for the original program.  Both routes de-duplicate with `_unique`.

The oracles the tests check this module against are in `tests/reference_deps.py`:
the tree walker the enumerator replaced, a brute-force analysis that runs
the reference tree-walking interpreter (`tests/reference_interp.py`) and
compares the addresses in its trace records pairwise, and the judge of a
walked candidate that the schedule maps replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .lang import (
    INT64_MAX, INT64_MIN, OPS, ArrayRead, Assign, BinOp, Block, Call, EvalError, Expr,
    ForLoop, IfStmt, IntLit, Program, Stmt, VarRef, WhileLoop, array_reads, child_bodies,
    flat_index, fold, free_vars, gc_paused, int64, interval, simplify, step_counts, subst,
    trip_count,
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


def leading_sign(distance: tuple[object, ...]) -> int | None:
    """The sign of a distance vector's first non-zero entry (1 or -1), None
    where an unknown entry comes first, 0 where every entry is 0.  The only
    reading of a vector's first decisive entry."""
    for d in distance:
        if d is None:
            return None
        if d:
            return 1 if d > 0 else -1
    return 0


def common_loops(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The loops two accesses share: the common prefix of their loop names."""
    k = 0
    for na, nb in zip(a, b):
        if na != nb:
            break
        k += 1
    return a[:k]


def distance(a: Instance, b: Instance) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Two instances' common loops and the trips from `a` to `b` on each."""
    common = common_loops(a.loops, b.loops)
    return common, tuple(b.logical[x] - a.logical[x] for x in range(len(common)))


def _unique(keys) -> list[Dependence]:
    """The dependences of `keys` (the `Dependence` fields in order), each
    once in first-seen order, without a statement's zero-distance pair with
    itself."""
    kept = dict.fromkeys(k for k in keys if k[0] != k[1] or leading_sign(k[4]) != 0)
    return [Dependence(*key) for key in kept]


# ---------------------------------------------------------------------------
# Abstract enumeration (memory-free)


def _reads(s: Assign) -> list:
    """The array reads in an assignment's subscripts and value."""
    return [r for e in (*s.index, s.value) for r in array_reads(e)]


def enumerate_instances(program: Program, scope: list[Stmt],
                        max_instances: int = 4096) -> Enumeration:
    """Run the region's full iteration space without touching memory.

    Raises DepsError on a while-loop it reaches, EvalError when anything
    depends on memory or opaque params (or has no int64 value), _CapExceeded
    past the instance cap or past `_step_budget(max_instances)` loop
    iterations.  Nothing built here is cyclic, so the cyclic GC is paused.
    """
    with gc_paused():
        return _Closures(program, max_instances).run(scope)


class _Closures:
    """A region translated once into nested closures, then run (after Feeley
    & Lapalme, "Using closures for code generation", 1987).

    The loop at nesting depth d keeps its variable in `vals[d]` and its trip
    counter in `trips[d]`; a non-opaque param is a constant.  An operation
    on two constants is folded unless it faults (`lang.fold`); every other
    check runs, in the order of evaluation, only when the closures run.
    """

    def __init__(self, program: Program, max_instances: int):
        self.params = program.param_values(include_opaque=False)
        self.dims = {a.name: a.dims for a in program.arrays}
        self.cap, self.budget = max_instances, _step_budget(max_instances)
        self.vals: list[int] = []
        self.trips: list[int] = []
        self.steps = [0]
        self.out = Enumeration()

    def run(self, scope: list[Stmt]) -> Enumeration:
        self.body(scope, {}, ())()
        self.out.steps = self.steps[0]
        return self.out

    def body(self, stmts: list[Stmt], scope: dict, loops: tuple):
        fns = []  # a loop, not a comprehension: one frame less per nesting level
        for s in stmts:
            fns.append(getattr(self, type(s).__name__)(s, scope, loops))
        if len(fns) == 1:
            return fns[0]

        def seq():
            for f in fns:
                f()
        return seq

    def expr(self, e: Expr, scope: dict):
        """`e` as (source, slot, closure): its value is `source[slot]` when it
        is a constant (a 1-tuple) or a loop variable, else the closure's."""
        t = type(e)
        if t is IntLit:
            return (e.value,), 0, None
        if t is VarRef:
            if e.name in scope:
                return self.vals, scope[e.name], None
            if e.name in self.params:
                return (self.params[e.name],), 0, None
            return _fault(f"unbound variable {e.name!r}")
        if t is ArrayRead:
            return _fault("memory-dependent expression")
        if t is Call and e.func == "disjoint":
            return _fault("alias-binding-dependent expression")
        op, (l, r) = (e.op, (e.lhs, e.rhs)) if t is BinOp else (e.func, e.args)
        (sa, ka, fa), (sb, kb, fb), f = self.expr(l, scope), self.expr(r, scope), OPS[op]
        if type(sa) is type(sb) is tuple:  # both operands constant: fold unless it faults
            v = fold(op, sa[0], sb[0])
            if v is not None:
                return (v,), 0, None
        if op not in ("+", "-", "*", "/"):
            return None, 0, lambda: f(sa[ka] if fa is None else fa(),
                                      sb[kb] if fb is None else fb())

        def checked():
            v = f(sa[ka] if fa is None else fa(), sb[kb] if fb is None else fb())
            return v if INT64_MIN <= v <= INT64_MAX else int64(v)
        return None, 0, checked

    def access(self, array: str, index, scope: dict):
        """A closure giving `(array, flat element number)`: every subscript
        is valued before `flat_index`'s checks, one dimension at a time."""
        dims = self.dims[array]
        leaves = [self.expr(i, scope) for i in index]
        # 2-D addresses are unrolled: all of dgemm's, and dgemm-exact's
        # transform pass takes 1.4x as long through flat_index.
        if len(dims) == len(leaves) == 2:
            ((s0, k0, f0), (s1, k1, f1)), (d0, d1) = leaves, dims

            def address():
                x0 = s0[k0] if f0 is None else f0()
                x1 = s1[k1] if f1 is None else f1()
                if 0 <= x0 < d0 and 0 <= x1 < d1:
                    return (array, x0 * d1 + x1)
                return (array, flat_index(array, dims, (x0, x1)))
            return address
        return lambda: (array, flat_index(array, dims, [s[k] if f is None else f()
                                                        for s, k, f in leaves]))

    # -- statements: each becomes a closure of no arguments

    def Assign(self, s: Assign, scope: dict, loops: tuple):
        addrs = [self.access(r.array, r.index, scope) for r in (*_reads(s), s)]
        coords = [(n, *self.expr(e, scope)) for n, e in s.orig_coords]
        reads_target, sid, depth = s.op == "+=", s.stmt_id, len(loops)
        out, cap, trips = self.out, self.cap, self.trips

        def assign():
            acc = []  # the reads, then the write
            for f in addrs:
                acc.append(f())
            waddr = acc[-1] if reads_target else acc.pop()
            if len(out) >= cap:
                raise _CapExceeded()
            orig = []
            for n, src, k, f in coords:
                orig.append((n, src[k] if f is None else f()))
            orig = tuple(orig)
            out.append(Instance(len(out), sid, orig, loops, tuple(trips[:depth]),
                                frozenset(acc), frozenset((waddr,)), (sid, orig)))
        return assign

    def ForLoop(self, s: ForLoop, scope: dict, loops: tuple):
        lo, hi = _closure(*self.expr(s.lower, scope)), _closure(*self.expr(s.upper, scope))
        depth, step, budget, steps = len(loops), s.step, self.budget, self.steps
        if depth == len(self.vals):
            self.vals.append(0)
            self.trips.append(0)
        vals, trips = self.vals, self.trips
        body = self.body(s.body, {**scope, s.var: depth}, loops + (s.name,))

        def loop():
            lb, ub = lo(), hi()
            for trip, v in enumerate(range(lb, ub, step) if ub > lb else ()):
                steps[0] += 1
                if steps[0] > budget:
                    raise _CapExceeded()
                vals[depth], trips[depth] = v, trip
                body()
        return loop

    def WhileLoop(self, s: WhileLoop, scope: dict, loops: tuple):
        def reached():
            raise DepsError("while-loop in analyzed region")
        return reached

    def IfStmt(self, s: IfStmt, scope: dict, loops: tuple):
        cond = _closure(*self.expr(s.cond, scope))
        then = self.body(s.then_body, scope, loops)
        other = self.body(s.else_body or [], scope, loops)
        return lambda: (then if cond() != 0 else other)()

    def Block(self, s: Block, scope: dict, loops: tuple):
        return self.body(s.body, scope, loops)


def _closure(src, k, f):
    """A compiled expression as a closure of no arguments."""
    return (lambda: src[k]) if f is None else f


def _fault(message: str):
    def fault():
        raise EvalError(message)
    return None, 0, fault


def fits(instances: int, steps: int, max_instances: int) -> bool:
    """Whether a walk of `instances` instances and `steps` loop iterations
    stays within `max_instances` and its step budget."""
    return instances <= max(max_instances, 0) and steps <= _step_budget(max_instances)


def _pair_kind(first_is_write: bool, second_is_write: bool) -> str:
    if first_is_write and second_is_write:
        return "output"
    return "flow" if first_is_write else "anti"


def _summarize(instances: list[Instance], pairs, alias_pairs) -> list[Dependence]:
    def key(i, j, kind, alias=None):  # a may-alias pair's distance is unknown
        a, b = instances[i], instances[j]
        common, dist = distance(a, b)
        return a.stmt, b.stmt, kind, common, dist if alias is None else (None,) * len(common), alias
    return _unique(key(*p) for p in (*pairs, *alias_pairs))


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


def _exact_set(program: Program, instances: list[Instance]) -> DependenceSet:
    return DependenceSet(True, instances, _linear_pairs(instances),
                         _alias_pairs(program, instances))


# ---------------------------------------------------------------------------
# Conservative subscript tests


@dataclass
class _Ref:
    stmt: str
    array: str
    index: tuple[Expr, ...]
    write: bool
    loops: tuple[str, ...]         # enclosing for-loop names
    loop_vars: tuple[str, ...]
    steps: tuple[int, ...]
    trips: tuple[object, ...]      # int or None
    moving: tuple[bool, ...]       # the lower bound reads an enclosing loop's variable


def _collect_refs(program: Program, scope: list[Stmt]) -> list[_Ref]:
    refs: list[_Ref] = []
    params = program.param_ranges(include_opaque=False)

    def resolve(e: Expr) -> Expr:
        return simplify(subst(e, {k: IntLit(v) for k, (v, _) in params.items()}))

    def trips_of(loop: ForLoop) -> object:
        """The trip count when both bounds are constant, else None: not
        `lang.loop_range`'s, which also counts a loop whose bounds move with
        an outer loop, where strong SIV's distance is in values, not trips
        (`_conservative_pair`)."""
        lb, ub = interval(loop.lower, params), interval(loop.upper, params)
        return None if lb is None or ub is None else trip_count(lb[0], ub[0], loop.step)

    def walk(stmts, loops: tuple):
        for s in stmts:
            if isinstance(s, WhileLoop):
                raise DepsError("while-loop in analyzed region")
            if isinstance(s, Assign):
                names = tuple(l.name for l in loops)
                lvars = tuple(l.var for l in loops)
                steps = tuple(l.step for l in loops)
                trips = tuple(trips_of(l) for l in loops)
                moving = tuple(bool(free_vars(l.lower) & set(lvars[:k]))
                               for k, l in enumerate(loops))
                accesses = [(r.array, r.index, False) for r in _reads(s)]
                if s.op == "+=":
                    accesses.append((s.array, s.index, False))
                accesses.append((s.array, s.index, True))
                for array, index, write in accesses:
                    refs.append(_Ref(s.stmt_id, array, tuple(resolve(x) for x in index),
                                     write, names, lvars, steps, trips, moving))
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
    """Analyze one reference pair: None where it is proven independent, else
    its common loops, a distance entry per common loop (None where unknown)
    and whether an unknown subscript makes every entry unknown.

    Strong SIV gives a distance in values of the loop variable, which is
    one in trips only where both instances start the loop at the same
    value.  For a loop whose lower bound reads an enclosing loop's variable
    that holds where every outer entry is a known 0; otherwise the entry
    is unknown."""
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
            if k in constraints and constraints[k] != phys:
                return None
            constraints[k] = phys
            continue
        unknown = True  # coupled subscripts (MIV): assume dependent
    dist: list = []
    for k, (_, _, _, step, trips) in enumerate(common):
        phys = constraints.get(k)
        if phys is not None and r1.moving[k] and any(d != 0 for d in dist):
            phys = None  # the instances may start this loop at different values
        if phys is not None:
            if phys % step != 0 or trips == 0:
                return None
            if trips is not None and abs(phys // step) >= trips:
                return None
        dist.append(None if phys is None else phys // step)
    return common_names, tuple(dist), unknown


def conservative_dependences(program: Program, scope: list[Stmt], reason: str) -> DependenceSet:
    refs = _collect_refs(program, scope)
    declared = {(a.first, a.second) for a in program.aliases}
    alias_decl = declared | {(b, a) for a, b in declared}

    def key(src: _Ref, snk: _Ref, names, dist, alias):
        return (src.stmt, snk.stmt, _pair_kind(src.write, snk.write), tuple(names), dist, alias)

    def keys():
        for i1, r1 in enumerate(refs):
            for r2 in refs[i1:]:
                arrays = (r1.array, r2.array)
                same = r1.array == r2.array
                if (not same and arrays not in alias_decl) or not (r1.write or r2.write):
                    continue
                if not same:
                    names = common_loops(r1.loops, r2.loops)
                    dist = (None,) * len(names)
                    pair = arrays if arrays in declared else arrays[::-1]
                    yield key(r1, r2, names, dist, pair)
                    yield key(r2, r1, names, dist, pair)
                    continue
                res = _conservative_pair(r1, r2)
                if res is None:
                    continue
                names, dist, unknown = res
                if unknown:
                    dist = tuple(None for _ in dist)
                # source before sink, both ways while an unknown entry leads;
                # in one iteration r1 runs first, as `refs` is in textual order
                sign = leading_sign(dist)
                if sign != -1:
                    yield key(r1, r2, names, dist, None)
                if sign is None or sign == -1:
                    yield key(r2, r1, names, tuple(None if d is None else -d for d in dist), None)

    ds = DependenceSet(exact=False, reason=reason)
    ds.deps = _unique(keys())
    return ds


# ---------------------------------------------------------------------------
# Public entry points


def compute_dependences(program: Program, scope, max_enum: int = 4096) -> DependenceSet:
    """Dependences of a region: exact by enumeration when possible, else a
    conservative superset.  `scope` is a loop node or a statement list.

    A region whose instance and iteration counts are fixed before it runs
    (the exact counts of `lang.step_counts`) is counted first: one the walk
    would take past the cap or the step budget goes conservative without
    walking."""
    stmts = scope if isinstance(scope, list) else [scope]
    counts = step_counts(stmts, program.param_ranges(include_opaque=False), exact_only=True)[0]
    # the walk stops at the first instance past the cap, the first one if the cap is below 1
    if counts is not None and not fits(counts[1], counts[2], max_enum):
        return conservative_dependences(program, stmts, "enumeration cap exceeded")
    try:
        return _exact_set(program, enumerate_instances(program, stmts, max_enum))
    except _CapExceeded:
        return conservative_dependences(program, stmts, "enumeration cap exceeded")
    except EvalError as e:
        return conservative_dependences(program, stmts, str(e))

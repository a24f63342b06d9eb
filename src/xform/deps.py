"""Dependence analysis over affine array accesses.

Two routes, matching how much the program lets us see:

* exact: when every bound, guard, and subscript in the analyzed region is a
  pure function of loop variables and non-opaque params, and the region's
  instance count fits the enumeration cap, run the whole iteration space
  abstractly and build the region's conflict graph.  The enumerator
  translates the region once into nested closures that fold constants with
  `lang.fold` and keep its checks, with no memory; an `EvalError` message
  becomes the `reason`.  A loop whose body is assignments of distinct
  statements runs each execution at once, its variable a column (a list
  over the trips), through C-level `map`, and so does a perfect nest of
  loops around it whose bounds read no variable of the nest, all its trips
  in one column; `+ - * /` and subscripts check a column by `min` and
  `max`.  Any event in it (a failed check, an `EvalError`, the cap, the
  step budget) drops the columns and replays the execution a trip at a
  time with the same closures, as every other loop runs, so outcomes and
  messages are a walk's one trip at a time.  The
  output (`Enumeration`) is by class, the placement before any step, with
  a table of the accesses to arrays written or named by a may-alias pair.
  A region is counted before it is walked: when its instance and iteration
  counts are fixed before it runs (no `while` or `if`, every trip count
  known: the exact counts of `lang.step_counts`) and pass the cap or the
  step budget, it goes conservative at once, with the reason "enumeration
  cap exceeded" even where the walk would have stopped at a fault first.

* conservative: otherwise turn each subscript once into an affine form over
  the levels of its enclosing loops and the opaque params, the other params
  read as values (`lang.affine`), and test each dimension of a reference
  pair by ZIV and strong SIV over a loop the two share; a dimension those
  cannot analyze constrains nothing, so the entries no test fixes are
  unknown (`*`).  Accesses to declared may-alias pairs are kept in a
  separate rtc-eligible bucket rather than folded into the static set.

The exact conflict graph (`DependenceSet.pairs`) is linear in the number of
accesses: one sort of each array's table orders its accesses by address,
then in execution order (a read before its instance's write, a second read
in one instance dropped), and per address each write is joined to the reads
since the previous write (anti), each of those reads to the write before it
(flow), and consecutive writes to each other (output).  Every conflicting
pair is joined by a chain of these edges, so a schedule that runs each
instance once keeps all conflicting pairs in order exactly when it keeps
the edges in order.  The distance vectors (`DependenceSet.deps`) are
summarized on first use from all conflicting pairs (`full_pairs`), so
`--deps` and the conservative rules read the same data however the set was
built.  Instance keys and accessed addresses do not change under a
transformation, so once a candidate has kept every edge in order, the graph
is the candidate's too: a pipeline carries it unchanged, in the order of its
first enumeration, with the placement that the steps' schedule maps give.
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
the tree walker the enumerator replaced, the graph built per instance, a
brute-force analysis that runs the reference tree-walking interpreter
(`tests/reference_interp.py`) and compares the addresses in its trace
records pairwise, and the judge of a walked candidate that the schedule
maps replaced.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, groupby, repeat
from math import prod
from operator import add, itemgetter, mul

from .lang import (
    INT64_MAX, INT64_MIN, OPS, ArrayRead, Assign, BinOp, Call, EvalError, Expr, ForLoop,
    IfStmt, IntLit, Program, Stmt, VarRef, WhileLoop, array_reads, child_bodies, affine,
    flat_index, fold, free_vars, gc_paused, int64, interval, iter_stmts, step_counts, trip_count,
)


# The default instance cap of exact enumeration per region (`--max-enum`).
MAX_ENUM = 4096


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


def _step_budget(max_instances: int) -> int:
    """Loop iterations an enumeration capped at `max_instances` may walk."""
    return 100 * max_instances + 10000


@dataclass
class DependenceSet:
    exact: bool
    instances: Enumeration | None = None
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


@dataclass
class Instance:
    pos: int
    stmt: str
    orig: tuple[tuple[str, int], ...]
    loops: tuple[str, ...]
    logical: tuple[int, ...]
    key: tuple                       # (stmt, orig): the same in every schedule


class Enumeration(Sequence):
    """A region's instances in execution order, each built where it is read;
    `steps` loop iterations walked.  `classes`: (loops, statement) -> (
    coordinate names, [positions (increasing), trips per loop, values per
    coordinate]).  `accesses`: array -> (element numbers, `2 * position +
    is_write`), in no order."""

    def __init__(self, classes: dict, accesses: dict, n: int, steps: int):
        self.classes, self.accesses, self.n, self.steps = classes, accesses, n, steps

    def __len__(self) -> int:
        return self.n

    @cached_property
    def _where(self) -> list:  # position -> (class, index in the class)
        where = [None] * self.n
        for cls in self.classes.items():
            deque(map(where.__setitem__, cls[1][1][0], zip(repeat(cls), count())), 0)
        return where

    def __getitem__(self, k: int) -> Instance:
        ((loops, stmt), (names, cols)), i = self._where[k]
        orig = tuple(zip(names, [col[i] for col in cols[1 + len(loops):]]))
        return Instance(cols[0][i], stmt, orig, loops,
                        tuple([col[i] for col in cols[1:1 + len(loops)]]), (stmt, orig))


def _reads(s: Assign) -> list:
    """The array reads in an assignment's subscripts and value."""
    return [r for e in (*s.index, s.value) for r in array_reads(e)]


def enumerate_instances(program: Program, scope: list[Stmt],
                        max_instances: int = MAX_ENUM) -> Enumeration:
    """Run the region's full iteration space without touching memory.

    Raises DepsError on a while-loop it reaches, EvalError when anything
    depends on memory or opaque params (or has no int64 value), _CapExceeded
    past the instance cap or past `_step_budget(max_instances)` loop
    iterations.  Nothing built here is cyclic, so the cyclic GC is paused.
    """
    with gc_paused():
        return _Closures(program, scope, max_instances).run(scope)


class _Closures:
    """A region translated once into nested closures, then run (after Feeley
    & Lapalme, "Using closures for code generation", 1987).

    The loop at nesting depth d keeps its variable in `vals[d]` and its trip
    counter in `trips[d]`; a non-opaque param is a constant.  An operation
    on two constants is folded unless it faults (`lang.fold`); every other
    check runs, in the order of evaluation, only when the closures run.
    Innermost loops of assignments, and perfect nests of them, run as
    columns (module docstring).
    """

    def __init__(self, program: Program, scope: list[Stmt], max_instances: int):
        self.params = program.param_values(include_opaque=False)
        self.dims = {a.name: a.dims for a in program.arrays}
        self.cap, self.budget = max_instances, _step_budget(max_instances)
        self.vals, self.trips, self.steps, self.made, self.classes = [], [], [0], [0], {}
        recorded = {s.array for s in iter_stmts(scope) if type(s) is Assign}
        recorded.update(a for al in program.aliases for a in (al.first, al.second))
        self.accesses = {a: ([], []) for a in sorted(recorded)}

    def run(self, scope: list[Stmt]) -> Enumeration:
        self.body(scope, {}, ())()
        return Enumeration({key: cls for key, cls in self.classes.items() if cls[1][0]},
                           self.accesses, self.made[0], self.steps[0])

    def body(self, stmts: list[Stmt], scope: dict, loops: tuple):
        fns = []  # a loop, not a comprehension: one frame less per nesting level
        for s in stmts:
            fns.append(getattr(self, type(s).__name__)(s, scope, loops))
        return _sequence(fns)

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

        def value():  # only + - * / can leave int64, from operands inside it
            a = sa[ka] if fa is None else fa()
            b = sb[kb] if fb is None else fb()
            if type(a) is list or type(b) is list:
                return _column(f, a, b)
            v = f(a, b)
            return v if INT64_MIN <= v <= INT64_MAX else int64(v)
        return None, 0, value

    def access(self, array: str, index, scope: dict):
        """A closure giving the element number of `array[index]`, an int or
        a column: every subscript is valued before the bounds checks."""
        dims, recorded = self.dims[array], array in self.accesses
        subs = [self.expr(i, scope) for i in index]
        return lambda: _address(array, dims, [s[k] if f is None else f() for s, k, f in subs],
                                recorded)

    def instance(self, s: Assign, scope: dict, loops: tuple):
        """`value()` gives an assignment's element numbers (reads, then the
        write) and original coordinates, each an int or a column, checking
        the cap after the accesses; `record(first, n, stride, flats, orig)`
        adds an execution's `n` trips at positions `first + stride * trip`;
        `one()` values and records one instance."""
        refs = [*_reads(s), s]
        addrs = [self.access(r.array, r.index, scope) for r in refs]
        # (flats, codes, access, is_write) per recorded access; `+=` reads its target
        entries = [(*self.accesses[r.array], k, w) for k, r in enumerate(refs)
                   if r.array in self.accesses
                   for w in ((0,) if r is not s else (0, 1) if s.op == "+=" else (1,))]
        names = tuple([n for n, _ in s.orig_coords])
        coords = [self.expr(e, scope) for _, e in s.orig_coords]
        _, cols = self.classes.setdefault(
            (loops, s.stmt_id), (names, [[] for _ in range(1 + len(loops) + len(names))]))
        depth, made, cap, trips = len(loops), self.made, self.cap, self.trips

        def value():
            flats = []
            for f in addrs:
                flats.append(f())
            if made[0] >= cap:
                raise _CapExceeded()
            return flats, [src[k] if f is None else f() for src, k, f in coords]

        def record(first: int, n: int, stride: int, flats: list, orig: list):
            for fl, codes, k, w in entries:
                fl.extend(repeat(flats[k], n) if type(flats[k]) is int else flats[k])
                codes.extend(range(2 * first + w, 2 * (first + n * stride), 2 * stride))
            deque(map(list.extend, cols, (range(first, first + n * stride, stride), *[
                repeat(x, n) if type(x) is int else x for x in (*trips[:depth], *orig)])), 0)

        def one():
            flats, orig = value()
            record(made[0], 1, 1, flats, orig)
            made[0] += 1
        return value, record, one

    # -- statements: each becomes a closure of no arguments

    def Assign(self, s: Assign, scope: dict, loops: tuple):
        return self.instance(s, scope, loops)[2]

    def ForLoop(self, s: ForLoop, scope: dict, loops: tuple):
        lo, hi = _closure(*self.expr(s.lower, scope)), _closure(*self.expr(s.upper, scope))
        depth, step, budget, steps = len(loops), s.step, self.budget, self.steps
        if depth == len(self.vals):
            self.vals.append(0)
            self.trips.append(0)
        vals, trips, made, cap = self.vals, self.trips, self.made, self.cap
        inner = {**scope, s.var: depth}, loops + (s.name,)
        # the loops run as one column, outermost first, the depths their bounds
        # read, and the statements of the innermost: distinct, so that the
        # positions of a class increase
        nest = None
        reads = {scope[v] for v in free_vars(s.lower) | free_vars(s.upper) if v in scope}
        if all(type(x) is Assign for x in s.body) and len({x.stmt_id for x in s.body}) == \
                len(s.body):
            stmts = [self.instance(x, *inner) for x in s.body]
            body, nest = _sequence([one for _, _, one in stmts]), ([(lo, hi, step)], reads, stmts)
        else:
            body = self.body(s.body, *inner)
            child = getattr(body, "nest", None)  # a rectangular perfect nest
            if len(s.body) == 1 and child and depth not in child[1]:
                nest = [(lo, hi, step), *child[0]], reads | child[1], child[2]

        def columns(lb: int, ub: int) -> bool:
            """Run one execution of the nest as columns; False where it must
            be replayed a trip at a time."""
            levels, _, stmts = nest
            first, k = made[0], len(stmts)
            try:
                bounds = [(lb, ub, step), *[(l(), h(), st) for l, h, st in levels[1:]]]
            except EvalError:
                return False
            counts = [trip_count(*b) for b in bounds]
            n, need = 1, 0
            for c in counts:
                n *= c
                need += n  # a step per trip of each loop
            if not n or steps[0] + need > budget or first + n * k > cap:
                return False
            for d, v, t in zip(count(depth), _grid([range(*b) for b in bounds]),
                               _grid(list(map(range, counts)))):
                vals[d], trips[d] = v, t
            try:
                done = [value() for value, _, _ in stmts]
            except EvalError:
                return False
            steps[0] += need
            made[0] += n * k
            for x, ((_, record, _), (flats, orig)) in enumerate(zip(stmts, done)):
                record(first + x, n, k, flats, orig)
            return True

        def loop():
            lb, ub = lo(), hi()
            if nest and columns(lb, ub):
                return
            for trip, v in enumerate(range(lb, ub, step) if ub > lb else ()):
                steps[0] += 1
                if steps[0] > budget:
                    raise _CapExceeded()
                vals[depth], trips[depth] = v, trip
                body()
        loop.nest = nest
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


def _sequence(fns: list):
    if len(fns) == 1:
        return fns[0]

    def seq():
        for f in fns:
            f()
    return seq


def _closure(src, k, f):
    """A compiled expression as a closure of no arguments."""
    return (lambda: src[k]) if f is None else f


def _fault(message: str):
    def fault():
        raise EvalError(message)
    return None, 0, fault


def _grid(ranges: list) -> list[list]:
    """Per loop of a nest, its column over the trips of the nest in order."""
    inner, outer, out = prod(map(len, ranges)), 1, []
    for r in ranges:
        inner //= len(r)
        out.append(list(chain.from_iterable(map(repeat, r, repeat(inner)))) * outer)
        outer *= len(r)
    return out


def _column(f, a, b) -> list:
    """`f` per trip of a column and a column or an int, checked in int64."""
    col = list(map(f, a if type(a) is list else repeat(a), b if type(b) is list else repeat(b)))
    if not (INT64_MIN <= min(col) and max(col) <= INT64_MAX):
        raise EvalError("int64 overflow")
    return col


def _address(array: str, dims: tuple, xs: list, recorded: bool):
    """The element number of subscripts `xs`, or with a column among them
    the column of numbers (None for an array not recorded)."""
    if list not in map(type, xs):
        return flat_index(array, dims, xs)
    flat = repeat(0)
    for x, d in zip(xs, dims):
        if (min(x) < 0 or max(x) >= d) if type(x) is list else not 0 <= x < d:
            raise EvalError("index out of bounds")
        flat = map(add, map(mul, flat, repeat(d)), x if type(x) is list else repeat(x))
    return list(flat) if recorded else None


def fits(instances: int, steps: int, max_instances: int) -> bool:
    """Whether a walk of `instances` instances and `steps` loop iterations
    stays within `max_instances` and its step budget."""
    return instances <= max(max_instances, 0) and steps <= _step_budget(max_instances)


def _pair_kind(first_is_write: bool, second_is_write: bool) -> str:
    if first_is_write and second_is_write:
        return "output"
    return "flow" if first_is_write else "anti"


def _summarize(instances: Enumeration, pairs, alias_pairs) -> list[Dependence]:
    def key(i, j, kind, alias=None):  # a may-alias pair's distance is unknown
        a, b = instances[i], instances[j]
        common, dist = distance(a, b)
        return a.stmt, b.stmt, kind, common, dist if alias is None else (None,) * len(common), alias
    return _unique(key(*p) for p in (*pairs, *alias_pairs))


def _by_address(enum: Enumeration):
    """Per recorded array, its accesses `(flat, code)` in one sort: by
    address, then in execution order (a read before the write of its
    instance), a second read in an instance dropped."""
    w = 2 * len(enum)
    for flats, codes in enum.accesses.values():
        yield map(divmod, sorted(set(map(add, map(mul, flats, repeat(w)), codes))), repeat(w))


def _all_pairs(enum: Enumeration) -> list[tuple[int, int, str]]:
    """Every pair of instances that touch one address, at least one writing."""
    pairs = set()
    for accesses in _by_address(enum):
        for _, group in groupby(accesses, itemgetter(0)):
            touch = [(code >> 1, code & 1) for _, code in group]
            pairs.update((p1, p2, _pair_kind(w1, w2)) for k, (p1, w1) in enumerate(touch)
                         for p2, w2 in touch[k + 1:] if p1 < p2 and (w1 or w2))
    return sorted(pairs)


def _linear_pairs(enum: Enumeration) -> list[tuple[int, int, str]]:
    """The write-separated adjacent pairs: a chain of them joins every pair
    `_all_pairs` lists, and there are at most two per access."""
    pairs = []
    for accesses in _by_address(enum):
        at = last_write = None
        for flat, code in accesses:
            pos = code >> 1
            if flat != at:
                at, last_write, reads = flat, None, []  # reads since last_write
            elif last_write is not None:
                pairs.append((last_write, pos, "output" if code & 1 else "flow"))
            if not code & 1:
                reads.append(pos)
                continue
            for r in reads:
                if r != pos:
                    pairs.append((r, pos, "anti"))
            last_write, reads = pos, []
    return pairs


def _alias_pairs(program: Program, enum: Enumeration):
    """Every may-alias pair: each access to one declared array against each
    access to the other, at least one writing."""
    def touches(array):  # (pos, writes it) of each instance accessing `array`
        written: dict = {}
        for code in enum.accesses[array][1]:
            written[code >> 1] = written.get(code >> 1, 0) | code & 1
        return written.items()

    alias_pairs = set()
    for al in program.aliases:
        touch_a, touch_b = touches(al.first), touches(al.second)
        if len(touch_a) * len(touch_b) > 4_000_000:
            raise _CapExceeded()
        alias_pairs.update((*sorted((pa, pb)), _pair_kind(*((wa, wb) if pa < pb else (wb, wa))),
                            (al.first, al.second))
                           for pa, wa in touch_a for pb, wb in touch_b if pa != pb and (wa or wb))
    return sorted(alias_pairs)


def _exact_set(program: Program, enum: Enumeration) -> DependenceSet:
    return DependenceSet(True, enum, _linear_pairs(enum), _alias_pairs(program, enum))


# ---------------------------------------------------------------------------
# Conservative subscript tests


@dataclass
class _Ref:
    stmt: str
    array: str
    forms: tuple[dict | None, ...]  # per subscript, its `lang.affine` form
    write: bool
    loops: tuple[str, ...]         # enclosing for-loop names
    steps: tuple[int, ...]
    trips: tuple[object, ...]      # int or None
    moving: tuple[bool, ...]       # the lower bound reads an enclosing loop's variable


def _collect_refs(program: Program, scope: list[Stmt]) -> list[_Ref]:
    refs: list[_Ref] = []
    params = program.param_ranges(include_opaque=False)
    consts = program.param_values(include_opaque=False)

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
                levels = {v: k for k, v in enumerate(lvars)}
                steps = tuple(l.step for l in loops)
                trips = tuple(trips_of(l) for l in loops)
                moving = tuple(bool(free_vars(l.lower) & set(lvars[:k]))
                               for k, l in enumerate(loops))
                accesses = [(r.array, r.index, False) for r in _reads(s)]
                if s.op == "+=":
                    accesses.append((s.array, s.index, False))
                accesses.append((s.array, s.index, True))
                for array, index, write in accesses:
                    forms = tuple(affine(x, levels, consts) for x in index)
                    refs.append(_Ref(s.stmt_id, array, forms, write, names, steps, trips, moving))
            for body in child_bodies(s):
                walk(body, loops + (s,) if isinstance(s, ForLoop) else loops)

    walk(scope, ())
    return refs


def _conservative_pair(r1: _Ref, r2: _Ref):
    """Analyze one reference pair: None where it is proven independent, else
    its common loops and a distance entry per common loop (None where
    unknown).

    Only ZIV and strong SIV over a loop both references share constrain the
    pair: a dimension whose forms differ only in the constant, and read at
    most one level, a common one.  Every other dimension constrains nothing:
    one not affine, one reading a loop the two do not share (sibling loops
    may use one variable's name), weak or coupled SIV, or opaque params that
    do not cancel.

    Strong SIV gives a distance in values of the loop variable, which is
    one in trips only where both instances start the loop at the same
    value.  For a loop whose lower bound reads an enclosing loop's variable
    that holds where every outer entry is a known 0; otherwise the entry
    is unknown."""
    common = common_loops(r1.loops, r2.loops)
    constraints: dict[int, int] = {}
    for f1, f2 in zip(r1.forms, r2.forms):
        if f1 is None or f2 is None or any(
                f1.get(k, 0) != f2.get(k, 0) for k in f1.keys() | f2.keys() if k is not None):
            continue
        siv = [k for k, c in f1.items() if type(k) is int and c]
        delta = f1.get(None, 0) - f2.get(None, 0)
        if not siv:  # ZIV
            if delta:
                return None
        elif len(siv) == 1 and siv[0] < len(common):
            # a*v1 + c1 = a*v2 + c2  =>  v2 - v1 = (c1 - c2) / a
            k, a = siv[0], f1[siv[0]]
            if delta % a or constraints.setdefault(k, delta // a) != delta // a:
                return None
    dist: list = []
    for k in range(len(common)):
        phys = constraints.get(k)
        if phys is not None and r1.moving[k] and any(d != 0 for d in dist):
            phys = None  # the instances may start this loop at different values
        if phys is not None:
            step, trips = r1.steps[k], r1.trips[k]
            if phys % step or trips == 0 or trips is not None and abs(phys // step) >= trips:
                return None
            phys //= step
        dist.append(phys)
    return common, tuple(dist)


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
                names, dist = res
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


def compute_dependences(program: Program, scope, max_enum: int = MAX_ENUM) -> DependenceSet:
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

"""The directive kinds: one record per kind, and the transformation catalog.

A `Kind` holds everything the engine knows about one directive: its pragma
spelling, its clauses in print order, the rules a well-formed pragma obeys,
the loop names it consumes and introduces (with the defaults of its id
clauses), what its targets are, the rewrite that builds its candidate, when
that rewrite is valid without looking at dependences, where an
order-changing rewrite sends each instance (its schedule map, in
`schedules`, which the exact judge reads instead of walking the
candidate; a mark reads reverse's), and the distance-vector rule that
judges it when the exact route is unavailable.  The parser, the emitter,
the planner, `transforms.build_candidate` and `transforms.classify` look a
directive up in `KINDS` instead of branching on its kind.  A new directive
is a record here; an order-changing one also needs its schedule map in
`schedules`, and may need a conservative judge in `legality`.

Every transformation is a replacement: it removes the loops it applies to
and returns a `TransformResult`, the rewritten subtree to splice in their
place and the meta its legality rules and schedule read (the band, the new
loop order, the statement groups, the names of the loops it generated), so
follow-up directives see the result as if it had been written in the
source.  A builder works on the candidate, a copy of
the input program: it may move the candidate's statements into the
replacement, and makes each further copy by one substitution
(`lang.subst_body`).  Generated loops take their names (and variables) from
the id clauses.

Records call the legality judges through the `legality` module at call time,
so a judge rebound on that module (by a tracer, say) is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import legality
from .schedules import (
    distribute_schedule, fuse_schedule, interchange_schedule, jam_schedule, reverse_schedule,
    stripe_schedule, tile_schedule,
)
from .lang import (
    Assign, BinOp, Call, Expr, ForLoop, IfStmt, IntLit, Program, Stmt, VarRef, WhileLoop,
    affine, array_reads, find_loop, free_vars, interval, iter_stmts, locate, loop_range,
    simplify, subst_body, subst_stmt,
)


class TransformError(Exception):
    """Structural impossibility; the legality layer maps this to a verdict."""


# The most copies of a loop body one unroll or unroll-and-jam may make.
MAX_COPIES = 1024


@dataclass
class TransformResult:
    replacement: list[Stmt]
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers


def _const_trips(program: Program, loop: ForLoop):
    """Trip count when it is a compile-time constant, else None."""
    return loop_range(loop, program.param_ranges(include_opaque=False))[0]


def _trips_expr(loop: ForLoop) -> Expr:
    return simplify(BinOp("/", BinOp("-", BinOp("+", loop.upper, IntLit(loop.step - 1)),
                                     loop.lower), IntLit(loop.step)))


def _has_opaque(program: Program, *exprs: Expr) -> bool:
    opq = program.opaque_params()
    return any(free_vars(e) & opq for e in exprs)


def perfect_nest(loop: ForLoop, depth: int | None = None) -> list[ForLoop]:
    """`loop` and the loops perfectly nested below it, at most `depth` deep."""
    chain = [loop]
    while (depth is None or len(chain) < depth) and len(chain[-1].body) == 1 \
            and isinstance(chain[-1].body[0], ForLoop):
        chain.append(chain[-1].body[0])
    return chain


def _require_rectangular(chain: list[ForLoop], what: str):
    band_vars = {l.var for l in chain}
    for l in chain:
        if (free_vars(l.lower) | free_vars(l.upper)) & band_vars:
            raise TransformError(f"{what} requires a rectangular loop band; "
                                 f"bounds of '{l.name}' depend on a band variable")


def _require_for(node, what: str):
    if isinstance(node, WhileLoop):
        raise TransformError(f"{what} requires a canonical for-loop, not a while-loop")
    assert isinstance(node, ForLoop)


def _copies(n: int) -> int:
    """`n`, the copies of a body a step makes, or TransformError past the limit."""
    if n > MAX_COPIES:
        raise TransformError(f"the step would make {n} copies of the loop body, "
                             f"more than the limit of {MAX_COPIES}")
    return n


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        taken.add(base)
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    taken.add(f"{base}_{k}")
    return f"{base}_{k}"


def _gen(kind: str, uid: int) -> str:
    return f"generated:{kind}#{uid}"


def _make_loop(var: str, lower: Expr, upper: Expr, step: int, body: list[Stmt],
               name: str, origin: str, parallel: bool = False) -> ForLoop:
    return ForLoop(var, simplify(lower), simplify(upper), step, body, [],
                   "", 0, name, origin, parallel)


def _renamed(loop: ForLoop, name: str, lower: Expr, upper: Expr, origin: str,
             parallel: bool = False, body: list[Stmt] | None = None) -> ForLoop:
    """`loop` (or `body` under its header) over [lower, upper), named `name`
    and its variable with it; a loop that keeps its name keeps its variable."""
    var = loop.var if name == loop.name else name
    body = subst_body(loop.body if body is None else body, {loop.var: VarRef(var)})
    return _make_loop(var, lower, upper, loop.step, body, name, origin, parallel)


# ---------------------------------------------------------------------------
# Catalog


def strip_mine(program: Program, loop: ForLoop, size: int, floor_id: str,
               tile_id: str, uid: int) -> TransformResult:
    """Split one loop into strips of `size` iterations (one-level tiling);
    order preserving."""
    if size < 1:
        raise TransformError("strip size must be >= 1")
    return tile(program, [loop], (size,), (floor_id,), (tile_id,), "none", uid,
                set(), "strip_mine")


def tile(program: Program, chain: list[ForLoop], sizes: tuple[int, ...],
         floor_ids: tuple[str, ...], tile_ids: tuple[str, ...],
         peel: str, uid: int, taken: set[str], kind: str = "tile") -> TransformResult:
    """Block a perfect nest: floor loops walk tile origins, tile loops walk
    the points inside one tile.  peel=rectangular splits partial tiles into
    separate epilogue nests so every remaining tile is full."""
    _require_rectangular(chain, "tile")
    k = len(chain)
    origin = _gen(kind, uid)

    lowers = [l.lower for l in chain]
    uppers = [l.upper for l in chain]
    steps = [l.step for l in chain]
    blocks = [steps[d] * sizes[d] for d in range(k)]
    inner_body = chain[-1].body

    # Per dimension: where the floor loop stops, whether a remainder region
    # may follow it, and whether every tile is full (no `min` bound needed).
    # Without peeling the floor loop runs to the bound and there is one
    # region; rectangular peeling splits each dimension into a full part
    # (exact tiles) and a remainder, and emits one nest per region.
    # The schedule reads where each remainder starts (`cuts`): nowhere, after
    # a constant number of iterations, or at the split, which is then a bound
    # of the loops outside the band.
    splits: list[Expr] = []
    rema: list[bool] = []
    full: list[bool] = []
    cuts: list = []
    for d in range(k):
        trips = _const_trips(program, chain[d])
        if peel != "rectangular":
            splits.append(uppers[d])
            rema.append(False)
            full.append(trips is not None and trips % sizes[d] == 0)
            cuts.append(None)
            continue
        if trips is not None:
            whole = (trips // sizes[d]) * sizes[d]
            splits.append(simplify(BinOp("+", lowers[d], IntLit(whole * steps[d]))))
            rema.append(trips - whole > 0)
            cuts.append(whole if rema[d] else None)
        else:
            ext = BinOp("-", uppers[d], lowers[d])
            splits.append(simplify(BinOp("+", lowers[d],
                                         BinOp("*", BinOp("/", ext, IntLit(blocks[d])),
                                               IntLit(blocks[d])))))
            rema.append(True)
            cuts.append((lowers[d], splits[d], steps[d]))
        full.append(True)

    # a region is partial in a subset of the dimensions with a remainder
    masks = [0]
    for d in range(k):
        if rema[d]:
            masks += [m | 1 << d for m in masks]
    regions: list[Stmt] = []
    names: dict[int, tuple] = {}  # mask -> (floor loop names, point loop names)
    for mask in sorted(masks):
        partial = [bool(mask >> d & 1) for d in range(k)]
        main_region = mask == 0
        suffix = f"_p{mask}"
        floors: list[tuple] = []  # (var, lower, upper, step, parallel)
        points: list[tuple] = []
        vmap: dict[str, Expr] = {}
        for d in range(k):
            if partial[d]:
                nm = _fresh(tile_ids[d] + suffix, taken)
                points.append((nm, splits[d], uppers[d], steps[d], False))
                vmap[chain[d].var] = VarRef(nm)
            else:
                fnm = floor_ids[d] if main_region else _fresh(floor_ids[d] + suffix, taken)
                tnm = tile_ids[d] if main_region else _fresh(tile_ids[d] + suffix, taken)
                # the outermost floor loop of each region keeps a parallel mark
                floors.append((fnm, lowers[d], splits[d], blocks[d],
                               d == 0 and chain[0].parallel))
                up: Expr = BinOp("+", VarRef(fnm), IntLit(blocks[d]))
                if not full[d]:
                    up = Call("min", (up, uppers[d]))
                points.append((tnm, VarRef(fnm), up, steps[d], False))
                vmap[chain[d].var] = VarRef(tnm)
        names[mask] = (tuple(f[0] for f in floors), tuple(p[0] for p in points))
        nest: list[Stmt] = subst_body(inner_body, vmap)
        for (var, lo, up, st, par) in reversed(floors + points):
            nest = [_make_loop(var, lo, up, st, nest, var, origin, par)]
        regions.extend(nest)
    return TransformResult(regions, {"band": [l.name for l in chain], "sizes": tuple(sizes),
                                     "regions": names, "cuts": cuts})


def stripe_mine(program: Program, loop: ForLoop, count: int, outer_id: str,
                inner_id: str, uid: int) -> TransformResult:
    """Split a loop so the inner loop visits `count` equidistant iterations;
    this changes the execution order."""
    trips = _const_trips(program, loop)
    if trips is None:
        raise TransformError("stripe-mining needs a constant trip count")
    if trips == 0 or trips % count != 0:
        raise TransformError(f"stripe count {count} does not divide the "
                             f"trip count {trips}")
    stride = trips // count  # iterations between two elements of a stripe
    origin = _gen("stripe_mine", uid)
    body = subst_body(loop.body, {loop.var: VarRef(inner_id)})
    inner = _make_loop(inner_id, VarRef(outer_id), loop.upper,
                       loop.step * stride, body, inner_id, origin)
    outer = _make_loop(outer_id, loop.lower,
                       BinOp("+", loop.lower, IntLit(stride * loop.step)),
                       loop.step, [inner], outer_id, origin, loop.parallel)
    return TransformResult([outer], {"level": loop.name, "ids": (outer_id, inner_id),
                                     "stride": stride})


def unroll_full(program: Program, loop: ForLoop) -> TransformResult:
    trips = _const_trips(program, loop)
    if trips is None:
        raise TransformError("full unroll requires a constant trip count")
    out: list[Stmt] = []
    for k in range(_copies(trips)):
        val = simplify(BinOp("+", loop.lower, IntLit(k * loop.step)))
        out.extend(subst_body(loop.body, {loop.var: val}))
    return TransformResult(out)


def unroll_partial(program: Program, loop: ForLoop, factor: int, uid: int) -> TransformResult:
    """Strip-mine by `factor`, then fully unroll the strip: the remaining
    loop keeps its name."""
    return TransformResult([_jam(program, loop, [], factor, _gen("unroll", uid), uid)])


def unroll_and_jam(program: Program, loop: ForLoop, factor: int, uid: int) -> TransformResult:
    """Unroll an outer loop and jam the copies into the innermost body of the
    perfect nest below it; checked as strip-mine + interchange + full unroll."""
    chain = perfect_nest(loop)[1:]
    if not chain:
        raise TransformError("unroll-and-jam requires a perfectly nested "
                             "inner loop to jam into")
    for inner in chain:
        if loop.var in (free_vars(inner.lower) | free_vars(inner.upper)):
            raise TransformError("unroll-and-jam requires inner bounds that do "
                                 f"not depend on '{loop.name}'")
    out = _jam(program, loop, chain, factor, _gen("unroll_and_jam", uid), uid)
    return TransformResult([out], {"jam_order": [l.name for l in chain] + [loop.name],
                                   "factor": factor})


def _jam(program: Program, loop: ForLoop, chain: list[ForLoop], factor: int,
         origin: str, uid: int) -> ForLoop:
    """`loop` stepping `factor` times further, with `factor` copies of the
    innermost body of `chain` (the loops nested below it, or none), or one
    per trip when a known trip count is smaller; copies past the first are
    guarded when the trip count may not divide."""
    trips = _const_trips(program, loop)
    divisible = trips is not None and trips % factor == 0
    v = loop.var
    body = (chain[-1] if chain else loop).body
    jammed: list[Stmt] = subst_body(body, {})
    for k in range(1, _copies(factor if trips is None else min(factor, trips))):
        off = simplify(BinOp("+", VarRef(v), IntLit(k * loop.step)))
        copy = subst_body(body, {v: off})
        if divisible:
            jammed.extend(copy)
        else:
            jammed.append(IfStmt(BinOp("<", off, loop.upper), copy,
                                 None, f"g{uid}_{k}"))
    nest: list[Stmt] = jammed
    for l in reversed(chain):
        nest = [_make_loop(l.var, l.lower, l.upper, l.step, nest, l.name,
                           l.origin, l.parallel)]
    return _make_loop(v, loop.lower, loop.upper, loop.step * factor, nest,
                      loop.name, origin, loop.parallel)


def interchange(chain: list[ForLoop], permutation: tuple[str, ...], uid: int) -> TransformResult:
    """Reorder a perfect band of loops into the permutation's order."""
    by_name = {l.name: l for l in chain}
    # bounds may only use variables of loops that stay above in the new order
    for pos, name in enumerate(permutation):
        l = by_name[name]
        below = {by_name[n].var for n in permutation[pos:]}
        if (free_vars(l.lower) | free_vars(l.upper)) & below:
            raise TransformError(
                f"interchange would move loop '{name}' above a loop its "
                "bounds depend on")
    inner_body = chain[-1].body
    origin = _gen("interchange", uid)
    nest: list[Stmt] = inner_body
    identity = tuple(l.name for l in chain) == tuple(permutation)
    for name in reversed(permutation):
        l = by_name[name]
        nest = [_make_loop(l.var, l.lower, l.upper, l.step, nest, l.name,
                           l.origin if identity else origin, l.parallel)]
    return TransformResult(nest, {"band": [l.name for l in chain], "order": list(permutation)})


def peel(program: Program, loop: ForLoop, spec: tuple[str, int],
         prologue_id: str, main_id: str, epilogue_id: str, uid: int) -> TransformResult:
    """Extract first/last iterations into a prologue/epilogue, or peel an
    epilogue so the main loop's trip count becomes a multiple of n."""
    mode, n = spec
    origin = _gen("peel", uid)
    if mode == "first":
        if n == 0:
            return TransformResult([loop])
        cut: Expr = BinOp("+", loop.lower, IntLit(n * loop.step))
        pro = _renamed(loop, prologue_id, loop.lower, Call("min", (cut, loop.upper)), origin)
        trips = _const_trips(program, loop)
        if trips is not None and n <= trips:
            pro.upper = simplify(cut)
        main = _renamed(loop, main_id, cut, loop.upper, origin, loop.parallel)
        return TransformResult([pro, main])
    trips = _const_trips(program, loop)
    if trips is None or _has_opaque(program, loop.lower, loop.upper):
        raise TransformError(f"peel {mode}({n}) needs a computable trip count")
    keep = max(trips - n, 0) if mode == "last" else trips - (trips % n)
    cut = simplify(BinOp("+", loop.lower, IntLit(keep * loop.step)))
    main = _renamed(loop, main_id, loop.lower, cut, origin, loop.parallel)
    epi = _renamed(loop, epilogue_id, cut, loop.upper, origin)
    return TransformResult([main, epi])


def collapse(chain: list[ForLoop], collapsed_id: str, uid: int) -> TransformResult:
    """Flatten a rectangular perfect nest into one loop over logical
    iteration numbers 0..prod(trips), row-major, delinearized in the body."""
    _require_rectangular(chain, "collapse")
    k = len(chain)
    trips = [_trips_expr(l) for l in chain]
    total: Expr = IntLit(1)
    for t in trips:  # a loop that never runs has no trips, whatever its bounds
        total = BinOp("*", total, Call("max", (t, IntLit(0))))
    c = VarRef(collapsed_id)
    vmap: dict[str, Expr] = {}
    for d in range(k):
        suffix: Expr = IntLit(1)
        for t in trips[d + 1:]:
            suffix = BinOp("*", suffix, t)
        idx: Expr = BinOp("/", c, suffix)
        if d > 0:
            idx = BinOp("%", idx, trips[d])
        vmap[chain[d].var] = simplify(
            BinOp("+", chain[d].lower, BinOp("*", idx, IntLit(chain[d].step))))
    body = subst_body(chain[-1].body, vmap)
    out = _make_loop(collapsed_id, IntLit(0), simplify(total), 1, body,
                     collapsed_id, _gen("collapse", uid), chain[0].parallel)
    return TransformResult([out])


def distribute(loop: ForLoop, groups, ids: tuple[str, ...], uid: int,
               taken: set[str]) -> TransformResult:
    """Split a loop body into one loop per statement group (same domain,
    order of groups = textual order)."""
    top_ids = [s.stmt_id for s in loop.body]
    if groups is None:
        groups = tuple((sid,) for sid in top_ids)
    flat = [sid for g in groups for sid in g]
    if sorted(flat) != sorted(top_ids) or len(flat) != len(top_ids):
        known = set(top_ids)
        unknown = [sid for sid in flat if sid not in known]
        if unknown:
            raise TransformError(f"distribute parts reference unknown statement "
                                 f"id '{unknown[0]}'")
        raise TransformError("distribute parts must partition the loop body")
    if flat != top_ids:
        raise TransformError("distribute parts must preserve statement order")
    if ids and len(ids) != len(groups):
        raise TransformError(f"distribute ids(...) must name {len(groups)} loops")
    # the groups take the body's statements in order (copies made by an
    # unroll share a statement id)
    parts, start = [], 0
    for g in groups:
        parts.append(loop.body[start:start + len(g)])
        start += len(g)
    origin = _gen("distribute", uid)
    part_of: dict[str, int] = {}
    for pi, part in enumerate(parts):
        for inner in iter_stmts(part):
            if isinstance(inner, Assign):
                if part_of.setdefault(inner.stmt_id, pi) != pi:
                    raise TransformError(f"distribute cannot tell apart the copies of "
                                         f"'{inner.stmt_id}' in two parts")
    if len(groups) == 1:
        if ids:
            out = _renamed(loop, ids[0], loop.lower, loop.upper, origin, loop.parallel)
            return TransformResult([out], {"part_of": part_of})
        return TransformResult([loop], {"part_of": part_of})
    out_loops: list[Stmt] = []
    for pi, part in enumerate(parts):
        nm = ids[pi] if ids else _fresh(f"{loop.var}_d{pi + 1}", taken)
        out_loops.append(_renamed(loop, nm, loop.lower, loop.upper, origin, loop.parallel,
                                  part))
    return TransformResult(out_loops, {"part_of": part_of, "level": loop.name,
                                       "names": tuple(l.name for l in out_loops)})


def fuse(program: Program, loops: list[ForLoop], fused_id: str, uid: int) -> TransformResult:
    """Concatenate adjacent sibling loops with identical domains into one."""
    first = loops[0]
    lo, up, st = first.lower, first.upper, first.step
    env = program.param_ranges(include_opaque=False)
    for outer in locate(program.body, first)[3]:
        env = {**env, outer.var: loop_range(outer, env)[1]}
    for l in loops[1:]:
        if not (_same(lo, l.lower, env) and _same(up, l.upper, env)) or l.step != st:
            raise TransformError(f"fuse requires identical loop domains; "
                                 f"'{l.name}' differs from '{first.name}'")
    body: list[Stmt] = []
    loop_of: dict[str, int] = {}
    for li, l in enumerate(loops):
        for inner in iter_stmts(l.body):
            if isinstance(inner, Assign):
                loop_of[inner.stmt_id] = li
        body.extend(subst_body(l.body, {l.var: VarRef(fused_id)}))
    out = _make_loop(fused_id, lo, up, st, body, fused_id, _gen("fuse", uid))
    return TransformResult([out], {"loop_of": loop_of, "names": [l.name for l in loops],
                                   "fused_id": fused_id})


def _same(kept: Expr, dropped: Expr, env: dict) -> bool:
    """Whether the fused loop's bound `kept` gives `dropped`'s value and
    fault.  `dropped` was valued after the loops before it ran, so it may
    read no array; then both simplify to one expression, or they are one
    affine form and `interval` under `env` (the params and the enclosing
    loops' variables) proves that `dropped` cannot fault."""
    if array_reads(dropped):
        return False
    if simplify(kept) == simplify(dropped):
        return True
    return affine(BinOp("-", kept, dropped), {}, {}) == {} and interval(dropped, env) is not None


def _level_meta(program: Program, loop: ForLoop) -> dict:
    """Reverse's meta: `loop`'s name, constant trip count (or None), bounds."""
    return {"level": loop.name, "trips": _const_trips(program, loop),
            "bounds": (loop.lower, loop.upper, loop.step)}


def reverse(program: Program, loop: ForLoop, uid: int) -> TransformResult:
    """Iterate the domain back to front."""
    meta = _level_meta(program, loop)
    trips = meta["trips"]
    if trips is not None:
        last: Expr = IntLit((trips - 1) * loop.step)
    else:
        last = BinOp("*", BinOp("-", _trips_expr(loop), IntLit(1)), IntLit(loop.step))
    top = simplify(BinOp("+", BinOp("+", loop.lower, loop.lower), last))
    final = simplify(BinOp("+", loop.lower, last))
    # where `top` overflows and the last value folds, reflect within the loop's values
    if type(top) is not IntLit and type(final) is IntLit:
        reflect = BinOp("+", loop.lower, BinOp("-", final, VarRef(loop.var)))
    else:
        reflect = simplify(BinOp("-", top, VarRef(loop.var)))
    body = subst_body(loop.body, {loop.var: reflect})
    out = _make_loop(loop.var, loop.lower, loop.upper, loop.step, body,
                     loop.name, _gen("reverse", uid), loop.parallel)
    return TransformResult([out], meta)


def parallel_mark(program: Program, loop: ForLoop) -> TransformResult:
    """Mark a loop's iterations as safe to run in any order, with reverse's
    meta and `mark` (reverse's schedule checks a mark).  `--verify` runs a
    marked loop in source order only, so it cannot catch a wrong mark (ROADMAP item 2)."""
    out = subst_stmt(loop, {})
    out.parallel = True
    return TransformResult([out], {**_level_meta(program, loop), "mark": True})


def _nest_chain(nodes: list, what: str, ordered_names: tuple[str, ...] | None = None) -> list[ForLoop]:
    """Validate that the target loops form a perfect band; returns them
    outermost first.  With `ordered_names` the written order must already be
    the nest order (tile/collapse ids pair up positionally)."""
    # order targets by nesting depth: outermost first
    def depth_key(l):
        return sum(1 for other in nodes
                   if other is not l and any(s is l for s in iter_stmts(other.body)))
    chain_sorted = sorted(nodes, key=depth_key)
    names = ordered_names if ordered_names is not None else tuple(l.name for l in chain_sorted)
    chain = perfect_nest(chain_sorted[0], len(names))
    if len(chain) < len(names):
        raise TransformError(
            f"{what} requires {len(names)} perfectly nested loops "
            f"(consider an explicit nestify step, which this tool does not provide)")
    got = tuple(l.name for l in chain)
    if got != tuple(names):
        raise TransformError(f"{what} targets must be perfectly nested in order; "
                             f"found {', '.join(got)}")
    return chain


def _adjacent_siblings(cand: Program, nodes: list) -> list[ForLoop]:
    container, idx = locate(cand.body, nodes[0])[:2]
    for k, n in enumerate(nodes):
        if idx + k >= len(container) or container[idx + k] is not n:
            raise TransformError("fuse targets must be adjacent siblings, "
                                 "in source order")
    return nodes


# ---------------------------------------------------------------------------
# The kind table

# What a directive's targets are:
LOOP = "loop"          # one loop, the following one unless named
NEST = "nest"          # a perfect nest, named in nest order; `band` gives its depth
BAND = "band"          # a perfect band named in any order; `band` gives the names
SIBLINGS = "siblings"  # adjacent sibling loops, named explicitly


@dataclass(frozen=True)
class Kind:
    """Everything the engine knows about one directive kind."""

    name: str                  # canonical, as in `Directive.kind`
    surface: str               # the pragma spelling
    # clause -> value shape, in print order; the shapes are "int", "ints",
    # "id", "ids", "flag", "keyword:a|b" and "groups"
    clauses: dict[str, str]
    # (program, target loops, clauses with ids filled in, uid, taken names)
    build: Callable[..., TransformResult]
    shape: str = LOOP
    band: Callable[[dict], object] | None = None
    # (written clauses, written targets) -> the first broken rule, or None
    check: Callable[[dict, tuple[str, ...]], str | None] | None = None
    # id clause -> suffix of its default name (None: named at apply time)
    ids: dict[str, str | None] = field(default_factory=dict)
    # (clauses, targets, clauses with ids) -> (consumed, introduced), where
    # it is not "the targets, replaced by the id clauses' loops"
    renames: Callable | None = None
    # (program, targets, clauses, candidate meta) -> valid whatever the
    # dependences are
    always_valid: Callable[..., bool] | None = None
    # where an order-changing rewrite (or a mark, as a check) sends each
    # instance; a kind without one keeps the order by construction and is
    # always valid
    schedule: Callable | None = None
    # (dependence set, meta) -> Verdict, from the distance vectors
    conservative: Callable | None = None

    def validate(self, clauses: dict, targets: tuple[str, ...]) -> str | None:
        """Why a written pragma is malformed, or None."""
        msg = self.check(clauses, targets) if self.check else None
        if not msg and self.shape == LOOP and len(targets) > 1:
            msg = f"{self.surface} targets a single loop"
        if not msg and len(set(targets)) < len(targets):
            msg = f"{self.surface} names a target loop twice"
        return msg

    def with_ids(self, clauses: dict, targets: tuple[str, ...]) -> dict:
        """`clauses` with every id clause filled in.  Defaults derive from the
        consumed loops' names: `_f`/`_t` for strip and tile levels, `_o`/`_i`
        for stripes, `_p`/`_e` for peels, `_c` for collapse, `_fused` for
        fusion.  Distribute's loops are named at apply time unless `ids` is
        written."""
        out = dict(clauses)
        t0 = targets[0] if targets else ""
        for clause, suffix in self.ids.items():
            if self.clauses[clause] == "id":
                out[clause] = clauses.get(clause, t0 + suffix)
            else:
                default = () if suffix is None else tuple(t + suffix for t in targets)
                out[clause] = tuple(clauses.get(clause, default))
        return out

    def effects(self, clauses: dict, targets: tuple[str, ...]):
        """(consumed names, introduced names) of one directive, for planning."""
        a = self.with_ids(clauses, targets)
        if self.renames is not None:
            return self.renames(clauses, targets, a)
        if not self.ids:
            return targets, targets  # the loops keep their names
        intro: list[str] = []
        for clause in self.ids:
            intro.extend(a[clause] if self.clauses[clause] == "ids" else (a[clause],))
        return targets, tuple(intro)

    def loops(self, program: Program, nodes: list, targets: tuple[str, ...]) -> list[ForLoop]:
        """The target loops, outermost first, checked against the shape."""
        for n in nodes:
            _require_for(n, self.surface)
        if self.shape == LOOP:
            return nodes[:1]
        if self.shape == SIBLINGS:
            return _adjacent_siblings(program, nodes)
        return _nest_chain(nodes, self.surface, targets if self.shape == NEST else None)


def _requires(surface: str, clause: str, low: int):
    """The rule that `clause(n)` is written, with n >= low."""
    def check(c, targets):
        if clause not in c:
            return f"{surface} requires {clause}(n)"
        if c[clause] < low:
            return f"{surface} {clause} must be >= {low}"
    return check


def _check_tile(c, targets):
    if "sizes" not in c:
        return "tile requires a sizes(...) clause"
    if any(s < 1 for s in c["sizes"]):
        return "tile sizes must be >= 1"
    k = len(c["sizes"])
    for idc in ("floor_ids", "tile_ids"):
        if idc in c and len(c[idc]) != k:
            return f"{idc} must name {k} loops"
    if targets and len(targets) != k:
        return "tile target count must match sizes(...)"


def _check_unroll(c, targets):
    if ("factor" in c) == ("full" in c):
        return "unroll requires exactly one of factor(n) or full"
    if "factor" in c and c["factor"] < 2:
        return "unroll factor must be >= 2"


def _check_interchange(c, targets):
    if "permutation" not in c:
        return "interchange requires permutation(...)"
    perm = c["permutation"]
    if len(set(perm)) != len(perm):
        return "permutation names must be distinct"
    if targets and not set(targets) <= set(perm):
        return "interchange targets must appear in the permutation"


_PEEL_MODES = ("first", "last", "multiple")


def _check_peel(c, targets):
    specs = [k for k in _PEEL_MODES if k in c]
    if len(specs) != 1:
        return "peel requires exactly one of first(k), last(k), multiple(n)"
    if specs[0] in ("first", "last") and c[specs[0]] < 0:
        return f"peel {specs[0]} count must be >= 0"
    if specs[0] == "multiple" and c["multiple"] < 1:
        return "peel multiple must be >= 1"


def _peel_renames(c, targets, a):
    if c.get("first") == 0:
        return (), ()
    if "first" in c:
        return targets, (a["prologue_id"], a["main_id"])
    return targets, (a["main_id"], a["epilogue_id"])


def _check_collapse(c, targets):
    if "levels" in c and c["levels"] < 1:
        return "collapse levels must be >= 1"
    if not targets and "levels" not in c:
        return "collapse without loop(...) targets requires levels(n)"
    if targets and len(targets) != c.get("levels", len(targets)):
        return "collapse target count must match levels(...)"


def _tile_keeps_order(program, targets, clauses, meta) -> bool:
    """One level, or tiles that each cover their whole loop."""
    if len(targets) == 1:
        return True
    for t, size in zip(targets, clauses["sizes"]):
        trips = _const_trips(program, find_loop(program.body, t))
        if trips is None or size < trips:
            return False
    return True


def _level_rule(depset, meta):
    return legality.judge_level_conservative(depset, meta["level"])


KINDS: dict[str, Kind] = {k.name: k for k in (
    Kind("tile", "tile",
         {"sizes": "ints", "floor_ids": "ids", "tile_ids": "ids",
          "peel": "keyword:rectangular|none"},
         lambda p, loops, a, uid, taken: tile(
             p, loops, a["sizes"], a["floor_ids"], a["tile_ids"],
             a.get("peel", "none"), uid, taken),
         shape=NEST, band=lambda c: len(c["sizes"]), check=_check_tile,
         ids={"floor_ids": "_f", "tile_ids": "_t"}, always_valid=_tile_keeps_order,
         schedule=tile_schedule,
         conservative=lambda ds, m: legality.judge_band_nonneg_conservative(ds, m["band"])),
    Kind("strip_mine", "stripmine", {"size": "int", "floor_id": "id", "tile_id": "id"},
         lambda p, loops, a, uid, taken: strip_mine(
             p, loops[0], a["size"], a["floor_id"], a["tile_id"], uid),
         check=_requires("stripmine", "size", 1), ids={"floor_id": "_f", "tile_id": "_t"}),
    Kind("stripe_mine", "stripemine", {"count": "int", "outer_id": "id", "inner_id": "id"},
         lambda p, loops, a, uid, taken: stripe_mine(
             p, loops[0], a["count"], a["outer_id"], a["inner_id"], uid),
         check=_requires("stripemine", "count", 1), ids={"outer_id": "_o", "inner_id": "_i"},
         schedule=stripe_schedule, conservative=_level_rule),
    Kind("unroll", "unroll", {"factor": "int", "full": "flag"},
         lambda p, loops, a, uid, taken: (
             unroll_full(p, loops[0]) if "full" in a
             else unroll_partial(p, loops[0], a["factor"], uid)),
         check=_check_unroll, renames=lambda c, t, a: (t, () if "full" in c else t)),
    Kind("unroll_and_jam", "unrollingandjam", {"factor": "int"},
         lambda p, loops, a, uid, taken: unroll_and_jam(p, loops[0], a["factor"], uid),
         check=_requires("unrollingandjam", "factor", 2), schedule=jam_schedule,
         conservative=lambda ds, m: legality.judge_permutation_conservative(ds, m["jam_order"])),
    Kind("interchange", "interchange", {"permutation": "ids"},
         lambda p, loops, a, uid, taken: interchange(loops, a["permutation"], uid),
         shape=BAND, band=lambda c: tuple(c["permutation"]), check=_check_interchange,
         always_valid=lambda p, t, c, m: m["band"] == m["order"],
         schedule=interchange_schedule,
         conservative=lambda ds, m: legality.judge_permutation_conservative(ds, m["order"])),
    Kind("peel", "peel",
         {"first": "int", "last": "int", "multiple": "int",
          "prologue_id": "id", "main_id": "id", "epilogue_id": "id"},
         lambda p, loops, a, uid, taken: peel(
             p, loops[0], next((m, a[m]) for m in _PEEL_MODES if m in a),
             a["prologue_id"], a["main_id"], a["epilogue_id"], uid),
         check=_check_peel, ids={"prologue_id": "_p", "main_id": "", "epilogue_id": "_e"},
         renames=_peel_renames),
    Kind("collapse", "collapse", {"collapsed_id": "id", "levels": "int"},
         lambda p, loops, a, uid, taken: collapse(loops, a["collapsed_id"], uid),
         shape=NEST, band=lambda c: c["levels"], check=_check_collapse,
         ids={"collapsed_id": "_c"}),
    Kind("distribute", "distribute", {"parts": "groups", "ids": "ids"},
         lambda p, loops, a, uid, taken: distribute(
             loops[0], a.get("parts"), a["ids"], uid, taken),
         ids={"ids": None},
         always_valid=lambda p, t, c, m: len(set(m["part_of"].values())) <= 1,
         schedule=distribute_schedule,
         conservative=lambda ds, m: legality.judge_parts_conservative(ds, m["part_of"])),
    Kind("fuse", "fuse", {"fused_id": "id"},
         lambda p, loops, a, uid, taken: fuse(p, loops, a["fused_id"], uid),
         shape=SIBLINGS, ids={"fused_id": "_fused"}, schedule=fuse_schedule,
         conservative=lambda ds, m: legality.judge_fused_conservative(ds, m["loop_of"])),
    Kind("reverse", "reverse", {},
         lambda p, loops, a, uid, taken: reverse(p, loops[0], uid),
         schedule=reverse_schedule, conservative=_level_rule),
    Kind("parallel", "parallel", {},
         lambda p, loops, a, uid, taken: parallel_mark(p, loops[0]),
         schedule=reverse_schedule, conservative=_level_rule),
)}

BY_SURFACE: dict[str, Kind] = {k.surface: k for k in KINDS.values()}

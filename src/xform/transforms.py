"""The transformation catalog and the directive pipeline.

Every transformation is a replacement: it removes the loops it applies to
and splices the rewritten subtree in their place, so follow-up directives see
the result as if it had been written in the source.  Generated loops take
their names (and variables) from the id-clauses, with predictable defaults.

Order-preserving rewrites (strip-mine, unroll, peel, collapse) are always
valid.  Everything else is checked against the dependence analysis: in exact
mode every conflicting instance pair must keep its execution order in the
candidate tree; in conservative mode per-kind distance-vector rules apply.
The exact conflict graph is built once per region and carried from step to
step for as long as each step is exact and always valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import deps as depmod
from . import legality
from .deps import (
    DepsError, _CapExceeded, _Unanalyzable, _eval_static, enumerate_instances,
)
from .ir import PlannedDirective, PlannedPipeline, default_ids
from .lang import (
    Assign, BinOp, Block, Call, Directive, Expr, ForLoop, IfStmt, IntLit,
    Program, Stmt, VarRef, WhileLoop, clone_body, clone_program, clone_stmt,
    containing_list, find_loop, free_vars, iter_loops, iter_stmts, simplify,
    strip_pragmas, subst, subst_body,
)
from .legality import (
    HARD_ERROR, IMPOSSIBLE, KEEP_ORIGINAL, TRANSFORM, TRANSFORM_WITH_RTC,
    Action, Verdict, warning_text,
)


class TransformError(Exception):
    """Structural impossibility; the legality layer maps this to a verdict."""


@dataclass
class TransformResult:
    replacement: list[Stmt]
    binds: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared helpers


def _eval_const(program: Program, e: Expr):
    try:
        return _eval_static(e, program.param_values(include_opaque=False),
                            program.opaque_params())
    except _Unanalyzable:
        return None


def _const_trips(program: Program, loop: ForLoop):
    """Trip count when it is a compile-time constant, else None."""
    lb = _eval_const(program, loop.lower)
    ub = _eval_const(program, loop.upper)
    if lb is not None and ub is not None:
        return max(0, -(-(ub - lb) // loop.step))
    extent = simplify(BinOp("-", loop.upper, loop.lower))
    if isinstance(extent, IntLit):
        return max(0, -(-extent.value // loop.step))
    return None


def _trips_expr(loop: ForLoop) -> Expr:
    return simplify(BinOp("/", BinOp("-", BinOp("+", loop.upper, IntLit(loop.step - 1)),
                                     loop.lower), IntLit(loop.step)))


def _has_opaque(program: Program, *exprs: Expr) -> bool:
    opq = program.opaque_params()
    return any(free_vars(e) & opq for e in exprs)


def _perfect_chain(loop: ForLoop, names: tuple[str, ...], what: str) -> list[ForLoop]:
    """The k loops of a perfect nest starting at `loop`, validated against
    the requested names (in nest order)."""
    chain = [loop]
    cur = loop
    while len(chain) < len(names):
        if len(cur.body) == 1 and isinstance(cur.body[0], ForLoop):
            cur = cur.body[0]
            chain.append(cur)
        else:
            raise TransformError(
                f"{what} requires {len(names)} perfectly nested loops "
                f"(consider an explicit nestify step, which this tool does not provide)")
    got = tuple(l.name for l in chain)
    if got != tuple(names):
        raise TransformError(f"{what} targets must be perfectly nested in order; "
                             f"found {', '.join(got)}")
    return chain


def _require_rectangular(chain: list[ForLoop], what: str):
    band_vars = {l.var for l in chain}
    for l in chain:
        if (free_vars(l.lower) | free_vars(l.upper)) & band_vars:
            raise TransformError(f"{what} requires a rectangular loop band; "
                                 f"bounds of '{l.name}' depend on a band variable")


def _require_for(node, what: str) -> ForLoop:
    if isinstance(node, WhileLoop):
        raise TransformError(f"{what} requires a canonical for-loop, not a while-loop")
    assert isinstance(node, ForLoop)
    return node


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


# ---------------------------------------------------------------------------
# Catalog


def strip_mine(program: Program, loop: ForLoop, size: int, floor_id: str,
               tile_id: str, uid: int) -> TransformResult:
    """Split one loop into strips of `size` iterations; order preserving."""
    if size < 1:
        raise TransformError("strip size must be >= 1")
    block = loop.step * size
    trips = _const_trips(program, loop)
    divisible = trips is not None and trips % size == 0
    tile_upper: Expr = BinOp("+", VarRef(floor_id), IntLit(block))
    if not divisible:
        tile_upper = Call("min", (tile_upper, loop.upper))
    body = subst_body(loop.body, {loop.var: VarRef(tile_id)})
    tile = _make_loop(tile_id, VarRef(floor_id), tile_upper, loop.step, body,
                      tile_id, _gen("strip_mine", uid))
    floor = _make_loop(floor_id, loop.lower, loop.upper, block, [tile],
                       floor_id, _gen("strip_mine", uid), loop.parallel)
    return TransformResult([floor], {floor_id: floor_id, tile_id: tile_id})


def tile(program: Program, chain: list[ForLoop], sizes: tuple[int, ...],
         floor_ids: tuple[str, ...], tile_ids: tuple[str, ...],
         peel: str, uid: int, taken: set[str]) -> TransformResult:
    """Block a perfect nest: floor loops walk tile origins, tile loops walk
    the points inside one tile.  peel=rectangular splits partial tiles into
    separate epilogue nests so every remaining tile is full."""
    _require_rectangular(chain, "tile")
    k = len(chain)
    origin = _gen("tile", uid)
    notes: list[str] = []
    binds = {}
    for n in list(floor_ids) + list(tile_ids):
        binds[n] = n

    lowers = [l.lower for l in chain]
    uppers = [l.upper for l in chain]
    steps = [l.step for l in chain]
    blocks = [steps[d] * sizes[d] for d in range(k)]
    inner_body = chain[-1].body

    if peel != "rectangular":
        body = subst_body(inner_body, {chain[d].var: VarRef(tile_ids[d]) for d in range(k)})
        nest: list[Stmt] = body
        for d in reversed(range(k)):
            trips = _const_trips(program, chain[d])
            divisible = trips is not None and trips % sizes[d] == 0
            up: Expr = BinOp("+", VarRef(floor_ids[d]), IntLit(blocks[d]))
            if not divisible:
                up = Call("min", (up, uppers[d]))
            nest = [_make_loop(tile_ids[d], VarRef(floor_ids[d]), up, steps[d],
                               nest, tile_ids[d], origin)]
        for d in reversed(range(k)):
            nest = [_make_loop(floor_ids[d], lowers[d], uppers[d], blocks[d],
                               nest, floor_ids[d], origin,
                               chain[d].parallel if d == 0 else False)]
        return TransformResult(nest, binds, notes, {"band": [l.name for l in chain]})

    # rectangular peeling: split each dimension into a full part (exact
    # tiles) and a remainder, and emit one nest per region
    splits: list[Expr] = []
    rema: list[bool] = []  # remainder possibly non-empty?
    for d in range(k):
        trips = _const_trips(program, chain[d])
        if trips is not None:
            full = (trips // sizes[d]) * sizes[d]
            split = simplify(BinOp("+", lowers[d], IntLit(full * steps[d])))
            rem = trips - full > 0
        else:
            ext = BinOp("-", uppers[d], lowers[d])
            split = simplify(BinOp("+", lowers[d],
                                   BinOp("*", BinOp("/", ext, IntLit(blocks[d])),
                                         IntLit(blocks[d]))))
            rem = True
        splits.append(split)
        rema.append(rem)

    regions: list[Stmt] = []
    for mask in range(1 << k):
        partial = [bool(mask >> d & 1) for d in range(k)]
        if any(partial[d] and not rema[d] for d in range(k)):
            continue
        main_region = mask == 0
        suffix = f"_p{mask}"
        floors: list[tuple] = []
        points: list[tuple] = []  # (var, lower, upper, step, name)
        vmap: dict[str, Expr] = {}
        for d in range(k):
            if partial[d]:
                nm = _fresh(tile_ids[d] + suffix, taken)
                points.append((nm, splits[d], uppers[d], steps[d], nm))
                vmap[chain[d].var] = VarRef(nm)
            else:
                fnm = floor_ids[d] if main_region else _fresh(floor_ids[d] + suffix, taken)
                tnm = tile_ids[d] if main_region else _fresh(tile_ids[d] + suffix, taken)
                floors.append((fnm, lowers[d], splits[d], blocks[d], fnm))
                points.append((tnm, VarRef(fnm), BinOp("+", VarRef(fnm), IntLit(blocks[d])),
                               steps[d], tnm))
                vmap[chain[d].var] = VarRef(tnm)
        body = subst_body(inner_body, vmap)
        nest: list[Stmt] = body
        for (var, lo, up, st, nm) in reversed(points):
            nest = [_make_loop(var, lo, up, st, nest, nm, origin)]
        for (var, lo, up, st, nm) in reversed(floors):
            nest = [_make_loop(var, lo, up, st, nest, nm, origin)]
        if not main_region:
            notes.append(f"peel residue region {mask}")
        regions.extend(nest)
    return TransformResult(regions, binds, notes, {"band": [l.name for l in chain]})


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
    return TransformResult([outer], {outer_id: outer_id, inner_id: inner_id},
                           meta={"level": loop.name})


def unroll_full(program: Program, loop: ForLoop, uid: int) -> TransformResult:
    trips = _const_trips(program, loop)
    if trips is None:
        raise TransformError("full unroll requires a constant trip count")
    out: list[Stmt] = []
    for k in range(trips):
        val = simplify(BinOp("+", loop.lower, IntLit(k * loop.step)))
        out.extend(subst_body(clone_body(loop.body), {loop.var: val}))
    return TransformResult(out)


def unroll_partial(program: Program, loop: ForLoop, factor: int, uid: int) -> TransformResult:
    """Strip-mine by `factor`, then fully unroll the strip: the remaining
    loop keeps its name, copies past the first are guarded when the trip
    count may not divide."""
    trips = _const_trips(program, loop)
    divisible = trips is not None and trips % factor == 0
    v = loop.var
    newbody: list[Stmt] = clone_body(loop.body)
    for k in range(1, factor):
        off = simplify(BinOp("+", VarRef(v), IntLit(k * loop.step)))
        copy = subst_body(clone_body(loop.body), {v: off})
        if divisible:
            newbody.extend(copy)
        else:
            newbody.append(IfStmt(BinOp("<", off, loop.upper), copy,
                                  None, f"g{uid}_{k}"))
    out = _make_loop(v, loop.lower, loop.upper, loop.step * factor, newbody,
                     loop.name, _gen("unroll", uid), loop.parallel)
    return TransformResult([out], {loop.name: loop.name})


def unroll_and_jam(program: Program, loop: ForLoop, factor: int, uid: int) -> TransformResult:
    """Unroll an outer loop and jam the copies into the innermost body of the
    perfect nest below it; checked as strip-mine + interchange + full unroll."""
    chain: list[ForLoop] = []
    cur = loop
    while len(cur.body) == 1 and isinstance(cur.body[0], ForLoop):
        cur = cur.body[0]
        chain.append(cur)
    if not chain:
        raise TransformError("unroll-and-jam requires a perfectly nested "
                             "inner loop to jam into")
    for inner in chain:
        if loop.var in (free_vars(inner.lower) | free_vars(inner.upper)):
            raise TransformError("unroll-and-jam requires inner bounds that do "
                                 f"not depend on '{loop.name}'")
    trips = _const_trips(program, loop)
    divisible = trips is not None and trips % factor == 0
    v = loop.var
    innermost = chain[-1]
    jammed: list[Stmt] = clone_body(innermost.body)
    for k in range(1, factor):
        off = simplify(BinOp("+", VarRef(v), IntLit(k * loop.step)))
        copy = subst_body(clone_body(innermost.body), {v: off})
        if divisible:
            jammed.extend(copy)
        else:
            jammed.append(IfStmt(BinOp("<", off, loop.upper), copy,
                                 None, f"g{uid}_{k}"))
    origin = _gen("unroll_and_jam", uid)
    nest: list[Stmt] = jammed
    for l in reversed(chain):
        nest = [_make_loop(l.var, l.lower, l.upper, l.step, nest, l.name,
                           l.origin, l.parallel)]
    out = _make_loop(v, loop.lower, loop.upper, loop.step * factor, nest,
                     loop.name, origin, loop.parallel)
    meta = {"band": [loop.name] + [l.name for l in chain],
            "jam_order": [l.name for l in chain] + [loop.name]}
    return TransformResult([out], {loop.name: loop.name}, meta=meta)


def interchange(program: Program, chain: list[ForLoop], permutation: tuple[str, ...],
                uid: int) -> TransformResult:
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
    meta = {"band": [l.name for l in chain], "order": list(permutation)}
    return TransformResult(nest, meta=meta)


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
        pro = _make_loop(prologue_id, loop.lower, Call("min", (cut, loop.upper)),
                         loop.step, subst_body(loop.body, {loop.var: VarRef(prologue_id)}),
                         prologue_id, origin)
        trips = _const_trips(program, loop)
        if trips is not None and n <= trips:
            pro.upper = simplify(cut)
        main = _make_loop(main_id, cut, loop.upper, loop.step,
                          subst_body(loop.body, {loop.var: VarRef(main_id)}),
                          main_id, origin, loop.parallel)
        return TransformResult([pro, main], {prologue_id: prologue_id, main_id: main_id})
    trips = _const_trips(program, loop)
    if trips is None or _has_opaque(program, loop.lower, loop.upper):
        raise TransformError(f"peel {mode}({n}) needs a computable trip count")
    keep = max(trips - n, 0) if mode == "last" else trips - (trips % n)
    cut = simplify(BinOp("+", loop.lower, IntLit(keep * loop.step)))
    main = _make_loop(main_id, loop.lower, cut, loop.step,
                      subst_body(loop.body, {loop.var: VarRef(main_id)}),
                      main_id, origin, loop.parallel)
    epi = _make_loop(epilogue_id, cut, loop.upper, loop.step,
                     subst_body(loop.body, {loop.var: VarRef(epilogue_id)}),
                     epilogue_id, origin)
    return TransformResult([main, epi], {main_id: main_id, epilogue_id: epilogue_id})


def collapse(program: Program, chain: list[ForLoop], collapsed_id: str,
             uid: int) -> TransformResult:
    """Flatten a rectangular perfect nest into one loop over logical
    iteration numbers 0..prod(trips), row-major, delinearized in the body."""
    _require_rectangular(chain, "collapse")
    k = len(chain)
    trips = [_trips_expr(l) for l in chain]
    total: Expr = trips[0]
    for t in trips[1:]:
        total = BinOp("*", total, t)
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
    return TransformResult([out], {collapsed_id: collapsed_id})


def distribute(program: Program, loop: ForLoop, groups, ids: tuple[str, ...],
               uid: int, taken: set[str]) -> TransformResult:
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
    stmt_of = {s.stmt_id: s for s in loop.body}
    origin = _gen("distribute", uid)
    part_of: dict[str, int] = {}
    for pi, g in enumerate(groups):
        for sid in g:
            for inner in iter_stmts([stmt_of[sid]]):
                if isinstance(inner, Assign):
                    part_of[inner.stmt_id] = pi
    if len(groups) == 1:
        if ids:
            nm = ids[0]
            body = subst_body(loop.body, {loop.var: VarRef(nm)})
            out = _make_loop(nm, loop.lower, loop.upper, loop.step, body, nm,
                             origin, loop.parallel)
            return TransformResult([out], {nm: nm}, meta={"part_of": part_of})
        return TransformResult([loop], meta={"part_of": part_of})
    out_loops: list[Stmt] = []
    binds = {}
    for pi, g in enumerate(groups):
        nm = ids[pi] if ids else _fresh(f"{loop.name}_d{pi + 1}", taken)
        binds[nm] = nm
        body = subst_body([clone_stmt(stmt_of[sid]) for sid in g],
                          {loop.var: VarRef(nm)})
        out_loops.append(_make_loop(nm, loop.lower, loop.upper, loop.step,
                                    body, nm, origin, loop.parallel))
    return TransformResult(out_loops, binds, meta={"part_of": part_of})


def fuse(program: Program, loops: list[ForLoop], fused_id: str, uid: int) -> TransformResult:
    """Concatenate adjacent sibling loops with identical domains into one."""
    first = loops[0]
    lo, up, st = simplify(first.lower), simplify(first.upper), first.step
    for l in loops[1:]:
        if simplify(l.lower) != lo or simplify(l.upper) != up or l.step != st:
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
    return TransformResult([out], {fused_id: fused_id}, meta={"loop_of": loop_of})


def reverse(program: Program, loop: ForLoop, uid: int) -> TransformResult:
    """Iterate the domain back to front."""
    trips = _const_trips(program, loop)
    if trips is not None:
        top = simplify(BinOp("+", BinOp("+", loop.lower, loop.lower),
                             IntLit((trips - 1) * loop.step)))
    else:
        t = _trips_expr(loop)
        top = simplify(BinOp("+", BinOp("+", loop.lower, loop.lower),
                             BinOp("*", BinOp("-", t, IntLit(1)), IntLit(loop.step))))
    reflect = simplify(BinOp("-", top, VarRef(loop.var)))
    body = subst_body(loop.body, {loop.var: reflect})
    out = _make_loop(loop.var, loop.lower, loop.upper, loop.step, body,
                     loop.name, _gen("reverse", uid), loop.parallel)
    return TransformResult([out], {loop.name: loop.name}, meta={"level": loop.name})


def parallel_mark(program: Program, loop: ForLoop, uid: int) -> TransformResult:
    """Mark a loop's iterations as safe to run in any order (no structural
    change; verified by permuted execution)."""
    out = clone_stmt(loop)
    out.parallel = True
    return TransformResult([out], meta={"level": loop.name})


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
    ids = default_ids(d.kind, d.clauses, pd.targets)
    taken = {l.name for l in iter_loops(cand.body)}
    nodes = []
    for t in pd.targets:
        n = find_loop(cand.body, t)
        if n is None:
            raise TransformError(f"loop '{t}' is not available")
        nodes.append(n)

    if d.kind == "tile":
        chain = _nest_chain(nodes, "tile", pd.targets)
        nodes = chain  # splice anchor is the outermost band loop
        res = tile(cand, chain, d.clauses["sizes"], ids["floor_ids"],
                   ids["tile_ids"], d.clauses.get("peel", "none"), d.uid, taken)
    elif d.kind == "strip_mine":
        loop = _require_for(nodes[0], "stripmine")
        res = strip_mine(cand, loop, d.clauses["size"], ids["floor_id"],
                         ids["tile_id"], d.uid)
    elif d.kind == "stripe_mine":
        loop = _require_for(nodes[0], "stripemine")
        res = stripe_mine(cand, loop, d.clauses["count"], ids["outer_id"],
                          ids["inner_id"], d.uid)
    elif d.kind == "unroll":
        loop = _require_for(nodes[0], "unroll")
        if "full" in d.clauses:
            res = unroll_full(cand, loop, d.uid)
        else:
            res = unroll_partial(cand, loop, d.clauses["factor"], d.uid)
    elif d.kind == "unroll_and_jam":
        loop = _require_for(nodes[0], "unrollingandjam")
        res = unroll_and_jam(cand, loop, d.clauses["factor"], d.uid)
    elif d.kind == "interchange":
        chain = _nest_chain(nodes, "interchange")
        nodes = chain
        res = interchange(cand, chain, d.clauses["permutation"], d.uid)
    elif d.kind == "peel":
        loop = _require_for(nodes[0], "peel")
        spec = next((m, d.clauses[m]) for m in ("first", "last", "multiple")
                    if m in d.clauses)
        res = peel(cand, loop, spec, ids["prologue_id"], ids["main_id"],
                   ids["epilogue_id"], d.uid)
    elif d.kind == "collapse":
        chain = _nest_chain(nodes, "collapse", pd.targets)
        nodes = chain
        res = collapse(cand, chain, ids["collapsed_id"], d.uid)
    elif d.kind == "distribute":
        loop = _require_for(nodes[0], "distribute")
        res = distribute(cand, loop, d.clauses.get("parts"), ids["ids"],
                         d.uid, taken)
    elif d.kind == "fuse":
        lps = _adjacent_siblings(cand, nodes)
        res = fuse(cand, lps, ids["fused_id"], d.uid)
    elif d.kind == "reverse":
        loop = _require_for(nodes[0], "reverse")
        res = reverse(cand, loop, d.uid)
    elif d.kind == "parallel":
        loop = _require_for(nodes[0], "parallel")
        res = parallel_mark(cand, loop, d.uid)
    else:
        raise AssertionError(d.kind)

    anchor = nodes[0]
    span_start = _top_index(cand, anchor)
    span_old_top = 1
    if d.kind == "fuse":
        tops = sorted({_top_index(cand, n) for n in nodes})
        span_start, span_old_top = tops[0], len(tops)
    found = containing_list(cand.body, anchor)
    assert found is not None
    container, idx = found
    count = len(nodes) if d.kind == "fuse" else 1
    container[idx:idx + count] = res.replacement
    if container is cand.body:
        span_new = span_old_top - count + len(res.replacement)
    else:
        span_new = span_old_top
    info = ApplyInfo(span_start, span_old_top, span_new, res.binds, res.notes, res.meta)
    return cand, info


def _nest_chain(nodes: list, what: str, ordered_names: tuple[str, ...] | None = None) -> list[ForLoop]:
    """Validate that the target loops form a perfect band; returns them
    outermost first.  With `ordered_names` the written order must already be
    the nest order (tile/collapse ids pair up positionally)."""
    for n in nodes:
        _require_for(n, what)
    # order targets by nesting depth: outermost first
    def depth_key(l):
        return sum(1 for other in nodes
                   if other is not l and any(s is l for s in iter_stmts(other.body)))
    chain_sorted = sorted(nodes, key=depth_key)
    names = ordered_names if ordered_names is not None else tuple(l.name for l in chain_sorted)
    return _perfect_chain(chain_sorted[0], names, what)


def _adjacent_siblings(cand: Program, nodes: list) -> list[ForLoop]:
    for n in nodes:
        _require_for(n, "fuse")
    found = containing_list(cand.body, nodes[0])
    if found is None:
        raise TransformError("fuse targets must be adjacent siblings")
    container, idx = found
    for k, n in enumerate(nodes):
        if idx + k >= len(container) or container[idx + k] is not n:
            raise TransformError("fuse targets must be adjacent siblings, "
                                 "in source order")
    return nodes


# ---------------------------------------------------------------------------
# Pipeline


ORDER_PRESERVING = {"strip_mine", "unroll", "peel", "collapse"}


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
    d = pd.directive
    if d.kind in ORDER_PRESERVING:
        return Verdict(legality.ALWAYS_VALID)
    if d.kind == "tile":
        if len(pd.targets) == 1:
            return Verdict(legality.ALWAYS_VALID)
        covers_all = True
        for t, size in zip(pd.targets, d.clauses["sizes"]):
            loop = find_loop(program.body, t)
            trips = _const_trips(program, loop)
            if trips is None or size < trips:
                covers_all = False
                break
        if covers_all:
            return Verdict(legality.ALWAYS_VALID)
    if d.kind == "interchange" and info.meta.get("band") == info.meta.get("order"):
        return Verdict(legality.ALWAYS_VALID)
    if d.kind == "distribute" and len(set(info.meta["part_of"].values())) <= 1:
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
        if d.kind == "parallel":
            return legality.judge_parallel_exact(depset, info.meta["level"])
        cstop = info.span_start + info.span_new
        cscope = candidate.body[info.span_start:cstop]
        try:
            cinsts = enumerate_instances(candidate, cscope, max_enum * 2)
        except DepsError as e:
            return Verdict(IMPOSSIBLE, str(e))
        except (_Unanalyzable, _CapExceeded):
            pass  # fall through to the conservative judgement
        else:
            verdict = legality.judge_exact(depset, cinsts)
            if verdict.kind == legality.ALWAYS_VALID:
                graph = depmod.reorder(depset, cinsts, cscope, max_enum)
                if graph is not None:
                    graphs[(info.span_start, cstop)] = graph
            return verdict

    if d.kind in ("reverse", "stripe_mine", "parallel"):
        return legality.judge_level_conservative(depset, info.meta["level"])
    if d.kind == "interchange":
        return legality.judge_permutation_conservative(depset, info.meta["order"])
    if d.kind == "unroll_and_jam":
        return legality.judge_permutation_conservative(depset, info.meta["jam_order"])
    if d.kind == "tile":
        return legality.judge_band_nonneg_conservative(depset, info.meta["band"])
    if d.kind == "distribute":
        return legality.judge_parts_conservative(depset, info.meta["part_of"])
    if d.kind == "fuse":
        loop_of = info.meta["loop_of"]
        for dep in depset.deps:
            if dep.src in loop_of and dep.snk in loop_of and loop_of[dep.src] != loop_of[dep.snk]:
                if dep.alias is not None:
                    return Verdict(legality.VALID_WITH_RTC, rtc_pairs=(dep.alias,))
                return Verdict(legality.INVALID, witness=dep)
        return Verdict(legality.ALWAYS_VALID)
    raise AssertionError(d.kind)


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
        if action.kind == TRANSFORM_WITH_RTC:
            atoms = tuple(sorted({a for t in tags[info.span_start:info.span_start + info.span_old]
                                  for a in t}))
            for a in atoms:
                rtc_conds.setdefault(a, {})
                for pair in action.rtc_pairs:
                    rtc_conds[a][pair] = None
        covered = tags[info.span_start:info.span_start + info.span_old]
        merged = tuple(dict.fromkeys(a for t in covered for a in t))
        cur = candidate
        tags[info.span_start:info.span_start + info.span_old] = [merged] * info.span_new

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

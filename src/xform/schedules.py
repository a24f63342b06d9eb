"""Schedules: where an order-changing step sends each instance.

A kind's `schedule` states, for an instance of the current region (its loop
names, trip counts and statement), the instance's loop names and trip
counts in the candidate and a key that orders it there (after Kelly & Pugh,
"A framework for unifying reordering transformations", 1993).  The keys:
`//` and `%` of a tile or stripe level, with the peel region of a tile
first; a negated trip for reverse; the copy of an unroll-and-jam after the
inner loops it is jammed into; the part of a distribution before its trip;
the loop of a fusion after its trip.  The instances of one execution of the
target loops run without a gap in the region, and the replacement runs
them in the same place.  So an instance's time in the candidate is the
tuple (position of the execution's first instance, key..., position), and
the time of an instance outside the targets is (position,): instances with
equal keys come from one iteration of the original body, which keeps their
order.

Each order-changing `Kind` names its schedule in `kinds.KINDS`.  A schedule
takes the step's meta (what its builder recorded), the depth of the target
loops and a function giving the values of the loops around them at given
trips, and returns the names of the outermost target loops and `rewrite`,
which gives an instance's loop names, trips and key in the candidate.
`placer` applies it to a region's instances.
"""

from __future__ import annotations

from operator import floordiv, itemgetter, mod

from .lang import Expr, ForLoop, interval, trip_count


def placer(schedule, meta: dict, outer: list[ForLoop], params: dict):
    """A kind's `schedule` of the region's instances: a function of the
    instances, in execution order, giving each one's (loop names, trips,
    time) in the candidate.  `outer` are the for-loops around the targets,
    outermost first, and `params` the params as points (`param_ranges`)."""
    depth = len(outer)
    heads, rewrite = schedule(meta, depth, _outer_values(outer, params))

    def place(instances) -> list[tuple]:
        first: dict = {}  # outer trips -> position of the execution's first instance
        out = []
        for inst in instances:
            loops = inst.loops
            if len(loops) > depth and loops[depth] in heads:
                start = first.setdefault(inst.logical[:depth], inst.pos)
                new_loops, new_logical, key = rewrite(inst)
                out.append((new_loops, new_logical, (start, *key, inst.pos)))
            else:
                out.append((loops, inst.logical, (inst.pos,)))
        return out
    return place


def _outer_values(outer: list[ForLoop], params: dict):
    """The values of the loops `outer` (outermost first), and the params,
    at given trip counts of those loops, as an environment of points,
    memoized."""
    memo: dict = {}

    def values(trips: tuple) -> dict:
        env = memo.get(trips)
        if env is None:
            env = dict(params)
            for loop, t in zip(outer, trips):
                v = interval(loop.lower, env)[0] + t * loop.step
                env[loop.var] = v, v
            memo[trips] = env
        return env
    return values


def _trips(lower: Expr, upper: Expr, step: int, env: dict) -> int:
    """The trip count of a loop over `env`'s points."""
    return trip_count(interval(lower, env)[0], interval(upper, env)[0], step)


def _renamer(depth: int, width: int, names):
    """Loop names with the `width` names at `depth` replaced by `names`."""
    memo: dict = {}
    names = tuple(names)

    def rename(loops: tuple) -> tuple:
        out = memo.get(loops)
        if out is None:
            out = memo[loops] = loops[:depth] + names + loops[depth + width:]
        return out
    return rename


def tile_schedule(meta, depth, values):
    sizes, regions, cuts = meta["sizes"], meta["regions"], meta["cuts"]
    k = len(sizes)
    renames = {mask: _renamer(depth, k, f + p) for mask, (f, p) in regions.items()}
    rename = renames[0]
    peeled = [(d, c) for d, c in enumerate(cuts) if c is not None]
    memo: dict = {}

    def starts(outer: tuple) -> dict:
        """Per peeled dimension, the trip at which its remainder starts."""
        out = memo.get(outer)
        if out is None:
            env = values(outer)
            out = memo[outer] = {d: c if type(c) is int else _trips(*c, env)
                                 for d, c in peeled}
        return out

    def rewrite(inst):
        logical = inst.logical
        band = logical[depth:depth + k]
        if not peeled:
            floors, points = tuple(map(floordiv, band, sizes)), tuple(map(mod, band, sizes))
            return (rename(inst.loops), logical[:depth] + floors + points + logical[depth + k:],
                    (0, *floors, *points))
        w = starts(logical[:depth])
        mask = sum(1 << d for d in w if band[d] >= w[d])
        floors = tuple([t // z for d, (t, z) in enumerate(zip(band, sizes))
                        if not mask >> d & 1])
        points = tuple([t - w[d] if mask >> d & 1 else t % z
                        for d, (t, z) in enumerate(zip(band, sizes))])
        return (renames[mask](inst.loops),
                logical[:depth] + floors + points + logical[depth + k:], (mask, *floors, *points))
    return meta["band"][:1], rewrite


def stripe_schedule(meta, depth, values):
    stride, rename = meta["stride"], _renamer(depth, 1, meta["ids"])

    def rewrite(inst):
        logical = inst.logical
        here = (logical[depth] % stride, logical[depth] // stride)
        return rename(inst.loops), logical[:depth] + here + logical[depth + 1:], here
    return (meta["level"],), rewrite


def jam_schedule(meta, depth, values):
    factor, inner = meta["factor"], depth + len(meta["jam_order"])

    def rewrite(inst):
        logical = inst.logical
        q, copy = divmod(logical[depth], factor)
        return (inst.loops, logical[:depth] + (q,) + logical[depth + 1:],
                (q, *logical[depth + 1:inner], copy))
    return meta["jam_order"][-1:], rewrite


def interchange_schedule(meta, depth, values):
    band, order = meta["band"], meta["order"]
    k, rename = len(band), _renamer(depth, len(band), order)
    pick = itemgetter(*[depth + band.index(name) for name in order])  # k > 1: a tuple

    def rewrite(inst):
        logical = inst.logical
        moved = pick(logical)
        return rename(inst.loops), logical[:depth] + moved + logical[depth + k:], moved
    return band[:1], rewrite


def distribute_schedule(meta, depth, values):
    part_of = meta["part_of"]
    renames = [_renamer(depth, 1, (name,)) for name in meta["names"]]

    def rewrite(inst):
        part = part_of[inst.stmt]
        return renames[part](inst.loops), inst.logical, (part, inst.logical[depth])
    return (meta["level"],), rewrite


def fuse_schedule(meta, depth, values):
    index = {name: i for i, name in enumerate(meta["names"])}
    rename = _renamer(depth, 1, (meta["fused_id"],))

    def rewrite(inst):
        loops = inst.loops
        return rename(loops), inst.logical, (inst.logical[depth], index[loops[depth]])
    return tuple(meta["names"]), rewrite


def reverse_schedule(meta, depth, values):
    trips, (lower, upper, step) = meta["trips"], meta["bounds"]
    memo: dict = {}

    def rewrite(inst):
        logical = inst.logical
        t = logical[depth]
        n = trips
        if n is None:
            outer = logical[:depth]
            n = memo.get(outer)
            if n is None:
                n = memo[outer] = _trips(lower, upper, step, values(outer))
        return inst.loops, logical[:depth] + (n - 1 - t,) + logical[depth + 1:], (-t,)
    return (meta["level"],), rewrite

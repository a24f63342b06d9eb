"""Schedules: where an order-changing step sends each instance.

A kind's `schedule` states, for an instance of the current region (its loop
names, trip counts and statement), the instance's loop names and trip
counts in the candidate and a key that orders it there (after Kelly & Pugh,
"A framework for unifying reordering transformations", 1993).  The keys:
`//` and `%` of a tile or stripe level, with the peel region of a tile
first; a negated trip for reverse; the copy of an unroll-and-jam after the
inner loops it is jammed into; the part of a distribution before its trip;
the loop of a fusion after its trip.

A placement gives each instance of a region, in the order of the region's
enumeration, its (loop names, trips, time) in one schedule: sorted by time,
the instances run in that schedule's order, and before any step the time is
the position.  The instances of one execution of the target loops run
without a gap in the current schedule, and the replacement runs them in the
same place.  So the times of stacked steps nest: an instance's time in the
candidate is (rep, key..., time), where `time` is its current time and `rep`
the current time of any member of its execution (`place` takes the first it
meets: no instance outside the execution runs between its members), and
that of an instance outside the targets is (time,).  Instances with equal
keys come from one iteration of the original body, which keeps their order.

Each order-changing `Kind` names its schedule in `kinds.KINDS`.  A schedule
takes the step's meta (what its builder recorded), the depth of the target
loops and a function giving the values of the loops around them at given
trips, and returns the names of the outermost target loops and `rewrite`,
which gives an instance's loop names, trips and key in the candidate from
its current ones and its statement; `placer` applies it to a placement.
"""

from __future__ import annotations

from operator import attrgetter, floordiv, itemgetter, mod

from .lang import Expr, ForLoop, interval, trip_count


def placer(schedule, meta: dict, outer: list[ForLoop], params: dict):
    """A kind's `schedule` of the region's instances: a function of the
    instances, in the order of their enumeration, and their current
    placement (None before any step), giving their placement in the
    candidate.  `outer` are the for-loops around the targets, outermost
    first, and `params` the params as points (`param_ranges`)."""
    depth = len(outer)
    heads, rewrite = schedule(meta, depth, _outer_values(outer, params))

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

    def rewrite(loops, logical, stmt):
        band = logical[depth:depth + k]
        if not peeled:
            floors, points = tuple(map(floordiv, band, sizes)), tuple(map(mod, band, sizes))
            return (rename(loops), logical[:depth] + floors + points + logical[depth + k:],
                    (0, *floors, *points))
        w = starts(logical[:depth])
        mask = sum(1 << d for d in w if band[d] >= w[d])
        floors = tuple([t // z for d, (t, z) in enumerate(zip(band, sizes))
                        if not mask >> d & 1])
        points = tuple([t - w[d] if mask >> d & 1 else t % z
                        for d, (t, z) in enumerate(zip(band, sizes))])
        return (renames[mask](loops),
                logical[:depth] + floors + points + logical[depth + k:], (mask, *floors, *points))
    return meta["band"][:1], rewrite


def stripe_schedule(meta, depth, values):
    stride, rename = meta["stride"], _renamer(depth, 1, meta["ids"])

    def rewrite(loops, logical, stmt):
        here = (logical[depth] % stride, logical[depth] // stride)
        return rename(loops), logical[:depth] + here + logical[depth + 1:], here
    return (meta["level"],), rewrite


def jam_schedule(meta, depth, values):
    factor, inner = meta["factor"], depth + len(meta["jam_order"])

    def rewrite(loops, logical, stmt):
        q, copy = divmod(logical[depth], factor)
        return (loops, logical[:depth] + (q,) + logical[depth + 1:],
                (q, *logical[depth + 1:inner], copy))
    return meta["jam_order"][-1:], rewrite


def interchange_schedule(meta, depth, values):
    band, order = meta["band"], meta["order"]
    k, rename = len(band), _renamer(depth, len(band), order)
    pick = itemgetter(*[depth + band.index(name) for name in order])  # k > 1: a tuple

    def rewrite(loops, logical, stmt):
        moved = pick(logical)
        return rename(loops), logical[:depth] + moved + logical[depth + k:], moved
    return band[:1], rewrite


def distribute_schedule(meta, depth, values):
    part_of = meta["part_of"]
    renames = [_renamer(depth, 1, (name,)) for name in meta["names"]]

    def rewrite(loops, logical, stmt):
        part = part_of[stmt]
        return renames[part](loops), logical, (part, logical[depth])
    return (meta["level"],), rewrite


def fuse_schedule(meta, depth, values):
    index = {name: i for i, name in enumerate(meta["names"])}
    rename = _renamer(depth, 1, (meta["fused_id"],))

    def rewrite(loops, logical, stmt):
        return rename(loops), logical, (logical[depth], index[loops[depth]])
    return tuple(meta["names"]), rewrite


def reverse_schedule(meta, depth, values):
    trips, (lower, upper, step) = meta["trips"], meta["bounds"]
    memo: dict = {}

    def rewrite(loops, logical, stmt):
        t = logical[depth]
        n = trips
        if n is None:
            outer = logical[:depth]
            n = memo.get(outer)
            if n is None:
                n = memo[outer] = _trips(lower, upper, step, values(outer))
        return loops, logical[:depth] + (n - 1 - t,) + logical[depth + 1:], (-t,)
    return (meta["level"],), rewrite

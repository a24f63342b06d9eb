"""Schedules: where an order-changing step sends each instance.

A step's schedule states, for the instances of the current region, their
loop names and trip counts in the candidate and a key that orders them
there (after Kelly & Pugh, "A framework for unifying reordering
transformations", 1993).  The keys: `//` and `%` of a tile or stripe level,
with the peel region of a tile first; a negated trip for reverse; the copy
of an unroll-and-jam after the inner loops it is jammed into; the part of a
distribution before its trip; the loop of a fusion after its trip.

A placement holds the instances of a region in classes: the instances of one
statement under the same loop names.  A class is `(positions, loops, stmt,
columns, times)`: the positions of its instances in the region's
enumeration, increasing; its loop names; its statement; one column of trips
per loop level; and one time per instance.  Sorted by time, the instances
run in that schedule's order, and before any step the time is the position
(`classes`).  A schedule rewrites a class's columns as a whole, with
C-level `map` and `zip`: within a class the statement, the loop names and
so a distribution's part, a fusion's index and every rename are constants.
Only a peeled tile splits a class, by the region each instance falls in.

The instances of one execution of the target loops run without a gap in the
current schedule, and the replacement runs them in the same place.  So the
times of stacked steps nest: an instance's time in the candidate is
`(rep, key..., time)`, built by one `zip` per class, where `time` is its
current time and `rep` the current time of the member of its execution that
comes first in the enumeration (any member would do: no instance outside
the execution runs between its members), and that of an instance outside
the targets is `(time,)`.  Instances with equal keys come from one
iteration of the original body, which keeps their order.  `times` lists
each instance's time in the order of enumeration, as `legality.judge_exact`
reads them.

A builder in `kinds` returns its step's schedule, or None where the step keeps
the order (a mark returns reverse's, as a check, and leaves the placement as
it is).  A schedule takes the step's meta (what its builder recorded), the
depth of the target loops and a function giving the values of the loops around
them at given trips, and returns the names of the outermost target loops and
`rewrite`.  Given a class's loop names, statement, columns and its instances'
outer trips, `rewrite` returns, per region of the candidate the class reaches,
the instances it keeps (None for all, else a selector), their loop names,
their columns and the columns of their key; `placer` applies it.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
from operator import floordiv, ge, lshift, mod, neg, or_, sub

from .lang import Expr, ForLoop, interval, trip_count


def classes(enumeration) -> list[tuple]:
    """The placement of a region's instances before any step: the classes
    of their enumeration, each instance's time its position."""
    return [(cols[0], loops, stmt, cols[1:1 + len(loops)], cols[0])
            for (loops, stmt), (_, cols) in enumeration.classes.items()]


def times(placement: list[tuple], n: int) -> list:
    """The times of a placement of `n` instances, in the order of their
    enumeration."""
    out = [None] * n
    for pos, _, _, _, t in placement:
        deque(map(out.__setitem__, pos, t), 0)
    return out


def placer(schedule, meta: dict, outer: list[ForLoop], params: dict):
    """A kind's `schedule` of the region's instances: a function of the
    instances, in the order of their enumeration, and their current
    placement (None before any step), giving their placement in the
    candidate.  `outer` are the for-loops around the targets, outermost
    first, and `params` the params as points (`param_ranges`)."""
    depth = len(outer)
    heads, rewrite = schedule(meta, depth, _outer_values(outer, params))

    def place(instances, placement=None) -> list[tuple]:
        first: dict = {}  # outer trips -> (position, time) of the execution's first member
        out, targets = [], []
        for cls in placement or classes(instances):
            pos, loops, stmt, cols, now = cls
            if len(loops) > depth and loops[depth] in heads:
                keys = list(zip(*cols[:depth])) if depth else [()] * len(pos)
                for key, k in dict(zip(reversed(keys), range(len(pos) - 1, -1, -1))).items():
                    if key not in first or pos[k] < first[key][0]:
                        first[key] = pos[k], now[k]
                targets.append((cls, keys))
            else:
                out.append((pos, loops, stmt, cols, list(zip(now))))
        rep = {key: time for key, (_, time) in first.items()}
        for (pos, loops, stmt, cols, now), keys in targets:
            reps = list(map(rep.__getitem__, keys))
            for sel, new_loops, new_cols, key_cols in rewrite(loops, stmt, cols, keys):
                p, r, t = (pos, reps, now) if sel is None else _pick(sel, pos, reps, now)
                out.append((p, new_loops, stmt, new_cols, list(zip(r, *key_cols, t))))
        return out
    return place


def _pick(sel: list, *cols) -> list[list]:
    """The entries of each column where `sel` is true."""
    return [list(compress(col, sel)) for col in cols]


def _by(op, col, c) -> list:
    """`op(x, c)` for each entry `x` of a column."""
    return list(map(op, col, repeat(c)))


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


def _per_outer(fn, keys: list) -> list:
    """`fn(key)` for each instance's outer trips `key`, one call per key."""
    table = {key: fn(key) for key in dict.fromkeys(keys)}
    return list(map(table.__getitem__, keys))


def tile_schedule(meta, depth, values):
    sizes, regions, cuts = meta["sizes"], meta["regions"], meta["cuts"]
    k = len(sizes)
    peeled = [(d, c) for d, c in enumerate(cuts) if c is not None]

    def rewrite(loops, stmt, cols, keys):
        n = len(keys)
        starts, mask = {}, [0] * n  # where each peeled remainder starts; each instance's region
        for d, c in peeled:
            if type(c) is int:
                starts[d] = [c] * n
            else:  # the loops' bounds at the split
                starts[d] = _per_outer(lambda outer: _trips(*c, values(outer)), keys)
            mask = list(map(or_, mask, map(lshift, map(ge, cols[depth + d], starts[d]),
                                           repeat(d))))
        reached = sorted(set(mask))  # the regions of the class's instances
        out = []
        for m in reached:
            sel = None if len(reached) == 1 else list(map(m.__eq__, mask))
            here = cols if sel is None else _pick(sel, *cols)
            w = starts if sel is None else {d: _pick(sel, x)[0] for d, x in starts.items()}
            band = here[depth:depth + k]
            floors = [_by(floordiv, t, z) for d, (t, z) in enumerate(zip(band, sizes))
                      if not m >> d & 1]
            points = [list(map(sub, t, w[d])) if m >> d & 1 else _by(mod, t, z)
                      for d, (t, z) in enumerate(zip(band, sizes))]
            f, p = regions[m]
            out.append((sel, loops[:depth] + f + p + loops[depth + k:],
                        [*here[:depth], *floors, *points, *here[depth + k:]],
                        [repeat(m), *floors, *points]))
        return out
    return meta["band"][:1], rewrite


def stripe_schedule(meta, depth, values):
    stride, ids = meta["stride"], tuple(meta["ids"])

    def rewrite(loops, stmt, cols, keys):
        here = [_by(mod, cols[depth], stride), _by(floordiv, cols[depth], stride)]
        return [(None, loops[:depth] + ids + loops[depth + 1:],
                 [*cols[:depth], *here, *cols[depth + 1:]], here)]
    return (meta["level"],), rewrite


def jam_schedule(meta, depth, values):
    factor, inner = meta["factor"], depth + len(meta["jam_order"])

    def rewrite(loops, stmt, cols, keys):
        q = _by(floordiv, cols[depth], factor)
        return [(None, loops, [*cols[:depth], q, *cols[depth + 1:]],
                 [q, *cols[depth + 1:inner], _by(mod, cols[depth], factor)])]
    return meta["jam_order"][-1:], rewrite


def interchange_schedule(meta, depth, values):
    band, order = meta["band"], tuple(meta["order"])
    k = len(band)
    picks = [depth + band.index(name) for name in order]

    def rewrite(loops, stmt, cols, keys):
        moved = [cols[x] for x in picks]
        return [(None, loops[:depth] + order + loops[depth + k:],
                 [*cols[:depth], *moved, *cols[depth + k:]], moved)]
    return band[:1], rewrite


def distribute_schedule(meta, depth, values):
    part_of, names = meta["part_of"], meta["names"]

    def rewrite(loops, stmt, cols, keys):
        part = part_of[stmt]
        return [(None, loops[:depth] + (names[part],) + loops[depth + 1:], cols,
                 [repeat(part), cols[depth]])]
    return (meta["level"],), rewrite


def fuse_schedule(meta, depth, values):
    index = {name: i for i, name in enumerate(meta["names"])}
    fused = (meta["fused_id"],)

    def rewrite(loops, stmt, cols, keys):
        return [(None, loops[:depth] + fused + loops[depth + 1:], cols,
                 [cols[depth], repeat(index[loops[depth]])])]
    return tuple(meta["names"]), rewrite


def reverse_schedule(meta, depth, values):
    trips, (lower, upper, step) = meta["trips"], meta["bounds"]

    def last(outer: tuple) -> int:
        return _trips(lower, upper, step, values(outer)) - 1

    def rewrite(loops, stmt, cols, keys):
        t = cols[depth]
        ends = repeat(trips - 1) if trips is not None else _per_outer(last, keys)
        return [(None, loops, [*cols[:depth], list(map(sub, ends, t)), *cols[depth + 1:]],
                 [map(neg, t)])]
    return (meta["level"],), rewrite

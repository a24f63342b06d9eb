"""The interpreter: deterministic execution, trace recording, and the
semantic-equivalence oracle.

All arithmetic is int64 with faults on overflow and division by zero, so
program equivalence is exact — no tolerance questions.  `run` executes a
program's lowered form (`xform.lower`), one per program and trace mode,
within a budget of `lower.STEP_BUDGET` steps: generated Python that keeps
the checks and the order of evaluation of the reference evaluator in
`tests/reference_lang.py`, and raises a `RunFault` naming the line of the
statement whose expression faulted.  A traced run (`record_trace`) returns
one finished CSV row per statement instance, the rows of `--trace` (the
header is `CSV_HEADER`).  Random array initialization draws from [-100, 100]
with a recorded seed.  The tree walker that the lowering replaced is the
differential reference in `tests/reference_interp.py`, which also holds the
order oracles over its per-instance trace records.

Arrays declared `maybe_alias` can be run under different bindings: fully
separate storage, or overlapping storage at a given element offset.  The
`disjoint(A, B)` builtin reports the binding, which is what runtime-checked
transformation guards test.

`equivalent` lays out each binding's memory once and draws only the cells
per trial.  Two equal programs (an output that no directive changed) run
once per trial and binding, and that run is both sides' outcome: the run is
deterministic, so the report is the one two runs would give.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .lang import Program
from .lower import CSV_HEADER, BudgetExceeded, Lowered, RunFault, lower  # noqa: F401


class Memory:
    """Array storage with optional overlapping bindings for may-alias pairs.

    binding maps an (a, b) alias pair to None (distinct) or an integer
    element offset: b's element 0 is a's element `offset`.  The layout (each
    array's segment, base and extent: `views`, and each segment's `sizes`)
    depends only on the program and the binding; `draw` reuses it for
    another seed's cells.
    """

    def __init__(self, program: Program, binding: dict | None = None, seed: int = 0):
        self.program = program
        self.binding = dict(binding or {})
        norm = {}
        for (a, b), off in self.binding.items():
            norm[(a, b)] = off
            norm[(b, a)] = None if off is None else -off
        base: dict[str, int] = {}
        seg_of: dict[str, int] = {}
        next_seg = 0
        for arr in program.arrays:
            if arr.name in seg_of:
                continue
            seg_of[arr.name] = next_seg
            base[arr.name] = 0
            work = [arr.name]
            while work:
                cur = work.pop()
                for other in [d.name for d in program.arrays]:
                    if other in seg_of:
                        continue
                    off = norm.get((cur, other))
                    if off is not None:
                        seg_of[other] = next_seg
                        base[other] = base[cur] + off
                        work.append(other)
            next_seg += 1
        # shift bases so each segment starts at 0
        shift: dict[int, int] = {}
        for arr in program.arrays:
            s = seg_of[arr.name]
            shift[s] = min(shift.get(s, 0), base[arr.name])
        self.sizes: dict[int, int] = {}
        self.views: dict[str, tuple[int, int, tuple[int, ...], int]] = {}
        for arr in program.arrays:
            s = seg_of[arr.name]
            b = base[arr.name] - shift[s]
            self.views[arr.name] = (s, b, arr.dims, arr.total)
            self.sizes[s] = max(self.sizes.get(s, 0), b + arr.total)
        self.seed = seed
        self.segments = self._cells(seed)

    def _cells(self, seed: int) -> dict[int, list[int]]:
        """Each segment's cells as `seed` draws them: the arrays in
        declaration order, a random one from one `random.Random(seed)`."""
        segments = {s: [0] * n for s, n in self.sizes.items()}
        rng = random.Random(seed)
        for arr in self.program.arrays:
            s, b, _, total = self.views[arr.name]
            segments[s][b:b + total] = (_random_cells(rng, total)
                                        if arr.init == "random" else [0] * total)
        return segments

    def draw(self, seed: int) -> "Memory":
        """The memory that `Memory(program, binding, seed)` builds, drawing
        only its cells: the same layout, in storage of its own."""
        return self._with(seed=seed, segments=self._cells(seed))

    def copy(self) -> "Memory":
        """The same binding and values, in storage of its own."""
        return self._with(segments={s: list(cells) for s, cells in self.segments.items()})

    def _with(self, **fields) -> "Memory":
        """This memory with `fields` replaced; the layout is shared."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **fields)
        return new

    def disjoint(self, a: str, b: str) -> bool:
        sa, ba, _, ta = self.views[a]
        sb, bb, _, tb = self.views[b]
        if sa != sb:
            return True
        return ba + ta <= bb or bb + tb <= ba

    def array_values(self, name: str) -> tuple[int, ...]:
        s, b, _, total = self.views[name]
        return tuple(self.segments[s][b:b + total])

    def snapshot(self) -> dict[str, tuple[int, ...]]:
        return {a.name: self.array_values(a.name) for a in self.program.arrays}


def _random_cells(rng: random.Random, total: int) -> list[int]:
    """`total` values of `rng.randint(-100, 100)`, leaving `rng` in the state
    those calls leave it in.  Each call takes the top byte of one 32-bit
    word, drawing another while it is 201 or more; `getrandbits(32 * n)`
    holds the next n words, the first in its lowest bits, so each round
    draws as many words as values are still needed."""
    cells: list[int] = []
    while len(cells) < total:
        need = total - len(cells)
        top = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        cells.extend([x - 100 for x in top if x < 201])
    return cells


def run(program: Program | Lowered, seed: int = 0, alias_binding: dict | None = None,
        record_trace: bool = True, memory: Memory | None = None) -> tuple[Memory, list[str]]:
    """Execute a program or its lowering within `lower.STEP_BUDGET` steps;
    returns final memory and the CSV rows of its trace (none when
    `record_trace` is False).  The run starts from `memory` when given,
    which it changes, else from the memory that `seed` and `alias_binding`
    draw."""
    if not (isinstance(program, Lowered) and program.traced == record_trace):
        program = lower(getattr(program, "program", program), record_trace)
    mem = memory if memory is not None else Memory(program.program, alias_binding, seed)
    trace = [] if record_trace else None
    program(mem, trace)
    return mem, trace if trace is not None else []


def alias_bindings(program: Program, offsets=(0,)) -> list[dict]:
    """Every combination of distinct/overlapping for the declared alias pairs."""
    pairs = [(a.first, a.second) for a in program.aliases]
    return [dict(zip(pairs, c)) for c in product((None, *offsets), repeat=len(pairs))]


@dataclass
class EquivalenceReport:
    equivalent: bool
    trials: int
    detail: str = ""
    faulted: int = 0  # trials in which both programs faulted the same way

    def __bool__(self):
        return self.equivalent


def _outcome(program: Lowered, memory: Memory):
    """A run's final memory or fault message; running out of budget escapes."""
    try:
        return run(program, record_trace=False, memory=memory)[0]
    except BudgetExceeded:
        raise
    except RunFault as e:
        return str(e)


def _where(trial: int, seed: int, binding: dict) -> str:
    bind = ", ".join(f"{a}~{b}@{o}" for (a, b), o in binding.items() if o is not None)
    return f"trial {trial} (seed {seed}, binding {bind or 'distinct'}): "


def equivalent(p1: Program, p2: Program, trials: int = 100, seed: int = 0) -> EquivalenceReport:
    """Compare outcomes over seeded random inputs and all alias bindings: the
    final memories, or the fault messages without their lines.  The two
    sides declare the same arrays, so each trial draws its memory once, and
    each binding is laid out once.  Equal programs (`==`, `parallel` marks
    included) have one outcome per input: each trial runs it once and counts
    it for both sides, which gives the report that two runs give.  A nest
    too deep for `==` to compare runs on both sides."""
    decls1 = [(a.name, a.dims, a.init) for a in p1.arrays]
    decls2 = [(a.name, a.dims, a.init) for a in p2.arrays]
    if decls1 != decls2:
        return EquivalenceReport(False, 0, "declaration mismatch")
    master = random.Random(seed)
    trial_seeds = [master.randrange(2**31) for _ in range(max(trials, 1))]
    # the first trial's memories are the layouts that later trials draw into
    layouts = [Memory(p1, binding, trial_seeds[0]) for binding in alias_bindings(p1)]
    try:
        one = p1 == p2
    except RecursionError:  # `==` recurses per nesting level: run a deep nest on both sides
        one = False
    low1 = lower(p1, False)
    low2 = low1 if one else lower(p2, False)
    faulted = 0
    for t, s in enumerate(trial_seeds):
        both_faulted = False
        for layout in layouts:
            start = layout.draw(s) if t else layout
            m1 = _outcome(low1, start if one else start.copy())
            m2 = m1 if one else _outcome(low2, start)
            if isinstance(m1, str) or isinstance(m2, str):
                if (isinstance(m1, str) and isinstance(m2, str)
                        and m1.rsplit(" (line ", 1)[0] == m2.rsplit(" (line ", 1)[0]):
                    both_faulted = True
                    continue
                f1, f2 = (f"fault '{m}'" if isinstance(m, str) else "no fault" for m in (m1, m2))
                return EquivalenceReport(False, t + 1,
                                         _where(t, s, layout.binding) + f"{f1} vs {f2}")
            if one:
                continue
            for arr in p1.arrays:
                v1 = m1.array_values(arr.name)
                v2 = m2.array_values(arr.name)
                if v1 != v2:
                    i = next(k for k in range(len(v1)) if v1[k] != v2[k])
                    return EquivalenceReport(
                        False, t + 1,
                        _where(t, s, layout.binding) + f"{arr.name}[{i}] = {v1[i]} vs {v2[i]}")
        faulted += both_faulted
    return EquivalenceReport(True, len(trial_seeds), faulted=faulted)

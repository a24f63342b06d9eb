"""Reference interpreter: deterministic execution, trace recording, and the
semantic-equivalence / order / parallel-consistency oracles.

All arithmetic is int64 with faults on overflow and division by zero, so
program equivalence is exact — no tolerance questions.  `lang.evaluate`
values expressions; an `EvalError` becomes a `RunFault` naming the line of
the statement whose expression faulted.  Random array initialization draws
from [-100, 100] with a recorded seed.

Arrays declared `maybe_alias` can be run under different bindings: fully
separate storage, or overlapping storage at a given element offset.  The
`disjoint(A, B)` builtin reports the binding, which is what runtime-checked
transformation guards test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lang import (
    Assign, Block, EvalError, ForLoop, IfStmt, Program, Stmt, WhileLoop, evaluate,
    flat_index, int64,
)


class RunFault(Exception):
    """Raised for arithmetic faults, out-of-bounds accesses, budget blowups."""


@dataclass
class TraceRecord:
    stmt: str
    ivec: tuple[tuple[str, int], ...]   # original-loop coordinates (name, value)
    reads: tuple[tuple[str, int], ...]
    writes: tuple[tuple[str, int], ...]
    cur_loops: tuple[str, ...] = ()     # enclosing for-loops in the executed tree
    cur_ivec: tuple[int, ...] = ()      # their variable values
    cur_logical: tuple[int, ...] = ()   # their trip counters

    def key(self):
        return (self.stmt, self.ivec)


Trace = list  # list[TraceRecord]


class Memory:
    """Array storage with optional overlapping bindings for may-alias pairs.

    binding maps an (a, b) alias pair to None (distinct) or an integer
    element offset: b's element 0 is a's element `offset`.
    """

    def __init__(self, program: Program, binding: dict | None = None, seed: int = 0):
        self.program = program
        self.binding = dict(binding or {})
        self.seed = seed
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
        sizes: dict[int, int] = {}
        self.views: dict[str, tuple[int, int, tuple[int, ...], int]] = {}
        for arr in program.arrays:
            s = seg_of[arr.name]
            b = base[arr.name] - shift[s]
            self.views[arr.name] = (s, b, arr.dims, arr.total)
            sizes[s] = max(sizes.get(s, 0), b + arr.total)
        self.segments: dict[int, list[int]] = {s: [0] * n for s, n in sizes.items()}
        rng = random.Random(seed)
        for arr in program.arrays:
            s, b, _, total = self.views[arr.name]
            if arr.init == "random":
                for i in range(total):
                    self.segments[s][b + i] = rng.randint(-100, 100)
            else:
                for i in range(total):
                    self.segments[s][b + i] = 0

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


class _Run(Memory):
    """One execution: the memory through which `evaluate` reads arrays
    (recording them while an assignment is traced) and answers `disjoint`."""

    def __init__(self, program: Program, binding: dict | None, seed: int,
                 trace: Trace | None, budget: int, perturb: dict[str, object]):
        super().__init__(program, binding, seed)
        self.env = program.param_values()
        self.trace = trace
        self.budget = budget
        self.perturb = perturb
        self.loop_stack: list[tuple[str, int, int]] = []  # (name, value, trip)
        self.reads: list | None = None  # the traced assignment's reads so far

    def tick(self, line: int):
        self.budget -= 1
        if self.budget < 0:
            raise RunFault(f"step budget exceeded (line {line})")

    def load(self, array: str, idx) -> int:
        seg, base, dims, _ = self.views[array]
        flat = flat_index(array, dims, idx)
        if self.reads is not None:
            self.reads.append((array, flat))
        return self.segments[seg][base + flat]

    def exec_body(self, stmts: list[Stmt]):
        for s in stmts:
            self.exec_stmt(s)

    def exec_stmt(self, s: Stmt):
        """Execute `s`; a fault in one of its own expressions becomes a
        RunFault carrying its line (a nested statement reports its own)."""
        self.tick(s.line)
        env = self.env
        try:
            if isinstance(s, Assign):
                if self.trace is not None:
                    self.reads = []
                seg, base, dims, _ = self.views[s.array]
                flat = flat_index(s.array, dims, [evaluate(i, env, self) for i in s.index])
                val = evaluate(s.value, env, self)
                cells = self.segments[seg]
                if s.op == "+=":
                    val = int64(cells[base + flat] + val)
                if self.trace is not None:
                    reads = set(self.reads)
                    self.reads = None
                    if s.op == "+=":
                        reads.add((s.array, flat))
                    ivec = tuple((n, evaluate(e, env)) for n, e in s.orig_coords)
                    self.trace.append(TraceRecord(
                        s.stmt_id, ivec, tuple(sorted(reads)), ((s.array, flat),),
                        tuple(n for n, _, _ in self.loop_stack),
                        tuple(v for _, v, _ in self.loop_stack),
                        tuple(t for _, _, t in self.loop_stack)))
                cells[base + flat] = val
            elif isinstance(s, ForLoop):
                lb = evaluate(s.lower, env, self)
                ub = evaluate(s.upper, env, self)
                values = list(range(lb, ub, s.step)) if ub > lb else []
                order = list(enumerate(values))
                mode = self.perturb.get(s.name)
                if mode == "reverse":
                    order = order[::-1]
                elif isinstance(mode, random.Random):
                    mode.shuffle(order)
                saved = env.get(s.var)
                for trip, v in order:
                    self.tick(s.line)
                    env[s.var] = v
                    self.loop_stack.append((s.name, v, trip))
                    self.exec_body(s.body)
                    self.loop_stack.pop()
                if saved is None:
                    env.pop(s.var, None)
                else:
                    env[s.var] = saved
            elif isinstance(s, WhileLoop):
                while evaluate(s.cond, env, self) != 0:
                    self.tick(s.line)
                    self.exec_body(s.body)
            elif isinstance(s, IfStmt):
                if evaluate(s.cond, env, self) != 0:
                    self.exec_body(s.then_body)
                elif s.else_body is not None:
                    self.exec_body(s.else_body)
            elif isinstance(s, Block):
                self.exec_body(s.body)
            else:
                raise TypeError(f"not a statement: {s!r}")
        except EvalError as e:
            raise RunFault(f"{e} (line {s.line})") from None


def run(program: Program, seed: int = 0, alias_binding: dict | None = None,
        record_trace: bool = True, step_budget: int = 10**7,
        perturb: dict | None = None) -> tuple[Memory, Trace]:
    """Execute a program deterministically; returns final memory and trace."""
    r = _Run(program, alias_binding, seed, [] if record_trace else None, step_budget,
             perturb or {})
    r.exec_body(program.body)
    return r, (r.trace if r.trace is not None else [])


def alias_bindings(program: Program, offsets=(0,)) -> list[dict]:
    """Every combination of distinct/overlapping for the declared alias pairs."""
    pairs = [(a.first, a.second) for a in program.aliases]
    bindings = [{}]
    for pair in pairs:
        new = []
        for b in bindings:
            for choice in (None,) + tuple(offsets):
                nb = dict(b)
                nb[pair] = choice
                new.append(nb)
        bindings = new
    return bindings


@dataclass
class EquivalenceReport:
    equivalent: bool
    trials: int
    detail: str = ""

    def __bool__(self):
        return self.equivalent


def equivalent(p1: Program, p2: Program, trials: int = 100, seed: int = 0) -> EquivalenceReport:
    """Compare final memories over seeded random inputs and all alias bindings."""
    decls1 = [(a.name, a.dims, a.init) for a in p1.arrays]
    decls2 = [(a.name, a.dims, a.init) for a in p2.arrays]
    if decls1 != decls2:
        return EquivalenceReport(False, 0, "declaration mismatch")
    master = random.Random(seed)
    trial_seeds = [master.randrange(2**31) for _ in range(max(trials, 1))]
    bindings = alias_bindings(p1)
    for t, s in enumerate(trial_seeds):
        for binding in bindings:
            m1, _ = run(p1, seed=s, alias_binding=binding, record_trace=False)
            m2, _ = run(p2, seed=s, alias_binding=binding, record_trace=False)
            for arr in p1.arrays:
                v1 = m1.array_values(arr.name)
                v2 = m2.array_values(arr.name)
                if v1 != v2:
                    i = next(k for k in range(len(v1)) if v1[k] != v2[k])
                    bind = ", ".join(f"{a}~{b}@{o}" for (a, b), o in binding.items()
                                     if o is not None) or "distinct"
                    return EquivalenceReport(
                        False, t + 1,
                        f"trial {t} (seed {s}, binding {bind}): "
                        f"{arr.name}[{i}] = {v1[i]} vs {v2[i]}")
    return EquivalenceReport(True, len(trial_seeds))


def order_preserved(t1: Trace, t2: Trace) -> bool:
    """True iff both traces execute the same instances in the same order."""
    return [r.key() for r in t1] == [r.key() for r in t2]


def instance_multiset(t: Trace):
    out: dict = {}
    for r in t:
        out[r.key()] = out.get(r.key(), 0) + 1
    return out


@dataclass
class ConsistencyReport:
    consistent: bool
    orders_tried: int
    detail: str = ""

    def __bool__(self):
        return self.consistent


def parallel_consistent(program: Program, loop_name: str, trials: int = 8,
                        seed: int = 0) -> ConsistencyReport:
    """Run a marked loop's iterations in original, reversed, and random orders;
    consistent iff every final memory agrees."""
    base, _ = run(program, seed=seed, record_trace=False)
    reference = base.snapshot()
    orders: list[dict] = [{loop_name: "reverse"}]
    for k in range(trials):
        orders.append({loop_name: random.Random(seed * 7919 + k)})
    for i, perturb in enumerate(orders):
        mem, _ = run(program, seed=seed, record_trace=False, perturb=perturb)
        if mem.snapshot() != reference:
            kind = "reversed" if i == 0 else f"shuffle #{i - 1}"
            return ConsistencyReport(False, i + 1,
                                     f"{kind} execution of loop '{loop_name}' diverged")
    return ConsistencyReport(True, len(orders) + 1)


def trace_csv(trace: Trace) -> str:
    """CSV rendering: stmt,iter_vec,reads,writes."""
    lines = ["stmt,iter_vec,reads,writes"]
    for r in trace:
        ivec = ";".join(f"{n}={v}" for n, v in r.ivec)
        reads = " ".join(f"{a}[{i}]" for a, i in r.reads)
        writes = " ".join(f"{a}[{i}]" for a, i in r.writes)
        lines.append(f"{r.stmt},{ivec},{reads},{writes}")
    return "\n".join(lines) + "\n"

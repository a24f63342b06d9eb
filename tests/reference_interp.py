"""The tree-walking reference interpreter, kept as the differential oracle
for `xform.lower`: it executes the statement tree directly, valuing each
expression with `reference_lang.evaluate`, and can run a loop's iterations reversed or
shuffled (`parallel_consistent`).

A traced run records one `TraceRecord` per statement instance: its
original-loop coordinates, the elements it reads and writes, and the loops
that enclose it in the executed tree.  `order_preserved` and
`instance_multiset` compare runs by these records, and `trace_csv` is the
reference formatter of the rows that a traced lowering writes."""

from __future__ import annotations

import random
from dataclasses import dataclass

from xform.interp import Memory, RunFault
from xform.lang import (
    Assign, EvalError, ForLoop, IfStmt, Program, Stmt, WhileLoop, flat_index, int64,
)

from reference_lang import evaluate


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


Trace = list[TraceRecord]


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
            else:
                raise TypeError(f"not a statement: {s!r}")
        except EvalError as e:
            raise RunFault(f"{e} (line {s.line})") from None


def run(program: Program, seed: int = 0, alias_binding: dict | None = None,
        record_trace: bool = True, step_budget: int = 10**7,
        perturb: dict | None = None) -> tuple[Memory, Trace]:
    """Execute a program by walking its tree; returns final memory and trace."""
    r = _Run(program, alias_binding, seed, [] if record_trace else None, step_budget,
             perturb or {})
    r.exec_body(program.body)
    return r, (r.trace if r.trace is not None else [])


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


def order_preserved(t1: Trace, t2: Trace) -> bool:
    """True iff both traces execute the same instances in the same order."""
    return [r.key() for r in t1] == [r.key() for r in t2]


def instance_multiset(t: Trace):
    out: dict = {}
    for r in t:
        out[r.key()] = out.get(r.key(), 0) + 1
    return out

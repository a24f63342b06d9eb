"""Lowering: a `Program` turned once into Python source and compiled, so
that a run executes generated code instead of walking the tree (after Feeley
& Lapalme, "Using closures for code generation", 1987).

The generated code keeps every check that can fire, in the order of
evaluation: an operation on two constants is folded unless it faults
(`lang.fold`), other `+ - * /` results are checked against int64, zero
divisors fault in `lang.idiv`/`lang.imod`, subscripts are checked one
dimension at a time with `flat_index`'s message.  A fault is an `EvalError`
raised on a generated line, which `Lowered.__call__` maps back to the
program statement's line.

Checks the loop ranges prove cannot fire are left out: the interval of each
loop variable (`lang.loop_range`, from the loop bounds and the params, which
are all constants here) bounds the index arithmetic over it, so a subscript
check or a `+ - * /` overflow check whose operands' intervals rule the fault
out is not emitted (`/` and `%` have an interval only by a constant other
than 0 and -1).  Anything under `/` or `%` by another divisor, an array read
or `disjoint` keeps its checks, and a statement checks each unproved
subscript once.

A run has a budget of `STEP_BUDGET` steps; each statement and loop iteration
takes one.  A counted program (no `while` or `if`, every trip count known:
the exact counts of `lang.step_counts`) takes a known number T of steps, so
its one lowered form leaves the steps out when T is within the budget.
Otherwise, or without a static T, each step is taken and checked, and the
run faults at the step that exceeds the budget.

A lowering is untraced, or traced: then each assignment appends one
finished CSV row (see `CSV_HEADER`) to the trace list before it stores its
value, an f-string of the statement id, its original-loop coordinates and
the elements it reads and writes.

Expressions become three-address code, one operation per line.  Within a
statement, an operation whose generated text an earlier one already had
reuses that one's temporary, which was checked there.

Work that the trips of a loop share is hoisted to the head of its body
(loop-invariant code motion).  An operation moves when `op_interval` gives
it an interval, so it cannot fault, and its operands are literals, loop
variables and hoisted values, never an array read or `disjoint`.  It is
computed once, as `h<k>`, at the head of the innermost for-loop body whose
variable it reads, and every later statement in that body reuses it.  So
do a subscript's element-number terms over loop variables and hoisted
values (Python ints, which cannot fault; the checks that guard them stay in
the statement) and each maximal run of a traced row's f-string that the
innermost loop around the statement does not change.  A hoisted line cannot
raise, reads no memory and takes no step, and the values it reads hold
wherever the body runs, so computing it once changes no outcome, fault
message or line, budget or trace byte, even where the statement that needs
it never runs.  The rule reads the lowering's own intervals, never a
dependence verdict.  A function split (below) opens its own head, and
nothing is hoisted across the call.

A
parameter becomes its value, a loop variable a local named `v_<name>`, and an
array `c_<name>` (cells) and `b_<name>` (base offset), so no program name can
shadow a generated name or a builtin.  Bodies more than `MAX_DEPTH` levels
deep go into a separate generated function of the live names that returns the
budget: CPython compiles at most 20 nested blocks and 100 indentation levels.
`source` gives the generated text, and `scripts/show_lowering.py` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import (
    INT64_MAX, INT64_MIN, ArrayRead, Assign, BinOp, Call, EvalError, ForLoop, IfStmt, IntLit,
    Program, VarRef, WhileLoop, fold, gc_paused, idiv, imod, loop_range, op_interval, step_counts,
)

MAX_DEPTH = 12
STEP_BUDGET = 10**7
FILENAME = "<lowered program>"


class RunFault(Exception):
    """Raised for arithmetic faults, out-of-bounds accesses, budget blowups."""


class BudgetExceeded(RunFault):
    """A run out of step budget: a limit of the run, not a behaviour of the program."""


CSV_HEADER = "stmt,iter_vec,reads,writes"


def cells(array: str, flats) -> str:
    """The csv `reads` entry of an array read at several elements."""
    return " ".join([f"{array}[{x}]" for x in sorted(set(flats))])


_GLOBALS = {"EvalError": EvalError, "BudgetExceeded": BudgetExceeded,
            "cells": cells, "idiv": idiv, "imod": imod}
_FORMS = {"+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}",
          "/": "idiv({0}, {1})", "%": "imod({0}, {1})",
          "&&": "1 if {0} != 0 and {1} != 0 else 0",
          "min": "{0} if {0} <= {1} else {1}", "max": "{0} if {0} >= {1} else {1}",
          **{op: f"1 if {{0}} {op} {{1}} else 0" for op in ("<", "<=", ">", ">=", "==", "!=")}}
_CHECKED = f"if not {INT64_MIN} <= {{0}} <= {INT64_MAX}: raise EvalError('int64 overflow')"


@dataclass
class Source:
    """A program's generated run function."""
    text: str
    lines: list[int]    # program line of each generated line
    steps: int | None   # the static step count T, when the program has one
    checks: int         # run-time checks emitted
    proved: int         # run-time checks the ranges proved cannot fire


def source(program: Program, traced: bool) -> Source:
    """The generated source of `program`'s run function, traced or not.  It
    takes a step of the budget per statement and per loop iteration when the
    program has no static step count T, or when T exceeds `STEP_BUDGET`."""
    gen = _Gen(program, traced)
    rows = [row for code in gen.funcs for row in code]
    return Source("\n".join("    " * depth + text for depth, text, _ in rows),
                  [line for _, _, line in rows], gen.steps, gen.checks, gen.proved)


@dataclass
class _Frame:
    """The head of a loop's body, or of a split function's: where the
    values hoisted to it are computed, once per entry."""
    code: list          # the generated function's lines
    at: int             # where in `code` the hoisted lines go
    depth: int
    lines: list = field(default_factory=list)
    names: dict = field(default_factory=dict)  # the name of each hoisted value


@dataclass
class Lowered:
    """A program's one compiled form, which every run of it executes; call
    it with a `Memory` and a trace list (None when untraced).  It runs with
    a budget of `STEP_BUDGET` steps, read when the call starts."""
    program: Program
    traced: bool
    fn: object          # the generated `f0`
    lines: list[int]    # program line of each generated line

    def __call__(self, mem, trace: list | None):
        try:
            if trace is None:
                self.fn(mem, STEP_BUDGET, trace)
            else:
                with gc_paused():  # a trace is many objects, and none is cyclic
                    self.fn(mem, STEP_BUDGET, trace)
        except EvalError as e:
            tb, line = e.__traceback__, 0
            while tb is not None:  # the innermost generated frame faulted
                if tb.tb_frame.f_code.co_filename == FILENAME:
                    line = self.lines[tb.tb_lineno - 1]
                tb = tb.tb_next
            raise RunFault(f"{e} (line {line})") from None


def lower(program: Program, traced: bool) -> Lowered:
    """Generate and compile `program`'s run function, traced or not."""
    src = source(program, traced)
    namespace = dict(_GLOBALS)
    exec(compile(src.text, FILENAME, "exec"), namespace)
    return Lowered(program, traced, namespace["f0"], src.lines)


class _Gen:
    def __init__(self, program: Program, traced: bool):
        self.traced = traced
        self.dims = {a.name: a.dims for a in program.arrays}
        aliased = {n for al in program.aliases for n in (al.first, al.second)}
        self.base = {a: f"b_{a} + " if a in aliased else "" for a in self.dims}
        self.arrays = [f"{c}_{a}" for a in self.dims for c in "cb"]
        self.funcs: list = []
        self.reads: list | None = None  # the traced assignment's (array, flat) reads
        counts = step_counts(program.body, program.param_ranges(), exact_only=True)[0]
        self.steps = None if counts is None else counts[0] + counts[2]
        self.ticks = self.steps is None or self.steps > STEP_BUDGET
        self.ranges: dict = {}  # interval of each loop variable and hoisted value
        self.seen: set = set()  # the statement's subscript checks so far
        self.values: dict = {}  # the statement's temporaries, by the value they hold
        self.checks = self.proved = 0
        self.frames: list[_Frame] = []  # the loop bodies (and split functions) around
        self.homes: dict = {}  # the frame of each loop variable and hoisted value
        self.first = self.hoisted = 0  # the current function's first frame; names given
        scope = {p.name: p.value for p in program.params}
        self.function("f0", ["mem", "bud", "trace"])
        for a in self.dims:
            self.emit(f"c_{a}, b_{a} = mem.segments[mem.views[{a!r}][0]], mem.views[{a!r}][1]")
        self.body(program.body, scope, [])
        self.emit("return bud")

    def function(self, name: str, params: list[str]):
        self.code = [(0, f"def {name}({', '.join(params)}):", 0)]
        self.depth, self.line, self.tmp = 1, 0, 0
        self.funcs.append(self.code)

    def emit(self, text: str):
        self.code.append((self.depth, text, self.line))

    # -- expressions: each returns an int literal or the name holding the value

    def expr(self, e, scope: dict):
        t = type(e)
        if t is IntLit:
            return e.value
        if t is VarRef:
            return scope[e.name] if e.name in scope else self.fault(f"unbound variable {e.name!r}")
        if t is ArrayRead:
            flat = self.subscript(e.array, e.index, scope)
            if self.reads is not None:
                self.reads.append((e.array, flat))
            return self.let(f"c_{e.array}[{self.base[e.array]}{flat}]")
        if t is Call and e.func == "disjoint":
            return self.let(f"1 if mem.disjoint({e.args[0].name!r}, {e.args[1].name!r}) else 0")
        if t is not BinOp and t is not Call:
            raise TypeError(f"not an expression: {e!r}")
        op, args = (e.op, (e.lhs, e.rhs)) if t is BinOp else (e.func, e.args)
        a, b = self.expr(args[0], scope), self.expr(args[1], scope)
        if type(a) is int and type(b) is int:  # both operands known: fold unless it faults
            v = fold(op, a, b)
            if v is not None:
                return v
        text = _FORMS[op].format(a, b)
        if text in self.values:  # an equal operation earlier in the statement, checked there
            return self.values[text]
        known = op_interval(op, self.span(a), self.span(b))
        if known is not None:  # it cannot fault (so its operands have ranges): hoisted
            return self.hoist(text, self.place(a, b), known, op in ("+", "-", "*", "/"))
        r = self.let(text)
        if op in ("+", "-", "*", "/"):
            self.check(True, _CHECKED.format(r))
        return r

    def span(self, x):
        """The interval of an operand: a literal, or a name holding a value."""
        return (x, x) if type(x) is int else self.ranges.get(x)

    def place(self, *xs) -> int | None:
        """The innermost frame of the loop variables and hoisted values among
        `xs`, not outside the current function; None where one is a
        statement's temporary, -1 where all are literals."""
        at = -1
        for x in xs:
            if type(x) is not int:
                if x not in self.homes:
                    return None
                at = max(at, self.homes[x], self.first)
        return at

    def hoist(self, value: str, at: int, known=None, proves: bool = False) -> str:
        """The name of `value`, computed at the head of frame `at` on first
        use: it cannot fault and reads nothing but literals, the loop
        variables of frames up to `at` and values hoisted there.  `proves`:
        an overflow check the ranges proved away."""
        frame = self.frames[at]
        if value not in frame.names:
            self.hoisted += 1
            name = frame.names[value] = f"h{self.hoisted}"
            self.homes[name], self.ranges[name] = at, known
            frame.lines.append((frame.depth, f"{name} = {value}", self.line))
            self.proved += proves
        return frame.names[value]

    def let(self, value: str) -> str:
        """The statement's temporary holding `value`, emitted on first use:
        nothing the statement values before its store changes memory."""
        if value not in self.values:
            self.tmp += 1
            name = self.values[value] = f"t{self.tmp}"
            self.emit(f"{name} = {value}")
        return self.values[value]

    def check(self, needed: bool, line: str):
        """Emit a run-time check unless the ranges prove it cannot fire."""
        if needed:
            self.checks += 1
            self.emit(line)
        else:
            self.proved += 1

    def fault(self, message: str) -> int:
        self.emit(f"raise EvalError({message!r})")
        return 0

    def subscript(self, array: str, index, scope: dict):
        """The checked row-major element number of `array[index]`, held in
        a temporary when traced (the trace records it)."""
        dims = self.dims[array]
        idx = [self.expr(i, scope) for i in index]
        for d, x in zip(dims, idx):
            if type(x) is not int:
                line = (f"if not 0 <= {x} < {d}: "
                        f"raise EvalError(f'index {{{x}}} out of bounds for {array}[{d}]')")
                if line not in self.seen:  # an equal check earlier in the statement passed
                    self.seen.add(line)
                    known = self.ranges.get(x)
                    self.check(not (known and 0 <= known[0] and known[1] < d), line)
            elif not 0 <= x < d:
                self.fault(f"index {x} out of bounds for {array}[{d}]")
        # Python ints, which cannot fault: the terms of loop variables and
        # hoisted values sum to one hoisted value, `moved`
        const, terms, moved, stride = 0, [], None, 1
        for d, x in reversed(list(zip(dims, idx))):
            at = self.place(x)
            if type(x) is int:
                const += x * stride
            elif at is None:
                terms.insert(0, x if stride == 1 else f"{x} * {stride}")
            else:
                term = x if stride == 1 else self.hoist(f"{x} * {stride}", at)
                moved = term if moved is None else \
                    self.hoist(f"{term} + {moved}", self.place(term, moved))
            stride *= d
        if moved is not None and const != 0:
            moved, const = self.hoist(f"{moved} + {const}", self.place(moved)), 0
        terms = [moved] * (moved is not None) + terms
        if not terms:
            return const
        flat = " + ".join(terms + [str(const)] * (const != 0))
        return self.let(flat) if self.traced and not flat.isidentifier() else flat

    # -- statements

    def tick(self):
        if self.ticks:
            self.emit("bud -= 1")
            self.emit(f"if bud < 0: raise BudgetExceeded('step budget exceeded (line {self.line})')")

    def body(self, stmts: list, scope: dict, loops: list):
        for s in stmts:
            self.line, self.tmp = s.line, 0
            self.seen.clear()
            self.values.clear()
            self.tick()
            getattr(self, type(s).__name__)(s, scope, loops)

    def block(self, stmts: list, scope: dict, loops: list, head=None, loop=False):
        """A body one level deeper, after `head`; past MAX_DEPTH, a new
        function.  A loop's body, or a new function's, opens a frame."""
        self.depth += 1
        line = self.line
        if head is not None:
            head()
        saved, split = (self.code, self.depth, self.first), self.depth > MAX_DEPTH
        if split:
            live = ["mem", "bud", "trace", *self.arrays, *loops]
            name = f"f{len(self.funcs)}"
            self.emit(f"bud = {name}({', '.join(live)})")
            self.function(name, live)
            self.first = len(self.frames)  # no hoist crosses into the caller
        opens = loop or split
        if opens:
            self.frames.append(_Frame(self.code, len(self.code), self.depth))
        self.body(stmts, scope, loops)
        if opens:
            frame = self.frames.pop()
            frame.code[frame.at:frame.at] = frame.lines
        self.emit("return bud" if split else "pass")
        self.code, self.depth, self.first = saved
        self.depth -= 1
        self.line = line

    def Assign(self, s: Assign, scope: dict, loops: list):
        self.reads = [] if self.traced else None
        flat = self.subscript(s.array, s.index, scope)
        value = self.expr(s.value, scope)
        cell = f"c_{s.array}[{self.base[s.array]}{flat}]"
        if s.op == "+=":
            value = self.let(f"{cell} + {value}")
            self.check(True, _CHECKED.format(value))
        if self.traced:
            reads, self.reads = self.reads, None
            if s.op == "+=":
                reads.append((s.array, flat))
            ivec = [(n, self.expr(e, scope)) for n, e in s.orig_coords]
            self.emit(f"trace.append({self.row(s, ivec, reads, flat)})")
        self.emit(f"{cell} = {value}")

    def row(self, s: Assign, ivec: list, reads: list, flat) -> str:
        """The source of the CSV row, from values and the names holding them.
        Each maximal run of text and fields that the innermost loop does not
        change is hoisted, as one f-string, to the innermost frame it reads."""
        by_array: dict[str, dict] = {}
        for a, x in reads:  # one name holds one value within a statement
            by_array.setdefault(a, {})[x] = None
        pieces = [(f"{s.stmt_id},", ())]  # (text, the values its field reads)
        for k, (n, v) in enumerate(ivec):
            pieces += [(f"{';' * (k > 0)}{n}=", ()), (f"{{{v}}}", (v,))]
        pieces.append((",", ()))
        for k, (a, xs) in enumerate(sorted(by_array.items())):
            pieces.append((" " * (k > 0), ()))
            pieces += ([(f"{a}[", ()), (f"{{{next(iter(xs))}}}", tuple(xs)), ("]", ())]
                       if len(xs) == 1 else  # else sorted at run time
                       [(f"{{cells({a!r}, ({', '.join(map(str, xs))}))}}", tuple(xs))])
        pieces += [(f",{s.array}[", ()), (f"{{{flat}}}", (flat,)), ("]", ())]
        inner, out, run, at = len(self.frames) - 1, [], [], -1
        for text, values in pieces + [("", None)]:
            where = None if values is None else self.place(*values)
            if where is not None and where < inner:
                run.append(text)
                at = max(at, where)
                continue
            if at >= 0:
                run = ["{" + self.hoist('f"' + "".join(run) + '"', at) + "}"]
            out += run + [text]
            run, at = [], -1
        return 'f"' + "".join(out) + '"'

    def ForLoop(self, s: ForLoop, scope: dict, loops: list):
        lo, hi = self.expr(s.lower, scope), self.expr(s.upper, scope)
        var = f"v_{s.var}"
        if var in scope.values():  # an enclosing loop of the same name
            var = f"v{len(loops)}_{s.var}"
        self.ranges[var] = loop_range(s, {n: self.span(x) for n, x in scope.items()})[1]
        self.homes[var] = len(self.frames)
        self.emit(f"for {var} in range({lo}, {hi}, {s.step}):")
        self.block(s.body, {**scope, s.var: var}, loops + [var], self.tick, loop=True)

    def WhileLoop(self, s: WhileLoop, scope: dict, loops: list):
        def head():
            self.emit(f"if {self.expr(s.cond, scope)} == 0: break")
            self.tick()
        self.emit("while True:")
        self.block(s.body, scope, loops, head)

    def IfStmt(self, s: IfStmt, scope: dict, loops: list):
        self.emit(f"if {self.expr(s.cond, scope)} != 0:")
        self.block(s.then_body, scope, loops)
        if s.else_body is not None:
            self.emit("else:")
            self.block(s.else_body, scope, loops)

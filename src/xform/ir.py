"""Loop-tree naming, directive pipeline planning, and name resolution.

Loops are named after their induction variable; clashes get `#2`, `#3`, ...
suffixes in preorder.  While-loops are opaque nodes named `while`,
`while#2`, ...  Naming also stamps every assignment with its original
iteration coordinates (loop name -> the loop variable), the metadata that
keeps traces comparable across transformations.

The pipeline order is: for each loop in preorder, its directive stack
bottom-up, i.e. the pragma written nearest the loop applies first.  Later
lines can then refer to the loop names the earlier application introduced
(floor_ids, tile_ids, peel ids, ...).  Planning simulates exactly which
names each directive consumes and introduces, without applying anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import emit
from .kinds import BAND, KINDS, NEST, SIBLINGS, perfect_nest
from .lang import (
    Assign, Directive, ForLoop, Program, Stmt, VarRef, WhileLoop, child_bodies,
    iter_loops,
)


class PlanError(Exception):
    def __init__(self, msg: str, line: int = 0):
        super().__init__(msg)
        self.msg = msg
        self.line = line

    def __str__(self):
        return f"{self.msg} (line {self.line})" if self.line else self.msg


def name_loops(p: Program) -> Program:
    """Assign unique loop names and original-coordinate metadata, in place."""
    used: dict[str, int] = {}

    def unique(base: str) -> str:
        n = used.get(base, 0) + 1
        used[base] = n
        return base if n == 1 else f"{base}#{n}"

    def walk(stmts: list[Stmt], coords: tuple[tuple[str, VarRef], ...]):
        for s in stmts:
            inner = coords
            if isinstance(s, ForLoop):
                s.name = unique(s.var)
                inner = coords + ((s.name, VarRef(s.var)),)
            elif isinstance(s, WhileLoop):
                s.name = unique("while")
            elif isinstance(s, Assign):
                s.orig_coords = coords
            for body in child_bodies(s):
                walk(body, inner)

    walk(p.body, ())
    return p


def dump_tree(p: Program) -> str:
    """Indented one-loop-per-line rendering: `name [lb,ub) step=k origin`."""
    lines: list[str] = []

    def walk(stmts, depth):
        for s in stmts:
            if isinstance(s, ForLoop):
                par = " parallel" if s.parallel else ""
                lines.append("  " * depth +
                             f"{s.name} [{emit.expr_str(s.lower)},{emit.expr_str(s.upper)}) "
                             f"step={s.step} {s.origin}{par}")
            elif isinstance(s, WhileLoop):
                lines.append("  " * depth + f"{s.name} while {s.origin}")
            inner = depth + 1 if isinstance(s, (ForLoop, WhileLoop)) else depth
            for body in child_bodies(s):
                walk(body, inner)

    walk(p.body, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Planning


@dataclass
class PlannedDirective:
    directive: Directive
    targets: tuple[str, ...]      # resolved loop names, in nest order
    attached: str                 # name of the loop the stack hangs on
    consumed: tuple[str, ...]
    introduced: tuple[str, ...]


@dataclass
class PlannedPipeline:
    steps: list[PlannedDirective] = field(default_factory=list)


def resolve_targets(d: Directive, attached, p: Program) -> tuple[str, ...]:
    """Expand empty targets to "the following loop" (and nest, when k > 1)."""
    kind = KINDS[d.kind]
    if kind.shape == BAND:
        # the clauses name the whole band; loop(...) is just an anchor
        return kind.band(d.clauses)
    if d.targets:
        return d.targets
    if attached is None:
        raise PlanError(f"{d.kind} directive has no following loop", d.line)
    if kind.shape == SIBLINGS:
        raise PlanError(f"{d.kind} requires explicit loop(...) targets", d.line)
    if kind.shape == NEST:
        if not isinstance(attached, ForLoop):
            raise PlanError(f"{d.kind} requires canonical for-loops", d.line)
        depth = kind.band(d.clauses)
        names = tuple(l.name for l in perfect_nest(attached, depth))
        if len(names) < depth:
            raise PlanError(f"{d.kind} needs {depth} perfectly nested loops "
                            f"below '{attached.name}'", d.line)
        return names
    return (attached.name,)


def plan_pipeline(p: Program) -> PlannedPipeline:
    """Order all directive stacks and simulate name consumption/introduction.

    Raises PlanError on unresolvable names, on references to already
    consumed loops, and on generated-name collisions.
    """
    live: dict[str, str] = {l.name: "source" for l in iter_loops(p.body)}
    consumed: dict[str, Directive] = {}
    plan = PlannedPipeline()

    for loop in iter_loops(p.body):
        for d in loop.pragmas:
            targets = resolve_targets(d, loop, p)
            for t in targets:
                if t not in live:
                    if t in consumed:
                        raise PlanError(
                            f"loop '{t}' was already replaced by "
                            f"{consumed[t].kind} (line {consumed[t].line})", d.line)
                    raise PlanError(f"unknown loop '{t}' in {d.kind} directive", d.line)
            cons, intro = KINDS[d.kind].effects(d.clauses, targets)
            for k, name in enumerate(intro):
                if name in intro[:k]:
                    raise PlanError(
                        f"generated loop name '{name}' is introduced twice", d.line)
                if name in live and name not in cons:
                    raise PlanError(
                        f"generated loop name '{name}' collides with an existing loop", d.line)
            for name in cons:
                del live[name]
                consumed[name] = d
            for name in intro:
                live[name] = "generated"
                consumed.pop(name, None)
            plan.steps.append(PlannedDirective(d, targets, loop.name, cons, intro))
    return plan


def resolve_loop_name(p: Program, name: str, consumed: dict[str, Directive] | None = None):
    """Look up a loop by name in the current tree.

    Raises PlanError with a "replaced" diagnostic when the name was consumed
    by an earlier directive, or "unknown" when it never existed.
    """
    matches = [l for l in iter_loops(p.body) if l.name == name]
    if len(matches) > 1:
        raise PlanError(f"loop name '{name}' is ambiguous")
    if not matches:
        if consumed and name in consumed:
            d = consumed[name]
            raise PlanError(f"loop '{name}' was replaced by {d.kind} (line {d.line})")
        raise PlanError(f"unknown loop '{name}'")
    return matches[0]

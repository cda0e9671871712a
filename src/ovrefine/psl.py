"""Lukasiewicz soft logic: expression trees, a small rule DSL, and exact
maximization of weighted rule sets over the two decision variables.

Semantics on [0, 1]:

    x & y  =  max(x + y - 1, 0)
    x | y  =  min(x + y, 1)
    !x     =  1 - x
    x -> y =  !x | y          (desugared at construction)

A weighted rule set over the free variables ``y_keep`` and ``y_recls`` is a
piecewise-linear function of the pair, so its exact maximum is found by
propagating a cell complex (convex polygons, each carrying an affine
function) through the expression trees and scanning cell vertices. A grid
scanner (`brute_force_solve`) serves as an independent oracle.

`eval_expr` is duck-typed over scalar number types: floats and Fractions
both work, which the tests use for exact-arithmetic identity checks. Its
builtin ``max``/``min`` reject numpy arrays; `_eval_array` is the numpy twin
that the grid oracle uses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Const",
    "Var",
    "Not",
    "And",
    "Or",
    "SoftExpr",
    "implies",
    "eval_expr",
    "format_expr",
    "UnboundVariableError",
    "Rule",
    "RuleSet",
    "RuleSyntaxError",
    "parse_rules",
    "format_rules",
    "ConstraintVector",
    "KEEP_VAR",
    "RECLS_VAR",
    "build_decision_rules",
    "SelectionPolicy",
    "SolverOutput",
    "solve",
    "solve_decisions",
    "brute_force_solve",
    "Decision",
    "decide",
]

KEEP_VAR = "y_keep"
RECLS_VAR = "y_recls"

CONF_VAR = "x_conf"
SIZE_VAR = "x_size"
SCENE_VAR = "x_scene"


# --------------------------------------------------------------------------
# Expression trees


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError(f"constant must be in [0, 1], got {self.value}")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "SoftExpr"


@dataclass(frozen=True)
class And:
    left: "SoftExpr"
    right: "SoftExpr"


@dataclass(frozen=True)
class Or:
    left: "SoftExpr"
    right: "SoftExpr"


SoftExpr = Union[Const, Var, Not, And, Or]


def implies(antecedent: SoftExpr, consequent: SoftExpr) -> Or:
    """Build ``a -> b``, which is definitionally ``!a | b``."""
    return Or(Not(antecedent), consequent)


class UnboundVariableError(LookupError):
    """Raised when evaluation hits a variable with no binding."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name!r}")
        self.name = name


def eval_expr(expr: SoftExpr, bindings: Mapping[str, float]):
    """Evaluate an expression under a full set of variable bindings.

    Works for any number type supporting +, -, and comparison with 0/1
    (floats, Fractions); the result lies in [0, 1].
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, Not):
        return 1 - eval_expr(expr.operand, bindings)
    if isinstance(expr, And):
        s = eval_expr(expr.left, bindings) + eval_expr(expr.right, bindings) - 1
        return max(s, 0)
    if isinstance(expr, Or):
        s = eval_expr(expr.left, bindings) + eval_expr(expr.right, bindings)
        return min(s, 1)
    raise TypeError(f"not a soft-logic expression: {expr!r}")


def _eval_array(expr: SoftExpr, bindings: Mapping[str, object], cache=None, tag=None):
    # numpy twin of eval_expr, used by the grid scanner; broadcasting keeps
    # single-variable subtrees cheap when bindings are row/column vectors.
    # `cache` (keyed by (expr, tag)) memoizes subtrees that mention free grid
    # variables only, which are identical across rule sets that differ just
    # in their bindings. No array is ever written in place, so cached grids
    # are safe to share.
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if cache is not None and not _depends_on(expr, cache["bound"]):
        key = (expr, tag)
        hit = cache["grids"].get(key)
        if hit is None:
            hit = _eval_array(expr, bindings)
            if len(cache["grids"]) >= _GRID_CACHE_CAP:
                cache["grids"].clear()
            cache["grids"][key] = hit
        return hit
    if isinstance(expr, Not):
        value = _eval_array(expr.operand, bindings, cache, tag)
        # keep scalars weakly typed so they do not promote array dtypes
        return 1.0 - value if isinstance(value, np.ndarray) else 1.0 - float(value)
    if isinstance(expr, (And, Or)):
        left = _eval_array(expr.left, bindings, cache, tag)
        s = left + _eval_array(expr.right, bindings, cache, tag)
        if not isinstance(s, np.ndarray):
            s = float(s)
            return max(s - 1.0, 0.0) if isinstance(expr, And) else min(s, 1.0)
        return np.maximum(s - 1.0, 0.0) if isinstance(expr, And) else np.minimum(s, 1.0)
    raise TypeError(f"not a soft-logic expression: {expr!r}")


_GRID_CACHE_CAP = 64
_GRID_CACHE: dict = {}


def _depends_on(expr, bound: frozenset) -> bool:
    if isinstance(expr, Const):
        return False
    if isinstance(expr, Var):
        return expr.name in bound
    if isinstance(expr, Not):
        return _depends_on(expr.operand, bound)
    return _depends_on(expr.left, bound) or _depends_on(expr.right, bound)


_PRECEDENCE = {Or: 1, And: 2, Not: 3}


def format_expr(expr: SoftExpr) -> str:
    """Pretty-print an expression in the rule-DSL syntax (round-trips)."""

    def fmt(node, parent_prec):
        if isinstance(node, Const):
            return repr(float(node.value)) if isinstance(node.value, float) else str(node.value)
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Not):
            return "!" + fmt(node.operand, _PRECEDENCE[Not])
        op, prec = ("&", _PRECEDENCE[And]) if isinstance(node, And) else ("|", _PRECEDENCE[Or])
        text = f"{fmt(node.left, prec)} {op} {fmt(node.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text

    return fmt(expr, 0)


def _expr_vars(expr: SoftExpr, acc: set[str]) -> set[str]:
    if isinstance(expr, Var):
        acc.add(expr.name)
    elif isinstance(expr, Not):
        _expr_vars(expr.operand, acc)
    elif isinstance(expr, (And, Or)):
        _expr_vars(expr.left, acc)
        _expr_vars(expr.right, acc)
    return acc


# --------------------------------------------------------------------------
# Rule sets


@dataclass(frozen=True)
class Rule:
    weight: float
    expr: SoftExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", float(self.weight))
        if not self.weight >= 0:
            raise ValueError(f"rule weight must be nonnegative, got {self.weight}")


@dataclass(frozen=True)
class RuleSet:
    """Weighted rules plus a partition of their variables into free and bound."""

    rules: tuple[Rule, ...]
    free_vars: tuple[str, ...] = ()
    bindings: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "free_vars", tuple(sorted(set(self.free_vars))))
        object.__setattr__(self, "bindings", dict(self.bindings))
        overlap = set(self.free_vars) & set(self.bindings)
        if overlap:
            raise ValueError(f"variables both free and bound: {sorted(overlap)}")
        known = set(self.free_vars) | set(self.bindings)
        used = self.variables()
        missing = used - known
        if missing:
            raise ValueError(f"variables neither free nor bound: {sorted(missing)}")
        for name, value in self.bindings.items():
            if not 0 <= value <= 1:
                raise ValueError(f"binding {name}={value} outside [0, 1]")

    def variables(self) -> set[str]:
        acc: set[str] = set()
        for rule in self.rules:
            _expr_vars(rule.expr, acc)
        return acc

    def bind(self, **values: float) -> "RuleSet":
        """Move free variables into the bindings, returning a new rule set."""
        unknown = set(values) - set(self.free_vars)
        if unknown:
            raise ValueError(f"not free variables: {sorted(unknown)}")
        free = tuple(v for v in self.free_vars if v not in values)
        return RuleSet(self.rules, free, {**self.bindings, **values})

    def total_value(self, assignment: Mapping[str, float]):
        """Weighted sum of rule values at a full assignment of free variables."""
        env = {**self.bindings, **assignment}
        return sum(rule.weight * eval_expr(rule.expr, env) for rule in self.rules)


def format_rules(ruleset: RuleSet) -> str:
    return "\n".join(f"{rule.weight!r} : {format_expr(rule.expr)}" for rule in ruleset.rules)


# --------------------------------------------------------------------------
# Rule DSL parser

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>->|[&|!():])"
)


class RuleSyntaxError(ValueError):
    """Rule-DSL syntax error carrying 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize_line(text: str, line_no: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _LineParser:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line = line_no
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        kind, text, col = self.peek()
        shown = "end of line" if kind == "end" else repr(text)
        raise RuleSyntaxError(f"{message}, found {shown}", self.line, col)

    def expect(self, op):
        kind, text, _col = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        self.fail(f"expected {op!r}")

    def parse_rule(self):
        kind, text, col = self.peek()
        if kind != "num":
            self.fail("expected a rule weight")
        self.advance()
        weight = float(text)
        self.expect(":")
        expr = self.parse_implies()
        kind, text, col = self.peek()
        if kind != "end":
            self.fail("expected end of rule")
        return Rule(weight, expr)

    def parse_implies(self):
        left = self.parse_or()
        kind, text, _col = self.peek()
        if kind == "op" and text == "->":
            self.advance()
            return implies(left, self.parse_implies())
        return left

    def parse_or(self):
        node = self.parse_and()
        while True:
            kind, text, _col = self.peek()
            if kind == "op" and text == "|":
                self.advance()
                node = Or(node, self.parse_and())
            else:
                return node

    def parse_and(self):
        node = self.parse_unary()
        while True:
            kind, text, _col = self.peek()
            if kind == "op" and text == "&":
                self.advance()
                node = And(node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        kind, text, _col = self.peek()
        if kind == "op" and text == "!":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        kind, text, col = self.peek()
        if kind == "ident":
            self.advance()
            return Var(text)
        if kind == "num":
            self.advance()
            try:
                return Const(float(text))
            except ValueError as exc:
                raise RuleSyntaxError(str(exc), self.line, col) from None
        if kind == "op" and text == "(":
            self.advance()
            node = self.parse_implies()
            self.expect(")")
            return node
        self.fail("expected a variable, constant, or '('")


def parse_rules(text: str) -> RuleSet:
    """Parse rule-DSL source: one ``weight : expr`` rule per line.

    Blank lines and ``#`` comments are skipped. All variables come back
    free; use :meth:`RuleSet.bind` to fix known values.
    """
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        parser = _LineParser(_tokenize_line(line, line_no), line_no)
        rules.append(parser.parse_rule())
    names: set[str] = set()
    for rule in rules:
        _expr_vars(rule.expr, names)
    return RuleSet(tuple(rules), tuple(sorted(names)))


# --------------------------------------------------------------------------
# Decision rules over (y_keep, y_recls)


@dataclass(frozen=True)
class ConstraintVector:
    """Per-object rationality scores: confidence, size fit, scene fit."""

    conf: float
    size: float
    scene: float

    def __post_init__(self) -> None:
        _constraint_bindings(self.conf, self.size, self.scene)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.conf, self.size, self.scene)


def _constraint_bindings(conf: float, size: float, scene: float) -> dict[str, float]:
    """The bound variables of the decision rules, each checked to lie in [0, 1]."""
    for name, value in (("conf", conf), ("size", size), ("scene", scene)):
        if not 0 <= value <= 1:
            raise ValueError(f"constraint {name}={value} outside [0, 1]")
    return {CONF_VAR: conf, SIZE_VAR: size, SCENE_VAR: scene}


def _decision_rules(weights: tuple[float, float, float]) -> tuple[Rule, ...]:
    conf, size, scene = Var(CONF_VAR), Var(SIZE_VAR), Var(SCENE_VAR)
    keep, recls = Var(KEEP_VAR), Var(RECLS_VAR)
    w1, w2, w3 = weights
    return (
        Rule(w1, implies(And(And(conf, size), scene), And(keep, Not(recls)))),
        Rule(w2, implies(And(conf, Not(And(size, scene))), Or(Not(keep), recls))),
        Rule(w3, implies(Not(conf), Not(keep))),
    )


def build_decision_rules(
    x: ConstraintVector, weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> RuleSet:
    """The three keep/remove/reclassify rules, with constraint values bound.

    - all constraints hold      ->  keep and do not reclassify
    - confident but a bad fit   ->  drop or reclassify
    - not confident             ->  drop
    """
    bindings = _constraint_bindings(*x.as_tuple())
    return RuleSet(_decision_rules(weights), (KEEP_VAR, RECLS_VAR), bindings)


# --------------------------------------------------------------------------
# Exact solver

_EPS = 1e-12
# near-tie slack when comparing vertex objective values: generous against
# float noise (~1e-15 here) yet far below any meaningful objective gap
_TIE = 1e-12

_UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def _clip_halfplane(poly, a, b, c):
    # poly ∩ {a*x + b*y <= c}; poly convex CCW, output convex CCW.
    # Normalizing makes _EPS a distance tolerance, so very short clip edges
    # (whose raw coefficients are tiny) still discriminate correctly.
    norm = math.hypot(a, b)
    if norm < 1e-300:
        return list(poly) if c >= 0.0 else []
    a, b, c = a / norm, b / norm, c / norm
    out = []
    n = len(poly)
    for i in range(n):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % n]
        fp = a * px + b * py - c
        fq = a * qx + b * qy - c
        if fp <= _EPS:
            out.append((px, py))
        if (fp <= _EPS) != (fq <= _EPS):
            t = fp / (fp - fq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    # drop exact consecutive duplicates so degenerate edges do not pile up
    if len(out) > 1:
        deduped = [out[0]]
        for point in out[1:]:
            if point != deduped[-1]:
                deduped.append(point)
        if len(deduped) > 1 and deduped[-1] == deduped[0]:
            deduped.pop()
        out = deduped
    return out


def _poly_area(poly) -> float:
    area = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def _poly_intersect(p, q):
    out = p
    n = len(q)
    for i in range(n):
        ax, ay = q[i]
        bx, by = q[(i + 1) % n]
        # left side of the CCW edge a->b as a halfplane
        out = _clip_halfplane(out, by - ay, ax - bx, (by - ay) * ax + (ax - bx) * ay)
        if len(out) < 3:
            return []
    return out


def _split_piece(poly, t, threshold, below_affine, above_affine):
    # Partition poly by the line t(x, y) = threshold; t = (a, b, c).
    a, b, c = t
    pieces = []
    below = _clip_halfplane(poly, a, b, threshold - c)
    if len(below) >= 3 and abs(_poly_area(below)) > 1e-14:
        pieces.append((below, below_affine))
    above = _clip_halfplane(poly, -a, -b, c - threshold)
    if len(above) >= 3 and abs(_poly_area(above)) > 1e-14:
        pieces.append((above, above_affine))
    return pieces


def _pwl(expr: SoftExpr, bindings: Mapping[str, float]):
    """Cell complex of (convex polygon, affine (a, b, c)) pairs covering the
    unit square; the affine gives a*y_keep + b*y_recls + c on its polygon."""
    if isinstance(expr, Const):
        return [(list(_UNIT_SQUARE), (0.0, 0.0, float(expr.value)))]
    if isinstance(expr, Var):
        if expr.name in bindings:
            return [(list(_UNIT_SQUARE), (0.0, 0.0, float(bindings[expr.name])))]
        if expr.name == KEEP_VAR:
            return [(list(_UNIT_SQUARE), (1.0, 0.0, 0.0))]
        if expr.name == RECLS_VAR:
            return [(list(_UNIT_SQUARE), (0.0, 1.0, 0.0))]
        raise UnboundVariableError(expr.name)
    if isinstance(expr, Not):
        return [(poly, (-a, -b, 1.0 - c)) for poly, (a, b, c) in _pwl(expr.operand, bindings)]
    if not isinstance(expr, (And, Or)):
        raise TypeError(f"not a soft-logic expression: {expr!r}")

    left = _pwl(expr.left, bindings)
    right = _pwl(expr.right, bindings)
    pieces = []
    for poly_l, (al, bl, cl) in left:
        for poly_r, (ar, br, cr) in right:
            poly = _poly_intersect(poly_l, poly_r)
            if len(poly) < 3 or abs(_poly_area(poly)) <= 1e-14:
                continue
            a, b = al + ar, bl + br
            if isinstance(expr, And):
                t = (a, b, cl + cr - 1.0)
                if abs(a) < _EPS and abs(b) < _EPS:
                    pieces.append((poly, (0.0, 0.0, max(t[2], 0.0))))
                else:
                    pieces.extend(_split_piece(poly, t, 0.0, (0.0, 0.0, 0.0), t))
            else:
                t = (a, b, cl + cr)
                if abs(a) < _EPS and abs(b) < _EPS:
                    pieces.append((poly, (0.0, 0.0, min(t[2], 1.0))))
                else:
                    pieces.extend(_split_piece(poly, t, 1.0, t, (0.0, 0.0, 1.0)))
    return pieces


def _objective_complex(rules: Sequence[Rule], bindings: Mapping[str, float]):
    total = [(list(_UNIT_SQUARE), (0.0, 0.0, 0.0))]
    for rule in rules:
        pieces = _pwl(rule.expr, bindings)
        w = rule.weight
        merged = []
        for poly_t, (at, bt, ct) in total:
            for poly_r, (ar, br, cr) in pieces:
                poly = _poly_intersect(poly_t, poly_r)
                if len(poly) >= 3 and abs(_poly_area(poly)) > 1e-14:
                    merged.append((poly, (at + w * ar, bt + w * br, ct + w * cr)))
        total = merged
    return total


class SelectionPolicy(Enum):
    """Tie-breaking among the (frequently non-unique) global maximizers."""

    MAX_KEEP_MIN_RECLS = "max-keep-min-recls"
    MIN_KEEP = "min-keep"
    SCENE_CONSERVATIVE = "scene-conservative"


@dataclass(frozen=True)
class SolverOutput:
    """The maximizer ``(y_keep, y_recls)`` picked by the selection policy and
    the objective value it attains."""

    y_keep: float
    y_recls: float
    objective: float


def solve(
    ruleset: RuleSet, policy: SelectionPolicy = SelectionPolicy.SCENE_CONSERVATIVE
) -> SolverOutput:
    """Exactly maximize the weighted rule sum over (y_keep, y_recls) in [0,1]^2.

    The objective is piecewise linear, so the maximum is attained at a
    vertex of the induced cell complex; the policy picks one point out of
    the optimum set (lexicographic max/min of y_keep, then min of y_recls).
    """
    if set(ruleset.free_vars) != {KEEP_VAR, RECLS_VAR}:
        raise ValueError(
            f"solver requires free variables {{{KEEP_VAR!r}, {RECLS_VAR!r}}}, "
            f"got {sorted(ruleset.free_vars)}"
        )
    return _solve(ruleset.rules, ruleset.bindings, policy)


def solve_decisions(
    xs: Iterable[tuple[float, float, float]],
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
    policy: SelectionPolicy = SelectionPolicy.SCENE_CONSERVATIVE,
) -> list[SolverOutput]:
    """The solution of the decision program for each ``(conf, size, scene)``.

    The three decision rules are built once per call and solved under each
    triple's bindings, with no `RuleSet` per object. Raises ``ValueError``,
    before any solve, for a constraint outside [0, 1] or NaN, then for a
    negative or NaN weight.

    Each result is bit for bit
    ``solve(build_decision_rules(ConstraintVector(*x), weights), policy)``:
    the benchmark's reference digest of the refine log pins the solver's
    last-bit rounding, so this runs the same cell-complex arithmetic in the
    same order. A faster closed form has to wait until that check compares
    the solver's floats within a tolerance.

    It uses only its arguments, so a worker process can run it under any
    start method; pickle carries the floats both ways exactly.
    """
    bindings = [_constraint_bindings(*x) for x in xs]
    rules = _decision_rules(weights)
    return [_solve(rules, bound, policy) for bound in bindings]


def _solve(
    rules: Sequence[Rule], bindings: Mapping[str, float], policy: SelectionPolicy
) -> SolverOutput:
    complex_ = _objective_complex(rules, bindings)
    best = -float("inf")
    vertices = []  # (value, x, y)
    for poly, (a, b, c) in complex_:
        for x, y in poly:
            value = a * x + b * y + c
            vertices.append((value, x, y))
            if value > best:
                best = value

    candidates = [(x, y) for value, x, y in vertices if value >= best - _TIE]

    effective = policy
    if policy is SelectionPolicy.SCENE_CONSERVATIVE:
        scene = bindings.get(SCENE_VAR, 1.0)
        effective = (
            SelectionPolicy.MIN_KEEP if scene == 0 else SelectionPolicy.MAX_KEEP_MIN_RECLS
        )

    if effective is SelectionPolicy.MAX_KEEP_MIN_RECLS:
        k_star = max(x for x, _ in candidates)
        pool = [(x, y) for x, y in candidates if x >= k_star - _TIE]
        chosen = min(pool, key=lambda p: (p[1], -p[0]))
    else:
        k_star = min(x for x, _ in candidates)
        pool = [(x, y) for x, y in candidates if x <= k_star + _TIE]
        chosen = min(pool, key=lambda p: (p[1], p[0]))

    return SolverOutput(chosen[0], chosen[1], best)


def brute_force_solve(
    ruleset: RuleSet, resolution: float, dtype=np.float64
) -> SolverOutput:
    """Exhaustive grid scan over [0,1]^2 at the given step; test oracle.

    Independent of `solve`: evaluates the weighted expression trees at
    every grid point and returns the best one. Accepts rule sets whose
    free variables are any subset of {y_keep, y_recls}.
    """
    if not 0.0 < resolution <= 0.1:
        raise ValueError(f"resolution must be in (0, 0.1], got {resolution}")
    free = set(ruleset.free_vars)
    if not free <= {KEEP_VAR, RECLS_VAR}:
        raise ValueError(f"grid scan handles only {{{KEEP_VAR!r}, {RECLS_VAR!r}}} free")

    cache = {"bound": frozenset(ruleset.bindings), "grids": _GRID_CACHE}

    def total(bindings, tag):
        return sum(
            (rule.weight * _eval_array(rule.expr, bindings, cache, tag) for rule in ruleset.rules),
            0.0,
        )

    n = int(round(1.0 / resolution)) + 1
    axis = np.linspace(0.0, 1.0, n, dtype=dtype)
    dtype_key = np.dtype(dtype).str
    point = {KEEP_VAR: 0.0, RECLS_VAR: 0.0}

    if not free:
        value = float(total(dict(ruleset.bindings), None))
        return SolverOutput(0.0, 0.0, value)

    if len(free) == 1:
        (name,) = free
        tag = (n, dtype_key, "1d", name)
        values = np.broadcast_to(total({**ruleset.bindings, name: axis}, tag), axis.shape)
        idx = int(np.argmax(values))
        point[name] = float(axis[idx])
        return SolverOutput(point[KEEP_VAR], point[RECLS_VAR], float(values[idx]))

    # Full 2-D scan, in column strips so temporaries stay cache-resident.
    col = axis[:, None]
    best = -float("inf")
    strip = 128
    for j0 in range(0, n, strip):
        row = axis[None, j0 : j0 + strip]
        tag = (n, dtype_key, "2d", j0)
        values = total({**ruleset.bindings, KEEP_VAR: col, RECLS_VAR: row}, tag)
        values = np.broadcast_to(values, (n, row.shape[1]))
        m = float(values.max())
        if m > best:
            best = m
            flat = int(values.argmax())
            point[KEEP_VAR] = float(axis[flat // row.shape[1]])
            point[RECLS_VAR] = float(axis[j0 + flat % row.shape[1]])
    return SolverOutput(point[KEEP_VAR], point[RECLS_VAR], best)


# --------------------------------------------------------------------------
# Decision thresholds


class Decision(Enum):
    KEEP = "keep"
    REMOVE = "remove"
    RECLASSIFY = "reclassify"


def decide(solution: SolverOutput, phi_keep: float, phi_recls: float) -> Decision:
    """Threshold the solved scores: drop unless y_keep clears phi_keep, then
    reclassify when y_recls exceeds phi_recls."""
    for name, value in (("phi_keep", phi_keep), ("phi_recls", phi_recls)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    if solution.y_keep <= phi_keep:
        return Decision.REMOVE
    if solution.y_recls > phi_recls:
        return Decision.RECLASSIFY
    return Decision.KEEP

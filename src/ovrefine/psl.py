"""Lukasiewicz soft logic: expression trees, weighted rule sets, and exact
maximization of a rule set over the two decision variables.

Semantics on [0, 1]:

    x & y  =  max(x + y - 1, 0)
    x | y  =  min(x + y, 1)
    !x     =  1 - x
    x -> y =  !x | y          (desugared at construction, by `implies`)

Rules are built from the constructors `Var`, `Const`, `Not`, `And`, `Or` and
`implies`; the infix forms above are notation only.

A weighted rule set over the free variables ``y_keep`` and ``y_recls`` is a
piecewise-linear function of the pair, so its exact maximum is found by
propagating a cell complex (convex polygons, each carrying an affine
function) through the expression trees and scanning cell vertices. Only
plain Python floats are used: the module imports no numpy.

`eval_expr` is duck-typed over scalar number types: floats and Fractions
both work, which the tests use for exact-arithmetic identity checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

from .geometry import _polygon_area
from .jsonl import brief

__all__ = [
    "Const",
    "Var",
    "Not",
    "And",
    "Or",
    "SoftExpr",
    "implies",
    "eval_expr",
    "UnboundVariableError",
    "Rule",
    "RuleSet",
    "ConstraintVector",
    "KEEP_VAR",
    "RECLS_VAR",
    "build_decision_rules",
    "SelectionPolicy",
    "SolverOutput",
    "solve",
    "solve_decisions",
    "Decision",
    "decide",
]

KEEP_VAR = "y_keep"
RECLS_VAR = "y_recls"
_DECISION_VARS = frozenset((KEEP_VAR, RECLS_VAR))

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

    Works for any scalar number type supporting +, -, and comparison with
    0/1 (floats, Fractions); the result lies in [0, 1]. Its builtin
    ``max``/``min`` reject numpy arrays.
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
        try:
            weight = float(self.weight)
        except OverflowError:  # an int beyond the float range
            weight = math.nan
        if not 0 <= weight < math.inf:
            raise ValueError(f"rule weight must be nonnegative and finite, got {self.weight}")
        object.__setattr__(self, "weight", weight)


@dataclass(frozen=True)
class RuleSet:
    """Weighted rules whose free variables are ``y_keep`` and ``y_recls``;
    every other variable they use is bound to a value in [0, 1]."""

    rules: tuple[Rule, ...]
    bindings: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "bindings", dict(self.bindings))
        bound = _DECISION_VARS & set(self.bindings)
        if bound:
            raise ValueError(f"decision variables cannot be bound: {sorted(bound)}")
        missing = self.variables() - _DECISION_VARS - set(self.bindings)
        if missing:
            raise ValueError(f"variables neither bound nor decision variables: {sorted(missing)}")
        for name, value in self.bindings.items():
            if not 0 <= value <= 1:
                raise ValueError(f"binding {name}={value} outside [0, 1]")

    def variables(self) -> set[str]:
        acc: set[str] = set()
        for rule in self.rules:
            _expr_vars(rule.expr, acc)
        return acc

    def total_value(self, assignment: Mapping[str, float]):
        """Weighted sum of rule values at an assignment of y_keep and y_recls."""
        env = {**self.bindings, **assignment}
        return sum(rule.weight * eval_expr(rule.expr, env) for rule in self.rules)


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
            raise ValueError(f"constraint {name}={brief(value)} outside [0, 1]")
    return {CONF_VAR: conf, SIZE_VAR: size, SCENE_VAR: scene}


# each decision rule's affine has |a|, |b| <= 1 and 0 <= c <= 2 on every cell, so
# the solver's sums stay within 4x the weight sum: this leaves 2x for rounding
_MAX_WEIGHT_SUM = sys.float_info.max / 8


def _decision_rules(weights: tuple[float, float, float]) -> tuple[Rule, ...]:
    conf, size, scene = Var(CONF_VAR), Var(SIZE_VAR), Var(SCENE_VAR)
    keep, recls = Var(KEEP_VAR), Var(RECLS_VAR)
    w1, w2, w3 = weights
    rules = (
        Rule(w1, implies(And(And(conf, size), scene), And(keep, Not(recls)))),
        Rule(w2, implies(And(conf, Not(And(size, scene))), Or(Not(keep), recls))),
        Rule(w3, implies(Not(conf), Not(keep))),
    )
    if not sum(rule.weight for rule in rules) <= _MAX_WEIGHT_SUM:
        raise ValueError(
            f"rule weights must sum to at most {_MAX_WEIGHT_SUM:.4g}, beyond which the "
            f"solver's sums overflow, got {w1}, {w2}, {w3}"
        )
    return rules


def build_decision_rules(
    x: ConstraintVector, weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> RuleSet:
    """The three keep/remove/reclassify rules, with constraint values bound.

    - all constraints hold      ->  keep and do not reclassify
    - confident but a bad fit   ->  drop or reclassify
    - not confident             ->  drop
    """
    bindings = _constraint_bindings(*x.as_tuple())
    return RuleSet(_decision_rules(weights), bindings)


# --------------------------------------------------------------------------
# Exact solver

# a clip keeps a vertex up to _EPS outside its halfplane, where a cell's affine
# misses the rule's truth by up to _EPS per unit weight; clip points round ~1e-16
_EPS = 1e-14
# near-tie slack between vertex coordinates, and between vertex objectives per
# unit of the largest rule weight (`_tie`): generous against float noise (~1e-15
# here) yet far below any meaningful gap, so a rule whose weight is below about
# 1e-12 of the largest acts as if its weight were 0
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


def _poly_intersect(p, q):
    """``p`` clipped by each CCW edge of ``q`` in turn ([] if under 3 vertices).

    The clip by an edge of ``q`` that lies on a side of the unit square, run
    along that side counterclockwise, is skipped when every vertex of ``p``
    already passes it: the clip would return ``p``'s vertices unchanged. On
    such an edge `_clip_halfplane`'s normalised coefficients are exactly
    ±1 and 0, so its test at a vertex is ``x - 1.0``, ``-x``, ``-y`` or
    ``y - 1.0 <= _EPS``; float rounding is monotone, so ``p``'s extreme
    coordinate decides it for every vertex; and every polygon that reaches
    here is the unit square or came out of `_clip_halfplane`'s dedupe, which a
    clip that keeps every vertex leaves as it is. Any other edge, or a side
    that ``p`` crosses, is clipped as before. So ``p`` itself comes back when
    no edge clips; no polygon is ever changed in place.
    """
    out = p
    xs = ys = None  # out's coordinates, read at the first side edge
    n = len(q)
    for i in range(n):
        ax, ay = q[i]
        bx, by = q[(i + 1) % n]
        if ax == bx and (ax == 1.0 and by > ay or ax == 0.0 and by < ay):
            if xs is None:
                xs, ys = [x for x, _ in out], [y for _, y in out]
            if (max(xs) - 1.0 if ax else -min(xs)) <= _EPS:
                continue
        elif ay == by and (ay == 0.0 and bx > ax or ay == 1.0 and bx < ax):
            if xs is None:
                xs, ys = [x for x, _ in out], [y for _, y in out]
            if (max(ys) - 1.0 if ay else -min(ys)) <= _EPS:
                continue
        # left side of the CCW edge a->b as a halfplane
        out = _clip_halfplane(out, by - ay, ax - bx, (by - ay) * ax + (ax - bx) * ay)
        xs = None
        if len(out) < 3:
            return []
    return out


def _split_piece(poly, t, threshold, below_affine, above_affine):
    # Partition poly by the line t(x, y) = threshold; t = (a, b, c).
    a, b, c = t
    pieces = []
    below = _clip_halfplane(poly, a, b, threshold - c)
    if len(below) >= 3 and _polygon_area(below) > 1e-14:
        pieces.append((below, below_affine))
    above = _clip_halfplane(poly, -a, -b, c - threshold)
    if len(above) >= 3 and _polygon_area(above) > 1e-14:
        pieces.append((above, above_affine))
    return pieces


def _pwl(expr: SoftExpr, bindings: Mapping[str, float]):
    """Cell complex of (convex polygon, affine (a, b, c)) pairs covering the
    unit square; the affine gives a*y_keep + b*y_recls + c on its polygon. A
    subtree that holds neither decision variable is one cell, at the value
    `eval_expr` gives it."""
    if _expr_vars(expr, set()).isdisjoint(_DECISION_VARS):
        return [(list(_UNIT_SQUARE), (0.0, 0.0, float(eval_expr(expr, bindings))))]
    if isinstance(expr, Var):
        affine = (1.0, 0.0, 0.0) if expr.name == KEEP_VAR else (0.0, 1.0, 0.0)
        return [(list(_UNIT_SQUARE), affine)]
    if isinstance(expr, Not):
        return [(poly, (-a, -b, 1.0 - c)) for poly, (a, b, c) in _pwl(expr.operand, bindings)]
    left, right = _pwl(expr.left, bindings), _pwl(expr.right, bindings)
    return _combine(expr, left, right, _overlaps(left, right))


def _combine(expr: And | Or, left, right, overlaps):
    """The cells of ``expr`` from the cells of its two sides and the
    `_overlaps` of those, on which the And or Or is split."""
    pieces = []
    for poly, i, j in overlaps:
        (al, bl, cl), (ar, br, cr) = left[i][1], right[j][1]
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


def _overlaps(left, right):
    # (polygon, i, j) for each pair of cells left[i], right[j] that overlap
    out = []
    for i, (poly_l, _) in enumerate(left):
        for j, (poly_r, _) in enumerate(right):
            poly = _poly_intersect(poly_l, poly_r)
            if len(poly) >= 3 and _polygon_area(poly) > 1e-14:
                out.append((poly, i, j))
    return out


def _merge(weighted: Iterable[tuple[list, float]]):
    """The complex of the weighted sum of the ``(cells, weight)`` pairs, added
    in their order."""
    total = [(list(_UNIT_SQUARE), (0.0, 0.0, 0.0))]
    for pieces, w in weighted:
        merged = []
        for poly, i, j in _overlaps(total, pieces):
            (at, bt, ct), (ar, br, cr) = total[i][1], pieces[j][1]
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

    Raises ``ValueError`` when a cell's coefficient or a vertex value of the
    weighted sum is not finite, as weights near the float range's top make it.
    """
    rules, bindings = ruleset.rules, ruleset.bindings
    complex_ = _merge((_pwl(rule.expr, bindings), rule.weight) for rule in rules)
    # no bound on a general rule set's weights keeps its sums finite
    for poly, (a, b, c) in complex_:
        if not all(map(math.isfinite, (a, b, c, *(a * x + b * y + c for x, y in poly)))):
            raise ValueError("rule weights too large: the weighted rule sum overflows")
    return _pick(complex_, _tie(rules), bindings.get(SCENE_VAR, 1.0), policy)


def solve_decisions(
    xs: Iterable[tuple[float, float, float]],
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
    policy: SelectionPolicy = SelectionPolicy.SCENE_CONSERVATIVE,
) -> list[SolverOutput]:
    """The solution of the decision program for each ``(conf, size, scene)``.

    Raises ``ValueError``, before any solve, for a constraint outside [0, 1]
    or NaN, then for a negative, infinite or NaN weight (or an int beyond the
    float range), then for weights whose sum would overflow the solver's sums.

    Every decision rule is ``!antecedent | consequent``, with constraint
    values alone in the antecedent and ``y_keep``, ``y_recls`` alone in the
    consequent. So each consequent's cells, and their overlaps with the unit
    square, are built once per call, with no `RuleSet` per object. Per triple,
    the negated antecedent is one unit-square cell at the value `eval_expr`
    gives it, as `_pwl` builds it; `_combine` splits the consequent's cells
    at it, `_merge` adds the three rules and `_pick` applies the policy. The merge
    skips every clip by a side of the unit square that would cut nothing
    (`_poly_intersect`), about 31 of the 54 clips per object on the
    benchmark's scenes.

    Each result is bit for bit
    ``solve(build_decision_rules(ConstraintVector(*x), weights), policy)``,
    as the benchmark's digest of the refine log requires: each reused cell
    list is the value `_pwl` computes, and the rest runs the same arithmetic
    in the same order.

    It uses only its arguments, so a worker process can run it under any
    start method.
    """
    bindings = [_constraint_bindings(*x) for x in xs]
    rules = _decision_rules(weights)
    square = [(list(_UNIT_SQUARE), None)]
    consequents = []
    for rule in rules:
        cells = _pwl(rule.expr.right, {})
        consequents.append((rule.expr, rule.weight, cells, _overlaps(square, cells)))
    tie = _tie(rules)
    out = []
    for bound in bindings:
        complex_ = _merge(
            (_combine(expr, [(None, (0.0, 0.0, float(eval_expr(expr.left, bound))))],
                      cells, overlaps), w)
            for expr, w, cells, overlaps in consequents
        )
        out.append(_pick(complex_, tie, bound[SCENE_VAR], policy))
    return out


def _tie(rules: Sequence[Rule]) -> float:
    return _TIE * max((rule.weight for rule in rules), default=0.0)


def _pick(complex_, tie: float, scene: float, policy: SelectionPolicy) -> SolverOutput:
    # the policy's point among the vertices of the objective's complex that
    # reach its maximum, within ``tie``
    best = -float("inf")
    vertices = []  # (value, x, y)
    for poly, (a, b, c) in complex_:
        for x, y in poly:
            value = a * x + b * y + c
            vertices.append((value, x, y))
            if value > best:
                best = value

    candidates = [(x, y) for value, x, y in vertices if value >= best - tie]

    effective = policy
    if policy is SelectionPolicy.SCENE_CONSERVATIVE:
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

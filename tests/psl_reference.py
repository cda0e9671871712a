"""Oracles for the soft-logic solver, independent of `ovrefine.psl.solve`'s
cell complex: an exhaustive numpy scan of the (y_keep, y_recls) square, and
the decision program's optimal corner in exact arithmetic.

`_eval_array` is the numpy twin of `ovrefine.psl.eval_expr`, whose builtin
``max``/``min`` reject arrays. `brute_force_solve` evaluates the weighted
expression trees with it at every grid point and returns the best one;
`_GRID_CACHE` keeps the subtrees over the grid variables alone, which every
rule set of one shape shares, so that a thousand scans at 1e-3 stay quick.

`exact_solution` needs no search: the three decision rules always hold
together, so the optimum is the weight sum, and each policy picks a known
corner of the polygon where every rule of positive weight holds (Bach et
al., "Hinge-Loss Markov Random Fields and Probabilistic Soft Logic", JMLR
2017, for MAP inference over such rules as a linear program).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ovrefine.psl import (
    KEEP_VAR,
    RECLS_VAR,
    And,
    Const,
    Not,
    Or,
    RuleSet,
    SelectionPolicy,
    SoftExpr,
    SolverOutput,
    UnboundVariableError,
    Var,
)


def _eval_array(expr: SoftExpr, bindings: Mapping[str, object], cache=None, tag=None):
    # numpy twin of eval_expr, used by the grid scanner; broadcasting keeps
    # single-variable subtrees cheap when bindings are row/column vectors.
    # `cache` (keyed by (expr, tag)) memoizes subtrees that mention free grid
    # variables only, which are identical across rule sets that differ just
    # in their bindings. No array is ever written in place, so cached grids
    # are safe to share.
    import numpy as np

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


def brute_force_solve(
    ruleset: RuleSet, resolution: float, dtype="float64"
) -> SolverOutput:
    """Exhaustive grid scan over [0,1]^2 at the given step; test oracle.

    Independent of `solve`: evaluates the weighted expression trees at
    every point of the (y_keep, y_recls) grid and returns the best one.
    """
    import numpy as np

    if not 0.0 < resolution <= 0.1:
        raise ValueError(f"resolution must be in (0, 0.1], got {resolution}")
    cache = {"bound": frozenset(ruleset.bindings), "grids": _GRID_CACHE}

    def total(bindings, tag):
        return sum(
            (rule.weight * _eval_array(rule.expr, bindings, cache, tag) for rule in ruleset.rules),
            0.0,
        )

    n = int(round(1.0 / resolution)) + 1
    axis = np.linspace(0.0, 1.0, n, dtype=dtype)
    dtype_key = np.dtype(dtype).str

    # scanned in column strips so temporaries stay cache-resident
    col = axis[:, None]
    best, keep, recls = -float("inf"), 0.0, 0.0
    strip = 128
    for j0 in range(0, n, strip):
        row = axis[None, j0 : j0 + strip]
        tag = (n, dtype_key, j0)
        values = total({**ruleset.bindings, KEEP_VAR: col, RECLS_VAR: row}, tag)
        values = np.broadcast_to(values, (n, row.shape[1]))
        m = float(values.max())
        if m > best:
            best = m
            flat = int(values.argmax())
            keep = float(axis[flat // row.shape[1]])
            recls = float(axis[j0 + flat % row.shape[1]])
    return SolverOutput(keep, recls, best)


def exact_solution(
    x: tuple[float, float, float],
    weights: tuple[float, float, float],
    policy: SelectionPolicy,
) -> tuple[Fraction, Fraction, Fraction]:
    """The policy's optimal ``(y_keep, y_recls, objective)`` of the decision
    rules at constraints ``x = (conf, size, scene)``, in exact ``Fraction``s.

    With ``k = y_keep``, ``r = y_recls``, ``a = max(conf+size+scene-2, 0)``
    and ``b = max(conf - max(size+scene-1, 0), 0)``, rule 1 has truth 1
    where ``k - r >= a``, rule 2 where ``r >= k + b - 1`` and rule 3 where
    ``k <= conf``. Since ``a <= conf`` and ``a + b <= 1`` the three always
    meet, so the optimum is ``w1 + w2 + w3``. Max-keep takes ``k = conf``
    (1 if ``w3`` is 0), min-keep ``k = a`` (0 if ``w1`` is 0), and
    scene-conservative min-keep at ``scene == 0``, else max-keep; then
    ``r = max(k + b - 1, 0)``, or 0 if ``w2`` is 0.
    """
    conf, size, scene = map(Fraction, x)
    w1, w2, w3 = map(Fraction, weights)
    a = max(conf + size + scene - 2, 0)
    b = max(conf - max(size + scene - 1, 0), 0)
    if policy is SelectionPolicy.SCENE_CONSERVATIVE:
        policy = SelectionPolicy.MIN_KEEP if scene == 0 else SelectionPolicy.MAX_KEEP_MIN_RECLS
    if policy is SelectionPolicy.MAX_KEEP_MIN_RECLS:
        keep = conf if w3 else Fraction(1)
    else:
        keep = Fraction(a) if w1 else Fraction(0)
    recls = Fraction(max(keep + b - 1, 0)) if w2 else Fraction(0)
    return keep, recls, w1 + w2 + w3

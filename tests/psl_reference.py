"""The grid oracle for the soft-logic solver: an exhaustive numpy scan of the
(y_keep, y_recls) square, independent of `ovrefine.psl.solve`'s cell complex.

`_eval_array` is the numpy twin of `ovrefine.psl.eval_expr`, whose builtin
``max``/``min`` reject arrays. `brute_force_solve` evaluates the weighted
expression trees with it at every grid point and returns the best one;
`_GRID_CACHE` keeps the subtrees over the grid variables alone, which every
rule set of one shape shares, so that a thousand scans at 1e-3 stay quick.
"""

from __future__ import annotations

from typing import Mapping

from ovrefine.psl import (
    KEEP_VAR,
    RECLS_VAR,
    And,
    Const,
    Not,
    Or,
    RuleSet,
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

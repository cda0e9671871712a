"""Tour of the soft-logic layer: expressions, rules, and the exact solver.

Run with: python demos/01_soft_logic_solver.py
"""

import numpy as np

from ovrefine import (
    And,
    Const,
    ConstraintVector,
    Not,
    SelectionPolicy,
    Var,
    brute_force_solve,
    build_decision_rules,
    decide,
    eval_expr,
    implies,
    solve,
)

# --- Lukasiewicz connectives -------------------------------------------------
# Truth values live in [0, 1]:  x & y = max(x+y-1, 0),  x | y = min(x+y, 1),
# !x = 1-x, and implication desugars to !a | b.
print("0.7 & 0.6          =", eval_expr(And(Const(0.7), Const(0.6)), {}))
print("0.4 -> 0.9         =", eval_expr(implies(Const(0.4), Const(0.9)), {}))
print("!(a & b) with vars =", eval_expr(Not(And(Var("a"), Var("b"))), {"a": 0.9, "b": 0.8}))

# --- The three decision rules ------------------------------------------------
# For one detected object the constraints are bound and two scores stay free:
#   1 : x_conf & x_size & x_scene -> y_keep & !y_recls
#   1 : x_conf & !(x_size & x_scene) -> !y_keep | y_recls
#   1 : !x_conf -> !y_keep
x = ConstraintVector(conf=0.9, size=0.5419, scene=1.0)
rules = build_decision_rules(x)
print("\nrules over free y_keep, y_recls with bindings", rules.bindings)

# --- Exact maximization vs. the grid oracle ----------------------------------
# The weighted rule sum is piecewise linear in (y_keep, y_recls), so the
# solver enumerates the induced cell complex and reads the optimum off the
# cell vertices. A dumb grid scan agrees to within its resolution.
solution = solve(rules, SelectionPolicy.MAX_KEEP_MIN_RECLS)
oracle = brute_force_solve(rules, resolution=0.01)
print(f"\nexact:  y_keep={solution.y_keep:.4f} y_recls={solution.y_recls:.4f} "
      f"objective={solution.objective:.6f}")
print(f"oracle: y_keep={oracle.y_keep:.4f} y_recls={oracle.y_recls:.4f} "
      f"objective={oracle.objective:.6f}")

# The optimum here is a whole face of the square, so the selection policy
# matters: the scene-conservative default minimizes y_keep only when the
# scene constraint failed (x_scene = 0).
for policy in SelectionPolicy:
    out = solve(rules, policy)
    print(f"{policy.value:22s} -> ({out.y_keep:.4f}, {out.y_recls:.4f})")

# --- Thresholding into keep / remove / reclassify -----------------------------
decision = decide(solution, phi_keep=0.01, phi_recls=0.2)
print("\ndecision at (phi_keep=0.01, phi_recls=0.2):", decision.value)

# Random spot-check: the exact solver tracks the oracle everywhere.
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(50):
    xs = ConstraintVector(*rng.uniform(0, 1, 3))
    ws = tuple(float(v) for v in rng.uniform(0, 2, 3))
    rs = build_decision_rules(xs, ws)
    gap = abs(solve(rs).objective - brute_force_solve(rs, 0.01).objective)
    worst = max(worst, gap)
print(f"worst exact-vs-grid gap over 50 random instances: {worst:.5f}")

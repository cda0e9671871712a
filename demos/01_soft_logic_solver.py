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

# --- Exact maximization, checked at its point --------------------------------
# The weighted rule sum is piecewise linear in (y_keep, y_recls), so the
# solver enumerates the induced cell complex and reads the optimum off the
# cell vertices. The three rules can always hold at once, so at the optimum
# every rule is fully true and the objective is the weight sum w1 + w2 + w3.
solution = solve(rules, SelectionPolicy.MAX_KEEP_MIN_RECLS)
point = {**rules.bindings, "y_keep": solution.y_keep, "y_recls": solution.y_recls}
truths = [eval_expr(rule.expr, point) for rule in rules.rules]
weight_sum = sum(rule.weight for rule in rules.rules)
print(f"\nexact:  y_keep={solution.y_keep:.4f} y_recls={solution.y_recls:.4f} "
      f"objective={solution.objective:.6f}")
print("rule truths there:", truths, "  weight sum:", weight_sum)
assert truths == [1, 1, 1] and solution.objective == weight_sum

# The optimum here is a whole face of the square, so the selection policy
# matters: the scene-conservative default minimizes y_keep only when the
# scene constraint failed (x_scene = 0).
for policy in SelectionPolicy:
    out = solve(rules, policy)
    print(f"{policy.value:22s} -> ({out.y_keep:.4f}, {out.y_recls:.4f})")

# --- Thresholding into keep / remove / reclassify -----------------------------
decision = decide(solution, phi_keep=0.01, phi_recls=0.2)
print("\ndecision at (phi_keep=0.01, phi_recls=0.2):", decision.value)

# Random spot-check: the exact solver reaches the weight sum everywhere.
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(50):
    xs = ConstraintVector(*rng.uniform(0, 1, 3))
    ws = tuple(float(v) for v in rng.uniform(0, 2, 3))
    gap = abs(solve(build_decision_rules(xs, ws)).objective - sum(ws))
    worst = max(worst, gap)
print(f"worst gap from the weight sum over 50 random instances: {worst:.2g}")

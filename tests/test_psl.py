import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ovrefine import psl
from ovrefine.psl import (
    And,
    Const,
    ConstraintVector,
    Decision,
    Not,
    Or,
    Rule,
    RuleSet,
    SelectionPolicy,
    Var,
    build_decision_rules,
    decide,
    eval_expr,
    implies,
    solve,
    solve_decisions,
    UnboundVariableError,
)
from ovrefine import pipeline
from ovrefine.commonsense import StaticKnowledgeProvider, default_knowledge_base
from ovrefine.pipeline import RefinementConfig, generate_synthetic_scenes
from psl_reference import brute_force_solve, exact_solution


def paper_rules():
    """The paper's three decision rules at unit weights, written out."""
    conf, size, scene = Var("x_conf"), Var("x_size"), Var("x_scene")
    keep, recls = Var("y_keep"), Var("y_recls")
    return (
        Rule(1.0, implies(And(And(conf, size), scene), And(keep, Not(recls)))),
        Rule(1.0, implies(And(conf, Not(And(size, scene))), Or(Not(keep), recls))),
        Rule(1.0, implies(Not(conf), Not(keep))),
    )


class TestEvalExpr:
    def test_and(self):
        got = eval_expr(And(Const(0.7), Const(0.6)), {})
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_not_boundary(self):
        assert eval_expr(Not(Const(0.0)), {}) == 1

    def test_implies(self):
        assert eval_expr(implies(Const(0.4), Const(0.9)), {}) == 1.0

    def test_vars_and_unbound(self):
        expr = And(Var("a"), Var("b"))
        assert eval_expr(expr, {"a": 1.0, "b": 0.25}) == pytest.approx(0.25)
        with pytest.raises(UnboundVariableError) as err:
            eval_expr(expr, {"a": 1.0})
        assert "b" in str(err.value)

    def test_const_range_checked(self):
        with pytest.raises(ValueError):
            Const(1.5)
        with pytest.raises(ValueError):
            Const(-0.1)


class TestLukasiewiczIdentities:
    """Algebraic identities checked exactly, over rational grid points."""

    GRID = [Fraction(i, 20) for i in range(21)]

    def test_de_morgan_exact(self):
        for x in self.GRID:
            for y in self.GRID:
                env = {"x": x, "y": y}
                lhs = eval_expr(Not(And(Var("x"), Var("y"))), env)
                rhs = eval_expr(Or(Not(Var("x")), Not(Var("y"))), env)
                assert lhs == rhs

    def test_residuation(self):
        # x -> y is fully true exactly when x <= y
        for x in self.GRID:
            for y in self.GRID:
                value = eval_expr(implies(Var("x"), Var("y")), {"x": x, "y": y})
                assert (value == 1) == (x <= y)

    def test_boundary_identities(self):
        one, zero = Fraction(1), Fraction(0)
        for x in self.GRID:
            env = {"x": x}
            assert eval_expr(And(Var("x"), Const(one)), env) == x
            assert eval_expr(Or(Var("x"), Const(zero)), env) == x
            assert eval_expr(Not(Not(Var("x"))), env) == x

    def test_commutative_associative_and_range(self):
        pts = [Fraction(i, 4) for i in range(5)]
        for x in pts:
            for y in pts:
                env = {"x": x, "y": y}
                assert eval_expr(And(Var("x"), Var("y")), env) == eval_expr(
                    And(Var("y"), Var("x")), env
                )
                assert eval_expr(Or(Var("x"), Var("y")), env) == eval_expr(
                    Or(Var("y"), Var("x")), env
                )
                for z in pts:
                    env3 = {"x": x, "y": y, "z": z}
                    assert eval_expr(And(And(Var("x"), Var("y")), Var("z")), env3) == eval_expr(
                        And(Var("x"), And(Var("y"), Var("z"))), env3
                    )
                    assert eval_expr(Or(Or(Var("x"), Var("y")), Var("z")), env3) == eval_expr(
                        Or(Var("x"), Or(Var("y"), Var("z"))), env3
                    )
                for expr in (
                    And(Var("x"), Var("y")),
                    Or(Var("x"), Var("y")),
                    Not(Var("x")),
                    implies(Var("x"), Var("y")),
                ):
                    value = eval_expr(expr, env)
                    assert 0 <= value <= 1


class TestRuleSet:
    def test_partition_enforced(self):
        with pytest.raises(ValueError, match="decision variables cannot be bound"):
            RuleSet(paper_rules(), {"x_conf": 1.0, "x_size": 1.0, "x_scene": 1.0, "y_keep": 0.5})
        with pytest.raises(ValueError, match="neither bound nor decision"):
            RuleSet((Rule(1.0, Var("a")),))

    def test_binding_range(self):
        with pytest.raises(ValueError):
            RuleSet((Rule(1.0, Var("a")),), {"a": 1.2})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Rule(-0.5, Var("a"))

    def test_infinite_weight_rejected(self):
        # inf * 0 is NaN, which leaves the solver no vertex value to compare
        with pytest.raises(ValueError, match="nonnegative and finite, got inf"):
            Rule(float("inf"), Var("a"))

    @pytest.mark.parametrize("weight", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_int_weight_beyond_float_range_rejected(self, weight):
        # float() of such an int raises OverflowError, which callers do not expect
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {weight}$"):
            Rule(weight, Var("a"))
        with pytest.raises(ValueError, match="nonnegative and finite"):
            solve_decisions([(0.5, 1, 1)], (weight, 1, 1))


class TestBuildDecisionRules:
    def test_all_constraints_pass(self):
        # with x=(1,1,1) the second and third rules hold fully everywhere
        rs = build_decision_rules(ConstraintVector(1, 1, 1))
        for k in (0.0, 0.3, 1.0):
            for r in (0.0, 0.7, 1.0):
                env = {**rs.bindings, "y_keep": k, "y_recls": r}
                assert eval_expr(rs.rules[1].expr, env) == 1.0
                assert eval_expr(rs.rules[2].expr, env) == 1.0

    def test_zero_confidence_reduces_third_rule(self):
        rs = build_decision_rules(ConstraintVector(0, 0.4, 0.9))
        for k in (0.0, 0.25, 1.0):
            env = {**rs.bindings, "y_keep": k, "y_recls": 0.5}
            assert eval_expr(rs.rules[2].expr, env) == pytest.approx(1.0 - k, abs=1e-12)

    def test_weights_pass_through(self):
        rs = build_decision_rules(ConstraintVector(0.5, 0.5, 0.5), weights=(1.0, 2.0, 0.25))
        assert [rule.weight for rule in rs.rules] == [1.0, 2.0, 0.25]

    def test_matches_paper_rules(self):
        rs = build_decision_rules(ConstraintVector(0.7, 0.8, 1.0))
        bindings = {"x_conf": 0.7, "x_size": 0.8, "x_scene": 1.0}
        assert rs == RuleSet(paper_rules(), bindings)

    def test_numpy_weights_coerced_to_float(self):
        weights = np.random.default_rng(3).uniform(0, 2, 3)
        rs = build_decision_rules(ConstraintVector(0.5, 0.5, 0.5), tuple(weights))
        assert all(type(rule.weight) is float for rule in rs.rules)
        assert [rule.weight for rule in rs.rules] == weights.tolist()
        assert [rule.expr for rule in rs.rules] == [rule.expr for rule in paper_rules()]


class TestSolve:
    def test_closed_form_all_pass(self):
        rs = build_decision_rules(ConstraintVector(1, 1, 1))
        out = solve(rs, SelectionPolicy.MAX_KEEP_MIN_RECLS)
        assert abs(out.objective - 3.0) < 1e-9
        assert abs(out.y_keep - 1.0) < 1e-9
        assert abs(out.y_recls - 0.0) < 1e-9

    def test_closed_form_zero_confidence(self):
        rs = build_decision_rules(ConstraintVector(0, 1, 1))
        for policy in SelectionPolicy:
            out = solve(rs, policy)
            assert abs(out.objective - 3.0) < 1e-9
            assert abs(out.y_keep - 0.0) < 1e-9

    def test_closed_form_reclassify_case(self):
        rs = build_decision_rules(ConstraintVector(0.9, 0.5419, 1))
        out = solve(rs, SelectionPolicy.MAX_KEEP_MIN_RECLS)
        assert abs(out.objective - 3.0) < 1e-9
        assert abs(out.y_keep - 0.9) < 1e-9
        assert abs(out.y_recls - 0.2581) < 1e-9

    def test_scene_conservative_switches_on_scene(self):
        bad_scene = build_decision_rules(ConstraintVector(0.73, 0.9084, 0))
        out = solve(bad_scene, SelectionPolicy.SCENE_CONSERVATIVE)
        assert out.y_keep == pytest.approx(0.0, abs=1e-9)
        good_scene = build_decision_rules(ConstraintVector(0.73, 1, 1))
        out2 = solve(good_scene, SelectionPolicy.SCENE_CONSERVATIVE)
        assert out2.y_keep == pytest.approx(0.73, abs=1e-9)

    def test_min_keep_policy(self):
        rs = build_decision_rules(ConstraintVector(0.9, 0.5419, 1))
        out = solve(rs, SelectionPolicy.MIN_KEEP)
        assert out.y_keep < 0.9 - 1e-9
        assert abs(out.objective - 3.0) < 1e-9

    @pytest.mark.parametrize("weights", [(1e308, 1e308, 1e308), (1e308, 0.0, 1e308)])
    def test_rejects_a_rule_sum_that_overflows(self, weights):
        # each weight is finite, but the merged sums are not
        rules = tuple(Rule(w, rule.expr) for w, rule in zip(weights, paper_rules()))
        ruleset = RuleSet(rules, {"x_conf": 0.5, "x_size": 0.5, "x_scene": 0.5})
        for policy in SelectionPolicy:
            with pytest.raises(ValueError, match="the weighted rule sum overflows"):
                solve(ruleset, policy)

    def test_largest_finite_rule_sum_is_solved(self):
        # the bound that solve_decisions keeps, reached by a hand-built rule set
        half = psl._MAX_WEIGHT_SUM / 2
        rules = tuple(Rule(w, rule.expr) for w, rule in zip((half, half / 2, half / 2), paper_rules()))
        out = solve(RuleSet(rules, {"x_conf": 0.5, "x_size": 0.5, "x_scene": 0.5}))
        assert math.isfinite(out.objective)

    def test_rejects_other_free_variables(self):
        # only y_keep and y_recls are free, so no rule set can leave another open
        with pytest.raises(ValueError, match=r"neither bound nor decision variables: \['a', 'b'\]"):
            RuleSet((Rule(1.0, Or(Var("a"), Var("b"))),))
        with pytest.raises(ValueError, match=r"neither bound nor decision variables: \['x_scene'\]"):
            RuleSet(paper_rules(), {"x_conf": 1.0, "x_size": 1.0})

    def test_weight_scaling_leaves_argmax(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = ConstraintVector(*rng.uniform(0, 1, 3))
            w = rng.uniform(0.1, 2, 3)
            a = solve(build_decision_rules(x, tuple(w)), SelectionPolicy.MAX_KEEP_MIN_RECLS)
            b = solve(
                build_decision_rules(x, tuple(3.7 * w)), SelectionPolicy.MAX_KEEP_MIN_RECLS
            )
            assert a.y_keep == pytest.approx(b.y_keep, abs=1e-7)
            assert a.y_recls == pytest.approx(b.y_recls, abs=1e-7)

    def test_objective_is_the_weighted_rule_sum(self):
        rng = np.random.default_rng(31)
        for i in range(25):
            conf, size, scene = rng.uniform(0, 1, 3)
            # scene 0 makes the scene-conservative policy switch to min-keep
            x = ConstraintVector(conf, size, scene if i % 2 else 0.0)
            rs = build_decision_rules(x, tuple(rng.uniform(0, 2, 3)))
            for policy in SelectionPolicy:
                out = solve(rs, policy)
                env = {**rs.bindings, "y_keep": out.y_keep, "y_recls": out.y_recls}
                at_point = sum(rule.weight * eval_expr(rule.expr, env) for rule in rs.rules)
                assert at_point == pytest.approx(out.objective, abs=1e-9)


def general_rule_sets(n, seed):
    """``n`` seeded rule sets over y_keep, y_recls and the bound a, b, c, with
    Const leaves and And/Or/Not subtrees that hold no decision variable."""
    rng = random.Random(seed)
    # ints and a signed zero, as a caller may pass them, beside plain floats
    special = [0, 1, 0.0, -0.0, 1.0, 0.5]

    def value():
        return rng.choice(special) if rng.random() < 0.4 else rng.random()

    def tree(depth, free):
        if depth == 0 or rng.random() < 0.2:
            if free and rng.random() < 0.5:
                return Var(rng.choice([psl.KEEP_VAR, psl.RECLS_VAR]))
            return Var(rng.choice("abc")) if rng.random() < 0.6 else Const(value())
        op = rng.choice((Not, And, Or))
        # a side with free=False is bound: no decision variable below it
        if op is Not:
            return Not(tree(depth - 1, free and rng.random() < 0.7))
        return op(*(tree(depth - 1, free and rng.random() < 0.7) for _ in range(2)))

    sets = []
    for _ in range(n):
        rules = tuple(
            Rule(rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)]), tree(rng.randint(1, 4), True))
            for _ in range(rng.randint(1, 4))
        )
        sets.append(RuleSet(rules, {name: value() for name in "abc"}))
    return sets


class TestGeneralSolve:
    # sha256 of one repr((y_keep, y_recls, objective)) line per solution, over
    # general_rule_sets(600, 33) under each policy in turn; recorded while _pwl
    # still built bound subtrees leaf by leaf
    GOLDEN = "ae472d8c5d41b971e7ba599beb4dcb7f2426450012c989646d3a20406fb8bf6c"

    def test_matches_recorded_digest(self):
        rule_sets = general_rule_sets(600, 33)
        assert any(not rs.variables() & {psl.KEEP_VAR, psl.RECLS_VAR} for rs in rule_sets)
        digest = hashlib.sha256()
        for policy in SelectionPolicy:
            for rs in rule_sets:
                digest.update(floats(solve(rs, policy)).encode() + b"\n")
        assert digest.hexdigest() == self.GOLDEN


class TestWhatTheRulesDecide:
    """The three decision rules can always hold together, so their optimum is
    known in advance and the weights only switch rules on or off.

    Both properties are stated against the general solver `solve`, so they
    hold for any solver that returns its optimum.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        weights=st.tuples(*[st.floats(0.0, 10.0)] * 3),
        policy=st.sampled_from(list(SelectionPolicy)),
    )
    # conf below the clip tolerance: at a tolerance of 1e-12 the cell x >= conf
    # kept the vertex (0, 0), where rule 3 read 1 + conf, so the objective was
    # 3 + 1.3e-12
    @example(
        x=(4.413853081208735e-13, 0.0, 0.0),
        weights=(0.0, 0.0, 3.0),
        policy=SelectionPolicy.MAX_KEEP_MIN_RECLS,
    )
    def test_objective_is_the_weight_sum(self, x, weights, policy):
        out = solve(build_decision_rules(ConstraintVector(*x), weights), policy)
        assert abs(out.objective - sum(weights)) <= 1e-12

    # Weights start at 1e-3, not at 0: `solve` treats two vertices whose
    # objectives differ by less than its tie slack (1e-12 of the largest
    # weight) as tied. At a weight of 1e-9 beside weights of 1 and conf
    # 0.99999 the gap to the y_keep = 1 vertex is 1.3e-14, so the policy may
    # pick that vertex, which misses the optimum by that gap. From 1e-3 on,
    # such a tie moves a score by under 1e-9.
    NEAR = 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        weights=st.tuples(*[st.floats(1e-3, 10.0)] * 3),
        other=st.tuples(*[st.floats(1e-3, 10.0)] * 3),
        policy=st.sampled_from(list(SelectionPolicy)),
    )
    def test_positive_weights_do_not_change_decisions(self, x, weights, other, policy):
        cfg = RefinementConfig()
        outs = [
            solve(build_decision_rules(ConstraintVector(*x), w), policy) for w in (weights, other)
        ]
        # a score within NEAR of its threshold may fall on either side of it
        assume(all(
            abs(out.y_keep - cfg.phi_keep) > self.NEAR
            and abs(out.y_recls - cfg.phi_recls) > self.NEAR
            for out in outs
        ))
        first, second = (decide(out, cfg.phi_keep, cfg.phi_recls) for out in outs)
        assert first is second


def floats(out):
    return repr((out.y_keep, out.y_recls, out.objective))


def reference_floats(x, weights, policy):
    return floats(solve(build_decision_rules(ConstraintVector(*x), weights), policy))


class TestSolveDecisions:
    """`solve_decisions` is bit for bit the general solver on the decision rules."""

    WEIGHTS = [(1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (2.0, 0.0, 0.5), (0.0, 0.0, 0.0)]

    def instances(self):
        rng = np.random.default_rng(20261018)
        corners = [(c, s, k) for c in (0, 1) for s in (0, 1) for k in (0, 1)]
        xs = [tuple(float(v) for v in rng.uniform(0.0, 1.0, 3)) for _ in range(500)]
        # scene exactly 0 switches the scene-conservative policy to min-keep
        xs += [(float(c), float(s), 0.0) for c, s in rng.uniform(0.0, 1.0, (200, 2))]
        xs += [tuple(float(v) for v in rng.choice([0.0, 0.5, 1.0], 3)) for _ in range(132)]
        return xs + corners

    def test_matches_solve_bit_for_bit(self):
        xs = self.instances()
        checked = 0
        for policy in SelectionPolicy:
            for weights in self.WEIGHTS:
                got = solve_decisions(xs, weights, policy)
                assert len(got) == len(xs)
                for x, out in zip(xs, got):
                    expected = reference_floats(x, weights, policy)
                    assert floats(out) == expected, (x, weights, policy)
                checked += len(xs)
        assert checked >= 10_000

    # sha256 of one repr((y_keep, y_recls, objective)) line per solution, over
    # instances() under each policy and each of WEIGHTS in turn; recorded with
    # the solver as it was before solve_decisions reused work across triples
    GOLDEN = "120510199f499a446847ace12314d0862e81f9c0ab08fc764b8b02ad3b47d5d4"

    def test_matches_recorded_digest(self):
        digest = hashlib.sha256()
        for policy in SelectionPolicy:
            for weights in self.WEIGHTS:
                for out in solve_decisions(self.instances(), weights, policy):
                    digest.update(floats(out).encode() + b"\n")
        assert digest.hexdigest() == self.GOLDEN

    @settings(max_examples=200, deadline=None)
    @given(
        # refine passes int scenes and sizes of exactly 1.0; repr tells -0.0 apart
        x=st.tuples(
            *[st.one_of(st.sampled_from([0, 1, 0.0, -0.0, 1.0]), st.floats(0.0, 1.0))] * 3
        ),
        weights=st.tuples(*[st.floats(0.0, 10.0)] * 3),
        policy=st.sampled_from(list(SelectionPolicy)),
    )
    def test_matches_solve_property(self, x, weights, policy):
        (out,) = solve_decisions([x], weights, policy)
        assert floats(out) == reference_floats(x, weights, policy)

    def test_defaults(self):
        x = (0.9, 0.5419, 1.0)
        (out,) = solve_decisions([x])
        assert floats(out) == reference_floats(
            x, (1.0, 1.0, 1.0), SelectionPolicy.SCENE_CONSERVATIVE
        )
        assert solve_decisions([]) == []

    # today's cell complex misses the exact corner by at most these; measured
    # worst 3.3e-16 in y_recls, 4.4e-16 in y_keep and 8.9e-16 in objective
    SCORE_GAP = Fraction(1, 2**51)
    OBJECTIVE_GAP = Fraction(1, 2**50)

    def assert_near_the_exact_corner(self, xs, weights, policy, checked):
        """Each solution within the gaps of `exact_solution`, where every rule
        of positive weight has truth exactly 1; returns the solutions with
        their exact corners. ``checked`` holds the corners whose truth was
        checked already, under another policy that picks the same one."""
        rules = [rule for rule in psl._decision_rules(weights) if rule.weight > 0]
        switched_on = tuple(weight > 0 for weight in weights)
        corners = []
        for x, out in zip(xs, solve_decisions(xs, weights, policy)):
            keep, recls, objective = corner = exact_solution(x, weights, policy)
            assert abs(Fraction(out.y_keep) - keep) <= self.SCORE_GAP, (x, weights, policy)
            assert abs(Fraction(out.y_recls) - recls) <= self.SCORE_GAP, (x, weights, policy)
            assert abs(Fraction(out.objective) - objective) <= self.OBJECTIVE_GAP
            if (x, switched_on, keep, recls) not in checked:
                env = dict(zip((psl.CONF_VAR, psl.SIZE_VAR, psl.SCENE_VAR), map(Fraction, x)))
                env.update({psl.KEEP_VAR: keep, psl.RECLS_VAR: recls})
                assert all(eval_expr(rule.expr, env) == 1 for rule in rules), (x, weights, policy)
                checked.add((x, switched_on, keep, recls))
            corners.append((out, corner))
        return corners

    def test_near_the_exact_corner(self):
        xs, checked = self.instances(), set()
        for policy in SelectionPolicy:
            for weights in self.WEIGHTS:
                self.assert_near_the_exact_corner(xs, weights, policy, checked)

    def test_near_the_exact_corner_on_the_benchmark_scenes(self):
        # the constraints that static refine solves on the seed-7 file of 500 scenes
        kb = default_knowledge_base()
        _, scenes = generate_synthetic_scenes(kb, seed=7, n_scenes=500)
        provider, cfg = StaticKnowledgeProvider(kb), RefinementConfig()
        xs = [x.as_tuple() for record in scenes for x in pipeline._assemble(record, provider, cfg)
              if x is not None]
        assert len(xs) > 2000
        checked = set()
        for policy in SelectionPolicy:
            for out, (keep, recls, objective) in self.assert_near_the_exact_corner(
                xs, cfg.rule_weights, policy, checked
            ):
                exact = psl.SolverOutput(keep, recls, objective)
                assert decide(out, cfg.phi_keep, cfg.phi_recls) is decide(
                    exact, cfg.phi_keep, cfg.phi_recls
                )

    @pytest.mark.parametrize(
        "x", [(float("nan"), 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 0.5, 1.1), (0.5, 0.5, float("inf"))]
    )
    def test_rejects_bad_constraints(self, x):
        with pytest.raises(ValueError, match="outside"):
            solve_decisions([(0.5, 0.5, 0.5), x])

    @pytest.mark.parametrize(
        "weights", [(1.0, -0.5, 1.0), (1.0, 1.0, float("nan")), (float("inf"), 1.0, 1.0)]
    )
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_decisions([(0.5, 0.5, 0.5)], weights)

    def test_weight_scale_does_not_move_the_solution(self):
        # the tie slack scales with the largest weight, so scaling the weights
        # by any factor from 1e-300 to 1e300 leaves the policy's point in place
        xs = self.instances()[::20] + [(0.005, 1, 1)]
        patterns = [w for w in itertools.product((0.0, 1.0), repeat=3) if any(w)]
        for policy in SelectionPolicy:
            for pattern in patterns:
                unscaled = solve_decisions(xs, pattern, policy)
                for scale in (1e-300, 1e-100, 1e-13, 1e13, 1e100, 1e300):
                    scaled = solve_decisions(xs, tuple(scale * w for w in pattern), policy)
                    for x, a, b in zip(xs, unscaled, scaled):
                        assert abs(a.y_keep - b.y_keep) <= 1e-9, (x, pattern, scale, policy)
                        assert abs(a.y_recls - b.y_recls) <= 1e-9, (x, pattern, scale, policy)

    def test_weight_far_below_the_largest_acts_as_zero(self):
        # the limit of the relative slack: at 1e-13 of the largest weight rule 3
        # counts as switched off, so y_keep is no longer capped at conf
        for weights, y_keep in (((1.0, 1.0, 1.0), 0.005), ((1.0, 1.0, 1e-13), 1.0)):
            (out,) = solve_decisions([(0.005, 1, 1)], weights)
            assert abs(out.y_keep - y_keep) <= 1e-9

    @pytest.mark.parametrize("weight", [6e307, 1e308])
    def test_rejects_weights_that_overflow(self, weight):
        message = re.escape(f"overflow, got {weight}, {weight}, {weight}")
        with pytest.raises(ValueError, match=message):
            solve_decisions([(0.5, 0.5, 0.5)], (weight, weight, weight))
        with pytest.raises(ValueError, match="overflow"):
            build_decision_rules(ConstraintVector(0.5, 0.5, 0.5), (weight, 1.0, 1.0))

    def test_largest_weight_sum_stays_finite(self):
        # halving and quartering are exact, so these weights sum to the bound
        bound = psl._MAX_WEIGHT_SUM
        xs = self.instances()[::20]
        for policy in SelectionPolicy:
            got = solve_decisions(xs, (bound / 2, bound / 4, bound / 4), policy)
            for x, a, b in zip(xs, solve_decisions(xs, (2.0, 1.0, 1.0), policy), got):
                assert math.isfinite(b.objective), (x, policy)
                assert abs(a.y_keep - b.y_keep) <= 1e-9, (x, policy)
                assert abs(a.y_recls - b.y_recls) <= 1e-9, (x, policy)

    def test_rule_sets_built_do_not_grow_with_input(self, monkeypatch):
        built = []
        original = RuleSet.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(RuleSet, "__post_init__", counting)
        counts = []
        for n in (1, 50):
            built.clear()
            solve_decisions([(0.8, 0.6, 1.0)] * n)
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_builds_each_rule_complex_once_per_solve(self, monkeypatch):
        # each rule's cells are combined from its two sides once per triple
        calls = []
        original = psl._combine

        def counting(expr, left, right, overlaps):
            calls.append(expr)
            return original(expr, left, right, overlaps)

        monkeypatch.setattr(psl, "_combine", counting)
        rules = build_decision_rules(ConstraintVector(0.8, 0.6, 1.0)).rules
        rule_exprs = [rule.expr for rule in rules]
        xs = [(0.8, 0.6, 1.0), (0.3, 0.9, 0), (1, 1.0, -0.0)]
        for n in (1, 3):
            calls.clear()
            solve_decisions(xs[:n])
            assert [expr for expr in calls if expr in rule_exprs] == rule_exprs * n

    def test_builds_binding_free_complexes_once_per_call(self, monkeypatch):
        # _pwl builds each rule's consequent once per call, whatever the input
        # length, and no subtree that holds a constraint value
        top, built, depth = [], [], [0]
        original = psl._pwl

        def counting(expr, bindings):
            (built if depth[0] else top).append(expr)
            depth[0] += 1
            try:
                return original(expr, bindings)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(psl, "_pwl", counting)
        consequents = [rule.expr.right for rule in psl._decision_rules((1.0, 1.0, 1.0))]
        xs = [(0.8, 0.6, 1.0), (0.3, 0.9, 0.0)] * 25
        counts = []
        for n in (1, 50):
            top.clear()
            built.clear()
            solve_decisions(xs[:n])
            assert top == consequents
            assert not set().union(*(psl._expr_vars(e, set()) for e in top + built)) - {
                psl.KEEP_VAR, psl.RECLS_VAR
            }
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_no_side_clip_returns_its_input(self, monkeypatch):
        # every clip of _poly_intersect by a side of the unit square that
        # would keep all its vertices is skipped
        sides = {(1.0, 0.0, 1.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 1.0, 1.0)}
        clip, intersect = psl._clip_halfplane, psl._poly_intersect
        depth, clips, no_ops = [0], [], []

        def clipping(poly, a, b, c):
            out = clip(poly, a, b, c)
            if depth[0]:
                clips.append(out)
                norm = math.hypot(a, b)
                if norm and (a / norm, b / norm, c / norm) in sides and out == list(poly):
                    no_ops.append((poly, a, b, c))
            return out

        def intersecting(p, q):
            depth[0] += 1
            try:
                return intersect(p, q)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(psl, "_clip_halfplane", clipping)
        monkeypatch.setattr(psl, "_poly_intersect", intersecting)
        solve_decisions(self.instances())
        assert clips and no_ops == []

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))] * 3),
    )
    def test_a_bound_subtree_is_one_cell_at_its_value(self, x):
        # solve_decisions reads each negated antecedent by eval_expr alone
        bindings = psl._constraint_bindings(*x)
        for rule in psl._decision_rules((1.0, 1.0, 1.0)):
            negated = rule.expr.left
            for expr in (negated, negated.operand):
                (cell,) = psl._pwl(expr, bindings)
                assert cell[0] == list(psl._UNIT_SQUARE)
                # repr tells signed zeros apart
                assert repr(cell[1]) == repr((0.0, 0.0, float(eval_expr(expr, bindings))))


def reference_intersect(p, q):
    """`_poly_intersect` as it was before it skipped side clips: every edge
    of ``q`` clips."""
    out = p
    n = len(q)
    for i in range(n):
        ax, ay = q[i]
        bx, by = q[(i + 1) % n]
        out = psl._clip_halfplane(out, by - ay, ax - bx, (by - ay) * ax + (ax - bx) * ay)
        if len(out) < 3:
            return []
    return out


unit = st.floats(-1.0, 1.0)
halfplanes = st.lists(st.tuples(unit, unit, st.floats(-1.0, 2.0)), min_size=0, max_size=3)


def clipped_square(planes):
    poly = list(psl._UNIT_SQUARE)
    for a, b, c in planes:
        poly = psl._clip_halfplane(poly, a, b, c)
    return poly


class TestPolyIntersect:
    @settings(max_examples=500, deadline=None)
    @given(
        subject=halfplanes,
        clipper=halfplanes,
        nudge=st.one_of(
            st.none(),
            st.tuples(st.integers(0, 7), st.integers(0, 1), st.sampled_from([1.0 + 2e-12, -2e-12])),
        ),
        shift=st.tuples(*[st.sampled_from([0.0, 1.0, -1.0])] * 2),
    )
    def test_skipping_side_clips_changes_nothing(self, subject, clipper, nudge, shift):
        # subjects and clippers: the unit square clipped by up to 3 half-planes;
        # a vertex nudged just past a side makes the side clip run, and a
        # clipper shifted by a unit has edges on the sides that run clockwise
        p, q = clipped_square(subject), clipped_square(clipper)
        assume(len(p) >= 3 and len(q) >= 3)
        q = [(x + shift[0], y + shift[1]) for x, y in q]
        if nudge is not None:
            vertex, axis, value = nudge
            point = list(p[vertex % len(p)])
            point[axis] = value
            p[vertex % len(p)] = tuple(point)
        got, want = psl._poly_intersect(p, q), reference_intersect(p, q)
        assert got == want
        assert repr(got) == repr(want)


class TestBruteForceSolve:
    def test_closed_form_on_grid(self):
        rs = build_decision_rules(ConstraintVector(1, 1, 1))
        out = brute_force_solve(rs, 1e-3)
        assert abs(out.objective - 3.0) <= 1e-3

    def test_constant_rules_flat(self):
        a, b = Var("a"), Var("b")
        rs = RuleSet((Rule(1.0, And(a, b)), Rule(0.5, Not(a))), {"a": 0.9, "b": 0.8})
        out = brute_force_solve(rs, 0.05)
        expected = 1.0 * max(0.9 + 0.8 - 1, 0) + 0.5 * (1 - 0.9)
        assert out.objective == pytest.approx(expected, abs=1e-12)
        # the plane is flat, so the scan keeps its first point
        assert (out.y_keep, out.y_recls) == (0.0, 0.0)

    def test_resolution_validated(self):
        rs = build_decision_rules(ConstraintVector(1, 1, 1))
        with pytest.raises(ValueError):
            brute_force_solve(rs, 0.0)
        with pytest.raises(ValueError):
            brute_force_solve(rs, 0.2)

    def test_agreement_with_exact_solver(self):
        rng = np.random.default_rng(41)
        res = 1e-2
        for _ in range(200):
            x = ConstraintVector(*rng.uniform(0, 1, 3))
            w = tuple(rng.uniform(0, 2, 3))
            rs = build_decision_rules(x, w)
            exact = solve(rs, SelectionPolicy.MAX_KEEP_MIN_RECLS)
            grid = brute_force_solve(rs, res)
            assert grid.objective <= exact.objective + 1e-9
            assert exact.objective - grid.objective <= res * sum(w) + 1e-9


class TestDecide:
    def test_default_thresholds(self):
        from ovrefine.psl import SolverOutput

        assert decide(SolverOutput(1.0, 0.0, 3.0), 0.01, 0.2) is Decision.KEEP
        assert decide(SolverOutput(0.005, 0.9, 3.0), 0.01, 0.2) is Decision.REMOVE
        assert decide(SolverOutput(0.9, 0.2581, 3.0), 0.01, 0.2) is Decision.RECLASSIFY

    def test_threshold_validation(self):
        from ovrefine.psl import SolverOutput

        with pytest.raises(ValueError):
            decide(SolverOutput(0.5, 0.5, 1.0), -0.1, 0.2)

    def test_monotone_in_keep_score(self):
        from ovrefine.psl import SolverOutput

        rng = np.random.default_rng(43)
        for _ in range(200):
            y1, y2, r = rng.uniform(0, 1, 3)
            lo, hi = min(y1, y2), max(y1, y2)
            d_lo = decide(SolverOutput(lo, r, 0.0), 0.3, 0.5)
            d_hi = decide(SolverOutput(hi, r, 0.0), 0.3, 0.5)
            if d_lo is not Decision.REMOVE:
                assert d_hi is not Decision.REMOVE

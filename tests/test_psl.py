from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    RuleSyntaxError,
    SelectionPolicy,
    Var,
    brute_force_solve,
    build_decision_rules,
    decide,
    eval_expr,
    format_expr,
    format_rules,
    implies,
    parse_rules,
    solve,
    solve_decisions,
    UnboundVariableError,
)

DECISION_RULES_TEXT = """
1.0 : x_conf & x_size & x_scene -> y_keep & !y_recls
1.0 : x_conf & !(x_size & x_scene) -> !y_keep | y_recls
1.0 : !x_conf -> !y_keep
"""


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


class TestParser:
    def test_smallest_rule(self):
        rs = parse_rules("1.0 : a & b -> !c")
        assert len(rs.rules) == 1
        assert rs.rules[0].weight == 1.0
        assert rs.rules[0].expr == implies(And(Var("a"), Var("b")), Not(Var("c")))
        assert rs.free_vars == ("a", "b", "c")

    def test_dangling_operator(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("1.0 : a &")
        assert err.value.line == 1
        assert err.value.column == 10

    def test_error_positions_multiline(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("1 : a\n2 : (b | \n")
        assert err.value.line == 2

    def test_negative_weight_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("-1.0 : a")
        with pytest.raises(ValueError):
            Rule(-0.5, Var("a"))

    def test_constant_out_of_range_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("1 : a & 1.5")

    def test_comments_and_blank_lines(self):
        rs = parse_rules("# header\n\n1 : a | b  # trailing\n")
        assert len(rs.rules) == 1

    def test_precedence(self):
        rs = parse_rules("1 : !a & b | c -> d")
        expected = implies(Or(And(Not(Var("a")), Var("b")), Var("c")), Var("d"))
        assert rs.rules[0].expr == expected

    def test_matches_programmatic_construction(self):
        x = ConstraintVector(0.7, 0.8, 1.0)
        parsed = parse_rules(DECISION_RULES_TEXT).bind(x_conf=0.7, x_size=0.8, x_scene=1.0)
        assert parsed == build_decision_rules(x)

    def test_round_trip_random_asts(self):
        rng = np.random.default_rng(19)
        names = ["a", "b", "c", "long_name"]

        def gen(depth):
            kind = rng.integers(0, 6 if depth < 4 else 2)
            if kind == 0:
                return Var(names[rng.integers(len(names))])
            if kind == 1:
                return Const(float(rng.uniform(0, 1)))
            if kind == 2:
                return Not(gen(depth + 1))
            if kind == 3:
                return And(gen(depth + 1), gen(depth + 1))
            if kind == 4:
                return Or(gen(depth + 1), gen(depth + 1))
            return implies(gen(depth + 1), gen(depth + 1))

        for _ in range(200):
            expr = gen(0)
            again = parse_rules("1 : " + format_expr(expr)).rules[0].expr
            assert again == expr

    def test_rules_round_trip(self):
        rs = parse_rules(DECISION_RULES_TEXT)
        assert parse_rules(format_rules(rs)) == rs

    def test_numpy_weights_round_trip(self):
        weights = np.random.default_rng(3).uniform(0, 2, 3)
        rs = build_decision_rules(ConstraintVector(0.5, 0.5, 0.5), tuple(weights))
        assert all(type(rule.weight) is float for rule in rs.rules)
        again = parse_rules(format_rules(rs))
        assert [r.weight for r in again.rules] == [r.weight for r in rs.rules]
        assert [r.expr for r in again.rules] == [r.expr for r in rs.rules]


class TestRuleSet:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            RuleSet((Rule(1.0, Var("a")),), ("a",), {"a": 0.5})
        with pytest.raises(ValueError):
            RuleSet((Rule(1.0, Var("a")),))

    def test_binding_range(self):
        with pytest.raises(ValueError):
            RuleSet((Rule(1.0, Var("a")),), (), {"a": 1.2})

    def test_bind(self):
        rs = parse_rules("1 : a & b")
        bound = rs.bind(a=0.5)
        assert bound.free_vars == ("b",)
        assert bound.bindings == {"a": 0.5}
        with pytest.raises(ValueError):
            bound.bind(a=0.1)


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

    def test_rejects_other_free_variables(self):
        rs = parse_rules("1 : a | b")
        with pytest.raises(ValueError):
            solve(rs)
        partially = parse_rules(DECISION_RULES_TEXT).bind(x_conf=1.0, x_size=1.0)
        with pytest.raises(ValueError):
            solve(partially)

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

    def test_matches_total_value(self):
        rng = np.random.default_rng(31)
        for i in range(25):
            conf, size, scene = rng.uniform(0, 1, 3)
            # scene 0 makes the scene-conservative policy switch to min-keep
            x = ConstraintVector(conf, size, scene if i % 2 else 0.0)
            rs = build_decision_rules(x, tuple(rng.uniform(0, 2, 3)))
            for policy in SelectionPolicy:
                out = solve(rs, policy)
                at_point = rs.total_value({"y_keep": out.y_keep, "y_recls": out.y_recls})
                assert at_point == pytest.approx(out.objective, abs=1e-9)


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

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.tuples(*[st.floats(0.0, 1.0)] * 3),
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

    @pytest.mark.parametrize(
        "x", [(float("nan"), 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 0.5, 1.1), (0.5, 0.5, float("inf"))]
    )
    def test_rejects_bad_constraints(self, x):
        with pytest.raises(ValueError, match="outside"):
            solve_decisions([(0.5, 0.5, 0.5), x])

    @pytest.mark.parametrize("weights", [(1.0, -0.5, 1.0), (1.0, 1.0, float("nan"))])
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_decisions([(0.5, 0.5, 0.5)], weights)

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
        calls = []
        original = psl._pwl

        def counting(expr, bindings):
            calls.append(expr)
            return original(expr, bindings)

        monkeypatch.setattr(psl, "_pwl", counting)
        solve_decisions([(0.8, 0.6, 1.0)])
        rules = build_decision_rules(ConstraintVector(0.8, 0.6, 1.0)).rules
        rule_exprs = [rule.expr for rule in rules]
        assert [expr for expr in calls if expr in rule_exprs] == rule_exprs


class TestBruteForceSolve:
    def test_closed_form_on_grid(self):
        rs = build_decision_rules(ConstraintVector(1, 1, 1))
        out = brute_force_solve(rs, 1e-3)
        assert abs(out.objective - 3.0) <= 1e-3

    def test_constant_rules_flat(self):
        rs = parse_rules("1 : a & b\n0.5 : !a").bind(a=0.9, b=0.8)
        out = brute_force_solve(rs, 0.05)
        expected = 1.0 * max(0.9 + 0.8 - 1, 0) + 0.5 * (1 - 0.9)
        assert out.objective == pytest.approx(expected, abs=1e-12)

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

"""Learner behavior: warm-up phase, pool solvers, averaged gradients, perceptron."""

import logging
import math

import numpy as np
import pytest

from stratclass.learners import (
    ConeKind,
    GradSmmLearner,
    PerceptronLearner,
    SmmLearner,
    _step_schedule,
    project_cone,
)
from stratclass.norms import L1, L2, CostModel
from stratclass.response import Agent, interact, respond


def drive(learner, m, stream, sigma=0.0, rng=None):
    """Feed (features, label) pairs through the declare/respond/update loop."""
    outs = []
    for features, label in stream:
        clf = learner.declare()
        out = interact(Agent(np.asarray(features, dtype=float), label), clf, m, sigma, rng)
        learner.update(out.response, label)
        outs.append(out)
    return outs


def warm_up(m, agents):
    """Drive a fresh SmmLearner through its warm-up, as ``run_online`` does.

    Returns the learner and the mistakes and rounds the warm-up took.
    """
    learner = SmmLearner(m)
    mistakes = consumed = 0
    for agent in agents:
        out = interact(agent, learner.declare(), m)
        learner.update(out.response, agent.label)
        mistakes += out.mistake
        consumed += 1
        if not learner.in_init:
            break
    assert not learner.in_init  # the warm-up ended, so the count covers all of it
    return learner, mistakes, consumed


class TestInitScheme:
    """The warm-up phase (the paper's initialization scheme) of the margin learners."""

    def test_positive_then_negative_makes_one_mistake(self):
        m = CostModel(L2, c=1.0, dim=2)
        agents = [Agent(np.array([0.0, 1.0]), 1), Agent(np.array([0.0, -1.0]), -1)]
        learner, mistakes, consumed = warm_up(m, agents)
        assert mistakes == 1  # only the first negative is misread
        assert consumed == 2
        assert learner.solution.d == pytest.approx(1.0, abs=1e-9)

    def test_two_negatives_then_positive_makes_two_mistakes(self):
        m = CostModel(L2, c=1.0, dim=2)
        agents = [
            Agent(np.array([0.0, -1.0]), -1),  # against the optimistic +1 start
            Agent(np.array([1.0, -1.0]), -1),  # b has flipped, now correct
            Agent(np.array([0.0, 1.0]), 1),  # against the flipped -1
        ]
        learner, mistakes, consumed = warm_up(m, agents)
        assert mistakes == 2
        assert consumed == 3
        assert learner.pool.n_neg == 2 and learner.pool.n_pos == 1

    def test_positive_run_then_negative_makes_one_mistake(self):
        m = CostModel(L2, c=1.0, dim=2)
        agents = [Agent(np.array([float(k), 1.0]), 1) for k in range(5)]
        agents.append(Agent(np.array([0.0, -1.0]), -1))
        _, mistakes, consumed = warm_up(m, agents)
        assert mistakes == 1
        assert consumed == 6

    def test_never_more_than_two_mistakes(self):
        m = CostModel(L2, c=1.0, dim=2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            labels = [int(x) for x in rng.choice([-1, 1], size=k)]
            if len(set(labels)) == 1:
                labels[-1] = -labels[-1]
            pts = rng.normal(size=(k, 2))
            pts[np.array(labels) == 1, 1] += 3.0  # keep the starter pool separable
            agents = [Agent(pts[i], labels[i]) for i in range(k)]
            assert warm_up(m, agents)[1] <= 2


class TestSmmLearner:
    def test_declares_optimistic_zero_classifier_first(self):
        learner = SmmLearner(CostModel(L2, c=1.0, dim=2))
        clf = learner.declare()
        assert np.array_equal(clf.y, np.zeros(2)) and clf.b == 1.0
        assert learner.in_init

    def test_stuck_on_manipulated_repeats(self):
        # two starter points fix the classifier; a repeating agent on the
        # decision boundary manipulates forever, lands with margin exactly d,
        # and never triggers a re-solve
        m = CostModel(L2, c=math.sqrt(2), dim=2)
        learner = SmmLearner(m)
        stream = [((0.0, 1.0), 1), ((-2.0, -1.0), -1)] + [((-2.0, 1.0), 1)] * 498
        outs = drive(learner, m, stream)
        s = 1 / math.sqrt(2)
        assert np.max(np.abs(learner.classifier.y - np.array([s, s]))) <= 1e-9
        assert learner.classifier.b == pytest.approx(s, abs=1e-9)
        assert learner.solution.d == pytest.approx(math.sqrt(2), abs=1e-9)
        assert learner.solve_count == 1
        assert sum(o.manipulated for o in outs) == 498
        assert np.max(np.abs(learner.pool.positives[-1] - np.array([-1.0, 2.0]))) <= 1e-12

    def test_force_resolve_solves_every_step(self):
        m = CostModel(L2, c=math.sqrt(2), dim=2)
        learner = SmmLearner(m, force_resolve=True)
        stream = [((0.0, 1.0), 1), ((-2.0, -1.0), -1)] + [((-2.0, 1.0), 1)] * 20
        drive(learner, m, stream)
        assert learner.solve_count == 21  # init solve + one per later update

    def test_margin_never_increases(self):
        m = CostModel(L2, c=4.0, dim=2)
        learner = SmmLearner(m)
        rng = np.random.default_rng(1)
        ds = []
        stream = [((0.0, 1.0), 1), ((0.0, -1.0), -1)]
        stream += [((float(x), float(y + l)), int(l)) for x, y, l in
                   zip(rng.uniform(-1, 1, 60), rng.uniform(-0.2, 0.2, 60), rng.choice([-1, 1], 60))]
        for features, label in stream:
            clf = learner.declare()
            out = interact(Agent(np.array(features), label), clf, m)
            learner.update(out.response, label)
            if not learner.in_init and learner.solution.separable:
                ds.append(learner.solution.d)
        assert all(d2 <= d1 + 1e-8 for d1, d2 in zip(ds, ds[1:]))

    def test_inseparable_pool_falls_back_and_stays_down(self, caplog):
        m = CostModel(L2, c=4.0, dim=2)
        learner = SmmLearner(m)
        with caplog.at_level(logging.WARNING, logger="stratclass"):
            drive(learner, m, [((0.0, 1.0), 1), ((0.0, -1.0), -1), ((5.0, 5.0), 1), ((5.0, 5.0), -1)])
        assert not learner.solution.separable
        assert learner.inseparable_at == 4
        assert np.array_equal(learner.classifier.y, np.zeros(2)) and learner.classifier.b == 0.0
        assert any("inseparable" in r.message for r in caplog.records)
        solves = learner.solve_count
        drive(learner, m, [((1.0, 1.0), 1), ((0.0, -2.0), -1)] * 10)
        assert learner.solve_count == solves  # parked: no further solving
        assert learner.inseparable_at == 4


class TestGradSmmLearner:
    def test_requires_euclidean_cost(self):
        with pytest.raises(ValueError):
            GradSmmLearner(CostModel(L1, c=1.0, dim=2))

    def test_first_solve_seeds_the_iterate(self):
        m = CostModel(L2, c=1000.0, dim=2)
        learner = GradSmmLearner(m)
        drive(learner, m, [((0.0, 1.0), 1), ((0.0, -1.0), -1)])
        assert not learner.in_init
        assert np.max(np.abs(learner.classifier.y - np.array([0.0, 1.0]))) <= 1e-9
        assert learner.classifier.b == pytest.approx(0.0, abs=1e-9)

    def test_one_gradient_step_by_hand(self):
        m = CostModel(L2, c=1000.0, dim=2)
        learner = GradSmmLearner(m)
        drive(learner, m, [((0.0, 1.0), 1), ((0.0, -1.0), -1), ((3.0, 2.0), -1)])
        # pool: P = {(0,1)}, N = {(0,-1), (3,2)}; z1 = (0,1)
        # grad = (0,1) - (3,2) = (-3,-1); z2 = (0,1) + 1*grad = (-3,0) -> (-1,0)
        z1 = np.array([0.0, 1.0])
        z2 = np.array([-1.0, 0.0])
        w1, w2 = 1.0, 1 / math.sqrt(2)
        y2 = (w1 * z1 + w2 * z2) / (w1 + w2)
        assert np.max(np.abs(learner._z - z2)) <= 1e-15
        assert np.max(np.abs(learner.classifier.y - y2)) <= 1e-15
        P = np.array([[0.0, 1.0]])
        N = np.array([[0.0, -1.0], [3.0, 2.0]])
        b2 = -0.5 * (np.min(P @ y2) + np.max(N @ y2))
        assert learner.classifier.b == pytest.approx(b2, abs=1e-15)

    def test_iterate_stays_in_unit_ball_and_b_recenters(self):
        m = CostModel(L2, c=8.0, dim=2)
        learner = GradSmmLearner(m)
        rng = np.random.default_rng(3)
        stream = [((0.0, 1.0), 1), ((0.0, -1.0), -1)]
        stream += [((float(a), float(b + l)), int(l)) for a, b, l in
                   zip(rng.uniform(-1, 1, 80), rng.uniform(-0.3, 0.3, 80), rng.choice([-1, 1], 80))]
        for features, label in stream:
            clf = learner.declare()
            out = interact(Agent(np.array(features), label), clf, m)
            learner.update(out.response, label)
            if learner.in_init:
                continue
            assert np.linalg.norm(learner._z) <= 1.0 + 1e-12
            assert np.linalg.norm(clf.y) <= 1.0 + 1e-12
            y = learner.classifier.y
            b_expected = -0.5 * (
                float(np.min(learner.pool.positives @ y)) + float(np.max(learner.pool.negatives @ y))
            )
            assert learner.classifier.b == pytest.approx(b_expected, abs=0)

    def test_subgradient_tie_breaks_on_first_index(self):
        m = CostModel(L2, c=1000.0, dim=2)
        learner = GradSmmLearner(m)
        drive(learner, m, [((0.0, 1.0), 1), ((0.0, -1.0), -1)])
        assert np.array_equal(learner._z, np.array([0.0, 1.0]))
        # (-5, 1) ties (0, 1) under z: the earlier point wins the argmin, so
        # grad = (0,1) - (0,-1) and z is fixed; picking (-5,1) would tilt z
        drive(learner, m, [((-5.0, 1.0), 1)])
        assert np.array_equal(learner._z, np.array([0.0, 1.0]))
        assert np.array_equal(learner.classifier.y, np.array([0.0, 1.0]))
        # same tie on the negative side through the argmax
        drive(learner, m, [((-5.0, -1.0), -1)])
        assert np.array_equal(learner._z, np.array([0.0, 1.0]))

    def test_benchmark_half_space_invariants(self):
        # against a (0,1)-benchmark instance the iterates never leave the
        # benchmark's half space, and stored proxies keep the true margin
        m = CostModel(L2, c=4.0, dim=2)
        learner = GradSmmLearner(m)
        xs = np.linspace(-1, 1, 10)
        pts = [((float(x), 1.0), 1) for x in xs] + [((float(x), -1.0), -1) for x in xs]
        rng = np.random.default_rng(11)
        y_star = np.array([0.0, 1.0])
        for k in rng.integers(0, len(pts), size=400):
            features, label = pts[int(k)]
            clf = learner.declare()
            out = interact(Agent(np.array(features), label), clf, m)
            learner.update(out.response, label)
            if learner.in_init:
                continue
            assert float(learner._z @ y_star) >= -1e-8
            assert float(learner.classifier.y @ y_star) >= -1e-8
        pool = learner.pool
        margins = np.concatenate([pool.positives @ y_star, -(pool.negatives @ y_star)])
        assert np.min(margins) >= 1.0 - 1e-8  # d* = 1 for this instance


class TestPerceptron:
    def test_two_step_trace_is_exact(self):
        m = CostModel(L2, c=4.0, dim=2)
        learner = PerceptronLearner(m)
        drive(learner, m, [((1.0, -1.0), -1)])
        assert np.array_equal(learner.q, np.array([-1.0, 1.0, -1.0]))
        drive(learner, m, [((2.0, 1.0), 1)])
        assert np.array_equal(learner.q, np.array([1.0, 2.0, 0.0]))
        assert learner.mistakes == 2

    def test_correct_rounds_leave_q_untouched(self):
        m = CostModel(L2, c=4.0, dim=2)
        learner = PerceptronLearner(m)
        drive(learner, m, [((1.0, -1.0), -1), ((2.0, 1.0), 1)])
        q = learner.q.copy()
        # (2, 1) now scores positive with room to spare: no further updates
        drive(learner, m, [((2.0, 1.0), 1)] * 5)
        assert np.array_equal(learner.q, q)
        assert learner.mistakes == 2

    def test_update_uses_the_proxy_not_the_response(self):
        m = CostModel(L2, c=2.0, dim=2)
        learner = PerceptronLearner(m)
        learner.q = np.array([1.0, 0.0, 0.0])
        # the agent manipulates onto the boundary; the negative label pulls the
        # stored point back to (0, 0), so only the intercept moves
        drive(learner, m, [((0.5, 0.0), -1)])
        assert np.array_equal(learner.q, np.array([1.0, 0.0, -1.0]))

    def test_nonneg_cone_clips_first_update(self):
        m = CostModel(L2, c=4.0, dim=2)
        learner = PerceptronLearner(m, cone=ConeKind.NONNEG_WEIGHTS)
        drive(learner, m, [((1.0, -1.0), -1)])
        assert np.array_equal(learner.q, np.array([0.0, 1.0, -1.0]))

    def test_zero_intercept_cone_keeps_b_at_zero(self):
        m = CostModel(L2, c=4.0, dim=2)
        learner = PerceptronLearner(m, cone=ConeKind.ZERO_INTERCEPT)
        drive(learner, m, [((1.0, -1.0), -1), ((2.0, 1.0), 1), ((0.0, -2.0), -1)])
        assert learner.q[-1] == 0.0

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            PerceptronLearner(CostModel(L2, c=4.0, dim=2), gamma=0.0)

    @pytest.mark.parametrize("cone", list(ConeKind))
    def test_dyadic_step_size_scales_trajectory_bitwise(self, cone):
        m = CostModel(L2, c=4.0, dim=3)
        rng = np.random.default_rng(5)
        stream = [(tuple(rng.normal(size=3)), int(rng.choice([-1, 1]))) for _ in range(120)]
        a = PerceptronLearner(m, cone=cone, gamma=1.0)
        b = PerceptronLearner(m, cone=cone, gamma=0.5)
        for features, label in stream:
            out_a = drive(a, m, [(features, label)])[0]
            out_b = drive(b, m, [(features, label)])[0]
            # responses are scale-invariant, so both learners see the same round
            assert np.array_equal(out_a.response, out_b.response)
            assert out_a.predicted == out_b.predicted
            assert np.array_equal(a.q, 2.0 * b.q)
        assert a.mistakes == b.mistakes

    def test_nondyadic_step_size_matches_on_generic_rounds(self):
        # Manipulated responses land exactly on the offset boundary, where the
        # predicted sign is one rounding error away from flipping — only dyadic
        # scalings survive that bitwise.  Feeding generic (off-boundary) points
        # directly, the trajectory is homogeneous in gamma up to float noise.
        m = CostModel(L2, c=4.0, dim=3)
        rng = np.random.default_rng(6)
        a = PerceptronLearner(m, gamma=1.0)
        b = PerceptronLearner(m, gamma=10.0)
        for _ in range(120):
            x = rng.normal(size=3)
            label = int(rng.choice([-1, 1]))
            a.update(x, label)
            b.update(x, label)
            if np.any(a.q):
                assert np.max(np.abs(b.q / 10.0 - a.q)) <= 1e-9 * max(1.0, np.max(np.abs(a.q)))
        assert a.mistakes == b.mistakes and a.mistakes > 10


def test_project_cone_values():
    q = np.array([-1.0, 2.0, -3.0])
    assert np.array_equal(project_cone(ConeKind.FULL, q), q)
    assert np.array_equal(project_cone(ConeKind.ZERO_INTERCEPT, q), np.array([-1.0, 2.0, 0.0]))
    assert np.array_equal(project_cone(ConeKind.NONNEG_WEIGHTS, q), np.array([0.0, 2.0, -3.0]))


def test_project_cone_is_positively_homogeneous():
    rng = np.random.default_rng(7)
    for kind in ConeKind:
        for alpha in (0.5, 2.0, 3.7, 10.0):
            q = rng.normal(size=4)
            assert np.array_equal(project_cone(kind, alpha * q), alpha * project_cone(kind, q))


def test_project_cone_is_idempotent():
    rng = np.random.default_rng(8)
    for kind in ConeKind:
        q = rng.normal(size=5)
        once = project_cone(kind, q)
        assert np.array_equal(project_cone(kind, once), once)


def test_step_schedule_tokens():
    s = _step_schedule("invsqrt")
    assert s(1) == 1.0 and s(4) == 0.5
    s = _step_schedule("const:0.25")
    assert s(1) == 0.25 and s(100) == 0.25
    with pytest.raises(ValueError):
        _step_schedule("const:-1")
    with pytest.raises(ValueError):
        _step_schedule("linear")

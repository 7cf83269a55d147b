"""Learner behavior: warm-up phase, pool solvers, averaged gradients, perceptron."""

import itertools
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import feed, two_sided_certificate
from stratclass.data import SynthConfig, generate_synthetic
from stratclass.harness import RunConfig, _arrivals, _init_consumption, build_dataset
from stratclass import learners
from stratclass.learners import (
    ConeKind,
    GradSmmLearner,
    PerceptronLearner,
    SmmLearner,
    project_cone,
)
from stratclass.maxmargin import PointSetPair, solve_max_margin
from stratclass.norms import L1, L2, CostModel, parse_norm
from stratclass.response import Classifier, answer, interact, proxy_from_response


def drive(learner, m, stream):
    """Feed (features, label) pairs through the declare/respond/update loop."""
    outs = []
    for features, label in stream:
        clf = learner.classifier
        out = interact(np.asarray(features, dtype=float), label, clf, m)
        assert feed(learner, out, label) == 1
        outs.append(out)
    return outs


def warm_up(m, agents):
    """Drive a fresh SmmLearner through its warm-up, as ``run_online`` does.

    Returns the learner and the mistakes and rounds the warm-up took.
    """
    learner = SmmLearner(m)
    mistakes = consumed = 0
    for x, label in agents:
        out = interact(x, label, learner.classifier, m)
        assert feed(learner, out, label) == 1
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
        agents = [(np.array([0.0, 1.0]), 1), (np.array([0.0, -1.0]), -1)]
        learner, mistakes, consumed = warm_up(m, agents)
        assert mistakes == 1  # only the first negative is misread
        assert consumed == 2
        assert learner.solution.d == pytest.approx(1.0, abs=1e-9)

    def test_two_negatives_then_positive_makes_two_mistakes(self):
        m = CostModel(L2, c=1.0, dim=2)
        agents = [
            (np.array([0.0, -1.0]), -1),  # against the optimistic +1 start
            (np.array([1.0, -1.0]), -1),  # b has flipped, now correct
            (np.array([0.0, 1.0]), 1),  # against the flipped -1
        ]
        learner, mistakes, consumed = warm_up(m, agents)
        assert mistakes == 2
        assert consumed == 3
        assert learner.pool.n_neg == 2 and learner.pool.n_pos == 1

    def test_positive_run_then_negative_makes_one_mistake(self):
        m = CostModel(L2, c=1.0, dim=2)
        agents = [(np.array([float(k), 1.0]), 1) for k in range(5)]
        agents.append((np.array([0.0, -1.0]), -1))
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
            agents = [(pts[i], labels[i]) for i in range(k)]
            assert warm_up(m, agents)[1] <= 2


class TestSmmLearner:
    def test_declares_optimistic_zero_classifier_first(self):
        learner = SmmLearner(CostModel(L2, c=1.0, dim=2))
        clf = learner.classifier
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

    def test_force_resolve_solves_every_step(self, monkeypatch):
        m = CostModel(L2, c=math.sqrt(2), dim=2)
        learner = SmmLearner(m)
        monkeypatch.setattr(learners, "incremental_check", lambda *args: 0)  # a gate that clears nothing
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
            clf = learner.classifier
            out = interact(np.array(features), label, clf, m)
            feed(learner, out, label)
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

    @pytest.mark.parametrize("norm", ["l1", "linf", "lp:3", "wl1:2,0.5,1,1,3,0.25"])
    def test_non_l2_margins_never_increase_and_the_final_pool_certifies(self, norm):
        # every solve is certified to tol, so adding points can raise the
        # reported margin by at most tol; the points stored after the last
        # solve cleared its margin, so its certificate holds on the final pool
        tol = 1e-10
        for seed in (0, 1, 2):
            ds = generate_synthetic(SynthConfig(seed=seed))
            m = CostModel(parse_norm(norm), c=125.0, dim=ds.dim)
            learner = SmmLearner(m)
            d_t = []
            for i in np.random.default_rng(seed).integers(0, ds.n, size=1500):
                drive(learner, m, [(ds.features[i], int(ds.labels[i]))])
                if not learner.in_init:
                    d_t.append(learner.solution.d)
            assert learner.solution.separable and learner.solve_count > 10
            assert all(d2 <= d1 + tol for d1, d2 in zip(d_t, d_t[1:])), f"seed {seed}"
            pool = learner.pool
            lower, upper = two_sided_certificate(pool.positives, pool.negatives, learner.solution, m)
            assert upper - lower <= tol, f"seed {seed}: [{lower}, {upper}]"


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
            clf = learner.classifier
            out = interact(np.array(features), label, clf, m)
            feed(learner, out, label)
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

    @pytest.mark.parametrize("synth_seed", [0, 7])
    def test_the_distinct_pool_picks_what_a_pool_of_every_repeat_picks(self, synth_seed):
        # the class docstring's claim: with ties going to the first index, the
        # scans over the distinct pool pick the rows the same scans pick over
        # a pool that keeps every repeat, here on a replayed iid run
        cfg = RunConfig(algorithm="gradsmm", c=125.0, T=6000, seed=7, synth_seed=synth_seed)
        ds = build_dataset(cfg)
        m = CostModel(L2, cfg.c, ds.dim)
        idx, _ = _arrivals(cfg, ds.n)
        learner = GradSmmLearner(m)
        every = {label: np.empty((len(idx), ds.dim)) for label in (1, -1)}
        kept = {1: 0, -1: 0}
        steps = differ = 0
        for i in idx:
            label, clf = int(ds.labels[i]), learner.classifier
            z = None if learner.in_init else learner._z
            out = interact(ds.features[i], label, clf, m)
            row = out.response[None]
            if z is not None:
                row = proxy_from_response(row, np.array([label]), np.array([out.predicted]), clf, m)
            every[label][kept[label]] = row[0]
            kept[label] += 1
            feed(learner, out, label)
            if z is None:
                continue
            steps += 1
            picks = []
            for P, N in ((learner.pool.positives, learner.pool.negatives),
                         (every[1][: kept[1]], every[-1][: kept[-1]])):
                picks.append((P[P.dot(z).argmin()].tobytes(), N[N.dot(z).argmax()].tobytes()))
            differ += picks[0] != picks[1]
        assert learner.pool.positives.shape[0] < kept[1] and learner.pool.negatives.shape[0] < kept[-1]
        assert steps == len(idx) - _init_consumption(cfg.algorithm, ds.labels[idx]) and differ == 0

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
            clf = learner.classifier
            out = interact(np.array(features), label, clf, m)
            feed(learner, out, label)
            if learner.in_init:
                continue
            assert float(learner._z @ y_star) >= -1e-8
            assert float(learner.classifier.y @ y_star) >= -1e-8
        pool = learner.pool
        margins = np.concatenate([pool.positives @ y_star, -(pool.negatives @ y_star)])
        assert np.min(margins) >= 1.0 - 1e-8  # d* = 1 for this instance


def repeating_stream(seed, steps):
    """An iid stream over 60 agents: nearly every arrival is a repeat.

    It opens with one agent of each label, so the warm-up ends after two
    steps, on two distinct points.
    """
    ds = generate_synthetic(SynthConfig(seed=seed, n=60, d=3))
    first = [int(np.flatnonzero(ds.labels == 1)[0]), int(np.flatnonzero(ds.labels == -1)[0])]
    idx = first + list(np.random.default_rng(seed).integers(0, ds.n, size=steps - 2))
    return [(ds.features[i], int(ds.labels[i])) for i in idx]


class FullPool:
    """A pool that stores every added row, repeats included, in plain arrays."""

    def __init__(self, dim):
        self.dim = dim
        self.positives = np.empty((0, dim))
        self.negatives = np.empty((0, dim))

    n_pos = property(lambda self: len(self.positives))
    n_neg = property(lambda self: len(self.negatives))

    def add(self, rows, labels):
        labels = np.broadcast_to(labels, len(rows))
        self.positives = np.vstack([self.positives, rows[labels == 1]])
        self.negatives = np.vstack([self.negatives, rows[labels == -1]])


def gradsmm_full_pool(m, stream):
    """``GradSmmLearner`` with every proxy appended: its declarations, step by step."""
    P, N = np.empty((0, m.dim)), np.empty((0, m.dim))
    clf, declared = Classifier(np.zeros(m.dim), 1.0), []
    for k, (x, label) in enumerate(stream):
        declared.append(clf)
        out = interact(x, label, clf, m)
        r = out.response
        s = r if k < 2 else proxy_from_response(r[None], np.array([label]), np.array([out.predicted]), clf, m)[0]
        P, N = (np.vstack([P, s]), N) if label == 1 else (P, np.vstack([N, s]))
        if k == 1:
            sol = solve_max_margin(PointSetPair.from_arrays(P, N), m)
            z, t, wsum, zsum, clf = sol.y.copy(), 1, 1.0, sol.y.copy(), Classifier(sol.y, sol.b)
        elif k > 1:
            z_next = z + (1.0 / math.sqrt(t)) * (P[int(np.argmin(P @ z))] - N[int(np.argmax(N @ z))])
            nrm = float(np.linalg.norm(z_next))
            z_next = z_next / nrm if nrm > 1.0 else z_next
            t += 1
            wsum += 1.0 / math.sqrt(t)
            zsum = zsum + (1.0 / math.sqrt(t)) * z_next
            y, z = zsum / wsum, z_next
            clf = Classifier(y, -0.5 * (float(np.min(P @ y)) + float(np.max(N @ y))))
    return declared, P, N


class TestDistinctPool:
    """The pool keeps each row once; the learners act as if it kept them all."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradsmm_declarations_match_a_full_pool_reference(self, seed):
        m = CostModel(L2, c=40.0, dim=3)
        stream = repeating_stream(seed, 2500)
        learner = GradSmmLearner(m)
        declared = []
        for x, label in stream:
            declared.append(learner.classifier)
            out = interact(x, label, declared[-1], m)
            feed(learner, out, label)
        expected, P, N = gradsmm_full_pool(m, stream)
        assert learner.pool.n_pos + learner.pool.n_neg < (len(P) + len(N)) // 4  # mostly repeats
        for got, want in zip(declared, expected):
            assert np.array_equal(got.y, want.y) and got.b == want.b

    @pytest.mark.parametrize("seed", [0, 1])
    def test_smm_solves_match_a_full_pool_reference(self, seed):
        m = CostModel(L2, c=40.0, dim=3)
        stream = repeating_stream(seed, 2500)
        learner = SmmLearner(m)
        reference = SmmLearner(m)
        reference.pool = FullPool(m.dim)
        for x, label in stream:
            clf = learner.classifier
            want = reference.classifier
            assert np.array_equal(clf.y, want.y) and clf.b == want.b
            out = interact(x, label, clf, m)
            feed(learner, out, label)
            feed(reference, out, label)
        assert learner.solve_count == reference.solve_count > 1
        assert learner.pool.n_pos + learner.pool.n_neg < reference.pool.n_pos + reference.pool.n_neg


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

    def test_gamma_is_not_an_argument(self):
        with pytest.raises(TypeError):
            PerceptronLearner(CostModel(L2, c=4.0, dim=2), gamma=1.0)

    @pytest.mark.parametrize("cone,want", [("full", [-1.0, 0.5, 1.0]), ("zero-b", [-1.0, 0.5, 0.0]),
                                           ("nonneg", [0.0, 0.5, 1.0])])
    def test_a_cone_given_by_its_value_projects_as_its_kind(self, cone, want):
        learner = PerceptronLearner(CostModel(L2, c=4.0, dim=2), cone=cone)
        learner.update(np.array([[-1.0, 0.5]]), np.array([1]), np.array([-1]))
        assert learner.cone is ConeKind(cone)
        assert np.array_equal(learner.q, want)

    @pytest.mark.parametrize("cone", list(ConeKind))
    def test_a_cone_given_by_its_value_runs_as_its_kind_bitwise(self, cone):
        m = CostModel(L2, c=4.0, dim=3)
        rng = np.random.default_rng(5)
        stream = [(tuple(rng.normal(size=3)), int(rng.choice([-1, 1]))) for _ in range(120)]
        by_kind, by_value = PerceptronLearner(m, cone=cone), PerceptronLearner(m, cone=cone.value)
        for features, label in stream:
            out_kind = drive(by_kind, m, [(features, label)])[0]
            out_value = drive(by_value, m, [(features, label)])[0]
            assert out_kind.response.tobytes() == out_value.response.tobytes()
            assert by_kind.q.tobytes() == by_value.q.tobytes()
        assert by_kind.mistakes == by_value.mistakes > 10


MAKERS = {
    "smm": SmmLearner,
    "smm-force": SmmLearner,  # under a gate that clears nothing: every update re-solves
    "gradsmm": GradSmmLearner,
    "perceptron-full": lambda m: PerceptronLearner(m, ConeKind.FULL),
    "perceptron-zero-b": lambda m: PerceptronLearner(m, ConeKind.ZERO_INTERCEPT),
    "perceptron-nonneg": lambda m: PerceptronLearner(m, ConeKind.NONNEG_WEIGHTS),
}


def arrivals(seed, T, prefix):
    """``T`` arrivals from 16 agents, two 3-d clusters; the first ``prefix`` share one label.

    Agents repeat, so blocks hold repeated rows and rows already pooled.
    """
    rng = np.random.default_rng(seed)
    labels = np.where(np.arange(16) < 8, 1, -1)
    pop = 0.6 * rng.normal(size=(16, 3))
    pop[:, 2] += 0.8 * labels
    idx = rng.integers(0, 16, size=T)
    idx[:prefix] = rng.choice(np.flatnonzero(labels == labels[idx[0]]), size=min(prefix, T))
    return pop[idx], labels[idx]


def play_blocks(learner, m, A, labels, noise, sizes):
    """Feed the arrivals in blocks of ``sizes`` (cycled, cut at the end) under each declaration.

    Returns the classifier declared at each step and the steps after which a
    new one was declared, checking the block contract on the way.
    """
    declared, changes, step, sizes = [], [], 0, itertools.cycle(sizes)
    while step < len(labels):
        clf = learner.classifier
        k = min(next(sizes), len(labels) - step)
        z = None if noise is None else noise[step : step + k]
        observed, predicted, _ = answer(A[step : step + k], clf, m, z)
        n = learner.update(observed, labels[step : step + k], predicted)
        changed = learner.classifier is not clf
        assert 1 <= n <= k and (changed or n == k)  # a block ends early only on a new declaration
        declared += [(clf.y.tobytes(), clf.b)] * n
        step += n
        if changed:
            changes.append(step)
    return declared, changes


def learner_state(learner):
    """Everything a learner carries that a run can observe, as comparable values."""
    state = {key: getattr(learner, key) for key in ("in_init", "solve_count", "inseparable_at",
                                                    "updates", "mistakes") if hasattr(learner, key)}
    if hasattr(learner, "pool"):
        state["pool"] = (learner.pool.positives.tobytes(), learner.pool.negatives.tobytes())
    clf = learner.classifier
    state["final"] = (clf.y.tobytes(), clf.b, clf.margin)
    return state


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(MAKERS)),
    seed=st.integers(0, 2**32 - 1),
    prefix=st.integers(0, 6),
    sigma=st.sampled_from([0.0, 1e-3, 0.8]),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
    aligned=st.booleans(),
)
@example(kind="smm", seed=3, prefix=5, sigma=0.0, sizes=[2], aligned=False)  # a warm-up over three blocks
@example(kind="smm", seed=3, prefix=0, sigma=0.0, sizes=[1], aligned=True)  # every solve on a block's last row
@example(kind="smm", seed=3, prefix=0, sigma=0.8, sizes=[7, 3], aligned=False)  # the pool turns inseparable
def test_block_updates_equal_one_row_updates(kind, seed, prefix, sigma, sizes, aligned):
    # the same agents, one row at a time and in blocks: the same rows consumed
    # under the same declarations, the same pool in the same order, the same solves
    m = CostModel(L2, c=4.0, dim=3)
    A, labels = arrivals(seed, 90, prefix)
    noise = sigma * np.random.default_rng(seed + 1).standard_normal(A.shape) if sigma else None
    runs = []
    for block_sizes in ([1], sizes):
        solves = []

        def logged_solve(pool, *args, **kwargs):
            solves.append((pool.positives.tobytes(), pool.negatives.tobytes(), kwargs.get("warm") is None))
            return solve_max_margin(pool, *args, **kwargs)

        learner = MAKERS[kind](m)
        gate = {"incremental_check": lambda *args: 0} if kind == "smm-force" else {}
        with mock.patch.multiple(learners, solve_max_margin=logged_solve, **gate):
            declared, changes = play_blocks(learner, m, A, labels, noise, block_sizes)
        runs.append((declared, changes, solves, learner_state(learner)))
        if aligned:  # blocks that end where the one-row run declared anew
            sizes = list(np.diff([0] + changes)) or sizes
    assert runs[0] == runs[1]


def test_project_cone_values():
    q = np.array([-1.0, 2.0, -3.0])
    assert np.array_equal(project_cone(ConeKind.FULL, q), q)
    assert np.array_equal(project_cone(ConeKind.ZERO_INTERCEPT, q), np.array([-1.0, 2.0, 0.0]))
    assert np.array_equal(project_cone(ConeKind.NONNEG_WEIGHTS, q), np.array([0.0, 2.0, -3.0]))


def test_project_cone_takes_a_kind_or_its_value_only():
    q = np.array([-1.0, 2.0, -3.0])
    for kind in ConeKind:
        assert np.array_equal(project_cone(kind.value, q), project_cone(kind, q))
    with pytest.raises(ValueError, match="'bogus'"):
        project_cone("bogus", q)
    with pytest.raises(ValueError, match="'bogus'"):
        PerceptronLearner(CostModel(L2, c=4.0, dim=2), cone="bogus")


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

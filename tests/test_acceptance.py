"""Acceptance gate: one test per criterion, one pass/fail line each under -v.

Criteria 3, 4 and 8 share a 50-seed battery of online runs on the standard
synthetic family (d=6, n=2000, rho=0.02, budget 2/c = 0.8*rho, T=10000);
criterion 5 uses a 50-seed battery on a fixed two-cluster planar instance.
The batteries are built once per module and take a few minutes total.

Criterion 4 holds each learner to what it promises.  The exact pool learner
settles on the pool optimum and must be silent in the final 5000 steps.  The
averaged-gradient learner promises finitely many mistakes and manipulations
but no quiet horizon, so it must make no tail mistakes, manipulate less in
the tail than in the first 5000 steps, and still be approaching the
benchmark.
"""

import logging
import math
import time

import numpy as np
import pytest

from oracle import feed, oracle_margin
from stratclass.bounds import (
    dataset_constants,
    perceptron_mistake_bound,
    smm_manipulation_bounds,
    smm_mistake_bound,
)
from stratclass.data import Dataset, SynthConfig, generate_synthetic
from stratclass.harness import EXAMPLE_NAMES, RunConfig, reproduce_example, run_online
from stratclass.learners import ConeKind, PerceptronLearner, SmmLearner, project_cone
from stratclass.maxmargin import PointSetPair, margin_h, solve_max_margin
from stratclass.norms import (
    EPS_GEOM,
    L1,
    L2,
    LINF,
    CostModel,
    NormKind,
    dual_norm_eval,
    manipulation_direction,
    norm_eval,
    parse_norm,
)
from stratclass.response import Classifier, interact, proxy_from_response

SEEDS = range(50)
HORIZON = 10_000
TAIL = 5_000
BUDGET_C = 125.0  # 2/c = 0.016 = 0.8 * rho


def synth(seed):
    return generate_synthetic(SynthConfig(seed=seed, n=2000, d=6, rho=0.02))


def run(algorithm, seed, ds, **kw):
    base = dict(algorithm=algorithm, norm="l2", c=BUDGET_C, T=HORIZON, seed=seed, mode="iid",
                track="distance")
    base.update(kw)
    return run_online(RunConfig(**base), ds)


class _WarningTrap(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.fixture(scope="module")
def battery():
    """Noiseless + noisy runs of every algorithm across 50 synthetic seeds."""
    out = []
    trap = _WarningTrap()
    root = logging.getLogger("stratclass")
    root.addHandler(trap)
    try:
        for seed in SEEDS:
            ds = synth(seed)
            model = CostModel(L2, c=BUDGET_C, dim=ds.dim)
            entry = {
                "seed": seed,
                "ds": ds,
                "bench": ds.benchmark,
                "consts": dataset_constants(ds, model),
                "model": model,
                "smm": run("smm", seed, ds),
                "gradsmm": run("gradsmm", seed, ds),
                "perc_full": run("perceptron", seed, ds, track="counts"),
                "perc_zero": run("perceptron", seed, ds, track="counts", cone="zero-b"),
            }
            before = len(trap.messages)
            entry["smm_noisy"] = run("smm", seed, ds, sigma=1e-3, track="counts")
            entry["smm_noisy_warned"] = any(
                "inseparable" in msg for msg in trap.messages[before:]
            )
            entry["gradsmm_noisy"] = run("gradsmm", seed, ds, sigma=1e-3)
            entry["perc_noisy"] = run("perceptron", seed, ds, sigma=1e-3, track="counts")
            out.append(entry)
    finally:
        root.removeHandler(trap)
    return out


@pytest.fixture(scope="module")
def convergence_battery():
    """Two well-separated clusters: benchmark margin 1 > budget 0.5, T = 20000."""
    xs = np.linspace(-1.0, 1.0, 10)
    feats = np.vstack([np.c_[xs, np.ones(10)], np.c_[xs, -np.ones(10)]])
    labels = np.array([1] * 10 + [-1] * 10)
    ds = Dataset(feats, labels)  # benchmark (0, 1), b* = 0, d* = 1
    out = []
    for seed in SEEDS:
        entry = {"seed": seed}
        for alg in ("smm", "gradsmm"):
            m = run_online(
                RunConfig(algorithm=alg, norm="l2", c=4.0, T=20_000, seed=seed, mode="iid",
                          track="counts"),
                ds,
            )
            ny = float(np.linalg.norm(m.final_y))
            entry[alg] = (
                math.inf
                if ny == 0.0
                else float(
                    math.hypot(
                        np.linalg.norm(m.final_y / ny - ds.benchmark.y_star),
                        m.final_b / ny - ds.benchmark.b_star,
                    )
                )
            )
        out.append(entry)
    return out


def test_criterion_1_micro_instances_exact():
    """Closed-form micro-instances: response 1e-12, margins 1e-9, trace exact, < 1s."""
    start = time.perf_counter()

    m4 = CostModel(L2, c=4.0, dim=2)
    r = interact(np.array([-1.0, 1.0]), 1, Classifier(np.array([1.0, 2.0]), 0.0), m4).response
    expected = np.array([-6 / 5 + math.sqrt(5) / 10, 3 / 5 + math.sqrt(5) / 5])
    assert np.max(np.abs(r - expected)) <= 1e-12

    sol = solve_max_margin(
        PointSetPair.from_arrays([[0.0, 1.0]], [[-2.0, -1.0]]), CostModel(L2, 1.0, 2)
    )
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(sol.y - np.array([s, s]))) <= 1e-9
    assert abs(sol.b - s) <= 1e-9
    assert abs(sol.d - math.sqrt(2)) <= 1e-9

    pos = [[-3.0, 1.0], [-1.0, 1.0], [1.0, 1.0]]
    neg = [[-3.0, -1.0], [-1.0, -1.0], [1.0, -1.0]]
    sol = solve_max_margin(PointSetPair.from_arrays(pos, neg), CostModel(L2, 1.0, 2))
    assert np.max(np.abs(sol.y - np.array([0.0, 1.0]))) <= 1e-9
    assert abs(sol.b) <= 1e-9 and abs(sol.d - 1.0) <= 1e-9

    learner = PerceptronLearner(m4)
    for feats, lbl in [((1.0, -1.0), -1), ((2.0, 1.0), 1)]:
        out = interact(np.array(feats), lbl, learner.classifier, m4)
        assert feed(learner, out, lbl) == 1
    assert np.array_equal(learner.q, np.array([1.0, 2.0, 0.0]))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"CRITERION 1: PASS (response 1e-12, margins 1e-9, trace exact, {elapsed:.3f}s)")


def test_criterion_2_worked_examples_regress():
    """Every canonical example re-derives its published numbers in < 5 s."""
    start = time.perf_counter()
    for name in EXAMPLE_NAMES:
        report = reproduce_example(name)
        assert report.passed, f"{name} failed:\n" + report.render()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"CRITERION 2: PASS ({len(EXAMPLE_NAMES)} examples, {elapsed:.2f}s)")


def test_criterion_3_certificates_hold_across_seeds(battery):
    """50 seeds: observed counts within every certificate; margins sandwiched (1e-8)."""
    violations = []
    for e in battery:
        seed, bench, consts, model = e["seed"], e["bench"], e["consts"], e["model"]
        assert bench.d_star > model.two_over_c  # instance family keeps finite bounds
        met = e["smm"]
        mist_bound = smm_mistake_bound(bench, consts)
        neg_bound, pos_bound = smm_manipulation_bounds(bench, consts, model)
        if met.init_mistakes > 2:
            violations.append((seed, "smm declaration mistakes", met.init_mistakes, 2))
        if met.mistakes - met.init_mistakes > mist_bound:
            violations.append((seed, "smm mistakes", met.mistakes - met.init_mistakes, mist_bound))
        if met.manipulations_by_label(-1) > neg_bound:
            violations.append((seed, "smm neg manipulations", met.manipulations_by_label(-1), neg_bound))
        if met.manipulations_by_label(1) > pos_bound:
            violations.append((seed, "smm pos manipulations", met.manipulations_by_label(1), pos_bound))
        ds_seq = [v for v in met.d_t if v is not None]
        if not all(b <= a + 1e-8 for a, b in zip(ds_seq, ds_seq[1:])):
            violations.append((seed, "smm margin increased", None, None))
        if not all(v >= bench.d_star - 1e-8 for v in ds_seq):
            violations.append((seed, "smm margin below d_star", min(ds_seq), bench.d_star))

        full_bound = perceptron_mistake_bound(bench, consts, model, ConeKind.FULL)
        if e["perc_full"].mistakes > full_bound:
            violations.append((seed, "perceptron full", e["perc_full"].mistakes, full_bound))
        zero_bound = perceptron_mistake_bound(bench, consts, model, ConeKind.ZERO_INTERCEPT)
        if e["perc_zero"].mistakes > zero_bound:
            violations.append((seed, "perceptron zero-b", e["perc_zero"].mistakes, zero_bound))
    assert not violations, f"{len(violations)} certificate violations: {violations[:10]}"
    print(f"CRITERION 3: PASS (0 violations across {len(battery)} seeds, sandwich tol 1e-8)")


def test_criterion_4_late_run_stability(battery):
    """Late-run stability of both pool learners over the final 5000 iterations.

    smm: no mistakes and no manipulations in the tail.  gradsmm promises only
    finitely many of each, at the ~1/sqrt(t) rate of its averaged iterate, so
    on every seed: no tail mistakes, fewer manipulations in the tail than in
    the first 5000 steps, and a classifier strictly closer to the benchmark at
    step T than at step T - TAIL.
    """
    smm_bad, grad_bad = [], []
    for e in battery:
        met = e["smm"]
        mist, manip = sum(met.mistake[-TAIL:]), sum(met.manipulated[-TAIL:])
        if mist or manip:
            smm_bad.append((e["seed"], mist, manip))
        met = e["gradsmm"]
        mist = sum(met.mistake[-TAIL:])
        head, tail = sum(met.manipulated[:TAIL]), sum(met.manipulated[-TAIL:])
        dist_mid, dist_end = met.distance[HORIZON - TAIL - 1], met.distance[-1]
        approaching = dist_mid is not None and dist_end is not None and dist_end < dist_mid
        if mist or not tail < head or not approaching:
            grad_bad.append((e["seed"], mist, head, tail, dist_mid, dist_end))
    assert not smm_bad, f"exact pool learner still active late in the run: {smm_bad[:10]}"
    print(f"CRITERION 4 (exact clause): PASS — smm quiet in final {TAIL} on all seeds")
    assert not grad_bad, (
        f"averaged-gradient learner not settling on {len(grad_bad)}/{len(battery)} seeds; "
        f"each needs 0 tail mistakes, fewer manipulations in the final {TAIL} steps than in "
        f"the first {TAIL}, and a smaller distance to the benchmark at step {HORIZON} than "
        f"at step {HORIZON - TAIL}. (seed, tail mistakes, head manipulations, tail "
        f"manipulations, distance at {HORIZON - TAIL}, distance at {HORIZON}): {grad_bad}"
    )
    print(
        "CRITERION 4 (averaged clause): PASS — gradsmm has 0 tail mistakes, fewer tail than "
        "head manipulations and a shrinking distance to the benchmark on all seeds"
    )


def test_criterion_5_iid_convergence(convergence_battery):
    """Two-cluster instance: smm within 1e-3 and gradsmm within 5e-2 on >= 45/50 seeds."""
    smm_hits = sum(1 for e in convergence_battery if e["smm"] <= 1e-3)
    grad_hits = sum(1 for e in convergence_battery if e["gradsmm"] <= 5e-2)
    n = len(convergence_battery)
    assert smm_hits >= 45, f"smm converged on only {smm_hits}/{n} seeds"
    assert grad_hits >= 45, f"gradsmm converged on only {grad_hits}/{n} seeds"
    worst_smm = max(e["smm"] for e in convergence_battery)
    worst_grad = max(e["gradsmm"] for e in convergence_battery)
    print(
        f"CRITERION 5: PASS (smm {smm_hits}/{n} within 1e-3, worst {worst_smm:.2e}; "
        f"gradsmm {grad_hits}/{n} within 5e-2, worst {worst_grad:.2e})"
    )


def test_criterion_6_solver_matches_oracle():
    """200 random separable instances: margin within 1e-6 of the exhaustive oracle."""
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        gap = rng.uniform(0.05, 1.0)
        P = rng.normal(size=(int(rng.integers(1, 9)), dim)) + gap * u
        N = rng.normal(size=(int(rng.integers(1, 9)), dim)) - gap * u
        shift = (1.0 - min(float(np.min(P @ u)), float(np.min(-N @ u)))) * u
        P = P + shift
        N = N - shift
        sol = solve_max_margin(PointSetPair.from_arrays(P, N), CostModel(L2, 1.0, dim))
        y0, b0, d0 = oracle_margin(P, N)
        assert sol.separable and d0 > 0
        assert abs(sol.d - d0) <= 1e-6, f"margin off: {sol.d} vs oracle {d0}"
        # witness identities (1e-8)
        uvec = sol.x_plus - sol.x_minus
        dist = float(np.linalg.norm(uvec))
        assert abs(float(sol.y @ uvec) - dist) <= 1e-8
        assert abs(sol.d - dist / 2.0) <= 1e-8
        assert abs(sol.b - float(-sol.y @ (sol.x_plus + sol.x_minus)) / 2.0) <= 1e-8
        checked += 1
    assert checked == 200
    print("CRITERION 6: PASS (200 instances, margin tol 1e-6, witness tol 1e-8)")


def _random_norm(rng):
    kind = rng.choice(["l2", "l1", "linf", "lp", "wl1"])
    if kind == "lp":
        return NormKind("lp", p=float(rng.uniform(1.1, 4.0)))
    if kind == "wl1":
        dim = 3
        return NormKind("wl1", weights=tuple(float(w) for w in rng.uniform(0.2, 3.0, dim)))
    return parse_norm(str(kind))


def test_criterion_7_property_suites():
    """Eight protocol invariants, 1000 random trials each."""
    trials = 1000

    # (a) the best-response direction attains the dual norm on the unit ball
    rng = np.random.default_rng(70)
    for _ in range(trials):
        norm = _random_norm(rng)
        y = rng.normal(size=3) * 10.0 ** int(rng.integers(-3, 4))
        v = manipulation_direction(norm, y)
        dn = dual_norm_eval(norm, y)
        assert abs(float(y @ v) - dn) <= 1e-12 * max(1.0, dn)
        assert abs(norm_eval(norm, v) - 1.0) <= 1e-12

    # (b) a classifier correct on the true features stays correct after the response
    rng = np.random.default_rng(71)
    for _ in range(trials):
        norm = _random_norm(rng)
        m = CostModel(norm, c=float(rng.uniform(0.3, 10.0)), dim=3)
        clf = Classifier(rng.normal(size=3), float(rng.normal()))
        x = rng.normal(size=3)
        label = 1 if float(clf.y @ x) + clf.b >= 0 else -1
        assert interact(x, label, clf, m).predicted == label

    # (c) prediction outcome and the proxy's signed margin never disagree
    rng = np.random.default_rng(72)
    for _ in range(trials):
        norm = _random_norm(rng)
        m = CostModel(norm, c=float(rng.uniform(0.3, 10.0)), dim=3)
        clf = Classifier(rng.normal(size=3), float(rng.normal()))
        x, label = rng.normal(size=3), int(rng.choice([-1, 1]))
        out = interact(x, label, clf, m)
        proxy = proxy_from_response(out.response[None], [label], [out.predicted], clf, m)[0]
        score = label * (float(clf.y @ proxy) + clf.b)
        tol = 1e-9 * (np.linalg.norm(clf.y) * np.linalg.norm(proxy) + abs(clf.b) + 1.0)
        if out.mistake:
            assert score <= tol
        else:
            assert score >= -tol

    # (d) proxies preserve any margin ge rho against aligned reference classifiers
    rng = np.random.default_rng(73)
    applicable = 0
    for _ in range(trials):
        norm = _random_norm(rng)
        m = CostModel(norm, c=float(rng.uniform(0.3, 10.0)), dim=3)
        clf = Classifier(rng.normal(size=3), float(rng.normal()))
        ref_y = rng.normal(size=3)
        ref_b = float(rng.normal())
        x = rng.normal(size=3)
        label = int(rng.choice([-1, 1]))
        rho = float(rng.uniform(0.0, 2.0))
        if float(ref_y @ manipulation_direction(m, clf.y)) < 0:
            continue
        if label * (float(ref_y @ x) + ref_b) < rho:
            continue
        applicable += 1
        out = interact(x, label, clf, m)
        proxy = proxy_from_response(out.response[None], [label], [out.predicted], clf, m)[0]
        assert label * (float(ref_y @ proxy) + ref_b) >= rho - 1e-9
    assert applicable >= trials // 10  # the conditioned event is not vacuous

    # (e) a perceptron round keeps q on a correct round and takes one unit
    # step from it, projected onto the cone, on a mistake
    rng = np.random.default_rng(74)
    outcomes = set()
    for stream in range(trials // 10):  # 100 streams x 10 rounds = 1000 trials
        norm = _random_norm(rng)
        m = CostModel(norm, c=float(rng.uniform(0.3, 10.0)), dim=3)
        cone = list(ConeKind)[stream % 3]
        learner = PerceptronLearner(m, cone)
        for _ in range(10):
            x, label = rng.normal(size=3), int(rng.choice([-1, 1]))
            clf, q = learner.classifier, learner.q
            out = interact(x, label, clf, m)
            assert feed(learner, out, label) == 1
            if out.mistake:
                proxy = proxy_from_response(out.response[None], [label], [out.predicted], clf, m)[0]
                assert np.array_equal(learner.q, project_cone(cone, q + label * np.append(proxy, 1.0)))
            else:
                assert learner.q is q and learner.classifier is clf
            outcomes.add((cone, out.mistake))
    assert len(outcomes) == 6  # every cone met both kinds of round

    # (f) cone projections are positively homogeneous, exactly
    rng = np.random.default_rng(75)
    for _ in range(trials):
        kind = list(ConeKind)[int(rng.integers(3))]
        q = rng.normal(size=4)
        alpha = float(rng.uniform(0.1, 20.0))
        assert np.array_equal(project_cone(kind, alpha * q), alpha * project_cone(kind, q))

    # (g) responses and proxies ignore positive rescaling of the classifier
    rng = np.random.default_rng(76)
    for _ in range(trials):
        norm = _random_norm(rng)
        m = CostModel(norm, c=float(rng.uniform(0.3, 10.0)), dim=3)
        y = rng.normal(size=3)
        b = float(rng.normal())
        alpha = float(rng.uniform(0.1, 50.0))
        x, label = rng.normal(size=3), int(rng.choice([-1, 1]))
        c1, c2 = Classifier(y, b), Classifier(alpha * y, alpha * b)
        out1, out2 = interact(x, label, c1, m), interact(x, label, c2, m)
        r1, r2 = out1.response, out2.response
        assert np.max(np.abs(r1 - r2)) <= 1e-12 * max(1.0, float(np.max(np.abs(r1))))
        s1 = proxy_from_response(r1[None], [label], [out1.predicted], c1, m)[0]
        s2 = proxy_from_response(r2[None], [label], [out2.predicted], c2, m)[0]
        assert np.max(np.abs(s1 - s2)) <= 1e-9

    # (h) the declaration phase never makes more than two mistakes, driven
    # through the protocol round by round as run_online drives it
    rng = np.random.default_rng(77)
    m = CostModel(L2, c=2.0, dim=2)
    for _ in range(trials):
        k = int(rng.integers(2, 9))
        labels = [int(v) for v in rng.choice([-1, 1], size=k)]
        if len(set(labels)) == 1:
            labels[-1] = -labels[-1]
        agents = [(rng.normal(size=2), lbl) for lbl in labels]
        learner = SmmLearner(m)
        mistakes = 0
        for x, label in agents:
            out = interact(x, label, learner.classifier, m)
            assert feed(learner, out, label) == 1
            mistakes += out.mistake
            if not learner.in_init:
                break
        assert not learner.in_init  # the phase ended, so every one of its rounds was counted
        assert mistakes <= 2

    print("CRITERION 7: PASS (8 property suites x 1000 trials)")


def test_criterion_8_noise_robustness(battery):
    """sigma = 1e-3: averaged/perceptron learners finish; pool fallback is logged."""
    assert all(len(e["gradsmm_noisy"].t) == HORIZON for e in battery)
    assert all(len(e["perc_noisy"].t) == HORIZON for e in battery)

    hits = 0
    for e in battery:
        noisy = e["gradsmm_noisy"].final_distance
        clean = e["gradsmm"].final_distance
        if noisy is not None and clean is not None and noisy <= 2.0 * clean:
            hits += 1
    assert hits >= 40, f"gradsmm within 2x of its noiseless distance on only {hits}/50 seeds"

    fallbacks = 0
    for e in battery:
        met = e["smm_noisy"]
        assert len(met.t) == HORIZON  # fallback, never a crash
        if met.inseparable_at is not None:
            fallbacks += 1
            assert e["smm_noisy_warned"], f"seed {e['seed']}: fallback happened silently"
            assert not np.any(met.final_y)
    print(
        f"CRITERION 8: PASS (all noisy runs completed; gradsmm within 2x on {hits}/50; "
        f"pool learner fell back with a logged warning on {fallbacks}/50 seeds)"
    )

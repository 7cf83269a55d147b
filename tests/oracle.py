"""Brute-force reference solvers for the max-margin problem.

Independent of the package's solvers on purpose.  For the Euclidean norm,
``oracle_nearest_points`` enumerates every possible support subset of the
two point clouds, solves the equality-constrained least-squares system on
each, and keeps the best feasible candidate.  By Caratheodory the optimal
pair of hull points is a convex combination of at most d+2 vertices in
total, so the enumeration is exhaustive for the small instances it is used
on (d <= 4, <= 8 points per side).  For the polyhedral norms (l1, linf,
wl1), ``oracle_polyhedral_margin`` enumerates every vertex of the
max-margin LP's feasible region (d <= 3, <= 4 points per side).
``two_sided_certificate`` re-derives a solution's optimality interval for
any norm from the norm functions alone.  ``oracle_cutting_plane`` solves a
non-Euclidean max-margin problem cold, adding one Kelley cut per LP until
the LP's own row duals certify it, the reference for the package's
polished, warm-startable cutting-plane solver; its LPs go through
``oracle_lp``, ``scipy.optimize.linprog`` with HiGHS, the reference for the
package's direct HiGHS call.  ``oracle_run_online`` is the
online protocol one scalar ``oracle_interact`` per step, each fed to the
learner as a one-row block through ``feed``, the reference the harness's
block engine and its lean one-agent step must reproduce bit for bit; ``oracle_interact`` and ``oracle_normalized_distance`` keep the
protocol round and the distance column as first written, scoring each
response afresh and measuring the distance with ``np.linalg.norm``.  ``oracle_half_diameter``
scores every pair of points with the pair kernel, the reference for the
pruned scan in ``bounds``; ``oracle_truncated_normal`` draws one row at a time, the
reference for the batched sampler in ``data``.  ``offset_prediction`` is
the protocol's prediction on a point no agent moved, for tests that feed a
learner raw points.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from stratclass import harness
from stratclass.data import _MAX_REJECTION_TRIES, SynthConfig
from stratclass.learners import SmmLearner
from stratclass.maxmargin import MarginSolution, PointSetPair, SolverError
from stratclass.norms import (
    EPS_GEOM,
    CostModel,
    dual_norm_eval,
    manipulation_direction,
    norm_eval,
    parse_norm,
)
from stratclass.response import Interaction, _clears_offset, _score


def _subset_candidate(P_sub: np.ndarray, N_sub: np.ndarray):
    """Distance-minimizing pair over the affine hulls with convexity check.

    Solves min ||sum_i a_i p_i - sum_j b_j n_j||^2 subject to sum a = 1,
    sum b = 1 via the KKT system, then rejects the candidate unless all
    coefficients are (numerically) nonnegative.
    """
    m1, m2 = len(P_sub), len(N_sub)
    k = m1 + m2
    B = np.vstack([P_sub, -N_sub])
    kkt = np.zeros((k + 2, k + 2))
    kkt[:k, :k] = 2.0 * (B @ B.T)
    kkt[:k, k] = kkt[k, :k] = [1.0] * m1 + [0.0] * m2
    kkt[:k, k + 1] = kkt[k + 1, :k] = [0.0] * m1 + [1.0] * m2
    rhs = np.zeros(k + 2)
    rhs[k] = rhs[k + 1] = 1.0
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
    if np.any(sol < -1e-9):
        return None
    alpha = np.clip(sol[:m1], 0.0, None)
    beta = np.clip(sol[m1:], 0.0, None)
    sa, sb = alpha.sum(), beta.sum()
    if sa <= 0.0 or sb <= 0.0:
        return None
    x_plus = (alpha / sa) @ P_sub
    x_minus = (beta / sb) @ N_sub
    return x_plus, x_minus


def oracle_nearest_points(P: np.ndarray, N: np.ndarray):
    """Exact closest pair between conv(P) and conv(N) by exhaustive search.

    Returns (x_plus, x_minus, distance).  Cost grows combinatorially; meant
    for instances with at most ~8 points per side in dimension <= 4.
    """
    P = np.asarray(P, dtype=float)
    N = np.asarray(N, dtype=float)
    d = P.shape[1]
    max_total = d + 2
    best = None
    for a in range(1, min(len(P), max_total - 1) + 1):
        for b in range(1, min(len(N), max_total - a) + 1):
            for S_pos in itertools.combinations(range(len(P)), a):
                P_sub = P[list(S_pos)]
                for S_neg in itertools.combinations(range(len(N)), b):
                    cand = _subset_candidate(P_sub, N[list(S_neg)])
                    if cand is None:
                        continue
                    dist = float(np.linalg.norm(cand[0] - cand[1]))
                    if best is None or dist < best[2]:
                        best = (cand[0], cand[1], dist)
    assert best is not None  # singletons always produce a candidate
    return best


def oracle_margin(P: np.ndarray, N: np.ndarray):
    """Max-margin triple (y, b, d) for the Euclidean ball, or (0, 0, 0)."""
    x_plus, x_minus, dist = oracle_nearest_points(P, N)
    if dist == 0.0:
        return np.zeros(P.shape[1]), 0.0, 0.0
    y = (x_plus - x_minus) / dist
    b = float(-y @ (x_plus + x_minus) / 2.0)
    return y, b, dist / 2.0


def _dual_ball_facets(kind: str, dim: int, weights=None):
    """Rows g with the dual-norm unit ball = {y : g.y <= 1 for every row}."""
    if kind == "linf":  # dual ball is the l1 ball: one facet per sign vector
        return np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
    # dual of l1 is the unit box, dual of sum_i w_i |x_i| the box |y_i| <= w_i
    if kind == "l1":
        box = np.ones(dim)
    elif kind == "wl1":
        box = np.asarray(weights, dtype=float)
    else:
        raise ValueError(f"no polyhedral dual ball for {kind!r}")
    eye = np.eye(dim) / box[:, None]
    return np.vstack([eye, -eye])


def oracle_polyhedral_margin(P, N, kind: str, weights=None) -> float:
    """Optimal value of max t s.t. p.y + b >= t, -(n.y + b) >= t, ||y||_* <= 1.

    The feasible set in (y, b, t) contains no line, so the optimum sits at a
    vertex: every choice of d+2 constraints whose system is nonsingular and
    whose solution satisfies all constraints is one.  Returns the largest t
    over all of them (0 when the clouds are inseparable).
    """
    P = np.asarray(P, dtype=float)
    N = np.asarray(N, dtype=float)
    dim = P.shape[1]
    G = _dual_ball_facets(kind, dim, weights)
    # constraints A z <= c on z = (y, b, t)
    A = np.vstack(
        [
            np.hstack([-P, -np.ones((len(P), 1)), np.ones((len(P), 1))]),
            np.hstack([N, np.ones((len(N), 1)), np.ones((len(N), 1))]),
            np.hstack([G, np.zeros((len(G), 2))]),
        ]
    )
    c = np.r_[np.zeros(len(P) + len(N)), np.ones(len(G))]
    picks = np.array(list(itertools.combinations(range(len(A)), dim + 2)))
    systems = A[picks]
    regular = np.abs(np.linalg.det(systems)) > 1e-9
    z = np.linalg.solve(systems[regular], c[picks[regular]][..., None])[..., 0]
    feasible = np.all(z @ A.T <= c + 1e-9, axis=1)
    return float(np.max(z[feasible, -1]))


def two_sided_certificate(P, N, sol, m):
    """(lower, upper) around the max margin, recomputed from a solution.

    ``lower`` is the margin that ``(y, b)``, scaled to unit dual norm,
    achieves on the clouds (0 for the inseparable fallback's y = 0).
    ``upper`` is half the cost-norm distance between the hull points the
    support weights name, after checking the weights are convex: no
    classifier in the dual-norm ball does better.
    """
    wp, wn = sol.support_weights
    for w, X in ((wp, P), (wn, N)):
        assert w and all(0 <= i < len(X) and v >= 0.0 for i, v in w.items())
        assert abs(sum(w.values()) - 1.0) <= 1e-12
    x_plus = sum(v * P[i] for i, v in wp.items())
    x_minus = sum(v * N[j] for j, v in wn.items())
    dn = dual_norm_eval(m, sol.y)
    lower = 0.0
    if dn > 0.0:
        y, b = sol.y / dn, sol.b / dn
        lower = min(float(np.min(P @ y + b)), float(np.min(-(N @ y + b))))
    return lower, 0.5 * norm_eval(m, x_plus - x_minus)


def oracle_lp(cost, A_ub, b_ub, lower, upper):
    """``maxmargin._highs_lp`` as the package first solved it: ``scipy.optimize.linprog``.

    HiGHS through scipy's public wrapper, with the options the cutting-plane
    solver passed it; returns the optimal ``x`` and the row duals, or raises
    ``SolverError`` with linprog's message.
    """
    from scipy.optimize import linprog

    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=list(zip(lower, upper)),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise SolverError(f"max-margin LP failed: {res.message}")
    return res.x, res.ineqlin.marginals


def oracle_cutting_plane(P, N, m, tol: float = 1e-10, max_rounds: int = 200) -> MarginSolution:
    """Max-margin under a non-Euclidean cost norm by cold Kelley cutting planes.

    The LP ``max t`` over ``(y, b, t)`` with ``p.y + b >= t``,
    ``-(n.y + b) >= t``, the dual ball's bounding box and one cut ``v.y <=
    1``, ``v = manipulation_direction(y)``, per LP optimum outside the
    ball.  Every LP's row duals, normalized to hull weights, bound the
    margin from above; returns once that bound is within ``tol`` of the
    margin ``y/||y||_*`` achieves, or reports the clouds inseparable when
    the bound is ``10 * tol`` or less.  After ``max_rounds`` LPs it returns
    the last one's answer with ``gap`` above ``tol``: cold cuts can stall
    short of a tight certificate, since HiGHS takes a cut violated by less
    than its feasibility tolerance for satisfied.  Either way the margin
    lies in ``[d, d + gap]`` when ``separable``.
    """
    P = np.asarray(P, dtype=float)
    N = np.asarray(N, dtype=float)
    dim, n_pos, n_rows = P.shape[1], len(P), len(P) + len(N)
    sign = np.r_[-np.ones(n_pos), np.ones(len(N))][:, None]
    rows = np.hstack([sign * np.vstack([P, N]), sign, np.ones((n_rows, 1))])
    cost = np.r_[np.zeros(dim + 1), -1.0]
    half = [norm_eval(m, e) for e in np.eye(dim)]
    col_lower, col_upper = np.r_[np.negative(half), -np.inf, -np.inf], np.r_[half, np.inf, np.inf]
    cuts = np.empty((0, dim + 2))
    for rounds in range(1, max_rounds + 1):
        x, marginals = oracle_lp(
            cost, np.vstack([rows, cuts]), np.r_[np.zeros(n_rows), np.ones(len(cuts))], col_lower, col_upper
        )
        duals = np.maximum(-marginals[:n_rows], 0.0)
        alpha = duals[:n_pos] / duals[:n_pos].sum()
        beta = duals[n_pos:] / duals[n_pos:].sum()
        weights = (
            {i: float(w) for i, w in enumerate(alpha) if w > 0.0},
            {j: float(w) for j, w in enumerate(beta) if w > 0.0},
        )
        x_plus, x_minus = alpha @ P, beta @ N
        upper = 0.5 * norm_eval(m, x_plus - x_minus)
        found = dict(x_plus=x_plus, x_minus=x_minus, support_weights=weights,
                     rounds=rounds, cuts=cuts[:, :dim])
        if upper <= 10.0 * tol:
            return MarginSolution(y=np.zeros(dim), b=0.0, d=0.0, separable=False, gap=upper,
                                  **found)
        y = x[:dim]
        y_hat = y / dual_norm_eval(m, y)
        lo = float(np.min(P @ y_hat))
        hi = float(np.max(N @ y_hat))
        lower = 0.5 * (lo - hi)
        sol = MarginSolution(y=y_hat, b=-0.5 * (lo + hi), d=lower, separable=True,
                             gap=upper - lower, **found)
        if upper - lower <= tol:
            return sol
        v = manipulation_direction(m, y)
        assert float(v @ y) > 1.0, "LP optimum in the dual ball short of a certificate"
        cuts = np.vstack([cuts, np.r_[v, 0.0, 0.0]])
    return sol


def oracle_interact(x, label, clf, m, sigma: float = 0.0, noise_rng=None) -> Interaction:
    """One protocol round for the agent with true features ``x`` and ``label``.

    The response is ``x + (2/c - ratio) v(y)`` for a margin ratio in
    ``[-EPS_GEOM, 2/c)`` and ``x`` otherwise; the prediction scores the
    observed response afresh, whether or not it is ``x``; the manipulation
    flag is ``np.array_equal`` of the clean response and ``x``.  Scores use
    the package's row-stable ``_score``, the premise the block engine rests
    on; ``||y||_*`` and ``v(y)`` come from ``norms``, whose l2 kernel
    ``tests/test_norms.py`` holds to ``np.linalg.norm`` bit for bit.
    """
    dn = dual_norm_eval(m, clf.y)
    clean = x
    if dn != 0.0:
        ratio = (float(_score(x, clf.y)) + clf.b) / dn
        if -EPS_GEOM <= ratio < m.two_over_c:
            clean = x + (m.two_over_c - ratio) * manipulation_direction(m, clf.y)
    manipulated = not np.array_equal(clean, x)
    observed = clean
    if sigma != 0.0:
        observed = clean + sigma * noise_rng.standard_normal(clean.shape[0])
    score = float(_score(observed, clf.y)) + clf.b - m.two_over_c * dn
    predicted = 1 if score >= -EPS_GEOM * dn else -1
    return Interaction(observed, predicted, manipulated, predicted != label)


def oracle_normalized_distance(y, b, bench) -> float | None:
    """Euclidean distance of ``(y, b) / ||y||`` from the benchmark's; None for ``y = 0``."""
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        return None
    y_star, b_star = bench.l2_normalized
    return float(math.hypot(np.linalg.norm(y / ny - y_star), b / ny - b_star))


def _oracle_margin_h(y, b, pair) -> float:
    return float(min(np.min(pair.positives @ y) + b, -np.max(pair.negatives @ y) - b))


def offset_prediction(clf, m, x) -> int:
    """The protocol's offset prediction on ``x`` as given, a point no agent's response moved."""
    return 1 if _clears_offset(float(_score(x, clf.y)) + clf.b, clf.dual_norm(m), m) else -1


def feed(learner, inter: Interaction, label: int) -> int:
    """Hand one round's observed response to ``learner.update`` as a one-row block."""
    return learner.update(inter.response[None], np.array([label]), np.array([inter.predicted]))


def oracle_run_online(cfg, dataset=None):
    """``harness.run_online`` as one scalar ``oracle_interact`` and one one-row update per step.

    Uses the harness's own config, arrival order, learner factory and
    metrics record, so only the protocol loop and the per-declaration
    columns differ from the engine.
    """
    if dataset is None:
        dataset = harness.build_dataset(cfg)
    model = CostModel(parse_norm(cfg.norm), cfg.c, dataset.dim)
    idx, noise_rng = harness._arrivals(cfg, dataset.n)
    learner = harness._build_learner(cfg, model)
    bench = dataset.benchmark
    want_distance = cfg.track in ("distance", "full") and bench is not None
    want_gap = cfg.track == "full" and bench is not None
    if want_gap:  # its own pair, not the dataset's shared one
        pair = PointSetPair.from_arrays(
            dataset.features[dataset.labels == 1], dataset.features[dataset.labels == -1]
        )
        h_star = _oracle_margin_h(bench.y_star, bench.b_star, pair)

    metrics = harness.RunMetrics()
    mistake, manipulated, labels = [], [], []
    declared = distance = gap = None
    start = time.perf_counter()
    for step, i in enumerate(idx):
        clf = learner.classifier
        key = (clf.y.tobytes(), clf.b)
        if key != declared:
            declared = key
            distance = oracle_normalized_distance(clf.y, clf.b, bench) if want_distance else None
            gap = h_star - _oracle_margin_h(clf.y, clf.b, pair) if want_gap else None
        in_init = getattr(learner, "in_init", False)  # the perceptron has no warm-up
        label = int(dataset.labels[i])
        inter = oracle_interact(dataset.features[i], label, clf, model, sigma=cfg.sigma, noise_rng=noise_rng)

        mistake.append(inter.mistake)
        manipulated.append(inter.manipulated)
        labels.append(label)
        d_now = None
        if isinstance(learner, SmmLearner) and not in_init and learner.solution is not None:
            d_now = learner.solution.d
        # one declaration row per step: the table need not merge repeats
        metrics.decl_start.append(step)
        metrics.decl_d_t.append(d_now)
        metrics.decl_distance.append(distance)
        metrics.decl_margin_gap.append(gap)
        if in_init:
            metrics.init_steps += 1
            if inter.mistake:
                metrics.init_mistakes += 1

        assert feed(learner, inter, label) == 1

    metrics.mistake_flags = np.array(mistake, dtype=bool)
    metrics.manipulated_flags = np.array(manipulated, dtype=bool)
    metrics.labels = np.array(labels, dtype=int)
    metrics.wall_time = time.perf_counter() - start
    final = learner.classifier
    metrics.final_y = final.y
    metrics.final_b = final.b
    metrics.solve_count = getattr(learner, "solve_count", 0)
    metrics.inseparable_at = getattr(learner, "inseparable_at", None)
    return metrics


def oracle_half_diameter(X: np.ndarray) -> float:
    """Half the largest pairwise distance: every pair's own ``sum_k (x_ik - x_jk)^2``, scanned row by row."""
    best = 0.0
    for x in X:
        best = max(best, float(np.max(np.add.reduce(np.square(X - x), axis=-1))))
    return 0.5 * math.sqrt(best)


def oracle_truncated_normal(rng, cfg: SynthConfig) -> np.ndarray:
    """``cfg.n`` truncated-normal rows, each drawn and tested on its own."""
    rows = []
    for _ in range(cfg.n):
        for _ in range(_MAX_REJECTION_TRIES):
            x = rng.normal(0.0, math.sqrt(cfg.variance), cfg.d)
            if np.linalg.norm(x) <= cfg.radius:
                rows.append(x)
                break
        else:
            raise RuntimeError("rejection sampling failed")
    return np.vstack(rows)

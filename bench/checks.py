"""Output checks that do not trust the program under test.

Every check recomputes what it compares against from the run's inputs and
outputs, either with an independent method (``scipy.optimize.linprog`` for
polyhedral max-margin problems, convex-combination witnesses for l2) or
from a property the method must have (the paper's perceptron mistake
bound, the averaged-gradient learner's promise, an exact CSV round-trip).
None of them compares against a stored copy of an earlier output.

Each check returns ``(ok, detail)``; ``detail`` says what was compared.
"""

from __future__ import annotations

import hashlib

import numpy as np

_COLUMNS = ("t", "mistake", "manipulated", "label", "d_t", "distance", "margin_gap")

# Slack on the offset-boundary and gate tests of the package (its EPS_GEOM).
_GEOM_SLACK = 1e-9


def _achieved_l2(P, N, y, b) -> float:
    """Margin of (y, b) over the rows, with y scaled to unit l2 length."""
    y = np.asarray(y, dtype=float)
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        return 0.0
    return min(float(np.min(P @ y + b)), float(np.min(-(N @ y + b)))) / ny


def witness_certificate(P, N, solution, tol: float) -> tuple[bool, str]:
    """Certify an l2 max-margin solution from its convex-combination witnesses.

    The witness weights name one point of each hull.  No separator can do
    better than half their distance, so a classifier whose achieved margin
    over every pool row reaches half that distance is optimal.  ``tol`` is
    the solver's certificate tolerance; points stored after the last solve
    passed the learner's gate only up to the package's geometric slack.
    """
    if solution is None or solution.support_weights is None:
        return False, "no witness weights"
    wp, wn = solution.support_weights
    for w, X in ((wp, P), (wn, N)):
        idx = np.fromiter(w.keys(), dtype=int, count=len(w))
        val = np.fromiter(w.values(), dtype=float, count=len(w))
        if len(idx) == 0 or idx.min() < 0 or idx.max() >= X.shape[0]:
            return False, "witness index outside the pool"
        if val.min() < 0.0 or abs(val.sum() - 1.0) > 1e-9:
            return False, f"witness weights are not convex (sum {val.sum():.17g})"
    x_plus = sum(w * P[i] for i, w in wp.items())
    x_minus = sum(w * N[j] for j, w in wn.items())
    half = 0.5 * float(np.linalg.norm(x_plus - x_minus))
    slack = tol + _GEOM_SLACK
    if not solution.separable:
        ok = half <= 10.0 * tol + slack
        return ok, f"inseparable fallback: half witness distance {half:.3e} (limit {10 * tol + slack:.1e})"
    achieved = _achieved_l2(P, N, solution.y, solution.b)
    ok = achieved >= half - slack and abs(solution.d - half) <= slack
    return ok, (
        f"achieved margin {achieved:.12g}, half witness distance {half:.12g}, "
        f"reported {solution.d:.12g} over {P.shape[0] + N.shape[0]} rows (slack {slack:.1e})"
    )


def lp_max_margin(P, N, norm: str) -> tuple[float, np.ndarray, float]:
    """Max-margin (value, y, b) under the l1 or linf cost norm, solved as an LP.

    Maximizes t subject to ``y.p + b >= t`` on positives, ``-(y.n + b) >= t``
    on negatives and ``||y||_* <= 1``: the dual of l1 is linf (a box), the
    dual of linf is l1 (written with ``y = y_plus - y_minus``).
    """
    from scipy.optimize import linprog

    d = P.shape[1]
    ones_p = np.ones((P.shape[0], 1))
    ones_n = np.ones((N.shape[0], 1))
    if norm == "l1":
        A = np.vstack([np.hstack([-P, -ones_p, ones_p]), np.hstack([N, ones_n, ones_n])])
        rhs = np.zeros(A.shape[0])
        bounds = [(-1.0, 1.0)] * d + [(None, None)] * 2
    elif norm == "linf":
        A = np.vstack(
            [
                np.hstack([-P, P, -ones_p, ones_p]),
                np.hstack([N, -N, ones_n, ones_n]),
                np.r_[np.ones(2 * d), 0.0, 0.0][None, :],
            ]
        )
        rhs = np.r_[np.zeros(P.shape[0] + N.shape[0]), 1.0]
        bounds = [(0.0, None)] * (2 * d) + [(None, None)] * 2
    else:
        raise ValueError(f"no LP form for norm {norm!r}")
    cost = np.zeros(A.shape[1])
    cost[-1] = -1.0
    res = linprog(cost, A_ub=A, b_ub=rhs, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    y = res.x[:d] if norm == "l1" else res.x[:d] - res.x[d : 2 * d]
    return -float(res.fun), y, float(res.x[-2])


def dual_norm(y, norm: str) -> float:
    y = np.asarray(y, dtype=float)
    if norm == "l1":
        return float(np.max(np.abs(y)))
    if norm == "linf":
        return float(np.sum(np.abs(y)))
    raise ValueError(f"no dual norm for {norm!r}")


def lp_optimality(P, N, y, b, norm: str, tol: float = 1e-7) -> tuple[bool, str]:
    """The learner's final classifier attains the LP optimum on its own pool."""
    dn = dual_norm(y, norm)
    achieved = 0.0 if dn == 0.0 else min(float(np.min(P @ y + b)), float(np.min(-(N @ y + b)))) / dn
    optimum = lp_max_margin(P, N, norm)[0]
    ok = achieved >= optimum - tol
    return ok, f"achieved {achieved:.9g} vs LP optimum {optimum:.9g} on {P.shape[0] + N.shape[0]} rows"


def positive_manipulation_verdict(report, optimum: float, reach: float) -> tuple[bool, str]:
    """certify calls positive manipulations unbounded iff d* <= 2/c in the run's norm."""
    row = next(r for r in report.rows if r.name.startswith("manipulations, positive"))
    expect_unbounded = optimum <= reach
    ok = (row.status == "unbounded") == expect_unbounded
    shown = "unbounded" if row.status == "unbounded" else f"{row.bound:.6g}"
    return ok, f"certify bound {shown}; LP benchmark margin {optimum:.6g} vs reach {reach:.6g}"


def certify_row(report, prefix: str) -> tuple[bool, str]:
    row = next(r for r in report.rows if r.name.startswith(prefix))
    return row.status == "pass", f"{row.name}: {row.status}"


def certify_passed(report) -> tuple[bool, str]:
    failed = [r.name for r in report.rows if r.status == "fail"]
    return report.passed and not failed, "all rows pass" if not failed else f"failed rows: {failed}"


def init_mistakes(metrics) -> tuple[bool, str]:
    return metrics.init_mistakes <= 2, f"{metrics.init_mistakes} mistakes in {metrics.init_steps} init steps"


def perceptron_full_cone(features, labels, benchmark, c: float, mistakes: int) -> tuple[bool, str]:
    """Mistakes within ``tilt (D~^2 + 1) / (d - 2/c)^2`` (l2 cost, full cone).

    Recomputed from the population: ``d`` is the achieved margin of the
    benchmark direction over every agent (any separator with margin above
    the reach gives a valid bound), ``D~ = max ||x|| + 2/c`` and
    ``tilt = (||y||^2 + b^2) / ||y||^2``.
    """
    X = np.asarray(features, dtype=float)
    y, b = benchmark.y_star, benchmark.b_star
    ny = float(np.linalg.norm(y))
    d = _achieved_l2(X[labels == 1], X[labels == -1], y, b)
    reach = 2.0 / c
    if d <= reach:
        return True, f"margin {d:.6g} <= reach {reach:.6g}: no finite bound"
    D_tilde = float(np.max(np.linalg.norm(X, axis=1))) + reach
    tilt = (ny**2 + b**2) / ny**2
    bound = tilt * (D_tilde**2 + 1.0) / (d - reach) ** 2
    return mistakes <= bound, f"{mistakes} mistakes, bound {bound:.6g}"


def gradsmm_promise(metrics) -> tuple[bool, str]:
    """Averaged-gradient learner: quiet tail, fading manipulation, closing in.

    With H = T/2: no mistakes after step H, fewer manipulations in the last
    H steps than in the first H, and a smaller normalized distance to the
    benchmark at step T than at step H.
    """
    T = len(metrics.t)
    H = T // 2
    tail_mistakes = sum(metrics.mistake[H:])
    head_manip = sum(metrics.manipulated[:H])
    tail_manip = sum(metrics.manipulated[H:])
    d_mid, d_end = metrics.distance[H - 1], metrics.distance[-1]
    ok = (
        tail_mistakes == 0
        and tail_manip < head_manip
        and d_mid is not None
        and d_end is not None
        and d_end < d_mid
    )
    return ok, (
        f"tail mistakes {tail_mistakes}; manipulations head {head_manip} tail {tail_manip}; "
        f"distance {d_mid} -> {d_end}"
    )


def csv_roundtrip(written, read) -> tuple[bool, str]:
    """Every column read back equals the one written, bit for bit."""
    for col in _COLUMNS:
        a, b = getattr(written, col), getattr(read, col)
        if len(a) != len(b) or any(u != v for u, v in zip(a, b)):
            return False, f"column {col} differs"
    return True, f"{len(written.t)} rows identical"


def trace_digest(metrics) -> str:
    """Digest of the mistake and manipulation traces and the solve count."""
    h = hashlib.sha256()
    h.update(np.asarray(metrics.mistake, dtype=np.uint8).tobytes())
    h.update(np.asarray(metrics.manipulated, dtype=np.uint8).tobytes())
    h.update(str(metrics.solve_count).encode())
    return h.hexdigest()[:16]


def output_digest(metrics) -> str:
    """Digest of everything a run outputs: every column, counters, final classifier."""
    h = hashlib.sha256()
    for col in _COLUMNS:
        h.update(repr(getattr(metrics, col)).encode())
    extra = (metrics.init_steps, metrics.init_mistakes, metrics.solve_count, metrics.inseparable_at)
    h.update(repr(extra).encode())
    if metrics.final_y is not None:
        h.update(np.asarray(metrics.final_y, dtype=float).tobytes())
    h.update(repr(metrics.final_b).encode())
    return h.hexdigest()[:16]

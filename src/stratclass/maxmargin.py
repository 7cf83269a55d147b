"""Maximum-margin separation of two growing point clouds.

The learners repeatedly need the classifier maximizing

    h(y, b) = min( min_{x in P} (y.x + b),  min_{x in N} (-y.x - b) )

over the dual-norm ball ``||y||_* <= 1``.  For the Euclidean cost norm the
optimum reduces exactly to the nearest pair of points between the two
convex hulls: the optimal direction is the unit vector along that pair,
the margin is half its length, and the intercept centers it.  That
reduction is solved here with Wolfe's nearest-point method on the
Minkowski difference of the hulls, certified by the Frank-Wolfe duality
gap; it hands back convex-combination witnesses suitable for warm starts
as the clouds grow.  Every other norm is solved as a linear program.  The
dual ball of a polyhedral norm (l1, wl1, linf) is exact in it, so one LP
answers.  An lp norm's curved ball is approached by Kelley cutting planes,
which carry over to the next solve.  Either way the answer is certified: the
margin achieved by ``(y, b)`` and half the cost-norm distance between two
hull points named by convex weights are within ``SOLVE_TOL`` of each
other, or the solver raises ``SolverError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .norms import (
    EPS_GEOM,
    CostModel,
    dual_norm_eval,
    manipulation_direction,
    norm_eval,
    norming_functional,
)
from .response import _score

# Certificate tolerance of every margin solve a run makes.
SOLVE_TOL = 1e-10

# Declare the clouds inseparable when the achievable margin is this many
# solver tolerances or less.
_INSEPARABLE_FACTOR = 10.0

# LP solves (one per cutting-plane round) before a non-l2 solve gives up,
# and Wolfe major cycles before an l2 solve does.
_MAX_CUT_ROUNDS = 200
_MAX_WOLFE_CYCLES = 1_000
# HiGHS options, as ``scipy.optimize.linprog(method="highs")`` sets them:
# presolve on and the dual simplex (strategy 1), silent, and the tightest
# feasibility tolerances HiGHS accepts.  At its 1e-7 default it takes a cut
# violated by less for satisfied, and lp-norm rounds repeat the same optimum
# short of a 1e-10 certificate.  Every other option keeps its HiGHS default.
_LP_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": 1,
    "output_flag": False,
    "log_to_console": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# Newton steps per lp-norm polish, and the Newton decrement, relative to the
# objective, below which the polish counts as converged.
_MAX_POLISH_STEPS = 50
_POLISH_DECREMENT = 1e-30


class SolverError(RuntimeError):
    """Raised when a max-margin solve cannot certify its answer to ``SOLVE_TOL``."""


class PointSetPair:
    """Positive and negative point clouds, each a set of distinct rows.

    A row is stored the first time it is seen with its label and never
    again, so indices follow first-occurrence order and stay valid as the
    clouds grow; a warm start, a witness index or a first-index
    ``argmin``/``argmax`` tie picks the same point it would pick if every
    repeat were stored.  Rows are keyed by their bytes.  Backed by doubling
    arrays; ``positives``/``negatives`` are views, so callers must not hold
    them across appends.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows = {1: np.empty((8, dim)), -1: np.empty((8, dim))}
        self._index: dict[int, dict[bytes, int]] = {1: {}, -1: {}}
        self._key = np.dtype((np.void, 8 * dim))  # a row's bytes as one scalar

    @classmethod
    def from_arrays(cls, positives, negatives) -> "PointSetPair":
        positives = np.atleast_2d(np.asarray(positives, dtype=float))
        negatives = np.atleast_2d(np.asarray(negatives, dtype=float))
        if positives.shape[1] != negatives.shape[1]:
            raise ValueError("positive and negative points disagree on dimension")
        pair = cls(positives.shape[1])
        pair.add(positives, 1)
        pair.add(negatives, -1)
        return pair

    @property
    def positives(self) -> np.ndarray:
        return self._rows[1][: self.n_pos]

    @property
    def negatives(self) -> np.ndarray:
        return self._rows[-1][: self.n_neg]

    @property
    def n_pos(self) -> int:
        return len(self._index[1])

    @property
    def n_neg(self) -> int:
        return len(self._index[-1])

    def add(self, rows, labels) -> None:
        """Store each row of ``rows`` under its label unless that label already holds it.

        ``labels`` gives one label per row, or one for the whole block.  The
        block is keyed through one void-dtype view; within a label, rows are
        stored in the order they first occur.
        """
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"expected rows of shape (k, {self.dim}), got {rows.shape}")
        labels = np.asarray(labels)
        labels = labels.tolist() if labels.ndim else [labels.item()] * len(rows)
        if len(labels) != len(rows):
            raise ValueError(f"expected {len(rows)} labels, got {len(labels)}")
        kinds = set(labels)
        if not kinds <= {1, -1}:
            raise ValueError(f"label must be +1 or -1, got {(kinds - {1, -1}).pop()}")
        keys = rows.view(self._key).ravel().tolist()
        for label in kinds:
            index = self._index[label]
            mine = keys if len(kinds) == 1 else [key for key, lab in zip(keys, labels) if lab == label]
            fresh = [key for key in dict.fromkeys(mine) if key not in index]  # in block order
            if not fresh:
                continue
            n, k = len(index), len(fresh)
            stored = self._rows[label]
            if n + k > stored.shape[0]:
                grown = np.empty((max(2 * stored.shape[0], n + k), self.dim))
                grown[:n] = stored[:n]
                stored = self._rows[label] = grown
            stored[n : n + k] = np.frombuffer(b"".join(fresh), dtype=float).reshape(k, self.dim)
            index.update(zip(fresh, range(n, n + k)))


def _min(v: np.ndarray) -> float:
    """``v.min()`` bit for bit, read at the cheaper ``v.argmin()``; a zero may be +0 or -0: ``min`` decides."""
    m = v[v.argmin()]
    return float(v.min() if m == 0.0 else m)


def _max(v: np.ndarray) -> float:
    """``v.max()`` bit for bit, read at the cheaper ``v.argmax()``; a zero may be +0 or -0: ``max`` decides."""
    m = v[v.argmax()]
    return float(v.max() if m == 0.0 else m)


def margin_h(y, b: float, sets: PointSetPair) -> float:
    """Evaluate the concave margin objective h(y, b) on the point pair."""
    if sets.n_pos == 0 or sets.n_neg == 0:
        raise ValueError("margin_h requires at least one point of each label")
    y = np.asarray(y, dtype=float)
    return min(_min(sets.positives.dot(y)) + b, -_max(sets.negatives.dot(y)) - b)


@dataclass(eq=False)
class NearestPoints:
    """Closest pair between the convex hulls, with its convex certificates.

    ``weights`` is a pair of dictionaries mapping vertex indices in the
    positive/negative clouds to convex coefficients (each summing to one);
    ``gap`` is the final Frank-Wolfe gap on the squared distance
    objective; ``iterations`` counts Wolfe major cycles.
    """

    x_plus: np.ndarray
    x_minus: np.ndarray
    gap: float
    weights: tuple[dict[int, float], dict[int, float]]
    iterations: int


def _combination(weights, P, N):
    wp, wn = weights
    x_plus = np.zeros(P.shape[1])
    for i, w in wp.items():
        x_plus += w * P[i]
    x_minus = np.zeros(N.shape[1])
    for j, w in wn.items():
        x_minus += w * N[j]
    return x_plus, x_minus


def _clean_weights(raw: dict[int, float], limit: int) -> dict[int, float]:
    out = {int(i): w for i, w in raw.items() if w > 0.0 and 0 <= i < limit}
    if not out:
        return {0: 1.0}
    total = sum(out.values())
    return {i: w / total for i, w in out.items()}


def _affine_polish(wp, wn, P, N):
    """Wolfe's minor cycles: minimize over the affine hulls of the active vertices.

    With ``p0``/``n0`` the first active vertex of each hull, the affine
    minimizer solves ``[(P[S+] - p0)^T, -(N[S-] - n0)^T] (a, b) ~ n0 - p0`` in
    the least-squares sense, on the edge vectors themselves (their Gram
    matrix would square the condition number), and has convex weights
    ``(1 - sum a, a)`` and ``(1 - sum b, b)``.  While some of them are
    negative, the iterate walks toward the minimizer until a weight hits
    zero, and that vertex leaves the active set.  Never increases the
    objective.
    """
    idx_p = list(wp)
    idx_n = list(wn)
    v = np.array([wp[i] for i in idx_p] + [wn[j] for j in idx_n])
    for _ in range(len(v)):
        m1 = len(idx_p)
        p0 = P[idx_p[0]]
        n0 = N[idx_n[0]]
        edges = np.hstack([(P[idx_p[1:]] - p0).T, -(N[idx_n[1:]] - n0).T])
        ab = np.linalg.lstsq(edges, n0 - p0, rcond=None)[0]
        a, b = ab[: m1 - 1], ab[m1 - 1 :]
        v_aff = np.concatenate([[1.0 - a.sum()], a, [1.0 - b.sum()], b])
        if np.all(v_aff >= -1e-12):
            v = np.clip(v_aff, 0.0, None)
            break
        neg = np.flatnonzero(v_aff < -1e-12)
        ratios = v[neg] / (v[neg] - v_aff[neg])
        theta = float(ratios.min())
        v = np.clip((1.0 - theta) * v + theta * v_aff, 0.0, None)
        v[neg[np.argmin(ratios)]] = 0.0  # exactly, whatever the rounding
        keep = v > 0.0
        if not keep[:m1].any() or not keep[m1:].any():
            break
        idx_p = [i for i, k in zip(idx_p, keep[:m1]) if k]
        idx_n = [j for j, k in zip(idx_n, keep[m1:]) if k]
        v = v[keep]
    m1 = len(idx_p)
    alpha, beta = v[:m1], v[m1:]
    u_old = np.subtract(*_combination((wp, wn), P, N))
    if alpha.sum() <= 0.0 or beta.sum() <= 0.0:
        return wp, wn, u_old
    new_wp = {i: w for i, w in zip(idx_p, alpha / alpha.sum()) if w > 0.0}
    new_wn = {j: w for j, w in zip(idx_n, beta / beta.sum()) if w > 0.0}
    u_new = np.subtract(*_combination((new_wp, new_wn), P, N))
    if float(u_new @ u_new) > float(u_old @ u_old):
        return wp, wn, u_old
    return new_wp, new_wn, u_new


def nearest_points_convex_hulls(
    sets: PointSetPair,
    warm: tuple[dict[int, float], dict[int, float]] | None = None,
) -> NearestPoints:
    """Minimize ``||x_plus - x_minus||_2`` over the two convex hulls.

    Wolfe's method (Wolfe 1976, *Finding the nearest point in a polytope*)
    on the Minkowski difference of the hulls.  Each major cycle takes an
    exact-line-search Frank-Wolfe step toward the supporting vertex pair
    ``(argmin P.u, argmax N.u)``, which joins the active sets, and then
    minimizes over the active vertices exactly (``_affine_polish``).
    Terminates when the Frank-Wolfe gap on the squared distance certifies
    the distance to within ``SOLVE_TOL`` (``gap <= 2 SOLVE_TOL ||u||``), or
    the iterate's length itself drops to ``SOLVE_TOL``, which means the hulls
    intersect to solver precision.  Warm starts reuse a previous weight
    pair; indices stay valid because clouds only grow.

    Raises SolverError if ``_MAX_WOLFE_CYCLES`` cycles pass before the
    certificate holds.
    """
    if sets.n_pos == 0 or sets.n_neg == 0:
        raise ValueError("nearest_points_convex_hulls requires nonempty clouds")
    P = sets.positives
    N = sets.negatives

    if warm:
        wp = _clean_weights(warm[0], sets.n_pos)
        wn = _clean_weights(warm[1], sets.n_neg)
    else:
        wp, wn = {0: 1.0}, {0: 1.0}
    u = np.subtract(*_combination((wp, wn), P, N))

    for it in range(_MAX_WOLFE_CYCLES):
        sp = P @ u
        sn = N @ u
        i_fw = int(np.argmin(sp))
        j_fw = int(np.argmax(sn))
        s_val = float(sp[i_fw] - sn[j_fw])
        usq = float(u @ u)
        gap = 2.0 * (usq - s_val)
        limit = 2.0 * SOLVE_TOL * math.sqrt(usq)
        d_vec = (P[i_fw] - N[j_fw]) - u
        denom = float(d_vec @ d_vec)
        # denom == 0: u is the supporting pair itself, so its gap is zero
        if math.sqrt(usq) <= SOLVE_TOL or gap <= limit or denom == 0.0:
            x_plus, x_minus = _combination((wp, wn), P, N)
            return NearestPoints(x_plus, x_minus, gap, (wp, wn), it)
        step = min(max((usq - s_val) / denom, 0.0), 1.0)
        keep = 1.0 - step
        wp = {i: w * keep for i, w in wp.items() if w * keep > 0.0}
        wn = {j: w * keep for j, w in wn.items() if w * keep > 0.0}
        wp[i_fw] = wp.get(i_fw, 0.0) + step
        wn[j_fw] = wn.get(j_fw, 0.0) + step
        wp, wn, u = _affine_polish(wp, wn, P, N)

    raise SolverError(
        f"nearest-point iteration cap {_MAX_WOLFE_CYCLES} reached with gap {gap:.3e} > "
        f"2*tol*||u|| = {limit:.3e} (tol {SOLVE_TOL:.3e})"
    )


@dataclass(frozen=True, eq=False)
class MarginSolution:
    """Solution of the max-margin problem over the dual-norm ball.

    ``support_weights`` are convex weights over the positive/negative
    cloud indices naming hull points ``x_plus``/``x_minus``; half their
    cost-norm distance bounds every margin from above, and ``gap`` is that
    bound minus the margin ``y`` achieves with its best intercept.  When
    separable, ``y`` has unit dual norm and ``d > 0``.  On the l2 path ``y``
    points along ``x_plus - x_minus``, ``b`` centers it between them and
    ``d`` is the bound; elsewhere ``d`` is the achieved margin and ``b`` the
    best intercept.  When not separable the classifier degenerates to
    (0, 0) with d = 0, and ``gap`` is the bound.  ``rounds`` counts the
    solve's LPs on the LP path, always 1 under a polyhedral norm, and its
    Wolfe major cycles on the l2 path.  ``cuts`` holds the rows ``v`` of
    every Kelley cut ``v.y <= 1`` in place at the end; only an lp norm has
    any.  Each has ``||v|| = 1``, so it holds on the whole dual-norm ball
    and a later solve can start from it.
    """

    y: np.ndarray
    b: float
    d: float
    x_plus: np.ndarray
    x_minus: np.ndarray
    separable: bool
    support_weights: tuple[dict[int, float], dict[int, float]]
    gap: float
    rounds: int
    cuts: np.ndarray


def solve_max_margin(
    sets: PointSetPair,
    m: CostModel,
    warm: MarginSolution | None = None,
) -> MarginSolution:
    """Maximize h(y, b) subject to ``||y||_* <= 1``.

    Every separable answer is certified, ``gap <= SOLVE_TOL``, or
    ``SolverError`` is raised.  ``warm`` is a previous solution under the same cost model
    over the same, possibly grown, clouds.  The Euclidean cost norm is
    solved through the nearest-points reduction, started from the warm
    solution's ``support_weights``; every other norm is solved as a linear
    program, in one LP under a polyhedral norm and with cutting planes
    under an lp norm, starting from the warm solution's ``cuts``.  When
    half the cost-norm distance between the hulls is at most ``10 *
    SOLVE_TOL`` the pair is reported as inseparable with the degenerate
    (0, 0) classifier.
    """
    if sets.n_pos == 0 or sets.n_neg == 0:
        raise ValueError("solve_max_margin requires at least one point of each label")
    if m.norm.kind == "l2":
        return _solve_l2(sets, warm.support_weights if warm else None)
    cuts = warm.cuts if warm else np.empty((0, sets.dim))
    return _solve_cutting_plane(sets, m, cuts)


def _inseparable(x_plus, x_minus, weights, upper: float, rounds: int, cuts) -> MarginSolution:
    return MarginSolution(
        y=np.zeros(len(x_plus)),
        b=0.0,
        d=0.0,
        x_plus=x_plus,
        x_minus=x_minus,
        separable=False,
        support_weights=weights,
        gap=upper,
        rounds=rounds,
        cuts=cuts,
    )


def _solve_l2(sets, warm) -> MarginSolution:
    res = nearest_points_convex_hulls(sets, warm=warm)
    u = res.x_plus - res.x_minus
    dist = float(np.linalg.norm(u))
    no_cuts = np.empty((0, sets.dim))
    if dist / 2.0 <= _INSEPARABLE_FACTOR * SOLVE_TOL:
        half = dist / 2.0
        return _inseparable(res.x_plus, res.x_minus, res.weights, half, res.iterations, no_cuts)
    y = u / dist
    return MarginSolution(
        y=y,
        b=float(-y @ (res.x_plus + res.x_minus) / 2.0),
        d=dist / 2.0,
        x_plus=res.x_plus,
        x_minus=res.x_minus,
        separable=True,
        support_weights=res.weights,
        # Frank-Wolfe gap on the squared distance, as half-distance minus achieved margin
        gap=res.gap / (4.0 * dist),
        rounds=res.iterations,
        cuts=no_cuts,
    )


def _lp_polish(alpha, beta, P, N, p: float):
    """Nearest points in the lp norm over the affine hulls of the weighted points.

    The lp counterpart of ``_affine_polish``: with ``p0``/``n0`` the first
    weighted point of each cloud and ``E`` the edge vectors from them,
    minimizes ``sum |u_i|^p`` over ``u = p0 - n0 + E z`` by Newton steps
    damped by backtracking, starting from the given weights.  Returns the
    minimizer's weights ``(alpha, beta)`` when they are convex, or ``None``
    when they are not, when there is nothing to move, or when the Hessian
    is not finite (p < 2 with a zero coordinate of ``u``).
    """
    idx_p = np.flatnonzero(alpha)
    idx_n = np.flatnonzero(beta)
    if len(idx_p) + len(idx_n) == 2:
        return None
    scale = float(np.max(np.abs(alpha @ P - beta @ N)))
    if scale == 0.0:
        return None
    p0, n0 = P[idx_p[0]], N[idx_n[0]]
    base = (p0 - n0) / scale
    E = np.hstack([(P[idx_p[1:]] - p0).T, -(N[idx_n[1:]] - n0).T]) / scale
    z = np.concatenate([alpha[idx_p[1:]], beta[idx_n[1:]]])
    u = base + E @ z
    f = float(np.sum(np.abs(u) ** p))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_POLISH_STEPS):
            a = np.abs(u)
            curv = p * (p - 1.0) * a ** (p - 2.0)
            if not np.all(np.isfinite(curv)):
                return None
            grad = E.T @ (p * a ** (p - 1.0) * np.sign(u))
            step = -np.linalg.lstsq((E.T * curv) @ E, grad, rcond=None)[0]
            decrement = -float(grad @ step)
            if not decrement > _POLISH_DECREMENT * f:
                break
            t = 1.0
            while True:
                u_new = base + E @ (z + t * step)
                f_new = float(np.sum(np.abs(u_new) ** p))
                if f_new <= f - 0.25 * t * decrement or t < 1e-6:
                    break
                t *= 0.5
            if not f_new < f:
                break
            z, u, f = z + t * step, u_new, f_new
    m1 = len(idx_p) - 1
    a_new = np.zeros(len(alpha))
    b_new = np.zeros(len(beta))
    a_new[idx_p[0]], a_new[idx_p[1:]] = 1.0 - z[:m1].sum(), z[:m1]
    b_new[idx_n[0]], b_new[idx_n[1:]] = 1.0 - z[m1:].sum(), z[m1:]
    if min(a_new.min(), b_new.min()) < -1e-12:
        return None
    a_new = np.clip(a_new, 0.0, None)
    b_new = np.clip(b_new, 0.0, None)
    return a_new / a_new.sum(), b_new / b_new.sum()


@functools.cache
def _highs():
    """scipy's bundled HiGHS bindings and the one ``_Highs`` instance, holding ``_LP_OPTIONS``.

    Loaded on the first non-l2 solve: ``scipy.optimize`` costs ~50 MB and
    ~0.35 s to import, and the l2 path never needs it.  Every LP of the
    process runs on this instance: building one costs about half of what
    solving a small LP does, and ``passModel`` clears the last LP's solution
    and basis, so each LP is solved as on a new instance.  The package is
    single-threaded; the instance is not shared across threads.
    """
    from scipy.optimize._highspy import _core

    options = _core.HighsOptions()
    for name, value in _LP_OPTIONS.items():
        setattr(options, name, value)
    highs = _core._Highs()
    highs.passOptions(options)
    return _core, highs


def _highs_lp(cost, A_ub, b_ub, lower, upper):
    """``min cost.x`` s.t. ``A_ub x <= b_ub`` and ``lower <= x <= upper``, by HiGHS.

    Returns the optimal ``x`` and the row duals.  Passes HiGHS the LP that
    ``linprog(cost, A_ub, b_ub, bounds, method="highs", options=...)`` builds,
    columns and rows in order, ``A_ub`` in compressed columns without its
    zeros, and the same options, so both answers agree bit for bit.  Raises
    ``SolverError`` with HiGHS's model status unless the LP is solved to
    optimality.
    """
    core, highs = _highs()
    n_rows, n_cols = A_ub.shape
    columns = A_ub.T
    nonzero = columns != 0.0
    lp = core.HighsLp()
    lp.num_col_, lp.num_row_ = n_cols, n_rows
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lower, upper
    lp.row_lower_, lp.row_upper_ = np.full(n_rows, -np.inf), b_ub
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n_cols, n_rows
    start = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(nonzero.sum(axis=1), out=start[1:])
    matrix.start_ = start
    matrix.index_ = np.nonzero(nonzero)[1]
    matrix.value_ = columns[nonzero]
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        status = highs.modelStatusToString(status)
        raise SolverError(f"max-margin LP failed: HiGHS model status is {status}")
    solution = highs.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)


@functools.cache
def _columns(norm, dim: int):
    """Cost and column bounds of the max-margin LP: minimize ``-t``, with ``b`` and ``t`` free.

    Under linf the columns are ``(y+, y-, b, t)``, with ``y = y+ - y-`` and
    ``y+, y- >= 0``; under every other norm they are ``(y, b, t)``, with
    ``|y_i| <= ||e_i||``.
    """
    if norm.kind == "linf":
        lower = np.concatenate([np.zeros(2 * dim), [-np.inf, -np.inf]])
        upper = np.full(2 * dim + 2, np.inf)
    else:
        half = [norm_eval(norm, e) for e in np.eye(dim)]
        lower = np.concatenate([np.negative(half), [-np.inf, -np.inf]])
        upper = np.concatenate([half, [np.inf, np.inf]])
    cost = np.zeros(len(lower))
    cost[-1] = -1.0
    for column in (cost, lower, upper):
        column.flags.writeable = False
    return cost, lower, upper


def _solve_cutting_plane(sets: PointSetPair, m: CostModel, cuts) -> MarginSolution:
    """Max-margin under a non-Euclidean cost norm, certified by LP duality.

    Solves ``max t`` over ``(y, b, t)`` subject to ``p.y + b >= t`` on the
    positives and ``-(n.y + b) >= t`` on the negatives, with ``y`` in the
    dual-norm ball or, under an lp norm, in an outer polyhedron of it.  The
    ball of a polyhedral norm is exact: under l1 and wl1 it is the box
    ``|y_i| <= ||e_i||``; under linf it is the l1 ball, written with split
    columns ``y = y+ - y-``, ``y+, y- >= 0``, and the one row
    ``sum(y+ + y-) <= 1``.  Under an lp norm the polyhedron is that box,
    the Kelley cuts ``v.y <= 1`` in ``cuts`` (rows of unit cost norm, valid
    on the whole ball whatever the clouds), and one more cut with ``v =
    manipulation_direction(y)`` for each LP optimum that leaves the ball
    (Kelley 1960, *The cutting-plane method for solving convex programs*).
    By arbitrary-norm duality (Mangasarian 1999, *Arbitrary-norm separating
    plane*) the margin is half the cost-norm distance between the hulls, so
    the LP's point-row duals, normalized to hull weights, bound it from
    above whatever cuts are in place.  Under an lp norm those weights are
    first polished to the nearest points of the affine hulls they span
    (``_lp_polish``), which are the exact nearest points once the LP has
    found the support points.  Two directions are then tested against that
    bound: the LP's ``y/||y||_*`` and the norming functional of ``x_plus -
    x_minus``, the optimal direction when those points are the nearest ones.
    Returns the first whose achieved margin is within ``SOLVE_TOL`` of the
    bound.  Each LP is solved by HiGHS's dual simplex (``_highs_lp``).

    Raises ``SolverError`` when neither direction certifies: at once under a
    polyhedral norm, whose LP has no cut to add; under an lp norm when the
    next LP would repeat this one, because its optimum already lies in the
    ball or its cut is already in place (HiGHS took the violation, below its
    feasibility tolerance, for satisfied), or after ``_MAX_CUT_ROUNDS`` LPs.
    Each message reports the bound minus the larger margin of the two
    directions.
    """
    P = sets.positives
    N = sets.negatives
    dim, n_pos, n_rows = sets.dim, sets.n_pos, sets.n_pos + sets.n_neg
    sign = np.concatenate([-np.ones(n_pos), np.ones(sets.n_neg)])[:, None]  # -1 on positives
    points = sign * np.vstack([P, N])
    rhs = np.zeros(n_rows)
    if m.norm.kind == "linf":
        l1_row = np.concatenate([np.ones(2 * dim), [0.0, 0.0]])
        rows = np.vstack([np.hstack([points, -points, sign, np.ones((n_rows, 1))]), l1_row])
        rhs = np.concatenate([rhs, [1.0]])
    else:
        rows = np.hstack([points, sign, np.ones((n_rows, 1))])
    cost, col_lower, col_upper = _columns(m.norm, dim)
    for rounds in range(1, _MAX_CUT_ROUNDS + 1):
        A_ub, b_ub = rows, rhs
        if len(cuts):
            A_ub = np.vstack([rows, np.hstack([cuts, np.zeros((len(cuts), 2))])])
            b_ub = np.concatenate([rhs, np.ones(len(cuts))])
        x, row_duals = _highs_lp(cost, A_ub, b_ub, col_lower, col_upper)
        duals = np.maximum(-row_duals[:n_rows], 0.0)
        alpha = duals[:n_pos] / duals[:n_pos].sum()
        beta = duals[n_pos:] / duals[n_pos:].sum()
        if m.norm.kind == "lp":
            alpha, beta = _lp_polish(alpha, beta, P, N, m.norm.p) or (alpha, beta)
        weights = (
            {i: float(w) for i, w in enumerate(alpha) if w > 0.0},
            {j: float(w) for j, w in enumerate(beta) if w > 0.0},
        )
        x_plus, x_minus = alpha @ P, beta @ N
        upper = 0.5 * norm_eval(m, x_plus - x_minus)
        if upper <= _INSEPARABLE_FACTOR * SOLVE_TOL:
            return _inseparable(x_plus, x_minus, weights, upper, rounds, cuts)
        y = x[:dim] - x[dim : 2 * dim] if m.norm.kind == "linf" else x[:dim]
        best = -math.inf  # the larger margin the two directions achieve
        for direction in (y, norming_functional(m, x_plus - x_minus)):
            y_hat = direction / dual_norm_eval(m, direction)
            lo = float(np.min(P @ y_hat))
            hi = float(np.max(N @ y_hat))
            lower = 0.5 * (lo - hi)
            best = max(best, lower)
            if upper - lower <= SOLVE_TOL:
                return MarginSolution(
                    y=y_hat,
                    b=-0.5 * (lo + hi),
                    d=lower,
                    x_plus=x_plus,
                    x_minus=x_minus,
                    separable=True,
                    support_weights=weights,
                    gap=upper - lower,
                    rounds=rounds,
                    cuts=cuts,
                )
        if m.norm.kind != "lp":
            raise SolverError(
                f"max-margin LP holds the whole {m.norm.kind} dual ball but did not certify: "
                f"gap {upper - best:.3e} > tol {SOLVE_TOL:.3e}"
            )
        v = manipulation_direction(m, y)
        # y in the ball, or a cut HiGHS took for satisfied: every later LP would repeat this one
        if float(v @ y) <= 1.0 or (cuts == v).all(axis=1).any():
            raise SolverError(
                f"max-margin cutting planes stalled at LP {rounds}: the next LP would repeat it "
                f"(v.y - 1 = {float(v @ y) - 1.0:.3e}), with gap {upper - best:.3e} > tol {SOLVE_TOL:.3e}"
            )
        cuts = np.vstack([cuts, v])
    raise SolverError(
        f"max-margin cutting planes hit the {_MAX_CUT_ROUNDS}-round cap with gap "
        f"{upper - best:.3e} > tol {SOLVE_TOL:.3e}"
    )


def incremental_check(sol: MarginSolution, points, labels) -> int:
    """How many leading rows of ``points`` leave the cached solution optimal.

    A row does iff it already clears the cached margin under its label, in
    which case the optimum of the enlarged problem is unchanged and the
    re-solve can be skipped; a small slack avoids re-solving on float-level
    ties.  Each row is scored by :func:`response._score`, so its verdict does
    not depend on the rows beside it.
    """
    clears = labels * (_score(points, sol.y) + sol.b) >= sol.d - EPS_GEOM
    return len(clears) if clears.all() else int(clears.argmin())

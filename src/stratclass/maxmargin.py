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
as the clouds grow.  Other norms get a best-effort projected supergradient
ascent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .norms import EPS_GEOM, CostModel, dual_norm_eval

logger = logging.getLogger(__name__)

# Declare the clouds inseparable when the achievable margin is this many
# solver tolerances or less.
_INSEPARABLE_FACTOR = 10.0


class SolverError(RuntimeError):
    """Raised when an exact solve fails to converge within the iteration cap."""


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

    @classmethod
    def from_arrays(cls, positives, negatives) -> "PointSetPair":
        positives = np.atleast_2d(np.asarray(positives, dtype=float))
        negatives = np.atleast_2d(np.asarray(negatives, dtype=float))
        if positives.shape[1] != negatives.shape[1]:
            raise ValueError("positive and negative points disagree on dimension")
        dim = positives.shape[1]
        pair = cls(dim)
        row_bytes = np.dtype((np.void, 8 * dim))
        for label, X in ((1, positives), (-1, negatives)):
            keys = np.ascontiguousarray(X).view(row_bytes).ravel().tolist()
            first = dict.fromkeys(keys)  # first occurrences, in input order
            pair._index[label] = dict(zip(first, range(len(first))))
            rows = np.frombuffer(b"".join(first), dtype=float)
            pair._rows[label] = rows.reshape(-1, dim).copy()
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

    def add(self, x, label: int) -> None:
        """Store ``x`` under ``label`` unless that label already holds it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {x.shape}")
        if label not in (1, -1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        index = self._index[label]
        key = x.tobytes()
        if key in index:
            return
        n = len(index)
        rows = self._rows[label]
        if n == rows.shape[0]:
            rows = self._rows[label] = np.vstack([rows, np.empty((max(n, 8), self.dim))])
        rows[n] = x
        index[key] = n


def margin_h(y, b: float, sets: PointSetPair) -> float:
    """Evaluate the concave margin objective h(y, b) on the point pair."""
    if sets.n_pos == 0 or sets.n_neg == 0:
        raise ValueError("margin_h requires at least one point of each label")
    y = np.asarray(y, dtype=float)
    return float(min(np.min(sets.positives @ y) + b, -np.max(sets.negatives @ y) - b))


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
    tol: float = 1e-10,
    max_iter: int = 1_000,
    warm: tuple[dict[int, float], dict[int, float]] | None = None,
) -> NearestPoints:
    """Minimize ``||x_plus - x_minus||_2`` over the two convex hulls.

    Wolfe's method (Wolfe 1976, *Finding the nearest point in a polytope*)
    on the Minkowski difference of the hulls.  Each major cycle takes an
    exact-line-search Frank-Wolfe step toward the supporting vertex pair
    ``(argmin P.u, argmax N.u)``, which joins the active sets, and then
    minimizes over the active vertices exactly (``_affine_polish``).
    Terminates when the Frank-Wolfe gap on the squared distance certifies
    the distance to within ``tol`` (``gap <= 2 tol ||u||``), or the
    iterate's length itself drops to ``tol``, which means the hulls
    intersect to solver precision.  Warm starts reuse a previous weight
    pair; indices stay valid because clouds only grow.

    Raises SolverError if the cap is hit before the certificate holds.
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

    for it in range(max_iter):
        sp = P @ u
        sn = N @ u
        i_fw = int(np.argmin(sp))
        j_fw = int(np.argmax(sn))
        s_val = float(sp[i_fw] - sn[j_fw])
        usq = float(u @ u)
        gap = 2.0 * (usq - s_val)
        limit = 2.0 * tol * math.sqrt(usq)
        d_vec = (P[i_fw] - N[j_fw]) - u
        denom = float(d_vec @ d_vec)
        # denom == 0: u is the supporting pair itself, so its gap is zero
        if math.sqrt(usq) <= tol or gap <= limit or denom == 0.0:
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
        f"nearest-point iteration cap {max_iter} reached with gap {gap:.3e} > "
        f"2*tol*||u|| = {limit:.3e} (tol {tol:.3e})"
    )


@dataclass(frozen=True, eq=False)
class MarginSolution:
    """Solution of the max-margin problem over the dual-norm ball.

    When separable, ``y`` has unit dual norm, ``d > 0`` is the achieved
    margin, and the witnesses satisfy ``d = ||x_plus - x_minus|| / 2``,
    ``b = -y.(x_plus + x_minus)/2`` and ``y.(x_plus - x_minus) =
    ||x_plus - x_minus|| ||y||_*`` on the exact (l2) path.  When not
    separable the classifier degenerates to (0, 0) with d = 0.
    """

    y: np.ndarray
    b: float
    d: float
    x_plus: np.ndarray
    x_minus: np.ndarray
    separable: bool
    support_weights: tuple[dict[int, float], dict[int, float]] | None = None
    gap: float = 0.0
    converged: bool = True


def solve_max_margin(
    sets: PointSetPair,
    m: CostModel,
    tol: float = 1e-10,
    warm: tuple[dict[int, float], dict[int, float]] | None = None,
) -> MarginSolution:
    """Maximize h(y, b) subject to ``||y||_* <= 1``.

    The Euclidean cost norm is solved exactly through the nearest-points
    reduction; every other norm runs a projected supergradient ascent with
    dual-norm renormalization (best effort: the returned margin is a lower
    bound on the optimum, within ten tolerances of it on well-conditioned
    instances).  A margin at or below ``10 * tol`` is reported as
    inseparable with the degenerate (0, 0) classifier.
    """
    if sets.n_pos == 0 or sets.n_neg == 0:
        raise ValueError("solve_max_margin requires at least one point of each label")
    if m.norm.kind == "l2":
        return _solve_l2(sets, tol, warm)
    # ascent cannot certify tighter than ~1e-8 in double precision
    return _solve_subgradient(sets, m, max(tol, 1e-8))


def _inseparable(
    sets: PointSetPair, res: NearestPoints | None = None, converged: bool = True
) -> MarginSolution:
    dim = sets.dim
    return MarginSolution(
        y=np.zeros(dim),
        b=0.0,
        d=0.0,
        x_plus=res.x_plus if res is not None else sets.positives[0].copy(),
        x_minus=res.x_minus if res is not None else sets.negatives[0].copy(),
        separable=False,
        support_weights=res.weights if res is not None else None,
        gap=res.gap if res is not None else 0.0,
        converged=converged,
    )


def _solve_l2(sets, tol, warm) -> MarginSolution:
    res = nearest_points_convex_hulls(sets, tol=tol, warm=warm)
    u = res.x_plus - res.x_minus
    dist = float(np.linalg.norm(u))
    if dist / 2.0 <= _INSEPARABLE_FACTOR * tol:
        return _inseparable(sets, res)
    y = u / dist
    return MarginSolution(
        y=y,
        b=float(-y @ (res.x_plus + res.x_minus) / 2.0),
        d=dist / 2.0,
        x_plus=res.x_plus,
        x_minus=res.x_minus,
        separable=True,
        support_weights=res.weights,
        gap=res.gap,
    )


def _solve_subgradient(
    sets: PointSetPair,
    m: CostModel,
    tol: float,
    max_iter: int = 100_000,
    epoch_len: int = 250,
    patience: int = 12,
) -> MarginSolution:
    """Projected supergradient ascent over the dual-norm ball.

    Fixed step within an epoch; an epoch that fails to improve the best
    objective by ``tol`` halves the step and restarts from the incumbent.
    Terminates on a step-size floor or after ``patience`` stalled epochs.
    """
    P = sets.positives
    N = sets.negatives
    scale = max(float(np.max(np.linalg.norm(P, axis=1))), float(np.max(np.linalg.norm(N, axis=1))), 1e-12)
    step0 = 1.0 / scale

    y = np.mean(P, axis=0) - np.mean(N, axis=0)
    dn = dual_norm_eval(m, y)
    if dn <= 1e-15:
        y = np.zeros(sets.dim)
        y[0] = 1.0
        dn = dual_norm_eval(m, y)
    y = y / dn

    def objective(yv):
        return 0.5 * (float(np.min(P @ yv)) - float(np.max(N @ yv)))

    best_val = objective(y)
    best_y = y.copy()
    step = step0
    stalled = 0
    total = 0
    converged = True
    while total < max_iter:
        epoch_best = best_val
        for _ in range(epoch_len):
            mp = P @ y
            mn = N @ y
            i = int(np.argmin(mp))
            j = int(np.argmax(mn))
            val = 0.5 * (mp[i] - mn[j])
            if val > best_val:
                best_val = val
                best_y = y.copy()
            y = y + step * 0.5 * (P[i] - N[j])
            dn = dual_norm_eval(m, y)
            if dn > 1.0:
                y = y / dn
            total += 1
        if best_val > epoch_best + tol:
            stalled = 0
        else:
            stalled += 1
            step *= 0.5
            y = best_y.copy()
            if stalled >= patience or step < 1e-13 * step0:
                break
    else:
        converged = False
        logger.warning(
            "max-margin supergradient ascent hit the %d-iteration cap; "
            "returning best objective %.3e",
            max_iter,
            best_val,
        )

    y = best_y / dual_norm_eval(m, best_y)
    mp = P @ y
    mn = N @ y
    i = int(np.argmin(mp))
    j = int(np.argmax(mn))
    d = 0.5 * (mp[i] - mn[j])
    if d <= _INSEPARABLE_FACTOR * tol:
        return _inseparable(sets, converged=converged)
    return MarginSolution(
        y=y,
        b=float(-0.5 * (mp[i] + mn[j])),
        d=float(d),
        x_plus=P[i].copy(),
        x_minus=N[j].copy(),
        separable=True,
        support_weights=None,
        gap=np.nan,
        converged=converged,
    )


def incremental_check(sol: MarginSolution, point, label: int) -> bool:
    """Whether a freshly stored point leaves the cached solution optimal.

    True iff the point already clears the cached margin, in which case the
    optimum of the enlarged problem is unchanged and the re-solve can be
    skipped; a small slack avoids re-solving on float-level ties.
    """
    point = np.asarray(point, dtype=float)
    return label * (float(sol.y @ point) + sol.b) >= sol.d - EPS_GEOM

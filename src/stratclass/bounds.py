"""Mistake and manipulation certificates for the online learners.

The guarantees are geometric: they depend on the dataset only through a
handful of Euclidean radii, inflated by the manipulation reach ``2/c``
times the envelope constant of the cost norm, and on the benchmark margin
``d_*``.  Certificates that do not apply (margin not exceeding the reach,
or a cone hypothesis the benchmark violates) are reported as unbounded or
rejected — never silently computed.

The radii are exact and near-linear to measure: each half-diameter scans
pairs only among the points a triangle-inequality cut cannot rule out as
an endpoint of a farthest pair (see ``_half_diameter``), and returns the
full pairwise scan's value bit for bit.  Each set is measured about its
own centroid, so data far from the origin does not cancel the distances.
A ``Dataset`` measures its radii once; ``dataset_constants`` adds the cost model's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .learners import ConeKind
from .norms import CostModel, dual_norm_eval, l2_envelope_constant

if TYPE_CHECKING:
    from .data import Dataset


class HypothesisViolation(ValueError):
    """The benchmark does not satisfy the hypothesis a certificate assumes."""


@dataclass(frozen=True, eq=False)
class Benchmark:
    """Reference classifier with its margin on the true data."""

    y_star: np.ndarray
    b_star: float
    d_star: float

    def __post_init__(self):
        y_star = np.asarray(self.y_star, dtype=float)
        if not (np.isfinite(y_star).all() and y_star.any()):
            raise ValueError(f"benchmark direction must be a finite nonzero vector, got {y_star.tolist()}")
        if not (math.isfinite(self.b_star) and 0 < self.d_star < math.inf):
            raise ValueError(f"benchmark needs a finite intercept and a positive finite margin, "
                             f"got b_star = {self.b_star}, d_star = {self.d_star}")
        object.__setattr__(self, "y_star", y_star)

    @cached_property
    def l2_normalized(self) -> tuple[np.ndarray, float]:
        """``(y*, b*) / ||y*||_2``, computed once."""
        nstar = float(np.linalg.norm(self.y_star))
        return self.y_star / nstar, self.b_star / nstar


@dataclass(frozen=True)
class DatasetConstants:
    """Euclidean radii of the agent population and their reach-inflated forms.

    ``D`` bounds feature norms, ``D_pm`` half the diameter of all agents,
    ``D_plus``/``D_minus`` half the per-class diameters.  The tilde values
    add ``(2/c) * C`` — the farthest any proxy can sit from the true
    feature vector — and ``D_bar`` is the larger inflated class radius.
    """

    D: float
    D_pm: float
    D_plus: float
    D_minus: float
    C: float
    reach: float

    @property
    def D_tilde(self) -> float:
        return self.D + self.reach * self.C

    @property
    def D_tilde_pm(self) -> float:
        return self.D_pm + self.reach * self.C

    @property
    def D_tilde_plus(self) -> float:
        return self.D_plus + self.reach * self.C

    @property
    def D_tilde_minus(self) -> float:
        return self.D_minus + self.reach * self.C

    @property
    def D_bar(self) -> float:
        return max(self.D_tilde_plus, self.D_tilde_minus)


def _half_diameter(X: np.ndarray, chunk: int = 512) -> float:
    """Half the largest pairwise Euclidean distance (0 for < 2 points).

    The value is the full scan's, bit for bit: the largest entry of
    ``sq_i + sq_j - 2 X X^T``, computed in row chunks of ``chunk`` points.
    Only the rows that can hold that entry are scored, found in two steps.

    *Candidates.*  A double farthest-point sweep gives a pair at distance
    ``L``; with ``c`` the centroid and ``R`` the largest
    ``r_i = ||x_i - c||``, the triangle inequality puts both endpoints of
    any pair at least ``L`` apart at ``r_i >= L - R``.  Every evaluation of
    the kernel is within ``err = 8 (d + 2) eps max||x||^2`` of the true
    squared distance, so the pair holding the full scan's maximum is at
    least ``L - sqrt(2 err)`` long; the cut is lowered by twice that, which
    also covers the rounding of ``r``, ``R`` and ``L``.

    *Rows.*  The kernel over the candidates alone puts that pair within
    ``4 err`` of the candidates' maximum.  A matrix product rounds an entry
    differently depending on where it sits in the product, so the rows of
    such pairs are scored again from the full scan's own product for their
    chunk.  On points spread through a ball most points are cut and one or
    two chunk products rerun; on points on a sphere nothing is cut, and
    the scan over the candidates is the full scan.
    """
    n, d = X.shape
    if n < 2:
        return 0.0
    sq = np.einsum("ij,ij->i", X, X)
    r = np.linalg.norm(X - X.mean(axis=0), axis=1)
    a = int(np.argmax(np.linalg.norm(X - X[int(np.argmax(r))], axis=1)))
    L = float(np.max(np.linalg.norm(X - X[a], axis=1)))
    err = 8.0 * (d + 2) * np.finfo(float).eps * float(np.max(sq))
    cand = np.flatnonzero(r >= L - float(np.max(r)) - 2.0 * math.sqrt(2.0 * err))
    every = len(cand) == n
    Y, ysq = (X, sq) if every else (X[cand], sq[cand])
    row_best = np.empty(len(cand))
    for start in range(0, len(cand), chunk):
        d2 = ysq[start : start + chunk, None] + ysq[None, :] - 2.0 * Y[start : start + chunk] @ Y.T
        row_best[start : start + chunk] = np.max(d2, axis=1)
    if every:  # that was the full scan
        return 0.5 * math.sqrt(max(float(np.max(row_best)), 0.0))
    rows = cand[row_best >= np.max(row_best) - 4.0 * err]

    best = 0.0
    for start in np.unique(rows // chunk) * chunk:
        # the full scan's expression: (2 * block) @ X.T, same operands
        gram2 = 2.0 * X[start : start + chunk] @ X.T
        mine = rows[(rows >= start) & (rows < start + chunk)]
        d2 = sq[mine, None] + sq[None, :] - gram2[mine - start]
        best = max(best, float(np.max(d2)))
    return 0.5 * math.sqrt(max(best, 0.0))


def _centred_half_diameter(X: np.ndarray) -> float:
    """``_half_diameter`` of ``X`` moved to its own centroid.

    The kernel ``sq_i + sq_j - 2 x_i.x_j`` cancels when the points sit far
    from the origin compared with their spread; distances do not change
    under a shift, so the set is measured about its centroid instead.
    """
    return _half_diameter(X - X.mean(axis=0)) if len(X) else 0.0


def dataset_constants(dataset: Dataset, m: CostModel) -> DatasetConstants:
    """The population's radii, measured once per dataset, under the cost model's reach."""
    return DatasetConstants(*dataset.radii, C=l2_envelope_constant(m), reach=m.two_over_c)


def kappa_l2_upper(a: float, d_star: float, D_bar: float) -> float:
    """Closed-form bound on the per-event margin contraction factor.

    Valid for ``0 <= a < d_star`` and ``D_bar > 0``; strictly below 1, so
    each counted event shrinks the running margin geometrically.
    """
    if not (0 <= a < d_star):
        raise ValueError(f"contraction requires 0 <= a < d_star, got a={a}, d_star={d_star}")
    if not (D_bar > 0):
        raise ValueError(f"D_bar must be positive, got {D_bar}")
    return math.sqrt(max(1.0 - (d_star - a) ** 2 / (4.0 * D_bar**2), (d_star + a) / (2.0 * d_star)))


def _shrinkage_count(start: float, d_star: float, kappa: float) -> float:
    """Number of kappa-contractions taking ``start`` down to ``d_star``."""
    if start <= d_star:
        return 0.0
    return math.log(start / d_star) / math.log(1.0 / kappa)


def smm_mistake_bound(bench: Benchmark, consts: DatasetConstants) -> float:
    """Certificate on max-margin learner mistakes after initialization."""
    kappa = kappa_l2_upper(0.0, bench.d_star, consts.D_bar)
    return _shrinkage_count(consts.D_tilde_pm, bench.d_star, kappa)


def smm_manipulation_bounds(
    bench: Benchmark, consts: DatasetConstants, m: CostModel
) -> tuple[float, float]:
    """Certificates on negative- and positive-label manipulations.

    The positive-side certificate needs the benchmark margin to exceed the
    manipulation reach; otherwise agents may manipulate forever and the
    returned value is ``math.inf`` (rendered as "unbounded" in reports).
    """
    kappa_neg = kappa_l2_upper(0.0, bench.d_star, consts.D_bar)
    neg = _shrinkage_count(consts.D_tilde_pm, bench.d_star, kappa_neg)
    if bench.d_star > m.two_over_c:
        kappa_pos = kappa_l2_upper(m.two_over_c, bench.d_star, consts.D_bar)
        pos = _shrinkage_count(consts.D_tilde_pm, bench.d_star, kappa_pos)
    else:
        pos = math.inf
    return neg, pos


def perceptron_mistake_bound(
    bench: Benchmark,
    consts: DatasetConstants,
    m: CostModel,
    cone: ConeKind,
    tol: float = 1e-9,
) -> float:
    """Certificate on projected-perceptron mistakes for a hypothesis cone.

    The unrestricted cone pays the margin-minus-reach penalty and is
    unbounded when the reach eats the whole margin; the zero-intercept
    cone requires an (exactly) homogeneous Euclidean benchmark; the
    nonnegative-weights cone requires a nonnegative benchmark direction.
    Violated hypotheses raise :class:`HypothesisViolation`.
    """
    dual = dual_norm_eval(m, bench.y_star)
    tilt = (float(np.dot(bench.y_star, bench.y_star)) + bench.b_star**2) / dual**2
    energy = consts.D_tilde**2 + 1.0

    if cone is ConeKind.FULL:
        slack = bench.d_star - m.two_over_c
        if slack <= 0:
            return math.inf
        return tilt * energy / slack**2
    if cone is ConeKind.ZERO_INTERCEPT:
        if m.norm.kind != "l2":
            raise HypothesisViolation(
                "the zero-intercept certificate is only available for the l2 cost norm"
            )
        if abs(bench.b_star) > tol:
            raise HypothesisViolation(
                f"zero-intercept certificate requires b_star = 0, got {bench.b_star}"
            )
        return energy / bench.d_star**2
    if np.min(bench.y_star) < -tol:
        raise HypothesisViolation(
            "nonnegative-weights certificate requires a nonnegative benchmark direction"
        )
    return tilt * energy / bench.d_star**2

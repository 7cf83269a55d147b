"""Mistake and manipulation certificates for the online learners.

The guarantees are geometric: they depend on the dataset only through a
handful of Euclidean radii, inflated by the manipulation reach ``2/c``
times the envelope constant of the cost norm, and on the benchmark margin
``d_*``.  Certificates that do not apply (margin not exceeding the reach,
or a cone hypothesis the benchmark violates) are reported as unbounded or
rejected — never silently computed.

The radii are exact and near-linear to measure: a half-diameter is half
the largest pair's own sum of squared differences, scored only on the
pairs that a triangle-inequality cut and a Gram-kernel screen cannot rule
out (see ``_half_diameter``), and equals the full scan of every pair bit
for bit.  Each set is measured about its own centroid, so data far from
the origin does not cancel the screen.  A ``Dataset`` measures its radii
once; ``dataset_constants`` adds the cost model's.
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

_CHUNK = 512
_HYPOTHESIS_TOL = 1e-9


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


def _half_diameter(X: np.ndarray) -> float:
    """Half the largest pairwise Euclidean distance (0 for < 2 points).

    A pair's squared distance is its own sum ``sum_k (x_ik - x_jk)^2``,
    added along the row as ``response._score`` adds: it depends on no other
    row, no chunking and no BLAS blocking, and it does not cancel.  The
    value is its maximum over every pair, bit for bit, but only the pairs
    that can hold that maximum are scored, found in two steps.

    *Candidates.*  A double farthest-point sweep gives a pair at distance
    ``L``; with ``c`` the centroid and ``R`` the largest
    ``r_i = ||x_i - c||``, the triangle inequality puts both endpoints of
    any pair at least ``L`` apart at ``r_i >= L - R``.  Each kernel below
    is within ``err = 8 (d + 2) eps max||x||^2`` of the true squared
    distance, so the pair holding the maximum is at least
    ``L - sqrt(2 err)`` long; the cut is lowered by twice that, which also
    covers the rounding of ``r``, ``R`` and ``L``.  A repeated candidate row
    adds no new pair value, so only each row's first occurrence is kept.

    *Band.*  The Gram screen ``sq_i + sq_j - 2 x_i.x_j``, run over the
    candidates in row chunks of ``_CHUNK``, is within ``err`` of each true
    squared distance, and the pair kernel within ``err / 4`` (``d + 2``
    roundings of ``eps / 2`` on at most ``4 max||x||^2``).  The pair at the
    screen's maximum ``g`` scores at least ``g - 5 err / 4``, so the pair
    kernel's maximum sits on a pair screened at least ``g - 4 err``.  Each
    chunk rescores the pairs within ``4 err`` of the screen's running
    maximum, which is at most ``g``; each value rescored is a real pair's.
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
    Y = X[cand]
    first = np.sort(np.unique(Y.view(np.dtype((np.void, Y.itemsize * d))), return_index=True)[1])
    Y, ysq = Y[first], sq[cand[first]]
    top, best = -math.inf, 0.0
    for start in range(0, len(Y), _CHUNK):
        screen = ysq[start : start + _CHUNK, None] + ysq[None, :] - 2.0 * Y[start : start + _CHUNK] @ Y.T
        row_top = np.max(screen, axis=1)
        top = max(top, float(np.max(row_top)))
        floor = top - 4.0 * err
        for i in np.flatnonzero(row_top >= floor):
            far = Y[screen[i] >= floor] - Y[start + i]
            best = max(best, float(np.max(np.add.reduce(np.square(far), axis=-1))))
    return 0.5 * math.sqrt(best)


def _centred_half_diameter(X: np.ndarray) -> float:
    """``_half_diameter`` of ``X`` moved to its own centroid.

    The screen ``sq_i + sq_j - 2 x_i.x_j`` cancels when the points sit far
    from the origin compared with their spread, and its band then holds
    every pair; distances do not change under a shift, so the set is
    measured about its centroid instead.
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
    neg = smm_mistake_bound(bench, consts)  # the same contraction count
    if bench.d_star <= m.two_over_c:
        return neg, math.inf
    kappa_pos = kappa_l2_upper(m.two_over_c, bench.d_star, consts.D_bar)
    return neg, _shrinkage_count(consts.D_tilde_pm, bench.d_star, kappa_pos)


def perceptron_mistake_bound(
    bench: Benchmark,
    consts: DatasetConstants,
    m: CostModel,
    cone: ConeKind,
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
        if abs(bench.b_star) > _HYPOTHESIS_TOL:
            raise HypothesisViolation(
                f"zero-intercept certificate requires b_star = 0, got {bench.b_star}"
            )
        return energy / bench.d_star**2
    if np.min(bench.y_star) < -_HYPOTHESIS_TOL:
        raise HypothesisViolation(
            "nonnegative-weights certificate requires a nonnegative benchmark direction"
        )
    return tilt * energy / bench.d_star**2

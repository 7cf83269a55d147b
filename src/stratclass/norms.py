"""Cost norms, dual norms, and steepest manipulation directions.

Agents pay ``c * ||x - A||`` to move their features from ``A`` to ``x``,
so every geometric quantity in the package is parameterised by a norm and
the cost scale ``c``.  This module owns that parameterisation: primal and
dual norm evaluation, the unit-cost direction a rational agent moves
along, and the Euclidean envelope constant used by the certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Shared tolerance for geometric boundary tests (manipulation window edges,
# proxy pull-back trigger, incremental margin gate).
EPS_GEOM = 1e-9
_TINY = float(np.finfo(float).tiny)

_KINDS = ("l2", "l1", "linf", "lp", "wl1")


@dataclass(frozen=True)
class NormKind:
    """Tagged norm family: l2, l1, linf, lp (1 < p < inf), or weighted l1.

    ``p`` is set for the ``lp`` family only; ``weights`` (all positive and
    finite) for ``wl1`` only.
    """

    kind: str
    p: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "lp":
            if self.p is None or not (1.0 < self.p < math.inf):
                raise ValueError("lp norm requires finite p > 1")
        elif self.p is not None:
            raise ValueError(f"p is only meaningful for lp norms, got kind {self.kind!r}")
        if self.kind == "wl1":
            if not self.weights or not all(0.0 < w < math.inf for w in self.weights):
                raise ValueError(f"wl1 norm requires positive finite weights, got {self.weights}")
        elif self.weights is not None:
            raise ValueError(f"weights are only meaningful for wl1 norms, got kind {self.kind!r}")

    @property
    def strictly_convex(self) -> bool:
        """Whether the unit ball is strictly convex (unique maximizers)."""
        return self.kind in ("l2", "lp")

    def token(self) -> str:
        """Config-file token for this norm; :func:`parse_norm` inverts it exactly."""
        if self.kind == "lp":
            return f"lp:{float(self.p)!r}"
        if self.kind == "wl1":
            return "wl1:" + ",".join(repr(float(w)) for w in self.weights)
        return self.kind


L2 = NormKind("l2")
L1 = NormKind("l1")
LINF = NormKind("linf")


def parse_norm(token: str) -> NormKind:
    """Parse a norm token: ``l2``, ``l1``, ``linf``, ``lp:<p>``, ``wl1:<w1,...>``."""
    token = token.strip()
    if token in ("l2", "l1", "linf"):
        return NormKind(token)
    if token.startswith("lp:"):
        try:
            p = float(token[3:])
        except ValueError as exc:
            raise ValueError(f"bad lp token {token!r}") from exc
        return NormKind("lp", p=p)
    if token.startswith("wl1:"):
        try:
            weights = tuple(float(w) for w in token[4:].split(","))
        except ValueError as exc:
            raise ValueError(f"bad wl1 token {token!r}") from exc
        return NormKind("wl1", weights=weights)
    raise ValueError(f"unknown norm token {token!r}")


@dataclass(frozen=True)
class CostModel:
    """A cost norm together with the manipulation budget scale ``c > 0``.

    An agent can profitably move up to distance ``2/c`` (the value of a
    positive label is 2), so ``two_over_c`` is the manipulation reach.
    ``dim`` pins the ambient dimension so weighted norms can be validated
    once at construction.
    """

    norm: NormKind
    c: float
    dim: int

    def __post_init__(self):
        if not (self.c > 0):
            raise ValueError(f"cost scale c must be positive, got {self.c}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.norm.kind == "wl1" and len(self.norm.weights) != self.dim:
            raise ValueError(
                f"wl1 norm has {len(self.norm.weights)} weights but dim={self.dim}"
            )

    @property
    def two_over_c(self) -> float:
        return 2.0 / self.c


def l2_norm(x: np.ndarray) -> float:
    """Euclidean norm of a float array: ``np.linalg.norm(x)``, bit for bit, in range.

    numpy takes the square root of the flattened ``x.dot(x)``; ``vdot`` is
    the same product without the overflow warning.  When that sum of squares
    overflows, or falls below the normal range for a nonzero ``x``, the norm
    is ``s * ||x / s||`` with ``s = max|x|``, as LAPACK's ``dnrm2`` scales it.
    """
    x = x.ravel(order="K")
    sq = np.vdot(x, x)
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    s = float(np.abs(x).max(initial=0.0))
    if not 0.0 < s < math.inf:  # x is zero or holds an inf or a nan: the sum stands
        return math.sqrt(sq)
    x = x / s
    return s * math.sqrt(np.vdot(x, x))


def _lp_norm(a: np.ndarray, p: float) -> float:
    """``sum(a**p) ** (1/p)`` of ``a = |x|``, bit for bit, in range.

    When that power sum overflows, or falls below the normal range for a
    nonzero ``a``, the norm is ``s * ||a / s||_p`` with ``s = max a``, as
    :func:`l2_norm` scales it (Blue 1978; Anderson 2017).
    """
    with np.errstate(over="ignore"):
        total = np.sum(a**p)
    if _TINY <= total < math.inf:
        return float(total ** (1.0 / p))
    s = float(a.max(initial=0.0))
    if not 0.0 < s < math.inf:  # a is zero or holds an inf or a nan: the sum stands
        return float(total ** (1.0 / p))
    return s * float(np.sum((a / s) ** p) ** (1.0 / p))


def norm_eval(m: CostModel | NormKind, x) -> float:
    """Evaluate the cost norm ||x||."""
    kind = m.norm if isinstance(m, CostModel) else m
    x = np.asarray(x, dtype=float)
    if kind.kind == "l2":
        return l2_norm(x)
    if kind.kind == "l1":
        return float(np.sum(np.abs(x)))
    if kind.kind == "linf":
        return float(np.max(np.abs(x))) if x.size else 0.0
    if kind.kind == "lp":
        return _lp_norm(np.abs(x), kind.p)
    # wl1
    return float(np.dot(np.asarray(kind.weights), np.abs(x)))


def dual_norm_eval(m: CostModel | NormKind, y) -> float:
    """Evaluate the dual norm ||y||_* = max { y.w : ||w|| <= 1 }."""
    kind = m.norm if isinstance(m, CostModel) else m
    y = np.asarray(y, dtype=float)
    if kind.kind == "l2":
        return l2_norm(y)
    if kind.kind == "l1":
        # dual of l1 is l-infinity
        return float(np.max(np.abs(y))) if y.size else 0.0
    if kind.kind == "linf":
        # dual of l-infinity is l1
        return float(np.sum(np.abs(y)))
    if kind.kind == "lp":
        return _lp_norm(np.abs(y), kind.p / (kind.p - 1.0))
    # dual of sum_i w_i |x_i| is max_i |y_i| / w_i
    return float(np.max(np.abs(y) / np.asarray(kind.weights))) if y.size else 0.0


def manipulation_direction(m: CostModel | NormKind, y) -> np.ndarray:
    """Unit-cost direction v(y) that maximizes y.w over the unit ball.

    Satisfies ``y . v(y) == dual_norm_eval(y)`` and ``norm_eval(v(y)) == 1``
    for ``y != 0``; returns the zero vector for ``y == 0``.  Where the
    maximizer is not unique (l1/linf/wl1 faces), ties break
    deterministically: lowest coordinate index wins and the sign is taken
    from y's coordinate, with zero coordinates treated as positive.  In
    particular v(y) is componentwise nonnegative whenever y is.
    """
    kind = m.norm if isinstance(m, CostModel) else m
    y = np.asarray(y, dtype=float)
    v = np.zeros_like(y)
    if not np.any(y):
        return v
    if kind.kind == "l2":
        return y / l2_norm(y)
    if kind.kind == "l1":
        # extreme points of the l1 ball are signed coordinate vectors
        i = int(np.argmax(np.abs(y)))
        v[i] = 1.0 if y[i] >= 0 else -1.0
        return v
    if kind.kind == "linf":
        # any sign vector maximizes; zero coordinates get +1
        return np.where(y >= 0, 1.0, -1.0)
    if kind.kind == "lp":
        q = kind.p / (kind.p - 1.0)
        a = np.abs(y)
        mag = (a / _lp_norm(a, q)) ** (q - 1.0)
        return np.where(y >= 0, mag, -mag)
    # wl1: extreme points are +-e_i / w_i
    w = np.asarray(kind.weights)
    i = int(np.argmax(np.abs(y) / w))
    v[i] = (1.0 if y[i] >= 0 else -1.0) / w[i]
    return v


def norming_functional(m: CostModel | NormKind, x) -> np.ndarray:
    """Dual-ball vector y with ``||y||_* == 1`` and ``y . x == ||x||``.

    The supporting functional of the cost-norm ball at ``x``, the dual
    counterpart of :func:`manipulation_direction`; returns the zero vector
    for ``x == 0``.  On the polyhedral norms it is the face picked by
    signs: ``sign(x)`` for l1, ``w * sign(x)`` for wl1 and the signed
    coordinate vector of the first largest ``|x_i|`` for linf.
    """
    kind = m.norm if isinstance(m, CostModel) else m
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x)
    if not np.any(x):
        return y
    x = x / np.max(np.abs(x))  # y depends on the direction only; this keeps powers in range
    if kind.kind == "l2":
        return x / l2_norm(x)
    if kind.kind == "l1":
        return np.sign(x)
    if kind.kind == "linf":
        i = int(np.argmax(np.abs(x)))
        y[i] = np.sign(x[i])
        return y
    if kind.kind == "lp":
        a = np.abs(x)
        mag = (a / np.sum(a**kind.p) ** (1.0 / kind.p)) ** (kind.p - 1.0)
        return np.where(x >= 0, mag, -mag)
    return np.asarray(kind.weights) * np.sign(x)


def l2_envelope_constant(m: CostModel | NormKind, dim: int | None = None) -> float:
    """Largest Euclidean length of any manipulation direction.

    This is ``max_y ||v(y)||_2``, the factor by which a unit-cost move can
    inflate Euclidean radii; it feeds every certificate that converts
    cost-norm reach into Euclidean geometry.
    """
    kind = m.norm if isinstance(m, CostModel) else m
    if dim is None:
        if isinstance(m, CostModel):
            dim = m.dim
        elif kind.kind == "wl1":
            dim = len(kind.weights)
        else:
            raise ValueError("dim is required for unweighted norm kinds")
    if kind.kind in ("l2", "l1"):
        return 1.0
    if kind.kind == "linf":
        return math.sqrt(dim)
    if kind.kind == "lp":
        # l2 norm over the lp unit sphere peaks at coordinate vectors for
        # p <= 2 and at the diagonal for p >= 2
        return float(dim) ** max(0.0, 0.5 - 1.0 / kind.p)
    return 1.0 / min(kind.weights)

"""Online learners against strategically responding agents.

All learners speak the protocol of :class:`_Learner`, which the harness
drives: ``learner.classifier`` is the declared classifier the next agents
respond to, and ``update(rows, labels, predicted)`` digests a block of their
observed responses once the true labels are revealed, up to the first
response that makes it publish a new classifier.  The margin-based learners bootstrap
themselves with a shared zero-classifier initialization phase (no agent
can gain by moving against ``y = 0``, so the first few responses are
truthful): predict a constant sign, flip it once a label has been seen,
and stop as soon as both labels are present — at most two of those
rounds are mistakes.
"""

from __future__ import annotations

import logging
import math
from enum import Enum

import numpy as np

from .maxmargin import MarginSolution, PointSetPair, _max, _min, incremental_check, solve_max_margin
from .norms import CostModel, l2_norm
from .response import Classifier, proxy_from_response

logger = logging.getLogger(__name__)


class ConeKind(Enum):
    """Hypothesis cones the projected perceptron can be restricted to."""

    FULL = "full"
    ZERO_INTERCEPT = "zero-b"
    NONNEG_WEIGHTS = "nonneg"


def project_cone(kind: ConeKind | str, q: np.ndarray) -> np.ndarray:
    """Euclidean projection of the stacked vector (y, b) onto the cone.

    All three cones project coordinatewise (identity, zeroed intercept,
    clipped weights), so the projection is positively homogeneous exactly.
    """
    kind = ConeKind(kind)
    q = np.asarray(q, dtype=float)
    if kind is ConeKind.FULL:
        return q.copy()
    if kind is ConeKind.ZERO_INTERCEPT:
        out = q.copy()
        out[-1] = 0.0
        return out
    out = q.copy()
    np.maximum(out[:-1], 0.0, out=out[:-1])
    return out


class _Learner:
    """The protocol every learner speaks, and the run state the harness reads.

    ``classifier`` is the declaration: it stays the same ``Classifier``
    object until an update publishes a new one by assigning it, and
    ``in_init`` and ``margin`` change only together with it; the harness
    answers every agent up to the next new object in one block.
    ``update(rows, labels, predicted) -> int`` takes such a block: the
    observed responses to the declared classifier, one per row,
    their true labels and the predictions made on them.  It consumes the
    rows in order up to and including the first one that publishes a new
    classifier, and returns how many it consumed; a block it consumes whole
    may end on a new classifier or not.  A one-row block is one round, so a
    learner fed a block ends where one fed the same rows one at a time
    would.  ``in_init`` is True during the warm-up; ``margin`` is the
    max-margin value the declared classifier was solved for, or None;
    ``solve_count`` counts the margin solves whose answer was declared;
    ``inseparable_at`` is the number of rows consumed when the pool turned
    inseparable, or None.
    """

    classifier: Classifier
    in_init = False
    margin: float | None = None
    solve_count = 0
    inseparable_at: int | None = None


class _MarginLearner(_Learner):
    """A proxy pool behind the label-seeking warm-up.

    The warm-up declares ``(0, 1)``, then ``(0, label)`` for the one label
    seen so far, and pools each response as it is; it ends once the pool
    holds both labels.  After it, each response is pooled as its proxy.
    """

    def __init__(self, m: CostModel):
        self.model = m
        self.pool = PointSetPair(m.dim)
        self.in_init = True
        self.classifier = Classifier(np.zeros(m.dim), 1.0)

    def _warm_up(self, rows, labels) -> int:
        """Pool truthful responses up to the first that changes the declaration; return how many."""
        other = (labels != self.classifier.b).nonzero()[0]
        n = int(other[0]) + 1 if other.size else len(labels)
        self.pool.add(rows[:n], labels[:n])
        if self.pool.n_pos > 0 and self.pool.n_neg > 0:
            self.in_init = False
        elif other.size:  # the first label of the run is -1
            self.classifier = Classifier(np.zeros(self.model.dim), labels[n - 1])
        return n


class SmmLearner(_MarginLearner):
    """Strategic max-margin learner: re-solve the margin problem as proxies arrive.

    Every observed response is converted to its proxy and added to the
    pool, which keeps each distinct point once (a repeat leaves the margin
    problem unchanged); the classifier is the exact max-margin solution
    over the pool.  A cached solution is reused whenever the incremental
    margin gate shows the new point cannot have changed the optimum, a
    repeated proxy included.  If the pool ever turns inseparable the learner
    parks at the degenerate (0, 0) classifier — the pool only grows, so
    separability cannot come back; the fallback is logged once.
    """

    def __init__(self, m: CostModel):
        super().__init__(m)
        self.solution: MarginSolution | None = None
        self.updates = 0  # rows consumed

    def _note_fallback(self):
        if self.inseparable_at is None:
            self.inseparable_at = self.updates
            logger.warning(
                "pool became inseparable after %d responses; falling back to the "
                "degenerate (0, 0) classifier",
                self.updates,
            )

    def _adopt(self, solution: MarginSolution):
        self.solution = solution
        self.margin = solution.d
        self.classifier = Classifier(solution.y, solution.b)
        if not solution.separable:
            self._note_fallback()

    def update(self, rows, labels, predicted) -> int:
        """Pool the block's proxies up to the first that fails the gate, then solve once."""
        if self.in_init:
            n = self._warm_up(rows, labels)
            self.updates += n
            if not self.in_init:
                self._adopt(solve_max_margin(self.pool, self.model))
                self.solve_count += 1
            return n
        proxies = proxy_from_response(rows, labels, predicted, self.classifier, self.model)
        k = len(labels)
        if not self.solution.separable:  # parked: the pool stays inseparable
            n, resolve = k, False
        else:
            cleared = incremental_check(self.solution, proxies, labels)
            n, resolve = min(cleared + 1, k), cleared < k
        self.pool.add(proxies[:n], labels[:n])
        self.updates += n
        if resolve:
            self._adopt(solve_max_margin(self.pool, self.model, warm=self.solution))
            self.solve_count += 1
        return n


class GradSmmLearner(_MarginLearner):
    """Gradient-based approximation of the max-margin learner (Euclidean only).

    Instead of re-solving the margin problem, one projected supergradient
    step on the pool objective updates an auxiliary direction ``z`` inside
    the Euclidean unit ball, and the published direction is the running
    average of all ``z`` iterates, ``z_t`` weighted by ``1/sqrt(t)``, which
    is also the size of the step taken from it; the intercept is
    re-centered on the pool at every step.  Those per-step scans run over
    the pool's distinct points, so they cost time in proportion to those,
    not to t, and first-index ties make each step exactly the one a pool
    holding every repeat would take.  Manipulations die out only as fast
    as that average converges (about 1/sqrt(t)), so no finite quiet
    horizon is promised, matching the "no finite certificate" row of
    ``certify``.  The one solve that ends the warm-up seeds the iterate;
    no solve is declared, so ``solve_count`` stays 0.
    """

    def __init__(self, m: CostModel):
        if m.norm.kind != "l2":
            raise ValueError("the averaged-gradient learner requires the l2 cost norm")
        super().__init__(m)
        self._z: np.ndarray | None = None
        self._t = 0
        self._w = 0.0  # the weight 1/sqrt(t) that z_t got, and the step size taken from it
        self._wsum = 0.0
        self._zsum: np.ndarray | None = None

    def update(self, rows, labels, predicted) -> int:
        """Take one supergradient step on the first row's proxy (or warm up on the block)."""
        if self.in_init:
            n = self._warm_up(rows, labels)
            if not self.in_init:
                sol = solve_max_margin(self.pool, self.model)
                self._z = sol.y.copy()
                self._t = 1
                self._w = self._wsum = 1.0
                self._zsum = self._z.copy()
                self.classifier = Classifier(sol.y, sol.b)
            return n
        labels = labels[:1]
        self.pool.add(proxy_from_response(rows[:1], labels, predicted[:1], self.classifier, self.model), labels)
        P = self.pool.positives
        N = self.pool.negatives
        grad = P[P.dot(self._z).argmin()] - N[N.dot(self._z).argmax()]
        z_next = self._z + self._w * grad
        nrm = l2_norm(z_next)
        if nrm > 1.0:
            z_next /= nrm
        self._t += 1
        self._w = 1.0 / math.sqrt(self._t)
        self._wsum += self._w
        self._zsum += self._w * z_next
        y = self._zsum / self._wsum
        b = -0.5 * (_min(P.dot(y)) + _max(N.dot(y)))
        self._z = z_next
        self.classifier = Classifier(y, b)
        return 1


class PerceptronLearner(_Learner):
    """Mistake-driven additive updates on proxies, projected onto a cone.

    The stacked vector ``q = (y, b)`` starts at zero; a mistaken round adds
    ``label * (proxy, 1)`` before re-projecting onto ``cone`` (a ``ConeKind``
    or its value).  Correct rounds leave ``q`` untouched.  No initialization
    phase, and no step size: the rounds read only the direction of ``(y, b)``.
    """

    def __init__(self, m: CostModel, cone: ConeKind | str = ConeKind.FULL):
        self.model = m
        self.cone = ConeKind(cone)
        self.q = np.zeros(m.dim + 1)
        self.mistakes = 0

    @property
    def q(self) -> np.ndarray:
        """The stacked vector ``(y, b)``; assigning it declares a new classifier."""
        return self._q

    @q.setter
    def q(self, value) -> None:
        self._q = value
        self.classifier = Classifier(value[:-1], value[-1])

    def update(self, rows, labels, predicted) -> int:
        """Consume the block up to its first mistake, and step on that row's proxy."""
        wrong = (predicted != labels).nonzero()[0]
        if not wrong.size:
            return len(labels)
        j = int(wrong[0])
        self.mistakes += 1
        row = slice(j, j + 1)
        s = proxy_from_response(rows[row], labels[row], predicted[row], self.classifier, self.model)[0]
        self.q = project_cone(self.cone, self.q + int(labels[j]) * np.append(s, 1.0))
        return j + 1

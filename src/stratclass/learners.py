"""Online learners against strategically responding agents.

All learners speak the same protocol the harness drives: ``declare()``
publishes the classifier the next agent will respond to, and
``update(response, label)`` digests the observed response once the true
label is revealed.  The margin-based learners bootstrap themselves with a
shared zero-classifier initialization phase (no agent can gain by moving
against ``y = 0``, so the first few responses are truthful): predict a
constant sign, flip it once a label has been seen, and stop as soon as
both labels are present — at most two of those rounds are mistakes.
"""

from __future__ import annotations

import logging
import math
from enum import Enum

import numpy as np

from .maxmargin import MarginSolution, PointSetPair, incremental_check, solve_max_margin
from .norms import CostModel
from .response import Classifier, predict, proxy_from_response

logger = logging.getLogger(__name__)


class ConeKind(Enum):
    """Hypothesis cones the projected perceptron can be restricted to."""

    FULL = "full"
    ZERO_INTERCEPT = "zero-b"
    NONNEG_WEIGHTS = "nonneg"


def project_cone(kind: ConeKind, q: np.ndarray) -> np.ndarray:
    """Euclidean projection of the stacked vector (y, b) onto the cone.

    All three cones project coordinatewise (identity, zeroed intercept,
    clipped weights), so the projection is positively homogeneous exactly.
    """
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


class _InitPhase:
    """Label-seeking warm-up: declare (0, b), flip b toward the missing label."""

    def __init__(self, pool: PointSetPair):
        self.pool = pool
        self.b = 1.0

    def classifier(self) -> Classifier:
        return Classifier(np.zeros(self.pool.dim), self.b)

    def absorb(self, point, label: int) -> bool:
        """Store one truthful point; returns True once both labels are present."""
        self.pool.add(point, label)
        if self.pool.n_pos == 0:
            self.b = -1.0
        elif self.pool.n_neg == 0:
            self.b = 1.0
        return self.pool.n_pos > 0 and self.pool.n_neg > 0


class SmmLearner:
    """Strategic max-margin learner: re-solve the margin problem as proxies arrive.

    Every observed response is converted to its proxy and appended to the
    pool; the classifier is the exact max-margin solution over the pool.
    A cached solution is reused whenever the incremental margin gate shows
    the new point cannot have changed the optimum (disable the gate with
    ``force_resolve`` to re-solve at every step).  If the pool ever turns
    inseparable the learner parks at the degenerate (0, 0) classifier —
    the pool only grows, so separability cannot come back; the fallback is
    logged once.
    """

    def __init__(self, m: CostModel, solver_tol: float = 1e-10, force_resolve: bool = False):
        self.model = m
        self.solver_tol = solver_tol
        self.force_resolve = force_resolve
        self.pool = PointSetPair(m.dim)
        self._init: _InitPhase | None = _InitPhase(self.pool)
        self.solution: MarginSolution | None = None
        self.classifier = self._init.classifier()
        self.solve_count = 0
        self.updates = 0
        self.inseparable_at: int | None = None

    @property
    def in_init(self) -> bool:
        return self._init is not None

    def declare(self) -> Classifier:
        return self.classifier

    def _note_fallback(self):
        if self.inseparable_at is None:
            self.inseparable_at = self.updates
            logger.warning(
                "pool became inseparable after %d updates; falling back to the "
                "degenerate (0, 0) classifier",
                self.updates,
            )

    def _adopt(self, solution: MarginSolution):
        self.solution = solution
        self.classifier = Classifier(solution.y, solution.b)
        if not solution.separable:
            self._note_fallback()

    def update(self, response, label: int) -> None:
        self.updates += 1
        if self._init is not None:
            if self._init.absorb(response, label):
                self._init = None
                self._adopt(solve_max_margin(self.pool, self.model, self.solver_tol))
                self.solve_count += 1
            else:
                self.classifier = self._init.classifier()
            return
        s = proxy_from_response(response, label, self.classifier, self.model)
        self.pool.add(s, label)
        if not self.solution.separable:
            return
        if not self.force_resolve and incremental_check(self.solution, s, label):
            return
        self._adopt(
            solve_max_margin(
                self.pool, self.model, self.solver_tol, warm=self.solution.support_weights
            )
        )
        self.solve_count += 1


def _step_schedule(token: str):
    """Step-size schedule ``t -> gamma_t`` for a token: ``invsqrt`` or ``const:<v>``."""
    if token == "invsqrt":
        return lambda t: 1.0 / math.sqrt(t)
    if token.startswith("const:"):
        v = float(token[6:])
        if v <= 0:
            raise ValueError("constant step size must be positive")
        return lambda t: v
    raise ValueError(f"unknown step schedule {token!r}")


class GradSmmLearner:
    """Gradient-based approximation of the max-margin learner (Euclidean only).

    Instead of re-solving the margin problem, one projected supergradient
    step on the pool objective updates an auxiliary direction ``z`` inside
    the Euclidean unit ball, and the published direction is the
    step-weighted running average of all ``z`` iterates; the intercept is
    re-centered on the pool at every step.  Manipulations die out only as
    fast as that average converges (about 1/sqrt(t)), so no finite quiet
    horizon is promised, matching the "no finite certificate" row of
    ``certify``.
    """

    def __init__(self, m: CostModel, schedule: str = "invsqrt", solver_tol: float = 1e-10):
        if m.norm.kind != "l2":
            raise ValueError("the averaged-gradient learner requires the l2 cost norm")
        self.model = m
        self.schedule = _step_schedule(schedule)
        self.solver_tol = solver_tol
        self.pool = PointSetPair(m.dim)
        self._init: _InitPhase | None = _InitPhase(self.pool)
        self.classifier = self._init.classifier()
        self._z: np.ndarray | None = None
        self._t = 0
        self._wsum = 0.0
        self._zsum: np.ndarray | None = None

    @property
    def in_init(self) -> bool:
        return self._init is not None

    def declare(self) -> Classifier:
        return self.classifier

    def update(self, response, label: int) -> None:
        if self._init is not None:
            if self._init.absorb(response, label):
                self._init = None
                sol = solve_max_margin(self.pool, self.model, self.solver_tol)
                self._z = sol.y.copy()
                self._t = 1
                w = self.schedule(1)
                self._wsum = w
                self._zsum = w * self._z
                self.classifier = Classifier(sol.y, sol.b)
            else:
                self.classifier = self._init.classifier()
            return
        s = proxy_from_response(response, label, self.classifier, self.model)
        self.pool.add(s, label)
        P = self.pool.positives
        N = self.pool.negatives
        grad = P[int(np.argmin(P @ self._z))] - N[int(np.argmax(N @ self._z))]
        z_next = self._z + self.schedule(self._t) * grad
        nrm = float(np.linalg.norm(z_next))
        if nrm > 1.0:
            z_next = z_next / nrm
        self._t += 1
        w = self.schedule(self._t)
        self._wsum += w
        self._zsum = self._zsum + w * z_next
        y = self._zsum / self._wsum
        b = -0.5 * (float(np.min(P @ y)) + float(np.max(N @ y)))
        self._z = z_next
        self.classifier = Classifier(y, b)


class PerceptronLearner:
    """Mistake-driven additive updates on proxies, projected onto a cone.

    The stacked vector ``q = (y, b)`` starts at zero; a mistaken round adds
    ``gamma * label * (proxy, 1)`` before re-projecting onto the cone.
    Correct rounds leave ``q`` untouched.  No initialization phase.
    """

    def __init__(self, m: CostModel, cone: ConeKind = ConeKind.FULL, gamma: float = 1.0):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.model = m
        self.cone = cone
        self.gamma = gamma
        self.q = np.zeros(m.dim + 1)
        self.mistakes = 0

    @property
    def in_init(self) -> bool:
        return False

    def declare(self) -> Classifier:
        return Classifier(self.q[:-1], self.q[-1])

    def update(self, response, label: int) -> None:
        clf = self.declare()
        if predict(clf, self.model, response) == label:
            return
        self.mistakes += 1
        s = proxy_from_response(response, label, clf, self.model)
        self.q = project_cone(self.cone, self.q + self.gamma * label * np.append(s, 1.0))

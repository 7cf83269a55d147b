"""Offset-classifier predictions, agent best responses, and proxy data.

A linear classifier ``(y, b)`` is always applied with the conservative
offset ``2||y||_*/c`` baked in: the prediction on features ``x`` is
``sign(y.x + b - 2||y||_*/c)``.  A rational agent with true features ``A``
moves exactly far enough to flip a negative prediction whenever the gain
(worth 2) covers the cost, which happens iff the signed margin ratio
``(y.A + b)/||y||_*`` lies in ``[0, 2/c)``; an agent indifferent at cost
exactly 2 manipulates.  The learner never observes ``A`` — only the
response — but can reconstruct a separability-preserving proxy from the
response alone, which is what the learners train on.

Every ``y.x`` here is one expression, :func:`_score`, whose rounding of a
row does not depend on the rows beside it.  An arriving agent is its true
feature row and its label: ``interact(x, label, clf, m)`` plays one round
and ``answer`` a block of agents under one classifier; built from that
score, one best response and one prediction, they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import EPS_GEOM, CostModel, dual_norm_eval, manipulation_direction


@dataclass(frozen=True, eq=False)
class Classifier:
    """Linear classifier with intercept; ``y`` may be the zero vector.

    ``y`` must not be changed in place: :meth:`dual_norm` keeps its value.
    """

    y: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "b", float(self.b))

    def dual_norm(self, m: CostModel) -> float:
        """``||y||_*`` under ``m``'s norm, evaluated once per norm object."""
        norm, value = self.__dict__.get("_dual", (None, 0.0))
        if norm is not m.norm:
            value = dual_norm_eval(m, self.y)
            object.__setattr__(self, "_dual", (m.norm, value))
        return value


@dataclass(frozen=True, eq=False, slots=True)
class Interaction:
    """One protocol round as the harness sees it.

    ``response`` is the (possibly noisy) vector the learner observes; it
    reaches ``update`` with ``predicted``, and the learner builds its own
    proxy from the two;
    ``manipulated`` is the ground-truth flag (noise-free comparison).
    """

    response: np.ndarray
    predicted: int
    manipulated: bool
    mistake: bool


def _score(X, y):
    """``X . y`` of each row of ``X`` (of ``X`` itself if it is one row).

    The products are laid out row by row and each row is summed on its
    own, so a row rounds the same alone or in a block of any size; a
    matrix-vector product does not.
    """
    return np.add.reduce(np.multiply(X, y, order="C"), axis=-1)


def _clears_offset(q, dn: float, m: CostModel):
    """Whether a score ``y.x + b`` (or each of an array of them) predicts +1 given ``||y||_* = dn``.

    Manipulated responses land exactly on the offset boundary; a score within
    ``EPS_GEOM * dn`` of it counts as on it, so sign(0) = +1 survives rounding.
    """
    return q - m.two_over_c * dn >= -EPS_GEOM * dn


def proxy_from_response(responses, labels, predicted, clf: Classifier, m: CostModel) -> np.ndarray:
    """Learner-side proxy points recovered from observed responses, one per row.

    ``labels`` are the rows' true labels, ``predicted`` the protocol's
    predictions on them under ``clf``.  A manipulated response always lands
    exactly on the offset boundary (margin ratio 2/c).  If the true label
    then turns out negative, the response is pulled back by ``(2/c) v(y)``
    so the stored point returns to the correct side of every classifier
    that was correct on the true features; every other row is stored as-is
    (``responses`` itself if no row moves).  The boundary test uses
    EPS_GEOM, so noisy responses are almost never pulled back.  A ratio
    within EPS_GEOM of 2/c clears the prediction's offset, so only negative
    rows predicted +1 are scored; the two tests could round apart only for
    a ratio within rounding of ``2/c - EPS_GEOM``.
    """
    responses = np.asarray(responses, dtype=float)
    dn = clf.dual_norm(m)
    if dn == 0.0:
        return responses
    rows = (np.asarray(predicted) > np.asarray(labels)).nonzero()[0]  # negatives predicted +1
    if not rows.size:
        return responses
    ratio = (_score(responses[rows], clf.y) + clf.b) / dn
    rows = rows[np.abs(ratio - m.two_over_c) <= EPS_GEOM]
    if not rows.size:
        return responses
    proxies = responses.copy()
    proxies[rows] -= m.two_over_c * manipulation_direction(m, clf.y)
    return proxies


def interact(x: np.ndarray, label: int, clf: Classifier, m: CostModel, noise=None) -> Interaction:
    """Run one protocol round for the agent with true features ``x`` and ``label`` (+1 or -1).

    The agent's best response is ``x + (2/c - ratio) * v(y)`` when its margin
    ratio lies in the window ``[-EPS_GEOM, 2/c)`` (the guard keeps an agent on
    the decision boundary up to float noise manipulating), and ``x`` itself
    otherwise or when ``||y||_* == 0``.  The observed response adds the noise
    row ``noise``, if any.  Prediction and mistake are the offset rule's on
    the observed response, reusing the score ``y.x + b`` when that is ``x``
    itself; the manipulation flag compares the noise-free response with
    ``x`` exactly.
    """
    q = float(_score(x, clf.y)) + clf.b
    dn = clf.dual_norm(m)
    clean = x
    if dn != 0.0:
        ratio = q / dn
        if -EPS_GEOM <= ratio < m.two_over_c:
            clean = x + (m.two_over_c - ratio) * manipulation_direction(m, clf.y)
    observed = clean if noise is None else clean + noise
    if observed is not x:
        q = float(_score(observed, clf.y)) + clf.b
    predicted = 1 if _clears_offset(q, dn, m) else -1
    manipulated = clean is not x and bool((clean != x).any())
    return Interaction(observed, predicted, manipulated, predicted != label)


def answer(A: np.ndarray, clf: Classifier, m: CostModel, noise=None):
    """One protocol round for each row of ``A`` under the same classifier.

    ``A`` holds the agents' true features, one row each, and ``noise``, if
    given, one noise row per agent.  Returns ``(observed, predicted,
    manipulated)``: row ``j`` of each is what :func:`interact` reports for
    agent ``A[j]`` given the noise row ``noise[j]``, bit for bit, since every
    step is the same float operation on the same operands, row by row.
    """
    dn = clf.dual_norm(m)
    q = _score(A, clf.y) + clf.b
    clean = A
    if dn != 0.0:
        ratio = q / dn
        move = (ratio >= -EPS_GEOM) & (ratio < m.two_over_c)
        if move.any():
            clean = A.copy()
            clean[move] += (m.two_over_c - ratio[move])[:, None] * manipulation_direction(m, clf.y)
    observed = clean if noise is None else clean + noise
    if observed is not A:
        q = _score(observed, clf.y) + clf.b
    predicted = np.where(_clears_offset(q, dn, m), 1, -1)
    return observed, predicted, np.any(clean != A, axis=1)

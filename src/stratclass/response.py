"""Offset-classifier predictions, agent best responses, and proxy data.

A linear classifier ``(y, b)`` is always applied with the conservative
offset ``2||y||_*/c`` baked in: the prediction on features ``x`` is
``sign(y.x + b - 2||y||_*/c)``.  A rational agent with true features ``A``
moves exactly far enough to flip a negative prediction whenever the gain
(worth 2) covers the cost, which happens iff the signed margin ratio
``(y.A + b)/||y||_*`` lies in ``[0, 2/c)``; an agent indifferent at cost
exactly 2 manipulates.  The learner never observes ``A`` — only the
response — but can reconstruct a separability-preserving proxy from the
response alone, which is what the learners train on.  ``interact`` plays
one round; ``screen`` answers a block of agents under one classifier in
one vector pass, up to the rows whose answer rounding could change, which
it leaves to ``interact``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import EPS_GEOM, CostModel, dual_norm_eval, manipulation_direction


def sign(x: float) -> int:
    """Sign convention used throughout: sign(0) = +1."""
    return 1 if x >= 0 else -1


@dataclass(frozen=True, eq=False)
class Classifier:
    """Linear classifier with intercept; ``y`` may be the zero vector."""

    y: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True, eq=False)
class Agent:
    """True feature vector and ground-truth label (+1 or -1)."""

    features: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        if self.label not in (1, -1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")


@dataclass(frozen=True, eq=False)
class Interaction:
    """One protocol round as the harness sees it.

    ``response`` is the (possibly noisy) vector the learner observes and
    hands to ``update``, where it builds its own proxy from it;
    ``manipulated`` is the ground-truth flag (noise-free comparison).
    """

    response: np.ndarray
    predicted: int
    manipulated: bool
    mistake: bool


def margin_ratio(clf: Classifier, m: CostModel, x) -> float:
    """Signed margin ``(y.x + b) / ||y||_*``; +inf-safe only for y != 0."""
    return (float(np.dot(clf.y, x)) + clf.b) / dual_norm_eval(m, clf.y)


def predict(clf: Classifier, m: CostModel, x) -> int:
    """Offset prediction ``sign(y.x + b - 2||y||_*/c)``, sign(0) = +1.

    Reduces to ``sign(b)`` when ``y == 0``.  Scores within EPS_GEOM
    (relative to ``||y||_*``) of the offset boundary count as positive:
    manipulated responses land exactly on that boundary, where the sign(0)
    convention must survive rounding in either direction.
    """
    dn = dual_norm_eval(m, clf.y)
    score = float(np.dot(clf.y, x)) + clf.b - m.two_over_c * dn
    if score >= -EPS_GEOM * dn:
        return 1
    return -1


def respond(agent: Agent, clf: Classifier, m: CostModel) -> np.ndarray:
    """Best response of a rational agent to the declared classifier.

    Returns ``A + (2/c - ratio) * v(y)`` when the margin ratio lies in the
    manipulation window ``[0, 2/c)`` and ``A`` itself otherwise (including
    for ``y == 0``, where no movement can change the prediction).  The
    lower window edge is guarded by EPS_GEOM so that agents sitting on the
    decision boundary up to float noise still manipulate (indifference at
    cost exactly 2 resolves to manipulating); the upper edge is strict.
    """
    A = agent.features
    if not np.any(clf.y):
        return A
    ratio = margin_ratio(clf, m, A)
    if -EPS_GEOM <= ratio < m.two_over_c:
        return A + (m.two_over_c - ratio) * manipulation_direction(m, clf.y)
    return A


def proxy_from_response(response, label: int, clf: Classifier, m: CostModel) -> np.ndarray:
    """Learner-side proxy point recovered from an observed response.

    A manipulated response always lands exactly on the offset boundary
    (margin ratio 2/c).  If the true label then turns out negative, the
    response is pulled back by ``(2/c) v(y)`` so the stored point returns
    to the correct side of every classifier that was correct on the true
    features; in every other case the response is stored as-is.  The
    boundary test uses EPS_GEOM, so noisy responses (which are almost
    never exactly on the boundary) are stored unmodified.
    """
    response = np.asarray(response, dtype=float)
    if not np.any(clf.y):
        return response
    if label == -1 and abs(margin_ratio(clf, m, response) - m.two_over_c) <= EPS_GEOM:
        return response - m.two_over_c * manipulation_direction(m, clf.y)
    return response


def _gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``: the relative error bound of an n-term float sum."""
    nu = n * np.finfo(float).eps / 2.0
    return nu / (1.0 - nu)


def screen(A: np.ndarray, observed: np.ndarray, clf: Classifier, m: CostModel):
    """One vector pass over a block of agents answering the same classifier.

    ``A`` holds the agents' true features, one row each, and ``observed``
    what each reports if it stays truthful (``A`` itself, or ``A`` plus
    its response noise).  Returns ``(edge, predicted)``: ``predicted`` is
    the offset prediction of each observed row, and it and "truthful" are
    the answer of :func:`interact` for every row not flagged ``edge``.

    ``edge`` flags the rows that :func:`interact` must decide itself: rows
    whose margin ratio is inside the manipulation window, and rows within a
    rounding-error band of a window edge or of the offset threshold.  The
    band is rigorous, not a guessed constant.  A score here and the same
    score in :func:`interact` are each a (d+2)-term float sum (d products,
    the intercept and the offset), summed in whatever order the library
    picks, so each lies within ``gamma_{d+2}`` times the sum of the terms'
    magnitudes of the exact value, and the two within twice that;
    ``gamma_{d+4}`` also covers evaluating the band and comparing against
    it.  The margin ratio's band adds the division's rounding.
    """
    y, b = clf.y, clf.b
    dn = dual_norm_eval(m, y)
    gamma2 = 2.0 * _gamma(y.shape[0] + 4)
    abs_y = np.abs(y)
    q = A @ y + b
    size = np.abs(A) @ abs_y + abs(b)  # magnitude sum of the terms of q
    if dn > 0.0:
        ratio = q / dn
        width = gamma2 * (size + np.abs(q)) / dn
        edge = (ratio + width >= -EPS_GEOM) & (ratio - width < m.two_over_c)
    else:  # respond() moves nobody for y == 0; a nonzero y of zero norm stays scalar
        edge = np.full(A.shape[0], bool(np.any(y)))
    offset = m.two_over_c * dn
    threshold = -EPS_GEOM * dn
    if observed is not A:
        q = observed @ y + b
        size = np.abs(observed) @ abs_y + abs(b)
    score = q - offset
    band = gamma2 * (size + (offset - threshold))
    edge |= (score >= threshold - band) & (score < threshold + band)
    return edge, np.where(score >= threshold, 1, -1)


def interact(
    agent: Agent,
    clf: Classifier,
    m: CostModel,
    sigma: float = 0.0,
    noise_rng=None,
) -> Interaction:
    """Run one protocol round and report everything the harness logs.

    The observed response is the best response plus i.i.d. Gaussian
    measurement noise of scale ``sigma``; with ``sigma == 0`` no randomness
    is consumed, so noiseless runs replay identically.  The manipulation
    flag compares the noise-free response against the true features (exact
    vector comparison); prediction and mistake are computed from the
    observed response, since that is all the learner ever sees.
    """
    clean = respond(agent, clf, m)
    manipulated = not np.array_equal(clean, agent.features)
    observed = clean
    if sigma != 0.0:
        observed = clean + sigma * noise_rng.standard_normal(clean.shape[0])
    predicted = predict(clf, m, observed)
    return Interaction(
        response=observed,
        predicted=predicted,
        manipulated=manipulated,
        mistake=predicted != agent.label,
    )

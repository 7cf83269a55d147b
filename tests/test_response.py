"""Agent best response, offset prediction, proxies, and single-round protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import offset_prediction, oracle_interact
from stratclass.norms import EPS_GEOM, L1, L2, CostModel, dual_norm_eval, manipulation_direction, parse_norm
from stratclass.response import Classifier, _score, answer, interact, proxy_from_response


def ratio(clf, m, x):
    """The signed margin ratio ``(y.x + b) / ||y||_*`` of ``x``, scored as ``interact`` scores it."""
    return (float(_score(x, clf.y)) + clf.b) / clf.dual_norm(m)


def test_respond_worked_instance():
    # c = 4 under l2 cost, classifier ((1, 2), 0): the agent at (-1, 1) has
    # margin ratio 1/sqrt(5), inside [0, 1/2), and moves along (1, 2)/sqrt(5)
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    r = interact(np.array([-1.0, 1.0]), 1, clf, m).response
    expected = np.array([-6 / 5 + math.sqrt(5) / 10, 3 / 5 + math.sqrt(5) / 5])
    assert np.max(np.abs(r - expected)) <= 1e-12


def test_respond_lands_exactly_on_offset_boundary():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    out = interact(np.array([-1.0, 1.0]), 1, clf, m)
    assert ratio(clf, m, out.response) == pytest.approx(m.two_over_c, abs=1e-15)
    # ... and sign(0) = +1 resolves the resulting knife-edge score to +1
    assert out.predicted == 1


def test_manipulation_window_edges():
    m = CostModel(L2, c=2.0, dim=1)  # 2/c = 1, ||y||_* = 1
    clf = Classifier(np.array([1.0]), 0.0)

    # ratio 0 (on the decision boundary): indifferent at cost exactly 2 -> moves
    r = interact(np.array([0.0]), 1, clf, m).response
    assert r[0] == pytest.approx(1.0, abs=0)

    # slightly below 0 but within the geometric guard: still moves
    r = interact(np.array([-EPS_GEOM / 2]), 1, clf, m).response
    assert r[0] == pytest.approx(1.0, abs=1e-12)

    # clearly below the window: stays put
    assert interact(np.array([-1e-6]), 1, clf, m).response[0] == -1e-6

    # at the top edge the prediction is already +1, nothing to gain
    assert interact(np.array([1.0]), 1, clf, m).response[0] == 1.0
    assert interact(np.array([2.0]), 1, clf, m).response[0] == 2.0


def test_response_independent_of_label():
    # the window test uses position only: a negative agent inside it moves too
    m = CostModel(L2, c=2.0, dim=1)
    clf = Classifier(np.array([1.0]), 0.0)
    assert interact(np.array([0.5]), -1, clf, m).response[0] == pytest.approx(1.0)


def test_zero_classifier_is_inert():
    m = CostModel(L2, c=2.0, dim=2)
    x = np.array([0.3, -0.7])
    clf = Classifier(np.zeros(2), 0.5)
    out = interact(x, -1, clf, m)
    assert np.array_equal(out.response, x)
    assert out.predicted == 1  # sign(b) with b > 0
    assert interact(x, -1, Classifier(np.zeros(2), -0.5), m).predicted == -1
    assert interact(x, -1, Classifier(np.zeros(2), 0.0), m).predicted == 1


def proxy_of(x, label, clf, m):
    """``proxy_from_response`` of one response, with the prediction the protocol makes on it."""
    x = np.asarray(x, dtype=float)
    return proxy_from_response(x[None], [label], [offset_prediction(clf, m, x)], clf, m)[0]


def test_proxy_pulls_back_negative_boundary_response():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    r = interact(np.array([-1.0, 1.0]), -1, clf, m).response
    s = proxy_of(r, -1, clf, m)
    # pulled state sits back on the decision boundary side the agent came from
    assert np.max(np.abs(s - (r - m.two_over_c * clf.y / math.sqrt(5)))) <= 1e-15
    assert ratio(clf, m, s) == pytest.approx(0.0, abs=1e-15)


def test_proxy_keeps_positive_and_off_boundary_responses():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    r = interact(np.array([-1.0, 1.0]), 1, clf, m).response
    assert np.array_equal(proxy_of(r, 1, clf, m), r)
    # truthful negatives are nowhere near the boundary: stored as-is
    x = np.array([-3.0, -1.0])
    assert np.array_equal(proxy_of(x, -1, clf, m), x)
    # a noisy response missing the boundary by more than the guard: as-is
    noisy = r + 1e-6 * clf.y
    assert np.array_equal(proxy_of(noisy, -1, clf, m), noisy)


def test_proxy_zero_classifier_passthrough():
    m = CostModel(L2, c=4.0, dim=2)
    x = np.array([1.0, 2.0])
    assert np.array_equal(proxy_of(x, -1, Classifier(np.zeros(2), 0.0), m), x)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), token=st.sampled_from(["l2", "l1", "linf", "lp:3"]), zero_y=st.booleans())
def test_block_proxies_equal_one_row_proxies_bit_for_bit(seed, token, zero_y):
    # responses on the 2/c boundary, pushed EPS_GEOM/2 and 3 EPS_GEOM/2 off it
    # either way, and repeated; each row's proxy is the one it gets alone, and
    # the one the scalar rule gives from its own margin ratio
    rng = np.random.default_rng(seed)
    m = CostModel(parse_norm(token), c=float(rng.uniform(0.5, 8.0)), dim=3)
    clf = Classifier(np.zeros(3) if zero_y else rng.normal(size=3), float(rng.normal()))
    labels = rng.choice([-1, 1], size=10)
    R = np.array([interact(a, int(lbl), clf, m).response for a, lbl in zip(rng.normal(size=(10, 3)), labels)])
    if not zero_y:
        off = rng.choice([-1.5, -0.5, 0.5, 1.5], size=(10, 1)) * EPS_GEOM * clf.dual_norm(m)
        R = np.vstack([R, R + off * clf.y / float(clf.y @ clf.y)])
        labels = np.concatenate([labels, labels])
    R, labels = np.vstack([R, R[::3]]), np.concatenate([labels, labels[::3]])
    predicted = np.array([offset_prediction(clf, m, r) for r in R])
    block = proxy_from_response(R, labels, predicted, clf, m)
    dn = dual_norm_eval(m, clf.y)
    for j, r in enumerate(R):
        one = proxy_from_response(R[j : j + 1], labels[j : j + 1], predicted[j : j + 1], clf, m)
        assert one.tobytes() == block[j].tobytes()
        on_boundary = dn > 0 and labels[j] == -1 and abs(ratio(clf, m, r) - m.two_over_c) <= EPS_GEOM
        want = r - m.two_over_c * manipulation_direction(m, clf.y) if on_boundary else r
        assert block[j].tobytes() == want.tobytes()


def test_interact_without_noise_observes_the_best_response():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    for features in ([-1.0, 1.0], [2.0, 2.0]):  # one agent moves, one stays put
        x = np.array(features)
        out = interact(x, 1, clf, m)
        assert out.response.tobytes() == oracle_interact(x, 1, clf, m).response.tobytes()


def test_interact_noise_adds_gaussian_perturbation():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    x = np.array([-1.0, 1.0])
    r0 = interact(x, 1, clf, m).response
    out = interact(x, 1, clf, m, 1e-3 * np.random.default_rng(3).standard_normal(2))
    delta = np.linalg.norm(out.response - r0)
    assert 0 < delta < 1e-2


def test_interact_flags():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    # manipulating positive: classified +1, no mistake
    out = interact(np.array([-1.0, 1.0]), 1, clf, m)
    assert out.manipulated and out.predicted == 1 and not out.mistake
    # manipulating negative: ends on the boundary, predicted +1 -> mistake,
    # and the proxy built from the response is the pulled-back state
    out = interact(np.array([-1.0, 1.0]), -1, clf, m)
    assert out.manipulated and out.predicted == 1 and out.mistake
    proxy = proxy_of(out.response, -1, clf, m)
    assert ratio(clf, m, proxy) == pytest.approx(0.0, abs=1e-15)
    # truthful far positive
    out = interact(np.array([2.0, 2.0]), 1, clf, m)
    assert not out.manipulated and not out.mistake
    assert np.array_equal(proxy_of(out.response, 1, clf, m), np.array([2.0, 2.0]))


def test_interact_noisy_uses_observed_response_for_learning():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    x = np.array([-1.0, 1.0])
    out = interact(x, -1, clf, m, 1e-3 * np.random.default_rng(5).standard_normal(2))
    # manipulation is judged on the clean response...
    assert out.manipulated
    # ...but the noisy observation misses the boundary, so no pull-back
    assert np.array_equal(proxy_of(out.response, -1, clf, m), out.response)
    assert not np.array_equal(out.response, interact(x, -1, clf, m).response)


@pytest.mark.parametrize("token", ["l2", "l1", "linf", "lp:3", "wl1:1,2"])
@pytest.mark.parametrize("alpha", [0.5, 2.0, 7.3])
def test_response_invariant_under_classifier_scaling(token, alpha):
    m = CostModel(parse_norm(token), c=4.0, dim=2)
    rng = np.random.default_rng(17)
    for _ in range(50):
        y = rng.normal(size=2)
        b = float(rng.normal())
        x = rng.normal(size=2)
        clf = Classifier(y, b)
        scaled = Classifier(alpha * y, alpha * b)
        assert np.allclose(interact(x, 1, clf, m).response, interact(x, 1, scaled, m).response, atol=1e-12)
        assert offset_prediction(clf, m, x) == offset_prediction(scaled, m, x)


def test_l1_response_moves_single_coordinate():
    m = CostModel(L1, c=2.0, dim=2)
    clf = Classifier(np.array([0.75, 0.25]), 0.0)  # ||y||_inf = 0.75
    r = interact(np.array([0.0, 0.0]), 1, clf, m).response
    # all movement lands on the heaviest coordinate
    assert r[1] == 0.0 and r[0] == pytest.approx(1.0)


class _Draws:
    """A noise generator for ``oracle_interact`` that hands out given rows in order."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def standard_normal(self, size):
        return next(self.rows)


def _assert_answers_like_interact(A, clf, m, sigma, Z):
    """``answer`` on the block ``A`` reports, row by row and bit for bit, what ``interact`` does.

    Both take the noise rows ``sigma * Z``, none for ``sigma == 0``.
    """
    noise = None if sigma == 0.0 else sigma * Z
    observed, predicted, manipulated = answer(A, clf, m, noise)
    assert observed.shape == A.shape and predicted.shape == manipulated.shape == (len(A),)
    for j in range(len(A)):
        out = interact(A[j], 1, clf, m, None if noise is None else noise[j])
        assert out.response.tobytes() == observed[j].tobytes()
        assert out.predicted == predicted[j]
        assert out.manipulated == manipulated[j]
    return manipulated


def _placed_rows(rng, m, clf, targets, d, scale=1.0):
    """Random rows moved along ``y`` so their margin ratios hit ``targets`` up to rounding."""
    A = scale * rng.standard_normal((len(targets), d))
    y, dn = clf.y, dual_norm_eval(m, clf.y)
    if dn > 0:
        A += np.outer(targets * dn - (A @ y + clf.b), y / (y @ y))
    return A


@pytest.mark.parametrize("norm", ["l2", "l1", "linf", "lp:3"])
@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_screen_answers_like_interact_on_every_row_it_decides(norm, sigma):
    # a block of agents answered by ``answer`` in one pass: every row decided
    # as interact decides it, the rows on the window edges and the offset
    # threshold included
    rng = np.random.default_rng(5)
    d = 5
    m = CostModel(parse_norm(norm), c=8.0, dim=d)
    for y, b in ((rng.standard_normal(d), 0.1), (rng.standard_normal(d), -0.3), (np.zeros(d), 0.0)):
        clf = Classifier(y, b)
        dn = dual_norm_eval(m, y)
        # rows with ratios spread over and around the window, and rows placed on
        # its edges and on the offset threshold up to the rounding of the placement
        targets = np.r_[rng.uniform(-3.0, 3.0, 600) * m.two_over_c,
                        np.repeat([0.0, -EPS_GEOM, m.two_over_c, m.two_over_c - EPS_GEOM], 50)]
        A = _placed_rows(rng, m, clf, targets, d)
        Z = rng.standard_normal(A.shape)
        manipulated = _assert_answers_like_interact(A, clf, m, sigma, Z)
        in_window = np.array([dn > 0 and -EPS_GEOM <= ratio(clf, m, a) < m.two_over_c for a in A])
        # an agent just below the upper edge may move by less than an ulp
        assert not np.any(manipulated & ~in_window)
        assert np.any(manipulated) == (dn > 0) and not np.all(in_window)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 33),
    k=st.integers(1, 90),
    norm=st.sampled_from(["l2", "l1", "linf", "lp:3"]),
    sigma=st.sampled_from([0.0, 1e-3]),
    zero_y=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_answer_equals_interact_row_by_row(seed, d, k, norm, sigma, zero_y, scale):
    rng = np.random.default_rng(seed)
    m = CostModel(parse_norm(norm), c=float(rng.uniform(0.5, 50.0)), dim=d)
    y = np.zeros(d) if zero_y else scale * rng.standard_normal(d)
    clf = Classifier(y, scale * float(rng.standard_normal()))
    # each row's ratio: anywhere around the window, on either window edge, or
    # (at 2/c - EPS_GEOM) with its score on the offset threshold
    edges = [0.0, -EPS_GEOM, m.two_over_c, m.two_over_c - EPS_GEOM]
    targets = np.where(rng.random(k) < 0.5, rng.choice(edges, k),
                       rng.uniform(-2.0, 3.0, k) * m.two_over_c)
    A = _placed_rows(rng, m, clf, targets, d, scale)
    _assert_answers_like_interact(A, clf, m, sigma, rng.standard_normal(A.shape))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    norm=st.sampled_from(["l2", "l1", "linf", "lp:3", "wl1"]),
    sigma=st.sampled_from([0.0, 1e-3]),
    y_kind=st.sampled_from(["random", "unit", "zero"]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_interact_equals_the_frozen_round_bit_for_bit(seed, d, norm, sigma, y_kind, scale):
    # the one-agent round against its first formulation in ``tests/oracle.py``:
    # random rows, rows placed on the window edges and the offset threshold, and
    # (for a unit y, b = 0, whose ratios are the rows' k-th coordinates) rows
    # exactly on them
    rng = np.random.default_rng(seed)
    k = int(rng.integers(d))
    if norm == "wl1":  # weight 1 at coordinate k keeps ||e_k||_* = 1
        weights = rng.uniform(0.25, 4.0, d)
        weights[k] = 1.0
        norm = "wl1:" + ",".join(repr(float(w)) for w in weights)
    m = CostModel(parse_norm(norm), c=float(rng.uniform(0.5, 50.0)), dim=d)
    edges = [0.0, -EPS_GEOM, m.two_over_c, m.two_over_c - EPS_GEOM]
    targets = np.where(rng.random(40) < 0.5, rng.choice(edges, 40),
                       rng.uniform(-2.0, 3.0, 40) * m.two_over_c)
    if y_kind == "unit":
        clf = Classifier(np.eye(d)[k], 0.0)
        A = scale * rng.standard_normal((40, d))
        A[:, k] = targets
    else:
        y = np.zeros(d) if y_kind == "zero" else scale * rng.standard_normal(d)
        clf = Classifier(y, scale * float(rng.standard_normal()))
        A = _placed_rows(rng, m, clf, targets, d, scale)
    Z = rng.standard_normal(A.shape)
    for a, z, label in zip(A, Z, rng.choice([-1, 1], len(A)).tolist()):
        got = interact(a, label, clf, m, None if sigma == 0.0 else sigma * z)
        want = oracle_interact(a, label, clf, m, sigma, _Draws([z]))
        assert got.response.tobytes() == want.response.tobytes()
        assert (got.predicted, got.manipulated, got.mistake) == (
            want.predicted, want.manipulated, want.mistake)
        assert type(got.manipulated) is bool and type(got.mistake) is bool

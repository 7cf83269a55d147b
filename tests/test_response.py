"""Agent best response, offset prediction, proxies, and single-round protocol."""

import math

import numpy as np
import pytest

from stratclass.norms import EPS_GEOM, L1, L2, CostModel, parse_norm
from stratclass.response import (
    Agent,
    Classifier,
    interact,
    margin_ratio,
    predict,
    proxy_from_response,
    respond,
    sign,
)


def test_sign_of_zero_is_positive():
    assert sign(0.0) == 1
    assert sign(5.0) == 1
    assert sign(-1e-300) == -1


def test_respond_worked_instance():
    # c = 4 under l2 cost, classifier ((1, 2), 0): the agent at (-1, 1) has
    # margin ratio 1/sqrt(5), inside [0, 1/2), and moves along (1, 2)/sqrt(5)
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    r = respond(Agent(np.array([-1.0, 1.0]), 1), clf, m)
    expected = np.array([-6 / 5 + math.sqrt(5) / 10, 3 / 5 + math.sqrt(5) / 5])
    assert np.max(np.abs(r - expected)) <= 1e-12


def test_respond_lands_exactly_on_offset_boundary():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    r = respond(Agent(np.array([-1.0, 1.0]), 1), clf, m)
    assert margin_ratio(clf, m, r) == pytest.approx(m.two_over_c, abs=1e-15)
    # ... and sign(0) = +1 resolves the resulting knife-edge score to +1
    assert predict(clf, m, r) == 1


def test_manipulation_window_edges():
    m = CostModel(L2, c=2.0, dim=1)  # 2/c = 1, ||y||_* = 1
    clf = Classifier(np.array([1.0]), 0.0)

    # ratio 0 (on the decision boundary): indifferent at cost exactly 2 -> moves
    r = respond(Agent(np.array([0.0]), 1), clf, m)
    assert r[0] == pytest.approx(1.0, abs=0)

    # slightly below 0 but within the geometric guard: still moves
    r = respond(Agent(np.array([-EPS_GEOM / 2]), 1), clf, m)
    assert r[0] == pytest.approx(1.0, abs=1e-12)

    # clearly below the window: stays put
    assert respond(Agent(np.array([-1e-6]), 1), clf, m)[0] == -1e-6

    # at the top edge the prediction is already +1, nothing to gain
    assert respond(Agent(np.array([1.0]), 1), clf, m)[0] == 1.0
    assert respond(Agent(np.array([2.0]), 1), clf, m)[0] == 2.0


def test_response_independent_of_label():
    # the window test uses position only: a negative agent inside it moves too
    m = CostModel(L2, c=2.0, dim=1)
    clf = Classifier(np.array([1.0]), 0.0)
    assert respond(Agent(np.array([0.5]), -1), clf, m)[0] == pytest.approx(1.0)


def test_zero_classifier_is_inert():
    m = CostModel(L2, c=2.0, dim=2)
    x = np.array([0.3, -0.7])
    clf = Classifier(np.zeros(2), 0.5)
    assert np.array_equal(respond(Agent(x, -1), clf, m), x)
    assert predict(clf, m, x) == 1  # sign(b) with b > 0
    assert predict(Classifier(np.zeros(2), -0.5), m, x) == -1
    assert predict(Classifier(np.zeros(2), 0.0), m, x) == 1


def test_proxy_pulls_back_negative_boundary_response():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    agent = Agent(np.array([-1.0, 1.0]), -1)
    r = respond(agent, clf, m)
    s = proxy_from_response(r, -1, clf, m)
    # pulled state sits back on the decision boundary side the agent came from
    assert np.max(np.abs(s - (r - m.two_over_c * clf.y / math.sqrt(5)))) <= 1e-15
    assert margin_ratio(clf, m, s) == pytest.approx(0.0, abs=1e-15)


def test_proxy_keeps_positive_and_off_boundary_responses():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    r = respond(Agent(np.array([-1.0, 1.0]), 1), clf, m)
    assert np.array_equal(proxy_from_response(r, 1, clf, m), r)
    # truthful negatives are nowhere near the boundary: stored as-is
    x = np.array([-3.0, -1.0])
    assert np.array_equal(proxy_from_response(x, -1, clf, m), x)
    # a noisy response missing the boundary by more than the guard: as-is
    noisy = r + 1e-6 * clf.y
    assert np.array_equal(proxy_from_response(noisy, -1, clf, m), noisy)


def test_proxy_zero_classifier_passthrough():
    m = CostModel(L2, c=4.0, dim=2)
    x = np.array([1.0, 2.0])
    assert np.array_equal(proxy_from_response(x, -1, Classifier(np.zeros(2), 0.0), m), x)


def test_interact_sigma_zero_consumes_no_randomness():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    out = interact(Agent(np.array([-1.0, 1.0]), 1), clf, m, 0.0, rng)
    assert rng.bit_generator.state == before
    assert np.array_equal(out.response, respond(Agent(np.array([-1.0, 1.0]), 1), clf, m))


def test_interact_noise_adds_gaussian_perturbation():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    agent = Agent(np.array([-1.0, 1.0]), 1)
    r0 = respond(agent, clf, m)
    out = interact(agent, clf, m, 1e-3, np.random.default_rng(3))
    delta = np.linalg.norm(out.response - r0)
    assert 0 < delta < 1e-2


def test_interact_flags():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    # manipulating positive: classified +1, no mistake
    out = interact(Agent(np.array([-1.0, 1.0]), 1), clf, m)
    assert out.manipulated and out.predicted == 1 and not out.mistake
    # manipulating negative: ends on the boundary, predicted +1 -> mistake,
    # and the proxy built from the response is the pulled-back state
    out = interact(Agent(np.array([-1.0, 1.0]), -1), clf, m)
    assert out.manipulated and out.predicted == 1 and out.mistake
    proxy = proxy_from_response(out.response, -1, clf, m)
    assert margin_ratio(clf, m, proxy) == pytest.approx(0.0, abs=1e-15)
    # truthful far positive
    out = interact(Agent(np.array([2.0, 2.0]), 1), clf, m)
    assert not out.manipulated and not out.mistake
    assert np.array_equal(proxy_from_response(out.response, 1, clf, m), np.array([2.0, 2.0]))


def test_interact_noisy_uses_observed_response_for_learning():
    m = CostModel(L2, c=4.0, dim=2)
    clf = Classifier(np.array([1.0, 2.0]), 0.0)
    agent = Agent(np.array([-1.0, 1.0]), -1)
    out = interact(agent, clf, m, sigma=1e-3, noise_rng=np.random.default_rng(5))
    # manipulation is judged on the clean response...
    assert out.manipulated
    # ...but the noisy observation misses the boundary, so no pull-back
    assert np.array_equal(proxy_from_response(out.response, -1, clf, m), out.response)
    assert not np.array_equal(out.response, respond(agent, clf, m))


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
        agent = Agent(x, 1)
        assert np.allclose(respond(agent, clf, m), respond(agent, scaled, m), atol=1e-12)
        assert predict(clf, m, x) == predict(scaled, m, x)


def test_l1_response_moves_single_coordinate():
    m = CostModel(L1, c=2.0, dim=2)
    clf = Classifier(np.array([0.75, 0.25]), 0.0)  # ||y||_inf = 0.75
    r = respond(Agent(np.array([0.0, 0.0]), 1), clf, m)
    # all movement lands on the heaviest coordinate
    assert r[1] == 0.0 and r[0] == pytest.approx(1.0)

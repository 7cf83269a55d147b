"""Norm families, dual norms, best-response directions, envelope constants."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratclass.norms import (
    L1,
    L2,
    LINF,
    CostModel,
    NormKind,
    dual_norm_eval,
    l2_envelope_constant,
    l2_norm,
    manipulation_direction,
    norm_eval,
    norming_functional,
    parse_norm,
)

LP3 = NormKind("lp", p=3.0)
WL1 = NormKind("wl1", weights=(2.0, 0.5, 1.0))


def test_parse_norm_tokens():
    assert parse_norm("l2") is L2 or parse_norm("l2") == L2
    assert parse_norm("l1") == L1
    assert parse_norm("linf") == LINF
    assert parse_norm("lp:3") == LP3
    assert parse_norm("lp:1.5").p == 1.5
    assert parse_norm("wl1:2,0.5,1") == WL1


@pytest.mark.parametrize(
    "token",
    ["", "l3", "lp", "lp:1", "lp:inf", "lp:abc", "wl1:", "wl1:1,-2", "wl1:0",
     "wl1:nan,1,1,1,1,1", "wl1:inf,1,1,1,1,1"],
)
def test_parse_norm_rejects_bad_tokens(token):
    with pytest.raises(ValueError):
        parse_norm(token)


def test_norm_token_round_trip():
    for m in (L2, L1, LINF, LP3, WL1, parse_norm("lp:2.5"), parse_norm("lp:1.23456789"),
              parse_norm("wl1:0.123456789,2")):
        assert parse_norm(m.token()) == m


def test_norm_kind_validation():
    with pytest.raises(ValueError):
        NormKind("l7")
    with pytest.raises(ValueError):
        NormKind("lp")  # missing p
    with pytest.raises(ValueError):
        NormKind("l2", p=3.0)  # p only for lp
    with pytest.raises(ValueError):
        NormKind("wl1", weights=(1.0, 0.0))
    with pytest.raises(ValueError):
        NormKind("l1", weights=(1.0,))


def test_cost_model_validation():
    CostModel(L2, c=2.0, dim=3)
    with pytest.raises(ValueError):
        CostModel(L2, c=0.0, dim=3)
    with pytest.raises(ValueError):
        CostModel(L2, c=-1.0, dim=3)
    with pytest.raises(ValueError):
        CostModel(L2, c=1.0, dim=0)
    with pytest.raises(ValueError):
        CostModel(WL1, c=1.0, dim=2)  # weight count must match dim


def test_two_over_c():
    assert CostModel(L2, c=4.0, dim=2).two_over_c == 0.5
    assert CostModel(L1, c=0.5, dim=2).two_over_c == 4.0


def test_norm_eval_hand_values():
    x = np.array([3.0, -4.0, 0.0])
    assert norm_eval(L2, x) == 5.0
    assert norm_eval(L1, x) == 7.0
    assert norm_eval(LINF, x) == 4.0
    assert norm_eval(WL1, x) == pytest.approx(2 * 3 + 0.5 * 4, abs=0)
    assert norm_eval(LP3, x) == pytest.approx((27 + 64) ** (1 / 3), rel=1e-15)


def test_dual_norm_hand_values():
    y = np.array([3.0, -4.0, 0.0])
    # dual pairs: l2<->l2, l1<->linf, linf<->l1, lp<->lq, wl1<->weighted linf
    assert dual_norm_eval(L2, y) == 5.0
    assert dual_norm_eval(L1, y) == 4.0
    assert dual_norm_eval(LINF, y) == 7.0
    q = 1.5  # conjugate of p=3
    assert dual_norm_eval(LP3, y) == pytest.approx((3**q + 4**q) ** (1 / q), rel=1e-15)
    assert dual_norm_eval(WL1, y) == pytest.approx(max(3 / 2.0, 4 / 0.5), abs=0)


@pytest.mark.parametrize("m", [L2, L1, LINF, LP3, WL1])
def test_direction_achieves_dual_norm(m):
    rng = np.random.default_rng(7)
    dim = 3
    for _ in range(200):
        y = rng.normal(size=dim)
        v = manipulation_direction(m, y)
        # v maximizes y^T v over the unit cost ball, and the max is ||y||_*
        assert norm_eval(m, v) == pytest.approx(1.0, abs=1e-12)
        assert float(y @ v) == pytest.approx(dual_norm_eval(m, y), rel=1e-12)


@pytest.mark.parametrize("m", [L2, L1, LINF, LP3, WL1])
def test_direction_of_zero_is_zero(m):
    v = manipulation_direction(m, np.zeros(3))
    assert np.array_equal(v, np.zeros(3))


def test_l1_direction_tie_break_is_first_max():
    # |y_1| == |y_2|: the move concentrates on the lowest-index coordinate
    v = manipulation_direction(L1, np.array([2.0, -2.0, 1.0]))
    assert np.array_equal(v, np.array([1.0, 0.0, 0.0]))
    v = manipulation_direction(L1, np.array([-2.0, 2.0, 1.0]))
    assert np.array_equal(v, np.array([-1.0, 0.0, 0.0]))


def test_wl1_direction_tie_break_is_first_max():
    m = NormKind("wl1", weights=(2.0, 1.0, 1.0))
    # |y_i|/w_i: (1, 2, 2) -> index 1 wins the tie with index 2
    v = manipulation_direction(m, np.array([2.0, 2.0, -2.0]))
    assert np.array_equal(v, np.array([0.0, 1.0, 0.0]))


def test_linf_direction_uses_plus_one_on_zero_coordinates():
    v = manipulation_direction(LINF, np.array([0.0, -3.0]))
    assert np.array_equal(v, np.array([1.0, -1.0]))


def test_l2_direction_is_normalized_y():
    y = np.array([3.0, 4.0])
    assert np.allclose(manipulation_direction(L2, y), y / 5.0, atol=0)


def test_envelope_constants():
    d = 4
    assert l2_envelope_constant(CostModel(L2, 1.0, d)) == 1.0
    assert l2_envelope_constant(CostModel(L1, 1.0, d)) == 1.0
    assert l2_envelope_constant(CostModel(LINF, 1.0, d)) == pytest.approx(math.sqrt(d))
    # p > 2 pays d^(1/2 - 1/p); p <= 2 pays nothing
    assert l2_envelope_constant(CostModel(LP3, 1.0, d)) == pytest.approx(d ** (0.5 - 1 / 3.0))
    assert l2_envelope_constant(CostModel(NormKind("lp", p=1.5), 1.0, d)) == 1.0
    wl1 = NormKind("wl1", weights=(2.0, 0.5, 1.0, 4.0))
    assert l2_envelope_constant(CostModel(wl1, 1.0, d)) == pytest.approx(1 / 0.5)


@pytest.mark.parametrize("m", [L2, L1, LINF, LP3, WL1])
def test_envelope_constant_bounds_l2_norm_on_unit_ball(m):
    rng = np.random.default_rng(11)
    C = l2_envelope_constant(CostModel(m, 1.0, 3))
    for _ in range(300):
        x = rng.normal(size=3)
        nm = norm_eval(m, x)
        if nm == 0:
            continue
        assert np.linalg.norm(x / nm) <= C + 1e-12


@st.composite
def _norm_and_vectors(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["l2", "l1", "linf", "lp:2.5", "wl1"]))
    if kind == "wl1":
        weights = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
        norm = NormKind("wl1", weights=tuple(weights))
    else:
        norm = parse_norm(kind)
    coords = st.floats(-100.0, 100.0)
    y1 = np.array(draw(st.lists(coords, min_size=d, max_size=d)))
    y2 = np.array(draw(st.lists(coords, min_size=d, max_size=d)))
    return norm, y1, y2


class TestDualNormIsANorm:
    @given(_norm_and_vectors())
    def test_triangle_inequality(self, arg):
        norm, y1, y2 = arg
        lhs = dual_norm_eval(norm, y1 + y2)
        rhs = dual_norm_eval(norm, y1) + dual_norm_eval(norm, y2)
        assert lhs <= rhs + 1e-9 * max(rhs, 1.0)

    @given(_norm_and_vectors(), st.floats(-1e3, 1e3))
    def test_absolute_homogeneity(self, arg, alpha):
        norm, y, _ = arg
        assert math.isclose(
            dual_norm_eval(norm, alpha * y),
            abs(alpha) * dual_norm_eval(norm, y),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )


@given(_norm_and_vectors())
def test_norming_functional_supports_the_ball_at_x(arg):
    norm, x, _ = arg
    y = norming_functional(norm, x)
    if not np.any(x):
        assert not np.any(y)
        return
    assert math.isclose(dual_norm_eval(norm, y), 1.0, rel_tol=1e-12)
    assert math.isclose(float(y @ x), norm_eval(norm, x), rel_tol=1e-12)


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(0,), (1,), (6,), (33,), (300,), (4, 5)]),
    layout=st.sampled_from(["C", "F", "strided"]),
    exponent=st.integers(-100, 100),
)
def test_l2_norm_is_numpys_norm_bit_for_bit_in_range(seed, shape, layout, exponent):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0**exponent
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = np.repeat(x, 2, axis=-1)[..., ::2]
    assert l2_norm(x) == float(np.linalg.norm(x))


def test_l2_kernels_rescale_inputs_whose_squares_leave_the_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(manipulation_direction(L2, [5.2e-187, 0.0]), [1.0, 0.0])
        assert norm_eval(L2, [1e300, 1e300]) == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
        assert dual_norm_eval(L2, [-3e200, 4e200]) == pytest.approx(5e200, rel=1e-15)
        assert norm_eval(L2, [3e-170, 4e-170]) == pytest.approx(5e-170, rel=1e-15)
        assert norm_eval(L2, [0.0, 0.0]) == 0.0
        assert norm_eval(L2, [math.inf, 1.0]) == math.inf
        assert math.isnan(norm_eval(L2, [math.nan, 1.0]))


def test_lp_kernels_rescale_inputs_whose_powers_leave_the_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = manipulation_direction(LP3, [1e300, 1e300])
        assert np.allclose(v, [0.5 ** (1.0 / 3.0)] * 2, rtol=1e-15) and norm_eval(LP3, v) == pytest.approx(1.0)
        assert norm_eval(parse_norm("lp:20"), [1e20, 1.0]) == pytest.approx(1e20, rel=1e-15)
        assert norm_eval(parse_norm("lp:2.5"), [4.69e-148, 0.0]) == 4.69e-148
        assert dual_norm_eval(LP3, [3e-200, -3e-200]) == pytest.approx(2.0 ** (2.0 / 3.0) * 3e-200, rel=1e-15)
        assert norm_eval(LP3, [0.0, 0.0]) == 0.0
        assert norm_eval(LP3, [math.inf, 1.0]) == math.inf
        assert math.isnan(norm_eval(LP3, [math.nan, 1.0]))


_NORMS = [L2, L1, LINF, LP3, parse_norm("lp:2.5"), parse_norm("lp:1.5"), parse_norm("lp:20"), "wl1"]


def _root_slack(norm, power) -> float:
    """Relative error an in-range lp kernel owes to the rounded exponent ``1/r``.

    In range the lp kernels keep ``sum(a**r) ** (1/r)`` bit for bit, and
    ``1/r`` rounded by ``d`` moves that root by up to ``|ln sum| * d``
    relative, ``|ln sum| < 710`` for every finite normal sum.  Zero for
    every other norm.
    """
    if norm.kind != "lp":
        return 0.0
    r = {"primal": norm.p, "dual": norm.p / (norm.p - 1.0)}[power]
    return 710.0 * float(abs(Fraction(1.0 / r) - 1 / Fraction(r)))


@pytest.mark.parametrize("norm", _NORMS, ids=lambda m: m if isinstance(m, str) else m.token())
@given(
    x=st.lists(st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), min_size=1, max_size=8),
    exponent=st.integers(-200, 200),
)
def test_norms_scale_exactly_at_any_magnitude(norm, x, exponent):
    x, s = np.array(x), 10.0**exponent
    if norm == "wl1":
        norm = NormKind("wl1", weights=tuple(np.linspace(0.5, 2.0, len(x))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, power in ((norm_eval, "primal"), (dual_norm_eval, "dual")):
            rel = 1e-14 + _root_slack(norm, power)
            assert math.isclose(f(norm, s * x), s * f(norm, x), rel_tol=rel)
        if not np.any(x):
            return
        v = manipulation_direction(norm, s * x)
        if norm.strictly_convex:  # one maximizer, the same at every scale
            # lp: v = (|y| / ||y||_*) ** (q - 1), the dual norm's error raised to q - 1
            q = norm.p / (norm.p - 1.0) if norm.kind == "lp" else 2.0
            rel = 1e-14 + max(q - 1.0, 1.0) * _root_slack(norm, "dual")
            assert np.allclose(v, manipulation_direction(norm, x), rtol=rel, atol=1e-15)
        else:  # a face of maximizers: rounding s·x can change which one ties break to
            assert math.isclose(norm_eval(norm, v), 1.0, rel_tol=1e-14)
            assert math.isclose(float((s * x) @ v), dual_norm_eval(norm, s * x), rel_tol=1e-14)

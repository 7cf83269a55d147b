"""Certificate arithmetic: population radii, contraction factors, mistake bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import oracle_half_diameter
from stratclass.bounds import (
    Benchmark,
    DatasetConstants,
    HypothesisViolation,
    _CHUNK,
    _half_diameter,
    dataset_constants,
    kappa_l2_upper,
    perceptron_mistake_bound,
    smm_manipulation_bounds,
    smm_mistake_bound,
)
from stratclass.data import Dataset, SynthConfig, generate_synthetic
from stratclass.learners import ConeKind
from stratclass.norms import L1, L2, LINF, CostModel


def make_consts(D=2.0, D_pm=2.0, D_plus=1.0, D_minus=1.0, C=1.0, reach=0.5):
    return DatasetConstants(D=D, D_pm=D_pm, D_plus=D_plus, D_minus=D_minus, C=C, reach=reach)


def test_benchmark_requires_positive_margin():
    Benchmark(np.array([0.0, 1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        Benchmark(np.array([0.0, 1.0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        Benchmark(np.array([0.0, 1.0]), 0.0, -1.0)


@pytest.mark.parametrize(
    "y_star, b_star, d_star",
    [([0.0, 0.0], 0.0, 1.0), ([0.0, np.nan], 0.0, 1.0), ([np.inf, 1.0], 0.0, 1.0),
     ([0.0, 1.0], np.nan, 1.0), ([0.0, 1.0], -np.inf, 1.0), ([0.0, 1.0], 0.0, np.inf),
     ([0.0, 1.0], 0.0, np.nan)],
)
def test_benchmark_requires_a_finite_nonzero_classifier(y_star, b_star, d_star):
    with pytest.raises(ValueError, match="benchmark"):
        Benchmark(np.array(y_star), b_star, d_star)


def test_dataset_constants_hand_instance():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    labels = np.array([1, 1, -1])
    consts = dataset_constants(Dataset(X, labels), CostModel(L2, c=4.0, dim=2))
    assert consts.D == 1.0
    assert consts.D_pm == 1.0  # farthest pair is (1,0) vs (-1,0)
    assert consts.D_plus == pytest.approx(math.sqrt(2) / 2)
    assert consts.D_minus == 0.0  # single point
    assert consts.C == 1.0
    assert consts.reach == 0.5


def test_tilde_radii_add_the_manipulation_reach():
    consts = make_consts(D=2.0, D_pm=1.5, D_plus=1.0, D_minus=0.25, C=2.0, reach=0.5)
    assert consts.D_tilde == 2.0 + 1.0
    assert consts.D_tilde_pm == 1.5 + 1.0
    assert consts.D_tilde_plus == 2.0
    assert consts.D_tilde_minus == 1.25
    assert consts.D_bar == 2.0


def test_envelope_constant_feeds_the_radii():
    X = np.eye(4)
    consts = dataset_constants(Dataset(X, np.array([1, 1, -1, -1])), CostModel(LINF, c=1.0, dim=4))
    assert consts.C == pytest.approx(2.0)  # sqrt(d) for the l-infinity cost
    assert consts.D_tilde == pytest.approx(1.0 + 2.0 * 2.0)


def test_half_diameter_matches_brute_force_across_chunks():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(600, 3))  # crosses the internal chunk boundary
    labels = np.where(rng.random(600) < 0.5, 1, -1)
    consts = dataset_constants(Dataset(X, labels), CostModel(L2, c=1.0, dim=3))
    gram = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
    assert consts.D_pm == pytest.approx(gram.max() / 2.0, abs=1e-12)
    pos = gram[np.ix_(labels == 1, labels == 1)]
    assert consts.D_plus == pytest.approx(pos.max() / 2.0, abs=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("spread", [1e-3, 1.0])
def test_radii_of_clouds_far_from_the_origin(offset, spread):
    # distances do not depend on where the clouds sit; a kernel of squared
    # norms about the origin would cancel them away at 1e6
    rng = np.random.default_rng(8)
    X = offset + spread * rng.normal(size=(700, 3))
    labels = np.where(rng.random(700) < 0.5, 1, -1)
    consts = dataset_constants(Dataset(X, labels), CostModel(L2, c=1.0, dim=3))

    def brute(S):
        return 0.5 * max(float(np.max(np.linalg.norm(S - s, axis=1))) for s in S)

    assert consts.D_pm == pytest.approx(brute(X), rel=1e-9)
    assert consts.D_plus == pytest.approx(brute(X[labels == 1]), rel=1e-9)
    assert consts.D_minus == pytest.approx(brute(X[labels == -1]), rel=1e-9)
    assert consts.D == float(np.max(np.linalg.norm(X, axis=1)))


def test_dataset_constants_rejects_empty_or_flat_input():
    # a Dataset checks its own input, so dataset_constants never sees these
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 2)), np.array([]))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.array([1]))


@pytest.mark.parametrize(
    "features, labels, message",
    [
        (np.eye(3, 2), np.array([1, -1]), "one label per row"),
        (np.eye(2), np.array([[1, -1]]), "one label per row"),
        (np.eye(2), np.array([1, 0]), "must be \\+1/-1"),
        (np.eye(2), np.array([1, 2]), "must be \\+1/-1"),
        (np.array([[0.0, np.nan], [1.0, 0.0]]), np.array([1, -1]), "finite"),
        (np.array([[0.0, 0.0], [np.inf, 0.0]]), np.array([1, -1]), "finite"),
    ],
)
def test_dataset_constants_rejects_mismatched_labels_or_nonfinite_features(
    features, labels, message
):
    with pytest.raises(ValueError, match=message):
        Dataset(features, labels)


def _sphere(n, d, seed):
    g = np.random.default_rng(seed).normal(size=(n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


class TestPrunedHalfDiameter:
    """The pruned scan returns the pair kernel's full scan value bit for bit."""

    @staticmethod
    def check(X):
        X = np.ascontiguousarray(X, dtype=float)
        got = _half_diameter(X)
        assert got == oracle_half_diameter(X)
        return got

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_sets(self, n):
        X = np.arange(3.0 * n).reshape(n, 3)
        assert self.check(X) == (0.0 if n < 2 else 0.5 * math.sqrt(27.0))

    @pytest.mark.parametrize("n, d", [(700, 2), (1100, 6)])
    def test_points_on_a_sphere_all_survive(self, n, d):
        assert self.check(3.0 * _sphere(n, d, seed=n)) == pytest.approx(3.0, rel=1e-2)

    def test_gaussian_cloud_across_chunks(self):
        self.check(np.random.default_rng(1).normal(size=(1500, 6)))

    def test_duplicates(self):
        X = np.random.default_rng(2).normal(size=(40, 3))
        self.check(np.repeat(X, 30, axis=0))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_identical_points_give_zero(self, offset):
        assert self.check(np.full((600, 4), offset)) == 0.0

    def test_collinear_points(self):
        t = np.random.default_rng(3).uniform(-5.0, 5.0, size=900)
        self.check(np.outer(t, [1.0, -2.0, 0.5]) + [0.25, 1.0, -3.0])

    @pytest.mark.parametrize("spread", [1e-3, 1.0])
    def test_cloud_far_from_the_origin(self, spread):
        # Cancellation in sq_i + sq_j - 2 x_i.x_j is about eps * 1e12 here,
        # larger than the true squared distances at the small spread.
        rng = np.random.default_rng(4)
        self.check(1e6 + spread * rng.normal(size=(1200, 3)))

    def test_pair_the_candidate_product_rounds_differently(self):
        # With OpenBLAS, the Gram screen's maximum on this class is one ulp
        # above the pair kernel's value on the same pair; the screen only
        # filters, and the pair kernel's value must win.
        ds = generate_synthetic(SynthConfig(seed=26, n=2000))
        self.check(ds.features[ds.labels == 1])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 700),
        d=st.integers(1, 5),
        shape=st.sampled_from(["normal", "sphere", "uniform"]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
        repeats=st.integers(1, 3),
    )
    def test_matches_the_full_scan(self, seed, n, d, shape, scale, offset, repeats):
        rng = np.random.default_rng(seed)
        if shape == "normal":
            X = rng.normal(size=(n, d))
        elif shape == "sphere":
            X = _sphere(n, d, seed)
        else:
            X = rng.uniform(-1.0, 1.0, size=(n, d))
        X = np.repeat(offset + scale * X, repeats, axis=0)
        self.check(rng.permutation(X))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
        d=st.integers(1, 8),
        distinct=st.integers(1, 300),
        offset=st.floats(-1e6, 1e6),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
    )
    def test_matches_the_pair_kernel_with_repeated_rows(self, seed, n, d, distinct, offset, scale):
        rng = np.random.default_rng(seed)
        base = offset + scale * rng.normal(size=(distinct, d))
        self.check(base[rng.integers(0, distinct, size=n)])


def _population(seed, n):
    return generate_synthetic(SynthConfig(seed=seed, n=n))


@pytest.mark.parametrize("make", [
    lambda: np.random.default_rng(6).normal(size=(1500, 6)),
    lambda: 2.0 * _sphere(1100, 4, seed=9),
    lambda: _population(3, 10_000).features,
], ids=["gaussian", "sphere", "seed-3-population"])
def test_half_diameter_does_not_depend_on_row_order(make):
    X = make()
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(X))
        assert _half_diameter(X[perm]) == _half_diameter(X)


def _last_bits(point, n):
    """``n`` distinct rows that differ from ``point`` only in the low bits of each coordinate."""
    steps = np.stack([np.arange(n) % 12, np.arange(n) // 12 % 12, np.arange(n) // 144], axis=1)
    return (np.asarray(point, dtype=float).view(np.int64) + steps).view(float)


@pytest.mark.parametrize("clusters", [
    [[0.0, 0.0, 0.0], [3.0, 4.0, 12.0]],
    [[1e6, -2.0, 0.5]],
], ids=["two-clusters", "one-cluster"])
def test_every_pair_in_the_band_keeps_memory_to_a_few_chunks(clusters):
    # distinct rows clustered within a few ulps: every pair between two
    # clusters (every pair, for one) screens within the band, so the pair
    # kernel rescores n^2 / 2 pairs or more, one screened row at a time
    X = np.concatenate([_last_bits(p, 3000 // len(clusters)) for p in clusters])
    X = np.random.default_rng(0).permutation(X)
    assert len(np.unique(X, axis=0)) == len(X)
    tracemalloc.start()
    try:
        got = _half_diameter(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == oracle_half_diameter(X)
    # chunk-sized blocks: the last screen, and the next one's product and sum
    assert peak <= 4 * _CHUNK * len(X) * 8


@pytest.mark.parametrize("points, want", [
    ([[0.0, 0.0, 0.0], [3.0, 4.0, 12.0], [1.0, 1.0, 1.0], [-1.0, 2.0, 0.5]], 6.5),
    ([[1e6, -2.0, 0.5]], 0.0),
], ids=["four-points", "one-point"])
def test_repeated_points_measure_as_the_distinct_points(points, want):
    # each point repeated thousands of times: a repeat adds no pair value
    X = np.random.default_rng(0).permutation(np.repeat(np.array(points), 10_000 // len(points), axis=0))
    assert _half_diameter(X) == want == oracle_half_diameter(np.array(points))


def test_radii_of_a_large_population_measure_in_little_memory():
    ds = _population(3, 10_000)
    fresh = Dataset(ds.features, ds.labels)
    tracemalloc.start()
    try:
        fresh.radii
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6


class TestKappa:
    def test_closed_form(self):
        a, d_star, D_bar = 0.2, 1.0, 1.5
        expected = math.sqrt(max(1 - (d_star - a) ** 2 / (4 * D_bar**2), (d_star + a) / (2 * d_star)))
        assert kappa_l2_upper(a, d_star, D_bar) == expected

    def test_strictly_below_one_inside_domain(self):
        for a in (0.0, 0.3, 0.9, 0.999):
            assert kappa_l2_upper(a, 1.0, 2.0) < 1.0

    def test_nondecreasing_in_the_offset(self):
        vals = [kappa_l2_upper(a, 1.0, 2.0) for a in np.linspace(0.0, 0.99, 25)]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kappa_l2_upper(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            kappa_l2_upper(1.0, 1.0, 1.0)  # a must stay below d_star
        with pytest.raises(ValueError):
            kappa_l2_upper(0.0, 1.0, 0.0)


class TestSmmBounds:
    def test_mistake_bound_hand_value(self):
        bench = Benchmark(np.array([0.0, 1.0]), 0.0, 1.0)
        consts = make_consts()  # D_tilde_pm = 2.5, D_bar = 1.5
        kappa = math.sqrt(max(1 - 1 / 9.0, 0.5))
        expected = math.log(2.5) / math.log(1 / kappa)
        assert smm_mistake_bound(bench, consts) == pytest.approx(expected, rel=1e-12)

    def test_mistake_bound_zero_when_pool_radius_already_tight(self):
        bench = Benchmark(np.array([0.0, 1.0]), 0.0, 3.0)
        consts = make_consts()  # D_tilde_pm = 2.5 < d_star
        assert smm_mistake_bound(bench, consts) == 0.0

    def test_mistake_bound_shrinks_with_larger_margin(self):
        consts = make_consts()
        b1 = smm_mistake_bound(Benchmark(np.array([1.0]), 0.0, 0.5), consts)
        b2 = smm_mistake_bound(Benchmark(np.array([1.0]), 0.0, 1.0), consts)
        assert b2 < b1

    def test_manipulation_bounds_split_by_label(self):
        m = CostModel(L2, c=4.0, dim=2)  # reach 0.5
        bench = Benchmark(np.array([0.0, 1.0]), 0.0, 1.0)
        consts = make_consts(reach=m.two_over_c)
        neg, pos = smm_manipulation_bounds(bench, consts, m)
        # the negative-side certificate is the zero-offset contraction count
        assert neg == pytest.approx(smm_mistake_bound(bench, consts), rel=1e-12)
        kappa_pos = kappa_l2_upper(0.5, 1.0, consts.D_bar)
        assert pos == pytest.approx(math.log(2.5) / math.log(1 / kappa_pos), rel=1e-12)
        assert pos >= neg  # weaker contraction per positive-side event

    @pytest.mark.parametrize("d_star", [0.25, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("reach", [0.125, 0.5, 2.0])
    def test_negative_side_is_the_mistake_bound_bit_for_bit(self, d_star, reach):
        m = CostModel(L2, c=2.0 / reach, dim=2)
        bench = Benchmark(np.array([0.6, 0.8]), 0.1, d_star)
        consts = make_consts(D_pm=2.3, D_plus=0.7, D_minus=1.1, reach=m.two_over_c)
        neg, _ = smm_manipulation_bounds(bench, consts, m)
        assert neg.hex() == smm_mistake_bound(bench, consts).hex()

    def test_positive_side_unbounded_when_reach_eats_the_margin(self):
        m = CostModel(L2, c=4.0, dim=2)
        bench = Benchmark(np.array([0.0, 1.0]), 0.0, 0.5)  # d_star == reach
        neg, pos = smm_manipulation_bounds(bench, make_consts(reach=0.5), m)
        assert math.isfinite(neg)
        assert pos == math.inf


class TestPerceptronBounds:
    BENCH = Benchmark(np.array([0.0, 1.0]), 0.0, 1.0)

    def test_full_cone_hand_value(self):
        m = CostModel(L2, c=4.0, dim=2)
        consts = make_consts(D=1.0, reach=0.5)  # D_tilde = 1.5 -> energy 3.25
        out = perceptron_mistake_bound(self.BENCH, consts, m, ConeKind.FULL)
        assert out == pytest.approx(3.25 / 0.25)  # tilt 1, slack 0.5

    def test_full_cone_unbounded_without_slack(self):
        m = CostModel(L2, c=2.0, dim=2)  # reach 1.0 == d_star
        out = perceptron_mistake_bound(self.BENCH, make_consts(reach=1.0), m, ConeKind.FULL)
        assert out == math.inf

    def test_tilt_uses_the_dual_norm(self):
        m = CostModel(L1, c=1000.0, dim=2)
        bench = Benchmark(np.array([1.0, 1.0]), 0.5, 1.0)
        consts = make_consts(D=1.0, reach=m.two_over_c)
        # dual of l1 cost is l-infinity: ||y*||_inf = 1, tilt = 2 + 0.25
        out = perceptron_mistake_bound(bench, consts, m, ConeKind.NONNEG_WEIGHTS)
        assert out == pytest.approx(2.25 * (consts.D_tilde**2 + 1))

    def test_zero_intercept_hand_value(self):
        m = CostModel(L2, c=4.0, dim=2)
        consts = make_consts(D=1.0, reach=0.5)
        out = perceptron_mistake_bound(self.BENCH, consts, m, ConeKind.ZERO_INTERCEPT)
        assert out == pytest.approx(3.25)  # no tilt, no slack penalty

    def test_zero_intercept_requires_homogeneous_benchmark(self):
        m = CostModel(L2, c=4.0, dim=2)
        bench = Benchmark(np.array([0.0, 1.0]), 0.3, 1.0)
        with pytest.raises(HypothesisViolation):
            perceptron_mistake_bound(bench, make_consts(), m, ConeKind.ZERO_INTERCEPT)

    def test_zero_intercept_requires_euclidean_cost(self):
        m = CostModel(L1, c=4.0, dim=2)
        with pytest.raises(HypothesisViolation):
            perceptron_mistake_bound(self.BENCH, make_consts(), m, ConeKind.ZERO_INTERCEPT)

    def test_nonneg_cone_requires_nonnegative_benchmark(self):
        m = CostModel(L2, c=4.0, dim=2)
        bench = Benchmark(np.array([-0.5, 1.0]), 0.0, 1.0)
        with pytest.raises(HypothesisViolation):
            perceptron_mistake_bound(bench, make_consts(), m, ConeKind.NONNEG_WEIGHTS)

    def test_zero_benchmark_direction_rejected(self):
        # a Benchmark rejects it on construction, before any certificate sees it
        m = CostModel(L2, c=4.0, dim=2)
        with pytest.raises(ValueError):
            bench = Benchmark(np.array([0.0, 0.0]), 1.0, 1.0)
            perceptron_mistake_bound(bench, make_consts(), m, ConeKind.FULL)

    def test_hypothesis_violation_is_a_value_error(self):
        assert issubclass(HypothesisViolation, ValueError)

"""Max-margin solver: exact Euclidean path, witnesses, warm starts, cutting-plane path."""

import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    oracle_cutting_plane,
    oracle_lp,
    oracle_margin,
    oracle_nearest_points,
    oracle_polyhedral_margin,
    two_sided_certificate,
)
from stratclass.maxmargin import (
    MarginSolution,
    PointSetPair,
    SolverError,
    _columns,
    _highs_lp,
    _max,
    _min,
    incremental_check,
    margin_h,
    nearest_points_convex_hulls,
    solve_max_margin,
)
from stratclass.norms import EPS_GEOM, L1, L2, LINF, CostModel, NormKind, dual_norm_eval, norm_eval

EX1_POS = np.array([[-3.0, 1.0], [-1.0, 1.0], [1.0, 1.0]])
EX1_NEG = np.array([[-3.0, -1.0], [-1.0, -1.0], [1.0, -1.0]])


def m_l2(dim):
    return CostModel(L2, c=1.0, dim=dim)


def random_separable(rng, dim, n_pos, n_neg):
    """Two random clouds pushed apart along a random direction."""
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    gap = rng.uniform(0.05, 1.0)
    P = rng.normal(size=(n_pos, dim)) + gap * u
    N = rng.normal(size=(n_neg, dim)) - gap * u
    shift = u * (1.0 - min(np.min(P @ u), np.min(-N @ u)))
    return P + np.where(np.min(P @ u) < 1, shift, 0), N  # ensure strict separation


class TestPointSetPair:
    def test_growth_and_views(self):
        pair = PointSetPair(2)
        for k in range(20):
            pair.add([[float(k), 0.0]], 1)
            pair.add([[float(-k), 1.0]], -1)
        assert pair.n_pos == pair.n_neg == 20
        assert np.array_equal(pair.positives[:, 0], np.arange(20.0))
        assert np.array_equal(pair.negatives[:, 0], -np.arange(20.0))

    def test_from_arrays(self):
        pair = PointSetPair.from_arrays(EX1_POS, EX1_NEG)
        assert pair.n_pos == 3 and pair.n_neg == 3
        assert np.array_equal(pair.positives, EX1_POS)

    def test_rejects_bad_inputs(self):
        pair = PointSetPair(2)
        with pytest.raises(ValueError):
            pair.add([[1.0, 2.0, 3.0]], 1)
        with pytest.raises(ValueError):
            pair.add([1.0, 2.0], 1)  # a block has rows
        with pytest.raises(ValueError):
            pair.add([[1.0, 2.0]], 0)
        with pytest.raises(ValueError):
            pair.add([[1.0, 2.0], [3.0, 4.0]], [1, 1, -1])
        with pytest.raises(ValueError):
            PointSetPair.from_arrays([[1.0, 2.0]], [[1.0]])

    def test_repeated_add_stores_nothing(self):
        pair = PointSetPair.from_arrays(EX1_POS, EX1_NEG)
        for x in EX1_POS:
            pair.add(x.copy()[None], 1)
        pair.add([list(EX1_NEG[1])], -1)
        assert pair.n_pos == 3 and pair.n_neg == 3
        assert np.array_equal(pair.positives, EX1_POS)
        assert np.array_equal(pair.negatives, EX1_NEG)
        pair.add(EX1_NEG[:1], 1)  # a row is distinct per label
        assert pair.n_pos == 4 and np.array_equal(pair.positives[3], EX1_NEG[0])

    def test_from_arrays_keeps_first_occurrences_in_input_order(self):
        P = np.array([[2.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        N = np.array([[0.0, 0.0], [0.0, 0.0]])
        pair = PointSetPair.from_arrays(P, N)
        assert np.array_equal(pair.positives, P[[0, 1, 3, 5]])
        assert np.array_equal(pair.negatives, N[:1])
        pair.add([[1.0, 0.0]], 1)
        pair.add([[4.0, 0.0]], 1)
        assert np.array_equal(pair.positives, np.vstack([P[[0, 1, 3, 5]], [[4.0, 0.0]]]))

    def test_bad_inputs_raise_before_the_row_is_looked_up(self):
        pair = PointSetPair(2)
        pair.add([[1.0, 2.0]], 1)
        # same bytes as the stored row, but the wrong shape or label
        with pytest.raises(ValueError, match="shape"):
            pair.add(np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError, match="label"):
            pair.add([[1.0, 2.0]], 0)
        with pytest.raises(ValueError, match="label"):  # a bad label anywhere in the block
            pair.add([[3.0, 4.0], [1.0, 2.0]], [1, 0])
        with pytest.raises(ValueError, match="dimension"):
            PointSetPair.from_arrays([[1.0, 2.0]], [[1.0]])
        assert pair.n_pos == 1 and pair.n_neg == 0

    def test_growth_from_a_one_row_side(self):
        pair = PointSetPair.from_arrays([[0.0, 0.0]], [[5.0, 5.0], [6.0, 6.0]])
        for k in range(1, 40):
            pair.add([[float(k), 0.0]], 1)
            pair.add([[float(k - 1), 0.0]], 1)  # a repeat between every new row
        assert pair.n_pos == 40 and pair.n_neg == 2
        assert np.array_equal(pair.positives[:, 0], np.arange(40.0))
        pair.add([[7.0, 7.0]], -1)
        assert np.array_equal(pair.negatives, [[5.0, 5.0], [6.0, 6.0], [7.0, 7.0]])


def test_margin_h_matches_direct_minimum():
    rng = np.random.default_rng(2)
    for _ in range(100):
        P = rng.normal(size=(5, 3))
        N = rng.normal(size=(4, 3))
        y = rng.normal(size=3)
        b = float(rng.normal())
        pair = PointSetPair.from_arrays(P, N)
        direct = min(min(p @ y + b for p in P), min(-(n @ y) - b for n in N))
        assert margin_h(y, b, pair) == pytest.approx(direct, abs=1e-12)


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0, -2.0, math.inf, -math.inf, math.nan]),
             min_size=1, max_size=80)
    | st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=80)
)
def test_extremes_read_at_the_arg_index_are_min_and_max_bit_for_bit(values):
    # ties of +0 and -0 included; a nan propagates through both (its payload aside)
    v = np.array(values)
    for got, want in ((_min(v), v.min()), (_max(v), v.max())):
        assert type(got) is float
        assert math.isnan(got) if math.isnan(want) else np.float64(got).tobytes() == want.tobytes()


def test_margin_h_requires_both_labels():
    pair = PointSetPair(2)
    pair.add([[0.0, 1.0]], 1)
    with pytest.raises(ValueError):
        margin_h(np.ones(2), 0.0, pair)


def test_singleton_instance_exact():
    pair = PointSetPair.from_arrays([[0.0, 1.0]], [[-2.0, -1.0]])
    sol = solve_max_margin(pair, m_l2(2))
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(sol.y - np.array([s, s]))) <= 1e-9
    assert sol.b == pytest.approx(s, abs=1e-9)
    assert sol.d == pytest.approx(math.sqrt(2), abs=1e-9)
    assert sol.separable


def test_three_on_three_instance_exact():
    sol = solve_max_margin(PointSetPair.from_arrays(EX1_POS, EX1_NEG), m_l2(2))
    assert np.max(np.abs(sol.y - np.array([0.0, 1.0]))) <= 1e-9
    assert sol.b == pytest.approx(0.0, abs=1e-9)
    assert sol.d == pytest.approx(1.0, abs=1e-9)


def test_collinear_clouds():
    P = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    N = np.array([[0.5, 0.0], [1.5, 0.0], [2.5, 0.0]])
    sol = solve_max_margin(PointSetPair.from_arrays(P, N), m_l2(2))
    assert sol.d == pytest.approx(0.5, abs=1e-9)
    assert np.max(np.abs(sol.y - np.array([0.0, 1.0]))) <= 1e-8


def test_duplicate_points_are_harmless():
    P = np.vstack([EX1_POS, EX1_POS, EX1_POS[1]])
    N = np.vstack([EX1_NEG, EX1_NEG[0]])
    sol = solve_max_margin(PointSetPair.from_arrays(P, N), m_l2(2))
    assert sol.d == pytest.approx(1.0, abs=1e-9)


def test_inseparable_overlap():
    pair = PointSetPair.from_arrays([[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]])
    sol = solve_max_margin(pair, m_l2(2))
    assert not sol.separable
    assert np.array_equal(sol.y, np.zeros(2)) and sol.b == 0.0 and sol.d == 0.0


def test_near_touching_hulls_report_inseparable():
    pair = PointSetPair.from_arrays([[0.0, 1e-10]], [[0.0, -1e-10]])
    assert not solve_max_margin(pair, m_l2(2)).separable
    # an order of magnitude more room and the margin is real again
    pair = PointSetPair.from_arrays([[0.0, 1e-8]], [[0.0, -1e-8]])
    assert solve_max_margin(pair, m_l2(2)).separable


def test_empty_side_raises():
    pair = PointSetPair(2)
    pair.add([[1.0, 0.0]], 1)
    with pytest.raises(ValueError):
        solve_max_margin(pair, m_l2(2))


def test_iteration_cap_raises_solver_error(monkeypatch):
    # the solver starts from the first vertex pair, which is far from optimal here
    pair = PointSetPair.from_arrays([[1.0, 1.0], [1.0, -1.0]], [[-1.0, -1.0], [-1.0, 1.0]])
    monkeypatch.setattr("stratclass.maxmargin._MAX_WOLFE_CYCLES", 1)
    # the message states the test it applied: gap <= 2 * tol * ||u||
    with pytest.raises(SolverError, match=r"cap 1 reached .* > 2\*tol\*\|\|u\|\| = 5\.657e-10 \(tol 1\.000e-10\)"):
        nearest_points_convex_hulls(pair)


def test_solution_matches_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    for trial in range(60):
        dim = int(rng.integers(1, 5))
        P, N = random_separable(rng, dim, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        pair = PointSetPair.from_arrays(P, N)
        sol = solve_max_margin(pair, m_l2(dim))
        y0, b0, d0 = oracle_margin(P, N)
        assert sol.d == pytest.approx(d0, abs=1e-8), f"trial {trial}"
        assert np.max(np.abs(sol.y - y0)) <= 1e-6
        assert sol.b == pytest.approx(b0, abs=1e-6)


def test_witness_identities_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(60):
        dim = int(rng.integers(2, 5))
        P, N = random_separable(rng, dim, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        pair = PointSetPair.from_arrays(P, N)
        sol = solve_max_margin(pair, m_l2(dim))
        u = sol.x_plus - sol.x_minus
        dist = np.linalg.norm(u)
        # the classifier is the unit normal between the witness points
        assert np.linalg.norm(sol.y) == pytest.approx(1.0, abs=1e-9)
        assert float(sol.y @ u) == pytest.approx(dist, abs=1e-8)
        assert sol.d == pytest.approx(dist / 2.0, abs=1e-9)
        assert sol.b == pytest.approx(float(-sol.y @ (sol.x_plus + sol.x_minus)) / 2.0, abs=1e-9)
        # witnesses are convex combinations of their clouds
        wp, wn = sol.support_weights
        assert sum(wp.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(wn.values()) == pytest.approx(1.0, abs=1e-9)
        rec_p = sum(w * P[i] for i, w in wp.items())
        rec_n = sum(w * N[j] for j, w in wn.items())
        assert np.max(np.abs(rec_p - sol.x_plus)) <= 1e-8
        assert np.max(np.abs(rec_n - sol.x_minus)) <= 1e-8
        # the achieved objective value equals the reported margin
        assert margin_h(sol.y, sol.b, pair) == pytest.approx(sol.d, abs=1e-9)


def test_nearest_points_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        P, N = random_separable(rng, dim, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        res = nearest_points_convex_hulls(PointSetPair.from_arrays(P, N))
        xp, xn, dist = oracle_nearest_points(P, N)
        assert np.linalg.norm(res.x_plus - res.x_minus) == pytest.approx(dist, abs=1e-8)


def test_warm_start_agrees_with_cold_solve():
    carried = {}
    for norm in (L2, NormKind("lp", p=3.0), LINF):
        rng = np.random.default_rng(8)
        P, N = random_separable(rng, 3, 6, 6)
        pair = PointSetPair.from_arrays(P, N)
        m = CostModel(norm, 1.0, 3)
        sol = solve_max_margin(pair, m)
        d_prev = sol.d
        carried[norm.kind] = 0
        for _ in range(10):
            # a fresh point that violates the current margin forces real work
            mid = (sol.x_plus + sol.x_minus) / 2.0
            probe = mid + 0.1 * rng.normal(size=3) * sol.d
            pair.add(probe[None], 1)
            warm = solve_max_margin(pair, m, warm=sol)
            cold = solve_max_margin(pair, m)
            assert warm.separable == cold.separable
            if norm is L2:
                assert warm.d == pytest.approx(cold.d, abs=1e-9)
                assert np.max(np.abs(warm.y - cold.y)) <= 1e-6
                assert len(warm.cuts) == 0
            else:
                assert abs(warm.d - cold.d) <= 1e-10
                # the warm solve starts from every cut of the last one, and each is
                # a unit-norm row v, so v.y <= ||y||_* <= 1 on the whole dual ball
                assert np.array_equal(warm.cuts[: len(sol.cuts)], sol.cuts)
                assert all(norm_eval(m, v) <= 1.0 + 1e-12 for v in warm.cuts)
                carried[norm.kind] += len(sol.cuts)
                if norm is LINF:  # the l1 ball is exact in the LP: no cut to carry
                    assert len(sol.cuts) == len(warm.cuts) == len(cold.cuts) == 0
            assert warm.d <= d_prev + 1e-12  # adding points can only shrink the margin
            d_prev = warm.d
            sol = warm
            if not sol.separable:
                break
    assert carried["lp"] > 0


def test_incremental_check_gates_on_cached_margin():
    sol = solve_max_margin(PointSetPair.from_arrays(EX1_POS, EX1_NEG), m_l2(2))

    def gate(x, label):
        return incremental_check(sol, np.array([x]), np.array([label]))

    assert gate([5.0, 1.0], 1) == 1  # on the hull face: margin == d
    assert gate([0.0, 3.0], 1) == 1  # well clear
    assert gate([0.0, 0.5], 1) == 0  # inside the band
    assert gate([0.0, 0.5], -1) == 0
    assert gate([0.0, -1.0], -1) == 1
    # over a block: the rows before the first one inside the band
    block = np.array([[5.0, 1.0], [0.0, 3.0], [0.0, -1.0], [0.0, 0.5], [0.0, 3.0]])
    assert incremental_check(sol, block, np.array([1, 1, -1, 1, 1])) == 3
    assert incremental_check(sol, block[:3], np.array([1, 1, -1])) == 3


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zero_y=st.booleans())
def test_block_gate_equals_the_one_row_gate(seed, zero_y):
    # pool points (on the margin or clear of it), points EPS_GEOM/2 and
    # 3 EPS_GEOM/2 inside or outside the margin, and repeats; y = 0 as well
    rng = np.random.default_rng(seed)
    P, N = random_separable(rng, 3, 4, 4)
    sol = solve_max_margin(PointSetPair.from_arrays(P, N), m_l2(3))
    X, labels = np.vstack([P, N]), np.repeat([1, -1], 4)
    off = rng.choice([-1.5, -0.5, 0.5, 1.5], size=(8, 1)) * EPS_GEOM  # unit y: moves label * (y.x + b) by off
    X = np.vstack([X, X + off * labels[:, None] * sol.y, X[::2]])
    labels = np.concatenate([labels, labels, labels[::2]])
    if zero_y:
        sol = dataclasses.replace(sol, y=np.zeros(3))
    order = rng.permutation(len(X))
    X, labels = X[order], labels[order]
    one = [incremental_check(sol, X[j : j + 1], labels[j : j + 1]) for j in range(len(X))]
    assert set(one) <= {0, 1}
    for start in range(len(X)):
        leading = next((j for j, ok in enumerate(one[start:]) if not ok), len(X) - start)
        assert incremental_check(sol, X[start:], labels[start:]) == leading


_COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_COORDS, _COORDS, st.sampled_from([1, -1])), min_size=1, max_size=40),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    pooled=st.integers(0, 6),
)
def test_block_add_equals_one_row_adds(rows, sizes, pooled):
    # rows repeated inside a block and rows pooled by an earlier block; -0.0
    # and 0.0, and nan payloads, are keyed by their bytes
    X = np.array([r[:2] for r in rows])
    labels = np.array([r[2] for r in rows])
    one, block = PointSetPair(2), PointSetPair(2)
    for j in range(len(X)):
        one.add(X[j : j + 1], labels[j])
    block.add(X[:pooled], labels[:pooled])
    block.add(X[:pooled], labels[:pooled])  # all already pooled
    start, sizes = min(pooled, len(X)), itertools.cycle(sizes)
    while start < len(X):
        k = next(sizes)
        block.add(X[start : start + k], labels[start : start + k])
        start += k
    for pair in (block, PointSetPair.from_arrays(X[labels == 1].reshape(-1, 2), X[labels == -1].reshape(-1, 2))):
        assert pair.positives.tobytes() == one.positives.tobytes()
        assert pair.negatives.tobytes() == one.negatives.tobytes()
        assert pair._index == one._index


def test_cutting_plane_l1_cost_frozen_instance():
    # l1 cost => dual ball is the l-infinity box; the optimum puts margin 1/7
    # on all three points with y = (-1/7, 1) and b = 0
    z = np.array([0.75, 0.25])
    pair = PointSetPair.from_arrays([z], [-z, np.array([1.0, 0.0])])
    m = CostModel(L1, c=2.0, dim=2)
    sol = solve_max_margin(pair, m)
    assert sol.separable
    assert sol.d == pytest.approx(1 / 7, abs=1e-12)
    assert margin_h(sol.y, sol.b, pair) == pytest.approx(sol.d, abs=1e-12)
    assert np.max(np.abs(sol.y - np.array([-1 / 7, 1.0]))) <= 1e-12
    assert abs(sol.b) <= 1e-12


def test_cutting_plane_linf_cost_axis_instance():
    pair = PointSetPair.from_arrays([[1.0, 0.0]], [[-1.0, 0.0]])
    sol = solve_max_margin(pair, CostModel(LINF, c=1.0, dim=2))
    assert sol.d == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(sol.y - np.array([1.0, 0.0]))) <= 1e-10


def test_cutting_plane_lp_cost_axis_instance():
    pair = PointSetPair.from_arrays([[1.0, 0.0]], [[-1.0, 0.0]])
    sol = solve_max_margin(pair, CostModel(NormKind("lp", p=3.0), c=1.0, dim=2))
    assert sol.d == pytest.approx(1.0, abs=1e-10)


def test_cutting_plane_inseparable_overlap():
    pair = PointSetPair.from_arrays([[0.0, 0.0]], [[0.0, 0.0]])
    sol = solve_max_margin(pair, CostModel(L1, c=1.0, dim=2))
    assert not sol.separable and sol.d == 0.0


def test_cutting_plane_value_is_a_lower_bound_certified_by_h():
    # whatever the solver returns, (y, b, d) must be an achieved margin
    rng = np.random.default_rng(9)
    for _ in range(20):
        P, N = random_separable(rng, 3, 5, 5)
        pair = PointSetPair.from_arrays(P, N)
        for m in (CostModel(L1, 1.0, 3), CostModel(LINF, 1.0, 3)):
            sol = solve_max_margin(pair, m)
            if sol.separable:
                assert margin_h(sol.y, sol.b, pair) == pytest.approx(sol.d, abs=1e-15)
                assert dual_norm_eval(m, sol.y) == pytest.approx(1.0, abs=1e-15)


def _small_instance(rng, dim):
    P, N = random_separable(rng, dim, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    if rng.random() < 0.2:  # an overlapping pair now and then
        N = np.vstack([N, P[0] + 0.1 * rng.normal(size=dim)])
        N = N[-4:]
    return P, N


def test_polyhedral_solutions_match_the_vertex_oracle():
    rng = np.random.default_rng(10)
    for trial in range(120):
        dim = int(rng.integers(1, 4))
        P, N = _small_instance(rng, dim)
        kind = ("l1", "linf", "wl1")[trial % 3]
        weights = tuple(float(w) for w in rng.uniform(0.2, 3.0, dim)) if kind == "wl1" else None
        m = CostModel(NormKind(kind, weights=weights), 1.0, dim)
        sol = solve_max_margin(PointSetPair.from_arrays(P, N), m)
        best = oracle_polyhedral_margin(P, N, kind, weights)
        if sol.separable:
            assert sol.d == pytest.approx(best, abs=1e-10), f"trial {trial}"
            lower, upper = two_sided_certificate(P, N, sol, m)
            assert upper - lower <= 1e-10 and lower == pytest.approx(sol.d, abs=1e-15)
        else:
            assert best <= 10 * 1e-10 + 1e-12, f"trial {trial}"


def test_lp_norm_solutions_carry_a_two_sided_certificate():
    rng = np.random.default_rng(11)
    for trial in range(120):
        dim = int(rng.integers(1, 4))
        P, N = _small_instance(rng, dim)
        m = CostModel(NormKind("lp", p=float(np.exp(rng.uniform(0.05, 3.0)))), 1.0, dim)
        sol = solve_max_margin(PointSetPair.from_arrays(P, N), m)
        lower, upper = two_sided_certificate(P, N, sol, m)
        if sol.separable:
            assert upper - lower <= 1e-10, f"trial {trial}"
            assert lower == pytest.approx(sol.d, abs=1e-15)
        else:
            assert upper <= 10 * 1e-10


def test_margin_solution_is_frozen_value_object():
    sol = solve_max_margin(PointSetPair.from_arrays(EX1_POS, EX1_NEG), m_l2(2))
    assert isinstance(sol, MarginSolution)
    with pytest.raises(AttributeError):
        sol.d = 2.0


def test_margin_solution_counts_its_rounds_on_every_path():
    l2, lp3 = m_l2(2), CostModel(NormKind("lp", p=3.0), 1.0, 2)
    apart = PointSetPair.from_arrays(EX1_POS, EX1_NEG)
    overlap = PointSetPair.from_arrays([[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]])
    for pair in (apart, overlap):  # Wolfe major cycles, inseparable included
        rounds = nearest_points_convex_hulls(pair).iterations
        assert solve_max_margin(pair, l2).rounds == rounds
    for pair, separable in ((apart, True), (overlap, False)):  # LPs
        for m in (CostModel(L1, 1.0, 2), CostModel(LINF, 1.0, 2), lp3):
            sol = solve_max_margin(pair, m)
            assert sol.separable == separable
            assert sol.rounds == oracle_cutting_plane(pair.positives, pair.negatives, m).rounds == 1


def test_two_point_pool_certifies_in_one_lp():
    pair = PointSetPair.from_arrays([[0.3, -1.2, 0.5]], [[-0.7, 0.4, 0.1]])
    for norm in (L1, LINF, NormKind("wl1", weights=(0.5, 2.0, 1.0)), NormKind("lp", p=3.0)):
        sol = solve_max_margin(pair, CostModel(norm, 1.0, 3))
        assert sol.separable and sol.rounds == 1, norm
        half = 0.5 * norm_eval(norm, pair.positives[0] - pair.negatives[0])
        assert sol.d == pytest.approx(half, abs=1e-10)


def _symmetric_instance(seed, dim=3):
    """Clouds closed under flipping coordinate 0: their nearest points differ by u with u_0 = 0."""
    rng = np.random.default_rng(seed)
    lift = np.r_[np.zeros(dim - 1), 2.0]
    P = rng.normal(size=(4, dim)) + lift
    N = rng.normal(size=(4, dim)) - lift
    flip = np.r_[-1.0, np.ones(dim - 1)]
    return np.vstack([P, P * flip]), np.vstack([N, N * flip])


def test_lp_polish_at_a_zero_coordinate_is_silent(capfd):
    # for p < 2 the curvature |u_i|^(p-2) is infinite where u_i = 0; the polish
    # must skip that round without a warning or a LAPACK message on stdout
    instances = [(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]), 1.5)]
    instances += [(*_symmetric_instance(seed), 1.2) for seed in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for P, N, p in instances:
            m = CostModel(NormKind("lp", p=p), 1.0, P.shape[1])
            sol = solve_max_margin(PointSetPair.from_arrays(P, N), m)
            lower, upper = two_sided_certificate(P, N, sol, m)
            assert sol.separable and upper - lower <= 1e-10
            assert np.min(np.abs(sol.x_plus - sol.x_minus)) <= 1e-6
    out, err = capfd.readouterr()
    assert out == "" and err == ""


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    kind=st.sampled_from(["l1", "linf", "wl1", "lp"]),
    log_p=st.floats(math.log(1.05), math.log(20.0)),
    log_scale=st.floats(math.log(1e-2), math.log(1e2)),
    overlap=st.booleans(),
)
def test_cutting_plane_matches_the_cold_oracle(seed, dim, kind, log_p, log_scale, overlap):
    rng = np.random.default_rng(seed)
    P, N = random_separable(rng, dim, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    if overlap:  # a negative inside the positives' hull
        N = np.vstack([N, P.mean(axis=0)])
    P, N = math.exp(log_scale) * P, math.exp(log_scale) * N
    weights = tuple(float(w) for w in rng.uniform(0.2, 3.0, dim)) if kind == "wl1" else None
    norm = NormKind(kind, p=math.exp(log_p) if kind == "lp" else None, weights=weights)
    m = CostModel(norm, 1.0, dim)
    sol = solve_max_margin(PointSetPair.from_arrays(P, N), m)
    ref = oracle_cutting_plane(P, N, m)
    assert sol.separable == ref.separable
    if sol.separable:
        # the margin lies in [sol.d, sol.d + sol.gap] and in [ref.d, ref.d + ref.gap]
        # (the oracle's gap exceeds tol where cold cuts stalled); where both are
        # certified, the answers are within tol of each other
        assert sol.gap <= 1e-10
        assert sol.d <= ref.d + max(ref.gap, 1e-10) and ref.d <= sol.d + 1e-10
    if kind in ("l1", "wl1"):  # the box is the whole dual ball: the first LP is the answer
        assert np.array_equal(sol.y, ref.y) and sol.b == ref.b and sol.d == ref.d
        assert sol.support_weights == ref.support_weights and sol.rounds == ref.rounds == 1
    if kind == "linf":  # the split columns and the l1 row are the whole dual ball
        assert sol.rounds == 1 and len(sol.cuts) == 0


def _margin_lp(rng, dim, kind, n_cuts, zeros, overlap):
    """A max-margin LP as the cutting-plane solver builds it, on random clouds.

    Sign-weighted points and the b and t columns; under linf the split
    columns y+ - y- >= 0 and the l1 row sum(y+ + y-) <= 1, otherwise the box
    of the dual ball and ``n_cuts`` unit-norm cuts.  With ``zeros`` some
    coordinates are exact zeros, of either sign, which drop out of the
    sparse matrix.
    """
    P, N = random_separable(rng, dim, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    if overlap:
        N = np.vstack([N, P.mean(axis=0)])
    if zeros:
        P[rng.random(P.shape) < 0.3] = 0.0
        N[rng.random(N.shape) < 0.3] = -0.0
    weights = tuple(float(w) for w in rng.uniform(0.2, 3.0, dim)) if kind == "wl1" else None
    norm = NormKind(kind, p=float(rng.uniform(1.1, 6.0)) if kind == "lp" else None, weights=weights)
    n_rows = len(P) + len(N)
    sign = np.concatenate([-np.ones(len(P)), np.ones(len(N))])[:, None]
    points, ones = sign * np.vstack([P, N]), np.ones((n_rows, 1))
    if kind == "linf":
        A_ub = np.vstack([np.hstack([points, -points, sign, ones]), np.r_[np.ones(2 * dim), 0.0, 0.0]])
        b_ub = np.r_[np.zeros(n_rows), 1.0]
    else:
        cuts = rng.normal(size=(n_cuts, dim))
        cuts /= np.array([norm_eval(norm, v) for v in cuts])[:, None]
        A_ub = np.vstack([np.hstack([points, sign, ones]), np.hstack([cuts, np.zeros((n_cuts, 2))])])
        b_ub = np.r_[np.zeros(n_rows), np.ones(n_cuts)]
    cost, lower, upper = _columns(norm, dim)
    return cost, A_ub, b_ub, lower, upper


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    kind=st.sampled_from(["l1", "linf", "wl1", "lp"]),
    n_cuts=st.integers(0, 6),
    zeros=st.booleans(),
    overlap=st.booleans(),
)
def test_highs_lp_is_linprog_bit_for_bit(seed, dim, kind, n_cuts, zeros, overlap):
    lp = _margin_lp(np.random.default_rng(seed), dim, kind, n_cuts, zeros, overlap)
    cost, A_ub, b_ub, lower, upper = lp
    if kind == "linf":  # y+ and y- are nonnegative, and only the l1 row bounds them above
        assert not lower[: 2 * dim].any() and np.all(upper == np.inf)
    x, duals = _highs_lp(*lp)
    ref_x, ref_duals = oracle_lp(*lp)
    assert x.tobytes() == ref_x.tobytes() and duals.tobytes() == ref_duals.tobytes()


def _failing_lps():
    """LPs HiGHS cannot solve to optimality, each with the model status it reports."""
    free = np.array([-np.inf]), np.array([np.inf])
    return [
        ((np.array([-1.0]), np.zeros((1, 1)), np.array([1.0]), *free), "Unbounded"),
        ((np.array([1.0]), np.ones((1, 1)), np.array([-1.0]), np.zeros(1), np.ones(1)), "Infeasible"),
    ]


def test_highs_lp_names_the_status_of_an_lp_it_cannot_solve():
    for lp, status in _failing_lps():
        with pytest.raises(SolverError, match=f"HiGHS model status is {status}"):
            _highs_lp(*lp)


def test_the_reused_highs_instance_keeps_nothing_from_an_earlier_lp():
    # every LP runs on one HiGHS instance: a large LP and failed LPs before a
    # small one must leave its answer as linprog's, which starts afresh
    rng = np.random.default_rng(12)
    P, N = random_separable(rng, 5, 1000, 1000)
    sign = np.concatenate([-np.ones(1000), np.ones(1000)])[:, None]
    cost, lower, upper = _columns(L1, 5)
    rows = np.hstack([sign * np.vstack([P, N]), sign, np.ones((2000, 1))])
    _highs_lp(cost, rows, np.zeros(2000), lower, upper)
    for lp, status in _failing_lps():
        with pytest.raises(SolverError, match=status):
            _highs_lp(*lp)
    for kind, n_cuts in itertools.product(("l1", "linf", "wl1", "lp"), (0, 3)):
        lp = _margin_lp(rng, 3, kind, n_cuts, zeros=False, overlap=False)
        x, duals = _highs_lp(*lp)
        ref_x, ref_duals = oracle_lp(*lp)
        assert x.tobytes() == ref_x.tobytes() and duals.tobytes() == ref_duals.tobytes(), kind


def test_a_stalled_cut_loop_fails_fast(monkeypatch):
    # test_cutting_plane_matches_the_cold_oracle's example seed=3, dim=3,
    # p = e^0.0546875 ~ 1.056, scale e^2: each LP's cut v = (-1, 0, 0) is violated
    # by 1.6e-11, below HiGHS's 1e-10 feasibility tolerance, so every LP returns
    # the same optimum; it took 200 LPs to give up, short of a certificate.  The
    # LP's own y misses it by 1.9e-10, the norming functional by 0.42: the error
    # reports the better of the two
    rng = np.random.default_rng(3)
    P, N = random_separable(rng, 3, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    P, N = math.exp(2.0) * P, math.exp(2.0) * N
    m = CostModel(NormKind("lp", p=math.exp(0.0546875)), 1.0, 3)
    lps = []

    def counting(*args):
        lps.append(args)
        return _highs_lp(*args)

    monkeypatch.setattr("stratclass.maxmargin._highs_lp", counting)
    try:
        sol = solve_max_margin(PointSetPair.from_arrays(P, N), m)
    except SolverError as err:
        assert "stalled at LP 2: the next LP would repeat it" in str(err) and len(lps) == 2
        assert float(re.search(r"with gap (\S+) >", str(err)).group(1)) < 1e-9
    else:
        lower, upper = two_sided_certificate(P, N, sol, m)
        assert sol.separable and upper - lower <= 1e-10


def test_scipy_loads_on_the_first_non_l2_solve_only():
    script = """
import sys
from stratclass.harness import RunConfig, run_online
from stratclass.maxmargin import PointSetPair, solve_max_margin
from stratclass.norms import L1, CostModel
run_online(RunConfig(algorithm="smm", c=125.0, T=200, synth_n=200))
assert not any(name.startswith("scipy") for name in sys.modules)
solve_max_margin(PointSetPair.from_arrays([[1.0, 0.0]], [[-1.0, 0.0]]), CostModel(L1, 1.0, 2))
assert "scipy.optimize._highspy._core" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)

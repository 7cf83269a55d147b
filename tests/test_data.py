"""Synthetic data generation, CSV interchange, and margin trimming."""

import json
import math
import re

import numpy as np
import pytest

from oracle import oracle_truncated_normal
from stratclass import data
from stratclass.data import (
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_csv,
    sample_truncated_normal,
    save_csv,
    trim_margin,
    write_descriptor,
)
from stratclass.bounds import Benchmark
from stratclass.norms import L2, LINF, CostModel, parse_norm


class TestDataset:
    def test_basic_shape_and_views(self):
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, -1]))
        assert ds.n == 2 and ds.dim == 2
        pair = ds.point_sets
        assert pair.n_pos == 1 and pair.n_neg == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.array([1, -1, 1]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([1, -1]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([1, 2]))

    @pytest.mark.parametrize(
        "labels,named",
        [([1.7, -1.2], "labels[0] = 1.7"), ([1.0, -1.5, 1.0], "labels[1] = -1.5"),
         ([1, -1, 0], "labels[2] = 0"), ([-1.0, math.nan, 2.0], "labels[1] = nan")],
    )
    def test_non_integral_labels_are_rejected_as_given(self, labels, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            Dataset(np.zeros((len(labels), 2)), labels)

    def test_integral_float_labels_load_as_ints(self):
        ds = Dataset(np.zeros((2, 2)), [1.0, -1.0])
        assert ds.labels.dtype.kind == "i" and ds.labels.tolist() == [1, -1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_are_rejected_at_the_first_bad_row(self, bad):
        features = [[0.0, 1.0], [0.0, -1.0], [bad, -1.0], [1.0, bad]]
        with pytest.raises(ValueError, match=re.escape(f"features[2] = [{bad}, -1.0]")):
            Dataset(features, [1, -1, -1, 1])


    def test_an_empty_population_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Dataset(np.empty((0, 2)), [])

    def test_provenance_is_keyword_only(self):
        with pytest.raises(TypeError):
            Dataset(np.eye(2), [1, -1], Benchmark(np.ones(2), 0.0, 1.0))

    def test_a_one_label_population_has_no_benchmark(self):
        ds = Dataset(np.eye(3), [1, 1, 1])
        assert ds.benchmark is None and ds.benchmark_for(CostModel(LINF, c=1.0, dim=3)) is None

    def test_features_and_labels_are_read_only_copies(self):
        X, labels = np.eye(2), np.array([1, -1])
        ds = Dataset(X, labels)
        X[0, 0], labels[0] = 7.0, -1
        assert ds.features.tolist() == [[1.0, 0.0], [0.0, 1.0]] and ds.labels.tolist() == [1, -1]
        for arr in (ds.features, ds.labels):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


class TestSynthConfig:
    def test_defaults(self):
        cfg = SynthConfig(seed=0)
        assert cfg.n == 2000 and cfg.d == 6
        assert cfg.radius == pytest.approx(1 / math.sqrt(5))

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=1), dict(d=0), dict(rho=-0.1), dict(radius=0.0), dict(variance=0.0), dict(seed=-2)],
    )
    def test_validation(self, kwargs):
        # RunConfig names the key from the message's first word
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be"):
            SynthConfig(**{"seed": 0, **kwargs})


def test_truncated_sampling_respects_the_radius():
    cfg = SynthConfig(seed=0, n=500, d=6)
    rng = np.random.default_rng(1)
    draws = sample_truncated_normal(rng, cfg)
    assert np.all(np.linalg.norm(draws, axis=1) <= cfg.radius)


def test_truncated_sampling_gives_up_eventually():
    cfg = SynthConfig(seed=0, n=10, d=6, radius=1e-12)
    with pytest.raises(RuntimeError):
        sample_truncated_normal(np.random.default_rng(0), cfg)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize(
    "cfg",
    [
        SynthConfig(seed=0, n=2000),
        SynthConfig(seed=5, n=3),
        SynthConfig(seed=9, n=700, d=2),
        # accepts about one draw in 70
        SynthConfig(seed=1, n=400, radius=0.2),
        SynthConfig(seed=2, n=50, d=1, radius=0.01, variance=1.0),
    ],
)
def test_truncated_sampling_replays_the_per_row_stream(cfg):
    got = sample_truncated_normal(np.random.default_rng(cfg.seed), cfg)
    want = oracle_truncated_normal(np.random.default_rng(cfg.seed), cfg)
    assert got.shape == want.shape == (cfg.n, cfg.d)
    assert _bits(got) == _bits(want)


class _ScriptedRng:
    """Serves ``normal`` draws from a fixed array, in order."""

    def __init__(self, values):
        self.values = values
        self.pos = 0

    def normal(self, loc, scale, size):
        count = int(np.prod(size))
        out = self.values[self.pos : self.pos + count].reshape(size)
        self.pos += count
        return out


def test_truncated_sampling_decides_knife_edge_rows_like_the_per_row_loop():
    # Rows whose norm, summed in another order, lands on the other side of
    # a radius equal to np.linalg.norm of the row (kept) or just below it
    # (rejected).
    B = np.random.default_rng(0).normal(size=(2000, 6))
    scalar = np.array([np.linalg.norm(b) for b in B])
    vector = np.sqrt(np.einsum("ij,ij->i", B, B))
    over = B[np.flatnonzero(vector > scalar)[0]]
    under = B[np.flatnonzero(vector < scalar)[0]]
    inside = np.full(6, 0.01)
    for row, radius, want in (
        (over, np.linalg.norm(over), [over, inside]),
        (under, np.nextafter(np.linalg.norm(under), 0.0), [inside, inside]),
        (np.eye(6)[0], 1.0, [np.eye(6)[0], inside]),
    ):
        cfg = SynthConfig(seed=0, n=2, d=6, radius=radius)
        values = np.concatenate([row, np.tile(inside, 40)])
        for sampler in (sample_truncated_normal, oracle_truncated_normal):
            assert _bits(sampler(_ScriptedRng(values), cfg)) == _bits(want)


@pytest.mark.parametrize(
    "misses, ok", [(data._MAX_REJECTION_TRIES - 1, True), (data._MAX_REJECTION_TRIES, False)]
)
def test_truncated_sampling_allows_exactly_the_try_budget_per_row(misses, ok):
    # Row 1 is accepted at once; row 2 after `misses` rejections.
    cfg = SynthConfig(seed=0, n=2, d=2, radius=1.0)
    stream = np.concatenate([[0.5, 0.0], np.full(2 * misses, 2.0), [0.0, 0.5]])
    values = np.concatenate([stream, np.full(4 * len(stream), 3.0)])
    for sampler in (sample_truncated_normal, oracle_truncated_normal):
        if ok:
            rows = sampler(_ScriptedRng(values), cfg)
            assert _bits(rows) == _bits([[0.5, 0.0], [0.0, 0.5]])
        else:
            with pytest.raises(RuntimeError):
                sampler(_ScriptedRng(values), cfg)


class TestGenerateSynthetic:
    CFG = SynthConfig(seed=12, n=400, d=6, rho=0.02)

    def test_reproducible(self):
        a = generate_synthetic(self.CFG)
        b = generate_synthetic(self.CFG)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.benchmark.d_star == b.benchmark.d_star

    def test_benchmark_properties(self):
        ds = generate_synthetic(self.CFG)
        bench = ds.benchmark
        # intercept recentered away; margin survives the trim
        assert abs(bench.b_star) <= 1e-9
        assert bench.d_star >= self.CFG.rho - 1e-9
        assert np.linalg.norm(bench.y_star) == pytest.approx(1.0, abs=1e-9)
        # every agent clears the benchmark margin
        margins = ds.labels * (ds.features @ bench.y_star + bench.b_star)
        assert np.min(margins) >= bench.d_star - 1e-8

    def test_labels_match_a_diagonal_hyperplane_up_to_recentering(self):
        ds = generate_synthetic(self.CFG)
        assert set(np.unique(ds.labels)) == {1, -1}
        assert ds.n <= self.CFG.n  # trimming only removes points
        # recentering shifts all points by one constant vector, so some
        # threshold on the coordinate sum still reproduces every label
        sums = ds.features.sum(axis=1)
        cut = (np.max(sums[ds.labels == -1]) + np.min(sums[ds.labels == 1])) / 2.0
        assert np.array_equal(np.where(sums >= cut, 1, -1), ds.labels)

    def test_radius_bound_holds_up_to_recentering(self):
        ds = generate_synthetic(self.CFG)
        # the recentering shift is at most the radius, so norms stay bounded
        assert np.max(np.linalg.norm(ds.features, axis=1)) <= 2 * self.CFG.radius + 1e-12

    def test_provenance(self):
        ds = generate_synthetic(self.CFG)
        assert ds.provenance["kind"] == "synthetic"
        assert ds.provenance["seed"] == 12
        assert ds.provenance["rho"] == 0.02

    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(seed=0),
            SynthConfig(seed=7),
            SynthConfig(seed=31, n=10_000),
            SynthConfig(seed=4, n=500, d=3),
            SynthConfig(seed=2, n=600, radius=0.2),
        ],
    )
    def test_matches_the_per_row_sampler(self, cfg, monkeypatch):
        got = generate_synthetic(cfg)
        monkeypatch.setattr(data, "sample_truncated_normal", oracle_truncated_normal)
        want = generate_synthetic(cfg)
        assert _bits(got.features) == _bits(want.features)
        assert np.array_equal(got.labels, want.labels)
        for field in ("y_star", "b_star", "d_star"):
            assert _bits(getattr(got.benchmark, field)) == _bits(getattr(want.benchmark, field))

    @pytest.mark.parametrize(
        "norm,d_star",
        [("l2", 0.020733), ("l1", 0.050619), ("lp:1.5", 0.027948), ("lp:3", 0.015380), ("linf", 0.008464)],
    )
    def test_benchmark_is_solved_in_each_norm(self, norm, d_star):
        ds = generate_synthetic(SynthConfig(seed=0))
        bench = ds.benchmark_for(CostModel(parse_norm(norm), c=125.0, dim=ds.dim))
        assert round(bench.d_star, 6) == d_star

    def test_linf_benchmark_is_one_exact_lp(self, monkeypatch):
        # linprog solved the exact l1-ball LP on this population to 0.008464183934431612
        ds = generate_synthetic(SynthConfig(seed=0))
        solves = []
        monkeypatch.setattr(data, "solve_max_margin",
                            lambda *args, fn=data.solve_max_margin: solves.append(fn(*args)) or solves[-1])
        bench = ds.benchmark_for(CostModel(LINF, c=125.0, dim=ds.dim))
        assert [sol.rounds for sol in solves] == [1]
        assert abs(bench.d_star - 0.008464183934431612) <= 1e-10

    def test_builds_two_point_set_pairs(self, monkeypatch):
        # one for the raw cloud the recentring solve reads, one the returned
        # dataset keeps and its l2 benchmark was solved over
        built = []
        monkeypatch.setattr(data.PointSetPair, "from_arrays",
                            lambda *args, fn=data.PointSetPair.from_arrays: built.append(args) or fn(*args))
        ds = generate_synthetic(self.CFG)
        ds.point_sets, ds.benchmark
        assert len(built) == 2

    def test_impossible_trim_raises(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(seed=0, n=20, d=6, rho=10.0))


class TestCsvRoundTrip:
    def test_save_load_exact(self, tmp_path):
        ds = generate_synthetic(SynthConfig(seed=3, n=50, d=4))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)  # %.17g is lossless
        assert np.array_equal(back.labels, ds.labels)
        assert back.provenance["kind"] == "csv"

    def test_zero_label_maps_to_negative(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2,label\n1.0,2.0,1\n3.0,4.0,0\n")
        ds = load_csv(path)
        assert list(ds.labels) == [1, -1]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,label\n1.0,1\n\n-1.0,-1\n")
        assert load_csv(path).n == 2

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("", "empty file"),
            ("a,b,label\n1,2,1\n", "header"),
            ("f1,f3,label\n1,2,1\n", "header"),
            ("f1,f2\n1,2\n", "header"),
            ("f1,f2,label\n1,2\n", ":2:"),
            ("f1,f2,label\n1,x,1\n", ":2:"),
            ("f1,f2,label\n1,2,5\n", ":2:"),
            ("f1,f2,label\n1,2,1\n1,2,3,4\n", ":3:"),
            ("f1,f2,label\n", "no data rows"),
        ],
    )
    def test_malformed_files_fail_with_located_errors(self, tmp_path, body, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=fragment.replace(",", ".")):
            load_csv(path)

    def test_descriptor(self, tmp_path):
        ds = generate_synthetic(SynthConfig(seed=3, n=50, d=4))
        path = tmp_path / "data.meta.json"
        write_descriptor(ds, path)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "synthetic"
        assert doc["n"] == ds.n and doc["d"] == 4
        assert doc["benchmark"]["norm"] == "l2"
        assert doc["benchmark"]["d_star"] == ds.benchmark.d_star
        assert len(doc["benchmark"]["y_star"]) == 4


class TestTrimMargin:
    def test_trims_to_the_requested_margin(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 3))
        labels = np.where(X[:, 0] + 0.05 * rng.normal(size=300) >= 0, 1, -1)
        ds = Dataset(X, labels)  # noisy labels: almost surely inseparable
        m = CostModel(L2, c=1.0, dim=3)
        out = trim_margin(ds, 0.1, m)
        assert out.benchmark.d_star >= 0.1 - 1e-9
        assert out.n < ds.n
        assert out.provenance["trimmed_rho"] == 0.1
        margins = out.labels * (out.features @ out.benchmark.y_star + out.benchmark.b_star)
        assert np.min(margins) >= out.benchmark.d_star - 1e-8

    def test_separable_data_uses_its_own_margin_classifier(self):
        ds = generate_synthetic(SynthConfig(seed=5, n=200, d=4, rho=0.05))
        m = CostModel(L2, c=1.0, dim=4)
        out = trim_margin(ds, 0.1, m)
        assert out.benchmark.d_star >= 0.1 - 1e-9
        assert out.n <= ds.n

    def test_rejects_nonpositive_rho(self):
        ds = generate_synthetic(SynthConfig(seed=5, n=100, d=3))
        with pytest.raises(ValueError):
            trim_margin(ds, 0.0, CostModel(L2, c=1.0, dim=3))

    def test_trimming_everything_raises(self):
        ds = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]))
        with pytest.raises(ValueError):
            trim_margin(ds, 100.0, CostModel(L2, c=1.0, dim=2))

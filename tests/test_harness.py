"""Config parsing, online runs, metrics files, certification, CLI plumbing."""

import json
import math
import os
import re
import stat
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratclass.cli as cli
import stratclass.harness as harness
import stratclass.data as data
import stratclass.learners as learners
from stratclass.bounds import Benchmark
from stratclass.data import Dataset, SynthConfig, generate_synthetic, save_csv, write_descriptor
from stratclass.harness import (
    ALGORITHMS,
    EXAMPLE_NAMES,
    ConfigError,
    RunConfig,
    RunMetrics,
    _arrivals,
    _init_consumption,
    _normalized_distance,
    build_dataset,
    certify,
    parse_config,
    read_metrics,
    reproduce_example,
    run_online,
    sweep,
    write_metrics,
)
from stratclass.maxmargin import SOLVE_TOL, SolverError, margin_h
from stratclass.norms import EPS_GEOM, CostModel, dual_norm_eval, parse_norm
from stratclass.response import Classifier, _score, interact

from oracle import feed, oracle_lp, oracle_run_online


def spy(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that records each call's positional arguments."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def two_cluster_dataset():
    xs = np.linspace(-1.0, 1.0, 10)
    feats = np.vstack([np.c_[xs, np.ones(10)], np.c_[xs, -np.ones(10)]])
    labels = np.array([1] * 10 + [-1] * 10)
    return Dataset(feats, labels)  # benchmark (0, 1), b* = 0, d* = 1 in every norm


class TestParseConfig:
    def test_full_round_trip(self):
        cfg = parse_config(
            """
            # experiment
            algorithm = perceptron
            norm = l1
            c = 2.5            # inline comment
            T = 100
            seed = 7
            mode = stream
            rounds = 3
            sigma = 0.001
            cone = nonneg
            dataset = synthetic
            synth_seed = 4
            synth_n = 50
            synth_d = 3
            synth_rho = 0.05
            track = counts
            """
        )
        assert cfg.algorithm == "perceptron" and cfg.norm == "l1"
        assert cfg.c == 2.5 and cfg.T == 100 and cfg.mode == "stream"
        assert cfg.rounds == 3 and cfg.sigma == 0.001 and cfg.cone == "nonneg"
        assert cfg.synth_d == 3

    def test_readme_quick_start_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = next(b for b in readme.split("```")[1::2] if "algorithm =" in b)
        cfg = parse_config(block)
        assert cfg.algorithm == "smm" and cfg.c == 125.0 and cfg.T == 10000

    def test_readme_documents_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quick_start = readme.split("## Quick start")[1].split("\n## ")[0]
        keys = re.findall(r"^\| `(\w+)` \|", quick_start, flags=re.MULTILINE)
        assert keys == [f.name for f in fields(RunConfig)]

    def test_readme_documents_every_subcommand(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quick_start = readme.split("## Quick start")[1].split("\n## ")[0]
        documented = re.findall(r"^(?:- `)?stratclass ([\w-]+)", quick_start, flags=re.MULTILINE)
        defined = re.search(r"\{([\w,-]+)\}", cli.build_parser().format_usage())[1].split(",")
        assert sorted(documented) == sorted(defined)

    def test_solver_tolerance_defaults_to_1e10_unless_set(self):
        assert RunConfig(c=1.0).solve_tol == 1e-10
        assert RunConfig(c=1.0, sigma=1e-3).solve_tol == 1e-10  # noise does not loosen it
        assert RunConfig(c=1.0).solve_tol == SOLVE_TOL

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("bogus = 1\nc = 1", "line 1"),
            ("c = 1\nc = 2", "line 2"),
            ("c 1", "key = value"),
            ("T = ten\nc = 1", "line 1"),
            ("force_resolve = maybe\nc = 1", "line 1: unknown key 'force_resolve'"),
            ("algorithm = svm\nc = 1", "algorithm"),
            ("mode = batch\nc = 1", "mode"),
            ("track = everything\nc = 1", "track"),
            ("cone = icecream\nc = 1", ""),
            ("norm = l9\nc = 1", ""),
            ("T = 0\nc = 1", "T"),
            ("rounds = 0\nc = 1", "rounds"),
            ("sigma = -1\nc = 1", "sigma"),
            ("sigma = nan\nc = 1", "sigma"),
            ("c = inf", "c must be finite"),
            ("tol = 0\nc = 1", "line 1: unknown key 'tol'"),
            ("c = 0", "positive"),
            ("c = 1e-320", "^line 1: c = 1e-320: c, 2/c and \\(2/c\\)\\*\\*2 must all be positive and finite$"),
            ("c = 1e-300", "^line 1: c = 1e-300: c, 2/c and \\(2/c\\)\\*\\*2 must all be positive and finite$"),
            ("T = 5\nc = 1e-154", "^line 2: c = 1e-154: c, 2/c and \\(2/c\\)\\*\\*2 must all be positive and finite$"),
            ("T = 5", "^manipulation budget missing: set c$"),
            ("algorithm = gradsmm\nnorm = l1\nc = 125", "gradsmm requires norm = l2"),
            ("norm = lp:3\nalgorithm = gradsmm\nc = 125", "gradsmm requires norm = l2"),
            ("algorithm = foo\nc = 1", "^line 1: algorithm must be one of"),
            ("c = 1\ncone = bogus", "^line 2: cone must be one of .* got 'bogus'$"),
            ("norm = lp:1\nc = 1", "^line 1: norm = lp:1: lp norm requires finite p > 1$"),
            ("sigma = -1\nc = 1", "^line 1: sigma must be >= 0, got -1.0$"),
            ("c = 1\nT = 0", "^line 2: T must be >= 1, got 0$"),
            ("c = 1\nrounds = 0", "^line 2: rounds must be >= 1, got 0$"),
            ("T = ten\nc = 1", "^line 1: T = ten: invalid literal for int"),
            ("algorithm = gradsmm\nc = 125\nnorm = l1", "^line 3: algorithm gradsmm requires norm = l2"),
            ("norm = l1\nc = 125\nalgorithm = gradsmm", "^line 3: algorithm gradsmm requires norm = l2"),
            ("c = 1\ntrim_rho = -1", "^line 2: trim_rho must be > 0, got -1.0$"),
            ("synth_n = 1\nc = 1", "^line 1: synth_n must be >= 2, got 1$"),
            ("c = 1\nsynth_d = 0", "^line 2: synth_d must be >= 1, got 0$"),
            ("synth_rho = -0.5\nc = 1", "^line 1: synth_rho must be >= 0, got -0.5$"),
            ("synth_radius = 0\nc = 1", "^line 1: synth_radius must be > 0, got 0.0$"),
            ("synth_n = 50\nc = 1\nsynth_variance = 0", "^line 3: synth_variance must be > 0, got 0.0$"),
            ("c = 1\nseed = -1", "^line 2: seed must be >= 0, got -1$"),
            ("synth_seed = -2\nc = 1", "^line 1: synth_seed must be >= 0, got -2$"),
            ("norm = wl1:1,2\nc = 4", "^line 1: norm = wl1:1,2 with synth_d = 6: wl1 norm has 2 weights but dim=6$"),
            ("norm = wl1:1,2\nc = 4\nsynth_d = 3",
             "^line 3: norm = wl1:1,2 with synth_d = 3: wl1 norm has 2 weights but dim=3$"),
            ("synth_d = 3\nc = 4\nnorm = wl1:1,2,3,4",
             "^line 3: norm = wl1:1,2,3,4 with synth_d = 3: wl1 norm has 4 weights but dim=3$"),
        ],
    )
    def test_bad_configs_raise_config_error(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment or None):
            parse_config(text)

    def test_a_wl1_norm_is_checked_against_the_synthetic_dimension_only(self):
        assert parse_config("norm = wl1:1,2\nc = 4\nsynth_d = 2").synth_d == 2
        # a CSV's dimension is known only once it is loaded, so its check waits until then
        assert parse_config("norm = wl1:1,2\nc = 4\ndataset = agents.csv").norm == "wl1:1,2"

    def test_a_run_handed_its_dataset_takes_the_wl1_dimension_from_it(self):
        metrics = run_online(RunConfig(norm="wl1:0.5,2", c=4.0, T=50), two_cluster_dataset())
        assert (len(metrics.labels), metrics.mistakes, metrics.solve_count) == (50, 2, 3)

    def test_a_run_config_of_the_wrong_wl1_dimension_fails_at_its_cost_model(self):
        cfg = RunConfig(norm="wl1:1,2", c=4.0, T=10, synth_n=60)  # synth_d = 6
        with pytest.raises(ValueError, match="^wl1 norm has 2 weights but dim=6$"):
            run_online(cfg)

    # a valid value for each key whose annotation is str; other keys get one per type
    WORDS = {"algorithm": "gradsmm", "norm": "lp:3", "mode": "stream", "cone": "nonneg",
             "dataset": "agents.csv", "track": "counts"}
    TYPES = {"str": str, "int": int, "int | None": int, "float": float, "float | None": float}
    SAMPLES = {int: ("3", 3), float: ("0.25", 0.25)}

    @pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
    def test_each_key_parses_to_its_annotated_type(self, f):
        kind = self.TYPES[f.type]
        text, want = (self.WORDS[f.name],) * 2 if kind is str else self.SAMPLES[kind]
        cfg = parse_config(f"{f.name} = {text}" + ("" if f.name == "c" else "\nc = 1"))
        assert type(getattr(cfg, f.name)) is kind and getattr(cfg, f.name) == want

    @pytest.mark.parametrize("f", [f for f in fields(RunConfig) if f.type.startswith("float")],
                             ids=lambda f: f.name)
    def test_each_float_key_rejects_nan_by_name(self, f):
        with pytest.raises(ConfigError, match=f"^line 1: {f.name} must be finite"):
            parse_config(f"{f.name} = nan" + ("" if f.name == "c" else "\nc = 1"))


class TestArrivals:
    def test_iid_needs_explicit_horizon(self):
        cfg = RunConfig(c=1.0, mode="iid")
        with pytest.raises(ConfigError):
            _arrivals(cfg, 10)

    def test_iid_is_reproducible(self):
        cfg = RunConfig(c=1.0, T=50, seed=3)
        a, _ = _arrivals(cfg, 10)
        b, _ = _arrivals(cfg, 10)
        assert np.array_equal(a, b)
        assert len(a) == 50 and a.min() >= 0 and a.max() < 10

    def test_stream_cycles_one_permutation(self):
        cfg = RunConfig(c=1.0, mode="stream", rounds=3)
        idx, _ = _arrivals(cfg, 7)
        assert len(idx) == 21
        assert sorted(idx[:7]) == list(range(7))
        assert np.array_equal(idx[:7], idx[7:14])

    def test_stream_truncates_to_t(self):
        cfg = RunConfig(c=1.0, mode="stream", rounds=2, T=9)
        assert len(_arrivals(cfg, 5)[0]) == 9

    def test_stream_horizon_cannot_exceed_supply(self):
        cfg = RunConfig(c=1.0, mode="stream", rounds=1, T=11)
        with pytest.raises(ConfigError):
            _arrivals(cfg, 10)


def test_normalized_distance():
    bench = Benchmark(np.array([0.0, 2.0]), 1.0, 1.0)
    # same ray as the benchmark: distance zero
    assert _normalized_distance(np.array([0.0, 4.0]), 2.0, bench) == pytest.approx(0.0)
    assert _normalized_distance(np.zeros(2), 1.0, bench) is None
    # hand value: normalized pair (1,0,0) vs (0,1,0.5)
    d = _normalized_distance(np.array([3.0, 0.0]), 0.0, bench)
    assert d == pytest.approx(math.sqrt(2 + 0.25))


def test_build_dataset_synthetic_and_trim():
    cfg = RunConfig(c=1.0, T=10, synth_n=200, synth_d=4, synth_seed=1)
    ds = build_dataset(cfg)
    assert ds.dim == 4 and ds.benchmark is not None
    cfg_trim = RunConfig(c=1.0, T=10, synth_n=200, synth_d=4, synth_seed=1, trim_rho=0.05)
    trimmed = build_dataset(cfg_trim)
    assert trimmed.benchmark.d_star >= 0.05 - 1e-9
    assert trimmed.n <= ds.n


def test_build_dataset_from_csv(tmp_path):
    ds = generate_synthetic(SynthConfig(seed=2, n=40, d=3))
    path = tmp_path / "pop.csv"
    save_csv(ds, path)
    cfg = RunConfig(c=1.0, T=10, dataset=str(path))
    back = build_dataset(cfg)
    assert back.n == ds.n
    for name in ("y_star", "b_star", "d_star"):  # solved from the same points, bit for bit
        got, want = (np.asarray(getattr(d.benchmark, name)).tobytes() for d in (back, ds))
        assert got == want


class TestLearnerContract:
    """What ``run_online`` reads of each learner ``_build_learner`` makes."""

    def test_the_contract_holds_no_warm_up_flag_and_no_margin(self):
        for name in ("in_init", "margin"):
            assert not hasattr(learners._Learner, name)
        model = CostModel(parse_norm("l2"), 4.0, 2)
        assert not hasattr(harness._build_learner(RunConfig(algorithm="perceptron", c=4.0), model), "in_init")

    def test_only_smm_reports_a_pool_inseparable_when_the_warm_up_ends(self):
        ds = Dataset(np.zeros((2, 2)), np.array([1, -1]))  # one point under both labels
        for algorithm, at in (("smm", 2), ("gradsmm", None), ("perceptron", None)):
            metrics = run_online(RunConfig(algorithm=algorithm, c=4.0, mode="stream", rounds=3), ds)
            assert metrics.inseparable_at == at, algorithm

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fields_through_the_warm_up_and_after(self, algorithm, sigma):
        # sigma = 0.5 scrambles the smm pool until it is inseparable
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm=algorithm, c=4.0, T=300, seed=2, sigma=sigma)
        model = CostModel(parse_norm(cfg.norm), cfg.c, ds.dim)
        learner = harness._build_learner(cfg, model)
        idx, noise_rng = _arrivals(cfg, ds.n)
        warm_up = inseparable = 0
        for t, i in enumerate(idx, start=1):
            clf, solves = learner.classifier, learner.solve_count
            in_init = getattr(learner, "in_init", False)  # the margin learners' own state
            if algorithm == "smm" and not in_init:
                assert clf.margin is learner.solution.d
            else:
                assert clf.margin is None
            label = int(ds.labels[i])
            noise = sigma * noise_rng.standard_normal(ds.dim) if sigma else None
            inter = interact(ds.features[i], label, clf, model, noise)
            assert feed(learner, inter, label) == 1
            warm_up += in_init
            if learner.classifier is clf:  # nothing new published: nothing else moved
                assert learner.solve_count == solves
                # the perceptron keeps its classifier on correct rounds only
                assert not (algorithm == "perceptron" and inter.mistake)
            elif in_init and learner.in_init:  # the warm-up flips its sign to the one label seen
                assert not np.any(learner.classifier.y) and learner.classifier.b == label
            if learner.inseparable_at is not None and not inseparable:
                inseparable = learner.inseparable_at
                assert inseparable == t  # set by the update that turned the pool inseparable
            assert learner.inseparable_at == (inseparable or None)
        # the label rule run_online and certify read is the warm-up the learner went through
        assert warm_up == _init_consumption(algorithm, ds.labels[idx])
        assert (warm_up >= 2) is (algorithm != "perceptron")
        assert (learner.solve_count > 0) is (algorithm == "smm")  # gradsmm's warm-up solve is not counted
        assert bool(inseparable) is (algorithm == "smm" and sigma > 0)


class TestRunOnline:
    def test_smm_records_the_margin_trajectory(self):
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm="smm", c=4.0, T=200, seed=0, track="full")
        metrics = run_online(cfg, ds)
        assert len(metrics.t) == 200 and metrics.t[0] == 1
        assert metrics.init_steps >= 2
        assert metrics.init_mistakes <= 2
        assert metrics.solve_count >= 1
        # d_t is blank during declaration, then the current pool margin
        assert all(v is None for v in metrics.d_t[: metrics.init_steps])
        tail = [v for v in metrics.d_t if v is not None]
        assert tail and all(v >= 1.0 - 1e-8 for v in tail)
        # distance requires a nonzero declared classifier and a benchmark
        assert metrics.distance[0] is None
        assert metrics.final_distance is not None and metrics.final_distance <= 1e-6
        # the margin gap compares h(clf) against the benchmark's h
        gaps = [v for v in metrics.margin_gap if v is not None]
        assert gaps and min(gaps) >= -1e-9
        assert metrics.final_y is not None and metrics.final_b is not None
        assert metrics.wall_time > 0

    def test_runs_share_the_dataset_point_sets_and_add_nothing(self, monkeypatch):
        ds = two_cluster_dataset()
        pair = ds.point_sets
        seen = spy(monkeypatch, harness, "margin_h")
        cfg = RunConfig(algorithm="smm", c=4.0, T=200, seed=0, track="full")
        assert_same_run(run_online(cfg, ds), run_online(cfg, ds))
        assert ds.point_sets is pair and seen and all(sets is pair for _, _, sets in seen)
        assert (pair.n_pos, pair.n_neg) == (10, 10)

    def test_runs_are_deterministic(self):
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm="gradsmm", c=4.0, T=100, seed=5, track="distance")
        a = run_online(cfg, ds)
        b = run_online(cfg, ds)
        assert a.mistake == b.mistake and a.distance == b.distance
        assert np.array_equal(a.final_y, b.final_y)

    def test_noise_shares_the_arrival_sequence(self):
        # the arrival and noise streams are split from one seed, so turning
        # noise on cannot reshuffle which agents arrive when
        ds = two_cluster_dataset()
        quiet = run_online(RunConfig(algorithm="gradsmm", c=4.0, T=150, seed=2), ds)
        noisy = run_online(
            RunConfig(algorithm="gradsmm", c=4.0, T=150, seed=2, sigma=1e-3), ds
        )
        assert quiet.label == noisy.label  # same agents in the same order
        assert quiet.final_b != noisy.final_b  # but the noise reached the learner

    @pytest.mark.parametrize("sigma", [0.0, 1e-3])
    def test_only_a_noisy_run_draws_noise(self, monkeypatch, sigma):
        # sigma = 0 takes nothing from the noise generator: a stub that fails
        # on any use stands in for it, and only the noisy run reaches it
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"noise generator used: {name}")

        arrivals = harness._arrivals
        monkeypatch.setattr(harness, "_arrivals", lambda cfg, n: (arrivals(cfg, n)[0], NoDraws()))
        cfg = RunConfig(algorithm="gradsmm", c=4.0, T=150, seed=2, sigma=sigma)
        if sigma == 0.0:
            assert len(run_online(cfg, two_cluster_dataset()).t) == 150
        else:
            with pytest.raises(AssertionError, match="noise generator used"):
                run_online(cfg, two_cluster_dataset())

    @pytest.mark.parametrize("d", [1, 2, 6, 33])
    @pytest.mark.parametrize("T", [1, 2, 7, 1000])
    def test_one_noise_draw_is_the_per_step_draws(self, T, d):
        # run_online draws a run's noise as one (T, d) block and plays row t at
        # step t: the block holds, bit for bit, T successive draws of d
        block = np.random.default_rng(T * 100 + d).standard_normal((T, d))
        rng = np.random.default_rng(T * 100 + d)
        steps = np.array([rng.standard_normal(d) for _ in range(T)])
        assert block.tobytes() == steps.tobytes()

    def test_smm_survives_noise_by_falling_back(self):
        # heavy noise scrambles the pool until it is inseparable; the learner
        # must park at the zero classifier and keep answering
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm="smm", c=4.0, T=500, seed=3, sigma=1.0, track="counts")
        metrics = run_online(cfg, ds)
        assert len(metrics.t) == 500
        assert metrics.inseparable_at is not None
        assert not np.any(metrics.final_y)

    @pytest.mark.parametrize("algorithm", ["smm", "gradsmm", "perceptron"])
    def test_metric_columns_match_a_per_step_recomputation(self, monkeypatch, algorithm):
        # the run computes distance and margin gap once per declaration;
        # recompute both at every step from the classifier in force there,
        # which each update sees declared
        declared = []
        build = harness._build_learner

        def recording_build(cfg, model):
            learner = build(cfg, model)
            update = learner.update

            def recording_update(rows, labels, predicted):
                clf = learner.classifier
                n = update(rows, labels, predicted)
                declared.extend([clf] * n)
                return n

            learner.update = recording_update
            return learner

        monkeypatch.setattr(harness, "_build_learner", recording_build)
        cfg = RunConfig(algorithm=algorithm, c=8.0, T=400, seed=4, synth_n=60, synth_d=3, track="full")
        metrics = run_online(cfg)
        ds = build_dataset(cfg)
        bench = ds.benchmark
        P, N = ds.features[ds.labels == 1], ds.features[ds.labels == -1]

        def h(y, b):
            return min(float(np.min(P @ y)) + b, -float(np.max(N @ y)) - b)

        assert len(declared) == cfg.T
        assert len({(c.y.tobytes(), c.b) for c in declared}) > 1
        for t, clf in enumerate(declared):
            assert metrics.distance[t] == _normalized_distance(clf.y, clf.b, bench)
            assert metrics.margin_gap[t] == h(bench.y_star, bench.b_star) - h(clf.y, clf.b)

    def test_metrics_follow_a_change_of_y_alone_or_of_b_alone(self, monkeypatch):
        y1, y2 = np.array([0.0, 1.0]), np.array([0.6, 0.8])
        script = [Classifier(y1, 0.0), Classifier(y1, 0.25), Classifier(y2, 0.25),
                  Classifier(y2.copy(), 0.25), Classifier(y1, 0.0)]

        monkeypatch.setattr(harness, "_build_learner", lambda cfg, model: _Scripted(script))
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm="perceptron", c=4.0, T=len(script), seed=0, track="full")
        metrics = run_online(cfg, ds)
        h_star = margin_h(ds.benchmark.y_star, ds.benchmark.b_star, ds.point_sets)
        for t, clf in enumerate(script):
            assert metrics.distance[t] == _normalized_distance(clf.y, clf.b, ds.benchmark)
            assert metrics.margin_gap[t] == h_star - margin_h(clf.y, clf.b, ds.point_sets)
        assert len(set(metrics.distance)) == 3
        # each new object opens a declaration, the bitwise copy of script[2] too
        assert metrics.decl_start == [0, 1, 2, 3, 4]
        assert metrics.decl_distance[3] == metrics.decl_distance[2]

    def test_stream_mode_visits_everyone_each_round(self):
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm="perceptron", c=4.0, mode="stream", rounds=2, seed=1)
        metrics = run_online(cfg, ds)
        assert len(metrics.t) == 2 * ds.n
        assert sum(1 for l in metrics.label if l == 1) == ds.n


_COLUMNS = ("t", "mistake", "manipulated", "label", "d_t", "distance", "margin_gap")


_CELLS = st.sampled_from([None, 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300,
                          -1e300, 0.1, 1.0 / 3.0])


@st.composite
def _declaration_runs(draw):
    """A RunMetrics of 0 to 12 declarations of 1-4 steps, values drawn so they repeat."""
    value = _CELLS | st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(st.integers(1, 4), value, value, value), max_size=12))
    lengths = [r[0] for r in rows]
    n = sum(lengths)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    return RunMetrics(
        mistake_flags=np.array(draw(flags), dtype=bool),
        manipulated_flags=np.array(draw(flags), dtype=bool),
        labels=np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))),
        decl_start=np.cumsum([0] + lengths)[:-1].tolist(),
        decl_d_t=[r[1] for r in rows],
        decl_distance=[r[2] for r in rows],
        decl_margin_gap=[r[3] for r in rows],
    )


def assert_same_run(got, want):
    """Every column, counter and the final classifier agree bit for bit."""
    for col in _COLUMNS:
        assert repr(getattr(got, col)) == repr(getattr(want, col)), col
    for attr in ("init_steps", "init_mistakes", "solve_count", "inseparable_at", "final_b"):
        assert repr(getattr(got, attr)) == repr(getattr(want, attr)), attr
    assert got.final_y.tobytes() == want.final_y.tobytes()


class _Scripted(learners._Learner):
    """Declares ``script[i]`` after i rows (the last entry from then on); keeps what it is fed."""

    def __init__(self, script):
        self.script = script
        self.fed = []

    @property
    def classifier(self):
        return self.script[min(len(self.fed), len(self.script) - 1)]

    def update(self, rows, labels, predicted):
        clf = self.classifier
        for n, (row, label) in enumerate(zip(rows, labels.tolist()), start=1):
            self.fed.append((row.tobytes(), label))
            if self.classifier is not clf:
                return n
        return len(rows)


def _straddling_intercept(x, y, model, T):
    """An intercept that puts ``x`` inside the window, on its lower edge, as ``interact``
    computes its margin ratio, but outside it as a matrix-vector product over some
    block of a ``T``-step run would compute the ratio of one of its rows.

    ``None`` if no block shape rounds ``x . y`` below ``interact``'s score.
    """
    dn = dual_norm_eval(model, y)
    sizes = [k for k in (2**i for i in range(1, 13)) if k < T]
    b = -EPS_GEOM * dn - float(np.dot(y, x))
    for _ in range(64):
        b = np.nextafter(b, -np.inf)
    for _ in range(128):
        if (float(_score(x, y)) + b) / dn >= -EPS_GEOM:
            for k in sizes:
                if np.any((np.tile(x, (k, 1)) @ y + b) / dn < -EPS_GEOM):
                    return float(b)
        b = np.nextafter(b, np.inf)
    return None


class TestBlockEngine:
    """``run_online`` against the one-``interact``-per-step loop in ``tests/oracle.py``."""

    CASES = [
        dict(algorithm="smm"),
        dict(algorithm="smm", mode="stream", rounds=3),
        dict(algorithm="smm", sigma=1e-3),
        dict(algorithm="smm", force_resolve=True),
        dict(algorithm="smm", norm="l1"),
        dict(algorithm="smm", norm="linf", mode="stream", rounds=2, sigma=1e-3),
        dict(algorithm="gradsmm"),
        dict(algorithm="gradsmm", mode="stream", rounds=3, sigma=1e-3),
        dict(algorithm="perceptron"),
        dict(algorithm="perceptron", sigma=1e-3),
        dict(algorithm="perceptron", norm="l1", mode="stream", rounds=3),
        dict(algorithm="perceptron", cone="zero-b"),
        dict(algorithm="perceptron", cone="zero-b", norm="linf", sigma=1e-3),
        dict(algorithm="perceptron", cone="nonneg"),
        dict(algorithm="perceptron", cone="nonneg", norm="l1", mode="stream", rounds=3, sigma=1e-3),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_matches_the_per_step_loop(self, monkeypatch, case):
        case = dict(case)
        if case.pop("force_resolve", False):  # a gate that clears nothing: every step re-solves
            monkeypatch.setattr(learners, "incremental_check", lambda *args: 0)
        ds = generate_synthetic(SynthConfig(seed=3, n=400, d=4))
        cfg = RunConfig(c=125.0, T=None if case.get("mode") == "stream" else 2500, seed=7,
                        **case)
        assert_same_run(run_online(cfg, ds), oracle_run_online(cfg, ds))

    def _scripted_run(self, monkeypatch, ds, script, **kw):
        learners_built = []

        def build(cfg, model):
            learners_built.append(_Scripted(script))
            return learners_built[-1]

        monkeypatch.setattr(harness, "_build_learner", build)
        cfg = RunConfig(algorithm="perceptron", c=4.0, seed=1, track="counts", **kw)
        got = run_online(cfg, ds)
        want = oracle_run_online(cfg, ds)
        assert_same_run(got, want)
        engine_fed, oracle_fed = (learner.fed for learner in learners_built)
        assert engine_fed == oracle_fed
        return got

    def test_agents_on_the_window_edges_and_the_offset_threshold(self, monkeypatch):
        # y = (0, 1), b = 0, 2/c = 1/2: every ratio and score here is exact.  The
        # window [-EPS_GEOM, 1/2) holds ratios 0 and -EPS_GEOM; a ratio of 1/2 - EPS_GEOM
        # scores exactly on the offset threshold -EPS_GEOM
        heights = {0.0: True, -EPS_GEOM: True, 0.5 - EPS_GEOM: True, 0.5: False,
                   np.nextafter(-EPS_GEOM, -1.0): False, 0.75: False, -0.75: False}
        xs = np.linspace(-1.0, 1.0, 5)
        feats = np.array([[x, h] for x in xs for h in heights])
        labels = np.where(feats[:, 1] >= 0.0, 1, -1)
        clf = Classifier(np.array([0.0, 1.0]), 0.0)
        got = self._scripted_run(monkeypatch, Dataset(feats, labels), [clf], T=3000)
        idx, _ = _arrivals(RunConfig(c=4.0, seed=1, T=3000), len(feats))
        assert got.manipulated == [heights[h] for h in feats[idx, 1]]

    @pytest.mark.parametrize("b", [0.0, -1.0, 1.0])
    def test_zero_classifier(self, monkeypatch, b):
        ds = two_cluster_dataset()
        got = self._scripted_run(monkeypatch, ds, [Classifier(np.zeros(2), b)], T=500)
        assert not any(got.manipulated)
        assert set(got.mistake) == {False, True}

    def test_noisy_block_cut_partway_through(self, monkeypatch):
        # blocks of 1, 2, 4 and 8 agents start at steps 1, 2, 4 and 8; the change
        # after step 10 cuts the fourth, whose last five noise rows belong to the
        # steps after it
        ds = two_cluster_dataset()
        first, second = Classifier(np.array([0.0, 1.0]), 0.0), Classifier(np.array([0.6, 0.8]), -0.1)
        got = self._scripted_run(monkeypatch, ds, [first] * 10 + [second], T=400, sigma=0.05)
        assert not any(got.manipulated[:10]) and any(got.manipulated[10:])

    def test_rounding_on_the_lower_window_edge(self, monkeypatch):
        # an intercept that puts the agent on the edge as interact computes its
        # ratio, but off it as some block's matrix-vector product would: the
        # blocks score their rows as interact does, so the agent manipulates
        # at every step
        model = CostModel(parse_norm("l2"), 4.0, 6)
        rng = np.random.default_rng(11)
        T = 255  # blocks of 1, 2, ..., 128 agents
        for _ in range(50):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            b = _straddling_intercept(x, y, model, T)
            if b is not None:
                break
        # on a BLAS whose products round no block below interact's score no such
        # intercept exists, and the run below compares an ordinary agent
        got = self._scripted_run(monkeypatch, Dataset(x[None, :], np.array([-1])),
                                 [Classifier(y, 0.0 if b is None else b)], T=T)
        assert b is None or all(got.manipulated)


# The package's three output files: simulate/sweep's metrics CSV and gen-data's CSV and descriptor.
_OUTPUT_WRITERS = {
    "metrics": lambda ds, path: write_metrics(
        run_online(RunConfig(algorithm="smm", c=4.0, T=3 * ds.n, seed=0, track="full"), ds), path),
    "dataset": save_csv,
    "descriptor": lambda ds, path: write_descriptor(ds, path, "l2"),
}


def _old_and_new_datasets():
    """A dataset and a smaller one, so each output of the second is the shorter file."""
    ds = two_cluster_dataset()
    old = Dataset(ds.features, ds.labels, provenance={"kind": "csv", "path": "old/" * 50})
    new = Dataset(ds.features[8:12], ds.labels[8:12], provenance={"kind": "csv", "path": "new"})
    return old, new


class TestMetricsIO:
    def test_round_trip_is_exact(self, tmp_path):
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm="smm", c=4.0, T=60, seed=0, track="full")
        metrics = run_online(cfg, ds)
        path = tmp_path / "run.metrics.csv"
        write_metrics(metrics, path)
        back = read_metrics(path)
        assert back.t == metrics.t
        assert back.mistake == metrics.mistake
        assert back.manipulated == metrics.manipulated
        assert back.label == metrics.label
        assert back.d_t == metrics.d_t  # %.17g keeps doubles exactly
        assert back.distance == metrics.distance
        assert back.margin_gap == metrics.margin_gap

    def test_shared_values_are_written_like_distinct_ones(self, tmp_path):
        # A declaration's cells are written on each of its steps, and equal
        # values in distinct declarations (0.0 and -0.0 compare equal) each
        # keep their own text.
        x, z, nz = 0.1, 0.0, -0.0
        metrics = RunMetrics(
            mistake_flags=np.array([1, 0, 0, 1, 0, 0, 0], dtype=bool),
            manipulated_flags=np.array([0, 1, 0, 0, 0, 1, 0], dtype=bool),
            labels=np.array([1, -1, -1, 1, 1, -1, 1]),
            decl_start=[0, 1, 3, 4, 6],
            decl_d_t=[None, x, z, nz, None],
            decl_distance=[z, nz, z, x, None],
            decl_margin_gap=[x, x, float(str(x)), 1.0 / 3.0, x],
        )
        assert repr(metrics.d_t) == repr([None, x, x, z, nz, nz, None])
        assert repr(metrics.distance) == repr([z, nz, nz, z, x, x, None])
        path = tmp_path / "run.metrics.csv"
        write_metrics(metrics, path)
        cell = lambda v: "" if v is None else f"{v:.17g}"  # noqa: E731
        want = "t,mistake,manipulated,label,d_t,distance,margin_gap\n" + "".join(
            f"{t},{int(a)},{int(b)},{lbl},{cell(d)},{cell(e)},{cell(g)}\n"
            for t, a, b, lbl, d, e, g in zip(
                metrics.t, metrics.mistake, metrics.manipulated, metrics.label,
                metrics.d_t, metrics.distance, metrics.margin_gap,
            )
        )
        assert path.read_text() == want
        assert path.read_text().splitlines()[4:6] == ["4,1,0,1,0,0,0.10000000000000001",
                                                      "5,0,0,1,-0,0.10000000000000001,0.33333333333333331"]

    @settings(max_examples=200, deadline=None)
    @given(_declaration_runs())
    def test_write_read_write_is_the_identity(self, tmp_path_factory, metrics):
        path = tmp_path_factory.mktemp("csv") / "run.metrics.csv"
        write_metrics(metrics, path)
        written = path.read_bytes()
        back = read_metrics(path)
        write_metrics(back, path)
        assert path.read_bytes() == written
        for col in _COLUMNS:  # repr tells -0.0 from 0.0 and keeps None
            assert repr(getattr(back, col)) == repr(getattr(metrics, col)), col
        # read back, adjacent declarations with the same three values merge
        rows = list(zip(metrics.decl_start, metrics.decl_d_t, metrics.decl_distance,
                        metrics.decl_margin_gap))
        merged = [r for k, r in enumerate(rows) if k == 0 or repr(r[1:]) != repr(rows[k - 1][1:])]
        assert repr(list(zip(back.decl_start, back.decl_d_t, back.decl_distance,
                             back.decl_margin_gap))) == repr(merged)

    @pytest.mark.parametrize("writer", sorted(_OUTPUT_WRITERS))
    def test_a_shorter_output_over_a_longer_one_leaves_exactly_its_bytes(self, tmp_path, writer):
        write = _OUTPUT_WRITERS[writer]
        old, new = _old_and_new_datasets()
        path, fresh = tmp_path / "out", tmp_path / "fresh"
        write(new, fresh)
        write(old, path)
        assert path.stat().st_size > fresh.stat().st_size
        write(new, path)
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("writer", sorted(_OUTPUT_WRITERS))
    def test_a_reader_of_the_old_file_still_reads_all_of_it(self, tmp_path, writer):
        # A certify that opened the file before the rewrite, and a hard link
        # to it, keep the old run; truncating in place would cut both short.
        write = _OUTPUT_WRITERS[writer]
        old, new = _old_and_new_datasets()
        path, kept = tmp_path / "out", tmp_path / "kept"
        write(old, path)
        old_bytes = path.read_bytes()
        os.link(path, kept)
        with path.open("rb") as reader:
            write(new, path)
            assert reader.read() == old_bytes
        assert kept.read_bytes() == old_bytes
        assert path.read_bytes() != old_bytes

    def test_a_write_through_a_symlink_lands_in_its_target(self, tmp_path):
        old, new = _old_and_new_datasets()
        write = _OUTPUT_WRITERS["metrics"]
        fresh, target, link = tmp_path / "fresh", tmp_path / "runs" / "run.metrics.csv", tmp_path / "latest.csv"
        target.parent.mkdir()
        link.symlink_to(target)
        write(old, link)  # the link dangles: its target is created
        write(new, fresh)
        assert target.read_bytes() != fresh.read_bytes()
        write(new, link)
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == fresh.read_bytes()

    def test_a_fifo_at_the_path_is_written_into_not_replaced(self, tmp_path):
        # Only a regular file is replaced: a pipe or a device such as
        # /dev/null is opened and written as it stands.
        _, new = _old_and_new_datasets()
        write = _OUTPUT_WRITERS["metrics"]
        fresh, pipe = tmp_path / "fresh", tmp_path / "pipe"
        write(new, fresh)
        os.mkfifo(pipe)
        fd = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write(new, pipe)
            got = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(pipe.lstat().st_mode)
        assert got == fresh.read_bytes()

    def test_a_directory_at_the_path_is_an_error_and_stays(self, tmp_path):
        _, new = _old_and_new_datasets()
        (tmp_path / "run").mkdir()
        with pytest.raises(IsADirectoryError):
            _OUTPUT_WRITERS["metrics"](new, tmp_path / "run")
        assert (tmp_path / "run").is_dir()

    def test_sweep_twice_into_one_out_directory_gives_identical_csvs(self, tmp_path):
        configs, out = tmp_path / "configs", tmp_path / "out"
        configs.mkdir()
        out.mkdir()
        for algorithm in ("perceptron", "smm"):
            (configs / f"{algorithm}.cfg").write_text(
                f"algorithm = {algorithm}\nc = 4\nT = 40\nsynth_n = 60\nsynth_d = 3\ntrack = full\n")
        runs = []
        for _ in range(2):
            assert cli.main(["sweep", "--configs", str(configs), "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(runs[0]) == ["perceptron.metrics.csv", "smm.metrics.csv"]
        assert runs[0] == runs[1]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_metrics(path)

    def test_short_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t,mistake,manipulated,label,d_t,distance,margin_gap\n1,0,0\n")
        with pytest.raises(ValueError, match=":2:"):
            read_metrics(path)

    @pytest.mark.parametrize("row", ["2,2,0,1,,,", "2,0,-1,1,,,", "2,0,0,0,,,", "2,0,0,2,,,",
                                     "2,true,0,1,,,", "2,0,0,+1,,,", "2,0,0,1,x,,", "2,0,0,1,,x,",
                                     "2,0,0,1,,,x", "x,0,0,1,,,", "3,0,0,1,,,", "2,0,0,1,,,,"])
    def test_corrupt_flags_and_labels_rejected_with_path_and_line(self, tmp_path, row):
        path = tmp_path / "x.csv"
        path.write_text("t,mistake,manipulated,label,d_t,distance,margin_gap\n1,1,0,-1,,,\n" + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
            read_metrics(path)

    @pytest.mark.parametrize("row", ["3,0,0,1,,", "3,2,0,1,,,", "3,0,0,1,,0.5x,", "4,0,0,1,,,"])
    def test_blank_lines_keep_the_file_line_of_a_bad_row(self, tmp_path, row):
        path = tmp_path / "x.csv"
        path.write_text("t,mistake,manipulated,label,d_t,distance,margin_gap\n"
                        "1,1,0,-1,,,\n\n2,0,0,1,1,2,3\n   \n" + row + "\n5,0,0,1,x,,\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:6:")):
            read_metrics(path)


def test_init_consumption():
    for algorithm in ("smm", "gradsmm"):
        assert _init_consumption(algorithm, np.array([1, -1, 1])) == 2
        assert _init_consumption(algorithm, np.array([-1, -1, -1, 1])) == 4
        assert _init_consumption(algorithm, np.array([1, 1, 1])) == 3  # never completed
        assert _init_consumption(algorithm, np.array([-1])) == 1
    assert _init_consumption("perceptron", np.array([1, -1, 1])) == 0  # no warm-up


class TestCertify:
    def cfg(self, **kw):
        base = dict(algorithm="smm", c=4.0, T=400, seed=0, track="distance")
        base.update(kw)
        return RunConfig(**base)

    def test_smm_run_passes_its_certificates(self):
        ds = two_cluster_dataset()
        cfg = self.cfg()
        report = certify(cfg, run_online(cfg, ds), ds)
        assert report.passed
        text = report.render()
        assert "RESULT: PASS" in text
        assert "mistakes after declaration" in text
        assert "margins nonincreasing" in text

    def test_certify_without_metrics_shows_bounds_only(self):
        ds = two_cluster_dataset()
        report = certify(self.cfg(), None, ds)
        assert report.passed
        assert all(r.observed is None for r in report.rows if r.bound is not None)
        assert "observed=         -" in report.render()

    def test_unbounded_positive_side_renders_as_unbounded(self):
        # 2/c = 2 exceeds the margin 1: no finite positive-side certificate
        ds = two_cluster_dataset()
        cfg = self.cfg(c=1.0)
        report = certify(cfg, run_online(cfg, ds), ds)
        assert "unbounded" in report.render()
        assert report.passed

    def test_l2_smm_on_synthetic_seed_101_is_certified(self, monkeypatch):
        # an affine step solved through the Gram matrix stalls one of this run's
        # solves at an FW gap of ~4e-9, so the run raised SolverError
        solves, solve = [], learners.solve_max_margin

        def recording(pool, *args, **kw):
            solves.append((pool, solve(pool, *args, **kw)))
            return solves[-1][1]

        monkeypatch.setattr("stratclass.learners.solve_max_margin", recording)
        cfg = RunConfig(algorithm="smm", norm="l2", c=125.0, T=10_000, seed=101, synth_seed=101)
        ds = build_dataset(cfg)
        metrics = run_online(cfg, ds)
        assert metrics.solve_count == len(solves) > 0
        pool, sol = solves[-1]
        P, N = pool.positives, pool.negatives
        (wp, wn), slack = sol.support_weights, cfg.solve_tol + 1e-9
        for w in (wp, wn):
            assert min(w.values()) > 0.0 and sum(w.values()) == pytest.approx(1.0, abs=1e-12)
        half = 0.5 * float(np.linalg.norm(sum(w * P[i] for i, w in wp.items())
                                          - sum(w * N[j] for j, w in wn.items())))
        achieved = min(float(np.min(P @ sol.y)) + sol.b, -float(np.max(N @ sol.y)) - sol.b)
        assert sol.separable and abs(sol.d - half) <= slack and achieved >= half - slack
        assert certify(cfg, metrics, ds).passed

    def test_doctored_counts_fail(self):
        ds = two_cluster_dataset()
        cfg = self.cfg()
        metrics = run_online(cfg, ds)
        metrics.mistake_flags[:] = True  # forged: exceeds every bound
        report = certify(cfg, metrics, ds)
        assert not report.passed
        assert "RESULT: FAIL" in report.render()

    @pytest.mark.parametrize("forged", ["rise", "below_d_star"])
    def test_doctored_margins_fail(self, tmp_path, forged):
        # d_t on the CSV's last row, a declaration of its own once changed, either
        # above the margin before it or below d_star (1 on this instance)
        ds = two_cluster_dataset()
        cfg = self.cfg()
        path = tmp_path / "run.metrics.csv"
        write_metrics(run_online(cfg, ds), path)
        margins = "margins nonincreasing and >= d_star"
        assert next(r for r in certify(cfg, read_metrics(path), ds).rows if r.name == margins).status == "pass"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        last = float(cells[4])
        cells[4] = repr(last + 0.5 if forged == "rise" else 0.5)
        path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        back = read_metrics(path)
        assert back.decl_d_t[-1] == float(cells[4])
        report = certify(cfg, back, ds)
        assert next(r for r in report.rows if r.name == margins).status == "fail"
        assert not report.passed and "RESULT: FAIL" in report.render()

    def test_perceptron_cone_certificates(self):
        ds = two_cluster_dataset()
        cfg = self.cfg(algorithm="perceptron")
        report = certify(cfg, run_online(cfg, ds), ds)
        assert report.passed and "full cone" in report.render()
        # zero-intercept hypothesis holds here (b* = 0), so it certifies too
        cfg = self.cfg(algorithm="perceptron", cone="zero-b")
        report = certify(cfg, run_online(cfg, ds), ds)
        assert report.passed

    def test_violated_hypothesis_is_not_applicable(self):
        # shift the instance so b* != 0: the zero-intercept certificate refuses
        ds = two_cluster_dataset()
        shifted = Dataset(ds.features + np.array([0.0, 0.5]), ds.labels)
        assert shifted.benchmark.b_star == -0.5
        cfg = self.cfg(algorithm="perceptron", cone="zero-b")
        report = certify(cfg, run_online(cfg, shifted), shifted)
        assert "not applicable" in report.render()
        assert report.passed

    def test_gradsmm_reports_info_only(self):
        ds = two_cluster_dataset()
        cfg = self.cfg(algorithm="gradsmm")
        report = certify(cfg, run_online(cfg, ds), ds)
        assert report.passed
        assert "no finite certificate" in report.render()

    @pytest.mark.parametrize(
        "algorithm,mode,sigma",
        [
            ("smm", "iid", 0.0),
            ("smm", "stream", 0.0),
            ("gradsmm", "iid", 0.0),
            ("gradsmm", "stream", 0.0),
            ("smm", "iid", 1e-3),
        ],
    )
    def test_rederived_declaration_mistakes_match_the_run(self, tmp_path, algorithm, mode, sigma):
        # certify --metrics reads only the CSV, so it re-derives the warm-up
        # length from the run's arrival order; it must land on the run's count
        ds = generate_synthetic(SynthConfig(seed=1, n=60, d=3))
        longest = 0
        for seed in range(8):
            cfg = self.cfg(algorithm=algorithm, mode=mode, sigma=sigma, seed=seed, T=40)
            metrics = run_online(cfg, ds)
            path = tmp_path / f"run{seed}.csv"
            write_metrics(metrics, path)
            report = certify(cfg, read_metrics(path), ds)
            row = next(r for r in report.rows if r.name == "declaration-phase mistakes")
            assert row.observed == metrics.init_mistakes, f"seed {seed}"
            longest = max(longest, metrics.init_steps)
        assert longest > 2  # some warm-up outlasted two rounds, so its end had to be found

    def test_certify_measures_the_radii_once_per_dataset(self, monkeypatch):
        measured = spy(monkeypatch, data, "_centred_half_diameter")
        ds = two_cluster_dataset()
        first, second = (certify(self.cfg(), None, ds).render() for _ in range(2))
        assert [len(X) for X, in measured] == [20, 10, 10] and first == second

    def test_certify_solves_the_benchmark_once_per_norm(self, monkeypatch):
        solves = spy(monkeypatch, data, "solve_max_margin")
        ds = two_cluster_dataset()
        for norm in ("l2", "l1", "l2", "l1"):
            assert "d_star=1 " in certify(self.cfg(norm=norm), None, ds).render()
        assert [m.norm.kind for _, m in solves] == ["l2", "l1"]
        assert all(pair is ds.point_sets for pair, _ in solves)

    @pytest.mark.parametrize("norm", ["linf", "lp:3"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_smm_is_certified_in_its_own_norm(self, seed, norm):
        # on both seeds the linf and lp:3 margins lie below the reach 2/c = 0.016
        # and the l2 margin (0.0207 on seed 0), and at or below every margin the
        # run declares
        cfg = self.cfg(norm=norm, c=125.0, T=2000, seed=seed, synth_seed=seed)
        ds = build_dataset(cfg)
        rows = {r.name: r for r in certify(cfg, run_online(cfg, ds), ds).rows}
        assert rows["manipulations, positive agents"].status == "unbounded"
        assert rows["margins nonincreasing and >= d_star"].status == "pass"

    def test_a_one_label_population_runs_but_is_not_certified(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_text("f1,f2,label\n0,1,1\n1,2,1\n-1,3,1\n")
        cfg = self.cfg(dataset=str(path), track="full", T=50)
        metrics = run_online(cfg)
        assert metrics.t[-1] == 50 and set(metrics.distance) == {None} and set(metrics.margin_gap) == {None}
        (tmp_path / "run.cfg").write_text(f"algorithm = smm\nc = 4\nT = 50\ndataset = {path}\n")
        assert cli.main(["certify", "--config", str(tmp_path / "run.cfg")]) == 2
        assert "cannot certify: the dataset holds agents of one label only" in capsys.readouterr().err

    def test_inseparable_dataset_without_benchmark_rejected(self):
        ds = Dataset(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([1, -1]))
        with pytest.raises(ConfigError, match="separable"):
            certify(self.cfg(), None, ds)


class TestCsvReload:
    """A dataset reloaded from its CSV is the same dataset: same runs, same reports."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        ds = generate_synthetic(SynthConfig(seed=0))
        path = tmp_path_factory.mktemp("reload") / "pop.csv"
        save_csv(ds, path)
        return ds, data.load_csv(path)

    @pytest.mark.parametrize(
        "algorithm,norm",
        [("smm", "l2"), ("gradsmm", "l2"), ("perceptron", "l2"), ("smm", "l1"), ("smm", "linf")],
    )
    def test_runs_and_reports_are_byte_identical(self, pair, tmp_path, algorithm, norm):
        cfg = RunConfig(algorithm=algorithm, norm=norm, c=125.0, T=1000, seed=3)
        outputs = []
        for i, ds in enumerate(pair):
            path = tmp_path / f"run{i}.csv"
            metrics = run_online(cfg, ds)
            write_metrics(metrics, path)
            outputs.append((path.read_bytes(), certify(cfg, metrics, ds).render()))
        assert outputs[0] == outputs[1]


class TestExamples:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_all_examples_pass(self, name):
        report = reproduce_example(name)
        assert report.passed, report.render()

    def test_unknown_example_rejected(self):
        with pytest.raises(ConfigError, match="unknown example"):
            reproduce_example("nope")


def test_sweep_runs_every_config(tmp_path):
    (tmp_path / "a.cfg").write_text("algorithm = perceptron\nc = 4\nT = 20\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n")
    (tmp_path / "b.cfg").write_text("algorithm = smm\nc = 4\nT = 20\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n")
    results = sweep(tmp_path)
    assert [name for name, _, _ in results] == ["a.cfg", "b.cfg"]
    assert (tmp_path / "a.metrics.csv").exists()
    assert (tmp_path / "b.metrics.csv").exists()
    with pytest.raises(ConfigError):
        sweep(tmp_path / "empty")


class TestCli:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_simulate_writes_metrics(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "c = 4\nT = 30\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n")
        out = str(tmp_path / "m.csv")
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        assert "mistakes=" in capsys.readouterr().out
        assert read_metrics(out).t[-1] == 30

    def test_certify_exit_codes(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "c = 4\nT = 30\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n")
        out = str(tmp_path / "m.csv")
        cli.main(["simulate", "--config", cfg, "--out", out])
        assert cli.main(["certify", "--config", cfg, "--metrics", out]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["smm", "perceptron"])
    def test_certify_rejects_metrics_of_another_run(self, tmp_path, capsys, algorithm):
        text = f"algorithm = {algorithm}\nc = 4\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n"
        cfg = self.write_cfg(tmp_path, text + "T = 30\nseed = 1\n")
        out = tmp_path / "m.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for other, fragment in (("T = 30\nseed = 2\n", "different run"),
                                ("T = 31\nseed = 1\n", "30 rows but the config runs 31 steps")):
            other_cfg = tmp_path / "other.cfg"
            other_cfg.write_text(text + other)
            assert cli.main(["certify", "--config", str(other_cfg), "--metrics", str(out)]) == 2
            assert fragment in capsys.readouterr().err
        lines = out.read_text().splitlines()
        lines[1] = "1,2" + lines[1][3:]  # a mistake flag of 2
        out.write_text("\n".join(lines) + "\n")
        assert cli.main(["certify", "--config", cfg, "--metrics", str(out)]) == 2
        assert f"{out}:2:" in capsys.readouterr().err

    def test_reproduce_example_cli(self, capsys):
        assert cli.main(["reproduce-example", EXAMPLE_NAMES[0]]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "algorithm = svm\nc = 1\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_bad_synthetic_key_is_exit_2_naming_its_line(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "c = 4\nT = 10\nsynth_n = 1\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: line 3: synth_n must be >= 2, got 1\n"

    def test_a_wl1_norm_of_the_wrong_dimension_is_exit_2_naming_its_keys_and_line(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "algorithm = smm\nnorm = wl1:1,2\nc = 4\nT = 10\nsynth_n = 60\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: norm = wl1:1,2 with synth_d = 6: wl1 norm has 2 weights but dim=6\n")

    def test_an_iid_run_without_a_horizon_is_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "c = 4\nsynth_n = 60\nsynth_d = 3\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: iid mode requires an explicit T\n"
        # certify draws no arrivals without metrics, so it needs no horizon
        assert cli.main(["certify", "--config", cfg]) == 0

    def test_a_stream_horizon_beyond_the_supply_is_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "c = 4\nmode = stream\nsynth_n = 60\nsynth_d = 3\nT = 100000\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: T=100000 exceeds rounds*n=53 in stream mode\n"

    def test_a_negative_seed_is_exit_2_naming_its_key_and_line(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "c = 4\nT = 10\nsynth_seed = -2\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: line 3: synth_seed must be >= 0, got -2\n"

    def test_gradsmm_under_a_non_l2_norm_is_exit_2(self, tmp_path, capsys):
        text = "algorithm = gradsmm\nc = 4\nT = 30\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n"
        out = str(tmp_path / "m.csv")
        assert cli.main(["simulate", "--config", self.write_cfg(tmp_path, text), "--out", out]) == 0
        capsys.readouterr()
        cfg = self.write_cfg(tmp_path, text + "norm = l1\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "gradsmm requires norm = l2" in capsys.readouterr().err
        # the metrics of the l2 run are well formed: only the config stops certify
        assert cli.main(["certify", "--config", cfg, "--metrics", out]) == 2
        assert "gradsmm requires norm = l2" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("c = 1e-320\nT = 10\n", "error: line 1: c = 1e-320: c, 2/c and (2/c)**2 must all be positive and finite\n"),
        ("c = 1e-300\nT = 300\nsynth_n = 300\n", "error: line 1: c = 1e-300: c, 2/c and (2/c)**2 must all be positive and finite\n"),
    ])
    def test_a_budget_whose_reach_overflows_is_exit_2(self, tmp_path, capsys, text, message):
        assert cli.main(["simulate", "--config", self.write_cfg(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""

    def test_a_budget_whose_reach_squares_in_range_runs(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "c = 1e-150\nT = 300\nsynth_n = 300\n")
        assert cli.main(["simulate", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("T=300 ")

    @pytest.mark.parametrize("line", ["tol = 1e-9", "force_resolve = true", "schedule = invsqrt",
                                      "two_over_c = 0.016", "gamma = 0.5"])
    def test_retired_keys_are_exit_2(self, tmp_path, capsys, line):
        cfg = self.write_cfg(tmp_path, f"c = 4\nT = 10\n{line}\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        key = line.split()[0]
        assert capsys.readouterr().err == f"error: line 3: unknown key {key!r}\n"

    def test_a_solver_error_is_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverError("nearest-point iteration cap 1000 reached")

        monkeypatch.setattr(learners, "solve_max_margin", fail)
        cfg = self.write_cfg(tmp_path, "c = 4\nT = 30\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n")
        assert cli.main(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: nearest-point iteration cap 1000 reached\n"

    def test_missing_file_is_exit_2(self, capsys):
        assert cli.main(["simulate", "--config", "/nonexistent.cfg"]) == 2
        capsys.readouterr()

    def test_unknown_example_name_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce-example", "nope"])
        assert exc.value.code == 2

    def test_solve_margin_cli(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("f1,f2,label\n0,1,1\n-2,-1,-1\n")
        assert cli.main(["solve-margin", "--points", str(path)]) == 0
        out = capsys.readouterr().out
        assert "margin = 1.41421356237" in out

    def test_solve_margin_has_no_tolerance_option(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("f1,f2,label\n0,1,1\n1,1,1\n-2,-1,-1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve-margin", "--points", str(path), "--tol", "1e-9"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tol 1e-9" in captured.err and captured.out == ""

    def test_solve_margin_rejects_non_finite_features(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("f1,f2,label\n1.0,1.0,1\nnan,0.5,1\n-1.0,-1.0,-1\n")
        assert cli.main(["solve-margin", "--points", str(path)]) == 2
        captured = capsys.readouterr()
        assert ":3:" in captured.err and "non-finite" in captured.err
        assert captured.out == ""

    def test_gen_data_cli(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "c = 1\nT = 10\nsynth_n = 50\nsynth_d = 3\n")
        out = tmp_path / "pop.csv"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists() and out.with_suffix(".csv.meta").exists()
        assert "d_star=" in capsys.readouterr().out

    def test_gen_data_reports_the_benchmark_in_the_configs_norm(self, tmp_path, capsys):
        pop = tmp_path / "pop.csv"
        save_csv(generate_synthetic(SynthConfig(seed=2, n=400, d=3)), pop)
        cfg = self.write_cfg(tmp_path, f"c = 8\nT = 10\nnorm = l1\ntrim_rho = 0.05\ndataset = {pop}\n")
        out = tmp_path / "trimmed.csv"
        assert cli.main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        bench = json.loads(out.with_suffix(".csv.meta").read_text())["benchmark"]
        assert bench["norm"] == "l1" and bench["d_star"] >= 0.05  # what the trim guarantees, in l1
        assert cli.main(["certify", "--config", cfg]) == 0
        certified = re.search(r"d_star=(\S+)", capsys.readouterr().out)[1]
        assert printed.endswith(f" d_star={certified}\n") and certified == f"{bench['d_star']:.6g}"
        assert data.load_csv(out).benchmark.d_star < 0.05  # the l2 margin, which gen-data used to report

    def test_sweep_cli(self, tmp_path, capsys):
        self.write_cfg(tmp_path, "c = 4\nT = 10\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n")
        assert cli.main(["sweep", "--configs", str(tmp_path)]) == 0
        assert "run.cfg" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("c = 1\nbogus = 1\n", "line 2: unknown key 'bogus'"),  # from parsing
        ("c = 1\n", "iid mode requires an explicit T"),  # from the run
    ])
    def test_sweep_cli_names_the_config_that_failed(self, tmp_path, capsys, text, message):
        self.write_cfg(tmp_path, "c = 4\nT = 10\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n")
        (tmp_path / "bad.cfg").write_text(text)
        assert cli.main(["sweep", "--configs", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: bad.cfg: {message}\n"


@pytest.mark.parametrize("norm, most_lps", [("lp:3", 40), ("linf", None)])
def test_smm_solves_curved_norms_in_few_lps(monkeypatch, norm, most_lps):
    # cold cutting planes took 414 LPs under lp:3 and 38 under linf for these
    # runs; linf's LP holds the whole dual ball, so it takes one LP per solve
    solves, solve = [], learners.solve_max_margin

    def recording(pool, *args, **kw):
        solves.append(solve(pool, *args, **kw))
        return solves[-1]

    monkeypatch.setattr("stratclass.learners.solve_max_margin", recording)
    cfg = RunConfig(algorithm="smm", norm=norm, c=125.0, T=20, seed=0, synth_seed=0)
    metrics = run_online(cfg, build_dataset(cfg))
    assert metrics.solve_count == len(solves) > 5
    lps = sum(sol.rounds for sol in solves)
    assert lps == len(solves) if most_lps is None else lps <= most_lps


@pytest.mark.parametrize("norm", ["l1", "linf", "lp:3", "lp:1.5", "wl1:0.5,2,1,1.5,0.75,3"])
def test_smm_runs_are_the_same_through_linprog(monkeypatch, tmp_path, norm):
    # the cutting-plane solver calls HiGHS directly; with linprog's wrapper
    # around the same HiGHS every output of the run is the same, bit for bit
    configs = [RunConfig(algorithm="smm", norm=norm, c=125.0, T=200, seed=s, synth_seed=s) for s in (0, 1)]
    datasets = [build_dataset(cfg) for cfg in configs]
    solve = learners.solve_max_margin

    def runs(tag):
        rounds = []

        def recording(pool, *args, **kw):
            sol = solve(pool, *args, **kw)
            rounds.append(sol.rounds)
            return sol

        monkeypatch.setattr("stratclass.learners.solve_max_margin", recording)
        out = []
        for cfg, ds in zip(configs, datasets):
            metrics = run_online(cfg, ds)
            path = tmp_path / f"{tag}{cfg.seed}.csv"
            write_metrics(metrics, path)
            out.append((path.read_bytes(), metrics.solve_count, metrics.final_y.tobytes(), metrics.final_b))
        return out, rounds

    direct = runs("direct")
    monkeypatch.setattr("stratclass.maxmargin._highs_lp", oracle_lp)
    assert runs("linprog") == direct
    assert sum(direct[1]) >= len(direct[1]) > 10

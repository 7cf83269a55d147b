"""Config parsing, online runs, metrics files, certification, CLI plumbing."""

import math

import numpy as np
import pytest

import stratclass.cli as cli
from stratclass.bounds import Benchmark
from stratclass.data import Dataset, SynthConfig, generate_synthetic, save_csv
from stratclass.harness import (
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


def two_cluster_dataset():
    xs = np.linspace(-1.0, 1.0, 10)
    feats = np.vstack([np.c_[xs, np.ones(10)], np.c_[xs, -np.ones(10)]])
    labels = np.array([1] * 10 + [-1] * 10)
    return Dataset(feats, labels, Benchmark(np.array([0.0, 1.0]), 0.0, 1.0))


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
            gamma = 0.5
            tol = 1e-9
            force_resolve = true
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
        assert cfg.force_resolve is True and cfg.synth_d == 3

    def test_two_over_c_sets_the_budget(self):
        cfg = parse_config("two_over_c = 0.5\nT = 10")
        assert cfg.c == 4.0

    def test_solver_tolerance_loosens_under_noise(self):
        assert RunConfig(c=1.0).solve_tol == 1e-10
        assert RunConfig(c=1.0, sigma=1e-3).solve_tol == 1e-6
        assert RunConfig(c=1.0, sigma=1e-3, tol=1e-12).solve_tol == 1e-12

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("bogus = 1\nc = 1", "line 1"),
            ("c = 1\nc = 2", "line 2"),
            ("c 1", "key = value"),
            ("T = ten\nc = 1", "line 1"),
            ("force_resolve = maybe\nc = 1", "boolean"),
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
            ("gamma = nan\nc = 1", "gamma"),
            ("tol = 0\nc = 1", "tol"),
            ("c = 0", "positive"),
            ("T = 5", "c or two_over_c"),
        ],
    )
    def test_bad_configs_raise_config_error(self, text, fragment):
        with pytest.raises((ConfigError, ValueError), match=fragment or None):
            parse_config(text)


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
    assert back.n == ds.n and back.benchmark is None


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

    def test_smm_survives_noise_by_falling_back(self):
        # heavy noise scrambles the pool until it is inseparable; the learner
        # must park at the zero classifier and keep answering
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm="smm", c=4.0, T=500, seed=3, sigma=1.0, track="counts")
        metrics = run_online(cfg, ds)
        assert len(metrics.t) == 500
        assert metrics.inseparable_at is not None
        assert not np.any(metrics.final_y)

    def test_stream_mode_visits_everyone_each_round(self):
        ds = two_cluster_dataset()
        cfg = RunConfig(algorithm="perceptron", c=4.0, mode="stream", rounds=2, seed=1)
        metrics = run_online(cfg, ds)
        assert len(metrics.t) == 2 * ds.n
        assert sum(1 for l in metrics.label if l == 1) == ds.n


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


def test_init_consumption():
    assert _init_consumption(np.array([1, -1, 1])) == 2
    assert _init_consumption(np.array([-1, -1, -1, 1])) == 4
    assert _init_consumption(np.array([1, 1, 1])) == 3  # never completed


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

    def test_doctored_counts_fail(self):
        ds = two_cluster_dataset()
        cfg = self.cfg()
        metrics = run_online(cfg, ds)
        metrics.mistake = [True] * len(metrics.t)  # forged: exceeds every bound
        report = certify(cfg, metrics, ds)
        assert not report.passed
        assert "RESULT: FAIL" in report.render()

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
        shifted = Dataset(
            ds.features + np.array([0.0, 0.5]),
            ds.labels,
            Benchmark(np.array([0.0, 1.0]), -0.5, 1.0),
        )
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

    def test_inseparable_dataset_without_benchmark_rejected(self):
        ds = Dataset(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([1, -1]))
        with pytest.raises(ConfigError, match="separable"):
            certify(self.cfg(), None, ds)


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

    def test_reproduce_example_cli(self, capsys):
        assert cli.main(["reproduce-example", EXAMPLE_NAMES[0]]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "algorithm = svm\nc = 1\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

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

    def test_sweep_cli(self, tmp_path, capsys):
        self.write_cfg(tmp_path, "c = 4\nT = 10\nsynth_n = 60\nsynth_d = 3\ntrack = counts\n")
        assert cli.main(["sweep", "--configs", str(tmp_path)]) == 0
        assert "run.cfg" in capsys.readouterr().out

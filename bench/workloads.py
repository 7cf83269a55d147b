"""The benchmark's four workloads, one round of each, and its output checks.

A workload is a closed batch: one run after another in one process.  A
round sets up the workload's inputs and then runs every job once; a job is
one online run followed by the ``simulate --out`` -> ``certify --metrics``
tail (write the metrics CSV, read it back, certify it).  Every round of a
workload repeats exactly the same operations on exactly the same inputs.

The reference kernel (``reference.py``) runs before and after each timed
segment (the set-up, each job's online run, each job's certify tail) and,
in untraced rounds, about every ``reference.PERIOD_S`` inside them.  Each
segment is then also expressed in reference seconds, which the host's
changes of speed cancel out of.  Untraced library rounds set up
``REPEATS`` times and run each certify tail ``tail_repeats`` times, and
keep the medians: both take tens of milliseconds, too short for one
sample a round to be steady.

Inputs come from the ``--seed`` argument, taken modulo ``INPUT_SEEDS``,
except in ``nonl2-smm``: its runs hit two known faults, and a failure that
is counted must not depend on the seed, so its inputs are fixed.  Synthetic
seeds 0 to ``INPUT_SEEDS - 1`` are the ones on which every job of the
other workloads was run to its end with every check holding; beyond them
the program fails on some seeds (seed 101 stops the l2 smm run with a
``SolverError``), and a failure that comes and goes with the seed cannot
be counted the same way in every run.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from stratclass import cli, data, harness
from stratclass.data import SynthConfig

import checks
import reference
from tracer import Recorder, instrument, pool_rows

_clock = time.perf_counter

C = 125.0  # 2/c = 0.016 = 0.8 * rho, the acceptance battery's budget
NONL2_T = 20
INPUT_SEEDS = 40
REPEATS = 3
NONL2_TAIL_REPEATS = 9  # its tails take ~30 ms, a third of the other workloads'


@dataclass(frozen=True)
class Job:
    name: str
    config: dict  # RunConfig fields
    checks: tuple[str, ...]
    # check -> the fault that makes it fail today; such a failure is counted
    # in ``failed`` but does not make the result incorrect
    known_faults: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    via_cli: bool  # run through ``cli.main`` (simulate, certify) instead of the library
    tail_repeats: int = REPEATS  # certify tails per job in an untraced library round


def _synthetic(seed, n=2000):
    return dict(dataset="synthetic", synth_seed=seed, synth_n=n)


_FAULT1 = "uncertified non-l2 ascent margin adopted by SmmLearner (ROADMAP item 3)"
_FAULT2 = "certify uses the l2 benchmark for every norm (ROADMAP item 4a)"


def build(name: str, seed: int) -> Workload:
    """The named workload with its inputs drawn from ``seed``."""
    seed %= INPUT_SEEDS
    if name == "l2-iid":
        base = dict(norm="l2", c=C, T=10_000, seed=seed, mode="iid", **_synthetic(seed))
        return Workload(name, (
            Job("smm", dict(base, algorithm="smm"), ("init", "witness", "certify", "csv")),
            Job("perceptron-full", dict(base, algorithm="perceptron"),
                ("perceptron_bound", "certify", "csv")),
            Job("perceptron-zero-b", dict(base, algorithm="perceptron", cone="zero-b"),
                ("certify", "csv")),
            Job("smm-noisy", dict(base, algorithm="smm", sigma=1e-3), ("init", "witness", "csv")),
        ), via_cli=False)
    if name == "gradsmm-iid":
        cfg = dict(algorithm="gradsmm", norm="l2", c=C, T=20_000, seed=seed, mode="iid",
                   **_synthetic(seed))
        return Workload(name, (
            Job("gradsmm", cfg, ("init", "gradsmm_promise", "certify", "csv")),
        ), via_cli=False)
    if name == "l2-stream":
        base = dict(norm="l2", c=C, seed=seed, mode="stream", **_synthetic(seed, n=10_000))
        return Workload(name, (
            Job("smm", dict(base, algorithm="smm"), ("exit", "init", "witness", "certify", "csv")),
            Job("gradsmm", dict(base, algorithm="gradsmm"), ("exit", "init", "certify", "csv")),
            Job("perceptron", dict(base, algorithm="perceptron"),
                ("exit", "perceptron_bound", "certify", "csv")),
        ), via_cli=True)
    if name == "nonl2-smm":
        base = dict(algorithm="smm", c=C, T=NONL2_T, seed=0, mode="iid", **_synthetic(0))
        lp_checks = ("init", "csv", "lp_optimal", "margins_monotone", "positive_verdict")
        return Workload(name, (
            Job("l1", dict(base, norm="l1"), lp_checks,
                {"lp_optimal": _FAULT1, "margins_monotone": _FAULT1}),
            Job("linf", dict(base, norm="linf"), lp_checks,
                {"lp_optimal": _FAULT1, "margins_monotone": _FAULT1, "positive_verdict": _FAULT2}),
            Job("lp3", dict(base, norm="lp:3"), ("init", "csv", "margins_monotone"),
                {"margins_monotone": _FAULT1}),
        ), via_cli=False, tail_repeats=NONL2_TAIL_REPEATS)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("l2-iid", "gradsmm-iid", "l2-stream", "nonl2-smm")


@dataclass
class JobRun:
    job: Job
    rec: Recorder
    csv_bytes: int
    exit_codes: tuple = ()
    steps: int = 0
    digest: str = ""  # checks.output_digest of the run's metrics
    pool_rows: tuple = (0, 0)  # rows and distinct rows of the learner's final pool
    # Seconds (kernel time taken out), and the same in reference seconds,
    # of: dataset building inside run_online (the CLI path only), the online
    # run without it, and the certify tail (write_metrics + read_metrics +
    # certify; the median of its repeats).
    setup_s: float = 0.0
    setup_ref: float = 0.0
    run_s: float = 0.0
    run_ref: float = 0.0
    certify_s: float = 0.0
    certify_ref: float = 0.0

    def digest_outputs(self, traced: bool) -> None:
        if self.rec.metrics is not None:
            self.steps = len(self.rec.metrics.t)
            self.digest = checks.output_digest(self.rec.metrics)
        if traced:
            self.pool_rows = pool_rows(self.rec.pool)

    def release(self) -> None:
        """Drop the run's outputs once they have been digested; keep timings and counts."""
        rec = self.rec
        rec.metrics = rec.read_back = rec.dataset = rec.report = rec.pool = rec.solution = None


@dataclass
class Round:
    traced: bool
    setup_s: float  # the benchmark's own set-up plus dataset builds inside run_online
    setup_ref: float  # the same in reference seconds
    wall_s: float  # one pass over set-up and jobs, kernel time and repeats taken out
    elapsed_s: float  # everything, kernel samples and repeats included
    setup_rec: Recorder
    jobs: list


def _config_text(config: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in config.items())


def _csv_s(rec: Recorder) -> float:
    return rec.total("harness.write_metrics") + rec.total("harness.read_metrics")


def run_round(wl: Workload, workdir: Path, traced: bool) -> Round:
    """Set the workload up and run each of its jobs once."""
    start = _clock()
    host = reference.HostSampler()
    sampler = None if traced else host
    extra_s = 0.0  # time of the repeats after the first
    host.sample()

    setup_rec = Recorder()
    own = []  # (seconds, reference seconds) of each set-up
    datasets = {}
    for _ in range(0 if wl.via_cli else 1 if traced else REPEATS):
        t0 = _clock()
        datasets = {}
        with instrument(setup_rec, traced):
            for job in wl.jobs:
                cfg = harness.RunConfig(**job.config)
                key = (cfg.synth_seed, cfg.synth_n)
                if key not in datasets:
                    datasets[key] = data.generate_synthetic(SynthConfig(seed=cfg.synth_seed, n=cfg.synth_n))
        t = _clock() - t0
        own.append((t, reference.step_seconds(t, host.close())))
    extra_s += sum(t for t, _ in own[1:])

    runs = []
    for job in wl.jobs:
        csv = workdir / f"{wl.name}-{job.name}.csv"
        rec = Recorder(sampler)
        if wl.via_cli:
            cfg_path = workdir / f"{wl.name}-{job.name}.cfg"
            cfg_path.write_text(_config_text(job.config))
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                with instrument(rec, traced):
                    simulated = cli.main(["simulate", "--config", str(cfg_path), "--out", str(csv)])
                speed = host.close()
                write_s = rec.total("harness.write_metrics")
                with instrument(rec, traced):
                    certified = cli.main(["certify", "--config", str(cfg_path), "--metrics", str(csv)])
            run = JobRun(job, rec, csv.stat().st_size, (simulated, certified))
            run.setup_s = rec.total("harness.build_dataset", parent="harness.run_online")
            read_s, certify_s = rec.total("harness.read_metrics"), rec.total("harness.certify")
            certify_speed = host.close()
            run.certify_s = write_s + read_s + certify_s
            run.certify_ref = (reference.step_seconds(write_s, speed)
                               + reference.step_seconds(read_s, certify_speed)
                               + reference.bulk_seconds(certify_s, certify_speed))
        else:
            cfg = harness.RunConfig(**job.config)
            ds = datasets[(cfg.synth_seed, cfg.synth_n)]
            rec.dataset = ds
            with instrument(rec, traced):
                metrics = harness.run_online(cfg, ds)
            speed = host.close()
            tails = []
            for _ in range(1 if traced else wl.tail_repeats):
                csv_before, certify_before = _csv_s(rec), rec.total("harness.certify")
                with instrument(rec, traced):
                    harness.write_metrics(metrics, csv)
                    harness.certify(cfg, harness.read_metrics(csv), ds)
                csv_s = _csv_s(rec) - csv_before
                certify_s = rec.total("harness.certify") - certify_before
                tail_speed = host.close()
                tails.append((csv_s + certify_s, reference.step_seconds(csv_s, tail_speed)
                              + reference.bulk_seconds(certify_s, tail_speed)))
            extra_s += sum(t for t, _ in tails[1:])
            run = JobRun(job, rec, csv.stat().st_size)
            run.certify_s = statistics.median(t for t, _ in tails)
            run.certify_ref = statistics.median(r for _, r in tails)
        run.run_s = rec.total("harness.run_online") - run.setup_s
        run.run_ref = reference.step_seconds(run.run_s, speed)
        run.setup_ref = reference.step_seconds(run.setup_s, speed)
        runs.append(run)

    elapsed_s = _clock() - start
    setup_s = sum(r.setup_s for r in runs)
    setup_ref = sum(r.setup_ref for r in runs)
    if own:
        setup_s += statistics.median(t for t, _ in own)
        setup_ref += statistics.median(r for _, r in own)
    for run in runs:
        run.digest_outputs(traced)
    wall_s = elapsed_s - host.kernel_s - extra_s
    return Round(traced, setup_s, setup_ref, wall_s, elapsed_s, setup_rec, runs)


def changed_jobs(first: Round, other: Round) -> list[str]:
    """Jobs whose outputs in ``other`` differ from those in ``first``."""
    return [b.job.name for a, b in zip(first.jobs, other.jobs) if a.digest != b.digest]


def check_job(run: JobRun) -> list[tuple[str, bool, str]]:
    """Run every check the job lists; returns (check, ok, detail) triples."""
    rec, job = run.rec, run.job
    cfg = harness.RunConfig(**job.config)
    out = []
    for name in job.checks:
        try:
            ok, detail = _CHECKS[name](run, rec, cfg)
        except Exception as exc:  # a check that cannot run is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append((name, ok, detail))
    return out


def _pool(rec):
    return rec.pool.positives, rec.pool.negatives


def _population(rec):
    ds = rec.dataset
    return ds.features[ds.labels == 1], ds.features[ds.labels == -1]


_CHECKS = {
    "exit": lambda run, rec, cfg: (
        run.exit_codes[0] == 0 and run.exit_codes[1] == (0 if rec.report.passed else 1),
        f"simulate exit {run.exit_codes[0]}, certify exit {run.exit_codes[1]}",
    ),
    "init": lambda run, rec, cfg: checks.init_mistakes(rec.metrics),
    "witness": lambda run, rec, cfg: checks.witness_certificate(*_pool(rec), rec.solution, cfg.solve_tol),
    "certify": lambda run, rec, cfg: checks.certify_passed(rec.report),
    "csv": lambda run, rec, cfg: checks.csv_roundtrip(rec.metrics, rec.read_back),
    "perceptron_bound": lambda run, rec, cfg: checks.perceptron_full_cone(
        rec.dataset.features, rec.dataset.labels, rec.dataset.benchmark, cfg.c, rec.metrics.mistakes
    ),
    "gradsmm_promise": lambda run, rec, cfg: checks.gradsmm_promise(rec.metrics),
    "lp_optimal": lambda run, rec, cfg: checks.lp_optimality(
        *_pool(rec), rec.metrics.final_y, rec.metrics.final_b, cfg.norm
    ),
    "margins_monotone": lambda run, rec, cfg: checks.certify_row(rec.report, "margins nonincreasing"),
    "positive_verdict": lambda run, rec, cfg: checks.positive_manipulation_verdict(
        rec.report, checks.lp_max_margin(*_population(rec), cfg.norm)[0], 2.0 / cfg.c
    ),
}

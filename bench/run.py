"""Run one stratclass benchmark workload and print its metrics.

    python3 bench/run.py --workload l2-iid --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Rounds of the workload (see ``workloads.py``) repeat
until ``--seconds`` of measured time have passed.  The first round's
outputs are checked; every later round must reproduce them exactly.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, in reference seconds (``reference.py``); with
``--trace 1`` untraced and traced rounds alternate, the traced rounds'
outputs must equal the untraced ones, and the JSON holds the per-layer
metrics.  The lines before it give the
platform, each job's digests and every failed check.  The same record,
with each round's figures, is written to ``.bench_out/``.
"""

import os

# One BLAS / OpenMP thread, set before numpy is first imported: each
# workload is one process running small matrix-vector products, and a fixed,
# recorded pool size keeps runs on machines with different core counts
# comparable.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _per(a, b):
    return a / b if b else 0.0


def end_to_end(rounds) -> dict:
    """Throughput, set-up and certify time in reference seconds, medians over rounds.

    Reference seconds (``reference.py``) cancel the host's changes of speed;
    each job's median over the run's rounds is summed over the jobs.
    """
    n_jobs = len(rounds[0].jobs)
    run_s = [statistics.median(r.jobs[j].run_ref for r in rounds) for j in range(n_jobs)]
    certify_s = [statistics.median(r.jobs[j].certify_ref for r in rounds) for j in range(n_jobs)]
    steps = sum(j.steps for j in rounds[0].jobs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "steps_per_s": (_per(steps, sum(run_s)), "steps/s"),
        "setup_s": (statistics.median(r.setup_ref for r in rounds), "s"),
        "certify_s": (sum(certify_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(traced, untraced) -> dict:
    """Layer figures of the fastest traced round, with the tracing overhead."""
    rnd = min(traced, key=lambda r: r.wall_s)
    recs = [rnd.setup_rec] + [j.rec for j in rnd.jobs]

    def tot(name):
        return sum(r.total(name) for r in recs)

    def calls(name):
        return sum(r.calls(name) for r in recs)

    def count(name):
        return sum(r.counts[name] for r in recs)

    steps = sum(j.steps for j in rnd.jobs)
    rows = [j.pool_rows for j in rnd.jobs]
    solve_rows = [n for j in rnd.jobs for n in j.rec.solve_rows]
    return {
        "harness.run_online.self_us": (1e6 * _per(sum(r.self_time("harness.run_online") for r in recs), steps), "us"),
        "response.interact.us": (1e6 * _per(tot("response.interact"), calls("response.interact")), "us/call"),
        "response.proxy.calls_per_step": (_per(calls("response.proxy"), steps), "count"),
        "norms.dual_norm_eval.calls_per_step": (_per(count("norms.dual_norm_eval"), steps), "count"),
        "norms.manipulation_direction.calls_per_step": (_per(count("norms.manipulation_direction"), steps), "count"),
        "maxmargin.margin_h.calls_per_step": (_per(calls("maxmargin.margin_h"), steps), "count"),
        "maxmargin.margin_h.us": (1e6 * _per(tot("maxmargin.margin_h"), calls("maxmargin.margin_h")), "us/call"),
        "learners.update.self_us": (1e6 * _per(sum(r.self_time("learners.update") for r in recs), calls("learners.update")), "us/call"),
        "learners.pool.rows": (sum(r for r, _ in rows), "count"),
        "learners.pool.distinct_rows": (sum(d for _, d in rows), "count"),
        "maxmargin.solve.calls": (calls("maxmargin.solve"), "count"),
        "maxmargin.solve.ms": (1e3 * _per(tot("maxmargin.solve"), calls("maxmargin.solve")), "ms/call"),
        "maxmargin.solve.pool_rows": (_per(sum(solve_rows), len(solve_rows)), "rows"),
        "maxmargin.solve.iterations": (count("maxmargin.solve.iterations"), "count"),
        "maxmargin.gate.calls": (calls("maxmargin.gate"), "count"),
        "maxmargin.gate.skips": (count("maxmargin.gate.skips"), "count"),
        "data.generate_synthetic.calls": (calls("data.generate_synthetic"), "count"),
        "data.generate_synthetic.s": (tot("data.generate_synthetic"), "s"),
        "bounds.dataset_constants.calls": (calls("bounds.dataset_constants"), "count"),
        "bounds.dataset_constants.s": (tot("bounds.dataset_constants"), "s"),
        "harness.write_metrics.s": (tot("harness.write_metrics"), "s"),
        "harness.read_metrics.s": (tot("harness.read_metrics"), "s"),
        "harness.metrics_csv.bytes": (sum(j.csv_bytes for j in rnd.jobs), "bytes"),
        "harness.certify.self_s": (sum(r.self_time("harness.certify") for r in recs), "s"),
        "trace.traced_wall_s": (rnd.wall_s, "s"),
        "trace.untraced_wall_s": (min(r.wall_s for r in untraced), "s"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "stratclass" / "__init__.py").is_file():
        print(f"error: no package source at {src}/stratclass; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _measure(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, workdir) -> int:
    import checks
    import workloads

    env = _environment()
    untraced, traced = [], []
    measured = 0.0
    while measured < args.seconds:
        for rounds in (untraced, traced) if args.trace else (untraced,):
            rnd = workloads.run_round(wl, workdir, traced=rounds is traced)
            measured += rnd.elapsed_s
            if untraced:
                # only the first round's outputs are kept, for the checks;
                # holding more would make peak memory depend on the round count
                for run in rnd.jobs:
                    run.release()
            rounds.append(rnd)

    # The first round's outputs are checked; every other round, traced or
    # not, must reproduce them exactly, so each of its checks has the same
    # verdict.
    first = untraced[0]
    problems = []
    verdicts = []
    for run in first.jobs:
        for name, ok, detail in workloads.check_job(run):
            known = run.job.known_faults.get(name)
            verdicts.append((run.job.name, name, ok, detail, known))
            if not ok and known is None:
                problems.append(f"{run.job.name}: check {name} failed: {detail}")
            if ok and known is not None:
                print(f"note: {run.job.name}: {name} passed although a known fault ({known}) is listed")
    for rnd in untraced[1:] + traced:
        kind = "traced" if rnd.traced else "untraced"
        for name in workloads.changed_jobs(first, rnd):
            problems.append(f"{name}: a repeated {kind} round changed the outputs")

    n_rounds = len(untraced) + len(traced)
    failed_per_round = sum(1 for v in verdicts if not v[2])
    attempted = n_rounds * len(verdicts)
    failed = n_rounds * failed_per_round
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)

    jobs = [
        {
            "job": run.job.name,
            "steps": run.steps,
            "solves": run.rec.metrics.solve_count,
            "trace_digest": checks.trace_digest(run.rec.metrics),
            "output_digest": run.digest,
        }
        for run in first.jobs
    ]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "reference": {"LOOP_S": reference.LOOP_S, "BULK_S": reference.BULK_S,
                      "PERIOD_S": reference.PERIOD_S, "REPEATS": workloads.REPEATS,
                      "tail_repeats": wl.tail_repeats},
        "jobs": jobs,
        "checks": [
            {"job": j, "check": c, "ok": ok, "detail": d, "known_fault": k} for j, c, ok, d, k in verdicts
        ],
        "problems": problems,
        "rounds": [
            {
                "traced": r.traced,
                "wall_s": r.wall_s,
                "elapsed_s": r.elapsed_s,
                "setup_s": r.setup_s,
                "run_s": [j.run_s for j in r.jobs],
                "certify_s": [j.certify_s for j in r.jobs],
                "setup_ref": r.setup_ref,
                "run_ref": [j.run_ref for j in r.jobs],
                "certify_ref": [j.certify_ref for j in r.jobs],
            }
            for r in untraced + traced
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{wl.name}.seed{args.seed}.trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(env))
    for j in jobs:
        print(f"job {j['job']}: steps={j['steps']} solves={j['solves']} "
              f"trace_digest={j['trace_digest']} output_digest={j['output_digest']}")
    for job, name, ok, detail, known in verdicts:
        if not ok:
            print(f"failed: {job}: {name}: {detail}" + (f" [known fault: {known}]" if known else ""))
    for p in problems:
        print(f"INCORRECT: {p}")
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; measured {measured:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

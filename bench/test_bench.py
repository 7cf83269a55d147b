"""Each output check of the benchmark can fail, and host samples stay out of spans.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import dataclasses
import time

import numpy as np
import pytest

import checks
import tracer
import workloads
from stratclass.data import SynthConfig, generate_synthetic
from stratclass.maxmargin import PointSetPair, solve_max_margin
from stratclass.norms import L2, CostModel
from stratclass.response import Interaction


@pytest.fixture(scope="module")
def population():
    ds = generate_synthetic(SynthConfig(seed=0, n=300))
    return ds.features[ds.labels == 1], ds.features[ds.labels == -1]


def test_witness_certificate_rejects_a_perturbed_l2_classifier(population):
    P, N = population
    sol = solve_max_margin(PointSetPair.from_arrays(P, N), CostModel(L2, 1.0, P.shape[1]))
    ok, detail = checks.witness_certificate(P, N, sol, tol=1e-10)
    assert ok, detail

    rng = np.random.default_rng(0)
    y = sol.y + 1e-4 * rng.standard_normal(sol.y.shape)
    tilted = dataclasses.replace(sol, y=y / np.linalg.norm(y))
    ok, detail = checks.witness_certificate(P, N, tilted, tol=1e-10)
    assert not ok, detail

    shifted = dataclasses.replace(sol, b=sol.b + 1e-6)
    assert not checks.witness_certificate(P, N, shifted, tol=1e-10)[0]


def test_lp_check_rejects_a_suboptimal_l1_margin(population):
    P, N = population
    optimum, y, b = checks.lp_max_margin(P, N, "l1")
    ok, detail = checks.lp_optimality(P, N, y, b, "l1")
    assert ok, detail

    worse = y.copy()
    worse[0] *= 0.99
    ok, detail = checks.lp_optimality(P, N, worse, b, "l1")
    assert not ok, detail


def _tiny_workload():
    cfg = dict(algorithm="smm", norm="l2", c=125.0, T=400, seed=0, mode="iid",
               dataset="synthetic", synth_seed=0, synth_n=300)
    return workloads.Workload("tiny", (workloads.Job("smm", cfg, ("init", "witness", "csv")),),
                              via_cli=False)


def test_traced_round_that_alters_outputs_is_caught(tmp_path, monkeypatch):
    wl = _tiny_workload()
    plain = workloads.run_round(wl, tmp_path, traced=False)
    assert all(ok for _, ok, _ in workloads.check_job(plain.jobs[0]))
    assert workloads.changed_jobs(plain, workloads.run_round(wl, tmp_path, traced=True)) == []

    honest_span = tracer._span

    def flipping_span(rec, name, fn, after):
        wrapper = honest_span(rec, name, fn, after)
        if name != "response.interact":
            return wrapper

        def flip(*args, **kwargs):
            out = wrapper(*args, **kwargs)
            return dataclasses.replace(out, mistake=not out.mistake) if isinstance(out, Interaction) else out

        return flip

    monkeypatch.setattr(tracer, "_span", flipping_span)
    altered = workloads.run_round(wl, tmp_path, traced=True)
    assert workloads.changed_jobs(plain, altered) == ["smm"]


class _SlowSampler:
    """Stands in for ``reference.HostSampler``: every sample takes 50 ms."""

    def maybe_sample(self) -> float:
        start = time.perf_counter()
        time.sleep(0.05)
        return time.perf_counter() - start


def test_host_samples_are_taken_out_of_enclosing_spans():
    rec = tracer.Recorder(_SlowSampler())
    rec.call("outer", rec.call, ("inner", lambda: None, (), {}), {})
    # the sample before "inner" ran inside "outer"; the one before "outer" ran outside it
    assert rec.calls("outer") == rec.calls("inner") == 1
    assert rec.total("outer") < 0.01
    assert rec.self_time("outer") < 0.01

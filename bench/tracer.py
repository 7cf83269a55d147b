"""Spans and counters recorded at stratclass module boundaries.

The benchmark never edits the package.  It replaces public functions in
the module namespace where their callers look them up (for example
``harness.interact``, which ``run_online`` calls, or
``learners.solve_max_margin``, which the learners call) with wrappers that
time the call and hand the result back unchanged.  ``instrument`` installs
the wrappers for the duration of a ``with`` block and restores the
originals on exit.

Two sets exist.  The boundary set wraps the few calls the end-to-end
metrics and the output checks need (a handful per run, plus one per
learner solve) and is always on.  The traced set adds the per-step layers
(protocol, proxy, margin evaluation, learner update, gate, nearest-point
solver, data and bounds) and is on only in a traced round.

Spans are aggregated in memory per (name, parent) as they close: calls,
total seconds and self seconds, where self time is the span's duration
minus the time of the child spans it covers.

In untraced rounds a recorder also carries the round's
``reference.HostSampler``: at the start of each boundary span and of each
online step it lets the sampler take a kernel sample when one is due, and
takes that sample's time out of every span open around it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

from stratclass import data, harness, learners, maxmargin, response

_clock = time.perf_counter


class Recorder:
    """Aggregated spans and counters of one job, plus what the checks need."""

    def __init__(self, sampler=None):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.counts = defaultdict(int)
        self.sampler = sampler  # reference.HostSampler, or None
        # open spans: [name, seconds of closed children, seconds of kernel samples]
        self._stack: list[list] = []
        self.metrics = None  # RunMetrics returned by the last run_online
        self.dataset = None  # Dataset built by the first build_dataset
        self.read_back = None  # RunMetrics returned by the last read_metrics
        self.report = None  # CertifyReport returned by the last certify
        self.pool = None  # the learner's PointSetPair (argument of its solves)
        self.solution = None  # the learner's last MarginSolution
        self.solve_rows: list[int] = []  # pool rows at each learner solve

    def sample_host(self) -> None:
        """Let the sampler take a kernel sample if due, outside every open span's time."""
        if self.sampler is not None:
            taken = self.sampler.maybe_sample()
            for frame in self._stack:
                frame[2] += taken

    def call(self, name, fn, args, kwargs):
        self.sample_host()
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start - frame[2]
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
            rec = self.spans[(name, parent)]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[1]

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def total(self, name, parent=...) -> float:
        """Seconds spent in spans called ``name`` (under ``parent`` if given)."""
        return sum(
            r[1] for (n, p), r in self.spans.items() if n == name and (parent is ... or p == parent)
        )

    def self_time(self, name) -> float:
        return sum(r[2] for (n, _), r in self.spans.items() if n == name)

    def calls(self, name) -> int:
        return sum(r[0] for (n, _), r in self.spans.items() if n == name)


def _span(rec: Recorder, name, fn, after):
    def wrapper(*args, **kwargs):
        out = rec.call(name, fn, args, kwargs)
        if after is not None:
            after(out, args)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _counter(rec: Recorder, name, fn):
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _boundary(rec: Recorder):
    def keep_metrics(out, args):
        rec.metrics = out

    def keep_dataset(out, args):
        if rec.dataset is None:
            rec.dataset = out

    def keep_read_back(out, args):
        rec.read_back = out

    def keep_report(out, args):
        rec.report = out

    def keep_solve(out, args):
        rec.pool, rec.solution = args[0], out
        rec.solve_rows.append(args[0].n_pos + args[0].n_neg)

    return [
        (harness, "run_online", "harness.run_online", keep_metrics),
        (harness, "build_dataset", "harness.build_dataset", keep_dataset),
        (harness, "write_metrics", "harness.write_metrics", None),
        (harness, "read_metrics", "harness.read_metrics", keep_read_back),
        (harness, "certify", "harness.certify", keep_report),
        (learners, "solve_max_margin", "maxmargin.solve", keep_solve),
    ]


def _traced(rec: Recorder):
    def gate(out, args):
        rec.counts["maxmargin.gate.skips"] += bool(out)

    def nearest(out, args):
        if rec.inside("maxmargin.solve"):
            rec.counts["maxmargin.solve.iterations"] += out.iterations

    return [
        (harness, "interact", "response.interact", None),
        (response, "proxy_from_response", "response.proxy", None),
        (learners, "proxy_from_response", "response.proxy", None),
        (harness, "margin_h", "maxmargin.margin_h", None),
        (learners, "incremental_check", "maxmargin.gate", gate),
        (maxmargin, "nearest_points_convex_hulls", "maxmargin.nearest_points", nearest),
        (data, "generate_synthetic", "data.generate_synthetic", None),
        (harness, "generate_synthetic", "data.generate_synthetic", None),
        (harness, "dataset_constants", "bounds.dataset_constants", None),
        (learners.SmmLearner, "update", "learners.update", None),
        (learners.GradSmmLearner, "update", "learners.update", None),
        (learners.PerceptronLearner, "update", "learners.update", None),
    ]


# Called several times per step: counted, not timed, to keep the traced
# round's overhead down.  Only the protocol's and the learners' calls go
# through ``response``; the non-l2 solver's calls are not counted.
_COUNTED = [
    (response, "dual_norm_eval", "norms.dual_norm_eval"),
    (response, "manipulation_direction", "norms.manipulation_direction"),
]


def _sampling(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        rec.sample_host()
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder, traced: bool):
    """Install the boundary wrappers, and the traced set too, around a block.

    A recorder with a sampler also gets a chance to sample before each
    online step (``harness.interact``).  Untraced rounds only: in a traced
    round the samples would land inside layer spans.
    """
    if traced and rec.sampler is not None:
        raise ValueError("host samples inside a traced round would count as layer time")
    spans = _boundary(rec) + (_traced(rec) if traced else [])
    saved = []
    try:
        if rec.sampler is not None:
            saved.append((harness, "interact", harness.__dict__["interact"]))
            harness.interact = _sampling(rec, harness.__dict__["interact"])
        for owner, attr, name, after in spans:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, _span(rec, name, owner.__dict__[attr], after))
        for owner, attr, name in _COUNTED if traced else []:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, _counter(rec, name, owner.__dict__[attr]))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def pool_rows(pool) -> tuple[int, int]:
    """Rows stored in a learner's pool, and how many of them are distinct."""
    if pool is None:
        return 0, 0
    rows = distinct = 0
    for X in (pool.positives, pool.negatives):
        rows += X.shape[0]
        distinct += np.unique(X, axis=0).shape[0] if X.shape[0] else 0
    return rows, distinct

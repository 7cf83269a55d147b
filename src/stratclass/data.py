"""Datasets: synthetic generation, CSV interchange, and margin trimming.

The synthetic family draws features from a radius-truncated Gaussian,
labels them by a fixed diagonal hyperplane, discards everything within a
prescribed distance of it, and re-centers so the max-margin benchmark has
a zero intercept.  Real data arrives as CSV and can be trimmed to a
target margin against a fitted reference separator so the same
certificates apply.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import Benchmark
from .maxmargin import PointSetPair, solve_max_margin
from .norms import L2, CostModel, dual_norm_eval

_MAX_REJECTION_TRIES = 10_000


@dataclass(eq=False)
class Dataset:
    """Labeled agent population, optionally with its max-margin benchmark."""

    features: np.ndarray
    labels: np.ndarray
    benchmark: Benchmark | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must match features row for row")
        bad = set(np.unique(self.labels)) - {1, -1}
        if bad:
            raise ValueError(f"labels must be +1/-1, got {sorted(bad)}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def point_sets(self) -> PointSetPair:
        return PointSetPair.from_arrays(
            self.features[self.labels == 1], self.features[self.labels == -1]
        )


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the truncated-Gaussian synthetic family."""

    seed: int
    n: int = 2000
    d: int = 6
    rho: float = 0.02
    radius: float = 1.0 / math.sqrt(5.0)
    variance: float = 0.04

    def __post_init__(self):
        if self.n < 2 or self.d < 1:
            raise ValueError("need n >= 2 and d >= 1")
        if self.rho < 0 or self.radius <= 0 or self.variance <= 0:
            raise ValueError("rho must be >= 0; radius and variance positive")


def sample_truncated_normal(rng, cfg: SynthConfig) -> np.ndarray:
    """One draw from N(0, variance * I_d) conditioned on ``||x||_2 <= radius``."""
    for _ in range(_MAX_REJECTION_TRIES):
        x = rng.normal(0.0, math.sqrt(cfg.variance), cfg.d)
        if np.linalg.norm(x) <= cfg.radius:
            return x
    raise RuntimeError(
        f"rejection sampling failed after {_MAX_REJECTION_TRIES} tries; "
        "radius is too small for the variance"
    )


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Draw the synthetic dataset and compute its zero-intercept benchmark.

    Features are truncated-Gaussian, labeled by the sign of their
    coordinate sum, and any point within ``rho`` (Euclidean distance) of
    that labeling hyperplane is dropped, so the benchmark margin is at
    least ``rho``.  The surviving cloud is translated so the max-margin
    intercept vanishes, and the benchmark is re-solved on the shifted
    points.
    """
    rng = np.random.default_rng(cfg.seed)
    X = np.vstack([sample_truncated_normal(rng, cfg) for _ in range(cfg.n)])
    sums = X.sum(axis=1)
    labels = np.where(sums >= 0, 1, -1)
    keep = np.abs(sums) / math.sqrt(cfg.d) >= cfg.rho
    X, labels = X[keep], labels[keep]
    if not ((labels == 1).any() and (labels == -1).any()):
        raise ValueError("margin trim removed an entire class; lower rho or raise n")

    model = CostModel(L2, c=1.0, dim=cfg.d)
    pair = PointSetPair.from_arrays(X[labels == 1], X[labels == -1])
    sol = solve_max_margin(pair, model)
    if not sol.separable:
        raise RuntimeError("synthetic construction produced inseparable data")
    X = X - (sol.x_plus + sol.x_minus) / 2.0

    pair = PointSetPair.from_arrays(X[labels == 1], X[labels == -1])
    sol = solve_max_margin(pair, model)
    benchmark = Benchmark(sol.y, sol.b, sol.d)
    return Dataset(
        X,
        labels,
        benchmark,
        provenance={
            "kind": "synthetic",
            "seed": cfg.seed,
            "n": cfg.n,
            "d": cfg.d,
            "rho": cfg.rho,
            "radius": cfg.radius,
            "variance": cfg.variance,
        },
    )


def load_csv(path) -> Dataset:
    """Read a ``f1,...,fd,label`` CSV; labels may use 0 for the negative class."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        d = len(header) - 1
        expected = [f"f{i}" for i in range(1, d + 1)] + ["label"]
        if d < 1 or [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: header must be f1,...,fd,label, got {header}")
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
            try:
                feats = [float(v) for v in row[:-1]]
                raw = float(row[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, feats)):
                raise ValueError(f"{path}:{lineno}: non-finite feature value in {row[:-1]}")
            rows.append(feats)
            if raw not in (1.0, -1.0, 0.0):
                raise ValueError(f"{path}:{lineno}: label must be 1, -1, or 0, got {row[-1]}")
            labels.append(1 if raw == 1.0 else -1)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(
        np.asarray(rows), np.asarray(labels), provenance={"kind": "csv", "path": str(path)}
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset in the ``f1,...,fd,label`` interchange format."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(1, dataset.dim + 1)] + ["label"])
        for x, lbl in zip(dataset.features, dataset.labels):
            writer.writerow([f"{v:.17g}" for v in x] + [str(int(lbl))])


def write_descriptor(dataset: Dataset, path) -> None:
    """Write the JSON descriptor (provenance plus benchmark) next to a CSV."""
    doc = dict(dataset.provenance)
    doc["n"] = dataset.n
    doc["d"] = dataset.dim
    if dataset.benchmark is not None:
        doc["benchmark"] = {
            "y_star": [float(v) for v in dataset.benchmark.y_star],
            "b_star": dataset.benchmark.b_star,
            "d_star": dataset.benchmark.d_star,
        }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _hinge_reference(dataset: Dataset, m: CostModel, iters: int = 4000):
    """Averaged-subgradient hinge fit: an approximate separator for noisy data."""
    X, lbl = dataset.features, dataset.labels.astype(float)
    scale = 1.0 + float(np.max(np.einsum("ij,ij->i", X, X)))
    y = np.zeros(dataset.dim)
    b = 0.0
    y_avg = np.zeros(dataset.dim)
    b_avg = 0.0
    for t in range(1, iters + 1):
        active = lbl * (X @ y + b) < 1.0
        gy = -(lbl[active, None] * X[active]).sum(axis=0) / len(lbl)
        gb = -float(lbl[active].sum()) / len(lbl)
        step = 1.0 / (scale * math.sqrt(t))
        y -= step * gy
        b -= step * gb
        y_avg += y
        b_avg += b
    return y_avg / iters, b_avg / iters


def trim_margin(dataset: Dataset, rho: float, m: CostModel) -> Dataset:
    """Drop agents within ``rho`` of a reference separator and re-benchmark.

    The reference is the dataset's own max-margin classifier when one
    exists, else a hinge-loss fit; agents it misclassifies or holds at
    normalized margin below ``rho`` are removed.  The surviving data is
    guaranteed separable with benchmark margin at least ``rho``.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if dataset.benchmark is not None:
        ref_y = dataset.benchmark.y_star
        ref_b = dataset.benchmark.b_star
    else:
        sol = solve_max_margin(dataset.point_sets(), m)
        if sol.separable:
            ref_y, ref_b = sol.y, sol.b
        else:
            ref_y, ref_b = _hinge_reference(dataset, m)
    dn = dual_norm_eval(m, ref_y)
    if dn <= 0:
        raise ValueError("reference separator degenerated to zero")
    margins = dataset.labels * (dataset.features @ ref_y + ref_b) / dn
    keep = margins >= rho
    labels = dataset.labels[keep]
    if not ((labels == 1).any() and (labels == -1).any()):
        raise ValueError("margin trim removed an entire class; lower rho")
    X = dataset.features[keep]
    sol = solve_max_margin(PointSetPair.from_arrays(X[labels == 1], X[labels == -1]), m)
    if not sol.separable or sol.d < rho - 1e-9:
        raise RuntimeError("trimmed data failed to reach the requested margin")
    provenance = dict(dataset.provenance)
    provenance["trimmed_rho"] = rho
    return Dataset(X, labels, Benchmark(sol.y, sol.b, sol.d), provenance)

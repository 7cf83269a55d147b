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
import os
import stat
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .bounds import Benchmark, _centred_half_diameter
from .maxmargin import PointSetPair, solve_max_margin
from .norms import L2, CostModel, dual_norm_eval, parse_norm

_MAX_REJECTION_TRIES = 10_000
_HINGE_ITERS = 4000


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled agent population; every benchmark is derived from its points.

    Keeps read-only copies of ``features`` and ``labels``, and derives
    ``point_sets``, ``radii`` and ``benchmark_for(m)`` once, on first use.
    """

    features: np.ndarray
    labels: np.ndarray
    _: KW_ONLY
    provenance: dict = field(default_factory=dict)
    _solved: dict = field(default_factory=dict, init=False, repr=False)  # norm -> benchmark_for's solve

    def __post_init__(self):
        features, labels = np.array(self.features, dtype=float), np.asarray(self.labels)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(f"features must be a nonempty 2-D array, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(f"labels must match features, one label per row: {features.shape[0]} rows, "
                             f"labels of shape {labels.shape}")
        bad = np.flatnonzero((labels != 1) & (labels != -1))  # as given, before any cast
        if bad.size:
            row = int(bad[0])
            raise ValueError(f"labels must be +1/-1: labels[{row}] = {labels[row]}")
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"features must be finite: features[{row}] = {features[row].tolist()}")
        labels = labels.astype(int)
        features.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def point_sets(self) -> PointSetPair:
        """The population as one shared ``PointSetPair``: add nothing to it."""
        return PointSetPair.from_arrays(self.features[self.labels == 1], self.features[self.labels == -1])

    @cached_property
    def radii(self) -> tuple[float, float, float, float]:
        """``D``, ``D_pm``, ``D_plus`` and ``D_minus`` of ``bounds.DatasetConstants``."""
        X, labels = self.features, self.labels
        return (float(np.max(np.linalg.norm(X, axis=1))), _centred_half_diameter(X),
                _centred_half_diameter(X[labels == 1]), _centred_half_diameter(X[labels == -1]))

    def benchmark_for(self, m: CostModel) -> Benchmark | None:
        """The max-margin benchmark in ``m``'s norm, solved once; None if inseparable or one-label."""
        if m.norm not in self._solved:
            pair = self.point_sets
            sol = solve_max_margin(pair, m) if pair.n_pos and pair.n_neg else None
            self._solved[m.norm] = Benchmark(sol.y, sol.b, sol.d) if sol is not None and sol.separable else None
        return self._solved[m.norm]

    @property
    def benchmark(self) -> Benchmark | None:
        """The Euclidean benchmark: the reference of a run's ``distance`` and ``margin_gap``."""
        return self.benchmark_for(CostModel(L2, c=1.0, dim=self.dim))


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the truncated-Gaussian synthetic family.

    A bad value raises ``ValueError`` whose message starts with the field's name.
    """

    seed: int
    n: int = 2000
    d: int = 6
    rho: float = 0.02
    radius: float = 1.0 / math.sqrt(5.0)
    variance: float = 0.04

    def __post_init__(self):
        for name, low, strict in (("seed", 0, False), ("n", 2, False), ("d", 1, False),
                                  ("rho", 0, False), ("radius", 0, True), ("variance", 0, True)):
            value = getattr(self, name)
            if not (value > low if strict else value >= low):
                raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")


def sample_truncated_normal(rng, cfg: SynthConfig) -> np.ndarray:
    """``cfg.n`` draws from N(0, variance * I_d) conditioned on ``||x||_2 <= radius``.

    Rejection sampling in ``(k, d)`` blocks from ``rng``: the rows are the
    ones a loop drawing ``d`` normals at a time and keeping those with
    ``np.linalg.norm(x) <= radius`` would keep, bit for bit, because a block
    is the same stream.  Rows whose vectorised norm lies within a rounding
    band of ``radius`` are decided by that scalar test.  ``rng`` may advance
    past the last kept row.  Raises ``RuntimeError`` when one row would
    take more than ``_MAX_REJECTION_TRIES`` draws.
    """
    scale = math.sqrt(cfg.variance)
    band = 4.0 * (cfg.d + 2) * np.finfo(float).eps * cfg.radius
    cap = max(1, 2**20 // cfg.d)
    blocks, kept, misses = [], 0, 0
    k = min(cap, cfg.n)
    while kept < cfg.n:
        B = rng.normal(0.0, scale, (k, cfg.d))
        norms = np.sqrt(np.einsum("ij,ij->i", B, B))
        ok = norms <= cfg.radius
        for i in np.flatnonzero(np.abs(norms - cfg.radius) <= band):
            ok[i] = np.linalg.norm(B[i]) <= cfg.radius
        hits = np.flatnonzero(ok)[: cfg.n - kept]
        # rejections before each kept row; then those after the last one
        gaps = np.diff(hits, prepend=-1 - misses) - 1
        kept += hits.size
        misses = misses + k if hits.size == 0 else k - 1 - int(hits[-1])
        if gaps.max(initial=0) >= _MAX_REJECTION_TRIES or (
            kept < cfg.n and misses >= _MAX_REJECTION_TRIES
        ):
            raise RuntimeError(
                f"rejection sampling failed after {_MAX_REJECTION_TRIES} tries; "
                "radius is too small for the variance"
            )
        blocks.append(B[hits])
        k = min(cap, 2 * k)
    return np.concatenate(blocks)


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
    X = sample_truncated_normal(rng, cfg)
    sums = X.sum(axis=1)
    labels = np.where(sums >= 0, 1, -1)
    keep = np.abs(sums) / math.sqrt(cfg.d) >= cfg.rho
    X, labels = X[keep], labels[keep]
    if not ((labels == 1).any() and (labels == -1).any()):
        raise ValueError("margin trim removed an entire class; lower rho or raise n")

    model = CostModel(L2, c=1.0, dim=cfg.d)
    sol = solve_max_margin(PointSetPair.from_arrays(X[labels == 1], X[labels == -1]), model)
    if not sol.separable:
        raise RuntimeError("synthetic construction produced inseparable data")
    dataset = Dataset(
        X - (sol.x_plus + sol.x_minus) / 2.0,
        labels,
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
    dataset.benchmark  # solved here, in set-up, not in the first run
    return dataset


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


def _open_new(path, newline=None):
    """Open ``path`` for writing as a new file: a regular file already there is unlinked, not truncated.

    Truncating a file whose blocks are allocated waits on the filesystem
    (~50 ms on ext4 mounted ``discard``); a new file's blocks stay delayed
    until writeback.  A reader that opened the old file still reads all of
    it, and a hard link elsewhere keeps it.  Through a symlink, its target
    is the file replaced, so the link stays and the write lands in the
    target.  Anything else at the path (a device, a FIFO, a directory), or
    a file whose unlink fails, is opened with ``open("w")`` as it stands.
    """
    target = os.path.realpath(path)
    try:
        if stat.S_ISREG(os.lstat(target).st_mode):
            os.unlink(target)
    except OSError:
        pass
    return open(path, "w", newline=newline)


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset in the ``f1,...,fd,label`` interchange format."""
    with _open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(1, dataset.dim + 1)] + ["label"])
        for x, lbl in zip(dataset.features, dataset.labels):
            writer.writerow([f"{v:.17g}" for v in x] + [str(int(lbl))])


def write_descriptor(dataset: Dataset, path, norm: str) -> None:
    """Write the JSON descriptor (provenance plus the benchmark in the cost norm token ``norm``) next to a CSV."""
    doc = dict(dataset.provenance)
    doc["n"] = dataset.n
    doc["d"] = dataset.dim
    bench = dataset.benchmark_for(CostModel(parse_norm(norm), 1.0, dataset.dim))
    if bench is not None:
        doc["benchmark"] = {
            "norm": norm,
            "y_star": [float(v) for v in bench.y_star],
            "b_star": bench.b_star,
            "d_star": bench.d_star,
        }
    with _open_new(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _hinge_reference(dataset: Dataset):
    """Averaged-subgradient hinge fit: an approximate separator for noisy data."""
    X, lbl = dataset.features, dataset.labels.astype(float)
    scale = 1.0 + float(np.max(np.einsum("ij,ij->i", X, X)))
    y = np.zeros(dataset.dim)
    b = 0.0
    y_avg = np.zeros(dataset.dim)
    b_avg = 0.0
    for t in range(1, _HINGE_ITERS + 1):
        active = lbl * (X @ y + b) < 1.0
        gy = -(lbl[active, None] * X[active]).sum(axis=0) / len(lbl)
        gb = -float(lbl[active].sum()) / len(lbl)
        step = 1.0 / (scale * math.sqrt(t))
        y -= step * gy
        b -= step * gb
        y_avg += y
        b_avg += b
    return y_avg / _HINGE_ITERS, b_avg / _HINGE_ITERS


def trim_margin(dataset: Dataset, rho: float, m: CostModel) -> Dataset:
    """Drop agents within ``rho`` of a reference separator in ``m``'s norm.

    The reference is the dataset's own benchmark in ``m``'s norm when one
    exists, else a hinge-loss fit; agents it misclassifies or holds at
    normalized margin below ``rho`` are removed.  The surviving data is
    guaranteed separable with ``benchmark_for(m)`` margin at least ``rho``.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    ref = dataset.benchmark_for(m)
    ref_y, ref_b = (ref.y_star, ref.b_star) if ref is not None else _hinge_reference(dataset)
    dn = dual_norm_eval(m, ref_y)
    if dn <= 0:
        raise ValueError("reference separator degenerated to zero")
    margins = dataset.labels * (dataset.features @ ref_y + ref_b) / dn
    keep = margins >= rho
    labels = dataset.labels[keep]
    if not ((labels == 1).any() and (labels == -1).any()):
        raise ValueError("margin trim removed an entire class; lower rho")
    trimmed = Dataset(dataset.features[keep], labels, provenance=dict(dataset.provenance, trimmed_rho=rho))
    bench = trimmed.benchmark_for(m)
    if bench is None or bench.d_star < rho - 1e-9:
        raise RuntimeError("trimmed data failed to reach the requested margin")
    return trimmed

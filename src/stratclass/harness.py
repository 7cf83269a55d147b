"""Experiment harness: config files, online runs, metrics, certification.

A run config is a flat ``key = value`` text file.  ``run_online`` replays
a dataset through one learner and records per-iteration metrics;
``certify`` compares recorded counts against the mistake/manipulation
certificates; ``reproduce_example`` re-derives the four canonical
micro-instances and checks their published numbers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .bounds import (
    Benchmark,
    HypothesisViolation,
    dataset_constants,
    perceptron_mistake_bound,
    smm_manipulation_bounds,
    smm_mistake_bound,
)
from .data import Dataset, SynthConfig, generate_synthetic, load_csv, trim_margin
from .learners import ConeKind, GradSmmLearner, PerceptronLearner, SmmLearner
from .maxmargin import SOLVE_TOL, PointSetPair, margin_h, solve_max_margin
from .norms import CostModel, cost_scale, l2_norm, parse_norm
from .response import Classifier, Interaction, answer, interact, proxy_from_response

_D_MONOTONE_TOL = 1e-8
# Largest block of agents answered in one vector pass: blocks double while
# the classifier holds, and a change discards the rest of the block.
_MAX_BLOCK = 4096

ALGORITHMS = ("smm", "gradsmm", "perceptron")
MODES = ("iid", "stream")
TRACK_LEVELS = ("counts", "distance", "full")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration; ``keys`` name the values at fault."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


@dataclass
class RunConfig:
    algorithm: str = "smm"
    norm: str = "l2"
    c: float | None = None
    T: int | None = None
    seed: int = 0
    mode: str = "iid"
    rounds: int = 1
    sigma: float = 0.0
    cone: str = "full"
    dataset: str = "synthetic"
    synth_seed: int = 0
    synth_n: int = SynthConfig.n
    synth_d: int = SynthConfig.d
    synth_rho: float = SynthConfig.rho
    synth_radius: float = SynthConfig.radius
    synth_variance: float = SynthConfig.variance
    trim_rho: float | None = None
    track: str = "full"

    def __post_init__(self):
        cones = tuple(k.value for k in ConeKind)
        for key, allowed in (("algorithm", ALGORITHMS), ("mode", MODES), ("track", TRACK_LEVELS), ("cone", cones)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got {getattr(self, key)!r}", key)
        if self.c is None:
            raise ConfigError("manipulation budget missing: set c")
        for key, kind in _FIELD_TYPES.items():
            value = getattr(self, key)
            if kind is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}", key)
        for key, low in (("T", 1), ("seed", 0), ("rounds", 1), ("sigma", 0)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}", key)
        if self.trim_rho is not None and self.trim_rho <= 0:
            raise ConfigError(f"trim_rho must be > 0, got {self.trim_rho}", "trim_rho")
        try:
            self.synth
        except ValueError as exc:  # its message starts with the field's name
            raise ConfigError(f"synth_{exc}", "synth_" + str(exc).split()[0]) from None
        for key, check in (("c", cost_scale), ("norm", parse_norm)):
            try:
                check(getattr(self, key))
            except ValueError as exc:
                raise ConfigError(f"{key} = {getattr(self, key)}: {exc}", key) from None
        if parse_norm(self.norm).kind != "l2" and self.algorithm == "gradsmm":
            raise ConfigError(f"algorithm gradsmm requires norm = l2, got {self.norm!r}", "algorithm", "norm")

    @property
    def synth(self) -> SynthConfig:
        """The synthetic family the ``synth_*`` keys describe."""
        return SynthConfig(**{f.name: getattr(self, "synth_" + f.name) for f in fields(SynthConfig)})

    @property
    def solve_tol(self) -> float:
        """Certificate tolerance of this run's margin solves, the same for every run."""
        return SOLVE_TOL


# each field's value type: ``X`` for a field annotated ``X`` or ``X | None``
_FIELD_TYPES = {
    key: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for key, hint in get_type_hints(RunConfig).items()
}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines (#-comments allowed) into a RunConfig.

    Each value is read as its field's annotated type.  An error about a
    value names the line that set it (the later line, for two keys).
    """
    values: dict = {}
    written: dict[str, int] = {}  # field -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in written:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        written[key] = lineno
        try:
            values[key] = _FIELD_TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key} = {val}: {exc}") from None
    try:
        cfg = RunConfig(**values)
        if cfg.dataset == "synthetic":  # run_online(cfg, dataset) and a CSV run take the dataset's dimension
            try:
                CostModel(parse_norm(cfg.norm), cfg.c, cfg.synth_d)
            except ValueError as exc:
                raise ConfigError(f"norm = {cfg.norm} with synth_d = {cfg.synth_d}: {exc}",
                                  "norm", "synth_d") from None
        return cfg
    except ConfigError as exc:
        lines = [written[key] for key in exc.keys if key in written]
        if not lines:
            raise
        raise ConfigError(f"line {max(lines)}: {exc}", *exc.keys) from None


def read_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def build_dataset(cfg: RunConfig) -> Dataset:
    """Materialize the dataset a config refers to, applying any trim."""
    if cfg.dataset == "synthetic":
        ds = generate_synthetic(cfg.synth)
    else:
        ds = load_csv(cfg.dataset)
    if cfg.trim_rho is not None:
        model = CostModel(parse_norm(cfg.norm), cfg.c, ds.dim)
        ds = trim_margin(ds, cfg.trim_rho, model)
    return ds


# ---------------------------------------------------------------------------
# Metrics


_CSV_HEADER = ["t", "mistake", "manipulated", "label", "d_t", "distance", "margin_gap"]


@dataclass
class RunMetrics:
    """One online run as the engine produces it, plus end-of-run summary.

    Per step, as arrays: the ``mistake_flags``, the ``manipulated_flags``
    and the agents' ``labels``.  Per declaration (a classifier the learner
    published), one row of the ``decl_*`` lists: its first step (from 0,
    the first row at 0) and the ``d_t``, ``distance`` and ``margin_gap``
    that hold from there to the next row.  The per-step lists ``t``,
    ``mistake``, ``manipulated``, ``label``, ``d_t``, ``distance`` and
    ``margin_gap`` are built on access.
    """

    mistake_flags: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    manipulated_flags: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    decl_start: list[int] = field(default_factory=list)
    decl_d_t: list = field(default_factory=list)
    decl_distance: list = field(default_factory=list)
    decl_margin_gap: list = field(default_factory=list)
    init_steps: int = 0
    init_mistakes: int = 0
    solve_count: int = 0
    inseparable_at: int | None = None
    wall_time: float = 0.0
    final_y: np.ndarray | None = None
    final_b: float | None = None

    def _per_step(self, column: list) -> list:
        """A per-declaration column repeated over each declaration's steps."""
        counts = np.diff([*self.decl_start, len(self.labels)]).tolist()
        return list(chain.from_iterable(map(repeat, column, counts)))

    t = property(lambda self: list(range(1, len(self.labels) + 1)))
    mistake = property(lambda self: self.mistake_flags.tolist())
    manipulated = property(lambda self: self.manipulated_flags.tolist())
    label = property(lambda self: self.labels.tolist())
    d_t = property(lambda self: self._per_step(self.decl_d_t))
    distance = property(lambda self: self._per_step(self.decl_distance))
    margin_gap = property(lambda self: self._per_step(self.decl_margin_gap))

    @property
    def mistakes(self) -> int:
        return int(np.count_nonzero(self.mistake_flags))

    @property
    def manipulations(self) -> int:
        return int(np.count_nonzero(self.manipulated_flags))

    def manipulations_by_label(self, sign: int) -> int:
        return int(np.count_nonzero(self.manipulated_flags & (self.labels == sign)))

    @property
    def final_distance(self) -> float | None:
        return next((v for v in reversed(self.decl_distance) if v is not None), None)

    def summary(self) -> str:
        parts = [
            f"T={len(self.labels)}",
            f"mistakes={self.mistakes}",
            f"manipulations={self.manipulations}",
            f"init_steps={self.init_steps}",
        ]
        if self.solve_count:
            parts.append(f"solves={self.solve_count}")
        if self.final_distance is not None:
            parts.append(f"final_distance={self.final_distance:.6g}")
        parts.append(f"wall={self.wall_time:.2f}s")
        return " ".join(parts)


def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.17g}"


# the "mistake,manipulated,label" cells of a step, at 4 * mistake + 2 * manipulated + (label == 1)
_STEP_CELLS = [f"{m},{p},{lbl}" for m in (0, 1) for p in (0, 1) for lbl in (-1, 1)]


def write_metrics(metrics: RunMetrics, path) -> None:
    """Write the per-step table as CSV: one header row plus one row per t.

    Each declaration's three cells are formatted once, for all its steps.
    """
    codes = 4 * metrics.mistake_flags + 2 * metrics.manipulated_flags + (metrics.labels == 1)
    tails = metrics._per_step([
        f",{_fmt(d)},{_fmt(dist)},{_fmt(gap)}\n"
        for d, dist, gap in zip(metrics.decl_d_t, metrics.decl_distance, metrics.decl_margin_gap)
    ])
    with Path(path).open("w") as fh:
        fh.write(",".join(_CSV_HEADER) + "\n")
        fh.write("".join([
            f"{t},{_STEP_CELLS[code]}{tail}"
            for t, code, tail in zip(range(1, len(tails) + 1), codes.tolist(), tails)
        ]))


_FLAGS = {"0", "1"}
_LABELS = {"1": 1, "-1": -1}


def read_metrics(path) -> RunMetrics:
    """Read a metrics CSV back; summary counters are left at defaults.

    Parsed column by column: ``t`` must count 1, 2, ... down the rows,
    flags read 0 or 1 and labels 1 or -1, and each run of rows with the
    same last three cells is one declaration, its numbers parsed once.
    Blank lines are skipped; any other bad row raises a ``ValueError``
    naming ``path:line``.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != _CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    body = [line for line in lines[1:] if line.strip()]
    n, w = len(body), len(_CSV_HEADER)
    # one split of the whole body: each row's cells, and a "\n" cell between rows
    cells = ",\n,".join(body).split(",") if body else []
    try:
        if n and (len(cells) != (w + 1) * n - 1 or cells[w :: w + 1].count("\n") != n - 1):
            raise ValueError
        t, mistake, manipulated, label, d_t, distance, gap = (cells[k :: w + 1] for k in range(w))
        if (t != list(map(str, range(1, n + 1))) or not _FLAGS >= set(mistake) | set(manipulated)
                or not _LABELS.keys() >= set(label)):
            raise ValueError
        starts = [0] + [
            i for i in range(1, n)
            if d_t[i] != d_t[i - 1] or distance[i] != distance[i - 1] or gap[i] != gap[i - 1]
        ] if n else []
        d_t, distance, gap = ([float(c[i]) if c[i] else None for i in starts] for c in (d_t, distance, gap))
    except ValueError:
        raise _first_bad_row(path, lines) from None
    return RunMetrics(  # each flag cell is now one byte, "0" or "1"
        mistake_flags=np.frombuffer("".join(mistake).encode(), dtype=np.uint8) == ord("1"),
        manipulated_flags=np.frombuffer("".join(manipulated).encode(), dtype=np.uint8) == ord("1"),
        labels=np.fromiter(map(_LABELS.__getitem__, label), dtype=int, count=n),
        decl_start=starts, decl_d_t=d_t, decl_distance=distance, decl_margin_gap=gap,
    )


def _first_bad_row(path, lines) -> ValueError:
    """The error for the first data row that breaks ``read_metrics``'s column rules."""
    rows = ((lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip())
    for t, (lineno, line) in enumerate(rows, start=1):
        cells = line.split(",")
        if len(cells) != len(_CSV_HEADER):
            return ValueError(f"{path}:{lineno}: expected {len(_CSV_HEADER)} fields")
        try:
            if cells[0] != str(t) or not _FLAGS >= {cells[1], cells[2]} or cells[3] not in _LABELS:
                raise ValueError
            [float(v) for v in cells[4:] if v]
        except ValueError:
            return ValueError(f"{path}:{lineno}: bad row {line!r}: expected t = {t}, flags 0 or 1, "
                              "a label of 1 or -1 and numbers or blanks")
    raise AssertionError("read_metrics rejected a file whose rows all pass")


# ---------------------------------------------------------------------------
# Online runs


def _build_learner(cfg: RunConfig, model: CostModel):
    if cfg.algorithm == "smm":
        return SmmLearner(model)
    if cfg.algorithm == "gradsmm":
        return GradSmmLearner(model)
    return PerceptronLearner(model, cone=cfg.cone)


def _arrivals(cfg: RunConfig, n: int) -> tuple[np.ndarray, np.random.Generator]:
    """Arrival order over ``n`` agents and the response-noise generator.

    Both come from ``cfg.seed``; every consumer of a run's arrival order
    draws it here, so they all see the same agents in the same order.
    """
    arrival_rng, noise_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(2)
    )
    if cfg.mode == "iid":
        if cfg.T is None:
            raise ConfigError("iid mode requires an explicit T")
        return arrival_rng.integers(0, n, size=cfg.T), noise_rng
    seq = np.tile(arrival_rng.permutation(n), cfg.rounds)
    T = cfg.T if cfg.T is not None else len(seq)
    if T > len(seq):
        raise ConfigError(f"T={T} exceeds rounds*n={len(seq)} in stream mode")
    return seq[:T], noise_rng


def _normalized_distance(y, b, bench: Benchmark, ny: float | None = None) -> float | None:
    """Euclidean distance of ``(y, b) / ||y||_2`` from the benchmark's; None for ``y = 0``.

    ``ny`` is ``||y||_2`` when the caller already has it.
    """
    if ny is None:
        ny = l2_norm(y)
    if ny == 0.0:
        return None
    y_star, b_star = bench.l2_normalized
    return math.hypot(l2_norm(y / ny - y_star), b / ny - b_star)


def run_online(cfg: RunConfig, dataset: Dataset | None = None) -> RunMetrics:
    """Stream the dataset through the configured learner and record metrics.

    The learner's declaration, ``learner.classifier``, changes only when
    an update makes it, so the agents are played in blocks:
    ``response.answer`` answers a block under it in one vector pass, and
    one ``learner.update`` takes the block with its predictions, consuming
    its rows up to the first that declares a new classifier.  A block twice
    as long follows a block that ran to its end; a change restarts at one
    agent, whose feature row and label ``interact`` answers alone, handed
    over as a one-row block.
    ``answer`` and ``interact`` score a row by the same row-stable
    expression, and a learner ends a block where it would end the same
    rows fed one at a time, so every output equals that of calling
    ``interact`` and ``update`` at every step.
    """
    if dataset is None:
        dataset = build_dataset(cfg)
    model = CostModel(parse_norm(cfg.norm), cfg.c, dataset.dim)
    idx, noise_rng = _arrivals(cfg, dataset.n)
    # row t is step t's noise: a (T, d) draw yields the numbers of T draws of d
    noise = None
    if cfg.sigma != 0.0:
        noise = noise_rng.standard_normal((len(idx), dataset.dim))
        noise *= cfg.sigma
    learner = _build_learner(cfg, model)
    bench = dataset.benchmark if cfg.track in ("distance", "full") else None
    want_distance = bench is not None
    want_gap = cfg.track == "full" and bench is not None
    if want_gap:
        pair = dataset.point_sets
        h_star = margin_h(bench.y_star, bench.b_star, pair)
    features, label_arr = dataset.features, dataset.labels[idx]
    labels = label_arr.tolist()

    T = len(idx)
    metrics = RunMetrics(
        mistake_flags=np.zeros(T, dtype=bool), manipulated_flags=np.zeros(T, dtype=bool), labels=label_arr
    )
    mistake, manipulated = metrics.mistake_flags, metrics.manipulated_flags
    declared = distance = gap = None
    step, k = 0, 1
    start = time.perf_counter()
    while step < T:
        clf = learner.classifier
        in_init = learner.in_init
        if clf is not declared:  # a new declaration, and with it any new margin
            declared = clf
            if want_distance:  # under the l2 cost, ||y||_2 is the dual norm the round reads next
                ny = clf.dual_norm(model) if model.norm.kind == "l2" else None
                distance = _normalized_distance(clf.y, clf.b, bench, ny)
            gap = h_star - margin_h(clf.y, clf.b, pair) if want_gap else None
            metrics.decl_start.append(step)
            metrics.decl_d_t.append(learner.margin)
            metrics.decl_distance.append(distance)
            metrics.decl_margin_gap.append(gap)

        block_labels = label_arr[step : step + k]
        if k == 1:
            z = None if noise is None else noise[step]
            inter = interact(features[idx[step]], labels[step], clf, model, z)
            n = learner.update(inter.response[None], block_labels, np.array([inter.predicted]))
            mistake[step], manipulated[step] = inter.mistake, inter.manipulated
        else:
            z = None if noise is None else noise[step : step + k]
            observed, predicted, moved = answer(features[idx[step : step + k]], clf, model, z)
            n = learner.update(observed, block_labels, predicted)
            mistake[step : step + n] = predicted[:n] != block_labels[:n]
            manipulated[step : step + n] = moved[:n]
        if in_init:
            metrics.init_steps += n
        step += n
        k = 1 if learner.classifier is not clf else min(2 * k, _MAX_BLOCK, T - step)

    metrics.init_mistakes = int(np.count_nonzero(mistake[: metrics.init_steps]))
    metrics.wall_time = time.perf_counter() - start
    final = learner.classifier
    metrics.final_y = final.y
    metrics.final_b = final.b
    metrics.solve_count = learner.solve_count
    metrics.inseparable_at = learner.inseparable_at
    return metrics


# ---------------------------------------------------------------------------
# Certification


@dataclass
class CertRow:
    name: str
    bound: float | None
    observed: float | None
    status: str  # pass | fail | unbounded | not applicable | info

    def render(self) -> str:
        def num(v):
            if v is None:
                return "-"
            if v == math.inf:
                return "unbounded"
            if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
                return str(int(v))
            return f"{v:.6g}"

        return f"{self.name:<42} bound={num(self.bound):>12} observed={num(self.observed):>10} [{self.status}]"


@dataclass
class CertifyReport:
    rows: list
    preamble: list

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def render(self) -> str:
        lines = list(self.preamble)
        lines.extend(r.render() for r in self.rows)
        lines.append("RESULT: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _init_consumption(labels_in_order: np.ndarray) -> int:
    """Iterations the declaration phase consumes: until both labels appeared."""
    seen_pos = seen_neg = False
    for k, lbl in enumerate(labels_in_order, start=1):
        seen_pos = seen_pos or lbl == 1
        seen_neg = seen_neg or lbl == -1
        if seen_pos and seen_neg:
            return k
    return len(labels_in_order)


def _check_labels(metrics: RunMetrics, labels: np.ndarray) -> None:
    """Reject metrics not recorded under this config: row count and labels must match its arrivals."""
    if len(metrics.labels) != len(labels):
        raise ConfigError(
            f"metrics hold {len(metrics.labels)} rows but the config runs {len(labels)} steps"
        )
    bad = np.flatnonzero(metrics.labels != labels)
    if bad.size:
        row = int(bad[0])
        raise ConfigError(
            f"metrics row t={row + 1} has label {metrics.labels[row]} but the config's "
            f"arrival order gives {int(labels[row])}: the metrics come from a different run"
        )


def certify(
    cfg: RunConfig, metrics: RunMetrics | None = None, dataset: Dataset | None = None
) -> CertifyReport:
    """Compare observed counts against the applicable certificates."""
    if dataset is None:
        dataset = build_dataset(cfg)
    model = CostModel(parse_norm(cfg.norm), cfg.c, dataset.dim)
    bench = dataset.benchmark_for(model)
    if bench is None:
        why = "is not separable" if len(np.unique(dataset.labels)) == 2 else "holds agents of one label only"
        raise ConfigError(f"cannot certify: the dataset {why}")
    consts = dataset_constants(dataset, model)

    preamble = [
        f"algorithm={cfg.algorithm} norm={cfg.norm} c={cfg.c:g} (budget 2/c={model.two_over_c:g})",
        f"d_star={bench.d_star:.6g} D_tilde={consts.D_tilde:.6g} D_bar={consts.D_bar:.6g}",
    ]

    init_mistakes = mistakes = negative = positive = None
    if metrics is not None:
        idx, _ = _arrivals(cfg, dataset.n)
        _check_labels(metrics, dataset.labels[idx])
        init_steps = _init_consumption(dataset.labels[idx]) if cfg.algorithm != "perceptron" else 0
        init_mistakes = int(np.count_nonzero(metrics.mistake_flags[:init_steps]))
        mistakes = metrics.mistakes
        negative, positive = (metrics.manipulations_by_label(sign) for sign in (-1, 1))

    def row(name, bound, observed):
        if bound is not None and bound == math.inf:
            return CertRow(name, math.inf, observed, "unbounded")
        if observed is None:
            return CertRow(name, bound, None, "info")
        status = "pass" if observed <= bound else "fail"
        return CertRow(name, bound, observed, status)

    if cfg.algorithm == "smm":
        neg_bound, pos_bound = smm_manipulation_bounds(bench, consts, model)
        rows = [
            row("mistakes after declaration", smm_mistake_bound(bench, consts),
                None if metrics is None else mistakes - init_mistakes),
            row("manipulations, negative agents", neg_bound, negative),
            row("manipulations, positive agents", pos_bound, positive),
            row("declaration-phase mistakes", 2.0, init_mistakes),
        ]
        if metrics is not None:
            ds = [v for v in metrics.decl_d_t if v is not None]
            ok = all(b <= a + _D_MONOTONE_TOL for a, b in zip(ds, ds[1:])) and all(
                v >= bench.d_star - _D_MONOTONE_TOL for v in ds)
            rows.append(CertRow("margins nonincreasing and >= d_star", None, None, "pass" if ok else "fail"))
    elif cfg.algorithm == "gradsmm":
        rows = [
            row("declaration-phase mistakes", 2.0, init_mistakes),
            CertRow("mistakes (no finite certificate for averaged iterates)", None, mistakes, "info"),
        ]
    else:
        cone = ConeKind(cfg.cone)
        try:
            bound = perceptron_mistake_bound(bench, consts, model, cone)
        except HypothesisViolation as exc:
            rows = [CertRow(f"mistakes ({cone.value} cone): {exc}", None, None, "not applicable")]
        else:
            rows = [row(f"mistakes ({cone.value} cone)", bound, mistakes)]
    return CertifyReport(rows, preamble)


# ---------------------------------------------------------------------------
# Worked examples


@dataclass
class ExampleReport:
    name: str
    passed: bool
    lines: list

    def render(self) -> str:
        body = "\n".join(self.lines)
        verdict = "PASS" if self.passed else "FAIL"
        return f"example {self.name}\n{body}\n{verdict}"


class _Checks:
    def __init__(self):
        self.lines = []
        self.passed = True

    def check(self, cond: bool, msg: str):
        self.lines.append(("ok: " if cond else "FAIL: ") + msg)
        self.passed = self.passed and bool(cond)

    def close(self, actual, expected, tol: float, msg: str):
        err = float(np.max(np.abs(np.asarray(actual, dtype=float) - np.asarray(expected, dtype=float))))
        self.check(err <= tol, f"{msg} (err={err:.3g}, tol={tol:g})")


def _play(learner, x: np.ndarray, label: int, model: CostModel) -> Interaction:
    """One round of ``learner`` against the agent ``(x, label)``, handed to its update as one row."""
    it = interact(x, label, learner.classifier, model)
    learner.update(it.response[None], np.array([label]), np.array([it.predicted]))
    return it


def _example_truthful_max_margin() -> ExampleReport:
    chk = _Checks()
    pos = np.array([[-1.0, 1.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    neg = np.array([[-1.0, -1.0], [1.0, -1.0]])
    model = CostModel(parse_norm("l2"), c=4.0, dim=2)
    sol = solve_max_margin(PointSetPair.from_arrays(pos, neg), model)
    chk.close(sol.y, [0.0, 1.0], 1e-9, "max-margin direction is (0, 1)")
    chk.close([sol.b], [0.0], 1e-9, "max-margin intercept is 0")
    chk.close([sol.d], [1.0], 1e-9, "margin equals 1")

    star = Classifier(sol.y, sol.b)
    rounds = [interact(x, lbl, star, model) for X, lbl in ((pos, 1), (neg, -1)) for x in X]
    chk.check(not any(it.manipulated for it in rounds), "no agent manipulates against the max-margin classifier")
    chk.check(not any(it.mistake for it in rounds), "no mistakes under the max-margin classifier")

    bad = Classifier(np.array([1.0, 2.0]), 0.0)
    r = interact(np.array([-1.0, 1.0]), 1, bad, model).response
    expected = [-6.0 / 5.0 + math.sqrt(5.0) / 10.0, 3.0 / 5.0 + math.sqrt(5.0) / 5.0]
    chk.close(r, expected, 1e-12, "agent (-1,1) moves onto the indifference boundary of (1,2)")
    return ExampleReport("truthful-max-margin", chk.passed, chk.lines)


def _example_smm_stuck() -> ExampleReport:
    chk = _Checks()
    model = CostModel(parse_norm("l2"), c=math.sqrt(2.0), dim=2)
    learner = SmmLearner(model)
    stream = [(np.array([0.0, 1.0]), 1), (np.array([-2.0, -1.0]), -1)]
    stream += [(np.array([-2.0, 1.0]), 1)] * 498

    mistakes = manips = 0
    for x, lbl in stream:
        it = _play(learner, x, lbl, model)
        mistakes += it.mistake
        manips += it.manipulated

    s2 = math.sqrt(2.0)
    final = learner.classifier
    chk.close(final.y, [1.0 / s2, 1.0 / s2], 1e-9, "direction stuck at (1,1)/sqrt(2)")
    chk.close([final.b], [1.0 / s2], 1e-9, "intercept stuck at 1/sqrt(2)")
    chk.close([learner.solution.d], [s2], 1e-9, "pool margin stuck at sqrt(2)")
    chk.check(learner.solve_count == 1, f"no re-solve after declaration (solves={learner.solve_count})")
    chk.check(manips == 498, f"agent (-2,1) manipulated on all 498 visits (got {manips})")
    chk.check(mistakes <= 2, f"no mistakes beyond the declaration phase (got {mistakes})")

    r = learner.pool.positives[-1]
    chk.close(r, [-1.0, 2.0], 1e-12, "manipulated response lands at (-1, 2)")

    truth = PointSetPair.from_arrays(np.array([[0.0, 1.0], [-2.0, 1.0]]), np.array([[-2.0, -1.0]]))
    sol = solve_max_margin(truth, model)
    chk.close([sol.d], [1.0], 1e-9, "true max margin over the population is 1")
    return ExampleReport("smm-stuck", chk.passed, chk.lines)


def _example_perceptron_margin() -> ExampleReport:
    chk = _Checks()
    model = CostModel(parse_norm("l2"), c=4.0, dim=2)
    learner = PerceptronLearner(model, cone=ConeKind.FULL)

    first = [(np.array([1.0, -1.0]), -1), (np.array([2.0, 1.0]), 1)]
    cycle = [
        (np.array([-1.0, 1.0]), 1),
        (np.array([0.0, 1.0]), 1),
        (np.array([1.0, 1.0]), 1),
        (np.array([2.0, 1.0]), 1),
        (np.array([-1.0, -1.0]), -1),
        (np.array([1.0, -1.0]), -1),
    ]

    _play(learner, *first[0], model)
    q1 = learner.classifier
    chk.close(q1.y, [-1.0, 1.0], 0.0, "first update lands on (-1, 1)")
    chk.close([q1.b], [-1.0], 0.0, "first intercept is -1")
    _play(learner, *first[1], model)
    q2 = learner.classifier
    chk.close(q2.y, [1.0, 2.0], 0.0, "second update lands on (1, 2)")
    chk.close([q2.b], [0.0], 0.0, "second intercept is 0")

    manips = others = 0
    for _ in range(500):
        for x, lbl in cycle:
            it = _play(learner, x, lbl, model)
            if np.array_equal(x, [-1.0, 1.0]):
                manips += it.manipulated
            else:
                others += it.manipulated
    chk.check(learner.mistakes == 2, f"no updates after t=2 (mistakes={learner.mistakes})")
    chk.check(manips == 500, f"agent (-1,1) manipulates on every visit (got {manips})")
    chk.check(others == 0, f"no other agent manipulates (got {others} manipulations)")

    final = learner.classifier
    dist = _normalized_distance(final.y, final.b, Benchmark(np.array([0.0, 1.0]), 0.0, 1.0))
    chk.check(dist is not None and dist > 0.3, f"frozen classifier stays far from max margin (dist={dist:.3f})")

    nn = PerceptronLearner(model, cone=ConeKind.NONNEG_WEIGHTS)
    _play(nn, *first[0], model)
    q = nn.classifier
    chk.close(q.y, [0.0, 1.0], 0.0, "nonneg cone clips the first update to (0, 1)")
    chk.close([q.b], [-1.0], 0.0, "nonneg cone keeps intercept -1")
    return ExampleReport("perceptron-margin", chk.passed, chk.lines)


def _example_l1_counterexample() -> ExampleReport:
    chk = _Checks()
    model = CostModel(parse_norm("l1"), c=2.0, dim=2)
    learner = PerceptronLearner(model, cone=ConeKind.ZERO_INTERCEPT)
    z = np.array([0.75, 0.25])
    probe = np.array([1.0, 0.0])  # the budget point 2w/c for w = e1

    _play(learner, -z, -1, model)
    q = learner.classifier
    chk.close(q.y, z, 0.0, "first update recovers z exactly")
    chk.close([q.b], [0.0], 0.0, "zero-intercept cone pins b = 0")

    mistakes = 0
    drifted = False
    for _ in range(500):
        clf = learner.classifier
        it = _play(learner, probe, -1, model)
        mistakes += it.mistake
        drifted = drifted or not np.array_equal(learner.classifier.y, z)
    chk.check(mistakes == 500, f"budget point costs a mistake on every visit (got {mistakes})")
    chk.check(not drifted, "classifier direction never moves off z")
    proxy = proxy_from_response(it.response[None], np.array([-1]), np.array([it.predicted]), clf, model)
    chk.close([float(np.linalg.norm(proxy))], [0.0], 1e-12, "proxy collapses to the origin")
    return ExampleReport("l1-counterexample", chk.passed, chk.lines)


_EXAMPLES = {
    "truthful-max-margin": _example_truthful_max_margin,
    "smm-stuck": _example_smm_stuck,
    "perceptron-margin": _example_perceptron_margin,
    "l1-counterexample": _example_l1_counterexample,
}

EXAMPLE_NAMES = tuple(_EXAMPLES)


def reproduce_example(name: str) -> ExampleReport:
    """Re-run one of the canonical micro-instances and verify its numbers."""
    try:
        fn = _EXAMPLES[name]
    except KeyError:
        raise ConfigError(
            f"unknown example {name!r}; choose from {', '.join(_EXAMPLES)}"
        ) from None
    return fn()


# ---------------------------------------------------------------------------
# Sweeps


def sweep(config_dir, out_dir=None) -> list:
    """Run every ``*.cfg`` config in a directory; write metrics CSVs beside them."""
    config_dir = Path(config_dir)
    paths = sorted(config_dir.glob("*.cfg"))
    if not paths:
        raise ConfigError(f"no *.cfg files in {config_dir}")
    out_dir = Path(out_dir) if out_dir is not None else config_dir
    results = []
    for path in paths:
        cfg = read_config(path)
        metrics = run_online(cfg)
        out_path = out_dir / (path.stem + ".metrics.csv")
        write_metrics(metrics, out_path)
        results.append((path.name, metrics, out_path))
    return results

"""Command-line front end.

Exit codes: 0 success, 1 a check or certificate failed (a margin solve
that cannot certify its answer included), 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .data import load_csv, save_csv, write_descriptor
from .harness import ConfigError, read_config
from .maxmargin import SolverError, solve_max_margin
from .norms import CostModel, parse_norm


def _cmd_simulate(args) -> int:
    cfg = read_config(args.config)
    metrics = harness.run_online(cfg)
    if args.out:
        harness.write_metrics(metrics, args.out)
    print(metrics.summary())
    if metrics.inseparable_at is not None:
        print(f"note: pool became inseparable at update {metrics.inseparable_at}; "
              "learner fell back to the zero classifier")
    return 0


def _cmd_sweep(args) -> int:
    results = harness.sweep(args.configs, args.out)
    for name, metrics, out_path in results:
        print(f"{name}: {metrics.summary()} -> {out_path}")
    return 0


def _cmd_certify(args) -> int:
    cfg = read_config(args.config)
    metrics = harness.read_metrics(args.metrics) if args.metrics else None
    report = harness.certify(cfg, metrics)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_reproduce(args) -> int:
    report = harness.reproduce_example(args.name)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_solve_margin(args) -> int:
    ds = load_csv(args.points)
    model = CostModel(parse_norm(args.norm), c=1.0, dim=ds.dim)
    sol = solve_max_margin(ds.point_sets, model)
    if not sol.separable:
        print("inseparable: margin 0, zero classifier")
        return 0
    y = " ".join(f"{v:.12g}" for v in sol.y)
    print(f"y = [{y}]")
    print(f"b = {sol.b:.12g}")
    print(f"margin = {sol.d:.12g}")
    return 0


def _cmd_gen_data(args) -> int:
    cfg = read_config(args.config)
    ds = harness.build_dataset(cfg)
    out = Path(args.out)
    save_csv(ds, out)
    write_descriptor(ds, out.with_suffix(out.suffix + ".meta"))
    b = ds.benchmark
    extra = f" d_star={b.d_star:.6g}" if b is not None else ""
    print(f"wrote {ds.n} agents (d={ds.dim}) to {out}{extra}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratclass",
        description="Online learning against strategically manipulated features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one online experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write per-iteration metrics CSV here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="run every *.cfg config in a directory")
    p.add_argument("--configs", required=True)
    p.add_argument("--out", help="directory for metrics CSVs (default: beside configs)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("certify", help="check recorded metrics against the certificates")
    p.add_argument("--config", required=True)
    p.add_argument("--metrics", help="metrics CSV from a simulate run")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("reproduce-example", help="re-derive a canonical micro-instance")
    p.add_argument("name", choices=harness.EXAMPLE_NAMES)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("solve-margin", help="max-margin classifier for a labeled CSV")
    p.add_argument("--points", required=True, help="CSV with header f1,...,fd,label")
    p.add_argument("--norm", default="l2")
    p.set_defaults(fn=_cmd_solve_margin)

    p = sub.add_parser("gen-data", help="materialize a dataset (CSV + JSON descriptor)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

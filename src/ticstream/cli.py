"""Command-line entry point.

Subcommands: gen, train, eval, report, iid-split, run. Exit codes: 0 success,
1 for a `ConfigError`, 2 for any other error (see `ticstream.errors`). A config
file is read and validated in one place, `_load_config`, so anything wrong with
it, a wrongly typed value included, exits 1 naming the file; a config read
back from inside an artifact is the artifact's fault, and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .datagen import generate_stream, write_stream
from .errors import ConfigError, RunError
from .formats import lock_directory
from .methods import resolve_method
from .runner import (
    ExperimentConfig,
    emit_report,
    evaluate_run,
    iid_split_experiment,
    run_experiment,
    run_method_seed,
    _prepare_datasets,
)


def _load_config(path) -> ExperimentConfig:
    """The validated config in file `path`; anything wrong with it is a ConfigError naming the file."""
    try:
        cfg = ExperimentConfig.from_json(json.loads(Path(path).read_text()))
        cfg.validate()
    except (OSError, TypeError, ValueError) as exc:  # ValueError covers undecodable text, bad JSON and ConfigError
        raise ConfigError(f"config {path}: {exc}") from exc
    return cfg


def _cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    datasets = generate_stream(cfg.stream)
    with lock_directory(args.out, wait=True):  # a data directory's second writer waits
        manifest = write_stream(datasets, cfg.stream, args.out)
    print(f"wrote {len(datasets)} timestep files, manifest {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    resolve_method(args.method)  # before the stream is generated or any directory made
    datasets = _prepare_datasets(cfg, args.data)
    run_dir = Path(args.out) / args.method / f"seed_{args.seed}"
    metrics = run_method_seed(cfg, datasets, args.method, args.seed, run_dir)
    print(f"{args.method} seed={args.seed}: "
          f"retrieval in-domain {metrics['retrieval']['in_domain']:.4f}")
    return 0


def _cmd_eval(args) -> int:
    metrics = evaluate_run(args.run, args.data)
    print(json.dumps({k: metrics[k] for k in ("method", "seed", "static_final")}, indent=2))
    return 0


def _cmd_report(args) -> int:
    manifests = []  # of scored runs only: an unfinished run has a manifest but no metrics.json
    for root in args.runs:
        manifests.extend(m.with_name("manifest.json") for m in sorted(Path(root).glob("**/metrics.json")))
    if not manifests:
        raise RunError(f"no scored runs under {args.runs}")
    out = emit_report(manifests, args.out, args.format)
    print(f"report written to {out}")
    return 0


def _cmd_iid_split(args) -> int:
    try:
        splits = [int(s) for s in args.splits.split(",")]
    except ValueError:
        raise ConfigError(f"--splits must be comma-separated integers, got {args.splits!r}") from None
    cfg = _load_config(args.config)
    table = iid_split_experiment(cfg, splits)
    for k in splits:
        print(f"splits={k}: accuracy {table[k]:.4f}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if args.out:
        cfg.output_dir = args.out
    manifests = run_experiment(cfg)
    print(f"completed {len(manifests)} runs under {cfg.output_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ticstream")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a stream and write timestep files")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen)

    t = sub.add_parser("train", help="run one (method, seed) pair")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--method", required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("eval", help="score a finished run")
    e.add_argument("--run", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(fn=_cmd_eval)

    r = sub.add_parser("report", help="aggregate scored runs into CSV/JSON")
    r.add_argument("--runs", nargs="+", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.set_defaults(fn=_cmd_report)

    i = sub.add_parser("iid-split", help="IID k-split comparison experiment")
    i.add_argument("--config", required=True)
    i.add_argument("--splits", default="1,2,4,8")
    i.set_defaults(fn=_cmd_iid_split)

    a = sub.add_parser("run", help="run the full experiment from a config")
    a.add_argument("--config", required=True)
    a.add_argument("--out", default=None)
    a.set_defaults(fn=_cmd_run)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

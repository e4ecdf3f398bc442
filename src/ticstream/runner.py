"""Experiment orchestration: the T-step loop, persistence, and reports.

Every run is a (method, seed) pair owning one output directory. All
randomness is keyed by (seed, step, purpose), so a run killed at a step
boundary resumes bit-identically from its saved checkpoints.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import (
    StreamConfig,
    TimestepDataset,
    aggregate_early_steps,
    generate_stream,
    load_stream,
    write_stream,
)
from .errors import ConfigError, RunError
from .evaluation import build_performance_matrix, zero_shot_accuracy
from .methods import PatchState, StepContext, resolve_method, run_step
from .model import (
    Checkpoint,
    ModelDims,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import Rng
from .schedule import (
    BudgetLedger,
    ScheduleConfig,
    macs_per_iteration,
    per_step_iterations,
)

ARTIFACT_VERSION = 1


@dataclass
class ExperimentConfig:
    stream: StreamConfig
    schedule: ScheduleConfig  # total_iters field is ignored; set per step
    methods: list[str]
    seeds: list[int]
    total_iters: int
    batch_size: int
    hidden_dim: int
    embed_dim: int
    merge_first_k: int = 1
    lwf_lambda: float = 1.0
    output_dir: str = "runs"

    def validate(self) -> None:
        self.stream.validate()
        if not self.methods or not self.seeds:
            raise ConfigError("need at least one method and one seed")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (1 <= self.merge_first_k <= self.stream.num_steps):
            raise ConfigError("merge_first_k out of range")
        # one step's LR cycle, checked here so that a bad one fails before any step trains
        per_step = per_step_iterations(self.total_iters, self.stream.num_steps - self.merge_first_k + 1)
        self.schedule.with_total(per_step).validate()
        if self.lwf_lambda < 0:
            raise ConfigError("lwf_lambda must be >= 0")
        for m in self.methods:
            resolve_method(m)

    @property
    def dims(self) -> ModelDims:
        return ModelDims(self.stream.image_dim, self.stream.text_dim, self.hidden_dim, self.embed_dim)

    def to_json(self) -> dict:
        d = {
            "stream": self.stream.to_json(),
            "schedule": {
                "kind": self.schedule.kind,
                "max_lr": self.schedule.max_lr,
                "min_lr": self.schedule.min_lr,
                "warmup_iters": self.schedule.warmup_iters,
                "decay_fraction": self.schedule.decay_fraction,
                "warmup_on_subsequent": self.schedule.warmup_on_subsequent,
            },
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "total_iters": self.total_iters,
            "batch_size": self.batch_size,
            "hidden_dim": self.hidden_dim,
            "embed_dim": self.embed_dim,
            "merge_first_k": self.merge_first_k,
            "lwf_lambda": self.lwf_lambda,
            "output_dir": self.output_dir,
        }
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ExperimentConfig":
        sched = dict(d["schedule"])
        sched.setdefault("total_iters", 0)
        return cls(
            stream=StreamConfig.from_json(d["stream"]),
            schedule=ScheduleConfig(**sched),
            methods=list(d["methods"]),
            seeds=list(d["seeds"]),
            total_iters=d["total_iters"],
            batch_size=d["batch_size"],
            hidden_dim=d["hidden_dim"],
            embed_dim=d["embed_dim"],
            merge_first_k=d.get("merge_first_k", 1),
            lwf_lambda=d.get("lwf_lambda", 1.0),
            output_dir=d.get("output_dir", "runs"),
        )


def reference_config(output_dir: str = "runs", seeds=(0, 1, 2)) -> ExperimentConfig:
    """The desk-scale reference experiment used by the acceptance suite."""
    stream = StreamConfig(
        num_steps=4,
        per_step_train_size=2048,
        per_step_eval_size=256,
        image_dim=32,
        text_dim=24,
        latent_dim=8,
        class_birth_schedule=((1, 8), (3, 4)),
        drift_angle=0.7,
        noise_sigma=0.35,
        static_class_count=4,
        seed=20240901,
    )
    schedule = ScheduleConfig(
        kind="warmup_cosine", max_lr=3e-3, total_iters=0, warmup_iters=100,
    )
    return ExperimentConfig(
        stream=stream,
        schedule=schedule,
        methods=list(
            ("oracle", "cumulative_all", "cumulative_exp", "cumulative_equal",
             "sequential", "restart", "patching", "lwf")
        ),
        seeds=list(seeds),
        total_iters=4000,
        batch_size=256,
        hidden_dim=32,
        embed_dim=16,
        output_dir=output_dir,
    )


def _static_holdout(datasets: list[TimestepDataset], static_count: int):
    """Fixed never-drifting holdout: static-class records from the first step's eval split."""
    first = datasets[0]
    mask = first.eval_classification.class_ids < static_count
    if not mask.any():
        return None
    batch = first.eval_classification.take(np.where(mask)[0])
    keep = first.prototype_ids < static_count
    return batch, first.prototype_ids[keep], first.prototypes[keep]


def _json_dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))


def _step_context(cfg: ExperimentConfig, seed: int, first_step: int, per_step: int,
                  per_step_size: int) -> StepContext:
    """Step settings and a fresh ledger whose per-step budget is `per_step`
    iterations of the model initialized for `first_step`."""
    probe = init_params(cfg.dims, Rng(seed, 0).split("init", first_step))
    ledger = BudgetLedger(per_step * macs_per_iteration(probe, cfg.batch_size))
    return StepContext(
        seed=seed,
        dims=cfg.dims,
        batch_size=cfg.batch_size,
        per_step_iters=per_step,
        schedule=cfg.schedule,
        per_step_size=per_step_size,
        lwf_lambda=cfg.lwf_lambda,
        ledger=ledger,
    )


def run_method_seed(
    cfg: ExperimentConfig,
    datasets: list[TimestepDataset],
    method_id: str,
    seed: int,
    run_dir,
) -> dict:
    """Run one (method, seed) pair over all steps; resumable at step boundaries."""
    start = time.time()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    spec = resolve_method(method_id)
    timesteps = [d.timestep for d in datasets]
    num_steps = len(timesteps)
    per_step = per_step_iterations(cfg.total_iters, num_steps)

    ctx = _step_context(cfg, seed, timesteps[0], per_step, cfg.stream.per_step_train_size)
    budget_c = ctx.ledger.budget_c_macs

    progress_path = run_dir / "progress.json"
    records: list[dict] = []
    done_through = 0
    if progress_path.exists():
        progress = json.loads(progress_path.read_text())
        records = progress["records"]
        done_through = progress["done_through"]
        ctx.ledger = BudgetLedger.from_json(progress["ledger"])

    prev_ckpt: Checkpoint | None = None
    prev_patch: PatchState | None = None
    deploy_paths: dict[int, str] = {}
    for i, t in enumerate(timesteps):
        deploy_path = run_dir / f"step_{t:03d}.ticc"
        carry_path = run_dir / f"step_{t:03d}_carry.ticc"
        deploy_paths[t] = deploy_path.name
        if i < done_through:
            deploy = load_checkpoint(deploy_path)
            carry = load_checkpoint(carry_path) if carry_path.exists() else deploy
            prev_ckpt = carry
            if spec.id == "patching":
                alphas = [r["alpha"] for r in records[: i + 1]]
                prev_patch = PatchState(deploy.params, alphas)
            continue
        deploy, carry, prev_patch, rec = run_step(spec, t, datasets, prev_ckpt, prev_patch, ctx)
        prev_ckpt = carry
        save_checkpoint(deploy_path, deploy)
        if cfg.schedule.kind == "const_cosine":
            save_checkpoint(carry_path, carry)
        records.append(rec)
        _json_dump(progress_path, {
            "done_through": i + 1,
            "records": records,
            "ledger": ctx.ledger.to_json(),
        })

    # evaluation: matrices over deployable checkpoints, eval MACs billed fresh
    params_per_step = [load_checkpoint(run_dir / deploy_paths[t]).params for t in timesteps]
    eval_ledger = BudgetLedger(budget_c)
    eval_ledger.train_macs = dict(ctx.ledger.train_macs)
    eval_ledger.train_iters = dict(ctx.ledger.train_iters)
    retrieval = build_performance_matrix(params_per_step, datasets, "retrieval", eval_ledger)
    classification = build_performance_matrix(params_per_step, datasets, "classification", eval_ledger)

    static = _static_holdout(datasets, cfg.stream.static_class_count)
    static_per_step = None
    if static is not None:
        batch, pids, protos = static
        static_per_step = [zero_shot_accuracy(p, batch, pids, protos) for p in params_per_step]

    metrics = {
        "method": method_id,
        "seed": seed,
        "retrieval": retrieval.to_json(),
        "classification": classification.to_json(),
        "static_per_step": static_per_step,
        "static_final": static_per_step[-1] if static_per_step else None,
        "ledger": eval_ledger.to_json(),
    }
    _json_dump(run_dir / "metrics.json", metrics)

    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "method": method_id,
        "seed": seed,
        "config": cfg.to_json(),
        "checkpoints": {str(t): deploy_paths[t] for t in timesteps},
        "steps": records,
        "alphas": [r.get("alpha") for r in records] if spec.id == "patching" else None,
        "ledger": eval_ledger.to_json(),
        "metrics_file": "metrics.json",
        "wall_clock_seconds": time.time() - start,
    }
    _json_dump(run_dir / "manifest.json", manifest)
    return metrics


def _prepare_datasets(cfg: ExperimentConfig, data_dir=None) -> list[TimestepDataset]:
    if data_dir is not None and (Path(data_dir) / "stream_manifest.json").exists():
        datasets, stored = load_stream(data_dir)
        if stored != cfg.stream:
            raise ConfigError("stored stream config differs from experiment config")
    else:
        datasets = generate_stream(cfg.stream)
        if data_dir is not None:
            write_stream(datasets, cfg.stream, data_dir)
    return aggregate_early_steps(datasets, cfg.merge_first_k)


def _run_one(args):
    cfg_json, data_dir, method, seed, run_dir = args
    cfg = ExperimentConfig.from_json(cfg_json)
    datasets = _prepare_datasets(cfg, data_dir)
    return run_method_seed(cfg, datasets, method, seed, run_dir)


def run_experiment(cfg: ExperimentConfig, data_dir=None) -> list[Path]:
    """All (method, seed) runs; returns manifest paths. TIC_THREADS caps parallelism."""
    cfg.validate()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if data_dir is None:
        data_dir = out / "data"
    datasets = _prepare_datasets(cfg, data_dir)
    jobs = [
        (method, seed, out / method / f"seed_{seed}")
        for method in cfg.methods
        for seed in cfg.seeds
    ]
    workers = int(os.environ.get("TIC_THREADS", "1"))
    if workers > 1:
        arglist = [(cfg.to_json(), str(data_dir), m, s, str(d)) for m, s, d in jobs]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            list(ex.map(_run_one, arglist))
    else:
        for method, seed, run_dir in jobs:
            run_method_seed(cfg, datasets, method, seed, run_dir)
    return [d / "manifest.json" for _, _, d in jobs]


def evaluate_run(run_dir, data_dir) -> dict:
    """Rebuild metrics for an existing run directory from its checkpoints."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    cfg = ExperimentConfig.from_json(manifest["config"])
    datasets = _prepare_datasets(cfg, data_dir)
    return run_method_seed(cfg, datasets, manifest["method"], manifest["seed"], run_dir)


# ---------------------------------------------------------------------------
# IID-split experiment: one drift-free pool, split k ways, trained with the
# warm-started full-replay method; k=1 coincides with from-scratch training.
# ---------------------------------------------------------------------------


def iid_split_experiment(cfg: ExperimentConfig, splits=(1, 2, 4, 8)) -> dict:
    if cfg.stream.drift_angle != 0 or cfg.stream.class_birth_schedule:
        raise ConfigError("iid experiment requires a drift-free, birth-free stream")
    for k in splits:
        if k not in (1, 2, 4, 8):
            raise ConfigError("splits must be among {1, 2, 4, 8}")
        # each split's LR cycle, checked before any split trains
        try:
            cfg.schedule.with_total(per_step_iterations(cfg.total_iters, k)).validate()
        except ConfigError as exc:
            raise ConfigError(f"split {k}: {exc}") from exc
    pool_cfg = StreamConfig(**{**cfg.stream.to_json(), "num_steps": 1,
                               "class_birth_schedule": ()})
    pool = generate_stream(pool_cfg)[0]
    table: dict[int, float] = {}
    for k in splits:
        accs = []
        per_step = per_step_iterations(cfg.total_iters, k)
        for seed in cfg.seeds:
            perm = Rng(cfg.stream.seed, 0).split("iid", k).permutation(len(pool.train))
            shard = len(pool.train) // k
            datasets = []
            for t in range(1, k + 1):
                idx = perm[(t - 1) * shard : t * shard]
                datasets.append(TimestepDataset(
                    timestep=t,
                    train=pool.train.take(idx),
                    eval_retrieval=pool.eval_retrieval,
                    eval_classification=pool.eval_classification,
                    prototype_ids=pool.prototype_ids,
                    prototypes=pool.prototypes,
                ))
            ctx = _step_context(cfg, seed, 1, per_step, shard)
            spec = resolve_method("cumulative_all")
            prev = None
            for t in range(1, k + 1):
                deploy, carry, _, _ = run_step(spec, t, datasets, prev, None, ctx)
                prev = carry
            accs.append(zero_shot_accuracy(
                deploy.params, pool.eval_classification, pool.prototype_ids, pool.prototypes
            ))
        table[k] = float(np.mean(accs))
    return table


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def emit_report(manifest_paths, out_path, fmt: str = "csv") -> Path:
    """One row per (method, seed, task, metric) plus per-run MAC totals."""
    rows = []
    for mp in manifest_paths:
        mp = Path(mp)
        try:
            manifest = json.loads(mp.read_text())
            metrics = json.loads((mp.parent / manifest["metrics_file"]).read_text())
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise RunError(f"unreadable manifest {mp}: {exc}") from exc
        method, seed = manifest["method"], manifest["seed"]
        for task in ("retrieval", "classification"):
            m = metrics[task]
            rows.append([method, seed, task, "in_domain", m["in_domain"]])
            if m["backward"] is not None:
                rows.append([method, seed, task, "backward", m["backward"]])
                rows.append([method, seed, task, "forward", m["forward"]])
        if metrics["static_final"] is not None:
            rows.append([method, seed, "static", "static_final", metrics["static_final"]])
        ledger = BudgetLedger.from_json(metrics["ledger"])
        rows.append([method, seed, "compute", "train_macs_total", ledger.total_train_macs()])
        rows.append([method, seed, "compute", "eval_macs_total", ledger.total_eval_macs()])
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(out_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["method", "seed", "task", "metric", "value"])
            w.writerows(rows)
    elif fmt == "json":
        out_path.write_text(json.dumps(
            [dict(zip(["method", "seed", "task", "metric", "value"], r)) for r in rows],
            indent=2,
        ))
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return out_path

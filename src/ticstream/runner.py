"""Experiment orchestration: a trainer, a read-only scorer, and reports.

Every run is a (method, seed) pair owning one output directory, whose
manifest.json, written before step 1, is the identity a resume must match.
`train_run` keys all randomness by (seed, step, purpose) and writes each
artifact whole (`formats.atomic_write`), so a run killed at any instant resumes
bit-identically from its last finished step; `score_run` scores a finished
run's checkpoints and writes only metrics.json. A run's per-step budget C is
counted from the config's model shape (`ModelDims.layout`); no model is built
to count it. `run_experiment` reads the stream once and hands it, with the
config, to every (method, seed) job, so a job in a process pool runs exactly
what a serial one does; `iid_split_experiment` likewise builds each split
once and trains every seed on it. `ExperimentConfig.from_json` reads each
field as its dataclass declares it (`formats.config_fields`).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
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
from .formats import atomic_write, config_fields, read_json, write_json
from .methods import StepContext, resolve_method, run_step
from .model import ModelDims, load_checkpoint, save_checkpoint
from .numerics import Rng
from .schedule import (
    BudgetLedger,
    ScheduleConfig,
    macs_per_iteration,
    per_step_iterations,
)

ARTIFACT_VERSION = 2  # of the manifest.json layout


@dataclass
class ExperimentConfig:
    stream: StreamConfig
    schedule: ScheduleConfig  # its total_iters is not read: each step sets its own
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
        if not isinstance(self.methods, (list, tuple)) or not all(isinstance(m, str) for m in self.methods):
            raise ConfigError("methods must be an array of strings")
        if not isinstance(self.seeds, (list, tuple)) or not all(isinstance(s, int) for s in self.seeds):
            raise ConfigError("seeds must be an array of integers")
        if not self.methods or not self.seeds:
            raise ConfigError("need at least one method and one seed")
        if min(self.batch_size, self.hidden_dim, self.embed_dim) < 1:
            raise ConfigError("batch_size, hidden_dim and embed_dim must be >= 1")
        if not (1 <= self.merge_first_k <= self.stream.num_steps):
            raise ConfigError("merge_first_k out of range")
        # one step's LR cycle, checked here so that a bad one fails before any step trains
        per_step = per_step_iterations(self.total_iters, self.stream.num_steps - self.merge_first_k + 1)
        self.schedule.with_total(per_step)
        if self.lwf_lambda < 0:
            raise ConfigError("lwf_lambda must be >= 0")
        for m in self.methods:
            resolve_method(m)

    @property
    def dims(self) -> ModelDims:
        return ModelDims(self.stream.image_dim, self.stream.text_dim, self.hidden_dim, self.embed_dim)

    def to_json(self) -> dict:
        d = asdict(self)
        del d["schedule"]["total_iters"]  # set per step
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ExperimentConfig":
        """The config `to_json` wrote; a field it leaves out takes its default, and an unknown
        field, or a missing one without a default, is a ConfigError naming it."""
        d = config_fields(cls, d)
        return cls(**{**d, "stream": StreamConfig.from_json(d["stream"]),
                      "schedule": ScheduleConfig(**config_fields(ScheduleConfig, d["schedule"])),
                      "output_dir": d.get("output_dir") or cls.output_dir})  # null in a manifest's config


def reference_config(output_dir: str = ExperimentConfig.output_dir, seeds=(0, 1, 2)) -> ExperimentConfig:
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
    schedule = ScheduleConfig(kind="warmup_cosine", max_lr=3e-3, warmup_iters=100)
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


def _checkpoint_paths(run_dir: Path, t: int) -> tuple[Path, Path]:  # deploy, const-cosine carry
    return run_dir / f"step_{t:03d}.ticc", run_dir / f"step_{t:03d}_carry.ticc"


def _load_own(path: Path, method_id: str, t: int):  # refused unless `method_id` wrote it after step `t`
    ckpt = load_checkpoint(path)
    if (ckpt.method_id, ckpt.trained_through_step) != (method_id, t):
        raise RunError(f"{path}: {ckpt.method_id!r} step {ckpt.trained_through_step}, not {method_id!r} step {t}")
    return ckpt


def _identity(cfg: ExperimentConfig, method_id: str, seed: int) -> dict:  # manifest.json but its wall clock
    config = {**cfg.to_json(), "output_dir": None}  # not the run's: `train --out` ignores it
    return {"artifact_version": ARTIFACT_VERSION, "method": method_id, "seed": seed, "config": config}


def _step_context(cfg: ExperimentConfig, seed: int, per_step: int, per_step_size: int) -> StepContext:
    """Step settings and a fresh ledger whose per-step budget is `per_step` iterations of `cfg.dims`."""
    ledger = BudgetLedger(per_step * macs_per_iteration(cfg.dims.layout, cfg.batch_size))
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


def train_run(cfg: ExperimentConfig, datasets: list[TimestepDataset], method_id: str, seed: int,
              run_dir) -> None:
    """Train the steps that progress.json does not count as done, under the identity in manifest.json."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    spec = resolve_method(method_id)
    identity, manifest_path = _identity(cfg, method_id, seed), run_dir / "manifest.json"
    if not manifest_path.exists():
        write_json(manifest_path, identity)
    else:
        recorded = read_json(manifest_path, *identity)
        for key, want in json.loads(json.dumps(identity)).items():  # as read back: tuples become lists
            if (got := recorded[key]) != want:
                if key == "config" and isinstance(got, dict):  # name the config field that differs
                    key = next(k for k in sorted(want.keys() | got.keys()) if got.get(k) != want.get(k))
                raise ConfigError(f"{run_dir}: resumed under another {key} than its manifest.json records")
    timesteps = [d.timestep for d in datasets]
    per_step = per_step_iterations(cfg.total_iters, len(timesteps))
    ctx = _step_context(cfg, seed, per_step, cfg.stream.per_step_train_size)

    progress_path = run_dir / "progress.json"
    progress = {"done_through": 0, "records": []}
    if progress_path.exists():
        progress = read_json(progress_path, "done_through", "records", "ledger")
        ctx.ledger = BudgetLedger.from_json(progress["ledger"])
    done, records = progress["done_through"], progress["records"]

    # a run's state between steps is its last finished step's deploy and carry checkpoints
    deploy = carry = None
    if 0 < done < len(timesteps):
        deploy_path, carry_path = _checkpoint_paths(run_dir, timesteps[done - 1])
        deploy = _load_own(deploy_path, method_id, timesteps[done - 1])
        carry = _load_own(carry_path, method_id, timesteps[done - 1]) if carry_path.exists() else deploy

    for i in range(done, len(timesteps)):
        deploy_path, carry_path = _checkpoint_paths(run_dir, timesteps[i])
        deploy, carry, rec = run_step(spec, timesteps[i], datasets, deploy, carry, ctx)
        save_checkpoint(deploy_path, deploy)
        if cfg.schedule.kind == "const_cosine":
            save_checkpoint(carry_path, carry)
        records.append(rec)
        write_json(progress_path, {"done_through": i + 1, "records": records, "ledger": ctx.ledger.to_json()})


def score_run(cfg: ExperimentConfig, datasets: list[TimestepDataset], method_id: str, seed: int,
              run_dir) -> dict:
    """Score a finished run's deploy checkpoints into metrics.json, billing eval MACs afresh beside
    progress.json's training bill; a run with a step left to train is refused."""
    run_dir = Path(run_dir)
    progress_path = run_dir / "progress.json"
    progress = read_json(progress_path, "done_through", "ledger") if progress_path.exists() else {"done_through": 0}
    if progress["done_through"] < len(datasets):
        raise RunError(f"{run_dir}: unfinished run, step {datasets[progress['done_through']].timestep} is not trained")
    ledger = BudgetLedger.from_json({**progress["ledger"], "eval_macs": {}})
    params_per_step = [_load_own(_checkpoint_paths(run_dir, d.timestep)[0], method_id, d.timestep).params
                       for d in datasets]
    matrices = build_performance_matrix(params_per_step, datasets, ledger)

    static = _static_holdout(datasets, cfg.stream.static_class_count)
    static_per_step = None if static is None else [zero_shot_accuracy(p, *static) for p in params_per_step]

    metrics = {
        "method": method_id,
        "seed": seed,
        **matrices,
        "static_per_step": static_per_step,
        "static_final": static_per_step[-1] if static_per_step else None,
        "ledger": ledger.to_json(),
    }
    write_json(run_dir / "metrics.json", metrics)
    return metrics


def run_method_seed(cfg: ExperimentConfig, datasets: list[TimestepDataset], method_id: str, seed: int,
                    run_dir) -> dict:
    """Train one (method, seed) pair over all steps, score it and add its wall clock to its manifest."""
    start = time.time()
    train_run(cfg, datasets, method_id, seed, run_dir)
    metrics = score_run(cfg, datasets, method_id, seed, run_dir)
    write_json(Path(run_dir) / "manifest.json",
               {**_identity(cfg, method_id, seed), "wall_clock_seconds": time.time() - start})
    return metrics


def _stored_datasets(cfg: ExperimentConfig, data_dir, *, train: bool = True) -> list[TimestepDataset]:
    """The stream in `data_dir`, which must be `cfg`'s; a missing one is an error. `train=False`
    leaves out the train splits (see `load_stream`)."""
    datasets, stored = load_stream(data_dir, train=train)
    if stored != cfg.stream:
        raise ConfigError("stored stream config differs from experiment config")
    return aggregate_early_steps(datasets, cfg.merge_first_k)


def _prepare_datasets(cfg: ExperimentConfig, data_dir=None) -> list[TimestepDataset]:
    """The stream in `data_dir`, or `cfg`'s stream generated (and written there) when it holds none."""
    if data_dir is not None and (Path(data_dir) / "stream_manifest.json").exists():
        return _stored_datasets(cfg, data_dir)
    datasets = generate_stream(cfg.stream)
    if data_dir is not None:
        write_stream(datasets, cfg.stream, data_dir)
    return aggregate_early_steps(datasets, cfg.merge_first_k)


def run_experiment(cfg: ExperimentConfig, data_dir=None) -> list[Path]:
    """All (method, seed) runs; returns manifest paths. The stream is read (or generated and
    written) once, here, and every job is `run_method_seed` on `cfg` and it: run in turn, or with
    TIC_THREADS > 1 in a pool of that many processes, which never read or write `data_dir`."""
    cfg.validate()
    threads = os.environ.get("TIC_THREADS", "1")
    workers = int(threads) if threads.isdecimal() else 0
    if workers < 1:
        raise ConfigError(f"TIC_THREADS must be a positive integer, got {threads!r}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if data_dir is None:
        data_dir = out / "data"
    job = functools.partial(run_method_seed, cfg, _prepare_datasets(cfg, data_dir))
    jobs = [(method, seed, out / method / f"seed_{seed}") for method in cfg.methods for seed in cfg.seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            list(ex.map(job, *zip(*jobs)))
    else:
        for method, seed, run_dir in jobs:
            job(method, seed, run_dir)
    return [d / "manifest.json" for _, _, d in jobs]


def evaluate_run(run_dir, data_dir) -> dict:
    """Score a finished run directory from its checkpoints and the stream in `data_dir`;
    rewrites only metrics.json, and a missing stream or a malformed manifest.json config is an
    error. Scoring reads eval splits only, so the stream is loaded without its training rows."""
    path = Path(run_dir) / "manifest.json"
    manifest = read_json(path, "config", "method", "seed")
    try:
        cfg = ExperimentConfig.from_json(manifest["config"])
    except ConfigError as exc:
        raise RunError(f"{path}: {exc}") from exc
    datasets = _stored_datasets(cfg, data_dir, train=False)
    return score_run(cfg, datasets, manifest["method"], manifest["seed"], run_dir)


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
            cfg.schedule.with_total(per_step_iterations(cfg.total_iters, k))
        except ConfigError as exc:
            raise ConfigError(f"split {k}: {exc}") from exc
    pool = generate_stream(replace(cfg.stream, num_steps=1, class_birth_schedule=()))[0]
    spec, table = resolve_method("cumulative_all"), {}
    for k in splits:
        accs = []
        per_step = per_step_iterations(cfg.total_iters, k)
        perm = Rng(cfg.stream.seed, 0).split("iid", k).permutation(len(pool.train))
        shard = len(pool.train) // k
        datasets = [replace(pool, timestep=t, train=pool.train.take(perm[(t - 1) * shard : t * shard]))
                    for t in range(1, k + 1)]
        for seed in cfg.seeds:
            ctx = _step_context(cfg, seed, per_step, shard)
            deploy = carry = None
            for t in range(1, k + 1):
                deploy, carry, _ = run_step(spec, t, datasets, deploy, carry, ctx)
            accs.append(zero_shot_accuracy(
                deploy.params, pool.eval_classification, pool.prototype_ids, pool.prototypes
            ))
        table[k] = float(np.mean(accs))
    return table


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def emit_report(manifest_paths, out_path, fmt: str = "csv") -> Path:
    """One row per (method, seed, task, metric) plus per-run MAC totals, from the metrics.json by each manifest."""
    rows = []
    for mp in manifest_paths:
        metrics = read_json(Path(mp).parent / "metrics.json", "method", "seed")
        method, seed = metrics["method"], metrics["seed"]
        for task in ("retrieval", "classification"):
            m = metrics[task]
            rows += [[method, seed, task, k, m[k]] for k in ("in_domain", "backward", "forward") if m[k] is not None]
        if metrics["static_final"] is not None:
            rows.append([method, seed, "static", "static_final", metrics["static_final"]])
        ledger = BudgetLedger.from_json(metrics["ledger"])
        rows.append([method, seed, "compute", "train_macs_total", ledger.total_train_macs()])
        rows.append([method, seed, "compute", "eval_macs_total", ledger.total_eval_macs()])
    header = ["method", "seed", "task", "metric", "value"]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([header] + rows)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([dict(zip(header, r)) for r in rows], indent=2)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(out_path, text.encode())
    return out_path

"""Experiment orchestration: a trainer, a read-only scorer, and reports.

Every run is a (method, seed) pair owning one output directory, whose
manifest.json, written before step 1, is the identity a resume must match.
`train_run` keys all randomness by (seed, step, purpose) and writes each
artifact whole (`formats.atomic_write`), so a run killed at any instant resumes
bit-identically from its last finished step and the one model the next step
starts from, its whole state between steps; `score_run` scores a finished
run's checkpoints and writes only metrics.json; both read progress.json through
`_read_progress`, and run under the lock (`formats.lock_directory`) that
`run_method_seed` or `evaluate_run` holds, so a run directory has one writer
at a time; `train_run` alone stamps a step's models with their method and
step, and `_load_own` alone checks the stamp. Every step runs under the run's
config, seed and ledger, whose budget C, `ExperimentConfig.per_step_iters`
iterations, `_fresh_ledger` alone counts from the config's model shape
(`ModelDims.layout`). `run_experiment` reads the stored stream once (writing
the config's first, under the directory's lock, into a data directory without
one) and hands it, with the config, to every (method, seed) job, so a job in a
process pool runs exactly what a serial one does (a pool worker pins OpenBLAS
to one thread, which no artifact depends on, and dies with the run's process);
`iid_split_experiment` likewise builds each split once and trains every seed on
it, under a config of k steps. `ExperimentConfig.from_json` reads each field as
its dataclass declares it (`formats.config_fields`), and
`ExperimentConfig.validate` checks a config built in Python against the same
type table (`formats.check_types`), then only the rules between values:
ranges, non-empty and unrepeated methods and seeds, a schedule that leaves
its cycle length to the step, and the step cycle the schedule and
`total_iters` make.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import json
import os
import signal
import time
from dataclasses import asdict, dataclass, fields, replace
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
from .formats import atomic_write, check_types, config_fields, lock_directory, read_json, write_json
from .methods import METHOD_IDS, resolve_method, run_step
from .model import Checkpoint, ModelDims, load_checkpoint, save_checkpoint
from .numerics import Rng
from .schedule import BudgetLedger, ScheduleConfig, macs_per_iteration

ARTIFACT_VERSION = 2  # of the manifest.json layout
_TOTAL_ITERS_SET_PER_STEP = "field 'total_iters' of schedule is set per step, never in a config"


@dataclass
class ExperimentConfig:
    stream: StreamConfig
    schedule: ScheduleConfig  # its total_iters stays 0: each step sets its own
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
        check_types(ExperimentConfig, vars(self))
        self.stream.validate()
        if not self.methods or not self.seeds:
            raise ConfigError("need at least one method and one seed")
        for name, entries in (("methods", self.methods), ("seeds", self.seeds)):
            if len(set(entries)) < len(entries):  # each (method, seed) run owns one directory
                raise ConfigError(f"field {name!r} lists an entry twice: {list(entries)!r}")
        if min(self.batch_size, self.hidden_dim, self.embed_dim) < 1:
            raise ConfigError("batch_size, hidden_dim and embed_dim must be >= 1")
        if not (1 <= self.merge_first_k <= self.stream.num_steps):
            raise ConfigError("merge_first_k out of range")
        if self.schedule.total_iters:
            raise ConfigError(_TOTAL_ITERS_SET_PER_STEP)
        # one step's LR cycle, checked here so that a bad one fails before any step trains
        self.schedule.with_total(self.per_step_iters)
        if self.lwf_lambda < 0:
            raise ConfigError("lwf_lambda must be >= 0")
        for m in self.methods:
            resolve_method(m)

    @property
    def per_step_iters(self) -> int:
        """One budget C of iterations: `total_iters` shared equally (floor) by the stream's positions."""
        return self.total_iters // (self.stream.num_steps - self.merge_first_k + 1)

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
        field, a missing one without a default, a wrongly typed value or a `schedule.total_iters`
        is a ConfigError naming it. A manifest's config holds `"output_dir": null`
        (`_identity`), which reads as the default."""
        if isinstance(d, dict) and d.get("output_dir", "") is None:
            d = {**d, "output_dir": cls.output_dir}
        d = config_fields(cls, d)
        schedule = config_fields(ScheduleConfig, d["schedule"])
        if "total_iters" in schedule:
            raise ConfigError(_TOTAL_ITERS_SET_PER_STEP)
        return cls(**{**d, "stream": StreamConfig.from_json(d["stream"]), "schedule": ScheduleConfig(**schedule)})


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
        methods=list(METHOD_IDS),
        seeds=list(seeds),
        total_iters=4000,
        batch_size=256,
        hidden_dim=32,
        embed_dim=16,
        output_dir=output_dir,
    )


def _static_holdout(datasets: list[TimestepDataset], static_count: int):
    """Fixed never-drifting holdout: static-class records from the first position's eval split,
    which under `merge_first_k` > 1 is the merged first k steps'."""
    first = datasets[0]
    mask = first.eval_classification.class_ids < static_count
    if not mask.any():
        return None
    batch = first.eval_classification.take(np.where(mask)[0])
    keep = first.prototype_ids < static_count
    return batch, first.prototype_ids[keep], first.prototypes[keep]


def _checkpoint_paths(run_dir: Path, t: int) -> tuple[Path, Path]:  # deploy, const-cosine carry
    return run_dir / f"step_{t:03d}.ticc", run_dir / f"step_{t:03d}_carry.ticc"


def _load_own(path: Path, method_id: str, t: int):  # its model, refused unless `method_id` wrote it after step `t`
    ckpt = load_checkpoint(path)
    if (ckpt.method_id, ckpt.trained_through_step) != (method_id, t):
        raise RunError(f"{path}: {ckpt.method_id!r} step {ckpt.trained_through_step}, not {method_id!r} step {t}")
    return ckpt.params


def _identity(cfg: ExperimentConfig, method_id: str, seed: int) -> dict:  # manifest.json but its wall clock
    config = {**cfg.to_json(), "output_dir": None}  # not the run's: `train --out` ignores it
    return {"artifact_version": ARTIFACT_VERSION, "method": method_id, "seed": seed, "config": config}


def _fresh_ledger(cfg: ExperimentConfig) -> BudgetLedger:
    """A run's ledger before its first step: its budget C is `cfg.per_step_iters` iterations of `cfg.dims`."""
    return BudgetLedger(cfg.per_step_iters * macs_per_iteration(cfg.dims.layout, cfg.batch_size))


def _read_ledger(path: Path, ledger) -> BudgetLedger:
    """The `ledger` field of the JSON artifact at `path`; a malformed one is a RunError naming the file."""
    try:
        return BudgetLedger.from_json(ledger)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RunError(f"{path}: malformed ledger: {exc!r}") from exc


def _read_progress(cfg: ExperimentConfig, datasets: list[TimestepDataset], run_dir: Path):
    """progress.json's count of finished steps, their records and the run's ledger (none yet: 0, [], a fresh one);
    anything but a count in 0..T, as many records and a ledger billing just those steps is a RunError naming it."""
    path = run_dir / "progress.json"
    if not path.exists():
        return 0, [], _fresh_ledger(cfg)
    progress = read_json(path, "done_through", "records", "ledger")
    done, records = progress["done_through"], progress["records"]
    if type(done) is not int or not 0 <= done <= len(datasets):  # a bool is no count
        raise RunError(f"{path}: done_through {done!r} is not a step count in 0..{len(datasets)}")
    if not isinstance(records, list) or len(records) != done:
        raise RunError(f"{path}: records must be a list of {done} step records")
    ledger = _read_ledger(path, progress["ledger"])
    trained = [d.timestep for d in datasets[:done]]
    if sorted(ledger.train_macs) != trained or sorted(ledger.train_iters) != trained:
        raise RunError(f"{path}: the ledger does not bill training to exactly steps {trained}")
    return done, records, ledger


def train_run(cfg: ExperimentConfig, datasets: list[TimestepDataset], method_id: str, seed: int,
              run_dir) -> None:
    """Train the steps that progress.json does not count as done, under the identity in manifest.json,
    in `run_dir`, which the caller has made and locked."""
    spec = resolve_method(method_id)
    run_dir = Path(run_dir)
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
    done, records, ledger = _read_progress(cfg, datasets, run_dir)

    # a run's state between steps is the one model its next step starts from (`run_step`). It has a
    # file of its own, the carry, only under const_cosine for a `last_checkpoint` method, and never
    # after the last step; a resume loads that file, else the deploy file, and none under random init
    own_carry = cfg.schedule.kind == "const_cosine" and spec.init_source == "last_checkpoint"
    start = None
    if 0 < done < len(datasets) and spec.init_source != "random":
        t = datasets[done - 1].timestep
        deploy_path, carry_path = _checkpoint_paths(run_dir, t)
        start = _load_own(carry_path if own_carry else deploy_path, method_id, t)

    for i in range(done, len(datasets)):
        t = datasets[i].timestep
        deploy_path, carry_path = _checkpoint_paths(run_dir, t)
        deploy, start, rec = run_step(spec, datasets[: i + 1], start, cfg, seed, ledger)
        save_checkpoint(deploy_path, Checkpoint(deploy, t, method_id))
        if own_carry and i + 1 < len(datasets):
            save_checkpoint(carry_path, Checkpoint(start, t, method_id))
        records.append(rec)
        write_json(run_dir / "progress.json", {"done_through": i + 1, "records": records, "ledger": ledger.to_json()})


def score_run(cfg: ExperimentConfig, datasets: list[TimestepDataset], method_id: str, seed: int,
              run_dir) -> dict:
    """Score a finished run's deploy checkpoints into metrics.json, whose ledger is progress.json's,
    the run's whole bill so far (`patching`'s alpha grid included), with scoring's eval MACs added;
    a run with a step left to train is refused. The caller holds the run directory's lock."""
    run_dir = Path(run_dir)
    done, _, ledger = _read_progress(cfg, datasets, run_dir)
    if done < len(datasets):
        raise RunError(f"{run_dir}: unfinished run, step {datasets[done].timestep} is not trained")
    params_per_step = [_load_own(_checkpoint_paths(run_dir, d.timestep)[0], method_id, d.timestep) for d in datasets]
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
    """Train one (method, seed) pair over all steps, score it and add its wall clock to its manifest,
    holding its run directory's lock throughout."""
    start = time.time()
    run_dir = Path(run_dir)
    with lock_directory(run_dir):
        train_run(cfg, datasets, method_id, seed, run_dir)
        metrics = score_run(cfg, datasets, method_id, seed, run_dir)
        write_json(run_dir / "manifest.json",
                   {**_identity(cfg, method_id, seed), "wall_clock_seconds": time.time() - start})
    return metrics


def _stored_datasets(cfg: ExperimentConfig, data_dir, *, train: bool = True) -> list[TimestepDataset]:
    """The stream in `data_dir`, which must be `cfg`'s: one of another config is a ConfigError
    naming the directory and the first field that differs, and a missing one is an error.
    `train=False` leaves out the train splits (see `load_stream`)."""
    datasets, stored = load_stream(data_dir, train=train)
    if stored != cfg.stream:
        field = next(f.name for f in fields(StreamConfig)
                     if getattr(stored, f.name) != getattr(cfg.stream, f.name))
        raise ConfigError(f"{data_dir}: stored stream config differs from experiment config in field {field!r}")
    return aggregate_early_steps(datasets, cfg.merge_first_k)


def _prepare_datasets(cfg: ExperimentConfig, data_dir) -> list[TimestepDataset]:
    """The stream in `data_dir`, where `cfg`'s stream is first written when it holds none, so that
    a run trains on its stream as stored, as every later run and `evaluate_run` read it. The
    stream is written under the data directory's lock, so a second writer waits for the first
    and then reads what it wrote; a stored stream is read without the lock."""
    manifest = Path(data_dir) / "stream_manifest.json"
    if not manifest.exists():
        with lock_directory(data_dir, wait=True):
            if not manifest.exists():  # unless a writer it waited for has written it
                write_stream(generate_stream(cfg.stream), cfg.stream, data_dir)
    return _stored_datasets(cfg, data_dir)


def _init_worker(parent: int) -> None:
    """A pool worker's initializer. The worker, forked from the run's process `parent`, asks the
    kernel through libc's prctl to SIGKILL it when that process dies, and exits if it has already
    died, so that a killed run leaves no worker behind to train on; without prctl it does neither.
    Then it pins the loaded OpenBLAS to one thread, so that N workers share the cores instead of
    each running a thread per core. The library is found through /proc/self/maps; without /proc,
    or without numpy's bundled symbol, nothing is pinned. Artifacts do not depend on BLAS threads,
    so a pooled run still writes a serial one's bytes."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:
            os._exit(1)
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return
    for lib in libs:
        set_threads = getattr(ctypes.CDLL(lib), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            return


def run_experiment(cfg: ExperimentConfig, data_dir=None) -> list[Path]:
    """All (method, seed) runs; returns manifest paths. The stored stream is read once, here (written
    first when `data_dir` holds none), and every job is `run_method_seed` on `cfg` and it: run in turn, or with
    TIC_THREADS > 1 in a pool of that many processes forked from this one, each pinned to one BLAS
    thread and killed when this process dies, which never read or write `data_dir`."""
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
        from concurrent.futures import ProcessPoolExecutor  # a serial run loads no pool
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                                 initializer=_init_worker, initargs=(os.getpid(),)) as ex:
            list(ex.map(job, *zip(*jobs)))
    else:
        for method, seed, run_dir in jobs:
            job(method, seed, run_dir)
    return [d / "manifest.json" for _, _, d in jobs]


def evaluate_run(run_dir, data_dir) -> dict:
    """Score a finished run directory from its checkpoints and the stream in `data_dir`;
    rewrites only metrics.json, under the run directory's lock. A missing stream, a manifest.json
    of another artifact version, or a config in it that a config file could not hold, is an error.
    Scoring reads eval splits only, so the stream is loaded without its training rows."""
    path = Path(run_dir) / "manifest.json"
    manifest = read_json(path, "artifact_version", "config", "method", "seed")
    if manifest["artifact_version"] != ARTIFACT_VERSION:
        raise RunError(f"{path}: field 'artifact_version' is {manifest['artifact_version']!r}, "
                       f"not {ARTIFACT_VERSION}")
    try:
        cfg = ExperimentConfig.from_json(manifest["config"])
        cfg.validate()
    except ConfigError as exc:
        raise RunError(f"{path}: {exc}") from exc
    datasets = _stored_datasets(cfg, data_dir, train=False)
    with lock_directory(run_dir):
        return score_run(cfg, datasets, manifest["method"], manifest["seed"], run_dir)


# ---------------------------------------------------------------------------
# IID-split experiment: one drift-free pool, split k ways, trained with the
# warm-started full-replay method; k=1 coincides with from-scratch training.
# ---------------------------------------------------------------------------


def iid_split_experiment(cfg: ExperimentConfig, splits=(1, 2, 4, 8)) -> dict:
    if cfg.stream.drift_angle != 0 or cfg.stream.class_birth_schedule:
        raise ConfigError("iid experiment requires a drift-free, birth-free stream")
    split_cfgs = {}  # split k trains k steps under a config of its own
    for k in splits:
        if k not in (1, 2, 4, 8):
            raise ConfigError("splits must be among {1, 2, 4, 8}")
        if list(splits).count(k) > 1:
            raise ConfigError(f"split {k} is listed twice: {list(splits)!r}")
        if cfg.stream.per_step_train_size < k:
            raise ConfigError(f"split {k}: per_step_train_size {cfg.stream.per_step_train_size} "
                              f"leaves a shard without a training record")
        split_cfg = split_cfgs[k] = replace(cfg, stream=replace(cfg.stream, num_steps=k), merge_first_k=1)
        # each split's config, checked before any split trains
        try:
            split_cfg.validate()
        except ConfigError as exc:
            raise ConfigError(f"split {k}: {exc}") from exc
    pool = generate_stream(replace(cfg.stream, num_steps=1))[0]
    spec, table = resolve_method("cumulative_all"), {}
    for k, split_cfg in split_cfgs.items():
        accs = []
        perm = Rng(cfg.stream.seed, 0).split("iid", k).permutation(len(pool.train))
        shard = len(pool.train) // k
        datasets = [replace(pool, timestep=t, train=pool.train.take(perm[(t - 1) * shard : t * shard]))
                    for t in range(1, k + 1)]
        for seed in cfg.seeds:
            ledger = _fresh_ledger(split_cfg)
            start = None
            for t in range(1, k + 1):
                deploy, start, _ = run_step(spec, datasets[:t], start, split_cfg, seed, ledger)
            accs.append(zero_shot_accuracy(deploy, pool.eval_classification, pool.prototype_ids, pool.prototypes))
        table[k] = float(np.mean(accs))
    return table


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def emit_report(manifest_paths, out_path, fmt: str = "csv") -> Path:
    """One row per (method, seed, task, metric) plus per-run MAC totals, from the metrics.json by each manifest.
    A metrics.json without one of the fields read, or with a malformed ledger, is a RunError naming the file;
    the keys inside each matrix are not checked."""
    rows = []
    for mp in manifest_paths:
        path = Path(mp).parent / "metrics.json"
        metrics = read_json(path, "method", "seed", "retrieval", "classification", "static_final", "ledger")
        method, seed = metrics["method"], metrics["seed"]
        for task in ("retrieval", "classification"):
            m = metrics[task]
            rows += [[method, seed, task, k, m[k]] for k in ("in_domain", "backward", "forward") if m[k] is not None]
        if metrics["static_final"] is not None:
            rows.append([method, seed, "static", "static_final", metrics["static_final"]])
        ledger = _read_ledger(path, metrics["ledger"])
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

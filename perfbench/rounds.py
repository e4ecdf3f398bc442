"""One round of a workload.

A round is the same work every time: set up the stream (generate and write
it), train every (method, seed) run of the workload through ticstream's
public entry point, then re-evaluate every finished run directory
`EVAL_PASSES` times. Inputs depend only on the workload and the seed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ticstream import datagen, runner
from ticstream.datagen import StreamConfig
from ticstream.runner import ExperimentConfig
from ticstream.schedule import ScheduleConfig

from workloads import EVAL_PASSES, STREAM_SEED_BASE, Workload


def experiment_config(w: Workload, seed: int, out_dir) -> ExperimentConfig:
    stream = StreamConfig(**w.stream, seed=STREAM_SEED_BASE + seed)
    positions = stream.num_steps - w.merge_first_k + 1
    per_step = w.total_iters // positions
    return ExperimentConfig(
        stream=stream,
        # the reference warms up over a tenth of a step's iterations
        schedule=ScheduleConfig(kind=w.schedule_kind, max_lr=3e-3, total_iters=0,
                                warmup_iters=per_step // 10),
        methods=list(w.methods),
        seeds=[seed],
        total_iters=w.total_iters,
        batch_size=w.batch_size,
        hidden_dim=32,
        embed_dim=16,
        merge_first_k=w.merge_first_k,
        output_dir=str(out_dir),
    )


@dataclass
class RoundResult:
    cfg: ExperimentConfig
    datasets: list  # as generated, before merging
    data_dir: Path
    run_dirs: list[Path]
    setup_s: float
    wall_s: float
    eval_s: list[float]
    job_s: list[float]  # per-job wall_clock_seconds from the training manifests
    metrics_before_eval: dict[Path, bytes]


def run_round(w: Workload, seed: int, work_dir: Path) -> RoundResult:
    data_dir, out_dir = work_dir / "data", work_dir / "runs"
    cfg = experiment_config(w, seed, out_dir)
    run_dirs = [out_dir / m / f"seed_{s}" for m in cfg.methods for s in cfg.seeds]

    t0 = time.perf_counter()
    datasets = datagen.generate_stream(cfg.stream)
    datagen.write_stream(datasets, cfg.stream, data_dir)
    setup_s = time.perf_counter() - t0

    os.environ["TIC_THREADS"] = str(w.workers)
    if w.from_disk:
        t0 = time.perf_counter()
        runner.run_experiment(cfg, data_dir)
        wall_s = time.perf_counter() - t0
    else:
        merged = datagen.aggregate_early_steps(datasets, cfg.merge_first_k)
        t0 = time.perf_counter()
        for m in cfg.methods:
            for s in cfg.seeds:
                runner.run_method_seed(cfg, merged, m, s, out_dir / m / f"seed_{s}")
        wall_s = time.perf_counter() - t0

    job_s = [json.loads((d / "manifest.json").read_text())["wall_clock_seconds"] for d in run_dirs]
    before = {d: (d / "metrics.json").read_bytes() for d in run_dirs}
    eval_s = []
    for _ in range(EVAL_PASSES):
        t0 = time.perf_counter()
        for d in run_dirs:
            runner.evaluate_run(d, data_dir)
        eval_s.append(time.perf_counter() - t0)
    return RoundResult(cfg, datasets, data_dir, run_dirs, setup_s, wall_s, eval_s, job_s, before)

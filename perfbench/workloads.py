"""The benchmark's workloads: what each one runs, as plain data.

This module imports neither NumPy nor ticstream, so that a workload's BLAS
thread setting can be put in the environment before either is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

# The reference experiment's stream seed; a workload seed n uses BASE + n.
STREAM_SEED_BASE = 20240901
EVAL_PASSES = 3
REFERENCE_STREAM = dict(
    num_steps=4, per_step_train_size=2048, per_step_eval_size=256,
    image_dim=32, text_dim=24, latent_dim=8, class_birth_schedule=((1, 8), (3, 4)),
    drift_angle=0.7, noise_sigma=0.35, static_class_count=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    stream: dict
    methods: tuple[str, ...]
    total_iters: int
    batch_size: int
    schedule_kind: str
    merge_first_k: int
    workers: int  # TIC_THREADS
    # True: run_experiment loads the stream from disk (and, with a pool, every
    # job reloads it); False: run_method_seed gets the generated arrays
    from_disk: bool
    # OPENBLAS_NUM_THREADS for the harness and its workers; None keeps the default
    blas_threads: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_b256",
            stream=REFERENCE_STREAM,
            methods=("cumulative_exp", "lwf"),
            total_iters=240,
            batch_size=256,
            schedule_kind="warmup_cosine",
            merge_first_k=1,
            workers=1,
            from_disk=False,
            blas_threads=1,
        ),
        Workload(
            name="stream_b32",
            stream=dict(
                REFERENCE_STREAM, num_steps=8, per_step_train_size=1024, per_step_eval_size=512,
                class_birth_schedule=((1, 8), (3, 4), (5, 4)),
            ),
            methods=("patching", "cumulative_equal"),
            total_iters=1400,
            batch_size=32,
            schedule_kind="const_cosine",
            merge_first_k=2,
            workers=1,
            from_disk=True,
            blas_threads=1,
        ),
        Workload(
            name="pool2_reference",
            stream=REFERENCE_STREAM,
            methods=("oracle", "cumulative_all", "cumulative_exp", "cumulative_equal",
                     "sequential", "patching"),
            total_iters=200,
            batch_size=256,
            schedule_kind="warmup_cosine",
            merge_first_k=1,
            workers=2,
            from_disk=True,
        ),
        Workload(
            name="pool2_blas1",
            stream=REFERENCE_STREAM,
            methods=("oracle", "cumulative_all", "cumulative_exp", "cumulative_equal",
                     "sequential", "patching"),
            total_iters=200,
            batch_size=256,
            schedule_kind="warmup_cosine",
            merge_first_k=1,
            workers=2,
            from_disk=True,
            blas_threads=1,
        ),
    )
}


def operations(w: Workload) -> int:
    """Operations one round attempts: the setup, each training run, each evaluation."""
    return 1 + len(w.methods) * (1 + EVAL_PASSES)




"""Deterministic desk-scale time-continual contrastive training framework."""

from .datagen import (
    RecordBatch,
    StreamConfig,
    TimestepDataset,
    aggregate_early_steps,
    generate_stream,
    read_timestep_file,
    write_timestep_file,
)
from .errors import ConfigError, FormatError, NumericError, RunError, TicError
from .evaluation import (
    EvalSummary,
    PerformanceMatrix,
    build_performance_matrix,
    recall_at_1,
    summarize,
    zero_shot_accuracy,
)
from .methods import (
    METHOD_IDS,
    MethodSpec,
    apply_patch,
    resolve_method,
    run_step,
    tune_patch_alpha,
)
from .model import (
    Checkpoint,
    ModelDims,
    TwoTowerParams,
    clip_loss_and_grads,
    encode,
    init_params,
    load_checkpoint,
    lwf_penalty_and_grads,
    save_checkpoint,
    teacher_targets,
    train_minibatch,
)
from .numerics import (
    AdamState,
    Rng,
    adam_step,
    finite_diff_grad,
    l2_normalize_rows,
)
from .replay import BufferPolicy, ReplayPlan, assemble_training_set, plan_replay, sample_buffer
from .runner import (
    ExperimentConfig,
    emit_report,
    iid_split_experiment,
    reference_config,
    run_experiment,
    run_method_seed,
)
from .schedule import (
    BudgetLedger,
    ScheduleConfig,
    lr_at,
    macs_per_iteration,
    per_step_iterations,
)

__version__ = "0.1.0"

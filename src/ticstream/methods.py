"""The eight continual-training policies and their per-step execution.

Each method is one `MethodSpec` row of `_TABLE`: where its training starts,
which data it replays, whether it distils from its previous model and
whether its budget grows with the step. One step = assemble data, run one
training loop under the step's LR cycle, bill the ledger, hand back the
deploy and carry checkpoints: a run's whole state between steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import TimestepDataset
from .errors import ConfigError, RunError
from .evaluation import retrieval_score
from .model import (
    Checkpoint,
    ModelDims,
    TwoTowerParams,
    init_params,
    teacher_targets,
    train_minibatch,
)
from .numerics import AdamState, Rng
from .replay import BufferPolicy, ReplayPlan, assemble_training_set, plan_replay, sample_buffer
from .schedule import (
    LWF_TEACHER_SHARE,
    BudgetLedger,
    ScheduleConfig,
    decay_start_iter,
    eval_macs,
    lr_at,
    macs_per_iteration,
)

METHOD_IDS = (
    "oracle",
    "cumulative_all",
    "cumulative_exp",
    "cumulative_equal",
    "sequential",
    "restart",
    "patching",
    "lwf",
)

PATCH_ALPHA_GRID = [round(0.1 * i, 1) for i in range(11)]


@dataclass(frozen=True)
class MethodSpec:
    id: str
    init_source: str  # "random" | "last_checkpoint" | "last_patched"
    data_policy: str  # a replay.BufferPolicy kind, or "new_only"
    uses_lwf: bool = False  # distil from the previous carry from position 2 on
    budgets_grow: bool = False  # position p trains one fresh cycle of p budgets

    def budgets_at(self, pos: int) -> int:
        """Per-step budgets of training iterations at stream position `pos`."""
        return pos if self.budgets_grow else 1

    def iteration_cost_at(self, pos: int) -> float:
        """One iteration's cost at `pos`, in plain iterations: the teacher pass adds its share."""
        return 1.0 + LWF_TEACHER_SHARE if self.uses_lwf and pos >= 2 else 1.0

    def compute_multiplier_at(self, pos: int) -> float:
        """The budgets of compute a step at `pos` may spend."""
        return self.budgets_at(pos) * self.iteration_cost_at(pos)


_TABLE = {
    spec.id: spec
    for spec in (
        MethodSpec("oracle", "random", "all", budgets_grow=True),
        MethodSpec("cumulative_all", "last_checkpoint", "all"),
        MethodSpec("cumulative_exp", "last_checkpoint", "exp"),
        MethodSpec("cumulative_equal", "last_checkpoint", "equal"),
        MethodSpec("sequential", "last_checkpoint", "new_only"),
        MethodSpec("restart", "random", "all"),
        MethodSpec("patching", "last_patched", "new_only"),
        MethodSpec("lwf", "last_checkpoint", "new_only", uses_lwf=True),
    )
}


def resolve_method(method_id: str) -> MethodSpec:
    if method_id not in _TABLE:
        raise ConfigError(f"unknown method {method_id!r}; known: {METHOD_IDS}")
    return _TABLE[method_id]


def apply_patch(prev: TwoTowerParams, new: TwoTowerParams, alpha: float) -> TwoTowerParams:
    """Elementwise (1-alpha) * prev + alpha * new over every parameter."""
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError("alpha must be in [0, 1]")
    if prev.layout != new.layout:
        raise RunError("patch operands have different parameter shapes")
    return TwoTowerParams.wrap((1 - alpha) * prev.vector + alpha * new.vector, prev.layout)


def tune_patch_alpha(
    prev: TwoTowerParams,
    new: TwoTowerParams,
    prev_eval_sets: list[TimestepDataset],
    ledger: BudgetLedger,
    step: int,
) -> float:
    """Grid-search the mixing coefficient on previous steps' retrieval sets,
    billing each candidate's evaluation to `step`.

    Ties break toward larger alpha.
    """
    if not prev_eval_sets:
        raise ConfigError("need at least one previous eval set")
    best_alpha, best_score = 0.0, -1.0
    for alpha in PATCH_ALPHA_GRID:
        cand = apply_patch(prev, new, alpha)
        score = float(np.mean([retrieval_score(cand, ds.eval_retrieval) for ds in prev_eval_sets]))
        ledger.charge_eval(step, eval_macs(cand.layout, sum(2 * len(ds.eval_retrieval) for ds in prev_eval_sets)))
        if score >= best_score:
            best_alpha, best_score = alpha, score
    return best_alpha


@dataclass
class StepContext:
    """Shared per-run settings for executing method steps."""

    seed: int
    dims: ModelDims
    batch_size: int
    per_step_iters: int
    schedule: ScheduleConfig  # one step's LR cycle (total_iters = per_step_iters)
    per_step_size: int  # D
    lwf_lambda: float
    ledger: BudgetLedger


def _train(params, records, sched, is_first, batch_size, rng, ledger, t, teacher, bill):
    """One step's training loop on a copy of `params`, which is never changed,
    from a fresh Adam state; returns (deploy, carry, per-iteration losses).

    Under const-cosine the carry is a snapshot at the decay start, and the
    decayed branch goes on with its own random stream and epoch order; else
    the carry is the deployed model. Each iteration bills `bill` iterations.
    """
    n = len(records)
    if n == 0:
        raise RunError(f"step {t}: empty training set")
    bs = min(batch_size, n)
    iter_macs = macs_per_iteration(params.layout, bs)
    decay_start = decay_start_iter(sched) if sched.kind == "const_cosine" else None
    params = params.copy()
    carry = params
    adam = AdamState.init_like(params.vector)
    grads = TwoTowerParams.wrap(np.empty_like(params.vector), params.layout)
    # the kernel's B x B scratch matrices, kept for the whole loop: fresh ones
    # per call made an lwf iteration at B=256 35-40% slower (one BLAS thread)
    work = []
    # an epoch's order is keyed by the iteration that opened the epoch before
    # it, so the first two epochs of the loop, and of the decayed branch,
    # share one order
    order, pos, epoch, losses = None, 0, 0, []
    for it in range(sched.total_iters):
        if it == decay_start:
            carry = params.copy()
            rng = rng.split("decay_branch")
            order, epoch = None, it
        if order is None or pos + bs > n:
            order = rng.split("epoch", epoch).permutation(n)
            epoch = it
            pos = 0
        idx = order[pos : pos + bs]
        pos += bs
        lr = lr_at(sched, it, is_first)
        rec = train_minibatch(params, records.images[idx], records.texts[idx], lr,
                              None if teacher is None else teacher.take(idx), work, adam=adam, grads=grads)
        losses.append(rec["loss"] + rec["penalty"])
        ledger.charge_train(t, bill * iter_macs, 1)
    return params, carry, losses


def _assemble_data(spec: MethodSpec, seen: list[TimestepDataset], ctx: StepContext):
    """The training set of the step that ends `seen`, the stream up to it; returns (records, plan)."""
    t, cur_train = seen[-1].timestep, seen[-1].train
    counts, current = {}, len(cur_train)
    if spec.data_policy != "new_only":
        # replay formulas index steps by position so merged early steps count once
        by_pos = plan_replay(BufferPolicy(spec.data_policy), len(seen), ctx.per_step_size,
                             {p: len(d.train) for p, d in enumerate(seen, 1)})
        counts = {seen[q - 1].timestep: c for q, c in by_pos.per_source_counts.items()}
        current = by_pos.current_count
    plan = ReplayPlan(t, counts, current)
    rng = Rng(ctx.seed, 0).split("data", t)
    old = sample_buffer(plan, seen, rng)
    new = cur_train.take(rng.split("current").choice(len(cur_train), plan.current_count))
    return assemble_training_set(old, new, rng), plan


def run_step(
    spec: MethodSpec,
    t: int,
    datasets: list[TimestepDataset],
    prev_deploy: Checkpoint | None,
    prev_carry: Checkpoint | None,
    ctx: StepContext,
) -> tuple[Checkpoint, Checkpoint, dict]:
    """Execute one method step from the previous step's deploy and carry checkpoints.

    Returns (deploy checkpoint, carry checkpoint, step record), the run's
    whole state for the next step. Under the const-cosine schedule the
    decayed branch is deployed and the pre-decay model is the carry;
    otherwise both are the trained model. `patching` deploys instead its
    interpolation of the previous deploy model and the trained one, with the
    alpha in the record, and warm-starts from the previous deploy model; every
    other warm start, and the `lwf` teacher, use the previous carry.
    """
    # the stream up to step t; "first step" means first position, as merged
    # early steps start the stream above timestep 1
    steps = [d.timestep for d in datasets]
    if t not in steps:
        raise RunError(f"{spec.id}: step {t} is not in the stream")
    seen = datasets[: steps.index(t) + 1]
    pos = len(seen)
    is_initial = pos == 1
    prev = prev_deploy if spec.init_source == "last_patched" else prev_carry
    if spec.init_source != "random" and not is_initial and prev is None:
        raise RunError(f"{spec.id}: step {t} requires the previous checkpoint")

    # initialization; the training loop copies what it starts from
    is_first = is_initial or spec.init_source == "random"
    params = init_params(ctx.dims, Rng(ctx.seed, 0).split("init", t)) if is_first else prev.params

    # data
    records, plan = _assemble_data(spec, seen, ctx)

    # schedule: one cycle per step, of as many budgets as the method spends
    # there (the from-scratch oracle: t budgets)
    iters = ctx.per_step_iters * spec.budgets_at(pos)
    sched = ctx.schedule.with_total(iters)

    # the teacher is frozen for the whole step: embed its pairs once
    teacher = (teacher_targets(prev_carry.params, records.images, records.texts, ctx.lwf_lambda)
               if spec.uses_lwf and not is_initial else None)
    rng = Rng(ctx.seed, 0).split("trainloop", t)
    deploy, carry, losses = _train(params, records, sched, is_first, ctx.batch_size, rng, ctx.ledger, t,
                                   teacher, spec.iteration_cost_at(pos))
    ctx.ledger.assert_within(t, spec.compute_multiplier_at(pos))

    record = {
        "step": t,
        "plan": plan.to_json(),
        "train_set_size": len(records),
        "iterations": iters,
        "mean_loss": float(np.mean(losses)) if losses else 0.0,
        "final_loss": float(losses[-1]) if losses else 0.0,
    }
    if spec.init_source == "last_patched":
        alpha = 1.0
        if not is_initial:
            alpha = tune_patch_alpha(prev_deploy.params, deploy, seen[:-1], ctx.ledger, t)
            # the deployable model is the patched one
            deploy = apply_patch(prev_deploy.params, deploy, alpha)
        record["alpha"] = alpha
    return Checkpoint(deploy, t, spec.id), Checkpoint(carry, t, spec.id), record

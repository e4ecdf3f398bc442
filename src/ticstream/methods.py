"""The eight continual-training policies and their per-step execution.

Each method is a triple (initialization source, data policy, compute
multiplier). One step = assemble data, train a fixed number of minibatch
iterations under the step's LR cycle, bill the ledger, hand back the deploy
and carry checkpoints: a run's whole state between steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    uses_lwf: bool
    compute_multiplier_at: Callable[[int], float]


_TABLE = {
    "oracle": ("random", "all", False, lambda t: float(t)),
    "cumulative_all": ("last_checkpoint", "all", False, lambda t: 1.0),
    "cumulative_exp": ("last_checkpoint", "exp", False, lambda t: 1.0),
    "cumulative_equal": ("last_checkpoint", "equal", False, lambda t: 1.0),
    "sequential": ("last_checkpoint", "new_only", False, lambda t: 1.0),
    "restart": ("random", "all", False, lambda t: 1.0),
    "patching": ("last_patched", "new_only", False, lambda t: 1.0),
    "lwf": ("last_checkpoint", "new_only", True, lambda t: 1.0 + (LWF_TEACHER_SHARE if t >= 2 else 0.0)),
}


def resolve_method(method_id: str) -> MethodSpec:
    if method_id not in _TABLE:
        raise ConfigError(f"unknown method {method_id!r}; known: {METHOD_IDS}")
    init, data, uses_lwf, mult = _TABLE[method_id]
    return MethodSpec(method_id, init, data, uses_lwf, mult)


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
    ledger: BudgetLedger | None = None,
    step: int = 0,
) -> float:
    """Grid-search the mixing coefficient on previous steps' retrieval sets.

    Ties break toward larger alpha.
    """
    if not prev_eval_sets:
        raise ConfigError("need at least one previous eval set")
    best_alpha, best_score = 0.0, -1.0
    for alpha in PATCH_ALPHA_GRID:
        cand = apply_patch(prev, new, alpha)
        score = float(np.mean([retrieval_score(cand, ds.eval_retrieval) for ds in prev_eval_sets]))
        if ledger is not None:
            ledger.charge_eval(step, eval_macs(cand, sum(2 * len(ds.eval_retrieval) for ds in prev_eval_sets)))
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


def _train_segment(params, adam, records, it_start, it_stop, sched, is_first, batch_size, rng, ledger, t, lwf, bill):
    """Train iterations [it_start, it_stop) from `params`; returns the trained
    parameters and the per-iteration losses.

    The segment trains its own copy of `params`, made once here, in place,
    and continues `adam` where it stands; `params` itself is never changed.
    """
    n = len(records)
    if n == 0:
        raise RunError(f"step {t}: empty training set")
    bs = min(batch_size, n)
    iter_macs = macs_per_iteration(params, bs)
    order = None
    pos = n
    epoch = it_start  # epoch streams keyed by the iteration that opened them
    losses = []
    targets = None
    if lwf is not None:
        # the teacher is frozen for the whole segment: embed its pairs once
        targets = teacher_targets(lwf[0], records.images, records.texts, lwf[1])
    params = params.copy()
    grads = TwoTowerParams.wrap(np.empty_like(params.vector), params.layout)
    work = []  # the kernel's B x B scratch matrices, kept for the whole loop
    for it in range(it_start, it_stop):
        if order is None or pos + bs > n:
            order = rng.split("epoch", epoch).permutation(n)
            epoch = it
            pos = 0
        idx = order[pos : pos + bs]
        pos += bs
        lr = lr_at(sched, it, is_first)
        teacher = None if targets is None else targets.take(idx)
        rec = train_minibatch(params, records.images[idx], records.texts[idx], lr, teacher, work,
                              adam=adam, grads=grads)
        losses.append(rec["loss"] + rec["penalty"])
        ledger.charge_train(t, bill * iter_macs, 1)
    return params, losses


def _assemble_data(spec: MethodSpec, t: int, datasets: list[TimestepDataset], ctx: StepContext):
    by_step = {d.timestep: d for d in datasets}
    # replay formulas index steps by position so merged early steps count once
    positions = sorted(j for j in by_step if j <= t)
    pos_of = {j: i + 1 for i, j in enumerate(positions)}
    step_of = {i + 1: j for i, j in enumerate(positions)}
    actual = {pos_of[j]: len(by_step[j].train) for j in positions}
    p = pos_of[t]
    if spec.data_policy == "new_only":
        plan = ReplayPlan(p, {}, actual[p])
    else:
        plan = plan_replay(BufferPolicy(spec.data_policy), p, ctx.per_step_size, actual)
    plan = ReplayPlan(t, {step_of[q]: c for q, c in plan.per_source_counts.items()}, plan.current_count)
    rng = Rng(ctx.seed, 0).split("data", t)
    old = sample_buffer(plan, datasets, rng)
    cur_train = by_step[t].train
    cur_idx = rng.split("current").choice(len(cur_train), plan.current_count)
    new = cur_train.take(cur_idx)
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
    # with merged early steps the first position's timestep can exceed 1, so
    # "first step" means first position in the (possibly aggregated) stream
    pos = sorted(d.timestep for d in datasets).index(t) + 1
    is_initial = pos == 1
    prev = prev_deploy if spec.init_source == "last_patched" else prev_carry
    if spec.init_source != "random" and not is_initial and prev is None:
        raise RunError(f"{spec.id}: step {t} requires the previous checkpoint")

    # initialization; the training segment copies what it starts from
    if spec.init_source == "random" or is_initial:
        params = init_params(ctx.dims, Rng(ctx.seed, 0).split("init", t))
    else:
        params = prev.params

    # data
    records, plan = _assemble_data(spec, t, datasets, ctx)

    # schedule: one cycle per step; the from-scratch oracle gets a fresh
    # full-length cycle covering t budgets worth of iterations
    if spec.id == "oracle":
        iters = pos * ctx.per_step_iters
        is_first = True
    else:
        iters = ctx.per_step_iters
        is_first = is_initial or spec.init_source == "random"
    sched = ctx.schedule.with_total(iters)

    lwf = None
    bill = 1.0
    if spec.uses_lwf and not is_initial:
        lwf = (prev_carry.params, ctx.lwf_lambda)
        bill = 1.0 + LWF_TEACHER_SHARE

    rng = Rng(ctx.seed, 0).split("trainloop", t)
    # every step restarts Adam; the decay branch continues the same state
    adam = AdamState.init_like(params.vector)
    if sched.kind == "const_cosine":
        d = decay_start_iter(sched)
        carry, losses = _train_segment(
            params, adam, records, 0, d, sched, is_first, ctx.batch_size, rng, ctx.ledger, t, lwf, bill
        )
        deploy, branch_losses = _train_segment(
            carry, adam, records, d, iters, sched, is_first, ctx.batch_size, rng.split("decay_branch"),
            ctx.ledger, t, lwf, bill
        )
        losses += branch_losses
    else:
        deploy, losses = _train_segment(
            params, adam, records, 0, iters, sched, is_first, ctx.batch_size, rng, ctx.ledger, t, lwf, bill
        )
        carry = deploy

    ctx.ledger.assert_within(t, spec.compute_multiplier_at(pos))

    record = {
        "step": t,
        "plan": plan.to_json(),
        "train_set_size": len(records),
        "iterations": iters,
        "mean_loss": float(np.mean(losses)) if losses else 0.0,
        "final_loss": float(losses[-1]) if losses else 0.0,
    }
    if spec.id == "patching":
        alpha = 1.0
        if not is_initial:
            prev_sets = [d for d in datasets if d.timestep < t]
            alpha = tune_patch_alpha(prev_deploy.params, deploy, prev_sets, ctx.ledger, t)
            # the deployable model is the patched one
            deploy = apply_patch(prev_deploy.params, deploy, alpha)
        record["alpha"] = alpha
    return Checkpoint(deploy, t, spec.id), Checkpoint(carry, t, spec.id), record

"""The eight continual-training policies and their per-step execution.

Each method is one `MethodSpec` row of `_TABLE`: where its training starts,
its buffer policy, by name (which old data it replays, and how many current
records it takes), whether it distils from its previous model and whether
its budget grows with the step. `METHOD_IDS` is the table's keys. A step
is read off the stream it has seen, the steps up to and including it: its
timestep is the last one's, its position their count, and its settings the
experiment config's. One step = its training set from `replay`, one training
loop under the step's LR cycle, the run's ledger billed, and its deploy model
and its next step's start model, a run's whole state between steps, handed back unstamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .datagen import TimestepDataset
from .errors import ConfigError, RunError
from .evaluation import retrieval_score
from .model import (
    TwoTowerParams,
    init_params,
    teacher_targets,
    train_minibatch,
)
from .numerics import AdamState, Rng
from .replay import assemble_training_set, plan_replay, sample_buffer
from .schedule import (
    LWF_TEACHER_SHARE,
    BudgetLedger,
    decay_start_iter,
    eval_macs,
    lr_at,
    macs_per_iteration,
)

if TYPE_CHECKING:  # runner imports this module, so never at run time
    from .runner import ExperimentConfig

PATCH_ALPHA_GRID = [round(0.1 * i, 1) for i in range(11)]


@dataclass(frozen=True)
class MethodSpec:
    id: str
    init_source: str  # "random" | "last_checkpoint" | "last_patched"
    data_policy: str  # one of `replay.POLICIES`: plans the step's training data, old and current
    uses_lwf: bool = False  # distil from the step's start model from position 2 on
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

METHOD_IDS = tuple(_TABLE)


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
    return TwoTowerParams((1 - alpha) * prev.vector + alpha * new.vector, prev.layout)


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
    grads = TwoTowerParams(np.empty_like(params.vector), params.layout)
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


def run_step(
    spec: MethodSpec,
    seen: list[TimestepDataset],
    prev: TwoTowerParams | None,
    cfg: ExperimentConfig,
    seed: int,
    ledger: BudgetLedger,
) -> tuple[TwoTowerParams, TwoTowerParams | None, dict]:
    """Execute the step that ends `seen`, the stream up to and including it, from
    `prev`, the model the previous step handed on, billing `ledger`.

    The step's timestep is `seen[-1].timestep` and its position `len(seen)`.
    Every setting is `cfg`'s, D (`cfg.stream.per_step_train_size`) and the
    iterations of one budget (`cfg.per_step_iters`) included; the run adds its seed.
    `prev` is the warm start, the `lwf` teacher and `patching`'s base for its
    alpha mix. A step is first, and starts afresh without `prev`, at position 1
    (not timestep 1: merged early steps start the stream above it) and at every
    step of a random-init method. Returns (deploy model, start model, step
    record). The deployed model is the decayed branch under
    const-cosine, else the trained model; `patching` deploys instead its mix of
    `prev` and that model, with the alpha in the record. The start model, which
    the next step starts from, is None under random init, the deployed model
    for `last_patched`, and otherwise the carry: const-cosine's pre-decay model.
    """
    t, pos = seen[-1].timestep, len(seen)
    is_first = pos == 1 or spec.init_source == "random"
    if not is_first and prev is None:
        raise RunError(f"{spec.id}: step {t} requires the previous checkpoint")

    # initialization; the training loop copies what it starts from
    params = init_params(cfg.dims, Rng(seed, 0).split("init", t)) if is_first else prev

    plan = plan_replay(spec.data_policy, cfg.stream.per_step_train_size, seen)
    rng = Rng(seed, 0).split("data", t)
    records = assemble_training_set(sample_buffer(plan, seen, rng), rng)

    # schedule: one cycle per step, of as many budgets as the method spends
    # there (the from-scratch oracle: one per position)
    iters = cfg.per_step_iters * spec.budgets_at(pos)
    sched = cfg.schedule.with_total(iters)

    # the teacher is frozen for the whole step: embed its pairs once
    teacher = (teacher_targets(prev, records.images, records.texts, cfg.lwf_lambda)
               if spec.uses_lwf and not is_first else None)
    rng = Rng(seed, 0).split("trainloop", t)
    deploy, start, losses = _train(params, records, sched, is_first, cfg.batch_size, rng, ledger, t,
                                   teacher, spec.iteration_cost_at(pos))
    ledger.assert_within(t, spec.compute_multiplier_at(pos))

    record = {
        "step": t,
        "plan": plan.to_json(),
        "train_set_size": len(records),
        "iterations": iters,
        "mean_loss": float(np.mean(losses)),
        "final_loss": float(losses[-1]),
    }
    if spec.init_source == "last_patched":
        alpha = 1.0
        if not is_first:
            alpha = tune_patch_alpha(prev, deploy, seen[:-1], ledger, t)
            # the deployable model is the patched one
            deploy = apply_patch(prev, deploy, alpha)
        record["alpha"] = alpha
        start = deploy
    return deploy, None if spec.init_source == "random" else start, record

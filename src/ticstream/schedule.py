"""Learning-rate schedules and MAC-based compute budgeting.

Two schedules: linear warmup into a cosine decay (re-cycled every step),
and a constant learning rate that only decays over a trailing fraction of
the iterations to produce a deployable model. The ledger counts
multiply-accumulates against the fixed per-step budget. A forward pass
costs the encoder weights' MACs, read off the layer shapes of a model
layout (`ModelDims.layout` or `TwoTowerParams.layout`, both towers'
(fan_in, fan_out) pairs); the convention is backward = 2x forward, so a
training iteration bills 3x the forward cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError, RunError
from .formats import check_types

TRAIN_MAC_MULTIPLIER = 3  # forward + 2x-forward backward
# similarity-distillation overhead per iteration, matching the reported
# 1.2x budget of the teacher-regularized method
LWF_TEACHER_SHARE = 0.2


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str  # "warmup_cosine" | "const_cosine"
    max_lr: float
    total_iters: int = 0  # one cycle's length, set per step by `with_total`
    warmup_iters: int = 0
    min_lr: float = 0.0
    decay_fraction: float = 0.2  # const_cosine only
    warmup_on_subsequent: float = 0.0  # fraction of warmup_iters reused after step 1

    def validate(self) -> None:
        check_types(ScheduleConfig, vars(self))
        if self.kind not in ("warmup_cosine", "const_cosine"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not (0 <= self.min_lr <= self.max_lr):
            raise ConfigError("need max_lr >= min_lr >= 0")
        if self.total_iters < 1:  # a cycle of no iteration would deploy its start model, yet be recorded
            raise ConfigError(f"a step's cycle must train at least one iteration, got total_iters {self.total_iters}")
        if not (0 <= self.warmup_iters <= self.total_iters):
            raise ConfigError("need 0 <= warmup_iters <= total_iters")
        if not (0 < self.decay_fraction <= 1):
            raise ConfigError("decay_fraction must be in (0, 1]")
        if not (0 <= self.warmup_on_subsequent <= 1):
            raise ConfigError("warmup_on_subsequent must be in [0, 1]")
        # a one-iteration decay branch trains at min_lr: it deploys the carry unchanged, yet is billed
        if self.kind == "const_cosine" and self.total_iters - decay_start_iter(self) < 2:
            raise ConfigError(f"a const_cosine cycle of {self.total_iters} iterations decays over fewer than 2")

    def with_total(self, total_iters: int) -> "ScheduleConfig":
        """This schedule as one validated cycle of `total_iters` iterations."""
        cycle = replace(self, total_iters=total_iters)
        cycle.validate()
        return cycle


def lr_at(cfg: ScheduleConfig, it: int, is_first_step: bool = True) -> float:
    """Learning rate for iteration `it` (0-based) of a run of total_iters."""
    if not (0 <= it < cfg.total_iters):
        raise RunError(f"iteration {it} out of range [0, {cfg.total_iters})")
    w = cfg.warmup_iters if is_first_step else round(cfg.warmup_on_subsequent * cfg.warmup_iters)
    if it < w:
        return cfg.max_lr * (it + 1) / w
    # the cosine to min_lr starts after the warmup, or under const_cosine at the decay start
    start = w if cfg.kind == "warmup_cosine" else decay_start_iter(cfg)
    if it < start:
        return cfg.max_lr
    span = cfg.total_iters - 1 - start
    p = (it - start) / span if span > 0 else 1.0
    return cfg.min_lr + 0.5 * (cfg.max_lr - cfg.min_lr) * (1 + math.cos(math.pi * p))


def decay_start_iter(cfg: ScheduleConfig) -> int:
    return int(round(cfg.total_iters * (1 - cfg.decay_fraction)))


def forward_macs_per_sample(layout) -> int:
    return sum(fan_in * fan_out for shapes in layout for fan_in, fan_out in shapes)


def macs_per_iteration(layout, batch_size: int) -> int:
    return TRAIN_MAC_MULTIPLIER * forward_macs_per_sample(layout) * batch_size


def eval_macs(layout, num_samples: int) -> int:
    """Inference passes bill at 1x forward."""
    return forward_macs_per_sample(layout) * num_samples


@dataclass
class BudgetLedger:
    """Per-step MAC accounting against the per-step budget C."""

    budget_c_macs: int
    train_macs: dict[int, float] = field(default_factory=dict)
    eval_macs: dict[int, float] = field(default_factory=dict)
    train_iters: dict[int, int] = field(default_factory=dict)

    def charge_train(self, t: int, macs: float, iters: int = 0) -> None:
        self.train_macs[t] = self.train_macs.get(t, 0) + macs
        self.train_iters[t] = self.train_iters.get(t, 0) + iters

    def charge_eval(self, t: int, macs: float) -> None:
        self.eval_macs[t] = self.eval_macs.get(t, 0) + macs

    def total_train_macs(self) -> float:
        return sum(self.train_macs.values())

    def total_eval_macs(self) -> float:
        return sum(self.eval_macs.values())

    def assert_within(self, t: int, multiplier: float, tol: float = 1e-9) -> None:
        allowed = multiplier * self.budget_c_macs
        used = self.train_macs.get(t, 0)
        if used > allowed * (1 + tol):
            raise RunError(f"step {t}: consumed {used} MACs > {multiplier} x C = {allowed}")

    def to_json(self) -> dict:
        return {
            "budget_c_macs": self.budget_c_macs,
            "train_macs": {str(k): v for k, v in sorted(self.train_macs.items())},
            "eval_macs": {str(k): v for k, v in sorted(self.eval_macs.items())},
            "train_iters": {str(k): v for k, v in sorted(self.train_iters.items())},
        }

    @classmethod
    def from_json(cls, d: dict) -> "BudgetLedger":
        return cls(
            budget_c_macs=d["budget_c_macs"],
            train_macs={int(k): v for k, v in d["train_macs"].items()},
            eval_macs={int(k): v for k, v in d["eval_macs"].items()},
            train_iters={int(k): v for k, v in d["train_iters"].items()},
        )

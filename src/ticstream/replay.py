"""Replay-buffer planning and training-set assembly.

Three buffer policies: keep everything, halve each old step's share every
step (total old data D), or split a size-D buffer equally across old
steps. Sampling is uniform without replacement and fully seeded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datagen import RecordBatch, TimestepDataset
from .errors import RunError
from .numerics import Rng

POLICIES = ("all", "exp", "equal")


@dataclass(frozen=True)
class BufferPolicy:
    kind: str  # "all" | "exp" | "equal"

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise RunError(f"unknown buffer policy {self.kind!r}")


@dataclass
class ReplayPlan:
    current_step: int
    per_source_counts: dict[int, int]  # source step -> sample count
    current_count: int

    def total(self) -> int:
        return self.current_count + sum(self.per_source_counts.values())

    def to_json(self) -> dict:
        return {
            "current_step": self.current_step,
            "per_source_counts": {str(k): v for k, v in sorted(self.per_source_counts.items())},
            "current_count": self.current_count,
        }


def _exp_counts(t: int, buffer_size: int) -> dict[int, int]:
    # ideal shares: step j gets D/2^(t-j) for j >= 2, step 1 shares the
    # smallest fraction D/2^(t-2); shares sum to exactly D
    shares = {}
    for j in range(2, t):
        shares[j] = buffer_size / 2 ** (t - j)
    shares[1] = buffer_size / 2 ** (t - 2)
    counts = {j: int(shares[j]) for j in shares}
    remainder = buffer_size - sum(counts.values())
    for j in sorted(shares, reverse=True):  # leftover units go to recent steps
        if remainder <= 0:
            break
        counts[j] += 1
        remainder -= 1
    return counts


def _equal_counts(t: int, buffer_size: int) -> dict[int, int]:
    k = t - 1
    base = buffer_size // k
    remainder = buffer_size % k
    # largest-remainder rounding; all remainders tie, earlier steps win
    return {j: base + (1 if j <= remainder else 0) for j in range(1, t)}


def plan_replay(policy: BufferPolicy, t: int, per_step_size: int, actual_sizes: dict[int, int]) -> ReplayPlan:
    """Per-source sample counts for step t under the given buffer policy."""
    if t < 1:
        raise RunError("t must be >= 1")
    for j in range(1, t + 1):
        if j not in actual_sizes:
            raise RunError(f"actual_sizes missing step {j}")
    current = min(per_step_size, actual_sizes[t])
    if t == 1:
        return ReplayPlan(1, {}, current)
    if policy.kind == "all":
        counts = {j: actual_sizes[j] for j in range(1, t)}
    elif policy.kind == "exp":
        counts = _exp_counts(t, per_step_size)
    else:
        counts = _equal_counts(t, per_step_size)
    counts = {j: min(c, actual_sizes[j]) for j, c in counts.items()}
    return ReplayPlan(t, counts, current)


def sample_buffer(plan: ReplayPlan, datasets: list[TimestepDataset], rng: Rng) -> RecordBatch:
    """Uniform without-replacement sample of old-step training data."""
    by_step = {d.timestep: d for d in datasets}
    parts = []
    for j in sorted(plan.per_source_counts):
        count = plan.per_source_counts[j]
        if count == 0:
            continue
        train = by_step[j].train
        if count > len(train):
            raise RunError(f"step {j}: plan wants {count} of {len(train)} records")
        idx = rng.split("sample", j).choice(len(train), count)
        parts.append(train.take(idx))
    if not parts:
        ref = by_step[plan.current_step].train
        return RecordBatch.empty(ref.images.shape[1], ref.texts.shape[1])
    return RecordBatch.concat(parts)


def assemble_training_set(old: RecordBatch, new: RecordBatch, rng: Rng) -> RecordBatch:
    """Concatenate and shuffle; epoch reshuffles use derived streams."""
    merged = RecordBatch.concat([old, new]) if len(old) else new
    perm = rng.split("shuffle").permutation(len(merged))
    return merged.take(perm)

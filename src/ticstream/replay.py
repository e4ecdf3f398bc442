"""Replay-buffer planning and training-set assembly.

A method's training data is decided here alone. Four buffer policies: keep
everything, halve each old step's share every step (total old data D), split
a size-D buffer equally across old steps, or replay nothing (`new_only`).
The first three take at most D current records, `new_only` takes every one.
A plan is made over stream positions, so merged early steps count as one;
sampling names its sources by timestep, is uniform without replacement and
fully seeded, and returns the drawn indices, not rows: assembly gathers
each row once, straight into its shuffled place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .datagen import RecordBatch, TimestepDataset
from .errors import RunError
from .numerics import Rng

POLICIES = ("all", "exp", "equal", "new_only")


@dataclass(frozen=True)
class BufferPolicy:
    kind: str  # "all" | "exp" | "equal" | "new_only"

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


def plan_replay(policy: BufferPolicy, per_step_size: int, sizes: list[int]) -> ReplayPlan:
    """Per-source sample counts for the step at position len(sizes) under the given buffer
    policy, where sizes[p - 1] is the training-set size at position p; sources and the
    current step are named by position."""
    t = len(sizes)
    if policy.kind == "new_only":
        return ReplayPlan(t, {}, sizes[-1])
    current = min(per_step_size, sizes[-1])
    if t == 1:
        return ReplayPlan(1, {}, current)
    if policy.kind == "all":
        counts = dict(enumerate(sizes[:-1], 1))
    elif policy.kind == "exp":
        counts = _exp_counts(t, per_step_size)
    else:
        counts = _equal_counts(t, per_step_size)
    counts = {j: min(c, sizes[j - 1]) for j, c in counts.items()}
    return ReplayPlan(t, counts, current)


def sample_buffer(plan: ReplayPlan, datasets: list[TimestepDataset], rng: Rng) -> list[tuple[RecordBatch, np.ndarray]]:
    """Uniform without-replacement samples of old-step training data, one `(train split, drawn
    indices)` per source step; `assemble_training_set` gathers the rows."""
    by_step = {d.timestep: d for d in datasets}
    sources = []
    for j in sorted(plan.per_source_counts):
        count = plan.per_source_counts[j]
        if count == 0:
            continue
        train = by_step[j].train
        if count > len(train):
            raise RunError(f"step {j}: plan wants {count} of {len(train)} records")
        sources.append((train, rng.split("sample", j).choice(len(train), count)))
    return sources


def assemble_training_set(sources: list[tuple[RecordBatch, np.ndarray]], rng: Rng) -> RecordBatch:
    """The drawn rows of every `(batch, indices)` source, concatenated in order and shuffled by
    `rng.split("shuffle")`; epoch reshuffles use derived streams. Each column is gathered once,
    each row straight into its shuffled place, so besides the output only its index arrays and
    one source's column at a time are held."""
    n = sum(len(idx) for _, idx in sources)
    # a row's place in the concatenation -> its place in the shuffled set
    place = np.argsort(rng.split("shuffle").permutation(n))
    columns = [f.name for f in fields(RecordBatch)]
    first = sources[0][0]
    out = RecordBatch(*(np.empty((n, *getattr(first, c).shape[1:]), getattr(first, c).dtype) for c in columns))
    start = 0
    for batch, idx in sources:
        rows = place[start : start + len(idx)]
        for c in columns:
            getattr(out, c)[rows] = getattr(batch, c)[idx]
        start += len(idx)
    return out

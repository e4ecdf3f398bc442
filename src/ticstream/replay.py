"""Replay-buffer planning and training-set assembly.

A method's training data is decided here alone: a step's whole training set
is one `plan_replay`, `sample_buffer` and `assemble_training_set` call each.
Four buffer policies: keep everything, halve each old step's share every step
(total old data D), split a size-D buffer equally across old steps, or replay
nothing (`new_only`). The first three take at most D current records,
`new_only` takes every one. A plan is made over stream positions, so merged
early steps count as one, and names its steps by timestep; sampling is uniform
without replacement and fully seeded, and returns the drawn indices, not rows:
assembly gathers each row once, straight into its shuffled place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .datagen import RecordBatch, TimestepDataset
from .errors import RunError
from .numerics import Rng

POLICIES = ("all", "exp", "equal", "new_only")  # a buffer policy is its name


@dataclass
class ReplayPlan:
    current_step: int
    per_source_counts: dict[int, int]  # source step -> sample count
    current_count: int

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


def plan_replay(policy: str, per_step_size: int, seen: list[TimestepDataset]) -> ReplayPlan:
    """Per-source sample counts under buffer policy `policy`, one of `POLICIES`, for the step that
    ends `seen`, the stream up to and including it. The formulas read position p's training-set size
    off `seen[p - 1]`; the plan names the sources and the current step by timestep."""
    if policy not in POLICIES:
        raise RunError(f"unknown buffer policy {policy!r}")
    sizes = [len(d.train) for d in seen]
    t = len(sizes)
    if policy == "new_only" or t == 1:
        counts = {}
    elif policy == "all":
        counts = dict(enumerate(sizes[:-1], 1))
    elif policy == "exp":
        counts = _exp_counts(t, per_step_size)
    else:
        counts = _equal_counts(t, per_step_size)
    current = sizes[-1] if policy == "new_only" else min(per_step_size, sizes[-1])
    return ReplayPlan(seen[-1].timestep, {seen[q - 1].timestep: min(c, sizes[q - 1]) for q, c in counts.items()},
                      current)


def sample_buffer(plan: ReplayPlan, seen: list[TimestepDataset], rng: Rng) -> list[tuple[RecordBatch, np.ndarray]]:
    """Uniform without-replacement draws for the step that ends `seen`, one `(train split, drawn
    indices)` per source in stream order: each old step with a count, under `rng.split("sample", j)`,
    then the current step, under `rng.split("current")`; `assemble_training_set` gathers the rows.
    A plan naming a step outside `seen`, or more records than a step holds, is a RunError."""
    *old, current = seen
    if plan.current_step != current.timestep or not plan.per_source_counts.keys() <= {d.timestep for d in old}:
        raise RunError(f"the plan for step {plan.current_step} names a step outside steps {[d.timestep for d in seen]}")
    draws = [(d, plan.per_source_counts[d.timestep], rng.split("sample", d.timestep))
             for d in old if plan.per_source_counts.get(d.timestep)]
    sources = []
    for d, count, key in [*draws, (current, plan.current_count, rng.split("current"))]:
        if count > len(d.train):
            raise RunError(f"step {d.timestep}: plan wants {count} of {len(d.train)} records")
        sources.append((d.train, key.choice(len(d.train), count)))
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

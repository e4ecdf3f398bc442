"""Dynamic retrieval/classification metrics and the step-by-step matrix.

E[i][j] is the score of the model trained through step i on the eval data
of step j. The diagonal mean is in-domain performance, the strict lower
triangle backward transfer, the strict upper triangle forward transfer.

Both metrics are top-1 scores. `_top1` finds each query's most similar
gallery row one block of query rows at a time, in one reused buffer of
about `_BLOCK_BYTES`, so an N×N similarity matrix is never built: recall@1
runs it once per direction, zero-shot accuracy once against the prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import RecordBatch, TimestepDataset
from .errors import RunError
from .model import TwoTowerParams, encode
from .schedule import BudgetLedger, eval_macs

TASKS = ("retrieval", "classification")


# Similarities held at once by `_top1`: a 1 MiB block stays inside the
# 4 MiB L2 of the machine the figures in ROADMAP.md were measured on.
_BLOCK_BYTES = 1 << 20


def _top1(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Index of each query's most similar gallery row; ties break to the
    lowest index. Equal to `np.argmax(queries @ gallery.T, axis=1)`."""
    n = len(queries)
    rows = max(1, _BLOCK_BYTES // (8 * max(1, len(gallery))))
    sims = np.empty((min(rows, n), len(gallery)))
    top = np.empty(n, dtype=np.intp)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = sims[: stop - start]
        np.matmul(queries[start:stop], gallery.T, out=block)
        block.argmax(axis=1, out=top[start:stop])
    return top


def recall_at_1(query_embs: np.ndarray, gallery_embs: np.ndarray, true_match: np.ndarray) -> float:
    """Fraction of queries whose top-1 gallery row is the true match.

    Ties break to the lowest gallery index.
    """
    if len(query_embs) == 0:
        raise RunError("empty query set")
    return float(np.mean(_top1(query_embs, gallery_embs) == np.asarray(true_match)))


def retrieval_score(params: TwoTowerParams, batch: RecordBatch) -> float:
    """Mean of image-to-text and text-to-image recall@1 over paired records."""
    u = encode(params, batch.images, "image")
    v = encode(params, batch.texts, "text")
    truth = np.arange(len(batch))
    return 0.5 * (recall_at_1(u, v, truth) + recall_at_1(v, u, truth))


def zero_shot_accuracy(
    params: TwoTowerParams,
    batch: RecordBatch,
    prototype_ids: np.ndarray,
    prototypes: np.ndarray,
) -> float:
    """Classify images against text-side class prototypes by cosine."""
    if len(batch) == 0:
        raise RunError("empty query set")
    prototype_ids = np.asarray(prototype_ids)
    known = np.isin(batch.class_ids, prototype_ids)
    if not known.all():
        missing = np.unique(batch.class_ids[~known]).tolist()
        raise RunError(f"no prototype for classes {missing}")
    u = encode(params, batch.images, "image")
    p = encode(params, prototypes, "text")
    pred = prototype_ids[_top1(u, p)]
    return float(np.mean(pred == batch.class_ids))


@dataclass
class PerformanceMatrix:
    num_steps: int
    entries: np.ndarray  # (T, T); entries[i][j] = model after step i+1 on step-(j+1) data
    task: str  # "retrieval" | "classification"
    metric: str  # "recall_at_1" | "accuracy"

    def to_json(self) -> dict:
        summary = summarize(self)
        return {
            "T": self.num_steps,
            "task": self.task,
            "metric": self.metric,
            "entries": [float(x) for x in self.entries.reshape(-1)],
            "in_domain": summary.in_domain,
            "backward": summary.backward_transfer,
            "forward": summary.forward_transfer,
        }


@dataclass
class EvalSummary:
    in_domain: float
    backward_transfer: float | None
    forward_transfer: float | None


def build_performance_matrix(
    params_per_step: list[TwoTowerParams],
    eval_sets: list[TimestepDataset],
    task: str,
    ledger: BudgetLedger | None = None,
) -> PerformanceMatrix:
    if task not in TASKS:
        raise RunError(f"unknown task {task!r}")
    if len(params_per_step) != len(eval_sets):
        raise RunError(f"{len(params_per_step)} checkpoints vs {len(eval_sets)} eval sets")
    t = len(eval_sets)
    entries = np.zeros((t, t))
    for i, params in enumerate(params_per_step):
        for j, ds in enumerate(eval_sets):
            if task == "retrieval":
                entries[i, j] = retrieval_score(params, ds.eval_retrieval)
                n = 2 * len(ds.eval_retrieval)
            else:
                entries[i, j] = zero_shot_accuracy(
                    params, ds.eval_classification, ds.prototype_ids, ds.prototypes
                )
                n = len(ds.eval_classification) + len(ds.prototype_ids)
            if ledger is not None:
                ledger.charge_eval(i + 1, eval_macs(params, n))
    metric = "recall_at_1" if task == "retrieval" else "accuracy"
    return PerformanceMatrix(t, entries, task, metric)


def summarize(matrix: PerformanceMatrix) -> EvalSummary:
    e = matrix.entries
    t = matrix.num_steps
    in_domain = float(np.mean(np.diag(e)))
    if t == 1:
        return EvalSummary(in_domain, None, None)
    lower = np.tril_indices(t, k=-1)
    upper = np.triu_indices(t, k=1)
    return EvalSummary(in_domain, float(np.mean(e[lower])), float(np.mean(e[upper])))

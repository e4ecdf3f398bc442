"""Dynamic retrieval/classification metrics and the step-by-step matrices.

E[i][j] is the score of the model trained through step i on the eval data
of step j. The diagonal mean is in-domain performance, the strict lower
triangle backward transfer, the strict upper triangle forward transfer.
`build_performance_matrix` returns both matrices as metrics.json holds them.

Both metrics are top-1 scores, computed one block of query rows at a time
in one reused buffer of about `_BLOCK_BYTES` (`_sim_blocks`), so an N×N
similarity matrix is never built. Zero-shot accuracy takes each image's
row argmax against the prototypes (`_top1`). Retrieval scores both
directions from one pass over u·vᵀ (`_paired_hits`): image→text hits from
the row argmax, text→image hits from the columns, by comparing each
diagonal entry with its column's largest off-diagonal entry.
"""

from __future__ import annotations

import numpy as np

from .datagen import RecordBatch, TimestepDataset
from .errors import RunError
from .model import TwoTowerParams, encode
from .schedule import BudgetLedger, eval_macs

# Similarities held at once by `_sim_blocks`: a 1 MiB block stays inside
# the 4 MiB L2 of the machine the figures in ROADMAP.md were measured on.
_BLOCK_BYTES = 1 << 20


def _sim_blocks(queries: np.ndarray, gallery: np.ndarray):
    """Yields `(start, block)` with `block = queries[start:start+len(block)] @
    gallery.T`, in order, every block in the same reused buffer. The same
    inputs always give the same blocks, bit for bit."""
    n = len(queries)
    rows = max(1, _BLOCK_BYTES // (8 * max(1, len(gallery))))
    sims = np.empty((min(rows, n), len(gallery)))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = sims[: stop - start]
        np.matmul(queries[start:stop], gallery.T, out=block)
        yield start, block


def _top1(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Index of each query's most similar gallery row; ties break to the
    lowest index. Equal to `np.argmax(queries @ gallery.T, axis=1)`."""
    top = np.empty(len(queries), dtype=np.intp)
    for start, block in _sim_blocks(queries, gallery):
        block.argmax(axis=1, out=top[start : start + len(block)])
    return top


def _paired_hits(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-1 hits of the paired rows u[i] <-> v[i], both directions, from one
    pass over u @ v.T: `(argmax(u @ v.T, axis=1) == i, argmax(u @ v.T,
    axis=0) == i)`, ties breaking to the lowest index as `np.argmax` does."""
    n = len(u)
    if n == 0:
        raise RunError("empty query set")
    image_hits = np.empty(n, dtype=bool)
    diag = np.empty(n)
    off_diag_max = np.full(n, -np.inf)
    col_max = np.empty(n)
    for start, block in _sim_blocks(u, v):
        stop = start + len(block)
        image_hits[start:stop] = block.argmax(axis=1) == np.arange(start, stop)
        # block is a C-contiguous slice, so this is a view of its entries
        # (i, start + i), the similarities of the pairs start..stop-1
        on_diag = block.reshape(-1)[start :: n + 1]
        diag[start:stop] = on_diag
        on_diag[...] = -np.inf
        np.maximum(off_diag_max, block.max(axis=0, out=col_max), out=off_diag_max)
    text_hits = off_diag_max < diag
    tied = np.flatnonzero(off_diag_max == diag)
    if tied.size:
        text_hits[tied] = _diagonal_wins_tie(u, v, tied, diag[tied])
    return image_hits, text_hits


def _diagonal_wins_tie(u: np.ndarray, v: np.ndarray, cols: np.ndarray, best: np.ndarray) -> np.ndarray:
    """For columns j whose largest off-diagonal entry equals the diagonal
    one, `best`: whether no row above j reaches it, so that the lowest-index
    argmax of the column is row j. Redoes the blocks bit for bit."""
    reached_above = np.zeros(len(cols), dtype=bool)
    for start, block in _sim_blocks(u, v):
        rows = np.arange(start, start + len(block))[:, None]
        reached_above |= ((block[:, cols] >= best) & (rows < cols)).any(axis=0)
    return ~reached_above


def retrieval_score(params: TwoTowerParams, batch: RecordBatch) -> float:
    """Mean of image-to-text and text-to-image recall@1 over paired records."""
    u = encode(params, batch.images, "image")
    v = encode(params, batch.texts, "text")
    image_hits, text_hits = _paired_hits(u, v)
    return 0.5 * (float(np.mean(image_hits)) + float(np.mean(text_hits)))


def _check_classes(batch: RecordBatch, prototype_ids: np.ndarray) -> None:
    """A RunError unless `batch` holds records and a prototype for each of their classes."""
    if len(batch) == 0:
        raise RunError("empty query set")
    known = np.isin(batch.class_ids, prototype_ids)
    if not known.all():
        missing = np.unique(batch.class_ids[~known]).tolist()
        raise RunError(f"no prototype for classes {missing}")


def _accuracy(params: TwoTowerParams, batch: RecordBatch, prototype_ids: np.ndarray, prototypes: np.ndarray) -> float:
    """`zero_shot_accuracy` of a batch `_check_classes` passed."""
    u = encode(params, batch.images, "image")
    p = encode(params, prototypes, "text")
    pred = prototype_ids[_top1(u, p)]
    return float(np.mean(pred == batch.class_ids))


def zero_shot_accuracy(
    params: TwoTowerParams,
    batch: RecordBatch,
    prototype_ids: np.ndarray,
    prototypes: np.ndarray,
) -> float:
    """Classify images against text-side class prototypes by cosine."""
    prototype_ids = np.asarray(prototype_ids)
    _check_classes(batch, prototype_ids)
    return _accuracy(params, batch, prototype_ids, prototypes)


def build_performance_matrix(
    params_per_step: list[TwoTowerParams],
    eval_sets: list[TimestepDataset],
    ledger: BudgetLedger,
) -> dict:
    """metrics.json's `retrieval` and `classification` objects: each task's T×T
    matrix as row-major `entries`, with its `summarize` means. Every retrieval
    cell is scored before any classification cell (scoring both per cell ran
    slower), each eval set's classes are checked once, before any cell, and
    each cell's forward passes are billed to the eval MACs of its
    checkpoint's timestep."""
    if len(params_per_step) != len(eval_sets):
        raise RunError(f"{len(params_per_step)} checkpoints vs {len(eval_sets)} eval sets")
    t = len(eval_sets)
    cells = [(params, own.timestep, ds) for params, own in zip(params_per_step, eval_sets) for ds in eval_sets]
    for ds in eval_sets:
        _check_classes(ds.eval_classification, ds.prototype_ids)
    retrieval, classification = [], []
    for params, timestep, ds in cells:
        retrieval.append(retrieval_score(params, ds.eval_retrieval))
        ledger.charge_eval(timestep, eval_macs(params.layout, 2 * len(ds.eval_retrieval)))
    for params, timestep, ds in cells:
        classification.append(_accuracy(params, ds.eval_classification, ds.prototype_ids, ds.prototypes))
        ledger.charge_eval(timestep, eval_macs(params.layout, len(ds.eval_classification) + len(ds.prototype_ids)))
    return {task: {"T": t, "task": task, "metric": metric, "entries": entries, **summarize(np.reshape(entries, (t, t)))}
            for task, metric, entries in (("retrieval", "recall_at_1", retrieval),
                                          ("classification", "accuracy", classification))}


def summarize(entries) -> dict:
    """The in-domain (diagonal), backward (strict lower triangle) and forward
    (strict upper triangle) means of a T×T matrix; with T = 1 there is no
    transfer, and both are None."""
    e = np.asarray(entries)
    t = len(e)
    return {
        "in_domain": float(np.mean(np.diag(e))),
        "backward": float(np.mean(e[np.tril_indices(t, k=-1)])) if t > 1 else None,
        "forward": float(np.mean(e[np.triu_indices(t, k=1)])) if t > 1 else None,
    }

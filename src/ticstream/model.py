"""Two-tower MLP encoders with a symmetric contrastive objective.

Towers are affine->tanh stacks with a final affine layer, outputs row
L2-normalized. Gradients are hand-derived; `finite_diff_grad` is the
independent oracle in the test suite. The similarity-distillation penalty
(KL of teacher similarity rows against student rows, both retrieval
directions) backs the warm-start regularization method.

One kernel, `_contrastive_step`, computes the contrastive loss, the penalty
and their summed gradients with one student forward and one backward, and
writes the gradients into a vector its caller owns, in the one mode training
runs; the public loss functions wrap it for the gradient oracles and return
fresh gradients. `train_minibatch` updates
parameters, an `AdamState` and a gradient vector that its caller owns, in
place, so a training loop that copies its starting parameters once
allocates no parameter-sized vector per iteration. The kernel's B x B work
matrices are a list that its caller keeps between calls (a training loop
keeps one for its whole loop), so the kernel shares no state between calls
and is re-entrant. The penalty takes the teacher's embeddings precomputed
(`teacher_targets`); a training step embeds its whole training set once,
which is valid only because the teacher is frozen while the student trains.
A checkpoint is its parameters, the step that trained them and the method's
id: every step restarts Adam, so no optimizer state outlives a step. The
`.ticc` layout is defined beside `save_checkpoint` and read and written
through `formats`.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, NumericError, RunError
from .formats import Cursor, atomic_write
from .numerics import AdamState, Rng, adam_step, l2_normalize_rows, row_norms

INIT_INV_TEMPERATURE = 1.0 / 0.07
MAX_INV_TEMPERATURE = 100.0
CHECKPOINT_MAGIC = b"TICC"
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class ModelDims:
    image_dim: int
    text_dim: int
    hidden_dim: int
    embed_dim: int

    @property
    def layout(self) -> Layout:
        """The image tower's layer shapes, then the text tower's: what a model is built from and billed by."""
        return tuple(((d, self.hidden_dim), (self.hidden_dim, self.embed_dim))
                     for d in (self.image_dim, self.text_dim))


# per tower, the (fan_in, fan_out) shape of each layer's weight matrix
Layout = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


def _layout_size(layout: Layout) -> int:
    return sum((fan_in + 1) * fan_out for shapes in layout for fan_in, fan_out in shapes) + 1


class TwoTowerParams:
    """Weights for both towers plus the learnable log inverse temperature.

    All of them are views into one contiguous float64 `vector`: each image
    layer's W then b, each text layer's W then b, and log_scale last.
    Gradients and Adam moments use the same layout.
    """

    def __init__(self, vector: np.ndarray, layout: Layout):
        """Named views into `vector` itself (no copy)."""
        if vector.shape != (_layout_size(layout),):
            raise RunError(f"vector shape {vector.shape} does not match the layout {layout}")
        self.vector, self.layout = vector, layout
        towers, pos = [], 0
        for shapes in layout:
            layers = []
            for fan_in, fan_out in shapes:
                w = vector[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
                pos += fan_in * fan_out
                layers.append((w, vector[pos : pos + fan_out]))
                pos += fan_out
            towers.append(layers)
        self.image_layers, self.text_layers = towers

    @property
    def log_scale(self) -> float:
        return float(self.vector[-1])

    @log_scale.setter
    def log_scale(self, value: float) -> None:
        self.vector[-1] = value

    def copy(self) -> "TwoTowerParams":
        return TwoTowerParams(self.vector.copy(), self.layout)


@dataclass
class Checkpoint:
    """What a `.ticc` file holds."""

    params: TwoTowerParams
    trained_through_step: int
    method_id: str


def init_params(dims: ModelDims, rng: Rng) -> TwoTowerParams:
    """Xavier-uniform weights, zero biases, inverse temperature 1/0.07."""
    params = TwoTowerParams(np.zeros(_layout_size(dims.layout)), dims.layout)
    for layers, sub in ((params.image_layers, rng.split("image")), (params.text_layers, rng.split("text"))):
        for w, _ in layers:
            fan_in, fan_out = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = (2.0 * sub.uniform(fan_in * fan_out).reshape(fan_in, fan_out) - 1.0) * limit
    params.log_scale = float(np.log(INIT_INV_TEMPERATURE))
    return params


def _tower_forward(layers, x):
    """Returns (raw output, caches) where caches hold per-layer inputs/activations."""
    caches = []
    h = x
    for i, (w, b) in enumerate(layers):
        z = h @ w
        z += b
        last = i == len(layers) - 1
        if not last:
            np.tanh(z, out=z)
        caches.append((h, None if last else z))
        h = z
    return h, caches


def _tower_backward(layers, caches, d_out, grads):
    """Writes one tower's gradients, given d(loss)/d(raw output), into the
    (W, b) views `grads`."""
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        inp, act = caches[i]
        if act is not None:  # tanh layer: d arrived at activation output
            d = d * (1.0 - act * act)
        np.matmul(inp.T, d, out=grads[i][0])
        d.sum(axis=0, out=grads[i][1])
        if i:
            d = d @ layers[i][0].T


def _normalize_backward(d_unit, unit, norms):
    # d(raw) for u = raw/|raw|
    return (d_unit - (d_unit * unit).sum(axis=1, keepdims=True) * unit) / norms


def encode(params: TwoTowerParams, inputs: np.ndarray, tower: str) -> np.ndarray:
    """Row-normalized embeddings from one tower, "image" or "text"."""
    if tower not in ("image", "text"):
        raise RunError(f"encode: no tower {tower!r}, only 'image' and 'text'")
    layers = params.image_layers if tower == "image" else params.text_layers
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != layers[0][0].shape[0]:
        raise RunError(f"encode: input shape {inputs.shape} incompatible with tower {tower}")
    raw, _ = _tower_forward(layers, inputs)
    return l2_normalize_rows(raw)


def _encode_with_caches(params, images, texts):
    """Both towers' unit embeddings as one (2B, E) array, image rows first,
    their norms, and each tower's forward caches. Normalization acts on each
    row alone, so one call over both towers computes what two would."""
    raw_u, cache_u = _tower_forward(params.image_layers, images)
    raw_v, cache_v = _tower_forward(params.text_layers, texts)
    raw = np.concatenate((raw_u, raw_v))
    norms = row_norms(raw)
    return raw / norms, norms, cache_u, cache_v


@dataclass(frozen=True)
class TeacherTargets:
    """What the student is distilled toward: the frozen teacher's embeddings
    of a set of pairs, its log inverse temperature, and the penalty weight."""

    images: np.ndarray  # (N, E) unit rows
    texts: np.ndarray  # (N, E) unit rows
    log_scale: float
    lam: float

    def take(self, idx: np.ndarray) -> "TeacherTargets":
        return TeacherTargets(self.images[idx], self.texts[idx], self.log_scale, self.lam)


def teacher_targets(teacher: TwoTowerParams, images: np.ndarray, texts: np.ndarray, lam: float) -> TeacherTargets:
    """Embed pairs with the teacher, for `train_minibatch`'s `lwf` argument."""
    if lam < 0:
        raise ConfigError("lambda must be >= 0")
    return TeacherTargets(encode(teacher, images, "image"), encode(teacher, texts, "text"), teacher.log_scale, lam)


def _contrastive_step(params: TwoTowerParams, images, texts, grads: TwoTowerParams,
                      teacher: TeacherTargets | None, work: list[np.ndarray]):
    """Contrastive loss, distillation penalty and their summed student gradients.

    One student forward and one backward. Writes the gradients into `grads`,
    in the layout of `params`, and returns (loss, penalty). `work` holds the
    B x B float64 scratch matrices, reused while B holds.
    """
    images = np.asarray(images, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    n = images.shape[0]
    if n == 0:
        raise RunError("empty batch")
    if texts.shape[0] != n:
        raise RunError("image/text batch sizes differ")
    if teacher is not None and (teacher.images.shape[0] != n or teacher.texts.shape[0] != n):
        raise RunError("teacher targets do not match the batch")
    unit, norms, cache_u, cache_v = _encode_with_caches(params, images, texts)
    u, v = unit[:n], unit[n:]
    scale = float(np.exp(params.log_scale))
    if work and work[0].shape[0] != n:
        work.clear()
    while len(work) < (3 if teacher is None else 4):
        work.append(np.empty((n, n)))
    sims, e, grad, *rest = work
    np.matmul(u, v.T, out=sims)
    # one exponential serves both softmax directions; logits are bounded by
    # the clamped scale so a global max shift cannot overflow
    np.multiply(sims, scale, out=e)
    e -= e.max()
    np.exp(e, out=grad)
    rows, cols = grad.sum(axis=1), grad.sum(axis=0)
    g_diag = np.diagonal(grad)
    # .sum() / n is np.mean's own arithmetic, without its Python overhead
    loss = 0.5 * (-np.log(g_diag / rows).sum() / n - np.log(g_diag / cols).sum() / n)

    lam, penalty = 0.0, 0.0
    if teacher is not None:
        # KL(teacher || student) of the row softmaxes, with log-softmax taken
        # from shifted logits (log p = logit - log row sum) and teacher rows
        # summing to 1: (1/n) [sum_i sum_j t_ij k_ij / t_rows_i
        # + sum_i log(rows_i / t_rows_i)], t = exp(teacher shifted logits),
        # k = teacher minus student shifted logits. Columns likewise.
        (t,) = rest
        lam = teacher.lam
        np.matmul(teacher.images, teacher.texts.T, out=t)
        t *= float(np.exp(teacher.log_scale))
        t -= t.max()
        np.subtract(t, e, out=e)  # k
        np.exp(t, out=t)
        t_rows, t_cols = t.sum(axis=1), t.sum(axis=0)
        e *= t
        kl = ((e.sum(axis=1) / t_rows).sum() + (e.sum(axis=0) / t_cols).sum()
              + np.log(rows).sum() - np.log(t_rows).sum() + np.log(cols).sum() - np.log(t_cols).sum()) / n
        penalty = lam * 0.5 * float(kl)

    np.divide(grad, rows[:, None], out=e)
    grad /= cols
    grad += e  # row softmax + column softmax
    # d(loss)/d(logits): (1 + lam) * 0.5/n * student softmaxes
    # - lam * 0.5/n * teacher softmaxes - I/n
    grad *= (1.0 + lam) * 0.5 / n
    if teacher is not None:
        np.multiply(t, (1.0 / t_rows)[:, None], out=e)
        t *= 1.0 / t_cols
        e += t  # teacher row softmax + column softmax
        e *= lam * 0.5 / n
        grad -= e
    grad.reshape(-1)[:: n + 1] -= 1.0 / n

    d_unit = np.concatenate((grad @ v, grad.T @ u))
    d_unit *= scale
    d_raw = _normalize_backward(d_unit, unit, norms)
    np.multiply(grad, sims, out=sims)
    _tower_backward(params.image_layers, cache_u, d_raw[:n], grads.image_layers)
    _tower_backward(params.text_layers, cache_v, d_raw[n:], grads.text_layers)
    grads.log_scale = scale * float(sims.sum())
    return float(loss), penalty


def _fresh_grads(params: TwoTowerParams) -> TwoTowerParams:
    return TwoTowerParams(np.empty_like(params.vector), params.layout)


def clip_loss_and_grads(params: TwoTowerParams, images: np.ndarray, texts: np.ndarray):
    """Symmetric contrastive loss with diagonal targets and its gradients."""
    grads = _fresh_grads(params)
    loss, _ = _contrastive_step(params, images, texts, grads, None, [])
    return loss, grads


def lwf_penalty_and_grads(
    teacher: TwoTowerParams,
    student: TwoTowerParams,
    images: np.ndarray,
    texts: np.ndarray,
    lam: float,
):
    """KL(teacher rows || student rows) of the similarity matrix, both directions.

    Gradients flow to the student only: grad(loss + penalty) - grad(loss), both as training runs the kernel.
    """
    targets = teacher_targets(teacher, images, texts, lam)
    grads, plain = _fresh_grads(student), _fresh_grads(student)
    _, penalty = _contrastive_step(student, images, texts, grads, targets, [])
    _contrastive_step(student, images, texts, plain, None, [])
    grads.vector -= plain.vector
    return penalty, grads


_MAX_LOG_SCALE = float(np.log(MAX_INV_TEMPERATURE))


def clamp_log_scale(params: TwoTowerParams) -> TwoTowerParams:
    params.log_scale = min(params.log_scale, _MAX_LOG_SCALE)
    return params


def train_minibatch(
    params: TwoTowerParams,
    images: np.ndarray,
    texts: np.ndarray,
    lr: float,
    lwf: TeacherTargets | None,
    work: list[np.ndarray],
    *,
    adam: AdamState,
    grads: TwoTowerParams,
) -> dict:
    """One forward/backward/Adam step on `params`, in place; returns a loss record.

    The caller owns `params`, `adam` and `grads`, the vector the step's
    gradients are written into: all three are updated where they are, so no
    other object may share them. `lwf` holds the teacher's targets for
    exactly these pairs, and `work` the kernel's B x B scratch matrices.
    """
    try:
        loss, penalty = _contrastive_step(params, images, texts, grads, lwf, work)
        if not (math.isfinite(loss) and math.isfinite(penalty) and np.isfinite(grads.vector).all()):
            raise NumericError("non-finite loss, penalty or gradient")
    except NumericError as exc:  # name the iteration that produced it
        raise NumericError(f"{exc} at iteration {adam.step_count}") from None
    adam_step(params.vector, grads.vector, adam, lr)
    clamp_log_scale(params)
    return {"loss": loss, "penalty": penalty}


# ---------------------------------------------------------------------------
# Checkpoint file format, little-endian: magic "TICC", version u32, method id
# (u32 length + UTF-8), trained_through_step u32; per tower (image, text) a
# layer count u32 and each layer's fan_in, fan_out u32; the vector length
# u64 and the parameter vector, that many f64s; then the 32-byte SHA-256 of
# every byte before it. Nothing follows.
# ---------------------------------------------------------------------------


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    mid = ckpt.method_id.encode("utf-8")
    params = ckpt.params
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(mid)), mid,
              struct.pack("<I", ckpt.trained_through_step)]
    for shapes in params.layout:
        chunks.append(struct.pack(f"<{1 + 2 * len(shapes)}I", len(shapes), *(d for s in shapes for d in s)))
    chunks += [struct.pack("<Q", params.vector.size), params.vector.astype("<f8", copy=False)]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    atomic_write(path, *chunks, digest.digest())


def _read_shapes(cur: Cursor) -> tuple[tuple[int, int], ...]:
    (count,) = cur.unpack("<I")
    return tuple(map(tuple, cur.array("<u4", 2 * count).reshape(count, 2).tolist()))


def load_checkpoint(path) -> Checkpoint:
    cur = Cursor(path)
    if cur.take(4) != CHECKPOINT_MAGIC:
        raise FormatError("bad magic", 0, path)
    (version,) = cur.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", 4, path)
    id_offset = cur.pos + 4
    try:
        method_id = bytes(cur.take(*cur.unpack("<I"))).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError("method id is not UTF-8", id_offset, path) from e
    (trained_through,) = cur.unpack("<I")
    layout = (_read_shapes(cur), _read_shapes(cur))  # image, then text
    (n,) = cur.unpack("<Q")
    if n != _layout_size(layout):
        raise FormatError(f"vector length {n} does not match the layer shapes", cur.pos - 8, path)
    vector = cur.array("<f8", n).astype(np.float64)
    body_end = cur.pos
    if cur.take(32) != hashlib.sha256(cur.buf[:body_end]).digest():
        raise FormatError("SHA-256 trailer does not match the content", body_end, path)
    cur.end()
    return Checkpoint(TwoTowerParams(vector, layout), trained_through, method_id)

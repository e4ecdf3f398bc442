"""Two-tower MLP encoders with a symmetric contrastive objective.

Towers are affine->tanh stacks with a final affine layer, outputs row
L2-normalized. Gradients are hand-derived; `finite_diff_grad` is the
independent oracle in the test suite. The similarity-distillation penalty
(KL of teacher similarity rows against student rows, both retrieval
directions) backs the warm-start regularization method.

One kernel, `_contrastive_step`, computes the contrastive loss, the penalty
and their summed gradients with one student forward and one backward; the
public loss functions are thin wrappers over it. Its B x B work matrices are
module-level, reused across calls, reallocated when B changes and freed by
`release_work_buffers` when a training loop ends. The kernel is therefore not
re-entrant: one training loop per process (the experiment pool runs its jobs
in separate processes). The penalty takes the teacher's embeddings
precomputed (`teacher_targets`); a training segment embeds its whole training
set once, which is valid only because the teacher is frozen while the student
trains.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .numerics import AdamState, NumericError, Rng, ShapeError, adam_step, l2_normalize_rows

INIT_INV_TEMPERATURE = 1.0 / 0.07
MAX_INV_TEMPERATURE = 100.0
CHECKPOINT_MAGIC = b"TICC"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelDims:
    image_dim: int
    text_dim: int
    hidden_dim: int
    embed_dim: int


@dataclass
class TwoTowerParams:
    """Weights for both towers plus the learnable log inverse temperature."""

    image_layers: list[tuple[np.ndarray, np.ndarray]]
    text_layers: list[tuple[np.ndarray, np.ndarray]]
    log_scale: float

    def to_flat(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for tower, layers in (("image", self.image_layers), ("text", self.text_layers)):
            for i, (w, b) in enumerate(layers):
                out[f"{tower}.{i}.W"] = w
                out[f"{tower}.{i}.b"] = b
        out["log_scale"] = np.asarray(self.log_scale, dtype=np.float64)
        return out

    @classmethod
    def from_flat(cls, flat: dict[str, np.ndarray]) -> "TwoTowerParams":
        layers = {"image": {}, "text": {}}
        for key, arr in flat.items():
            if key == "log_scale":
                continue
            tower, idx, part = key.split(".")
            layers[tower].setdefault(int(idx), {})[part] = arr
        def build(tower):
            d = layers[tower]
            return [(d[i]["W"], d[i]["b"]) for i in sorted(d)]
        return cls(build("image"), build("text"), float(np.asarray(flat["log_scale"]).reshape(())))

    def copy(self) -> "TwoTowerParams":
        return TwoTowerParams.from_flat({k: v.copy() for k, v in self.to_flat().items()})

    @property
    def embed_dim(self) -> int:
        return self.image_layers[-1][0].shape[1]


@dataclass
class Checkpoint:
    params: TwoTowerParams
    adam: AdamState
    global_step: int
    trained_through_step: int
    method_id: str


def init_params(dims: ModelDims, rng: Rng) -> TwoTowerParams:
    """Xavier-uniform weights, zero biases, inverse temperature 1/0.07."""
    def tower(chain, sub):
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(chain[:-1], chain[1:])):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            u = sub.uniform(fan_in * fan_out).reshape(fan_in, fan_out)
            w = (2.0 * u - 1.0) * limit
            layers.append((w, np.zeros(fan_out)))
        return layers

    image = tower([dims.image_dim, dims.hidden_dim, dims.embed_dim], rng.split("image"))
    text = tower([dims.text_dim, dims.hidden_dim, dims.embed_dim], rng.split("text"))
    return TwoTowerParams(image, text, float(np.log(INIT_INV_TEMPERATURE)))


def _tower_forward(layers, x):
    """Returns (raw output, caches) where caches hold per-layer inputs/activations."""
    caches = []
    h = x
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        if i < len(layers) - 1:
            a = np.tanh(z)
            caches.append((h, a))
            h = a
        else:
            caches.append((h, None))
            h = z
    return h, caches


def _tower_backward(layers, caches, d_out):
    """Gradients for one tower given d(loss)/d(raw output)."""
    grads = [None] * len(layers)
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        inp, act = caches[i]
        if act is not None:  # tanh layer: d arrived at activation output
            d = d * (1.0 - act * act)
        grads[i] = (inp.T @ d, d.sum(axis=0))
        d = d @ w.T
    return grads


def _normalize_with_cache(raw):
    norms = np.sqrt((raw * raw).sum(axis=1, keepdims=True))
    if np.any(norms <= 1e-12):
        raise NumericError("zero-norm embedding row")
    return raw / norms, norms


def _normalize_backward(d_unit, unit, norms):
    # d(raw) for u = raw/|raw|
    return (d_unit - (d_unit * unit).sum(axis=1, keepdims=True) * unit) / norms


def encode(params: TwoTowerParams, inputs: np.ndarray, tower: str) -> np.ndarray:
    """Row-normalized embeddings from one tower."""
    layers = params.image_layers if tower == "image" else params.text_layers
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != layers[0][0].shape[0]:
        raise ShapeError(f"encode: input shape {inputs.shape} incompatible with tower {tower}")
    raw, _ = _tower_forward(layers, inputs)
    return l2_normalize_rows(raw)


def _encode_with_caches(params, images, texts):
    raw_u, cache_u = _tower_forward(params.image_layers, np.asarray(images, dtype=np.float64))
    raw_v, cache_v = _tower_forward(params.text_layers, np.asarray(texts, dtype=np.float64))
    u, nu = _normalize_with_cache(raw_u)
    v, nv = _normalize_with_cache(raw_v)
    return u, v, (cache_u, nu), (cache_v, nv)


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
        raise ValueError("lambda must be >= 0")
    return TeacherTargets(encode(teacher, images, "image"), encode(teacher, texts, "text"), teacher.log_scale, lam)


# B x B float64 scratch matrices of `_contrastive_step`, reused while B holds
_work: list[np.ndarray] = []


def _work_buffers(n: int, count: int) -> list[np.ndarray]:
    if _work and _work[0].shape[0] != n:
        _work.clear()
    while len(_work) < count:
        _work.append(np.empty((n, n)))
    return _work


def release_work_buffers() -> None:
    """Free the contrastive kernel's work matrices. A training loop calls this
    when it ends, so that they hold no memory outside training."""
    _work.clear()


def _contrastive_step(params: TwoTowerParams, images, texts, teacher: TeacherTargets | None = None, clip: bool = True):
    """Contrastive loss, distillation penalty and their summed student gradients.

    One student forward and one backward. With `clip` false the contrastive
    term stays out of the gradients (its loss is still returned). Returns
    (loss, penalty, grads); nothing returned aliases the work buffers.
    """
    images = np.asarray(images, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    n = images.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if texts.shape[0] != n:
        raise ShapeError("image/text batch sizes differ")
    if teacher is not None and (teacher.images.shape[0] != n or teacher.texts.shape[0] != n):
        raise ShapeError("teacher targets do not match the batch")
    u, v, (cache_u, nu), (cache_v, nv) = _encode_with_caches(params, images, texts)
    scale = float(np.exp(params.log_scale))
    sims, e, grad, *rest = _work_buffers(n, 3 if teacher is None else 4)
    np.matmul(u, v.T, out=sims)
    # one exponential serves both softmax directions; logits are bounded by
    # the clamped scale so a global max shift cannot overflow
    np.multiply(sims, scale, out=e)
    e -= e.max()
    np.exp(e, out=grad)
    rows, cols = grad.sum(axis=1), grad.sum(axis=0)
    g_diag = np.diagonal(grad)
    loss = 0.5 * (-np.log(g_diag / rows).mean() - np.log(g_diag / cols).mean())

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
    # d(loss)/d(logits): (clip + lam) * 0.5/n * student softmaxes
    # - lam * 0.5/n * teacher softmaxes - [clip] I/n
    grad *= (float(clip) + lam) * 0.5 / n
    if teacher is not None:
        np.multiply(t, (1.0 / t_rows)[:, None], out=e)
        t *= 1.0 / t_cols
        e += t  # teacher row softmax + column softmax
        e *= lam * 0.5 / n
        grad -= e
    if clip:
        grad.reshape(-1)[:: n + 1] -= 1.0 / n

    d_raw_u = _normalize_backward(scale * (grad @ v), u, nu)
    d_raw_v = _normalize_backward(scale * (grad.T @ u), v, nv)
    np.multiply(grad, sims, out=sims)
    grads = {}
    for tower, layers, cache, d_raw in (("image", params.image_layers, cache_u, d_raw_u),
                                        ("text", params.text_layers, cache_v, d_raw_v)):
        for i, (gw, gb) in enumerate(_tower_backward(layers, cache, d_raw)):
            grads[f"{tower}.{i}.W"] = gw
            grads[f"{tower}.{i}.b"] = gb
    grads["log_scale"] = np.asarray(scale * float(sims.sum()), dtype=np.float64)
    return float(loss), penalty, grads


def clip_loss_and_grads(params: TwoTowerParams, images: np.ndarray, texts: np.ndarray):
    """Symmetric contrastive loss with diagonal targets and its gradients."""
    loss, _, grads = _contrastive_step(params, images, texts)
    return loss, grads


def lwf_penalty_and_grads(
    teacher: TwoTowerParams,
    student: TwoTowerParams,
    images: np.ndarray,
    texts: np.ndarray,
    lam: float,
):
    """KL(teacher rows || student rows) of the similarity matrix, both directions.

    Gradients flow to the student only.
    """
    targets = teacher_targets(teacher, images, texts, lam)
    _, penalty, grads = _contrastive_step(student, images, texts, targets, clip=False)
    return penalty, grads


def clamp_log_scale(params: TwoTowerParams) -> TwoTowerParams:
    params.log_scale = min(params.log_scale, float(np.log(MAX_INV_TEMPERATURE)))
    return params


def train_minibatch(
    ckpt: Checkpoint,
    images: np.ndarray,
    texts: np.ndarray,
    lr: float,
    lwf: TeacherTargets | None = None,
) -> tuple[Checkpoint, dict]:
    """One forward/backward/Adam step; returns the new checkpoint and a loss record.

    `lwf` holds the teacher's targets for exactly these pairs.
    """
    loss, penalty, grads = _contrastive_step(ckpt.params, images, texts, lwf)
    values = np.concatenate([[loss, penalty]] + [g.ravel() for g in grads.values()])
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite loss, penalty or gradient at global_step {ckpt.global_step}")
    flat = ckpt.params.to_flat()
    new_flat, new_adam = adam_step(flat, grads, ckpt.adam, lr)
    new_params = clamp_log_scale(TwoTowerParams.from_flat(new_flat))
    new_ckpt = Checkpoint(
        params=new_params,
        adam=new_adam,
        global_step=ckpt.global_step + 1,
        trained_through_step=ckpt.trained_through_step,
        method_id=ckpt.method_id,
    )
    return new_ckpt, {"loss": loss, "penalty": penalty, "lr": lr}


# ---------------------------------------------------------------------------
# Checkpoint file format: magic "TICC", version u32, method id, step counters,
# then named float64 arrays (params followed by Adam moments). Little-endian.
# ---------------------------------------------------------------------------


class FormatError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    chunks = [struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        # note: ascontiguousarray would promote 0-d arrays to 1-d
        arr = np.asarray(arrays[name], dtype=np.float64, order="C")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError("truncated file", self.pos)
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64s(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype="<f8").astype(np.float64)


def _unpack_arrays(cur: _Cursor) -> dict[str, np.ndarray]:
    count = cur.u32()
    out = {}
    for _ in range(count):
        nlen = cur.u32()
        name = cur.take(nlen).decode("utf-8")
        rank = cur.u32()
        dims = [cur.u32() for _ in range(rank)]
        size = int(np.prod(dims)) if dims else 1
        out[name] = cur.f64s(size).reshape(dims)
    return out


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    mid = ckpt.method_id.encode("utf-8")
    head = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    head += struct.pack("<I", len(mid)) + mid
    head += struct.pack("<I", ckpt.trained_through_step)
    head += struct.pack("<Q", ckpt.global_step)
    arrays = dict(ckpt.params.to_flat())
    for k, v in ckpt.adam.first_moment.items():
        arrays[f"adam.m.{k}"] = v
    for k, v in ckpt.adam.second_moment.items():
        arrays[f"adam.v.{k}"] = v
    arrays["adam.meta"] = np.asarray(
        [ckpt.adam.step_count, ckpt.adam.beta1, ckpt.adam.beta2, ckpt.adam.epsilon]
    )
    with open(path, "wb") as f:
        f.write(head + _pack_arrays(arrays))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        buf = f.read()
    cur = _Cursor(buf)
    if cur.take(4) != CHECKPOINT_MAGIC:
        raise FormatError("bad magic", 0)
    version = cur.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", 4)
    mlen = cur.u32()
    method_id = cur.take(mlen).decode("utf-8")
    trained_through = cur.u32()
    global_step = cur.u64()
    arrays = _unpack_arrays(cur)
    meta = arrays.pop("adam.meta")
    flat, m, v = {}, {}, {}
    for name, arr in arrays.items():
        if name.startswith("adam.m."):
            m[name[len("adam.m.") :]] = arr
        elif name.startswith("adam.v."):
            v[name[len("adam.v.") :]] = arr
        else:
            flat[name] = arr
    params = TwoTowerParams.from_flat(flat)
    adam = AdamState(m, v, int(meta[0]), float(meta[1]), float(meta[2]), float(meta[3]))
    return Checkpoint(params, adam, global_step, trained_through, method_id)

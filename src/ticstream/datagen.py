"""Synthetic timestamped image-text pair streams with controlled drift.

Each class has a unit latent prototype. Drifting classes live in one fixed
2-plane of latent space and rotate by a constant angle per step; static
classes never move. A record samples a latent point around its class
prototype (the perturbation is shared between modalities, so the paired
text stays retrievable), then maps it through fixed seeded mixing matrices
into image and text feature space. Eval splits are drawn before the
training split at every step. The `.ticd` layout is defined beside
`write_timestep_file` and read and written through `formats`: a section is
written straight from its packed structured array's buffer, and read as a
view of the file's buffer that is converted once into the record columns. A
reader that needs no training rows (`train=False`) still bounds-checks the
train section but converts none of it, and its datasets hold `train=None`.
The class roster is derived from the config, never stored (`_class_latents`):
ids in birth order, static classes first.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, RunError
from .formats import Cursor, atomic_write, check_types, config_fields, read_json, write_json
from .numerics import Rng

STREAM_MAGIC = b"TICD"
STREAM_VERSION = 1


@dataclass(frozen=True)
class StreamConfig:
    num_steps: int
    per_step_train_size: int
    per_step_eval_size: int
    image_dim: int
    text_dim: int
    latent_dim: int
    class_birth_schedule: tuple[tuple[int, int], ...]
    drift_angle: float
    noise_sigma: float
    static_class_count: int
    seed: int

    def validate(self) -> None:
        check_types(StreamConfig, vars(self))
        if self.num_steps < 1:
            raise ConfigError("num_steps must be >= 1")
        if min(self.per_step_train_size, self.per_step_eval_size) < 1:
            raise ConfigError("split sizes must be >= 1")
        if min(self.image_dim, self.text_dim, self.latent_dim) < 1:
            raise ConfigError("dims must be >= 1")
        if self.latent_dim < 2:
            raise ConfigError("latent_dim must be >= 2 for the drift plane")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if not (0 <= self.drift_angle < np.pi):
            raise ConfigError("drift_angle must be in [0, pi)")
        for step, count in self.class_birth_schedule:
            if not (1 <= step <= self.num_steps) or count < 1:
                raise ConfigError(f"bad birth schedule entry ({step}, {count})")
        if self.static_class_count < 0:
            raise ConfigError("static_class_count must be >= 0")
        if self.static_class_count + sum(c for s, c in self.class_birth_schedule if s == 1) < 1:
            raise ConfigError("no class alive at step 1: need a static class or a birth at step 1")

    def to_json(self) -> dict:
        return asdict(self)  # the birth entries stay tuples, which json writes as arrays

    @classmethod
    def from_json(cls, d: dict) -> "StreamConfig":
        d = config_fields(cls, d)
        return cls(**{**d, "class_birth_schedule": tuple(tuple(e) for e in d["class_birth_schedule"])})


@dataclass
class RecordBatch:
    """Column-wise store for a set of pair records."""

    class_ids: np.ndarray  # (n,) int64
    images: np.ndarray  # (n, image_dim)
    texts: np.ndarray  # (n, text_dim)
    timesteps: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.class_ids)

    def take(self, idx) -> "RecordBatch":
        return RecordBatch(*(getattr(self, f.name)[idx] for f in fields(RecordBatch)))

    @classmethod
    def concat(cls, batches) -> "RecordBatch":
        return cls(*(np.concatenate([getattr(b, f.name) for b in batches]) for f in fields(cls)))


@dataclass
class TimestepDataset:
    timestep: int
    train: RecordBatch | None  # None when read with train=False
    eval_retrieval: RecordBatch
    eval_classification: RecordBatch
    prototype_ids: np.ndarray  # (c,) int64, classes alive at this step
    prototypes: np.ndarray  # (c, text_dim) canonical text vectors


def _class_latents(cfg: StreamConfig):
    """The stream's class roster as `at(t)`: the ids of the classes alive at step t and their
    latent prototypes, one row each. Ids are assigned in birth order, the static classes first, so
    the classes alive at t are ids 0..k-1 and class c is static exactly when c < static_class_count,
    which `runner._static_holdout` relies on. A static prototype is a fixed unit vector; a drifting
    one turns in the drift plane by `drift_angle` per step from a seeded phase at its birth."""
    rng = Rng(cfg.seed, 0).split("classes")
    static = cfg.static_class_count
    births = [1] * static + [step for step, count in sorted(cfg.class_birth_schedule) for _ in range(count)]
    # drift plane: first two axes of a seeded random orthonormal frame
    plane, _ = np.linalg.qr(rng.split("plane").normal((cfg.latent_dim, 2)))
    # each class's own draw: a static class's unit latent, a drifting class's phase
    units = [z / np.linalg.norm(z) for z in (rng.split("proto", c).normal(cfg.latent_dim) for c in range(static))]
    phases = [float(rng.split("proto", c).uniform(1)[0] * 2 * np.pi) for c in range(static, len(births))]

    def latent(c: int, t: int) -> np.ndarray:
        if c < static:
            return units[c]
        angle = phases[c - static] + (t - births[c]) * cfg.drift_angle
        return plane[:, 0] * np.cos(angle) + plane[:, 1] * np.sin(angle)

    def at(t: int) -> tuple[np.ndarray, np.ndarray]:
        k = sum(b <= t for b in births)
        return np.arange(k, dtype=np.int64), np.stack([latent(c, t) for c in range(k)])

    return at


def _mixing_maps(cfg: StreamConfig):
    rng = Rng(cfg.seed, 0).split("mixing")
    a = rng.split("image").normal((cfg.image_dim, cfg.latent_dim)) / np.sqrt(cfg.latent_dim)
    b = rng.split("text").normal((cfg.text_dim, cfg.latent_dim)) / np.sqrt(cfg.latent_dim)
    return a, b


def _draw_batch(cfg, alive, alive_latents, a, b, t, n, rng) -> RecordBatch:
    """n records of step t; `alive` holds the class ids alive at t and
    `alive_latents` their latent prototypes, one row each."""
    picks = np.floor(rng.split("cls").uniform(n) * len(alive)).astype(np.int64)
    class_ids = alive[picks]
    protos = alive_latents[picks]
    # latent perturbation is shared between modalities (keeps the paired
    # text retrievable); ambient noise is independent per modality. Each
    # sum is taken in its noise draw's buffer: x += y gives y + x's bytes
    latents = rng.split("noise").normal((n, cfg.latent_dim))
    latents *= cfg.noise_sigma
    latents += protos
    images = rng.split("img_noise").normal((n, cfg.image_dim))
    images *= cfg.noise_sigma
    images += latents @ a.T
    texts = rng.split("txt_noise").normal((n, cfg.text_dim))
    texts *= cfg.noise_sigma
    texts += latents @ b.T
    return RecordBatch(
        class_ids=class_ids,
        images=images,
        texts=texts,
        timesteps=np.full(n, t, dtype=np.int64),
    )


def generate_stream(cfg: StreamConfig) -> list[TimestepDataset]:
    """Deterministic stream of per-step datasets; pure function of cfg."""
    cfg.validate()
    roster = _class_latents(cfg)
    a, b = _mixing_maps(cfg)
    root = Rng(cfg.seed, 0)
    datasets = []
    for t in range(1, cfg.num_steps + 1):
        step_rng = root.split("step", t)
        alive, latents = roster(t)
        # eval splits first, then training data
        eval_r = _draw_batch(cfg, alive, latents, a, b, t, cfg.per_step_eval_size, step_rng.split("eval_retrieval"))
        eval_c = _draw_batch(cfg, alive, latents, a, b, t, cfg.per_step_eval_size, step_rng.split("eval_classification"))
        train = _draw_batch(cfg, alive, latents, a, b, t, cfg.per_step_train_size, step_rng.split("train"))
        datasets.append(
            TimestepDataset(
                timestep=t,
                train=train,
                eval_retrieval=eval_r,
                eval_classification=eval_c,
                prototype_ids=alive,
                prototypes=latents @ b.T,
            )
        )
    return datasets


def aggregate_early_steps(datasets: list[TimestepDataset], merge_first_k: int) -> list[TimestepDataset]:
    """Merge the first k steps into one dataset stamped with timestep k; datasets read
    without their train split merge into one without it."""
    t_total = len(datasets)
    if not (1 <= merge_first_k <= t_total):
        raise ConfigError(f"merge_first_k={merge_first_k} out of range for T={t_total}")
    if merge_first_k == 1:
        return list(datasets)
    head = datasets[:merge_first_k]
    merged = TimestepDataset(
        timestep=merge_first_k,
        train=None if head[0].train is None else RecordBatch.concat([d.train for d in head]),
        eval_retrieval=RecordBatch.concat([d.eval_retrieval for d in head]),
        eval_classification=RecordBatch.concat([d.eval_classification for d in head]),
        prototype_ids=head[-1].prototype_ids,
        prototypes=head[-1].prototypes,
    )
    return [merged] + list(datasets[merge_first_k:])


# ---------------------------------------------------------------------------
# On-disk format: magic "TICD", version u32, timestep u32, image_dim u32,
# text_dim u32; three record sections (train, eval_retrieval,
# eval_classification) each "count u32, then (class_id u32, image f64s,
# text f64s) per record"; prototype section "count u32, then (class_id u32,
# text_dim f64s)". Little-endian throughout, no padding: each section's rows
# are one packed structured array, written from and read as its buffer.
# ---------------------------------------------------------------------------


def _record_dtype(image_dim: int, text_dim: int) -> np.dtype:
    return np.dtype([("class_id", "<u4"), ("image", "<f8", (image_dim,)), ("text", "<f8", (text_dim,))])


def _prototype_dtype(text_dim: int) -> np.dtype:
    return np.dtype([("class_id", "<u4"), ("text", "<f8", (text_dim,))])


def _pack_section(dtype: np.dtype, **columns) -> tuple[bytes, np.ndarray]:
    """A section's count and its rows, to be written as they are."""
    rows = np.empty(len(columns["class_id"]), dtype)
    for name, column in columns.items():
        rows[name] = column
    return struct.pack("<I", len(rows)), rows


def write_timestep_file(ds: TimestepDataset, path) -> None:
    image_dim = ds.train.images.shape[1]
    text_dim = ds.train.texts.shape[1]
    chunks = [STREAM_MAGIC, struct.pack("<IIII", STREAM_VERSION, ds.timestep, image_dim, text_dim)]
    records = _record_dtype(image_dim, text_dim)
    for b in (ds.train, ds.eval_retrieval, ds.eval_classification):
        chunks += _pack_section(records, class_id=b.class_ids, image=b.images, text=b.texts)
    chunks += _pack_section(_prototype_dtype(text_dim), class_id=ds.prototype_ids, text=ds.prototypes)
    atomic_write(path, *chunks)


def read_timestep_file(path, *, train: bool = True) -> TimestepDataset:
    """One step's dataset; with `train=False` the train section is bounds-checked, not converted,
    and the dataset's `train` is None."""
    cur = Cursor(path)
    if cur.take(4) != STREAM_MAGIC:
        raise FormatError("bad magic", 0, path)
    version, timestep, image_dim, text_dim = cur.unpack("<IIII")
    if version != STREAM_VERSION:
        raise FormatError(f"unsupported stream version {version}", 4, path)

    def section(dtype: np.dtype) -> np.ndarray:
        """The next section's rows, a view of the file's buffer."""
        return cur.array(dtype, *cur.unpack("<I"))

    def columns(rows: np.ndarray) -> list[np.ndarray]:
        """Class ids as int64, vectors as float64."""
        return [rows["class_id"].astype(np.int64)] + [rows[n].astype(np.float64, order="C")
                                                      for n in rows.dtype.names[1:]]

    def batch(rows: np.ndarray) -> RecordBatch:
        return RecordBatch(*columns(rows), np.full(len(rows), timestep, dtype=np.int64))

    records = _record_dtype(image_dim, text_dim)
    train_rows = section(records)
    eval_r = batch(section(records))
    eval_c = batch(section(records))
    proto_ids, protos = columns(section(_prototype_dtype(text_dim)))
    cur.end()
    return TimestepDataset(timestep, batch(train_rows) if train else None, eval_r, eval_c, proto_ids, protos)


def _step_file(t: int) -> str:
    return f"step_{t:03d}.ticd"


def write_stream(datasets: list[TimestepDataset], cfg: StreamConfig, out_dir) -> Path:
    """Write per-step files, then the JSON manifest; returns the manifest path. The manifest
    marks a complete stream, so an old one goes first and a cut-off write leaves none."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mpath = out / "stream_manifest.json"
    mpath.unlink(missing_ok=True)
    names = [_step_file(ds.timestep) for ds in datasets]
    for ds, name in zip(datasets, names):
        write_timestep_file(ds, out / name)
    write_json(mpath, {"config": cfg.to_json(), "files": names})
    return mpath


def load_stream(data_dir, *, train: bool = True) -> tuple[list[TimestepDataset], StreamConfig]:
    """The stream in `data_dir` and its config; `train=False` reads every step without its train split.
    A config that a config file could not hold, files other than the config's steps in order, or a
    header of another step, is refused naming the file."""
    data_dir = Path(data_dir)
    path = data_dir / "stream_manifest.json"
    manifest = read_json(path, "config", "files")
    try:
        cfg = StreamConfig.from_json(manifest["config"])
        cfg.validate()
    except ConfigError as exc:
        raise RunError(f"{path}: {exc}") from exc
    names = [_step_file(t) for t in range(1, cfg.num_steps + 1)]
    if manifest["files"] != names:
        raise RunError(f"{path}: files {manifest['files']!r} are not its config's steps {names!r}")
    datasets = [read_timestep_file(data_dir / name, train=train) for name in names]
    for t, ds in enumerate(datasets, 1):
        if ds.timestep != t:
            raise FormatError(f"header timestep {ds.timestep} at step {t}", 8, data_dir / names[t - 1])
    return datasets, cfg

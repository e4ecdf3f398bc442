import hashlib
import json
import struct

import numpy as np
import pytest

from ticstream import datagen, numerics, reference_config
from ticstream.datagen import (
    StreamConfig,
    aggregate_early_steps,
    generate_stream,
    load_stream,
    read_timestep_file,
    write_stream,
    write_timestep_file,
)
from ticstream.errors import ConfigError, FormatError


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_eval_splits(a, b) -> bool:
    """Two datasets' eval splits and prototypes are equal bit for bit."""
    pairs = [(a.prototype_ids, b.prototype_ids), (a.prototypes, b.prototypes)]
    for split in ("eval_retrieval", "eval_classification"):
        x, y = getattr(a, split), getattr(b, split)
        pairs += [(x.class_ids, y.class_ids), (x.images, y.images), (x.texts, y.texts), (x.timesteps, y.timesteps)]
    return all(same_bits(x, y) for x, y in pairs)


def make_cfg(**overrides):
    base = dict(
        num_steps=4,
        per_step_train_size=40,
        per_step_eval_size=10,
        image_dim=6,
        text_dim=5,
        latent_dim=4,
        class_birth_schedule=((1, 4), (3, 2)),
        drift_angle=0.3,
        noise_sigma=0.1,
        static_class_count=2,
        seed=99,
    )
    base.update(overrides)
    return StreamConfig(**base)


# a birth schedule out of step order that names step 3 twice, and the SHA-256 of every array
# (each split's columns, then the prototype ids and rows, step by step) of make_cfg()'s stream
# under it with 2 static classes
UNSORTED_BIRTHS = ((3, 2), (1, 1), (3, 1))
PINNED_UNSORTED_BIRTHS_SHA256 = "52d63b5fcea4865d1a0f40609dc5d54010dad68fdfe0864ab1e454db65507313"


class TestGenerateStream:
    def test_deterministic(self):
        a = generate_stream(make_cfg())
        b = generate_stream(make_cfg())
        for da, db in zip(a, b):
            assert np.array_equal(da.train.images, db.train.images)
            assert np.array_equal(da.eval_retrieval.texts, db.eval_retrieval.texts)
            assert np.array_equal(da.prototypes, db.prototypes)

    def test_sizes_and_timesteps(self):
        stream = generate_stream(make_cfg())
        assert len(stream) == 4
        for t, ds in enumerate(stream, start=1):
            assert ds.timestep == t
            assert len(ds.train) == 40
            assert len(ds.eval_retrieval) == 10
            assert len(ds.eval_classification) == 10
            assert np.all(ds.train.timesteps == t)

    def test_class_birth_schedule(self):
        stream = generate_stream(make_cfg())
        alive = [len(ds.prototype_ids) for ds in stream]
        assert alive == [6, 6, 8, 8]  # 2 static + 4 born at step 1 + 2 at step 3

    def test_zero_drift_zero_noise_single_class(self):
        cfg = make_cfg(drift_angle=0.0, noise_sigma=0.0,
                       class_birth_schedule=(), static_class_count=1)
        stream = generate_stream(cfg)
        ref = stream[0].train.images[0]
        for ds in stream:
            assert np.allclose(ds.train.images, ref[None, :], atol=0)

    def test_drift_angle_matches_elapsed_steps(self):
        cfg = make_cfg(noise_sigma=0.0, drift_angle=0.25,
                       class_birth_schedule=((1, 3),), static_class_count=0)
        at = datagen._class_latents(cfg)
        for c in range(3):
            z1 = at(1)[1][c]
            for t in (2, 3, 4):
                zt = at(t)[1][c]
                angle = np.arccos(np.clip(zt @ z1, -1, 1))
                assert abs(angle - (t - 1) * 0.25) < 1e-9

    def test_alive_ids_are_a_prefix_in_birth_order(self):
        # unsorted, with step 3 listed twice: ids go to the static classes, then by birth step
        cfg = make_cfg(class_birth_schedule=UNSORTED_BIRTHS, static_class_count=2)
        at = datagen._class_latents(cfg)
        alive = [at(t)[0].tolist() for t in range(1, 5)]
        assert alive == [[0, 1, 2]] * 2 + [[0, 1, 2, 3, 4, 5]] * 2
        assert [ds.prototype_ids.tolist() for ds in generate_stream(cfg)] == alive

    def test_unsorted_birth_stream_pinned(self):
        stream = generate_stream(make_cfg(class_birth_schedule=UNSORTED_BIRTHS, static_class_count=2))
        h = hashlib.sha256()
        for ds in stream:
            for split in (ds.train, ds.eval_retrieval, ds.eval_classification):
                for column in (split.class_ids, split.images, split.texts, split.timesteps):
                    h.update(column.tobytes())
            h.update(ds.prototype_ids.tobytes())
            h.update(ds.prototypes.tobytes())
        assert h.hexdigest() == PINNED_UNSORTED_BIRTHS_SHA256

    def test_static_prototypes_never_move(self):
        stream = generate_stream(make_cfg())
        static_ids = [0, 1]
        first = {c: stream[0].prototypes[list(stream[0].prototype_ids).index(c)] for c in static_ids}
        for ds in stream:
            for c in static_ids:
                row = list(ds.prototype_ids).index(c)
                assert np.array_equal(ds.prototypes[row], first[c])

    def test_train_eval_disjoint(self):
        # eval and train use different derived streams; no identical records
        stream = generate_stream(make_cfg())
        for ds in stream:
            tr = {tuple(row) for row in ds.train.images}
            ev = {tuple(row) for row in ds.eval_retrieval.images}
            assert not tr & ev

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            make_cfg(num_steps=0).validate()
        with pytest.raises(ConfigError):
            make_cfg(drift_angle=4.0).validate()
        with pytest.raises(ConfigError):
            make_cfg(noise_sigma=-1.0).validate()
        with pytest.raises(ConfigError):
            make_cfg(class_birth_schedule=((9, 1),)).validate()
        for field in ("per_step_train_size", "per_step_eval_size"):
            with pytest.raises(ConfigError, match="split sizes must be >= 1"):
                make_cfg(**{field: 0}).validate()
        for field in ("image_dim", "text_dim", "latent_dim"):
            with pytest.raises(ConfigError, match="dims must be >= 1"):
                make_cfg(**{field: 0}).validate()
        with pytest.raises(ConfigError, match="latent_dim must be >= 2"):
            make_cfg(latent_dim=1).validate()

    def test_negative_static_class_count_rejected(self):
        # with 3 births at step 1 the count check alone passes, and 3 classes would be generated
        with pytest.raises(ConfigError, match="static_class_count must be >= 0"):
            make_cfg(static_class_count=-1, class_birth_schedule=((1, 3),)).validate()

    def test_no_class_alive_at_step_1_rejected(self):
        cfg = make_cfg(static_class_count=0, class_birth_schedule=((2, 2),))
        with pytest.raises(ConfigError, match="step 1"):
            cfg.validate()
        with pytest.raises(ConfigError, match="step 1"):
            generate_stream(cfg)

    def test_birth_at_step_1_alone_is_enough(self):
        stream = generate_stream(make_cfg(static_class_count=0, class_birth_schedule=((1, 1), (3, 2))))
        assert [len(ds.prototype_ids) for ds in stream] == [1, 1, 3, 3]
        assert np.all(stream[0].train.class_ids == 0)


class TestAggregate:
    def test_identity_when_k_is_one(self):
        stream = generate_stream(make_cfg())
        out = aggregate_early_steps(stream, 1)
        assert len(out) == 4
        assert out[0] is stream[0]

    def test_merge_three_of_nine(self):
        cfg = make_cfg(num_steps=9, per_step_train_size=8, per_step_eval_size=2)
        stream = generate_stream(cfg)
        out = aggregate_early_steps(stream, 3)
        assert len(out) == 7
        assert out[0].timestep == 3
        assert [d.timestep for d in out[1:]] == [4, 5, 6, 7, 8, 9]

    def test_merged_train_size_is_sum(self):
        stream = generate_stream(make_cfg())
        out = aggregate_early_steps(stream, 2)
        assert len(out[0].train) == len(stream[0].train) + len(stream[1].train)

    def test_merges_steps_read_without_train(self, tmp_path):
        cfg = make_cfg()
        write_stream(generate_stream(cfg), cfg, tmp_path)
        full = aggregate_early_steps(load_stream(tmp_path)[0], 2)
        out = aggregate_early_steps(load_stream(tmp_path, train=False)[0], 2)
        assert [d.timestep for d in out] == [d.timestep for d in full] == [2, 3, 4]
        for a, b in zip(full, out):
            assert b.train is None and same_eval_splits(a, b)

    def test_out_of_range_k(self):
        stream = generate_stream(make_cfg())
        with pytest.raises(ConfigError):
            aggregate_early_steps(stream, 0)
        with pytest.raises(ConfigError):
            aggregate_early_steps(stream, 5)


# SHA-256 of each .ticd file of make_cfg()'s stream. Generation is a pure
# function of the config, so any change to how a stream is drawn or written
# that moves one byte shows here.
PINNED_STREAM_SHA256 = {
    "step_001.ticd": "3a8320ec4ad4e71e19e9d732475dd90e3e212b956f6311063eda3f5760a0bd09",
    "step_002.ticd": "bd716321a53e88e4f7e679c36a63c8e927a44443b92eee9f2c02ec1a3979ec64",
    "step_003.ticd": "5e5f5cfe7b1f9ae6e3678d6fcfa7d27cbb1514010d18f1ef57e5e4d7b34ffe08",
    "step_004.ticd": "46b604e9d46145fa06dd51fafa62fea3e76e6f724ffea6511fd560ecf50694ad",
}


# SHA-256 of step_001.ticd of the reference experiment's stream: its
# 2048 x 32 image noise and every other training draw span several of
# `Rng.normal`'s blocks, which no draw of make_cfg()'s stream does.
PINNED_REFERENCE_STEP_SHA256 = "c6a1c9b4348a5464fc56652f79df8031f1ff70a4a37d3316b6ad1422b052617d"


class TestTimestepFile:
    def test_stream_bytes_pinned(self, tmp_path):
        write_stream(generate_stream(make_cfg()), make_cfg(), tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.ticd")}
        assert digests == PINNED_STREAM_SHA256

    def test_reference_step_bytes_pinned(self, tmp_path):
        cfg = reference_config().stream
        assert cfg.per_step_train_size * cfg.image_dim > 4 * numerics._NORMAL_BLOCK
        write_timestep_file(generate_stream(cfg)[0], tmp_path / "step_001.ticd")
        assert hashlib.sha256((tmp_path / "step_001.ticd").read_bytes()).hexdigest() == PINNED_REFERENCE_STEP_SHA256

    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_stream(make_cfg())[2]
        path = tmp_path / "step.ticd"
        write_timestep_file(ds, path)
        back = read_timestep_file(path)
        assert back.timestep == ds.timestep
        assert np.array_equal(back.train.images, ds.train.images)
        assert np.array_equal(back.train.texts, ds.train.texts)
        assert np.array_equal(back.train.class_ids, ds.train.class_ids)
        assert np.array_equal(back.eval_retrieval.images, ds.eval_retrieval.images)
        assert np.array_equal(back.prototypes, ds.prototypes)
        assert np.array_equal(back.prototype_ids, ds.prototype_ids)

    def test_corrupted_magic_names_offset_zero(self, tmp_path):
        ds = generate_stream(make_cfg())[0]
        path = tmp_path / "bad.ticd"
        write_timestep_file(ds, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as exc:
            read_timestep_file(path)
        assert exc.value.offset == 0

    def test_unsupported_version_names_its_offset(self, tmp_path):
        path = tmp_path / "v2.ticd"
        write_timestep_file(generate_stream(make_cfg())[0], path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="unsupported stream version 2") as exc:
            read_timestep_file(path)
        assert exc.value.offset == 4

    def test_truncated_file(self, tmp_path):
        ds = generate_stream(make_cfg())[0]
        path = tmp_path / "trunc.ticd"
        write_timestep_file(ds, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(FormatError, match="offset"):
            read_timestep_file(path)

    def test_reads_and_writes_the_field_by_field_layout(self, tmp_path):
        # a 2-dim image / 3-dim text file packed one field at a time
        train = [(7, [1.0, -2.0], [0.5, 0.25, 3.0]), (2, [4.0, 5.0], [6.0, 7.0, 8.0])]
        eval_r = [(1, [0.0, 1.0], [2.0, 3.0, 4.0])]
        protos = [(1, [9.0, 8.0, 7.0]), (7, [-1.0, -2.0, -3.0])]
        data = b"TICD" + struct.pack("<IIII", 1, 4, 2, 3)
        for section in (train, eval_r, []):
            data += struct.pack("<I", len(section))
            for cid, img, txt in section:
                data += struct.pack("<I", cid) + struct.pack("<2d", *img) + struct.pack("<3d", *txt)
        data += struct.pack("<I", len(protos))
        for cid, txt in protos:
            data += struct.pack("<I", cid) + struct.pack("<3d", *txt)
        path = tmp_path / "hand.ticd"
        path.write_bytes(data)
        ds = read_timestep_file(path)
        assert ds.timestep == 4
        assert ds.train.class_ids.tolist() == [7, 2] and ds.train.class_ids.dtype == np.int64
        assert ds.train.images.tolist() == [[1.0, -2.0], [4.0, 5.0]]
        assert ds.train.texts.tolist() == [[0.5, 0.25, 3.0], [6.0, 7.0, 8.0]]
        assert ds.train.timesteps.tolist() == [4, 4]
        assert ds.eval_retrieval.images.tolist() == [[0.0, 1.0]]
        assert ds.eval_classification.images.shape == (0, 2)
        assert ds.prototype_ids.tolist() == [1, 7]
        assert ds.prototypes.tolist() == [[9.0, 8.0, 7.0], [-1.0, -2.0, -3.0]]
        assert ds.train.images.flags.c_contiguous and ds.train.images.flags.writeable
        write_timestep_file(ds, tmp_path / "again.ticd")
        assert (tmp_path / "again.ticd").read_bytes() == data

        # without the train split: the same eval sections and prototypes, bit for bit
        no_train = read_timestep_file(path, train=False)
        assert no_train.train is None and no_train.timestep == 4
        assert same_eval_splits(ds, no_train)

        # truncation names the first field cut off; trailing bytes the end; with
        # or without the train split, since it is bounds-checked either way
        record = 4 + 8 * 2 + 8 * 3
        train_rows = 4 + 16 + 4
        for train in (True, False):
            for cut, offset in ((train_rows + 2, train_rows), (train_rows + 10, train_rows + 4),
                                (train_rows + record + 30, train_rows + record + 20)):
                path.write_bytes(data[:cut])
                with pytest.raises(FormatError) as exc:
                    read_timestep_file(path, train=train)
                assert "truncated" in str(exc.value) and exc.value.offset == offset
            path.write_bytes(data + b"\x00\x00")
            with pytest.raises(FormatError, match="trailing") as exc:
                read_timestep_file(path, train=train)
            assert exc.value.offset == len(data)

    def test_empty_train_round_trips(self, tmp_path):
        ds = generate_stream(make_cfg())[0]
        ds.train = ds.train.take(np.arange(0))
        path = tmp_path / "empty.ticd"
        write_timestep_file(ds, path)
        back = read_timestep_file(path)
        assert len(back.train) == 0
        assert len(back.eval_retrieval) == 10

    def test_stream_manifest_round_trip(self, tmp_path):
        cfg = make_cfg()
        stream = generate_stream(cfg)
        write_stream(stream, cfg, tmp_path)
        back, back_cfg = load_stream(tmp_path)
        assert back_cfg == cfg
        assert len(back) == len(stream)
        for a, b in zip(stream, back):
            assert np.array_equal(a.train.images, b.train.images)

    def test_stream_manifest_says_each_thing_once(self, tmp_path):
        # the step count is the config's; a manifest written with its own copy still loads
        cfg = make_cfg()
        write_stream(generate_stream(cfg), cfg, tmp_path)
        path = tmp_path / "stream_manifest.json"
        manifest = json.loads(path.read_text())
        assert set(manifest) == {"config", "files"}
        path.write_text(json.dumps({**manifest, "num_steps": cfg.num_steps}))
        back, back_cfg = load_stream(tmp_path)
        assert back_cfg == cfg and [d.timestep for d in back] == list(range(1, cfg.num_steps + 1))

    def test_cut_off_rewrite_leaves_no_manifest(self, tmp_path, monkeypatch):
        # a stream B written over stream A and killed after its first step
        # file must not pass for A, nor for B
        cfg_a, cfg_b = make_cfg(), make_cfg(seed=100)
        write_stream(generate_stream(cfg_a), cfg_a, tmp_path)
        written = []

        def write_one_then_stop(ds, path):
            if written:
                raise KeyboardInterrupt
            written.append(path)
            write_timestep_file(ds, path)

        monkeypatch.setattr(datagen, "write_timestep_file", write_one_then_stop)
        with pytest.raises(KeyboardInterrupt):
            write_stream(generate_stream(cfg_b), cfg_b, tmp_path)
        assert [p.name for p in written] == ["step_001.ticd"]
        assert not (tmp_path / "stream_manifest.json").exists()

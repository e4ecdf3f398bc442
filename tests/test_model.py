import hashlib
import struct

import numpy as np
import pytest

from ticstream.model import (
    Checkpoint,
    ModelDims,
    TwoTowerParams,
    clip_loss_and_grads,
    encode,
    init_params,
    load_checkpoint,
    _contrastive_step,
    lwf_penalty_and_grads,
    save_checkpoint,
    teacher_targets,
    train_minibatch,
)
from ticstream.errors import FormatError, NumericError, RunError
from ticstream.numerics import AdamState, Rng, adam_step, finite_diff_grad

DIMS = ModelDims(image_dim=6, text_dim=5, hidden_dim=8, embed_dim=4)


def small_batch(seed, n=3):
    rng = Rng(seed)
    return rng.split("img").normal((n, DIMS.image_dim)), rng.split("txt").normal((n, DIMS.text_dim))


def tensors(p):
    """The named tensors of a parameter set: each layer's W and b, then log_scale."""
    return [a for layer in p.image_layers + p.text_layers for a in layer] + [p.vector[-1:]]


def rel_err(got, want):
    denom = max(1e-8, float(np.abs(want).max()))
    return float(np.abs(np.asarray(got) - want).max()) / denom


def identity_model(d):
    """One d x d identity layer per tower, zero biases, log_scale 0."""
    p = TwoTowerParams(np.zeros(2 * (d * d + d) + 1), (((d, d),), ((d, d),)))
    for w, _ in p.image_layers + p.text_layers:
        w[...] = np.eye(d)
    return p


class TestInit:
    def test_deterministic(self):
        assert np.array_equal(init_params(DIMS, Rng(3)).vector, init_params(DIMS, Rng(3)).vector)

    @pytest.mark.parametrize("dims", [ModelDims(32, 24, 32, 16), DIMS], ids=["reference", "small"])
    def test_dims_layout_is_the_built_models(self, dims):
        # the ledger bills from `dims.layout` without building the model
        assert dims.layout == init_params(dims, Rng(0)).layout
        assert dims.layout[0] == ((dims.image_dim, dims.hidden_dim), (dims.hidden_dim, dims.embed_dim))

    def test_biases_zero(self):
        p = init_params(DIMS, Rng(0))
        for _, b in p.image_layers + p.text_layers:
            assert np.array_equal(b, np.zeros_like(b))

    def test_initial_inverse_temperature(self):
        p = init_params(DIMS, Rng(0))
        assert abs(np.exp(p.log_scale) - 1 / 0.07) < 1e-9

    def test_xavier_bounds(self):
        p = init_params(DIMS, Rng(1))
        w = p.image_layers[0][0]
        limit = np.sqrt(6 / (DIMS.image_dim + DIMS.hidden_dim))
        assert np.abs(w).max() <= limit


class TestEncode:
    def test_rows_unit_norm(self):
        p = init_params(DIMS, Rng(2))
        u = encode(p, Rng(3).normal((7, DIMS.image_dim)), "image")
        assert np.abs(np.sqrt((u * u).sum(axis=1)) - 1).max() < 1e-12

    def test_single_layer_identity_tower(self):
        p = identity_model(4)
        x = Rng(5).normal((3, 4))
        u = encode(p, x, "image")
        assert np.allclose(u, x / np.linalg.norm(x, axis=1, keepdims=True), atol=1e-12)

    def test_nan_row_raises(self):
        p = init_params(DIMS, Rng(2))
        x = Rng(3).normal((4, DIMS.image_dim))
        x[1, 2] = np.nan
        with pytest.raises(NumericError):
            encode(p, x, "image")

    def test_unknown_tower_is_refused_by_name(self):
        # text-shaped rows, which the text tower would take
        p = init_params(DIMS, Rng(2))
        with pytest.raises(RunError, match="no tower 'img'"):
            encode(p, Rng(3).normal((4, DIMS.text_dim)), "img")

    def test_batch_independence(self):
        p = init_params(DIMS, Rng(4))
        x = Rng(6).normal((5, DIMS.image_dim))
        full = encode(p, x, "image")
        row = encode(p, x[2:3], "image")
        assert np.abs(full[2] - row[0]).max() < 1e-12


class TestClipLoss:
    def test_single_pair_loss_zero(self):
        p = init_params(DIMS, Rng(0))
        imgs, txts = small_batch(1, n=1)
        loss, _ = clip_loss_and_grads(p, imgs, txts)
        assert loss == 0.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_uniform_logit_loss_is_log_n(self, n):
        # identical embeddings for every pair give uniform similarity rows
        p = init_params(DIMS, Rng(0))
        img = np.tile(Rng(1).normal((1, DIMS.image_dim)), (n, 1))
        txt = np.tile(Rng(2).normal((1, DIMS.text_dim)), (n, 1))
        loss, _ = clip_loss_and_grads(p, img, txt)
        assert abs(loss - np.log(n)) < 1e-9

    def test_orthogonal_pairs_hand_value(self):
        # identity embeddings at scale 1: loss = -ln(e / (e + 1))
        p = identity_model(2)
        eye = np.eye(2)
        loss, _ = clip_loss_and_grads(p, eye, eye)
        assert abs(loss - (-np.log(np.e / (np.e + 1)))) < 1e-12

    def test_permutation_equivariance(self):
        p = init_params(DIMS, Rng(9))
        imgs, txts = small_batch(10, n=5)
        loss, _ = clip_loss_and_grads(p, imgs, txts)
        perm = Rng(11).permutation(5)
        loss_p, _ = clip_loss_and_grads(p, imgs[perm], txts[perm])
        assert abs(loss - loss_p) < 1e-12

    def test_strictly_positive_for_n_ge_2(self):
        for seed in range(5):
            p = init_params(DIMS, Rng(seed))
            imgs, txts = small_batch(seed + 50, n=4)
            loss, _ = clip_loss_and_grads(p, imgs, txts)
            assert loss > 0

    def test_empty_batch_rejected(self):
        p = init_params(DIMS, Rng(0))
        with pytest.raises(RunError, match="empty batch"):
            clip_loss_and_grads(p, np.zeros((0, DIMS.image_dim)), np.zeros((0, DIMS.text_dim)))


class TestGradients:
    def test_clip_grads_match_finite_differences(self):
        for trial in range(5):
            p = init_params(DIMS, Rng(trial))
            imgs, txts = small_batch(trial + 100, n=4)
            _, grads = clip_loss_and_grads(p, imgs, txts)
            fd = finite_diff_grad(lambda _: clip_loss_and_grads(p, imgs, txts)[0], p.vector)
            for i, (got, want) in enumerate(zip(tensors(grads), tensors(TwoTowerParams(fd, p.layout)))):
                assert rel_err(got, want) < 1e-4, i

    def test_lwf_grads_match_finite_differences(self):
        for trial in range(5):
            teacher = init_params(DIMS, Rng(trial + 10))
            student = init_params(DIMS, Rng(trial + 20))
            imgs, txts = small_batch(trial + 200, n=3)
            _, grads = lwf_penalty_and_grads(teacher, student, imgs, txts, 0.7)
            fd = finite_diff_grad(
                lambda _: lwf_penalty_and_grads(teacher, student, imgs, txts, 0.7)[0], student.vector
            )
            for i, (got, want) in enumerate(zip(tensors(grads), tensors(TwoTowerParams(fd, student.layout)))):
                assert rel_err(got, want) < 1e-4, i


class TestLwfPenalty:
    def test_identical_models_zero_penalty(self):
        p = init_params(DIMS, Rng(7))
        imgs, txts = small_batch(8, n=4)
        pen, grads = lwf_penalty_and_grads(p, p, imgs, txts, 1.0)
        assert abs(pen) < 1e-12
        assert np.abs(grads.vector).max() < 1e-12

    def test_single_pair_zero(self):
        t = init_params(DIMS, Rng(1))
        s = init_params(DIMS, Rng(2))
        imgs, txts = small_batch(3, n=1)
        pen, _ = lwf_penalty_and_grads(t, s, imgs, txts, 1.0)
        assert abs(pen) < 1e-12

    def test_hand_computed_kl(self):
        # KL of softmax([1,0]) rows against uniform rows, both directions
        def softmax_rows(m):
            e = np.exp(m - m.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        pt = softmax_rows(np.array([[1.0, 0.0], [0.0, 1.0]]))
        qs = softmax_rows(np.zeros((2, 2)))
        per_dir = float((pt * (np.log(pt) - np.log(qs))).sum(axis=1).mean())
        assert abs(per_dir - 0.110944) < 1e-5

    def test_lambda_scales_linearly(self):
        t = init_params(DIMS, Rng(4))
        s = init_params(DIMS, Rng(5))
        imgs, txts = small_batch(6, n=3)
        p1, _ = lwf_penalty_and_grads(t, s, imgs, txts, 1.0)
        p2, _ = lwf_penalty_and_grads(t, s, imgs, txts, 2.0)
        assert abs(p2 - 2 * p1) < 1e-12


class TestTrainMinibatch:
    @staticmethod
    def make_state(seed=0):
        """Parameters, and the `adam` and `grads` keywords that train them."""
        p = init_params(DIMS, Rng(seed))
        grads = TwoTowerParams(np.empty_like(p.vector), p.layout)
        return p, {"adam": AdamState.init_like(p.vector), "grads": grads}

    def test_lr_zero_keeps_params(self):
        params, state = self.make_state()
        imgs, txts = small_batch(1, n=4)
        before = params.vector.copy()
        train_minibatch(params, imgs, txts, 0.0, None, [], **state)
        assert np.array_equal(params.vector, before)
        assert state["adam"].step_count == 1

    def test_loss_record_matches_clip_loss(self):
        params, state = self.make_state()
        imgs, txts = small_batch(2, n=4)
        expected, grads = clip_loss_and_grads(params, imgs, txts)
        rec = train_minibatch(params, imgs, txts, 1e-3, None, [], **state)
        assert rec["loss"] == expected
        assert np.array_equal(state["grads"].vector, grads.vector)  # the step's gradients, where the caller put them

    def test_scale_clamped(self):
        params, state = self.make_state()
        params.log_scale = np.log(99.999)
        imgs, txts = small_batch(3, n=4)
        for _ in range(20):
            train_minibatch(params, imgs, txts, 0.5, None, [], **state)
            assert np.exp(params.log_scale) <= 100.0 + 1e-12

    def test_loss_decreases_on_separable_toy_stream(self):
        # regression bound: 200 steps with 8 distinct classes per batch beat
        # ln 2 (initial loss is ln 8 for a random model)
        rng = Rng(42)
        protos_img = rng.split("pi").normal((8, DIMS.image_dim)) * 2
        protos_txt = rng.split("pt").normal((8, DIMS.text_dim)) * 2
        params, state = self.make_state(seed=1)
        loss = None
        for it in range(200):
            sub = rng.split("batch", it)
            imgs = protos_img + 0.05 * sub.split("ni").normal((8, DIMS.image_dim))
            txts = protos_txt + 0.05 * sub.split("nt").normal((8, DIMS.text_dim))
            rec = train_minibatch(params, imgs, txts, 3e-3, None, [], **state)
            loss = rec["loss"]
        assert loss < np.log(2)


    def test_teacher_step_matches_summed_wrapper_gradients(self):
        params, state = self.make_state(seed=3)
        adam = state["adam"]
        adam.step_count = 4
        adam.first_moment[-1] += 0.1
        teacher = init_params(DIMS, Rng(4))
        imgs, txts = small_batch(5, n=7)
        loss, grads = clip_loss_and_grads(params, imgs, txts)
        penalty, pgrads = lwf_penalty_and_grads(teacher, params, imgs, txts, 0.6)
        start = params.copy()
        want = start.vector.copy()
        ref = AdamState(adam.first_moment.copy(), adam.second_moment.copy(), adam.step_count)
        adam_step(want, grads.vector + pgrads.vector, ref, 1e-2)
        rec = train_minibatch(params, imgs, txts, 1e-2, teacher_targets(teacher, imgs, txts, 0.6), [], **state)
        named = zip(tensors(params), tensors(TwoTowerParams(want, params.layout)), tensors(start))
        for i, (got, want_t, before) in enumerate(named):
            assert rel_err(got - before, want_t - before) <= 1e-12, i
        assert (rec["loss"], rec["penalty"]) == (loss, penalty)

    def test_non_finite_input_stops_the_step(self):
        params, state = self.make_state()
        state["adam"].step_count = 41
        imgs, txts = small_batch(6, n=4)
        imgs[2, 1] = np.nan
        with pytest.raises(NumericError, match="iteration 41"):
            train_minibatch(params, imgs, txts, 1e-3, None, [], **state)


class TestWorkBuffers:
    def test_reuse_is_unobservable(self):
        p = init_params(DIMS, Rng(12))
        teacher = init_params(DIMS, Rng(13))
        batches = {n: small_batch(n + 60, n=n) for n in (4, 8)}
        targets = {n: teacher_targets(teacher, *batches[n], 0.9) for n in batches}
        for with_teacher in (False, True):
            # same size twice (buffers reused), then a resize and back
            calls = [(4, with_teacher), (4, not with_teacher), (8, with_teacher), (4, with_teacher)]
            outs, copies, work = [], [], []
            for n, t in calls:
                grads = TwoTowerParams(np.empty_like(p.vector), p.layout)
                outs.append(_contrastive_step(p, *batches[n], grads, targets[n] if t else None, work=work) + (grads,))
                copies.append(grads.vector.copy())
                # an earlier call's gradients survive this call
                for out, copy in zip(outs, copies):
                    assert np.array_equal(out[2].vector, copy)
            assert outs[3][:2] == outs[0][:2]
            assert np.array_equal(copies[3], copies[0])


def make_checkpoint(seed=0, method_id="x", trained_through_step=0):
    return Checkpoint(init_params(DIMS, Rng(seed)), trained_through_step, method_id)


class TestCheckpointIO:
    def test_round_trip_bit_exact(self, tmp_path):
        ckpt = make_checkpoint(33, "sequential", trained_through_step=3)
        ckpt.params.image_layers[1][1][:] = Rng(34).normal(DIMS.embed_dim)  # nonzero biases
        path = tmp_path / "ck.ticc"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert (back.method_id, back.trained_through_step) == ("sequential", 3)
        assert back.params.layout == ckpt.params.layout
        assert back.params.vector.tobytes() == ckpt.params.vector.tobytes()

    def test_layout_is_header_parameters_and_digest(self, tmp_path):
        # magic, version 3, method id, trained-through step, both towers'
        # layer shapes, vector length, the vector, then SHA-256 of the rest
        ckpt = make_checkpoint(35, "lwf", trained_through_step=2)
        path = tmp_path / "ck.ticc"
        save_checkpoint(path, ckpt)
        data = path.read_bytes()
        n = ckpt.params.vector.size
        header = b"TICC" + struct.pack("<II", 3, 3) + b"lwf" + struct.pack("<I", 2)
        for fan_ins in ((DIMS.image_dim, DIMS.hidden_dim), (DIMS.text_dim, DIMS.hidden_dim)):
            header += struct.pack("<5I", 2, fan_ins[0], DIMS.hidden_dim, fan_ins[1], DIMS.embed_dim)
        body = header + struct.pack("<Q", n) + ckpt.params.vector.astype("<f8").tobytes()
        assert data == body + hashlib.sha256(body).digest()

    def test_loaded_params_are_writable_views(self, tmp_path):
        path = tmp_path / "ck.ticc"
        save_checkpoint(path, make_checkpoint())
        params = load_checkpoint(path).params
        params.image_layers[0][1][0] = 0.5
        params.log_scale = 1.25
        assert params.vector[DIMS.image_dim * DIMS.hidden_dim] == 0.5
        assert params.vector[-1] == 1.25

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ticc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 0

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.ticc"
        save_checkpoint(path, make_checkpoint())
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_version_1_layout_refused(self, tmp_path):
        # the version-1 layout: header, then named arrays (count, and per
        # array its name, rank, dims and f64 data)
        arrays = {"log_scale": np.array(2.0), "adam.meta": np.array([0.0, 0.9, 0.999, 1e-8])}
        body = struct.pack("<I", len(arrays))
        for name, arr in sorted(arrays.items()):
            body += struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", arr.ndim)
            body += struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f8").tobytes()
        v1 = b"TICC" + struct.pack("<II", 1, 1) + b"x" + struct.pack("<IQ", 0, 0) + body
        # the version-2 layout: Adam's counters in the header, then the
        # parameter vector and both Adam moments, with no digest
        p = init_params(DIMS, Rng(0))
        v2 = b"TICC" + struct.pack("<II", 2, 1) + b"x" + struct.pack("<IQQddd", 1, 8, 8, 0.9, 0.999, 1e-8)
        for shapes in p.layout:
            v2 += struct.pack(f"<{1 + 2 * len(shapes)}I", len(shapes), *(d for s in shapes for d in s))
        v2 += struct.pack("<Q", p.vector.size) + 3 * p.vector.astype("<f8").tobytes()
        path = tmp_path / "old.ticc"
        for version, data in ((1, v1), (2, v2)):
            path.write_bytes(data)
            with pytest.raises(FormatError, match=f"version {version}") as exc:
                load_checkpoint(path)
            assert exc.value.offset == 4

    def test_vector_length_must_match_shapes(self, tmp_path):
        ckpt = make_checkpoint()
        n = ckpt.params.vector.size
        path = tmp_path / "n.ticc"
        save_checkpoint(path, ckpt)
        data = bytearray(path.read_bytes())
        at = len(data) - 32 - 8 * n - 8
        assert struct.unpack("<Q", data[at : at + 8]) == (n,)
        data[at : at + 8] = struct.pack("<Q", n - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="vector length") as exc:
            load_checkpoint(path)
        assert exc.value.offset == at

    def test_trailing_bytes_refused(self, tmp_path):
        path = tmp_path / "tail.ticc"
        save_checkpoint(path, make_checkpoint())
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing") as exc:
            load_checkpoint(path)
        assert exc.value.offset == size

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "t.ticc"
        save_checkpoint(path, make_checkpoint())
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(FormatError, match="offset"):
            load_checkpoint(path)

    def test_truncated_vector_reports_the_cut_value(self, tmp_path):
        path = tmp_path / "t.ticc"
        save_checkpoint(path, make_checkpoint())
        data = path.read_bytes()
        path.write_bytes(data[: -32 - 13])  # 13 bytes into the vector, before the 32-byte digest
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == len(data) - 32 - 16

    def test_digest_mismatch_refused(self, tmp_path):
        path = tmp_path / "d.ticc"
        save_checkpoint(path, make_checkpoint())
        data = bytearray(path.read_bytes())
        data[-40] ^= 0x01  # the lowest bit of log_scale, the vector's last value
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="SHA-256") as exc:
            load_checkpoint(path)
        assert exc.value.offset == len(data) - 32

    def test_any_flipped_byte_or_cut_is_refused(self, tmp_path):
        ckpt = Checkpoint(init_params(ModelDims(2, 2, 1, 1), Rng(36)), 1, "x")
        path = tmp_path / "tiny.ticc"
        save_checkpoint(path, ckpt)
        data = path.read_bytes()
        for i in range(len(data)):
            for flip in (0x01, 0x80, 0xFF):
                bad = bytearray(data)
                bad[i] ^= flip
                path.write_bytes(bytes(bad))
                with pytest.raises(FormatError):
                    load_checkpoint(path)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="truncated"):
                load_checkpoint(path)

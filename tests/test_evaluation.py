import numpy as np
import pytest

from ticstream import evaluation
from ticstream.datagen import RecordBatch, StreamConfig, generate_stream
from ticstream.errors import NumericError, RunError
from ticstream.evaluation import (
    _BLOCK_BYTES,
    _paired_hits,
    _top1,
    build_performance_matrix,
    retrieval_score,
    summarize,
    zero_shot_accuracy,
)
from ticstream.model import ModelDims, encode, init_params
from ticstream.numerics import Rng, l2_normalize_rows
from ticstream.schedule import BudgetLedger, forward_macs_per_sample


def brute_force_recall(queries, gallery, truth):
    hits = 0
    for qi in range(len(queries)):
        best, best_sim = 0, -np.inf
        for gi in range(len(gallery)):
            sim = float(queries[qi] @ gallery[gi])
            if sim > best_sim:
                best, best_sim = gi, sim
        hits += int(best == truth[qi])
    return hits / len(queries)


def recall(hits):
    return float(np.mean(hits))


class TestRecallAt1:
    def test_self_retrieval(self):
        embs = l2_normalize_rows(Rng(0).normal((8, 5)))
        image_hits, text_hits = _paired_hits(embs, embs)
        assert recall(image_hits) == 1.0 and recall(text_hits) == 1.0

    def test_swapped_query(self):
        gallery = l2_normalize_rows(np.eye(3))
        queries = gallery.copy()
        queries[0] = gallery[1]  # query 0 now points at gallery item 1
        queries[1] = gallery[2]
        assert recall(_paired_hits(queries, gallery)[0]) == pytest.approx(1 / 3)

    def test_identical_gallery_tie_rule(self):
        gallery = np.tile(l2_normalize_rows(Rng(1).normal((1, 4))), (5, 1))
        queries = l2_normalize_rows(Rng(2).normal((5, 4)))
        assert recall(_paired_hits(queries, gallery)[0]) == pytest.approx(1 / 5)

    def test_matches_brute_force_oracle(self):
        rng = Rng(7)
        for trial in range(100):
            sub = rng.split(trial)
            n = int(sub.uniform(1)[0] * 63) + 1
            d = int(sub.split("d").uniform(1)[0] * 7) + 2
            q = l2_normalize_rows(sub.split("q").normal((n, d)))
            g = l2_normalize_rows(sub.split("g").normal((n, d)))
            truth = np.arange(n)
            image_hits, text_hits = _paired_hits(q, g)
            assert recall(image_hits) == brute_force_recall(q, g, truth)
            assert recall(text_hits) == brute_force_recall(g, q, truth)

    def test_scale_invariance(self):
        rng = Rng(3)
        q = l2_normalize_rows(rng.split("q").normal((10, 6)))
        g = l2_normalize_rows(rng.split("g").normal((10, 6)))
        for unscaled, scaled in zip(_paired_hits(q, g), _paired_hits(7.5 * q, g)):
            assert np.array_equal(unscaled, scaled)

    def test_empty_rejected(self):
        with pytest.raises(RunError, match="empty query set"):
            _paired_hits(np.zeros((0, 3)), np.zeros((0, 3)))


def blocked_shapes(n_queries, n_gallery):
    """Asserts that `_top1` splits n_queries into several blocks, the last one short."""
    rows = _BLOCK_BYTES // (8 * n_gallery)
    assert n_queries > 2 * rows and n_queries % rows != 0


# integer-valued embeddings: every dot product is exact, whatever the
# summation order, so ties are exact too, and there are many of them
def int_embeddings(rng, n, d=8):
    return np.floor(rng.uniform(n * d) * 7 - 3).reshape(n, d)


class TestTop1:
    def test_matches_full_matrix_with_exact_ties(self):
        rng = Rng(17)
        gallery = int_embeddings(rng.split("g"), 2048)
        gallery[1500:1600] = gallery[100:200]  # duplicated rows: the earlier copy must win
        queries = int_embeddings(rng.split("q"), 333)
        blocked_shapes(len(queries), len(gallery))
        top = _top1(queries, gallery)
        sims = queries @ gallery.T
        first_max = [np.flatnonzero(row == row.max())[0] for row in sims]
        assert np.array_equal(top, first_max)
        assert np.sum((sims == sims.max(axis=1, keepdims=True)).sum(axis=1) > 1) > 50  # rows with ties
        assert not np.any((top >= 1500) & (top < 1600))

    def test_recall_both_directions_match_full_matrix(self):
        rng = Rng(18)
        u = l2_normalize_rows(rng.split("u").normal((2048, 6)))
        v = l2_normalize_rows(u + 0.3 * rng.split("v").normal((2048, 6)))
        v[1000] = v[10]  # tie: text 10 and text 1000 are the same row
        truth = np.arange(2048)
        sims = u @ v.T
        image_hits, text_hits = _paired_hits(u, v)
        for hits, full in ((image_hits, sims), (text_hits, sims.T)):
            expected = float(np.mean(np.argmax(full, axis=1) == truth))
            assert recall(hits) == expected
        assert 0.0 < recall(image_hits) < 1.0

    def test_zero_shot_matches_full_matrix(self):
        rng = Rng(19)
        params = init_params(ModelDims(6, 5, 8, 4), Rng(0))
        n_protos = 2048
        prototypes = rng.split("p").normal((n_protos, 5))
        prototypes[n_protos // 2:] = prototypes[: n_protos // 2]  # every prototype twice
        prototype_ids = 3 * np.arange(n_protos, dtype=np.int64) + 1
        images = rng.split("i").normal((333, 6))
        u = encode(params, images, "image")
        p = encode(params, prototypes, "text")
        pred = prototype_ids[np.argmax(u @ p.T, axis=1)]
        assert np.all(pred < prototype_ids[n_protos // 2])  # ties went to the first copy
        class_ids = pred.copy()
        class_ids[::3] = prototype_ids[5]  # wrong for most of these rows
        batch = RecordBatch(class_ids, images, np.zeros((333, 5)), np.ones(333, dtype=np.int64))
        blocked_shapes(len(batch), n_protos)
        expected = float(np.mean(pred == class_ids))
        assert zero_shot_accuracy(params, batch, prototype_ids, prototypes) == expected
        assert 0.5 < expected < 1.0

    def test_single_block_and_empty_queries(self):
        rng = Rng(20)
        g = int_embeddings(rng.split("g"), 5)
        q = int_embeddings(rng.split("q"), 3)
        assert np.array_equal(_top1(q, g), np.argmax(q @ g.T, axis=1))
        assert _top1(q[:0], g).shape == (0,)


def full_matrix_hits(u, v):
    """Both directions' hits from one full u @ v.T, as `np.argmax` gives them."""
    sims = u @ v.T
    truth = np.arange(len(u))
    return np.argmax(sims, axis=1) == truth, np.argmax(sims, axis=0) == truth


def random_batch(rng, n, image_dim, text_dim):
    return RecordBatch(np.zeros(n, dtype=np.int64), rng.split("i").normal((n, image_dim)),
                       rng.split("t").normal((n, text_dim)), np.ones(n, dtype=np.int64))


class TestPairedHits:
    def test_matches_full_matrix_over_several_blocks(self):
        # 2047 pairs: 2048 would split into 64-row blocks with no short one
        rng = Rng(21)
        u = l2_normalize_rows(rng.split("u").normal((2047, 6)))
        v = l2_normalize_rows(u + 0.3 * rng.split("v").normal((2047, 6)))
        blocked_shapes(2047, 2047)
        image_hits, text_hits = _paired_hits(u, v)
        want_image, want_text = full_matrix_hits(u, v)
        assert np.array_equal(image_hits, want_image)
        assert np.array_equal(text_hits, want_text)
        assert 0.0 < text_hits.mean() < 1.0
        assert not np.array_equal(image_hits, text_hits)

    def test_exact_ties_go_to_the_lowest_index(self, monkeypatch):
        rng = Rng(22)
        u = int_embeddings(rng.split("u"), 2047)
        v = u + np.floor(rng.split("v").uniform(2047 * 8) * 3 - 1).reshape(2047, 8)
        u[1500:1600] = u[100:200]  # duplicated image rows
        v[1700:1800] = v[300:400]  # duplicated text rows
        blocked_shapes(2047, 2047)
        tie_calls = []
        resolve = evaluation._diagonal_wins_tie

        def counting(u, v, cols, best):
            tie_calls.append(len(cols))
            return resolve(u, v, cols, best)

        monkeypatch.setattr(evaluation, "_diagonal_wins_tie", counting)
        image_hits, text_hits = _paired_hits(u, v)
        want_image, want_text = full_matrix_hits(u, v)
        assert np.array_equal(image_hits, want_image)
        assert np.array_equal(text_hits, want_text)
        assert tie_calls and tie_calls[0] > 100
        # the earlier copy of a duplicated row wins, in both directions
        assert text_hits[100:200].any() and not text_hits[1500:1600].any()
        assert image_hits[300:400].any() and not image_hits[1700:1800].any()

    def test_single_pair(self):
        rng = Rng(23)
        u, v = rng.split("u").normal((1, 4)), rng.split("v").normal((1, 4))
        image_hits, text_hits = _paired_hits(u, v)
        assert image_hits.tolist() == [True] and text_hits.tolist() == [True]

    def test_empty_batch_rejected(self, small_stream):
        with pytest.raises(RunError, match="empty query set"):
            _paired_hits(np.zeros((0, 3)), np.zeros((0, 3)))
        params = init_params(ModelDims(6, 5, 8, 4), Rng(0))
        with pytest.raises(RunError, match="empty query set"):
            retrieval_score(params, small_stream[0].eval_retrieval.take(np.arange(0)))

    def test_retrieval_score_matches_brute_force_oracle(self):
        rng = Rng(24)
        for trial in range(100):
            sub = rng.split(trial)
            n = int(sub.uniform(1)[0] * 63) + 1
            dims = ModelDims(int(sub.split("di").uniform(1)[0] * 5) + 2,
                             int(sub.split("dt").uniform(1)[0] * 5) + 2, 6, 3)
            params = init_params(dims, sub.split("p"))
            batch = random_batch(sub.split("b"), n, dims.image_dim, dims.text_dim)
            u = encode(params, batch.images, "image")
            v = encode(params, batch.texts, "text")
            truth = np.arange(n)
            expected = 0.5 * (brute_force_recall(u, v, truth) + brute_force_recall(v, u, truth))
            assert retrieval_score(params, batch) == expected

    def test_untied_data_never_takes_the_tie_path(self, monkeypatch):
        # falling back on every column would be correct but slow
        def refuse(*args):
            raise AssertionError("tie path ran on untied data")

        monkeypatch.setattr(evaluation, "_diagonal_wins_tie", refuse)
        rng = Rng(25)
        params = init_params(ModelDims(6, 5, 8, 4), rng.split("p"))
        batch = random_batch(rng.split("b"), 1000, 6, 5)
        blocked_shapes(1000, 1000)
        u = encode(params, batch.images, "image")
        v = encode(params, batch.texts, "text")
        want_image, want_text = full_matrix_hits(u, v)
        expected = 0.5 * (float(np.mean(want_image)) + float(np.mean(want_text)))
        assert retrieval_score(params, batch) == expected


@pytest.fixture(scope="module")
def small_stream():
    cfg = StreamConfig(
        num_steps=3, per_step_train_size=20, per_step_eval_size=8,
        image_dim=6, text_dim=5, latent_dim=4,
        class_birth_schedule=((1, 2),), drift_angle=0.2, noise_sigma=0.05,
        static_class_count=2, seed=31,
    )
    return generate_stream(cfg)


class TestRetrievalScore:
    @pytest.mark.parametrize("column", ["images", "texts"])
    def test_nan_input_row_raises(self, small_stream, column):
        batch = small_stream[0].eval_retrieval.take(np.arange(6))
        getattr(batch, column)[3, 0] = np.nan
        with pytest.raises(NumericError):
            retrieval_score(init_params(ModelDims(6, 5, 8, 4), Rng(0)), batch)


class TestZeroShot:
    def test_single_class_perfect(self, small_stream):
        ds = small_stream[0]
        params = init_params(ModelDims(6, 5, 8, 4), Rng(0))
        one_class = ds.eval_classification.take(
            np.where(ds.eval_classification.class_ids == ds.eval_classification.class_ids[0])[0]
        )
        keep = ds.prototype_ids == one_class.class_ids[0]
        acc = zero_shot_accuracy(params, one_class, ds.prototype_ids[keep], ds.prototypes[keep])
        assert acc == 1.0

    def test_untrained_model_near_chance(self, small_stream):
        # statistical oracle: mean accuracy of random models within a 3-sigma
        # binomial band around 1/C
        ds = small_stream[0]
        n_classes = len(ds.prototype_ids)
        accs = []
        for seed in range(20):
            params = init_params(ModelDims(6, 5, 8, 4), Rng(seed))
            accs.append(zero_shot_accuracy(
                params, ds.eval_classification, ds.prototype_ids, ds.prototypes))
        p = 1 / n_classes
        n_total = 20 * len(ds.eval_classification)
        sigma = np.sqrt(p * (1 - p) / n_total)
        assert abs(np.mean(accs) - p) < 5 * sigma + 0.05

    def test_empty_batch_rejected(self, small_stream):
        ds = small_stream[0]
        params = init_params(ModelDims(6, 5, 8, 4), Rng(0))
        with pytest.raises(RunError, match="empty query set"):
            zero_shot_accuracy(params, ds.eval_classification.take(np.arange(0)),
                               ds.prototype_ids, ds.prototypes)

    def test_missing_prototype_rejected(self, small_stream):
        ds = small_stream[0]
        params = init_params(ModelDims(6, 5, 8, 4), Rng(0))
        with pytest.raises(RunError, match="no prototype for classes"):
            zero_shot_accuracy(params, ds.eval_classification,
                               ds.prototype_ids[:1], ds.prototypes[:1])


class TestPerformanceMatrix:
    def make_params(self, n):
        return [init_params(ModelDims(6, 5, 8, 4), Rng(s)) for s in range(n)]

    def test_single_step(self, small_stream):
        m = build_performance_matrix(self.make_params(1), small_stream[:1], BudgetLedger(1000))
        for task, metric in (("retrieval", "recall_at_1"), ("classification", "accuracy")):
            assert (m[task]["T"], m[task]["task"], m[task]["metric"]) == (1, task, metric)
            assert len(m[task]["entries"]) == 1
            assert m[task]["backward"] is None and m[task]["forward"] is None

    def test_entries_match_single_pair_calls(self, small_stream):
        params = self.make_params(3)
        m = build_performance_matrix(params, small_stream, BudgetLedger(1000))
        for i in range(3):
            for j in range(3):
                ds = small_stream[j]
                direct = retrieval_score(params[i], ds.eval_retrieval)
                assert m["retrieval"]["entries"][3 * i + j] == direct
                direct = zero_shot_accuracy(params[i], ds.eval_classification, ds.prototype_ids, ds.prototypes)
                assert m["classification"]["entries"][3 * i + j] == direct
        for task in ("retrieval", "classification"):
            assert {k: m[task][k] for k in ("in_domain", "backward", "forward")} == summarize(
                np.reshape(m[task]["entries"], (3, 3)))

    def test_recomputation_bit_identical(self, small_stream):
        params = self.make_params(3)
        a = build_performance_matrix(params, small_stream, BudgetLedger(1000))
        b = build_performance_matrix(params, small_stream, BudgetLedger(1000))
        assert np.array_equal(a["classification"]["entries"], b["classification"]["entries"])

    def test_retrieval_cells_are_scored_before_classification_cells(self, small_stream, monkeypatch):
        calls = []
        for name in ("retrieval_score", "zero_shot_accuracy"):
            scorer = getattr(evaluation, name)
            monkeypatch.setattr(evaluation, name,
                                lambda *args, name=name, scorer=scorer: calls.append(name) or scorer(*args))
        build_performance_matrix(self.make_params(3), small_stream, BudgetLedger(1000))
        assert calls == ["retrieval_score"] * 9 + ["zero_shot_accuracy"] * 9

    def test_eval_billed_forward_only(self, small_stream):
        params = self.make_params(3)
        led = BudgetLedger(1000)
        build_performance_matrix(params, small_stream, led)
        assert led.total_train_macs() == 0
        rows = sum(2 * len(ds.eval_retrieval) + len(ds.eval_classification) + len(ds.prototype_ids)
                   for ds in small_stream)
        per_checkpoint = forward_macs_per_sample(params[0].layout) * rows
        assert rows > 0 and led.eval_macs == {ds.timestep: per_checkpoint for ds in small_stream}

    def test_count_mismatch(self, small_stream):
        with pytest.raises(RunError, match="2 checkpoints vs 3 eval sets"):
            build_performance_matrix(self.make_params(2), small_stream, BudgetLedger(1000))


class TestSummarize:
    def test_identity_matrix(self):
        s = summarize(np.eye(2))
        assert (s["in_domain"], s["backward"], s["forward"]) == (1.0, 0.0, 0.0)

    def test_hand_example(self):
        s = summarize(np.arange(1, 10).reshape(3, 3) / 10)
        assert s["in_domain"] == pytest.approx(0.5)
        assert s["backward"] == pytest.approx((4 + 7 + 8) / 30)
        assert s["forward"] == pytest.approx((2 + 3 + 6) / 30)

    def test_constant_matrix(self):
        s = summarize(np.full((4, 4), 0.37))
        assert s["in_domain"] == pytest.approx(0.37)
        assert s["backward"] == pytest.approx(0.37)
        assert s["forward"] == pytest.approx(0.37)

    def test_matches_direct_averaging_on_random_matrices(self):
        rng = Rng(5)
        for trial in range(100):
            t = int(rng.split(trial, "t").uniform(1)[0] * 6) + 2
            e = rng.split(trial, "e").uniform(t * t).reshape(t, t)
            s = summarize(e)
            diag = [e[i, i] for i in range(t)]
            lower = [e[i, j] for i in range(t) for j in range(t) if i > j]
            upper = [e[i, j] for i in range(t) for j in range(t) if i < j]
            assert abs(s["in_domain"] - sum(diag) / len(diag)) < 1e-12
            assert abs(s["backward"] - sum(lower) / len(lower)) < 1e-12
            assert abs(s["forward"] - sum(upper) / len(upper)) < 1e-12

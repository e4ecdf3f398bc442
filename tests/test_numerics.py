import numpy as np
import pytest

from ticstream.errors import NumericError, RunError
from ticstream.numerics import (
    AdamState,
    Rng,
    adam_step,
    finite_diff_grad,
    l2_normalize_rows,
    softmax_rows,
)


class TestSoftmaxRows:
    def test_uniform_logits(self):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_hand_example(self):
        out = softmax_rows(np.array([[1.0, 0.0]]))
        e = np.e
        assert np.allclose(out, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)

    def test_rows_sum_to_one_property(self):
        rng = Rng(3)
        for trial in range(50):
            m = rng.split(trial).normal((6, 9)) * 50
            assert np.abs(softmax_rows(m).sum(axis=1) - 1).max() < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax_rows(np.array([[np.nan, 0.0]]))


class TestL2NormalizeRows:
    def test_hand_example(self):
        assert np.allclose(l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]], atol=1e-15)

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(l2_normalize_rows(row), row, atol=1e-15)

    def test_idempotent(self):
        rng = Rng(5)
        for trial in range(30):
            m = rng.split(trial).normal((4, 7))
            once = l2_normalize_rows(m)
            assert np.abs(l2_normalize_rows(once) - once).max() < 1e-12

    def test_zero_row_rejected(self):
        with pytest.raises(NumericError):
            l2_normalize_rows(np.zeros((1, 3)))

    def test_nan_row_rejected(self):
        m = np.ones((3, 2))
        m[1, 0] = np.nan
        with pytest.raises(NumericError):
            l2_normalize_rows(m)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, 1e200])
    def test_non_finite_norm_rejected(self, value):
        # 1e200 is finite, but its square overflows the norm to inf
        m = np.ones((3, 2))
        m[2, 1] = value
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            l2_normalize_rows(m)


class TestAdam:
    def test_lr_zero_keeps_params_bit_identical(self):
        params = Rng(1).normal(6)
        grads = Rng(2).normal(6)
        state = AdamState.init_like(params)
        new_p, new_s = adam_step(params, grads, state, lr=0.0)
        assert np.array_equal(new_p, params)
        assert new_s.step_count == 1
        assert np.abs(new_s.first_moment).max() > 0  # moments still move

    def test_first_step_hand_computation(self):
        params = np.array([0.0])
        grads = np.array([1.0])
        state = AdamState.init_like(params)
        new_p, _ = adam_step(params, grads, state, lr=0.001)
        # bias-corrected m_hat = v_hat = 1, so the step is -lr / (1 + eps)
        assert abs(float(new_p[0]) + 0.001) < 1e-8

    def test_identical_params_get_identical_updates(self):
        params = np.array([0.5, 0.5])
        grads = np.array([0.3, 0.3])
        new_p, _ = adam_step(params, grads, AdamState.init_like(params), lr=0.01)
        assert float(new_p[0]) == float(new_p[1])

    def test_step_count_increases(self):
        params = np.array([1.0])
        state = AdamState.init_like(params)
        for expect in (1, 2, 3):
            params, state = adam_step(params, np.array([0.1]), state, 0.01)
            assert state.step_count == expect

    def test_shape_mismatch(self):
        params = np.zeros(4)
        grads = np.zeros(3)
        with pytest.raises(RunError, match="grad shape"):
            adam_step(params, grads, AdamState.init_like(params), 0.01)

    def test_out_of_place(self):
        # checkpoints may share a parameter vector, so nothing is updated in place
        params = Rng(3).normal(5)
        state = AdamState.init_like(params)
        kept = params.copy(), state.first_moment.copy(), state.second_moment.copy()
        adam_step(params, Rng(4).normal(5), state, 0.1)
        assert all(np.array_equal(a, b) for a, b in zip(kept, (params, state.first_moment, state.second_moment)))


class TestFiniteDiff:
    def test_quadratic(self):
        params = np.array([3.0])
        g = finite_diff_grad(lambda p: float(p[0] ** 2), params, h=1e-5)
        assert abs(float(g[0]) - 6.0) < 1e-6

    def test_constant(self):
        params = np.array([1.0, 2.0])
        g = finite_diff_grad(lambda p: 4.2, params, h=1e-5)
        assert np.abs(g).max() < 1e-9

    def test_params_restored(self):
        params = np.array([0.1, -2.0, 7.5])
        finite_diff_grad(lambda p: float((p * p).sum()), params)
        assert np.array_equal(params, [0.1, -2.0, 7.5])


class TestRng:
    def test_replay_identical_sequences(self):
        a = Rng(123, 45)
        b = Rng(123, 45)
        assert [a.next_u64() for _ in range(10_000)] == [b.next_u64() for _ in range(10_000)]

    def test_streams_differ(self):
        assert Rng(1, 0).next_u64() != Rng(1, 1).next_u64()
        assert Rng(1, 0).next_u64() != Rng(2, 0).next_u64()

    def test_bulk_deterministic(self):
        assert np.array_equal(Rng(9).u64(100), Rng(9).u64(100))

    def test_uniform_range(self):
        u = Rng(4).uniform(10_000)
        assert u.min() >= 0 and u.max() < 1

    def test_normal_moments(self):
        x = Rng(8).normal(100_000)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1) < 0.02

    def test_permutation_is_permutation(self):
        p = Rng(6).permutation(257)
        assert sorted(p.tolist()) == list(range(257))

    def test_split_is_order_free(self):
        r = Rng(10)
        a = r.split("x", 1).next_u64()
        r2 = Rng(10)
        r2.split("y")
        assert r2.split("x", 1).next_u64() == a

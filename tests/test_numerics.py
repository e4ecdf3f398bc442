import numpy as np
import pytest

from ticstream.errors import NumericError, RunError
from ticstream.numerics import (
    AdamState,
    Rng,
    adam_step,
    finite_diff_grad,
    l2_normalize_rows,
)


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


def adam_reference(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place update adam_step replaced, as the oracle of its
    in-place arithmetic: returns (params, m, v) after step t."""
    m = b1 * m + (1 - b1) * grads
    v = b2 * v + (1 - b2) * grads * grads
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    def test_lr_zero_keeps_params_bit_identical(self):
        params = Rng(1).normal(6)
        before = params.copy()
        state = AdamState.init_like(params)
        adam_step(params, Rng(2).normal(6), state, lr=0.0)
        assert np.array_equal(params, before)
        assert state.step_count == 1
        assert np.abs(state.first_moment).max() > 0  # moments still move

    def test_first_step_hand_computation(self):
        params = np.array([0.0])
        grads = np.array([1.0])
        adam_step(params, grads, AdamState.init_like(params), lr=0.001)
        # bias-corrected m_hat = v_hat = 1, so the step is -lr / (1 + eps)
        assert abs(float(params[0]) + 0.001) < 1e-8

    def test_identical_params_get_identical_updates(self):
        params = np.array([0.5, 0.5])
        grads = np.array([0.3, 0.3])
        adam_step(params, grads, AdamState.init_like(params), lr=0.01)
        assert float(params[0]) == float(params[1])

    def test_step_count_increases(self):
        params = np.array([1.0])
        state = AdamState.init_like(params)
        for expect in (1, 2, 3):
            adam_step(params, np.array([0.1]), state, 0.01)
            assert state.step_count == expect

    def test_shape_mismatch(self):
        params = np.zeros(4)
        grads = np.zeros(3)
        with pytest.raises(RunError, match="grad shape"):
            adam_step(params, grads, AdamState.init_like(params), 0.01)

    def test_in_place_matches_out_of_place_reference_bitwise(self):
        # from non-zero moments part-way through a run, with a changing lr
        rng = Rng(3)
        params = rng.split("p").normal(40)
        state = AdamState(rng.split("m").normal(40) * 0.1, rng.split("v").uniform(40) * 0.01, 7,
                          0.9, 0.995, 1e-8)
        want_p, want_m, want_v = params.copy(), state.first_moment.copy(), state.second_moment.copy()
        moments = state.first_moment, state.second_moment
        for i, lr in enumerate((3e-3, 1e-3, 0.0, 2e-2)):
            grads = rng.split("g", i).normal(40)
            want_p, want_m, want_v = adam_reference(want_p, grads, want_m, want_v, 8 + i, lr, b2=0.995)
            adam_step(params, grads, state, lr)
            assert state.step_count == 8 + i
            assert params.tobytes() == want_p.tobytes()
            assert state.first_moment.tobytes() == want_m.tobytes()
            assert state.second_moment.tobytes() == want_v.tobytes()
        # the moments were updated where they are
        assert state.first_moment is moments[0] and state.second_moment is moments[1]


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

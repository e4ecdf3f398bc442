"""Row normalization, vector Adam, finite differences, and a platform-stable
seeded RNG.

Everything here is double precision. `adam_step` updates the parameter
vector and its `AdamState` in place; an `AdamState` lives for one step's
training and is never saved, since every step restarts Adam. `Rng` advances
its own state. Every other function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RunError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 output mixing function (scalar)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output mixing function, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_key(*parts) -> int:
    """Fold ints/strings into a 64-bit stream id, order-sensitive."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        if isinstance(p, str):
            for b in p.encode("utf-8"):
                acc = _mix64(acc + _GAMMA * (b + 1))
        else:
            acc = _mix64(acc + _GAMMA * ((int(p) & _MASK64) + 1))
    return acc


class Rng:
    """Deterministic generator: xoshiro256** scalar stream, seeded by SplitMix64.

    Bulk draws expand a single xoshiro output through a counter-mode
    SplitMix64 stream so they vectorize; both paths are exact integer
    arithmetic and therefore identical on every platform.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        sm = _mix64(self.seed + _GAMMA * (self.stream_id + 1))
        s = []
        for _ in range(4):
            sm = (sm + _GAMMA) & _MASK64
            s.append(_mix64(sm))
        if not any(s):
            s[0] = _GAMMA
        self._s = s

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & _MASK64

    def next_u64(self) -> int:
        s = self._s
        result = (self._rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = self._rotl(s[3], 45)
        return result

    def split(self, *parts) -> "Rng":
        """Derived generator keyed by (seed, this stream, parts); call-order free."""
        return Rng(self.seed, stream_key(self.stream_id, *parts))

    def u64(self, n: int) -> np.ndarray:
        base = np.uint64(self.next_u64())
        ctr = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        return _mix64_np(base + ctr)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self.u64(n) >> np.uint64(11)) * (2.0**-53)

    def normal(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller."""
        n = int(np.prod(shape)) if not isinstance(shape, int) else shape
        m = (n + 1) // 2
        u1 = ((self.u64(m) >> np.uint64(11)) + np.uint64(1)) * (2.0**-53)  # (0, 1]
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        return out.reshape(shape) if not isinstance(shape, int) else out

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self.u64(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of range(n)."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        return self.permutation(n)[:k]


def row_norms(m: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, as an (n, 1) column; a zero, NaN or infinite norm is a NumericError."""
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    # written so that a NaN norm fails the test too
    if not np.all((norms > 1e-12) & (norms < np.inf)):
        raise NumericError("zero-norm or non-finite embedding row")
    return norms


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    return m / row_norms(m)


@dataclass
class AdamState:
    """Adam moments, each a vector in the layout of the parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def init_like(cls, params: np.ndarray, beta1=0.9, beta2=0.999, epsilon=1e-8):
        return cls(np.zeros_like(params), np.zeros_like(params), 0, beta1, beta2, epsilon)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of `params` and `state`, in place."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if grads.shape != params.shape:
        raise RunError(f"grad shape {grads.shape} != param shape {params.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    m, v = state.first_moment, state.second_moment
    # m' = b1 m + (1-b1) g, v' = b2 v + ((1-b2) g) g and
    # p' = p - (lr (m'/(1-b1^t))) / (sqrt(v'/(1-b2^t)) + eps), one rounded
    # operation at a time in exactly this order: the trained bytes depend on it
    m *= b1
    m += grads * (1 - b1)
    v *= b2
    v += grads * (1 - b2) * grads
    params -= m / (1 - b1**t) * lr / (np.sqrt(v / (1 - b2**t)) + eps)


def finite_diff_grad(loss_fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of `loss_fn(params)`, coordinate by coordinate.

    Each coordinate of the vector `params` is perturbed in place and restored.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    grads = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        f_plus = loss_fn(params)
        params[i] = orig - h
        f_minus = loss_fn(params)
        params[i] = orig
        grads[i] = (f_plus - f_minus) / (2 * h)
    return grads

"""Row normalization, vector Adam, finite differences, and a platform-stable
seeded RNG.

Everything here is double precision. `adam_step` updates the parameter
vector and its `AdamState` in place; an `AdamState` lives for one step's
training and is never saved, since every step restarts Adam. `Rng` advances
its own state, and `_mix64_np` mixes the array it is given in place. Every
other function is pure. Bulk normals are drawn `_NORMAL_BLOCK` Box-Muller
pairs at a time, written straight into their output, so a draw holds little
more than its output; the values are bit for bit those of one pass over all
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RunError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Box-Muller pairs `Rng.normal` makes at once: a block's few temporaries of
# this many values stay far below the size of a bulk draw's output.
_NORMAL_BLOCK = 1 << 13


def _mix64(z: int) -> int:
    """SplitMix64 output mixing function (scalar)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output mixing function, vectorized over a uint64 array, which it mixes in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


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
        """Standard normals via Box-Muller: of m = ceil(n / 2) pairs (u1, u2), the
        first m values are r cos(2 pi u2) and the rest r sin(2 pi u2), with
        r = sqrt(-2 log u1). u1 in (0, 1] and u2 in [0, 1) are counter-mode
        draws from one base each, so the pairs are made `_NORMAL_BLOCK` at a
        time straight into the output, bit for bit what all at once gives."""
        n = int(np.prod(shape)) if not isinstance(shape, int) else shape
        m = (n + 1) // 2
        base1, base2 = np.uint64(self.next_u64()), np.uint64(self.next_u64())
        out = np.empty(n)
        for lo in range(0, m, _NORMAL_BLOCK):
            hi = min(lo + _NORMAL_BLOCK, m)
            ctr = np.arange(lo + 1, hi + 1, dtype=np.uint64)
            ctr *= np.uint64(_GAMMA)
            z = _mix64_np(base1 + ctr)
            z >>= np.uint64(11)
            z += np.uint64(1)
            r = z * (2.0**-53)  # u1
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            ctr += base2
            z = _mix64_np(ctr)
            z >>= np.uint64(11)
            angle = z * (2.0**-53)  # u2
            angle *= 2.0 * np.pi
            cos = out[lo:hi]
            np.cos(angle, out=cos)
            cos *= r
            k = min(hi, n - m) - lo  # an odd n drops the last sine
            sin = out[m + lo : m + lo + k]
            np.sin(angle[:k], out=sin)
            sin *= r[:k]
        return out.reshape(shape) if not isinstance(shape, int) else out

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self.u64(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of range(n)."""
        if k > n:
            raise RunError(f"cannot draw {k} distinct indices from {n}")
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moments, each a vector in the layout of the parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def init_like(cls, params: np.ndarray):
        return cls(np.zeros_like(params), np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of `params` and `state`, in place."""
    if lr < 0:
        raise RunError("lr must be >= 0")
    if grads.shape != params.shape:
        raise RunError(f"grad shape {grads.shape} != param shape {params.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
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
        raise RunError("h must be > 0")
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

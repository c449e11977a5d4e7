"""Seedable random streams and the discrete Laplace sampler that the budget ledger draws from.

All randomness in the package flows through :class:`RandomSource`, a thin
wrapper around a counter-based generator (Philox) keyed by a hash of
``(seed, stream path)``. Child streams derived from distinct indices are
statistically independent and reproducible regardless of how much the
parent stream has been consumed, which is what makes parallel repetitions
give the same answer as sequential ones.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # numpy imports it lazily; import it with the package, so that forked workers inherit it

__all__ = ["RandomSource", "discrete_laplace_sample"]

_MAX_SEED = 2**64


class RandomSource:
    """A reproducible random stream with hash-derived child streams.

    Identical ``(seed, path)`` pairs always yield bit-identical sample
    sequences. A ``RandomSource`` must not be shared across concurrent
    tasks; derive one child per task instead.
    """

    __slots__ = ("seed", "path", "generator")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self.generator = np.random.Generator(np.random.Philox(ss))

    def child(self, *indices: int) -> "RandomSource":
        """Derive the independent stream for ``path + indices``.

        Does not consume state from this stream, so children are the same
        whether they are created before, after, or instead of local draws.
        """
        return RandomSource(self.seed, self.path + indices)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self.path})"


def discrete_laplace_sample(scale: float, rng: RandomSource, size=None):
    """Discrete Laplace sample(s), int64: P(K=k) = ((e^(1/b)-1)/(e^(1/b)+1)) e^(-|k|/b).

    Sampled exactly as the difference of two geometric variates on {0, 1, ...}
    with success probability 1 - e^(-1/b), not by rounding a continuous
    variate: ``floor(b * Exp(1))`` is such a geometric because P(k <= bE < k+1)
    = e^(-k/b)(1 - e^(-1/b)). ``size=None`` draws one scalar.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    e1 = rng.generator.exponential(1.0, size)
    e2 = rng.generator.exponential(1.0, size)
    return np.floor(scale * e1).astype(np.int64) - np.floor(scale * e2).astype(np.int64)

"""Heavy-tailed stochastic gradient oracles with counter-based seeding.

Each (base_seed, node, iteration) triple owns an independent stream: PCG64
seeded by `SeedSequence((base_seed, node, iteration))`, the generator that
`np.random.default_rng((base_seed, node, iteration))` builds. Draws are
therefore order-independent and reruns are bit-identical. `sample_noise`
draws a whole round's node stack at once; the SeedSequence hashes are
computed 64 rounds at a time in one vectorised pass and handed to PCG64
directly, which changes the cost of seeding but not a single draw.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import problems

GAUSSIAN = "gaussian"
STUDENT_T = "student_t"
FAMILIES = (GAUSSIAN, STUDENT_T)


@dataclass(frozen=True)
class NoiseModel:
    """Noise family and tail parameters for the stochastic gradient oracle.

    `alpha` is the moment order that stays bounded; Student-t with
    dof > alpha keeps that moment finite while the variance diverges for
    dof <= 2. The Gaussian family is the alpha = 2 control. scale = 0 gives
    the exact-gradient (noiseless) oracle.
    """

    family: str
    alpha: float = 2.0
    scale: float = 1.0
    dof: float | None = None
    base_seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"noise family must be one of {FAMILIES}, got {self.family!r}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.scale < 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        if self.family == GAUSSIAN and self.alpha != 2.0:
            raise ValueError("gaussian noise is only valid with alpha = 2")
        if self.family == STUDENT_T:
            if self.dof is None:
                raise ValueError("student_t noise requires dof")
            if self.dof <= self.alpha:
                raise ValueError(
                    f"student_t dof must exceed alpha for a finite alpha-moment, "
                    f"got dof={self.dof}, alpha={self.alpha}"
                )
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must be a 64-bit nonnegative integer, got {self.base_seed}")


def sample_noise(model: NoiseModel, m: int, n: int, n_nodes: int, iteration: int) -> np.ndarray:
    """Draw one zero-mean m x n noise matrix per node: the (n_nodes, m, n) stack of one round.

    Row i comes from the stream of `(base_seed, i, iteration)`, so it does
    not depend on `n_nodes`. Both keys must be below 2**32.
    """
    if not 1 <= n_nodes < _KEY_LIMIT:
        raise ValueError(f"n_nodes must lie in [1, 2**32), got {n_nodes}")
    if not 0 <= iteration < _KEY_LIMIT:
        raise ValueError(f"iteration must lie in [0, 2**32), got {iteration}")
    block, offset = divmod(iteration, _BLOCK)
    seeds = _seed_block(model.base_seed, n_nodes, block)[:, offset]
    out = np.empty((n_nodes, m, n))
    for i, words in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        if model.family == GAUSSIAN:
            out[i] = rng.normal(0.0, model.scale, size=(m, n))
        else:
            out[i] = model.scale * rng.standard_t(model.dof, size=(m, n))
    return out


def stochastic_gradient(problem, i: int, x: np.ndarray, model: NoiseModel, iteration: int) -> np.ndarray:
    """Exact local gradient plus one sampled noise matrix (unbiased by construction)."""
    grad = problems.exact_gradient(problem, i, x)
    return grad + sample_noise(model, problem.m, problem.n, i + 1, iteration)[i]


class _SeedWords(ISeedSequence):
    """A seed sequence whose PCG64 state words were computed ahead, by `_seed_block`.

    PCG64 asks its seed sequence for exactly 4 uint64 words, once.
    """

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, pool size 4).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_KEY_LIMIT = 2**32
# Rounds whose seeds are hashed in one vectorised pass; hashing one round
# alone costs more than building its streams with SeedSequence.
_BLOCK = 64


def _hash_constants(init: int, mult: int, count: int) -> list:
    """(constant before, constant after) of `count` successive hashmix steps."""
    pairs = []
    for _ in range(count):
        nxt = (init * mult) & _MASK32
        pairs.append((init, nxt))
        init = nxt
    return pairs


# The constant sequence does not depend on the data: 4 pool fills and 12
# cross mixes, then 8 output words (4 uint64) for PCG64.
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_OUTPUT_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, before: int, after: int) -> np.ndarray:
    value = (value ^ np.uint32(before)) * np.uint32(after)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


# A run walks its blocks in order, so two entries cover it; more would only
# serve reruns of the same seeds in one process.
@functools.lru_cache(maxsize=2)
def _seed_block(base_seed: int, n_nodes: int, block: int) -> np.ndarray:
    """PCG64 seed words of every (node, round) stream of one block, shape (n_nodes, _BLOCK, 4).

    Entry [i, j] equals `SeedSequence((base_seed, i, block * _BLOCK + j))
    .generate_state(4, np.uint64)`: the entropy words are the base seed's
    one or two 32-bit words, the node and the iteration, hashed into a
    4-word pool exactly as numpy does, in uint32 arithmetic that wraps. A
    3-word entropy is padded with a zero word, which is what numpy's
    "keep running the hash out" over an unfilled pool word computes.
    """
    base_words = [base_seed & _MASK32] + ([base_seed >> 32] if base_seed > _MASK32 else [])
    # Full arrays, never numpy scalars: scalar uint32 overflow warns, array overflow wraps.
    entropy = np.zeros((_POOL_SIZE, n_nodes, _BLOCK), dtype=np.uint32)
    entropy[: len(base_words)] = np.array(base_words, dtype=np.uint32)[:, None, None]
    entropy[len(base_words)] = np.arange(n_nodes, dtype=np.uint32)[:, None]
    entropy[len(base_words) + 1] = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint32)
    constants = iter(_ENTROPY_HASH)
    pool = [_hashmix(word, *next(constants)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(constants)))
    state = np.stack(
        [_hashmix(pool[i % _POOL_SIZE], *c) for i, c in enumerate(_OUTPUT_HASH)], axis=-1
    ).astype(np.uint64)
    words = state[..., 0::2] | (state[..., 1::2] << np.uint64(32))
    words.flags.writeable = False
    return words

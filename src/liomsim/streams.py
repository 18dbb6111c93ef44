"""Many keyed numpy streams, seeded in one batched pass.

A keyed stream is np.random.default_rng(key) for a key that is a sequence
of non-negative integers: SeedSequence(key) hashes the key into a pool of
four 32-bit words and seeds PCG64 from generate_state(4, uint64).  All of
it is fixed integer arithmetic (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11, on keyed counter-style draws; O'Neill,
HMC-CS-2014-0905, on PCG), so pcg64_states runs it for a whole batch of
keys at once and returns, bit for bit, each key's seeded PCG64 state.  Two
readers build on it:

- first_doubles takes one PCG64 step and turns its XSL-RR output x into
  random()'s (x >> 11) * 2^-53;
- generators sets one PCG64 to each key's state in turn, so numpy's own
  samplers (standard_normal's ziggurat) draw from it.

The pool mixing runs over every key in one vectorised uint32 pass.  A key
whose integers give fewer 32-bit words than the longest key's is masked in
the words it lacks, not grouped apart, so a batch pays one fixed cost.  The
128-bit PCG64 seeding uses Python integers, one key at a time.

Two streams of model.build_random_instance(params, seed, ...) are part of
its contract:

- coupling I with order |I| <= max_body is

      default_rng([seed mod 2^64, 1, |I|, *I]).uniform(-b, b),
      b = exp(-range(I)/xi),

  which is -b + (b - (-b)) * u for the stream's first double u;
- constituent (k, n) draws from default_rng([seed mod 2^64, 2, k, n]) the
  real, then the imaginary parts of a d x d standard-normal matrix, d =
  2^n; a block wrapped past site N draws its piece on sites k..N first,
  then the one on 1..k+n-1-N, each real then imaginary.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64 seeded with (seed s, sequence i) sets its increment c = 2 i + 1 and
# takes two steps x -> x M + c from state 0, adding s between them
# (srandom), so its seeded state is s M + c (M + 1) mod 2^128.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_INC_MULT = _PCG_MULT + 1


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    """The constants hashmix and generate_state multiply by, in call order:
    they do not depend on the data, only on how many words were hashed."""
    out, value = [], init
    for _ in range(count):
        value = value * mult & _MASK32
        out.append(np.uint32(value))
    return out


def _entropy_words(keys: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Each key as SeedSequence coerces it: every integer becomes its
    little-endian 32-bit words (0 becomes one zero word), concatenated.
    Returns the words as a (keys, longest) uint32 array padded with zeros,
    and each key's word count."""
    flat: list[int] = []
    lengths: list[int] = []
    for key in keys:
        start = len(flat)
        for value in key:
            value = int(value)
            if 0 <= value <= _MASK32:
                flat.append(value)
                continue
            if value < 0:
                raise DomainError(f"stream key integers must be non-negative, got {value}")
            while value:
                flat.append(value & _MASK32)
                value >>= 32
        lengths.append(len(flat) - start)
    counts = np.array(lengths, dtype=np.intp)
    width = max(_POOL_SIZE, int(counts.max(initial=0)))
    words = np.zeros((len(counts), width), dtype=np.uint32)
    rows = np.repeat(np.arange(len(counts)), counts)
    cols = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
    words[rows, cols] = flat
    return words, counts


def _pools(words: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """SeedSequence.mix_entropy with a pool of four words, for every key at
    once: the pool words as four uint32 arrays over the keys."""
    n_extra = words.shape[1] - _POOL_SIZE
    consts = iter(_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * n_extra))
    prev = np.uint32(_INIT_A)

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal prev
        mult = next(consts)
        value = (value ^ prev) * mult
        prev = mult
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    # Words past a key's count are zero, as SeedSequence pads its pool.
    pool = [hashmix(words[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, words.shape[1]):
        has_word = counts > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(has_word, mix(pool[dst], hashmix(words[:, src])), pool[dst])
    return pool


def pcg64_states(keys: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """For each key, the (state, inc) of
    np.random.PCG64(np.random.SeedSequence(key)).state["state"], bit for
    bit: the generator default_rng(key) wraps, before its first draw.  A key
    is a sequence of non-negative integers; a negative one raises
    DomainError, where numpy raises ValueError."""
    words, counts = _entropy_words(keys)
    pool = _pools(words, counts)
    # generate_state(4, uint64): eight words, cycling through the pool, read
    # in little-endian pairs as seed[0], seed[1], inc[0], inc[1].
    state = []
    prev = np.uint32(_INIT_B)
    for i, mult in enumerate(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)):
        value = (pool[i % _POOL_SIZE] ^ prev) * mult
        prev = mult
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    halves = [(lo | (hi << np.uint64(32))).tolist() for lo, hi in zip(state[0::2], state[1::2])]
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        out.append(((((s_hi << 64) | s_lo) * _PCG_MULT + inc * _INC_MULT) & _MASK128, inc))
    return out


def first_doubles(keys: Sequence[Sequence[int]]) -> np.ndarray:
    """For each key, the double np.random.default_rng(key).random() gives,
    bit for bit: one PCG64 step from pcg64_states, then its XSL-RR output x
    as (x >> 11) * 2^-53."""
    out = []
    for state, inc in pcg64_states(keys):
        x = (state * _PCG_MULT + inc) & _MASK128
        # XSL-RR: the xor of the two halves, rotated right by the top 6 bits.
        rot = x >> 122
        low = ((x >> 64) ^ x) & _MASK64
        out.append(((low >> rot) | (low << (64 - rot)) & _MASK64) >> 11)
    return np.array(out, dtype=np.float64) * 2.0**-53


class _Unseeded(ISeedSequence):
    """The seed of a PCG64 whose state is set before every draw: it hands
    PCG64 zero words, so building one hashes nothing."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


def generators(keys: Sequence[Sequence[int]]) -> Iterator[np.random.Generator]:
    """For each key in turn, a Generator in the state
    np.random.default_rng(key) starts in, seeded by pcg64_states, so every
    numpy draw from it is default_rng(key)'s, bit for bit.  It is one
    Generator, re-seeded for each key: take a key's draws before advancing
    to the next."""
    bitgen = np.random.PCG64(_Unseeded())
    gen = np.random.Generator(bitgen)
    for state, inc in pcg64_states(keys):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen

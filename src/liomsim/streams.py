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
128-bit PCG64 arithmetic runs on pairs of uint64 arrays.  A batch
may be given as one seed and the keys' seed-free tails, as the model's
streams are: the tails' words and their hashes are then derived once per
batch of tails and cached, and only the mixing the seed enters runs per
call.

Two streams of model.build_random_instance(params, seed, ...) are part of
its contract:

- coupling I with order |I| <= max_body is

      default_rng([seed mod 2^64, 1, |I|, *I]).uniform(-b, b),
      b = exp(-range(I)/xi),

  which is -b + (b - (-b)) * u for the stream's first double u, the form
  in which the model reads every batch of couplings through first_doubles;
- constituent (k, n) draws from default_rng([seed mod 2^64, 2, k, n]) the
  real, then the imaginary parts of a d x d standard-normal matrix, d =
  2^n; a block wrapped past site N draws its piece on sites k..N first,
  then the one on 1..k+n-1-N, each real then imaginary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

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


def _entropy_words(
    keys: Sequence[Sequence[int]], head: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Each key as SeedSequence coerces it: every integer becomes its
    little-endian 32-bit words (0 becomes one zero word), concatenated.
    Returns the words as a (keys, width) uint32 array, after `head` zero
    columns and padded with zeros to at least the pool size, and each
    key's word count, head included."""
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
    counts = np.array(lengths, dtype=np.intp) + head
    width = max(_POOL_SIZE, int(counts.max(initial=0)))
    words = np.zeros((len(counts), width), dtype=np.uint32)
    rows = np.repeat(np.arange(len(counts)), counts - head)
    cols = np.arange(len(flat)) - np.repeat(np.cumsum(counts - head) - counts, counts - head)
    words[rows, cols] = flat
    return words, counts


@functools.cache
def _hash(index: int) -> tuple[int, int]:
    """The (previous, current) constant of mix_entropy's hashmix call
    `index`: they depend on how many words were hashed, not on the data."""
    consts = _hash_constants(_INIT_A, _MULT_A, index + 1)
    return (_INIT_A if index == 0 else int(consts[-2])), int(consts[-1])


def _hashmix(value, index: int):
    """mix_entropy's hashmix call `index` on a uint32 array or a Python
    int."""
    prev, mult = _hash(index)
    if isinstance(value, int):
        value = (value ^ prev) * mult & _MASK32
    else:
        value = (value ^ np.uint32(prev)) * np.uint32(mult)
    return value ^ (value >> 16)


@dataclass(frozen=True)
class _Tail:
    """The seed-free part of mix_entropy for a batch of keys whose first
    `head` words are one shared seed: per pool word, the keys' hashmixed
    word there (None where the seed sits), and per later word, the keys
    that have it (None when all do) with its four hashmixes, one per pool
    word it is mixed into.  Its arrays are read-only."""

    size: int
    init: tuple[np.ndarray | None, ...]
    extra: tuple[tuple[np.ndarray | None, tuple[np.ndarray, ...]], ...]


def _tail(keys: Sequence[Sequence[int]], head: int) -> _Tail:
    """_Tail of the keys [*seed, *key] for every seed of `head` words."""
    words, counts = _entropy_words(keys, head)
    init = tuple(None if i < head else _hashmix(words[:, i], i) for i in range(_POOL_SIZE))
    extra = []
    for src in range(_POOL_SIZE, words.shape[1]):
        # The 4 x 4 pool mix makes the hashmix calls after the first four;
        # each later word is then hashed once per pool word.
        first = _POOL_SIZE**2 + _POOL_SIZE * (src - _POOL_SIZE)
        has_word = counts > src
        hashed = tuple(_hashmix(words[:, src], first + dst) for dst in range(_POOL_SIZE))
        extra.append((None if has_word.all() else has_word, hashed))
    tail = _Tail(len(counts), init, tuple(extra))
    for array in (*init, *(a for mask, hashed in extra for a in (mask, *hashed))):
        if array is not None:
            array.flags.writeable = False
    return tail


# The tails of the 64 most recent seeded batches (see pcg64_states), by
# tails and seed width; they hold the keys' words and nothing of a seed.
_seeded_tail = functools.lru_cache(maxsize=64)(_tail)


def _pools(tail: _Tail, seed: Sequence[int]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy with a pool of four words, for every key of
    the tail at once, after the seed's words: the pool words as four
    uint32 arrays over the keys."""

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    # Words past a key's count are zero, as SeedSequence pads its pool.
    pool = [
        np.full(tail.size, _hashmix(seed[i], i), dtype=np.uint32) if hashed is None else hashed
        for i, hashed in enumerate(tail.init)
    ]
    index = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], _hashmix(pool[src], index))
                index += 1
    for has_word, hashed in tail.extra:
        for dst in range(_POOL_SIZE):
            mixed = mix(pool[dst], hashed[dst])
            pool[dst] = mixed if has_word is None else np.where(has_word, mixed, pool[dst])
    return pool


def _seed_words(seed: int) -> list[int]:
    """seed mod 2^64 as SeedSequence coerces it: its little-endian 32-bit
    words, one below 2^32 (zero included) and two from there on."""
    seed = int(seed) & _MASK64
    return [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each a * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul128(x: tuple[np.ndarray, np.ndarray], c: int) -> tuple[np.ndarray, np.ndarray]:
    """x * c mod 2^128 on (high, low) uint64 halves; uint64 products wrap
    mod 2^64."""
    hi, lo = x
    c_hi, c_lo = c >> 64, c & _MASK64
    return _mulhi64(lo, c_lo) + hi * c_lo + lo * c_hi, lo * c_lo


def _add128(
    x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """x + y mod 2^128 on (high, low) uint64 halves."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < x[1]), lo


def _states(keys: Sequence[Sequence[int]], seed: int | None):
    """The seeded PCG64 state and increment of each key (see pcg64_states)
    as (high, low) uint64 halves, or None for no keys."""
    if seed is None:
        words = []
        tail = _tail(keys, 0)
    else:
        words = _seed_words(seed)
        tail = _seeded_tail(keys, len(words))
    if not tail.size:
        return None
    pool = _pools(tail, words)
    # generate_state(4, uint64): eight words, cycling through the pool, read
    # in little-endian pairs as seed[0], seed[1], inc[0], inc[1].
    state = []
    prev = np.uint32(_INIT_B)
    for i, mult in enumerate(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)):
        value = (pool[i % _POOL_SIZE] ^ prev) * mult
        prev = mult
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (lo | (hi << np.uint64(32)) for lo, hi in zip(state[0::2], state[1::2]))
    inc = ((i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1)
    return _add128(_mul128((s_hi, s_lo), _PCG_MULT), _mul128(inc, _INC_MULT)), inc


def pcg64_states(
    keys: Sequence[Sequence[int]], seed: int | None = None
) -> list[tuple[int, int]]:
    """For each key, the (state, inc) of
    np.random.PCG64(np.random.SeedSequence(key)).state["state"], bit for
    bit: the generator default_rng(key) wraps, before its first draw.  A key
    is a sequence of non-negative integers; a negative one raises
    DomainError, where numpy raises ValueError.

    With a seed, each key is the seed-free tail of the full key
    [seed mod 2^64, *key], and keys must be hashable, a tuple of tuples.
    The words of a batch's tails and their hashmixes depend on the seed
    only through its width, one word or two, so they are derived once per
    batch and width and kept in a bounded cache: a batch that recurs with
    another seed mixes only what the seed changes."""
    seeded = _states(keys, seed)
    if seeded is None:
        return []
    (s_hi, s_lo), (i_hi, i_lo) = ((h.tolist(), l.tolist()) for h, l in seeded)
    return [((a << 64) | b, (c << 64) | d) for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo)]


def first_doubles(keys: Sequence[Sequence[int]], seed: int | None = None) -> np.ndarray:
    """For each key (a tail after the seed, when one is given, as in
    pcg64_states), the double np.random.default_rng(key).random() gives,
    bit for bit: one PCG64 step x = state M + inc from pcg64_states, then
    its XSL-RR output as (out >> 11) * 2^-53, all on uint64 halves."""
    seeded = _states(keys, seed)
    if seeded is None:
        return np.zeros(0)
    state, inc = seeded
    hi, lo = _add128(_mul128(state, _PCG_MULT), inc)
    # XSL-RR: the xor of the two halves, rotated right by the top 6 bits.
    rot = hi >> 58
    low = hi ^ lo
    out = (low >> rot) | (low << ((64 - rot) & 63))
    return (out >> 11).astype(np.float64) * 2.0**-53


class _Unseeded(ISeedSequence):
    """The seed of a PCG64 whose state is set before every draw: it hands
    PCG64 zero words, so building one hashes nothing."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


def generators(
    keys: Sequence[Sequence[int]], seed: int | None = None
) -> Iterator[np.random.Generator]:
    """For each key in turn (a tail after the seed, when one is given, as
    in pcg64_states), a Generator in the state np.random.default_rng(key)
    starts in, seeded by pcg64_states, so every numpy draw from it is
    default_rng(key)'s, bit for bit.  It is one Generator, re-seeded for
    each key: take a key's draws before advancing to the next."""
    bitgen = np.random.PCG64(_Unseeded())
    gen = np.random.Generator(bitgen)
    for state, inc in pcg64_states(keys, seed):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen

"""NumPy's SeedSequence hash and PCG64 seeding, run over many seeds in one pass.

`seed_words` is `np.random.SeedSequence(column).generate_state(n_words)`
for every column of a (k, N) uint32 entropy array at once, word-major so
that each pool word is one contiguous row: the same pool of four
words, the same hashmix and mix functions, in the same order, in wrapping
uint32 arithmetic. The hash constants advance in a fixed sequence that does
not depend on the data, so each sequence is computed once and every word
is mixed into its destinations in one array operation. Entropy shorter
than the pool equals it padded with zero words (SeedSequence pads by
hashing zeros), so entropies of up to four words can share one array.
NumPy's SeedSequence is the oracle the tests hold this module to.

`pcg64_states` gives the `bit_generator.state` that `np.random.default_rng`
builds for each seed, so a caller can reseed one reused generator instead
of building one per seed.
"""

from __future__ import annotations

import functools

import numpy as np

POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_L = np.uint32(0xCA01F9DD)
MIX_R = np.uint32(0x4973F715)
SHIFT = np.uint32(16)
MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _sequence(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of n successive hash steps: c_j and c_{j+1}, c_{j+1} = c_j * mult."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & MASK32)
    table = np.array(consts, dtype=np.uint32)
    return table[:-1], table[1:]


@functools.lru_cache(maxsize=None)
def _entropy_constants(k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (4, 1) xor and multiply constants of each pool-wide hash step that mixes k entropy words.

    Step 0 hashes the entropy into the pool; step 1 + s hashes pool word s
    once for each of the three others (slot s holds 0, and its result is
    discarded); one more step follows per entropy word beyond the pool.
    """
    others = POOL_SIZE - 1
    extra = max(k - POOL_SIZE, 0)
    xors, mults = _sequence(INIT_A, MULT_A, POOL_SIZE * (1 + others + extra))
    steps = [(xors[:POOL_SIZE], mults[:POOL_SIZE])]
    at = POOL_SIZE
    for src in range(POOL_SIZE):
        steps.append((np.insert(xors[at:at + others], src, 0), np.insert(mults[at:at + others], src, 0)))
        at += others
    for at in range(at, len(xors), POOL_SIZE):
        steps.append((xors[at:at + POOL_SIZE], mults[at:at + POOL_SIZE]))
    return [(x[:, None], m[:, None]) for x, m in steps]


@functools.lru_cache(maxsize=None)
def _output_constants(n_words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool word each output word hashes, and the xor and multiply constants of its hash."""
    xors, mults = _sequence(INIT_B, MULT_B, n_words)
    return np.arange(n_words) % POOL_SIZE, xors[:, None], mults[:, None]


def _hash(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """One hash step per row: value ^= c_j, value *= c_{j+1}, value ^= value >> 16."""
    out = values ^ xors
    out *= mults
    out ^= out >> SHIFT
    return out


def _mix(x: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's mix(x, hashed), overwriting hashed."""
    hashed *= MIX_R
    out = MIX_L * x
    out -= hashed
    out ^= out >> SHIFT
    return out


def int_words(value: int) -> list[int]:
    """A non-negative int's 32-bit words, least significant first, as SeedSequence splits it ([0] for 0)."""
    words = [value & MASK32]
    value >>= 32
    while value:
        words.append(value & MASK32)
        value >>= 32
    return words


def seed_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(column).generate_state(n_words) for every column of the (k, N) uint32 entropy, as (n_words, N)."""
    entropy = np.asarray(entropy, dtype=np.uint32)
    k = len(entropy)
    fill, *steps = _entropy_constants(k)
    pool = np.zeros((POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:k] = entropy[:POOL_SIZE]
    pool = _hash(pool, *fill)
    # mix every pool word into the other three, so late words reach early ones
    for src in range(POOL_SIZE):
        mixed = _mix(pool, _hash(pool[src], *steps[src]))
        mixed[src] = pool[src]
        pool = mixed
    # mix each entropy word beyond the pool into all four pool words
    for src, constants in enumerate(steps[POOL_SIZE:], POOL_SIZE):
        pool = _mix(pool, _hash(entropy[src], *constants))
    words, xors, mults = _output_constants(n_words)
    return _hash(pool[words], xors, mults)


def pcg64_states(seeds: np.ndarray) -> list[dict]:
    """The bit_generator.state of np.random.default_rng(seed) for every seed of the (N,) uint64 array.

    SeedSequence(seed) yields four uint64 words w0..w3 (the seed's low and
    high 32-bit words as entropy, eight uint32 words out); PCG64 takes
    inc = (w2:w3 << 1) | 1 and steps twice from state 0, adding w0:w1
    between the steps, all modulo 2**128.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = seed_words(np.stack([seeds & MASK32, seeds >> 32]), 8).astype(np.uint64)
    states = []
    for w0, w1, w2, w3 in zip(*(words[0::2] | words[1::2] << 32).tolist()):
        inc = ((w2 << 64 | w3) << 1 | 1) & MASK128
        state = ((inc + (w0 << 64 | w1)) * PCG64_MULT + inc) & MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states

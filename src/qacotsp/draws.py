"""numpy's draw rules: how PCG64 words become ``Generator`` draws.

The package's speed-ups keep every output bit-identical to plain numpy calls
through the identities below, each named beside the code that relies on it.
``tests/test_draws.py`` checks each against numpy.  They are verified on
numpy 2.4.6 only; on any other version those tests are the guard.

* ``DrawReplay`` (``qaco.qaco_solve``) replays ``default_rng(seed)`` from raw
  PCG64 words (O'Neill 2014).  A double is ``(w >> 11) * 2**-53`` of the
  next word ``w``.  ``next_uint32`` returns a fresh word's low half and keeps
  the high half for the next 32-bit draw; doubles leave the kept half alone.
  ``integers(n)`` is Lemire's (2019) method on it: redraw ``m = u * n`` while
  ``m mod 2^32 < 2^32 mod n``, then return ``m >> 32``; ``integers(1)``
  draws nothing.  ``permutation(k)`` shuffles ``arange(k)`` from the end:
  index ``i`` swaps with ``next_uint32`` masked to the smallest
  ``2^b - 1 >= i`` and redrawn while above ``i``.
* ``seeded_generators`` (``aco.aco_solve``) starts a generator where
  ``default_rng(row)`` does, without a ``SeedSequence`` per row: it runs
  ``SeedSequence``'s ``hashmix``/``mix`` pool and ``generate_state(4,
  uint64)`` in ``uint32`` arithmetic over a block of rows at once, then
  PCG64's 128-bit seeding step on Python ints, and sets that state, with no
  kept 32-bit half, on one reused ``PCG64``.
* ``choice_index`` (``cluster._kmeanspp``) is ``Generator.choice(n, p=row)``
  on its one ``random()``.
* One ``random(n)`` call draws what n ``random()`` calls would
  (``aco._construct``, ``qsim.code_from_draws``, ``qaco.maybe_mutate``).
* ``uniform(0, b)`` is ``0.0 + b * random()``, which equals ``b * random()``
  bit for bit (``qaco.maybe_mutate``).
* ``default_rng(child)`` builds ``Generator(PCG64(child))``, numpy's
  documented construction; ``cluster.kmeans`` builds the latter directly.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np


class DrawReplay:
    """What ``np.random.default_rng(seed)`` would draw, from raw PCG64 words.

    ``random(n)``, ``random()``, ``integers(n)`` (1 <= n <= 2^32) and
    ``permutation(k)`` return, in Python types, what the same calls on that
    generator would, in the same order; words are read in blocks of
    ``BLOCK``.  ``seed`` is anything ``np.random.PCG64`` takes.
    """

    BLOCK = 2048

    def __init__(self, seed):
        self._raw = np.random.PCG64(seed).random_raw
        self._has_half = self._half = 0
        self._words = np.empty(0, dtype=np.uint64)
        self._doubles = []
        self._pos = 0

    def _take(self, n: int) -> int:
        """Position of the next ``n`` words, which count as drawn."""
        pos = self._pos
        if pos + n > len(self._doubles):
            fresh = self._raw(max(self.BLOCK, n))
            self._words = np.concatenate((self._words[pos:], fresh))
            self._doubles = self._doubles[pos:] + ((fresh >> 11) * 2.0 ** -53).tolist()
            pos = 0
        self._pos = pos + n
        return pos

    def random(self, n=None):
        """A float for ``n`` None, else a list of ``n`` floats."""
        pos = self._pos
        end = pos + (1 if n is None else n)
        if end > len(self._doubles):
            pos = self._take(end - pos)
        else:
            self._pos = end
        return self._doubles[pos] if n is None else self._doubles[pos:pos + n]

    def _next_uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        pos = self._take(1)
        word = int(self._words[pos])
        self._has_half, self._half = 1, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"replayed integers(n) needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        m = self._next_uint32() * n
        threshold = (1 << 32) % n
        while m & 0xFFFFFFFF < threshold:
            m = self._next_uint32() * n
        return m >> 32

    def permutation(self, k: int) -> list:
        order = list(range(k))
        for i in range(k - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next_uint32() & mask
            while j > i:
                j = self._next_uint32() & mask
            order[i], order[j] = order[j], order[i]
        return order


# numpy's SeedSequence hash: its pool size, hashmix/mix constants and shift
POOL = 4
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (pcg_setseq_128_step_r)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1
# Rows hashed per batch by ``seeded_generators``: 64 iterations of 6 ants.
SEED_BLOCK = 384


def _entropy_words(row) -> list:
    """The 32-bit words ``SeedSequence(row)`` reads: each word's pieces, lowest first, 0 as one.

    A word that is no integer raises ``TypeError`` and a negative one
    ``ValueError``, the classes ``SeedSequence`` raises for them.
    """
    out = []
    for word in row:
        n = operator.index(word)
        if n < 0:
            raise ValueError(f"seed words must be non-negative, got {n}")
        out.append(n & MASK32)
        n >>= 32
        while n:
            out.append(n & MASK32)
            n >>= 32
    return out


def _hasher(h: int, mult: int):
    """``hashmix`` of ``SeedSequence``: each call runs on, then steps, the constant ``h``."""
    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * mult & MASK32
        value = value * h
        return value ^ (value >> XSHIFT)
    return hashmix


def _mix(x, y):
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ (result >> XSHIFT)


def _pool_states(words: np.ndarray) -> list:
    """``generate_state(4, uint64)`` of ``SeedSequence`` for each row of uint32 ``words``.

    The rows share a width of at least ``POOL``: a shorter row reads
    ``hashmix(0)`` where a word is missing, as a 0 word does.
    """
    hashmix = _hasher(INIT_A, MULT_A)
    pool = [hashmix(words[:, i]) for i in range(POOL)]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL, words.shape[1]):
        for dst in range(POOL):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))
    hashmix = _hasher(INIT_B, MULT_B)
    halves = [hashmix(pool[i % POOL]).astype(np.uint64) for i in range(2 * POOL)]
    return np.stack([lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])],
                    axis=1).tolist()


def _pcg64_states(rows) -> list:
    """``(state, inc)`` of ``np.random.PCG64(SeedSequence(row))`` for each row of seed words.

    Rows of one width share one batched hash.  PCG64 seeds itself with the
    hash's words (s0, s1, i0, i1) as ``pcg_setseq_128_srandom_r`` of the
    128-bit ``s0 s1`` and ``i0 i1``: ``inc`` is ``2 * i + 1`` and ``state``
    is ``(inc + s) * PCG_MULT + inc``, modulo 2^128.
    """
    rows = [_entropy_words(row) for row in rows]
    states = [None] * len(rows)
    by_width = {}
    for r, words in enumerate(rows):
        by_width.setdefault(max(len(words), POOL), []).append(r)
    for width, members in by_width.items():
        words = np.array([rows[r] + [0] * (width - len(rows[r])) for r in members],
                         dtype=np.uint32)
        for r, (s0, s1, i0, i1) in zip(members, _pool_states(words)):
            inc = ((i0 << 64 | i1) << 1 | 1) & MASK128
            states[r] = (((inc + (s0 << 64 | s1)) * PCG_MULT + inc) & MASK128, inc)
    return states


def seeded_generators(rows):
    """For each row of seed words in turn, a ``Generator`` as ``np.random.default_rng(row)`` starts.

    It is one ``Generator`` over one ``PCG64``, whose state is set for each
    row, so a caller drops it before taking the next; setting the state
    clears a kept 32-bit half too.  Rows are hashed ``SEED_BLOCK`` at a time;
    a word that is no non-negative integer raises, as in ``default_rng``,
    when its block is hashed.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    rows = iter(rows)
    while block := list(itertools.islice(rows, SEED_BLOCK)):
        for state, inc in _pcg64_states(block):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield gen


def choice_index(probs, u) -> np.ndarray:
    """Index drawn from each row of ``probs`` by that row's uniform ``u``.

    numpy's ``Generator.choice(n, p=row)`` normalizes the row's cumulative
    sum by its last entry and searches it for its ``random()`` to the right.
    The count of entries <= u is that search's index, since the cumulative
    sum never decreases.
    """
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=1)

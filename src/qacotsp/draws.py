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

"""Every numpy identity ``qacotsp.draws`` names, checked against numpy itself.

These are the tests that should fail first if a numpy release changes how a
``Generator`` turns PCG64 words into draws: each compares values, and where
a generator is left to draw again, its ``bit_generator.state`` too.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qacotsp.draws import SEED_BLOCK, DrawReplay, choice_index, seeded_generators

# ---------------------------------------------------------------------------
# the replay against default_rng(seed): same values, same order, same
# consumption, with a kept 32-bit half wherever a call sequence leaves one

BLOCK = DrawReplay.BLOCK
CALLS = st.one_of(
    st.tuples(st.just("random"), st.none() | st.integers(0, 9)
              | st.integers(BLOCK - 9, BLOCK + 9)),
    # 2**31 + 1 and 2**32 - 1 reject often; 1 draws nothing; 2**32 never rejects
    st.tuples(st.just("integers"), st.sampled_from([1, 2, 3, 6, 8, 2 ** 31 + 1,
                                                    2 ** 32 - 1, 2 ** 32])),
    st.tuples(st.just("permutation"), st.integers(1, 8)),
)
# an integers(8) between two doubles draws: the kept half spans the doubles
KEPT_HALF = [("integers", 8), ("random", 3), ("integers", 8), ("permutation", 5)]


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 64 - 1), calls=st.lists(CALLS, max_size=60))
@example(seed=0, calls=KEPT_HALF)
@example(seed=2 ** 32 - 1, calls=KEPT_HALF)
@example(seed=2 ** 64 - 1, calls=KEPT_HALF)
def test_property_replay_equals_generator(seed, calls):
    gen, replay = np.random.default_rng(seed), DrawReplay(seed)
    for name, arg in calls:
        expected = getattr(gen, name)(*(() if arg is None else (arg,)))
        got = getattr(replay, name)(*(() if arg is None else (arg,)))
        if isinstance(expected, np.ndarray):
            assert type(got) is list and got == expected.tolist(), (name, arg)
        else:
            assert type(got) is type(expected.item() if name == "integers" else expected)
            assert got == expected, (name, arg)
    # the same number of words and the same kept half were taken
    assert replay.integers(2 ** 32) == gen.integers(2 ** 32)
    assert replay.random() == gen.random()


# ---------------------------------------------------------------------------
# the batched seeding against default_rng(row): the same PCG64 state, then the
# same draws, also where the generator it re-seeds holds a kept 32-bit half

WORDS = st.one_of(st.sampled_from([0, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5]),
                  st.integers(0, 2 ** 70))
ROWS = st.lists(st.lists(WORDS, min_size=1, max_size=7), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None, database=None)
@given(rows=ROWS, k=st.integers(2, 2 ** 31), n=st.integers(1, 5))
@example(rows=[[0], [2 ** 32], [2 ** 64 + 5, 0, 2 ** 31], [2 ** 32 - 1] * 7], k=8, n=3)
def test_property_seeded_generators_equal_default_rng(rows, k, n):
    for row, gen in zip(rows, seeded_generators(rows), strict=True):
        expected = np.random.default_rng(row)
        assert gen.bit_generator.state == expected.bit_generator.state, row
        # integers(k) keeps a 32-bit half, which the next row's state must clear
        assert gen.integers(k) == expected.integers(k)
        assert gen.random(n).tolist() == expected.random(n).tolist()
        assert gen.bit_generator.state == expected.bit_generator.state


def test_seeded_generators_across_seed_blocks():
    # two full blocks and a part, rows of two widths in each block
    rows = [[7, it, ant] if it % 5 else [7, 2 ** 40 + it, ant]
            for it in range(1, 2 * SEED_BLOCK // 6 + 3) for ant in range(6)]
    assert 2 * SEED_BLOCK < len(rows) < 3 * SEED_BLOCK
    states = [gen.bit_generator.state for gen in seeded_generators(rows)]
    assert states == [np.random.default_rng(row).bit_generator.state for row in rows]


@pytest.mark.parametrize("row", [[1.5], [0, np.float64(2.0)], [-1], [3, -2 ** 40]], ids=str)
def test_seeding_refuses_what_default_rng_refuses(row):
    with pytest.raises((TypeError, ValueError)) as expected:
        np.random.default_rng(row)
    with pytest.raises(expected.type):
        next(seeded_generators([[0], row]))  # before the first generator


def test_replay_refuses_what_it_cannot_replay():
    replay = DrawReplay(0)
    for n in (0, -1, 2 ** 32 + 1):
        with pytest.raises(ValueError, match="integers"):
            replay.integers(n)


# ---------------------------------------------------------------------------
# the weighted choice against Generator.choice


def weight_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 64, 129, 1000):
        one_hot = np.zeros(n)
        one_hot[int(rng.integers(n))] = 1.0
        yield one_hot
        yield np.full(n, 1.0 / n)
        yield rng.integers(0, 30, size=n).astype(float) ** 2 + (np.arange(n) == 0)
        for scale in (1e-8, 1.0, 1e8):
            yield rng.uniform(0.0, 1.0, size=n) * scale


def test_weighted_draw_is_generator_choice():
    """``choice_index`` takes the index ``Generator.choice(n, p=probs)`` takes."""
    for case, weights in enumerate(weight_cases()):
        probs = weights / weights.sum()
        via_choice = np.random.default_rng(case)
        via_draw = np.random.default_rng(case)
        for _ in range(3):
            want = via_choice.choice(len(probs), p=probs)
            got = choice_index(probs[None, :], np.array([via_draw.random()]))
            assert got.tolist() == [want]
        assert via_choice.bit_generator.state == via_draw.bit_generator.state


def test_weighted_draw_normalizes_a_row_that_does_not_sum_to_one():
    """A row summing to 1 +- 1 to 64 ulps, with the draw between a raw and a normalized
    cumulative entry: only the division by the row's last cumulative entry picks right."""
    boundary_cases = 0
    for seed in range(40):
        u = np.random.default_rng(seed).random()
        for ulps in (1, 2, 3, 8, 64):
            for sign in (-1.0, 1.0):
                for first in (u, np.nextafter(u, 2.0), np.nextafter(np.nextafter(u, 2.0), 2.0)):
                    probs = np.array([first, 1.0 - first + sign * ulps * 2.0 ** -53])
                    raw = probs.cumsum()
                    if np.count_nonzero(raw <= u) == np.count_nonzero(raw / raw[-1] <= u):
                        continue  # normalizing moves no entry across the draw
                    boundary_cases += 1
                    want = np.random.default_rng(seed).choice(2, p=probs)
                    got = choice_index(probs[None, :], np.array([u]))
                    assert got.tolist() == [want], (seed, ulps, sign, first)
    assert boundary_cases >= 100


# ---------------------------------------------------------------------------
# identities of plain Generator calls that let the solvers draw in fewer calls


@pytest.mark.parametrize("n", [None, 1, 8])
def test_consecutive_random_arrays_are_one_call(n):
    # n None: three scalar random() calls
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        parts = [np.atleast_1d(a.random(n)).tolist() for _ in range(3)]
        assert sum(parts, []) == b.random(3 * (n or 1)).tolist()
        assert a.bit_generator.state == b.bit_generator.state


def test_uniform_angle_is_scaled_random():
    for seed in range(200):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert a.uniform(0.0, math.pi / 2.0) == (math.pi / 2.0) * b.random()
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", [None, 0, 2 ** 32 - 1, 2 ** 64 - 1, [3, 7, 11]],
                         ids=["entropy", "0", "2^32-1", "2^64-1", "words"])
def test_default_rng_of_a_child_is_generator_of_pcg64(seed):
    for child in np.random.SeedSequence(seed).spawn(5):
        a = np.random.default_rng(child)
        b = np.random.Generator(np.random.PCG64(child))
        assert a.bit_generator.state == b.bit_generator.state
        assert a.integers(1000) == b.integers(1000)
        assert a.random(4).tolist() == b.random(4).tolist()
        assert a.bit_generator.state == b.bit_generator.state

"""Property tests for the stitch layer on small random instances.

* ``_merge_two_cycles`` reports the added length it actually causes;
* ``stitch`` returns a cycle over exactly the cities of its input cycles;
* ``two_opt`` never returns a longer tour.

Both metrics are drawn: the canonical one rounds distances, which makes ties
between candidate exchanges common.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qacotsp.hybrid import _merge_two_cycles, stitch, two_opt
from qacotsp.tsplib import (
    Distances,
    MetricMode,
    Tour,
    cycle_length,
    distance_matrix,
    gen_random_instance,
    validate_tour,
)

REL_TOL = 1e-9
SETTINGS = settings(max_examples=150, deadline=None, database=None)
metrics = st.sampled_from([MetricMode.PLAIN, MetricMode.CANONICAL])
inst_seeds = st.integers(0, 2 ** 31 - 1)


@st.composite
def instance_and_order(draw, min_n, max_n):
    """A random instance, a metric, its distance matrix and a random order of its cities."""
    n = draw(st.integers(min_n, max_n))
    inst = gen_random_instance(n, draw(inst_seeds), draw(st.sampled_from([10.0, 1000.0])))
    metric = draw(metrics)
    return inst, metric, distance_matrix(inst, metric), draw(st.permutations(range(n)))


@SETTINGS
@given(case=instance_and_order(2, 12), data=st.data())
def test_merge_two_cycles_reports_the_added_length(case, data):
    inst, metric, D, order = case
    split = data.draw(st.integers(1, len(order) - 1))
    a, b = list(order[:split]), list(order[split:])
    merged, added = _merge_two_cycles(a, b, Distances(inst, metric))
    assert sorted(merged) == sorted(order)
    merged_length = cycle_length(D, merged)
    expected = merged_length - cycle_length(D, a) - cycle_length(D, b)
    assert abs(added - expected) <= REL_TOL * max(1.0, merged_length)


@SETTINGS
@given(case=instance_and_order(2, 16), data=st.data())
def test_stitch_returns_a_permutation_of_the_union(case, data):
    inst, metric, _, order = case
    # leaf-sized cycles over a prefix of the order, so the union may be a
    # strict subset of the instance
    size = data.draw(st.integers(1, len(order)))
    cycles, start = [], 0
    while start < size:
        k = data.draw(st.integers(1, min(4, size - start)))
        cycles.append(data.draw(st.permutations(order[start:start + k])))
        start += k
    assert sorted(stitch(cycles, Distances(inst, metric))) == sorted(order[:size])


@SETTINGS
@given(case=instance_and_order(2, 25), max_passes=st.integers(1, 20))
def test_two_opt_never_returns_a_longer_tour(case, max_passes):
    inst, metric, D, order = case
    before = cycle_length(D, order)
    out = two_opt(Tour(tuple(order)), Distances(inst, metric), max_passes=max_passes)
    assert validate_tour(out.order, len(order))
    assert cycle_length(D, out.order) <= before + REL_TOL * max(1.0, before)

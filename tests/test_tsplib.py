import math
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qacotsp.aco import aco_solve
from qacotsp.cluster import centroid_of
from qacotsp.qaco import qaco_solve
from qacotsp.tsplib import (
    DimensionMismatch,
    Distances,
    IndexOutOfRange,
    Instance,
    InvalidCount,
    InvalidTour,
    MalformedHeader,
    MetricMode,
    NonFiniteDistance,
    NonNumericCoordinate,
    Tour,
    UnsupportedEdgeWeightType,
    cycle_length,
    distance,
    distance_matrix,
    format_instance,
    gen_random_instance,
    load_instance,
    parse_instance,
    save_instance,
    sub_distance_matrix,
    tour_length,
    validate_tour,
)

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

MINIMAL_3 = """NAME : tri
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 0 4
EOF
"""


def make_square():
    return Instance("square", 4, "EUC_2D",
                    np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))


def test_parse_minimal():
    inst = parse_instance(MINIMAL_3)
    assert inst.dimension == 3
    assert inst.name == "tri"
    assert inst.edge_weight_type == "EUC_2D"
    assert inst.coords[1].tolist() == [3.0, 0.0]


def test_parse_dimension_mismatch():
    text = MINIMAL_3.replace("DIMENSION : 3", "DIMENSION : 5")
    with pytest.raises(DimensionMismatch):
        parse_instance(text)


def test_parse_unsupported_type():
    text = MINIMAL_3.replace("EUC_2D", "EXPLICIT")
    with pytest.raises(UnsupportedEdgeWeightType):
        parse_instance(text)


def test_parse_non_numeric():
    text = MINIMAL_3.replace("2 3 0", "2 x 0")
    with pytest.raises(NonNumericCoordinate):
        parse_instance(text)


@pytest.mark.parametrize("node_id", ["1.5", "inf", "nan", "x"])
def test_parse_refuses_a_node_id_that_is_no_integer(node_id):
    with pytest.raises(NonNumericCoordinate, match="bad node id"):
        parse_instance(MINIMAL_3.replace("\n1 0 0", f"\n{node_id} 0 0"))


def test_parse_takes_an_integral_float_node_id():
    inst = parse_instance(MINIMAL_3.replace("\n1 0 0", "\n1.0 0 0"))
    assert inst.coords.tolist() == parse_instance(MINIMAL_3).coords.tolist()


def test_parse_missing_header():
    with pytest.raises(MalformedHeader):
        parse_instance("DIMENSION : 3\nNODE_COORD_SECTION\n1 0 0\n2 1 1\n3 2 2\n")
    with pytest.raises(MalformedHeader):
        parse_instance("EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n")


@pytest.mark.parametrize("bad", list(',"/\\<>&'))
def test_parse_refuses_names_that_break_outputs(bad):
    # The name lands in a CSV field, a plot's file name and the SVG text.
    with pytest.raises(MalformedHeader, match=re.escape(f"contains {bad!r}")):
        parse_instance(MINIMAL_3.replace("NAME : tri", f"NAME : tri{bad}3"))
    assert parse_instance(MINIMAL_3.replace("NAME : tri", "NAME : tri-3 (v1.2)")).name == \
        "tri-3 (v1.2)"


def test_parse_berlin52(data_dir):
    raw = (data_dir / "berlin52.tsp").read_text()
    coord_lines = [ln for ln in raw.splitlines()
                   if ln and ln[0].isdigit()]
    assert len(coord_lines) == 52
    inst = parse_instance(raw)
    assert inst.dimension == 52
    assert inst.edge_weight_type == "EUC_2D"
    # spot checks against the raw file
    assert inst.coords[0].tolist() == [565.0, 575.0]
    assert inst.coords[51].tolist() == [1740.0, 245.0]


def test_distance_plain_345():
    inst = parse_instance(MINIMAL_3)
    assert distance(inst, 1, 2, MetricMode.PLAIN) == pytest.approx(5.0)
    assert distance(inst, 1, 2, MetricMode.CANONICAL) == 5


def test_distance_symmetry_and_zero():
    rng = np.random.default_rng(3)
    inst = gen_random_instance(12, 5, 100.0)
    for mode in MetricMode:
        D = distance_matrix(inst, mode)
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        for _ in range(20):
            i, j = rng.integers(12, size=2)
            assert distance(inst, int(i), int(j), mode) == pytest.approx(D[i, j])


DATASETS = ("bayg29", "berlin52", "eil51", "eil76", "ulysses16", "ulysses22")


def test_subset_distance_matrix_equals_the_cut_out_one(data_dir):
    # The gathered k x k matrix must equal rows/cols of the full one bit for
    # bit (GEO and EUC_2D, both metrics), for k = 1 and unsorted indices too.
    rng = np.random.default_rng(8)
    instances = [load_instance(data_dir / f"{name}.tsp") for name in DATASETS]
    instances.append(gen_random_instance(2000, 3))
    for inst in instances:
        for mode in MetricMode:
            D = distance_matrix(inst, mode)
            for k in range(1, min(40, inst.dimension) + 1):
                for _ in range(3):
                    idx = rng.choice(inst.dimension, size=k, replace=False).tolist()
                    sub = distance_matrix(inst, mode, ids=idx)
                    assert sub.tobytes() == sub_distance_matrix(D, idx).tobytes(), (inst.name, idx)


def test_distance_index_out_of_range():
    inst = parse_instance(MINIMAL_3)
    for j in (3, -1):
        with pytest.raises(IndexOutOfRange):
            distance(inst, 0, j, MetricMode.PLAIN)


# city ids that are no integer in 0..n-1 (n = 3): a negative id would wrap to
# the last cities, a fractional one would be truncated
BAD_IDS = [[0, 3], [0, -1], [-3], [0, 1.7], [0, math.nan], [0, math.inf]]


@pytest.mark.parametrize("ids", BAD_IDS, ids=str)
@pytest.mark.parametrize("refuse", [
    lambda inst, ids: distance_matrix(inst, MetricMode.PLAIN, ids),
    lambda inst, ids: Distances(inst, MetricMode.CANONICAL, ids),
    lambda inst, ids: Distances(inst, MetricMode.PLAIN).matrix(ids),
    lambda inst, ids: distance(inst, ids[0], ids[-1], MetricMode.PLAIN),
    centroid_of,
], ids=["distance_matrix", "Distances", "Distances.matrix", "distance", "centroid_of"])
def test_city_ids_that_are_no_integer_in_range_are_refused(refuse, ids):
    with pytest.raises(IndexOutOfRange, match=r"integers in 0\.\.2"):
        refuse(parse_instance(MINIMAL_3), ids)


@pytest.mark.parametrize("solve", [qaco_solve, aco_solve], ids=lambda f: f.__name__)
def test_solvers_refuse_a_negative_city_id(solve):
    with pytest.raises(IndexOutOfRange, match="got -1"):
        solve(gen_random_instance(4, 0, 100.0), [0, 1, 2, -1])


def test_an_integral_float_city_id_is_that_city():
    inst = parse_instance(MINIMAL_3)
    assert distance_matrix(inst, MetricMode.PLAIN, [0, 2.0]).tolist() == [[0.0, 4.0], [4.0, 0.0]]


def geo_reference(c1, c2):
    """Independent transcription of the TSPLIB GEO formula."""
    PI = 3.141592
    RRR = 6378.388

    def rad(value):
        deg = int(value)  # C-style truncation
        minutes = value - deg
        return PI * (deg + 5.0 * minutes / 3.0) / 180.0

    lat1, lon1 = rad(c1[0]), rad(c1[1])
    lat2, lon2 = rad(c2[0]), rad(c2[1])
    q1 = math.cos(lon1 - lon2)
    q2 = math.cos(lat1 - lat2)
    q3 = math.cos(lat1 + lat2)
    return int(RRR * math.acos(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)) + 1.0)


def test_distance_geo_matches_reference(data_dir):
    inst = load_instance(data_dir / "ulysses16.tsp")
    D = distance_matrix(inst, MetricMode.CANONICAL)
    for i in range(inst.dimension):
        for j in range(inst.dimension):
            if i == j:
                continue
            expected = geo_reference(inst.coords[i], inst.coords[j])
            assert D[i, j] == expected
            assert distance(inst, i, j, MetricMode.CANONICAL) == expected


def test_tour_length_square():
    inst = make_square()
    assert tour_length(inst, Tour((0, 1, 2, 3)), MetricMode.PLAIN) == pytest.approx(4.0)
    crossing = tour_length(inst, Tour((0, 2, 1, 3)), MetricMode.PLAIN)
    assert crossing == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))


def test_tour_length_two_cities():
    inst = Instance("pair", 2, "EUC_2D", np.array([[0.0, 0.0], [7.0, 0.0]]))
    assert tour_length(inst, Tour((0, 1)), MetricMode.PLAIN) == pytest.approx(14.0)
    assert tour_length(inst, Tour((1, 0)), MetricMode.PLAIN) == pytest.approx(14.0)


def test_tour_length_rotation_reversal_invariant():
    rng = np.random.default_rng(11)
    inst = gen_random_instance(9, 23, 50.0)
    base = list(rng.permutation(9))
    ref = tour_length(inst, Tour(tuple(base)), MetricMode.PLAIN)
    for shift in range(9):
        rotated = base[shift:] + base[:shift]
        assert tour_length(inst, Tour(tuple(rotated)), MetricMode.PLAIN) == pytest.approx(ref)
    assert tour_length(inst, Tour(tuple(reversed(base))), MetricMode.PLAIN) == pytest.approx(ref)


def test_validate_tour():
    assert validate_tour([0, 1, 2, 3], 4)
    assert not validate_tour([0, 0, 1, 2], 4)
    assert not validate_tour([0, 1, 2], 4)
    assert not validate_tour([0, 1, 2, 4], 4)


def test_tour_constructor_rejects_invalid():
    with pytest.raises(InvalidTour):
        Tour((0, 0, 1))
    with pytest.raises(InvalidTour):
        Tour((1, 2, 3))


def test_gen_random_deterministic():
    a = gen_random_instance(64, 42, 1000.0)
    b = gen_random_instance(64, 42, 1000.0)
    assert a.dimension == 64
    assert np.array_equal(a.coords, b.coords)
    c = gen_random_instance(64, 43, 1000.0)
    assert not np.array_equal(a.coords, c.coords)
    assert np.all(a.coords >= 0.0) and np.all(a.coords <= 1000.0)


def test_gen_random_bounds():
    inst = gen_random_instance(2, 0, 1.0)
    assert inst.dimension == 2
    with pytest.raises(InvalidCount):
        gen_random_instance(1, 0, 1.0)
    with pytest.raises(InvalidCount):
        gen_random_instance(5, 0, 0.0)


@pytest.mark.parametrize("seed, bound", [(-1, 1.0), (0, math.nan), (0, math.inf),
                                         (0, -math.inf)])
def test_gen_random_refuses_a_negative_seed_and_a_bound_that_is_not_finite(seed, bound):
    with pytest.raises(InvalidCount, match="seed" if seed < 0 else "bound"):
        gen_random_instance(5, seed, bound)


@pytest.mark.parametrize("mode", list(MetricMode))
def test_distance_matrix_refuses_distances_that_overflow(mode):
    # The coordinates are finite, but the square of their difference is not.
    inst = Instance("far", 3, "EUC_2D", np.array([[0.0, 0.0], [1e200, 1.0], [2.0, 0.0]]))
    with pytest.raises(NonFiniteDistance, match="far"):
        distance_matrix(inst, mode)
    with pytest.raises(NonFiniteDistance):
        distance_matrix(inst, mode, [1, 2])
    assert distance_matrix(inst, mode, [0, 2])[0, 1] == 2.0


def reference_distance_matrix(inst, mode):
    """The full matrix as computed before distances came from ``Distances``."""
    xy = inst.coords
    if mode is MetricMode.PLAIN or inst.edge_weight_type == "EUC_2D":
        diff = xy[:, None, :] - xy[None, :, :]
        d = np.sqrt((diff ** 2).sum(axis=2))
        return np.floor(d + 0.5) if mode is MetricMode.CANONICAL else d
    deg = np.trunc(xy)
    rad = 3.141592 * (deg + 5.0 * (xy - deg) / 3.0) / 180.0
    lat, lon = rad[:, 0], rad[:, 1]
    q1 = np.cos(lon[:, None] - lon[None, :])
    q2 = np.cos(lat[:, None] - lat[None, :])
    q3 = np.cos(lat[:, None] + lat[None, :])
    arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
    d = np.trunc(6378.388 * np.arccos(arg) + 1.0)
    np.fill_diagonal(d, 0.0)
    return d


def geo_instance(n, seed):
    """GEO cities at random degree.minute coordinates on the whole globe."""
    rng = np.random.default_rng(seed)
    coords = np.round(rng.uniform(-1, 1, (n, 2)) * (89.59, 179.59), 2)
    return Instance(f"geo{n}", n, "GEO", coords)


KERNEL_INSTANCES = [load_instance(DATA_DIR / "ulysses16.tsp"),
                    load_instance(DATA_DIR / "ulysses22.tsp"), gen_random_instance(30, 4, 1000.0),
                    gen_random_instance(60, 9, 10.0), geo_instance(45, 2)]
MATRICES = {(inst.name, mode): distance_matrix(inst, mode)
            for inst in KERNEL_INSTANCES for mode in MetricMode}
DISTANCES = {(inst.name, mode): Distances(inst, mode)
             for inst in KERNEL_INSTANCES for mode in MetricMode}


def test_distance_matrix_equals_the_reference(data_dir):
    instances = [load_instance(p) for p in sorted(data_dir.glob("*.tsp"))]
    for inst in instances + KERNEL_INSTANCES + [gen_random_instance(500, 3, 1000.0)]:
        for mode in MetricMode:
            got, want = distance_matrix(inst, mode), reference_distance_matrix(inst, mode)
            assert got.tobytes() == want.tobytes(), (inst.name, mode)


@settings(max_examples=300, deadline=None, database=None)
@given(which=st.integers(0, len(KERNEL_INSTANCES) - 1), mode=st.sampled_from(list(MetricMode)),
       data=st.data())
def test_property_pair_distances_equal_the_matrix_entries(which, mode, data):
    # numpy's cos and arccos run SIMD loops with scalar tails, so every
    # shape is compared: a scalar pair, 1-D pairs of lengths 1-40, and blocks.
    inst = KERNEL_INSTANCES[which]
    D, dist = MATRICES[inst.name, mode], DISTANCES[inst.name, mode]
    city = st.integers(0, inst.dimension - 1)
    i, j = data.draw(city), data.draw(city)
    assert dist.pairs(i, j).tobytes() == D[i, j].tobytes()
    assert dist.pairs(i, i).tobytes() == np.float64(0.0).tobytes()
    size = data.draw(st.integers(1, 40))
    I = np.array(data.draw(st.lists(city, min_size=size, max_size=size)))
    J = np.array(data.draw(st.lists(city, min_size=size, max_size=size)))
    assert dist.pairs(I, J).tobytes() == D[I, J].tobytes()
    # symmetric, which the merge's and 2-opt's reused distances rely on
    assert dist.pairs(J, I).tobytes() == D[I, J].tobytes()
    assert dist.pairs(I, I).tobytes() == np.zeros(size).tobytes()
    rows = np.array(data.draw(st.lists(city, min_size=1, max_size=12)))
    got = dist.pairs(rows[:, None], J[None, :])
    assert got.tobytes() == D[np.ix_(rows, J)].tobytes()
    # a matrix over some cities, from the full set's positions or from a
    # ``Distances`` over just those cities, whose positions are theirs
    ids = np.array(data.draw(st.lists(city, max_size=12, unique=True)), dtype=int)
    want = D[np.ix_(ids, ids)]
    for got in dist.matrix(ids), Distances(inst, mode, ids).matrix():
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert dist.cycle_length(ids).hex() == cycle_length(D, ids.tolist()).hex()


FAR_APART = [
    # a difference of coordinates squares to inf
    Instance("far", 3, "EUC_2D", np.array([[0.0, 0.0], [1e200, 1.0], [2.0, 0.0]])),
    # the bounding box's diagonal overflows, but no pair's distance does
    Instance("wide", 4, "EUC_2D", np.array([[0.0, 5e153], [1e154, 5e153], [5e153, 0.0],
                                            [5e153, 1e154]])),
    # degrees whose radians overflow
    Instance("geo-far", 3, "GEO", np.array([[0.0, 0.0], [1e308, 1.0], [2.0, 0.0]])),
    # finite radians, but the plain metric squares an overflowing difference
    Instance("geo-wide", 3, "GEO", np.array([[-1e307, 0.0], [1e307, 1.0], [2.0, 0.0]])),
]
REFUSED = {("far", "canonical"), ("far", "plain"), ("geo-far", "canonical"),
           ("geo-far", "plain"), ("geo-wide", "plain")}


@pytest.mark.parametrize("inst", FAR_APART, ids=lambda inst: inst.name)
@pytest.mark.parametrize("mode", list(MetricMode))
def test_check_distances_refuses_what_the_matrix_refuses(inst, mode):
    # ``Distances`` checks once, on construction, what the reference matrix shows.
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_distance_matrix(inst, mode)
    assert np.isfinite(want).all() == ((inst.name, mode.value) not in REFUSED)
    if (inst.name, mode.value) in REFUSED:
        with pytest.raises(NonFiniteDistance, match=inst.name):
            distance_matrix(inst, mode)
        with pytest.raises(NonFiniteDistance, match=inst.name):
            Distances(inst, mode)
    else:
        assert distance_matrix(inst, mode).tobytes() == want.tobytes()
        assert Distances(inst, mode).matrix().tobytes() == want.tobytes()


SUBSETS = [("far", [0, 2]), ("far", [2, 0]), ("far", [1, 2]), ("far", [1]), ("far", []),
           ("wide", [0, 1]), ("wide", [3, 2, 1, 0]), ("geo-far", [0, 2]), ("geo-far", [1]),
           ("geo-wide", [0, 1]), ("geo-wide", [2, 1])]


@pytest.mark.parametrize("name, ids", SUBSETS, ids=str)
@pytest.mark.parametrize("mode", list(MetricMode))
def test_distances_over_some_cities_refuse_only_their_own_overflow(name, ids, mode):
    inst = next(inst for inst in FAR_APART if inst.name == name)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_distance_matrix(inst, mode)[np.ix_(ids, ids)]
    # a city whose radians overflow is refused even alone, where the
    # reference's zero diagonal hides the NaN
    if not np.isfinite(want).all() or (name, ids, mode.value) == ("geo-far", [1], "canonical"):
        with pytest.raises(NonFiniteDistance, match=name):
            Distances(inst, mode, ids)
        with pytest.raises(NonFiniteDistance, match=name):
            distance_matrix(inst, mode, ids)
    else:
        for got in Distances(inst, mode, ids).matrix(), distance_matrix(inst, mode, ids):
            assert got.shape == (len(ids), len(ids)) and got.tobytes() == want.tobytes()


def test_parse_allocates_nothing_for_coordinate_lines_it_does_not_get():
    # DIMENSION alone must not size an array: 2,000,000 rows would take 32 MB.
    text = ("NAME : big\nTYPE : TSP\nDIMENSION : 2000000\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 3 0\n3 0 4\nEOF\n")
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="DIMENSION 2000000 but 3 coordinate lines"):
            parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_format_parse_roundtrip():
    inst = gen_random_instance(10, 7, 500.0)
    again = parse_instance(format_instance(inst))
    assert again.name == inst.name
    assert again.dimension == inst.dimension
    assert again.edge_weight_type == inst.edge_weight_type
    assert np.allclose(again.coords, inst.coords, rtol=0, atol=1e-9)


def test_failed_save_keeps_the_existing_file(tmp_path, monkeypatch):
    path = tmp_path / "inst.tsp"
    save_instance(gen_random_instance(5, 1, 100.0), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_instance(gen_random_instance(50, 2, 100.0), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["inst.tsp"]


def test_save_into_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "nodir" / "x.tsp"
    with pytest.raises(FileNotFoundError) as info:
        save_instance(gen_random_instance(5, 1, 10.0), path)
    assert info.value.filename == str(path)
    assert str(info.value).endswith(f"No such file or directory: {str(path)!r}")
    assert os.listdir(tmp_path) == []


def test_failed_replace_names_the_target_once(tmp_path):
    path = tmp_path / "taken"
    path.mkdir()  # a directory cannot be replaced by a file
    with pytest.raises(OSError) as info:
        save_instance(gen_random_instance(5, 1, 10.0), path)
    assert (info.value.filename, info.value.filename2) == (str(path), None)
    assert ".tmp" not in str(info.value)
    assert os.listdir(tmp_path) == ["taken"]

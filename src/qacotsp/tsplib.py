"""TSP instances: TSPLIB parsing, distance metrics, tours, random generation.

Only the NODE_COORD_SECTION subset of TSPLIB is supported, with
EDGE_WEIGHT_TYPE EUC_2D or GEO.  All city indices are 0-based internally;
the 1-based TSPLIB ids are remapped at parse time.  ``write_atomic``, the
package's one file writer, renames a finished temporary file over its target.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import uuid
from dataclasses import dataclass, field

import numpy as np


class TsplibError(ValueError):
    """Base class for instance-file problems."""


class MalformedHeader(TsplibError):
    pass


class UnsupportedEdgeWeightType(TsplibError):
    pass


class DimensionMismatch(TsplibError):
    pass


class NonNumericCoordinate(TsplibError):
    pass


class NonFiniteDistance(TsplibError):
    """Two cities lie so far apart that their distance overflows to inf."""


class IndexOutOfRange(IndexError):
    pass


class InvalidTour(ValueError):
    pass


class InvalidCount(ValueError):
    pass


class InvariantError(RuntimeError):
    """An internal invariant failed: a solver produced an impossible result.

    Raised explicitly rather than by ``assert``, so the checks also run
    under ``python -O``.
    """


class MetricMode(enum.Enum):
    """Distance convention.

    CANONICAL follows the TSPLIB reference formulas (EUC_2D rounded to the
    nearest integer, GEO great-circle distance on degree.minute coordinates
    with Earth radius 6378.388).  PLAIN is unrounded 2D Euclidean distance on
    the raw coordinates regardless of the declared edge weight type; published
    benchmark optima assume CANONICAL, while PLAIN is the convention needed to
    reproduce this project's reference result tables.
    """

    CANONICAL = "canonical"
    PLAIN = "plain"


def validate_tour(order, n: int) -> bool:
    """True iff ``order`` is a permutation of {0, ..., n-1}."""
    if len(order) != n:
        return False
    seen = [False] * n
    for v in order:
        v = int(v)
        if v < 0 or v >= n or seen[v]:
            return False
        seen[v] = True
    return True


@dataclass(frozen=True)
class Tour:
    """A cyclic visiting order: a permutation of {0, ..., k-1}.

    Validated at construction; every solver in the package emits its result
    through this type, so an invalid permutation can never escape.
    """

    order: tuple

    def __post_init__(self):
        order = tuple(int(v) for v in self.order)
        object.__setattr__(self, "order", order)
        if not validate_tour(order, len(order)):
            raise InvalidTour(f"not a permutation of 0..{len(order) - 1}: {order}")

    def __len__(self):
        return len(self.order)


@dataclass(eq=False)
class Instance:
    """A named TSP point set.

    coords is an (n, 2) float array, read-only after construction.
    """

    name: str
    dimension: int
    edge_weight_type: str
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise DimensionMismatch(f"coords must be (n, 2), got {coords.shape}")
        if self.dimension != coords.shape[0]:
            raise DimensionMismatch(
                f"dimension {self.dimension} != {coords.shape[0]} coordinate rows"
            )
        if self.dimension < 2:
            raise DimensionMismatch("an instance needs at least 2 cities")
        if not np.all(np.isfinite(coords)):
            raise NonNumericCoordinate("coordinates must be finite")
        if self.edge_weight_type not in ("EUC_2D", "GEO"):
            raise UnsupportedEdgeWeightType(self.edge_weight_type)
        coords.setflags(write=False)
        self.coords = coords


def parse_instance(text: str) -> Instance:
    """Parse a TSPLIB NODE_COORD_SECTION instance (EUC_2D or GEO only).

    Unknown header keys are ignored.  The 1-based node ids must cover exactly
    1..DIMENSION; they are remapped to 0-based indices.  A NAME holding any
    of , " / \\ < > & raises ``MalformedHeader``.
    """
    name = "unnamed"
    dimension = None
    ewt = None
    lines = text.splitlines()
    i = 0
    in_coords = False
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.upper().startswith("NODE_COORD_SECTION"):
            in_coords = True
            break
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            value = value.strip()
            if key == "NAME":
                bad = next((c for c in value if c in ',"/\\<>&'), None)
                if bad is not None:
                    raise MalformedHeader(f"NAME {value!r} contains {bad!r}, which breaks "
                                          "the results CSV, a plot path or the SVG text")
                name = value
            elif key == "DIMENSION":
                try:
                    dimension = int(value)
                except ValueError:
                    raise MalformedHeader(f"non-integer DIMENSION: {value!r}")
            elif key == "EDGE_WEIGHT_TYPE":
                ewt = value.upper()
        elif line.upper() in ("EOF",):
            break
        else:
            raise MalformedHeader(f"unparseable header line: {line!r}")

    if not in_coords:
        raise MalformedHeader("missing NODE_COORD_SECTION")
    if dimension is None:
        raise MalformedHeader("missing DIMENSION")
    if dimension < 2:
        raise MalformedHeader(f"DIMENSION must be >= 2, got {dimension}")
    if ewt is None:
        raise MalformedHeader("missing EDGE_WEIGHT_TYPE")
    if ewt not in ("EUC_2D", "GEO"):
        raise UnsupportedEdgeWeightType(ewt)

    # Rows are kept until their count matches: a DIMENSION alone allocates nothing.
    points = {}
    for line in lines[i:]:
        line = line.strip()
        if not line:
            continue
        if line.upper() in ("EOF", "-1"):
            break
        parts = line.split()
        if len(parts) != 3:
            raise DimensionMismatch(f"expected 'id x y', got: {line!r}")
        try:
            node_id = float(parts[0])
            if not node_id.is_integer():  # 1.5, inf and nan are no ids
                raise ValueError(node_id)
        except ValueError:
            raise NonNumericCoordinate(f"bad node id in line: {line!r}")
        node_id = int(node_id)
        try:
            x, y = float(parts[1]), float(parts[2])
        except ValueError:
            raise NonNumericCoordinate(f"bad coordinate in line: {line!r}")
        if node_id < 1 or node_id > dimension:
            raise MalformedHeader(f"node id {node_id} outside 1..{dimension}")
        if node_id in points:
            raise MalformedHeader(f"duplicate node id {node_id}")
        points[node_id] = (x, y)

    if len(points) != dimension:
        raise DimensionMismatch(f"DIMENSION {dimension} but {len(points)} coordinate lines")
    coords = np.array([points[node_id] for node_id in range(1, dimension + 1)])
    return Instance(name=name, dimension=dimension, edge_weight_type=ewt, coords=coords)


def format_instance(inst: Instance) -> str:
    """Serialize an instance back to the TSPLIB subset read by parse_instance."""
    out = [
        f"NAME : {inst.name}",
        "TYPE : TSP",
        f"DIMENSION : {inst.dimension}",
        f"EDGE_WEIGHT_TYPE : {inst.edge_weight_type}",
        "NODE_COORD_SECTION",
    ]
    for idx in range(inst.dimension):
        x, y = inst.coords[idx]
        out.append(f"{idx + 1} {x:.17g} {y:.17g}")
    out.append("EOF")
    return "\n".join(out) + "\n"


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as f:
        return parse_instance(f.read())


def write_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the file the caller asked for, not the temporary one
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def save_instance(inst: Instance, path) -> None:
    write_atomic(path, format_instance(inst))


# TSPLIB reference constants for the GEO metric.
_GEO_PI = 3.141592
_GEO_RADIUS = 6378.388


def _nint(x: float) -> float:
    return math.floor(x + 0.5)


def _geo_radians(coords: np.ndarray) -> np.ndarray:
    # TSPLIB stores degree.minute values: integer part is degrees, the
    # fractional part is minutes/100.  Degrees are extracted by truncation
    # (the C reference casts to int), which is what the published optima
    # assume.
    deg = np.trunc(coords)
    minutes = coords - deg
    return _GEO_PI * (deg + 5.0 * minutes / 3.0) / 180.0


def city_ids(ids, n: int) -> np.ndarray:
    """``ids`` as an int array; ``IndexOutOfRange`` unless each is an integer in 0..n-1."""
    values = np.asarray(ids)
    bad = ~((values >= 0) & (values < n))  # true for NaN too
    if not bad.any():
        idx = values.astype(int)
        bad = idx != values
    if bad.any():
        raise IndexOutOfRange(f"city ids must be integers in 0..{n - 1}, "
                              f"got {values[bad][0].item()!r}")
    return idx


# Entries of one block of the row-chunked overflow scan in ``Distances``.
_SCAN_BLOCK = 1 << 16


class Distances:
    """The distances between an instance's cities under one metric, on demand.

    Covers all cities, or just the cities ``ids`` in their given order,
    refused by ``city_ids`` unless each is an integer in 0..n-1; the methods
    take positions among the covered cities.  Construction derives,
    once, the two coordinates the formula reads, ``u`` and ``v``: x and y,
    or under the canonical GEO metric latitude and longitude in radians.  It
    then raises ``NonFiniteDistance`` if two covered cities lie so far apart
    that their distance overflows, or a city's radians do, so no method
    meets an inf or a NaN.
    """

    def __init__(self, inst: Instance, mode: MetricMode, ids=None):
        self.mode = mode
        self.geo = mode is MetricMode.CANONICAL and inst.edge_weight_type == "GEO"
        self.ids = np.arange(inst.dimension) if ids is None else city_ids(ids, inst.dimension)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            points = inst.coords[self.ids]
            if self.geo:
                points = _geo_radians(points)
            self.u, self.v = np.ascontiguousarray(points.T)
            u, v = self.u, self.v
            # Rounding is monotone, so no difference of coordinates exceeds the
            # bounding box's, and no distance overflows when the box's diagonal
            # stays finite; on GEO that holds exactly when every radian is
            # finite.  Only when the box fails is every distance computed, a
            # block of rows at a time.
            if not u.size or np.isfinite(self.between(u.min(), v.min(), u.max(), v.max())):
                return
            rows = max(1, _SCAN_BLOCK // len(u))
            for start in range(0, len(u), rows):
                block = slice(start, start + rows)
                if not np.isfinite(self.between(u[block, None], v[block, None], u, v)).all():
                    raise NonFiniteDistance(f"{inst.name}: a distance overflows; the "
                                            "coordinates lie too far apart")

    def between(self, u1, v1, u2, v2) -> np.ndarray:
        """Distances between points (u1, v1) and (u2, v2) of ``u`` and ``v``, broadcast.

        This is the package's one distance formula on arrays.  Under the GEO
        metric two points are at least 1 apart, even at one place; ``pairs``
        gives a city 0 to itself.
        """
        if not self.geo:
            dx, dy = u1 - u2, v1 - v2
            d = np.sqrt(dx * dx + dy * dy)
            return d if self.mode is MetricMode.PLAIN else np.floor(d + 0.5)
        q1 = np.cos(v1 - v2)
        q2 = np.cos(u1 - u2)
        q3 = np.cos(u1 + u2)
        arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
        return np.trunc(_GEO_RADIUS * np.arccos(arg) + 1.0)

    def pairs(self, i, j) -> np.ndarray:
        """Distances of positions ``i`` and ``j``, integer arrays that broadcast.

        Each entry is bit for bit the full matrix's entry for the two cities,
        on every metric; a city is 0 from itself.
        """
        d = self.between(self.u[i], self.v[i], self.u[j], self.v[j])
        if self.geo:
            d = np.where(np.equal(self.ids[i], self.ids[j]), 0.0, d)
        return d

    def matrix(self, ids=None) -> np.ndarray:
        """The symmetric matrix over all covered positions, or over positions ``ids`` in order.

        ``city_ids`` refuses an id that is no integer position.
        """
        pos = np.arange(len(self.u)) if ids is None else city_ids(ids, len(self.u))
        return self.pairs(pos[:, None], pos[None, :])

    def cycle_length(self, cycle) -> float:
        """``cycle_length`` of a cycle of positions, its edges computed on demand."""
        pos = np.asarray(cycle)
        return edge_sum(self.pairs(pos, np.roll(pos, -1)).tolist())


def distance_matrix(inst: Instance, mode: MetricMode = MetricMode.CANONICAL,
                    ids=None) -> np.ndarray:
    """Symmetric distance matrix under the chosen metric convention.

    Over all cities, or over just ``ids`` in their given order: entry (i, j)
    is then the distance of cities ``ids[i]`` and ``ids[j]``, bit for bit the
    entry of the full matrix, at O(k^2) cost for k ids.  It is
    ``Distances(inst, mode, ids).matrix()``, which refuses cities so far
    apart that their distance overflows as ``NonFiniteDistance``.
    """
    return Distances(inst, mode, ids).matrix()


def distance(inst: Instance, i: int, j: int, mode: MetricMode = MetricMode.CANONICAL) -> float:
    """Distance between cities i and j.

    CANONICAL applies the TSPLIB reference formula for the instance's edge
    weight type; PLAIN is unrounded Euclidean distance on the raw coordinates.
    ``IndexOutOfRange`` unless i and j are integers in 0..n-1, as ``city_ids``.
    """
    n = inst.dimension
    if not (0 <= i < n and 0 <= j < n and i == int(i) and j == int(j)):  # NaN fails the range
        raise IndexOutOfRange(f"city ids must be integers in 0..{n - 1}, got ({i}, {j})")
    i, j = int(i), int(j)
    if i == j:
        return 0.0
    (x1, y1), (x2, y2) = inst.coords[i], inst.coords[j]
    if mode is MetricMode.PLAIN or inst.edge_weight_type == "EUC_2D":
        d = math.hypot(x1 - x2, y1 - y2)
        return _nint(d) if mode is MetricMode.CANONICAL else d
    lat1, lon1 = _geo_radians(inst.coords[i])
    lat2, lon2 = _geo_radians(inst.coords[j])
    q1 = math.cos(lon1 - lon2)
    q2 = math.cos(lat1 - lat2)
    q3 = math.cos(lat1 + lat2)
    arg = min(1.0, max(-1.0, 0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)))
    return float(int(_GEO_RADIUS * math.acos(arg) + 1.0))


def tour_length(inst: Instance, tour: Tour, mode: MetricMode = MetricMode.CANONICAL) -> float:
    """Cyclic tour length: consecutive edges plus the closing edge."""
    order = tour.order
    if len(order) != inst.dimension or not validate_tour(order, inst.dimension):
        raise InvalidTour(f"tour does not cover instance of {inst.dimension} cities")
    total = 0.0
    for a, b in zip(order, order[1:] + order[:1]):
        total += distance(inst, a, b, mode)
    return total


def edge_sum(edges) -> float:
    """Sum of edge lengths (Python floats), left to right from 0.0.

    A plain loop: ``sum`` compensates float sums from Python 3.12 on.
    """
    total = 0.0
    for length in edges:
        total += length
    return total


def cycle_length(D: np.ndarray, order) -> float:
    """Length of a cyclic order under a precomputed distance matrix.

    Edge (order[i], order[i + 1]) is added before edge i + 1, and the
    closing edge last.
    """
    order = tuple(order)
    return edge_sum(map(D.item, order, order[1:] + order[:1]))


def gen_random_instance(n: int, seed: int, bound: float = 1000.0) -> Instance:
    """n points i.i.d. uniform on [0, bound]^2.

    Uses numpy's PCG64 generator seeded with ``seed``, so identical
    (n, seed, bound) arguments reproduce the instance bit for bit.
    """
    if n < 2:
        raise InvalidCount(f"need at least 2 cities, got {n}")
    if seed < 0:
        raise InvalidCount(f"seed must be non-negative, got {seed}")
    if not 0 < bound < math.inf:
        raise InvalidCount(f"bound must be positive and finite, got {bound}")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, bound, size=(n, 2))
    return Instance(
        name=f"random-{n}-s{seed}",
        dimension=n,
        edge_weight_type="EUC_2D",
        coords=coords,
    )


def sub_distance_matrix(D: np.ndarray, indices) -> np.ndarray:
    """Local distance matrix of a subset of cities (rows/cols of D)."""
    idx = np.asarray(indices, dtype=int)
    return D[np.ix_(idx, idx)]

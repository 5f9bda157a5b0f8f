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

    coords = np.full((dimension, 2), np.nan)
    seen = set()
    count = 0
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
        if node_id in seen:
            raise MalformedHeader(f"duplicate node id {node_id}")
        seen.add(node_id)
        coords[node_id - 1] = (x, y)
        count += 1

    if count != dimension:
        raise DimensionMismatch(f"DIMENSION {dimension} but {count} coordinate lines")
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


def distance_matrix(inst: Instance, mode: MetricMode = MetricMode.CANONICAL,
                    indices=None) -> np.ndarray:
    """Symmetric distance matrix under the chosen metric convention.

    Over all cities, or over just ``indices`` in their given order: entry
    (i, j) is then the distance of cities ``indices[i]`` and ``indices[j]``,
    bit for bit the entry of the full matrix, at O(k^2) cost for k indices.
    Cities so far apart that their distance overflows are ``NonFiniteDistance``.
    """
    xy = inst.coords if indices is None else inst.coords[np.asarray(indices, dtype=int)]
    if mode is MetricMode.PLAIN or inst.edge_weight_type == "EUC_2D":
        diff = xy[:, None, :] - xy[None, :, :]
        with np.errstate(over="ignore"):  # refused below
            d = np.sqrt((diff ** 2).sum(axis=2))
        if mode is MetricMode.CANONICAL:
            d = np.floor(d + 0.5)
    else:  # GEO, canonical
        rad = _geo_radians(xy)
        lat, lon = rad[:, 0], rad[:, 1]
        q1 = np.cos(lon[:, None] - lon[None, :])
        q2 = np.cos(lat[:, None] - lat[None, :])
        q3 = np.cos(lat[:, None] + lat[None, :])
        arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
        d = np.trunc(_GEO_RADIUS * np.arccos(arg) + 1.0)
        np.fill_diagonal(d, 0.0)
    if not np.isfinite(d).all():
        raise NonFiniteDistance(f"{inst.name}: a distance overflows; the coordinates "
                                "lie too far apart")
    return d


def distance(inst: Instance, i: int, j: int, mode: MetricMode = MetricMode.CANONICAL) -> float:
    """Distance between cities i and j.

    CANONICAL applies the TSPLIB reference formula for the instance's edge
    weight type; PLAIN is unrounded Euclidean distance on the raw coordinates.
    """
    n = inst.dimension
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"city index out of range for n={n}: ({i}, {j})")
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


def cycle_length(D: np.ndarray, order) -> float:
    """Length of a cyclic order under a precomputed distance matrix."""
    total = 0.0
    k = len(order)
    for idx in range(k):
        total += D[order[idx], order[(idx + 1) % k]]
    return float(total)


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

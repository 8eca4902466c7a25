"""Point sets with positive importance weights on a validated finite metric.

An :class:`Instance` is the input to everything else in this package: a list
of labelled points, a strictly positive weight per point (normalized so the
largest weight is exactly 1), and a symmetric distance matrix satisfying the
triangle inequality up to a small relative tolerance.

This module is also the library's one argument gate: every point index,
label and count another module takes is read by :func:`_point_indices`,
:func:`_check_points`, :func:`_label_points` or :func:`_count`; and its one
overflow gate: every sum of distances that must stay finite (a period, a
tour, an MST, an objective, the bound) is checked by :func:`_finite`.
"""
from __future__ import annotations

import gc
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

# Relative slack allowed when checking the triangle inequality.  Distances
# produced by floating-point geometry (hypot, shortest-path closures) can miss
# exact inequalities by a few ulps; anything worse than this is a real
# violation.
TRIANGLE_TOL = 1e-9

# Rows per tile of the triangle fast path (_some_triangle_violates): the
# running minimum of a tile is _TRIANGLE_TILE x n doubles, small enough to stay
# in cache while every middle point j passes over it.  _euclidean_matrix squares
# coordinate differences in blocks of as many rows.
_TRIANGLE_TILE = 64

# How many witnesses per violation kind a MetricReport keeps.  Counts are
# always exact; only the witness lists are truncated.
_WITNESS_CAP = 50

GEOMETRIES = ("euclidean-plane", "random-closure")
WEIGHT_LAWS = ("equal", "uniform", "pareto")


class InstanceFormatError(ValueError):
    """An instance document is malformed (missing keys, bad shapes, ...), or a
    document of any kind is not JSON (:func:`loads`)."""


class NonpositiveWeightError(ValueError):
    """A point weight is zero or negative."""


@dataclass(frozen=True)
class Violation:
    """One concrete failure of a metric axiom."""

    kind: str  # "nonfinite" | "asymmetry" | "diagonal" | "offdiagonal" | "triangle"
    where: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class MetricReport:
    """Outcome of a metric validation pass.

    ``violations`` holds up to ``_WITNESS_CAP`` witnesses per kind;
    ``counts`` holds the exact number found per kind.  An empty report
    (``ok`` is True) certifies a valid metric.
    """

    n: int
    violations: tuple[Violation, ...]
    counts: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return f"metric ok ({self.n} points)"
        parts = [f"{kind}: {cnt}" for kind, cnt in sorted(self.counts.items())]
        head = ", ".join(parts)
        first = "; ".join(v.message for v in self.violations[:3])
        return f"metric invalid ({head}) e.g. {first}"


class MetricViolationError(ValueError):
    """Raised when a distance matrix fails metric validation."""

    def __init__(self, report: MetricReport):
        self.report = report
        super().__init__(str(report))


def validate_metric(dist: np.ndarray) -> MetricReport:
    """Check finiteness, symmetry, zero diagonal, positive off-diagonal, and triangles.

    The triangle inequality is checked for every ordered triple with the
    relative tolerance ``TRIANGLE_TOL``: ``d[i,k] > (d[i,j] + d[j,k]) *
    (1 + TRIANGLE_TOL)`` counts as a violation.  A non-finite entry skips
    the other checks.

    Each kind is found as one boolean mask (the triangles as one mask per
    middle point j) and counted exactly from it; only the first
    ``_WITNESS_CAP`` hits of a kind, in row-major order, become witnesses.
    So the work is whole-array steps plus at most ``_WITNESS_CAP`` formatted
    messages per kind, however many entries violate.

    A symmetric matrix first goes through :func:`_some_triangle_violates`,
    which decides exactly, in cache-sized tiles, whether any triangle
    violates.  Only an asymmetric matrix, or one with a violating triangle,
    pays for the per-j scan that counts and formats them.
    """
    return _metric_report(np.asarray(dist, dtype=float), triangles_hold=False)


def _metric_report(d: np.ndarray, triangles_hold: bool) -> MetricReport:
    """:func:`validate_metric` on the float array ``d``.  ``triangles_hold``
    is :func:`_euclidean_matrix`'s guard: when it is True no triangle of a
    symmetric ``d`` can violate, so the tile pass is skipped."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InstanceFormatError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    violations: list[Violation] = []
    counts: dict[str, int] = {}

    def record(kind: str, mask: np.ndarray,
               describe: Callable[..., tuple[tuple[int, ...], str]],
               upper: bool = False) -> None:
        """Count ``mask``'s hits as ``kind``, only those above the diagonal
        if ``upper``; ``describe(*index)`` gives the (where, message) of a
        hit, asked only while the kind has room.  An ``upper`` mask is
        cleared on and below the diagonal in place, and only if it has hits
        off the diagonal."""
        found = int(np.count_nonzero(mask))
        if upper:
            found -= int(np.count_nonzero(mask.diagonal()))
            if found:
                for i in range(n):
                    mask[i, :i + 1] = False
                found = int(np.count_nonzero(mask))
        held = counts.get(kind, 0)
        counts[kind] = held + found
        if found and held < _WITNESS_CAP:
            for index in np.argwhere(mask)[:_WITNESS_CAP - held].tolist():
                violations.append(Violation(kind, *describe(*index)))

    # One n x n mask at a time: each goes as soon as it is counted (numpy
    # inverts the isfinite temporary in place).
    record("nonfinite", ~np.isfinite(d), lambda i, j: ((i, j), f"dist[{i}][{j}] is not finite"))

    if not counts["nonfinite"]:
        record("asymmetry", d != d.T, lambda i, j: (
            (i, j), f"dist[{i}][{j}]={float(d[i, j])!r} != dist[{j}][{i}]={float(d[j, i])!r}"),
            upper=True)
        record("diagonal", np.diagonal(d) != 0.0, lambda i: (
            (i,), f"dist[{i}][{i}]={float(d[i, i])!r} must be 0"))
        record("offdiagonal", d <= 0.0, lambda i, j: (
            (i, j), f"zero or negative distance {float(d[i, j])!r} "
                    f"between distinct points {i} and {j}"), upper=True)

        # d[i,k] <= (d[i,j] + d[j,k]) * (1 + TRIANGLE_TOL) must hold for every j.
        # A sum past the largest double is inf, which no distance exceeds.
        if counts["asymmetry"] or (not triangles_hold and _some_triangle_violates(d)):
            limit = 1.0 + TRIANGLE_TOL
            with np.errstate(over="ignore"):
                for j in range(n):
                    viol = d > (d[:, j][:, None] + d[j, :][None, :]) * limit
                    if viol.any():
                        record("triangle", viol, lambda i, k: (
                            (i, j, k), f"dist[{i}][{k}]={float(d[i, k])!r} exceeds "
                                       f"dist[{i}][{j}]+dist[{j}][{k}]={float(d[i, j] + d[j, k])!r}"))

    return MetricReport(n=n, violations=tuple(violations),
                        counts={kind: found for kind, found in counts.items() if found})


def _some_triangle_violates(d: np.ndarray) -> bool:
    """Whether ``d[i,k] > (d[i,j] + d[j,k]) * (1 + TRIANGLE_TOL)`` for some (i, j, k).

    ``d`` must be finite and exactly symmetric.  Rows are taken in tiles
    i0 <= i < i1 of ``_TRIANGLE_TILE``; for each tile, ``m[i, k]`` is the
    running minimum over j of ``d[i,j] + d[j,k]`` for the columns k >= i0,
    compared once with ``d[i,k]``.  The first violating tile ends the search.
    The answer is exactly whether the per-j scan in :func:`validate_metric`
    finds a violation:

    - Under exact symmetry (i, j, k) violates iff (k, j, i) does: ``d[k,i]``
      is ``d[i,k]``, and ``d[k,j] + d[j,i]`` is ``d[j,k] + d[i,j]``, the same
      double because float addition commutes.  A pair with k < i is checked
      as (k, i) in k's tile, whose columns start at or before k, so the
      columns k >= i0 suffice.
    - Rounding ``x * (1 + TRIANGLE_TOL)`` is monotone in x, so the product
      of the minimum is the minimum of the products: ``d[i,k]`` exceeds some
      j's bound iff it exceeds the bound at the minimum.
    - A sum that overflows is inf, as in the per-j scan, and no distance
      exceeds it; finite entries make no NaN.
    - Within a tile, column j (``d[i0:i1, j]``) is row j's slice
      ``d[j, i0:i1]``, so every step reads contiguous rows.
    """
    n = d.shape[0]
    limit = 1.0 + TRIANGLE_TOL
    with np.errstate(over="ignore"):
        for i0 in range(0, n, _TRIANGLE_TILE):
            i1 = min(i0 + _TRIANGLE_TILE, n)
            column, right = d[:, i0:i1, None], d[:, i0:]
            m = column[0] + right[0]
            step = np.empty_like(m)
            for j in range(1, n):
                np.minimum(m, np.add(column[j], right[j], out=step), out=m)
            if (d[i0:i1, i0:] > m * limit).any():
                return True
    return False


@dataclass(frozen=True, eq=False)
class Instance:
    """Labelled points, normalized positive weights, and a valid metric.

    Construct through :func:`make_instance` / :func:`load_instance`; those
    normalize weights and validate the metric.  ``coords`` holds the points
    a euclidean ``dist`` was computed from, one row per label, or None for
    an explicit matrix.  Arrays are frozen after construction.
    """

    labels: tuple[str, ...]
    weights: np.ndarray
    dist: np.ndarray
    coords: np.ndarray | None = None
    _index: dict[str, int] = field(repr=False, default_factory=dict)
    # mst._subset_mst's trees, keyed by ascending vertex tuple
    _msts: dict[tuple[int, ...], tuple] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        for array in (self.weights, self.dist, self.coords):
            if array is not None:
                array.flags.writeable = False
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """The point named ``label``; ValueError if none is."""
        return _label_points(self, (label,), "labels")[0]

    def to_document(self) -> dict[str, Any]:
        return {
            "labels": list(self.labels),
            "weights": self.weights.tolist(),
            "metric": ({"type": "explicit", "dist": self.dist.tolist()} if self.coords is None
                       else {"type": "euclidean", "coords": self.coords.tolist()}),
        }


def _point_indices(values: Iterable[Any], what: str) -> tuple[int, ...]:
    """``values`` as point indices: each an ``int``, ``bool`` or numpy
    integer.  A float or any other value raises ValueError naming the first
    such entry as ``what``, instead of being truncated to a point."""
    values = tuple(values)  # read twice on an error, so not a one-shot iterator
    try:
        return tuple(map(operator.index, values))
    except TypeError:  # a float, string, None or array: not a point index
        for bad in values:  # an array has __index__, yet operator.index refuses it
            try:
                operator.index(bad)
            except TypeError:
                raise ValueError(f"{what} {bad!r} is not a point index") from None
        raise


def _check_points(inst: Instance, points: Sequence[int]) -> np.ndarray:
    """The integer ``points`` as an index array, in one numpy call;
    ValueError names the first that is not a point of ``inst``."""
    try:
        v = np.array(points, dtype=np.intp)
        if v.min(initial=0) >= 0 and v.max(initial=0) < inst.n:
            return v
    except OverflowError:  # an index past the C integer range
        pass
    bad = next(x for x in points if not 0 <= x < inst.n)
    raise ValueError(f"unknown point index {bad}")


def _label_points(inst: Instance, labels: Sequence[Any], what: str) -> tuple[int, ...]:
    """The point each of ``labels`` names, in one lookup; the first entry
    that is not a string, or names no point, raises ValueError (a
    non-string named as one of ``what``)."""
    try:
        return tuple(map(inst._index.__getitem__, labels))
    except (KeyError, TypeError):  # an unknown label, or an unhashable entry
        bad = next(lab for lab in labels if not isinstance(lab, str) or lab not in inst._index)
        raise ValueError(f"unknown point label {bad!r}" if isinstance(bad, str) else
                         f"{what} must be point labels (strings), got {bad!r}") from None


def _count(value: Any, what: str, least: int) -> int:
    """``value`` as an integer (``operator.index``) of at least ``least``;
    ValueError names ``what`` otherwise, so 2.5 is never read as 2 or 3."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{what} must be at least {least}, got {count}")
    return count


def _finite(value: float, what: str) -> None:
    """ValueError naming ``what`` if ``value``, a sum of distances, is not
    finite: a result past the float range fails, never comes out as inf."""
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows to {value!r}: "
                         "the distances are too large to sum in floating point")


def _float_array(value: Any, name: str) -> np.ndarray:
    """``value`` as a fresh float array, or an InstanceFormatError naming ``name``.

    numpy raises TypeError for a non-number such as a JSON object,
    OverflowError for an integer past the float range, and ValueError for
    ragged rows or a string that is not a number.
    """
    try:
        return np.array(value, dtype=float)
    except (TypeError, OverflowError, ValueError):
        raise InstanceFormatError(
            f"'{name}' must be an array of numbers with rows of equal length") from None


def make_instance(labels: Sequence[str], weights: Sequence[float],
                  dist: np.ndarray) -> Instance:
    """Build an Instance: normalize weights (max becomes 1) and validate.
    The instance keeps a copy of ``dist``."""
    return _instance(labels, weights, _float_array(dist, "dist"), None)


def _instance(labels: Sequence[str], weights: Sequence[float], dist: np.ndarray | None,
              coords: np.ndarray | None) -> Instance:
    """:func:`make_instance` on the matrix ``dist`` or, when ``dist`` is None,
    on the euclidean distances between the rows of ``coords``, one per
    label.  Every check runs, except that :func:`_euclidean_matrix`'s guard
    may show the triangle tile pass cannot fail.

    The instance takes ``dist`` and ``coords`` as they are, and freezes
    them: each caller passes a fresh float array that nothing else holds
    (:func:`_float_array`'s conversion, a generated array, or
    :func:`_euclidean_matrix`'s result), so no array is converted or
    copied twice."""
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise InstanceFormatError("instance needs at least one point")
    if len(set(labels)) != len(labels):
        raise InstanceFormatError("point labels must be unique")
    w = _float_array(weights, "weights")
    if w.shape != (len(labels),):
        raise InstanceFormatError(
            f"expected {len(labels)} weights, got shape {w.shape}")
    if not np.isfinite(w).all() or (w <= 0.0).any():
        bad = int(np.argmin(w)) if np.isfinite(w).all() else int(np.flatnonzero(~np.isfinite(w))[0])
        raise NonpositiveWeightError(
            f"weights must be finite and strictly positive; weight[{bad}]={float(w[bad])!r}")
    top = float(w.max())
    w = w / top
    if not w.all():  # a weight tiny beside the largest underflowed to 0
        bad = int(np.argmin(w))
        raise NonpositiveWeightError(f"weight[{bad}] of point {labels[bad]!r} normalizes "
                                     f"to 0 against the largest weight {top!r}")

    triangles_hold = False
    if dist is None:
        dist, triangles_hold = _euclidean_matrix(coords)
    if dist.shape != (len(labels), len(labels)):
        raise InstanceFormatError(
            f"expected a {len(labels)}x{len(labels)} distance matrix, got shape {dist.shape}")
    report = _metric_report(dist, triangles_hold)
    if not report.ok:
        raise MetricViolationError(report)
    return Instance(labels=labels, weights=w, dist=dist, coords=coords)


def instance_from_document(doc: Any) -> Instance:
    """Build an Instance from a parsed JSON document.

    Two metric encodings are accepted: ``{"type": "explicit", "dist": [[...]]}``
    and ``{"type": "euclidean", "coords": [[x, y], ...]}`` (distances are
    computed at load time, and the instance keeps the coordinates).
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    try:
        labels = doc["labels"]
        weights = doc["weights"]
        metric = doc["metric"]
    except (KeyError, TypeError) as e:
        raise InstanceFormatError(f"instance document missing key: {e}") from None
    if not isinstance(labels, list) or not isinstance(weights, list):
        raise InstanceFormatError("'labels' and 'weights' must be arrays")
    for label in labels:
        if not isinstance(label, str):
            raise InstanceFormatError(f"point labels must be strings, got {label!r}")
    if not isinstance(metric, dict) or "type" not in metric:
        raise InstanceFormatError("'metric' must be an object with a 'type'")

    kind = metric["type"]
    if kind == "explicit":
        if "dist" not in metric:
            raise InstanceFormatError("explicit metric needs a 'dist' matrix")
        return _instance(labels, weights, _float_array(metric["dist"], "metric.dist"), None)
    if kind == "euclidean":
        if "coords" not in metric:
            raise InstanceFormatError("euclidean metric needs a 'coords' array")
        coords = _float_array(metric["coords"], "metric.coords")
        if coords.ndim != 2 or coords.shape[0] != len(labels):
            raise InstanceFormatError(
                f"expected {len(labels)} coordinate pairs, got shape {coords.shape}")
        return _instance(labels, weights, None, coords)
    raise InstanceFormatError(f"unknown metric type {kind!r}")


def loads(data: bytes | str, what: str) -> Any:
    """Parse one JSON document of any kind (instance, schedule, strategy).

    ``data`` is a file's bytes, decoded as strict UTF-8 (json's UTF-16/32
    detection is not used), or already decoded text.  Bytes that are not
    UTF-8, malformed or too deeply nested JSON, and an integer too long
    for Python to read raise InstanceFormatError naming ``what``.

    The garbage collector is paused while parsing: a collection at the
    recursion limit of a too deeply nested document could run some other
    object's finalizer there, which fails and prints ``Exception ignored``.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return json.loads(data.decode() if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as e:  # nested too deep: RecursionError
        raise InstanceFormatError(f"{what}: not valid JSON: {e}") from None
    finally:
        if collecting:
            gc.enable()


def dumps(doc: Any, what: str) -> str:
    """``doc`` as one line of JSON with sorted keys.

    A NaN or infinite float raises ValueError naming ``what`` and the
    first such field in key order.
    """
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:
        found = next(_nonfinite_fields(doc, ""), None)
        if found is None:
            raise
        raise ValueError(f"{what} field {found[0]} is {found[1]!r}") from None


def _nonfinite_fields(doc: Any, where: str) -> Iterator[tuple[str, float]]:
    """The dotted path and value of every NaN or infinite float in ``doc``,
    in the sorted-key order :func:`dumps` writes."""
    if isinstance(doc, float) and not math.isfinite(doc):
        yield where, doc
    elif isinstance(doc, dict):
        for key in sorted(doc):
            yield from _nonfinite_fields(doc[key], f"{where}.{key}" if where else str(key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nonfinite_fields(value, f"{where}[{i}]")


def load_instance(data: bytes | str, what: str = "instance") -> Instance:
    """Parse an instance JSON document from a file's bytes or a string
    (see :func:`loads`); ``what`` names it in a parse error."""
    return instance_from_document(loads(data, what))


def serialize_instance(inst: Instance) -> str:
    """Serialize to JSON such that load/serialize round-trips exactly."""
    return dumps(inst.to_document(), "instance")


def _euclidean_matrix(coords: np.ndarray) -> tuple[np.ndarray, bool]:
    """The euclidean distances between the rows of ``coords``, and a guard:
    whether every squared coordinate difference is 0 or a finite normal
    float (and there are fewer than 2**20 coordinates per point).

    When the guard holds, no triangle can violate the ``TRIANGLE_TOL``
    check.  Let u = 2**-53 and k be the number of coordinates.  A
    difference is within u of its true value, relatively (a zero or
    subnormal difference is exact; one that overflows squares to inf).  Its
    square, 0 or normal, is then within 3u, and a sum of k such squares,
    which cannot underflow, within (k + 2) u.  A sum that overflows is an
    infinite distance, which the nonfinite check rejects before any
    triangle.  ``sqrt`` halves the error and adds u, so every computed
    distance is within e = (k + 3) u of the true distance between the given
    points, relatively.  True distances satisfy the triangle inequality,
    hence ``d[i,k] <= (d[i,j] + d[j,k]) (1 + e) / (1 - e)``, while the
    check's rounded ``(d[i,j] + d[j,k]) * (1 + TRIANGLE_TOL)`` is inf or at
    least ``(d[i,j] + d[j,k]) (1 + TRIANGLE_TOL - u) (1 - u)**2``.  For
    k < 2**20, 2e < 3e-10 is far below 1e-9, so the check cannot fail.
    Any other input gets the full check.  An infinite or NaN coordinate
    fails the guard, and numpy's warnings about it are silenced: the
    nonfinite check reports it.

    The squares are taken ``_TRIANGLE_TILE`` rows at a time, each block's
    sums written straight into the result, so the temporary is
    ``_TRIANGLE_TILE`` x n x k doubles rather than n x n x k.  Every
    distance is still one ``sum`` over its own k squares, the same bits as
    summing the whole array at once, and the guard is folded over the
    blocks.
    """
    dist, triangles_hold = np.empty((len(coords),) * 2), coords.shape[1] < 2**20
    with np.errstate(invalid="ignore", over="ignore"):
        for i0 in range(0, len(coords), _TRIANGLE_TILE):
            squares = coords[i0:i0 + _TRIANGLE_TILE, None] - coords
            np.multiply(squares, squares, out=squares)
            squares.sum(axis=-1, out=dist[i0:i0 + _TRIANGLE_TILE])
            triangles_hold = bool(triangles_hold and squares.max(initial=0.0) < math.inf
                                  and squares.min(where=squares > 0.0, initial=math.inf)
                                  >= sys.float_info.min)
        np.sqrt(dist, out=dist)
    return dist, triangles_hold


def _shortest_path_closure(cost: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths of a nonnegative cost matrix (Floyd-Warshall)."""
    d = cost.copy()
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k][:, None] + d[k, :][None, :], out=d)
    return d


@dataclass(frozen=True)
class RandomSpec:
    """Shape of a random instance: size, weight distribution, geometry.

    An ``n`` that is not an integer of at least 3 raises ValueError.
    """

    n: int
    weight_law: str = "uniform"
    geometry: str = "euclidean-plane"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count(self.n, "n", 3))
        if self.weight_law not in WEIGHT_LAWS:
            raise ValueError(f"unknown weight law {self.weight_law!r}; pick one of {WEIGHT_LAWS}")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}; pick one of {GEOMETRIES}")


def generate_random(spec: RandomSpec, seed: int) -> Instance:
    """Generate a random valid instance, deterministically from ``seed``.

    Geometries: ``euclidean-plane`` draws points in the unit square;
    ``random-closure`` draws symmetric positive costs and takes their
    shortest-path closure, which makes them a metric.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    coords = dist = None
    if spec.geometry == "euclidean-plane":
        coords = rng.uniform(0.0, 1.0, size=(n, 2))
    else:
        raw = rng.uniform(0.1, 2.0, size=(n, n))
        upper = np.triu(raw, 1)
        dist = _shortest_path_closure(upper + upper.T)

    if spec.weight_law == "equal":
        weights = np.ones(n)
    elif spec.weight_law == "uniform":
        weights = rng.uniform(1e-3, 1.0, size=n)
    else:  # pareto: heavy-tailed, spreads points over many weight octaves
        weights = rng.pareto(1.5, size=n) + 1.0

    return _instance([f"p{i}" for i in range(n)], weights, dist, coords)

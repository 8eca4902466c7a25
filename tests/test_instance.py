"""Instance construction, metric validation, JSON round-trips, generation."""
from __future__ import annotations

import gc
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsched import (GEOMETRIES, WEIGHT_LAWS, InstanceFormatError,
                         MetricViolationError, NonpositiveWeightError,
                         RandomSpec, generate_random, instance_from_document,
                         load_instance, make_instance, serialize_instance,
                         validate_metric)
from patrolsched.instance import (_TRIANGLE_TILE, _euclidean_matrix, _metric_report,
                                  _shortest_path_closure, _some_triangle_violates, dumps,
                                  loads)
from conftest import random_instance, reference_validate_metric


def validated(d: np.ndarray):
    """``validate_metric(d)``, checked equal to the per-violation reference:
    kinds, witnesses in order, messages, exact counts in order, summary."""
    report, expected = validate_metric(d), reference_validate_metric(d)
    assert report == expected
    assert list(report.counts.items()) == list(expected.counts.items())
    assert str(report) == str(expected)
    return report


class TestValidateMetric:
    def test_valid_metric_passes(self):
        d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        report = validated(d)
        assert report.ok
        assert report.violations == ()

    def test_triangle_violation_reports_witness_triple(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        report = validated(d)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds == {"triangle"}
        # witness is (i, j, k): d[i][k] > d[i][j] + d[j][k]
        assert (0, 1, 2) in {v.where for v in report.violations}

    def test_asymmetry_detected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        report = validated(d)
        assert any(v.kind == "asymmetry" for v in report.violations)

    def test_nonzero_diagonal_detected(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        report = validated(d)
        assert any(v.kind == "diagonal" for v in report.violations)

    def test_nonpositive_offdiagonal_detected(self):
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        report = validated(d)
        assert any(v.kind == "offdiagonal" for v in report.violations)

    def test_nonfinite_detected(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        report = validated(d)
        assert any(v.kind == "nonfinite" for v in report.violations)

    def test_tolerance_allows_float_slack(self):
        # violates the exact triangle inequality by a relative 1e-12 only
        d = np.array([[0.0, 1.0, 2.0 * (1.0 + 1e-12)],
                      [1.0, 0.0, 1.0],
                      [2.0 * (1.0 + 1e-12), 1.0, 0.0]])
        assert validated(d).ok

    def test_violation_counts_exact_even_when_witnesses_capped(self):
        n = 60
        d = np.full((n, n), 10.0)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 100.0  # every 2-hop detour beats the direct edge
        report = validated(d)
        assert not report.ok
        # (0, j, 1) and (1, j, 0) violate for every detour point j
        assert report.counts["triangle"] == 2 * (n - 2)
        tri_witnesses = [v for v in report.violations if v.kind == "triangle"]
        assert len(tri_witnesses) == 50  # witness list capped, counts exact


@st.composite
def planted_matrices(draw):
    """Square matrices of up to 40 points that break the metric axioms.

    Random symmetric costs (mostly non-metric) or their shortest-path
    closure (a metric), scaled from the subnormal range up to near the
    largest double, with planted asymmetric, diagonal, zero, negative and
    non-finite entries.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.uniform(0.1, 2.0, size=(n, n))
    d = np.triu(raw, 1) + np.triu(raw, 1).T
    if draw(st.booleans()):
        d = _shortest_path_closure(d)
    d = d * draw(st.sampled_from([1.0, 1e-3, 1e-310, 5e-324, 1e300, 4e307]))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x = float(d[i, j])
        d[i, j] = draw(st.sampled_from([x * 1.5, x * 0.5, 0.25, 0.0, -1.0,
                                        math.nan, math.inf, -math.inf, 1.7e308]))
    return d


@settings(max_examples=150, deadline=None)
@given(d=planted_matrices())
def test_report_equals_the_per_violation_reference(d):
    validated(d)


_SCALES = [1.0, 1e-3, 1e-310, 5e-324, 1e300, 4e307]


@st.composite
def tiled_matrices(draw):
    """Metrics of up to 200 points, so up to four row tiles of the triangle
    fast path, with symmetric triangle violations planted.

    The shortest-path closure of random symmetric costs, on the scale ladder
    of ``planted_matrices``.  Each planted pair ``d[i,k] = d[k,i]`` has i in
    tile a and k in tile b >= a: inside one tile, or across tile boundaries
    (i < 64 <= 128 <= k when a = 0 and b = 2).  Raising an entry breaks the
    triangles it closes, lowering one breaks the triangles it is a leg of;
    1 + 1e-10 stays within ``TRIANGLE_TOL``.
    """
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.uniform(0.1, 2.0, size=(n, n))
    d = _shortest_path_closure(np.triu(raw, 1) + np.triu(raw, 1).T)
    d = d * draw(st.sampled_from(_SCALES))

    def in_tile(t: int) -> int:
        return draw(st.integers(t * _TRIANGLE_TILE, min((t + 1) * _TRIANGLE_TILE, n) - 1))

    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, (n - 1) // _TRIANGLE_TILE))
        i, k = in_tile(a), in_tile(draw(st.integers(a, (n - 1) // _TRIANGLE_TILE)))
        factor = draw(st.sampled_from([1.5, 3.0, 1.0 + 1e-8, 1.0 + 1e-10, 0.5]))
        d[i, k] = d[k, i] = d[i, k] * factor
    return d


@settings(max_examples=60, deadline=None)
@given(d=tiled_matrices())
def test_tiled_fast_path_decides_exactly_what_the_per_j_scan_finds(d):
    report = validated(d)
    if np.isfinite(d).all():
        assert _some_triangle_violates(d) == ("triangle" in report.counts)


@pytest.mark.parametrize("i, k", [(1, 2), (70, 100), (130, 190), (193, 198),
                                  (5, 150), (70, 195), (129, 199)])
def test_a_violation_in_any_tile_or_across_tiles_is_found(i, k):
    """Exactly one planted pair on 200 points (tiles 0-63, 64-127, 128-191,
    192-199), so only the tiles holding rows i or k can see it."""
    raw = np.random.default_rng(11).uniform(0.1, 2.0, size=(200, 200))
    d = _shortest_path_closure(np.triu(raw, 1) + np.triu(raw, 1).T)
    assert not _some_triangle_violates(d)
    d[i, k] = d[k, i] = 3.0 * d[i, k]
    assert _some_triangle_violates(d)
    assert validated(d).counts["triangle"] >= 2


def test_asymmetric_matrix_with_triangle_violations_keeps_its_witnesses():
    n = 200
    raw = np.random.default_rng(7).uniform(0.1, 2.0, size=(n, n))
    d = _shortest_path_closure(np.triu(raw, 1) + np.triu(raw, 1).T)
    d[5, 150] = d[150, 5] = 3.0 * d[5, 150]  # across tiles: i < 64 <= 128 <= k
    d[70, 90] = 2.0 * d[70, 90]  # asymmetric, inside the second tile
    report = validated(d)
    assert report.counts["asymmetry"] == 1
    assert report.counts["triangle"] > 2 * (n - 2)
    witnesses = [v.where for v in report.violations if v.kind == "triangle"]
    assert len(witnesses) == 50
    assert witnesses[0][0] == 5  # row-major over the first violating j


class TestMakeInstance:
    def test_weights_normalized_to_max_one(self):
        inst = make_instance(["a", "b"], [2.0, 4.0], [[0.0, 1.0], [1.0, 0.0]])
        assert inst.weights.max() == 1.0
        assert inst.weights[0] == 0.5

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(NonpositiveWeightError):
            make_instance(["a", "b"], [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InstanceFormatError):
            make_instance(["a", "a"], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_bad_metric(self):
        with pytest.raises(MetricViolationError):
            make_instance(["a", "b", "c"], [1.0, 1.0, 1.0],
                          [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])

    def test_arrays_are_frozen(self, unit_triangle):
        with pytest.raises(ValueError):
            unit_triangle.weights[0] = 2.0
        with pytest.raises(ValueError):
            unit_triangle.dist[0, 1] = 2.0

    def test_index_lookup(self, unit_triangle):
        assert unit_triangle.index("b") == 1
        with pytest.raises(ValueError):
            unit_triangle.index("zz")

    def test_keeps_its_own_copy_of_the_callers_matrix(self):
        d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        inst = make_instance(["a", "b", "c"], [1.0, 1.0, 1.0], d)
        assert not np.shares_memory(inst.dist, d)
        assert d.flags.writeable
        d[0, 1] = d[1, 0] = 5.0
        assert inst.dist[0, 1] == inst.dist[1, 0] == 1.0


def built_instances():
    """Instances from every way in: both metric forms of a document, and
    both generated geometries."""
    doc = {"labels": ["a", "b", "c"], "weights": [2, 1, 1]}
    yield load_instance(json.dumps({**doc, "metric": {
        "type": "explicit", "dist": [[0, 3, 4], [3, 0, 5], [4, 5, 0]]}}))
    yield load_instance(json.dumps({**doc, "metric": {
        "type": "euclidean", "coords": [[0, 0], [3, 0], [0, 4]]}}))
    for geometry in GEOMETRIES:
        yield random_instance(1, 12, geometry=geometry)


@pytest.mark.parametrize("inst", built_instances())
def test_every_array_is_frozen_and_owns_its_data(inst):
    for array in [inst.weights, inst.dist] + ([] if inst.coords is None else [inst.coords]):
        assert not array.flags.writeable
        assert array.flags.owndata


class TestDocuments:
    def test_round_trip_explicit(self, unit_triangle):
        text = serialize_instance(unit_triangle)
        again = load_instance(text)
        assert again.labels == unit_triangle.labels
        np.testing.assert_array_equal(again.dist, unit_triangle.dist)
        np.testing.assert_array_equal(again.weights, unit_triangle.weights)

    def test_euclidean_document(self):
        doc = {"labels": ["a", "b", "c"],
               "weights": [1.0, 1.0, 1.0],
               "metric": {"type": "euclidean",
                          "coords": [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]}}
        inst = instance_from_document(doc)
        assert inst.dist[0, 1] == 3.0
        assert inst.dist[0, 2] == 4.0
        assert inst.dist[1, 2] == 5.0

    def test_bad_json_raises_format_error(self):
        with pytest.raises(InstanceFormatError):
            load_instance("{not json")

    def test_one_line_of_sorted_key_json(self, unit_triangle):
        text = serialize_instance(unit_triangle)
        assert text == json.dumps(json.loads(text), sort_keys=True)
        assert "\n" not in text

    def test_codec_errors_name_the_document(self):
        with pytest.raises(InstanceFormatError, match=r"^instance: not valid JSON: "):
            load_instance("{not json")
        with pytest.raises(InstanceFormatError, match=r"^x\.json: not valid JSON: maximum "):
            loads("[" * 100_000 + "]" * 100_000, "x.json")
        with pytest.raises(ValueError, match=r"^report field a\[0\] is nan$"):
            dumps({"b": 1.0, "a": [math.nan]}, "report")

    @pytest.mark.parametrize("collecting", [True, False])
    def test_parsing_pauses_the_collector_and_restores_it(self, collecting, monkeypatch):
        parse, seen = json.loads, []

        def spy(text):
            seen.append(gc.isenabled())
            return parse(text)
        monkeypatch.setattr(json, "loads", spy)
        before = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert loads(b"[1]", "x.json") == [1]
            assert gc.isenabled() is collecting
            with pytest.raises(InstanceFormatError, match="maximum recursion depth"):
                loads("[" * 100_000 + "]" * 100_000, "x.json")
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if before else gc.disable)()
        assert seen == [False, False]

    def test_bytes_are_read_as_strict_utf_8(self):
        assert loads('{"a": "\u00e9"}'.encode(), "x.json") == {"a": "\u00e9"}
        with pytest.raises(InstanceFormatError,
                           match=r"^x\.json: not valid JSON: 'utf-8' codec can't decode "
                                 r"byte 0xff in position 0"):
            loads(b"\xff[1]", "x.json")
        with pytest.raises(InstanceFormatError, match=r"^x\.json: not valid JSON: "):
            loads("[1]".encode("utf-16-le"), "x.json")  # json alone would detect UTF-16

    def test_missing_field_raises_format_error(self):
        with pytest.raises(InstanceFormatError):
            load_instance(json.dumps({"labels": ["a"], "weights": [1.0]}))

    def test_unknown_metric_type_raises(self):
        doc = {"labels": ["a"], "weights": [1.0], "metric": {"type": "warp"}}
        with pytest.raises(InstanceFormatError):
            instance_from_document(doc)

    @pytest.mark.parametrize("label", [["a"], 1, None, True, {"x": 1}])
    def test_non_string_label_raises_format_error(self, label):
        doc = {"labels": [label, "b"], "weights": [1.0, 1.0],
               "metric": {"type": "explicit", "dist": [[0.0, 1.0], [1.0, 0.0]]}}
        with pytest.raises(InstanceFormatError, match="labels must be strings"):
            instance_from_document(doc)

    def test_make_instance_still_converts_labels(self):
        inst = make_instance([1, 2], [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        assert inst.labels == ("1", "2")


class TestGenerateRandom:
    def test_deterministic_for_fixed_seed(self):
        a = random_instance(42, 12)
        b = random_instance(42, 12)
        np.testing.assert_array_equal(a.dist, b.dist)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.labels == b.labels

    def test_different_seeds_differ(self):
        a = random_instance(1, 12)
        b = random_instance(2, 12)
        assert not np.array_equal(a.dist, b.dist)

    def test_euclidean_plane_diameter(self):
        inst = random_instance(0, 100, geometry="euclidean-plane")
        assert inst.dist.max() <= np.sqrt(2.0) + 1e-12

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("law", WEIGHT_LAWS)
    def test_all_laws_and_geometries_yield_valid_instances(self, geometry, law):
        inst = generate_random(RandomSpec(n=9, weight_law=law, geometry=geometry), 5)
        assert validate_metric(inst.dist).ok
        assert inst.weights.max() == 1.0
        assert (inst.weights > 0).all()

    def test_equal_law_gives_unit_weights(self):
        inst = random_instance(3, 7, weight_law="equal")
        assert (inst.weights == 1.0).all()

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            RandomSpec(n=2)

    def test_rejects_unknown_law(self):
        with pytest.raises(ValueError):
            RandomSpec(n=5, weight_law="zipf")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 20),
       geometry=st.sampled_from(GEOMETRIES))
def test_generated_instances_always_metric(seed, n, geometry):
    inst = generate_random(RandomSpec(n=n, geometry=geometry), seed)
    assert validate_metric(inst.dist).ok


def parent_euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """The distance matrix generated instances had before they kept their
    coordinates."""
    with np.errstate(over="ignore"):
        diff = coords[:, None, :] - coords[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))


class TestCoordinateInstances:
    @pytest.mark.parametrize("n", [160, 280, 1000, 2000])
    def test_round_trip_is_bit_identical_to_the_generated_matrix(self, n):
        inst = random_instance(1, n)
        coords = np.random.default_rng(1).uniform(0.0, 1.0, size=(n, 2))
        assert np.array_equal(inst.coords, coords)
        assert np.array_equal(inst.dist, parent_euclidean_matrix(coords))
        text = serialize_instance(inst)
        assert json.loads(text)["metric"] == {"type": "euclidean", "coords": coords.tolist()}
        again = load_instance(text)
        assert np.array_equal(again.dist, inst.dist)
        assert np.array_equal(again.coords, coords)
        assert serialize_instance(again) == text

    def test_each_metric_form_is_written_back_as_it_was_read(self, unit_triangle):
        assert unit_triangle.coords is None
        assert json.loads(serialize_instance(unit_triangle))["metric"]["type"] == "explicit"
        closure = random_instance(1, 12, geometry="random-closure")
        assert closure.coords is None
        assert closure.to_document()["metric"] == {"type": "explicit",
                                                   "dist": closure.dist.tolist()}
        doc = {"labels": ["a", "b"], "weights": [1.0, 1.0],
               "metric": {"type": "euclidean", "coords": [[0, 0], [3, 4]]}}
        inst = instance_from_document(doc)
        assert inst.to_document()["metric"] == {"type": "euclidean",
                                                "coords": [[0.0, 0.0], [3.0, 4.0]]}
        with pytest.raises(ValueError):
            inst.coords[0, 0] = 1.0

    @pytest.mark.parametrize("scale, holds", [
        (1.0, True), (1e-150, True), (1e150, True),
        (1e-160, False),  # squares below the smallest normal float
        (1e160, False),  # squares past the largest float
    ])
    def test_guard_holds_exactly_where_every_square_is_normal(self, scale, holds):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [0.0, 0.0]]) * scale
        assert _euclidean_matrix(coords)[1] is holds

    def test_guard_fails_on_a_coordinate_that_is_not_finite(self):
        for bad in (math.inf, math.nan):
            assert _euclidean_matrix(np.array([[0.0, 0.0], [bad, 1.0]]))[1] is False

    def test_duplicate_points_report_as_their_explicit_copy(self):
        coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]
        labels, weights = list("abcdef"), [1.0] * 6
        with pytest.raises(MetricViolationError) as from_coords:
            instance_from_document({"labels": labels, "weights": weights,
                                    "metric": {"type": "euclidean", "coords": coords}})
        dist = parent_euclidean_matrix(np.array(coords))
        with pytest.raises(MetricViolationError) as explicit:
            instance_from_document({"labels": labels, "weights": weights,
                                    "metric": {"type": "explicit", "dist": dist.tolist()}})
        assert from_coords.value.report == explicit.value.report == validated(dist)
        assert from_coords.value.report.counts == {"offdiagonal": 4}


@st.composite
def coordinate_sets(draw):
    """2 to 12 points in 1 to 3 dimensions, scaled by 10**k for k in
    [-160, 160]: small integers (duplicate points, equal x or y), arbitrary
    floats, or points nearly on one line, where the triangle inequality is
    tight."""
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grid", "floats", "line"]))
    if kind == "grid":
        values = st.integers(-3, 3).map(float)
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True)
    coords = np.array(draw(st.lists(st.lists(values, min_size=k, max_size=k),
                                    min_size=n, max_size=n)))
    if kind == "line":
        ts = coords[:, :1]
        direction = coords[0] if coords[0].any() else np.ones(k)
        coords = ts * direction + coords * 1e-12
    return coords * 10.0 ** draw(st.integers(-160, 160))


@settings(max_examples=400, deadline=None)
@given(coords=coordinate_sets())
def test_guard_never_skips_a_triangle_that_fails(coords):
    dist, holds = _euclidean_matrix(coords)
    assert np.array_equal(dist, parent_euclidean_matrix(coords))
    if holds and np.isfinite(dist).all():
        assert not _some_triangle_violates(dist)
    assert _metric_report(dist, holds) == validate_metric(dist)


def full_array_guard(coords: np.ndarray) -> bool:
    """:func:`_euclidean_matrix`'s guard over the whole n x n x k array of
    squared coordinate differences at once."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = coords[:, None, :] - coords[None, :, :]
        squares = diff * diff
        return bool(coords.shape[1] < 2**20 and squares.max(initial=0.0) < math.inf
                    and squares.min(where=squares > 0.0, initial=math.inf)
                    >= sys.float_info.min)


def coordinate_variants(n: int, k: int):
    """Normal points with the last a copy of the first, at scales that keep
    the guard or fail it; one pair a single ulp apart at 1e-140, whose
    subnormal square sits in the first row block only; and one infinite
    and one NaN coordinate."""
    coords = np.random.default_rng(n * 100 + k).normal(size=(n, k))
    coords[-1] = coords[0]
    for scale in (1.0, 1e-200, 1e-150, 1e150, 1e200):
        yield coords * scale
    if n > 2:
        near = coords * 1e-140
        near[1] = np.nextafter(near[0], math.inf)
        yield near
    for bad, row in ((math.inf, n // 2), (math.nan, n - 1)):
        broken = coords.copy()
        broken[row, k - 1] = bad
        yield broken


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 300])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 17, 40])
def test_row_blocks_give_the_full_array_bits_and_guard(n, k):
    for coords in coordinate_variants(n, k):
        dist, holds = _euclidean_matrix(coords)
        with np.errstate(invalid="ignore"):
            expected = parent_euclidean_matrix(coords)
        assert np.array_equal(dist, expected, equal_nan=True)
        assert holds is full_array_guard(coords)


def traced_peak(call) -> tuple[object, int]:
    """``call()``'s result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadMemory:
    """2000 points: a 32 MB matrix, built in row blocks of a few MB."""

    def test_coordinate_distances_take_little_beyond_their_result(self):
        coords = np.random.default_rng(1).uniform(0.0, 1.0, size=(2000, 2))
        (dist, _), peak = traced_peak(lambda: _euclidean_matrix(coords))
        assert peak <= 1.25 * dist.nbytes

    def test_loading_a_coordinate_file_takes_little_beyond_its_matrix(self):
        data = (serialize_instance(random_instance(1, 2000)) + "\n").encode()
        inst, peak = traced_peak(lambda: load_instance(data))
        assert peak <= 1.5 * inst.dist.nbytes

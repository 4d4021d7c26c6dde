import hashlib
import json
import logging

import numpy as np
import pytest

from floodnowcast.errors import DomainError, UsageError
from floodnowcast.pipeline import (
    CHANNELS,
    EventRecord,
    EventStream,
    GaugeReading,
    GaugeStation,
    TimeGrid,
    accumulate_rainfall,
    aggregate_activity,
    aggregate_point_events,
    assemble,
    blend_gauge_channel,
    label_flood_class,
    label_flood_classes,
    load_dataset,
    nearest_two_gauges,
    parse_utc,
    resample_series,
    save_dataset,
    water_ratio,
)

T0 = parse_utc("2022-05-01T00:00:00+00:00")
HOUR = 3600.0


def _gauge(gid, x, y, threshold=3.0, readings=()):
    return GaugeStation(id=gid, x=x, y=y, flood_threshold_elevation=threshold,
                        readings=list(readings))


# -- nearest gauges ------------------------------------------------------------


def test_nearest_two_gauges_inverse_distance():
    gauges = [_gauge("a", 1000.0, 0.0), _gauge("b", 3000.0, 0.0), _gauge("c", 9000.0, 0.0)]
    (g1, w1), (g2, w2) = nearest_two_gauges((0.0, 0.0), gauges)
    assert (g1.id, g2.id) == ("a", "b")
    assert w1 == pytest.approx(0.75, abs=1e-12)
    assert w2 == pytest.approx(0.25, abs=1e-12)


def test_nearest_two_gauges_equal_distances():
    gauges = [_gauge("a", -500.0, 0.0), _gauge("b", 500.0, 0.0)]
    (_, w1), (_, w2) = nearest_two_gauges((0.0, 0.0), gauges)
    assert w1 == w2 == 0.5


def test_nearest_two_gauges_coincident():
    gauges = [_gauge("a", 0.0, 0.0), _gauge("b", 700.0, 0.0)]
    (g1, w1), (g2, w2) = nearest_two_gauges((0.0, 0.0), gauges)
    assert g1.id == "a" and w1 == 1.0 and w2 == 0.0


def test_nearest_two_gauges_tie_breaks_by_id():
    gauges = [_gauge("z", 100.0, 0.0), _gauge("a", -100.0, 0.0), _gauge("m", 0.0, 900.0)]
    (g1, _), (g2, _) = nearest_two_gauges((0.0, 0.0), gauges)
    assert (g1.id, g2.id) == ("a", "z")


def test_nearest_two_gauges_needs_two():
    with pytest.raises(UsageError):
        nearest_two_gauges((0.0, 0.0), [_gauge("a", 1.0, 1.0)])


# -- resampling ------------------------------------------------------------------


def test_resample_linear_midpoint():
    out = resample_series([T0, T0 + 4 * HOUR], [0.2, 0.6], np.array([T0 + 2 * HOUR]))
    assert out[0] == pytest.approx(0.4, abs=1e-12)


def test_resample_clamps_before_first_reading():
    out = resample_series([T0 + HOUR, T0 + 2 * HOUR], [5.0, 9.0], np.array([T0, T0 + 3 * HOUR]))
    np.testing.assert_allclose(out, [5.0, 9.0])


def test_resample_identity_on_grid():
    times = T0 + 1800.0 * np.arange(4)
    vals = np.array([1.0, 4.0, 2.0, 8.0])
    np.testing.assert_array_equal(resample_series(times, vals, times), vals)


def test_resample_rejects_short_or_unsorted():
    with pytest.raises(UsageError):
        resample_series([T0], [1.0], np.array([T0]))
    with pytest.raises(UsageError):
        resample_series([T0 + HOUR, T0], [1.0, 2.0], np.array([T0]))


# -- rainfall accumulation ----------------------------------------------------------


def test_accumulate_constant_rate():
    out = accumulate_rainfall(np.full(8, 5.0), 4)
    np.testing.assert_array_equal(out, [5, 10, 15, 20, 20, 20, 20, 20])


def test_accumulate_zero():
    np.testing.assert_array_equal(accumulate_rainfall(np.zeros(6), 4), np.zeros(6))


def test_accumulate_impulse_window_membership():
    series = np.zeros(20)
    series[10] = 7.0
    out = accumulate_rainfall(series, 4)
    expected = np.zeros(20)
    expected[10:14] = 7.0
    np.testing.assert_array_equal(out, expected)


def test_accumulate_rejects_negative_and_bad_window():
    with pytest.raises(DomainError):
        accumulate_rainfall(np.array([1.0, -0.1]), 4)
    with pytest.raises(UsageError):
        accumulate_rainfall(np.ones(3), 0)


# -- water ratio -----------------------------------------------------------------


def test_water_ratio_values():
    np.testing.assert_allclose(water_ratio(np.array([3.0, 0.0, 4.5]), 3.0),
                               [1.0, 0.0, 1.5])


def test_water_ratio_rejects_bad_threshold():
    with pytest.raises(UsageError):
        water_ratio(np.array([1.0]), 0.0)


# -- blending ---------------------------------------------------------------------


def test_blend_hand_value():
    out = blend_gauge_channel(np.array([10.0]), np.array([20.0]), 0.75, 0.25)
    assert out[0] == pytest.approx(12.5, abs=1e-12)


def test_blend_identity_cases():
    s = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(blend_gauge_channel(s, s, 0.4, 0.6), s)
    np.testing.assert_array_equal(blend_gauge_channel(s, s * 9, 1.0, 0.0), s)


def test_blend_rejects_grid_mismatch():
    with pytest.raises(UsageError):
        blend_gauge_channel(np.ones(3), np.ones(4), 0.5, 0.5)


# -- point events ------------------------------------------------------------------


def _grid(count=6):
    return TimeGrid(start=T0, count=count)


def test_point_events_empty():
    counts, report = aggregate_point_events(EventStream("report_311"),
                                            np.zeros((3, 2)), _grid())
    assert counts.sum() == 0 and report["assigned"] == 0


def test_point_events_three_in_one_cell():
    xy = np.array([[0.0, 0.0], [5000.0, 0.0]])
    recs = [EventRecord(timestamp=T0 + 1200.0 + i, x=10.0, y=-5.0) for i in range(3)]
    counts, report = aggregate_point_events(EventStream("tweet", recs), xy, _grid())
    assert counts[0, 1] == 3.0
    assert counts.sum() == 3.0 == report["assigned"]


def test_point_events_boundary_belongs_to_ending_interval():
    xy = np.array([[0.0, 0.0], [5000.0, 0.0]])
    recs = [EventRecord(timestamp=T0 + 1800.0, x=0.0, y=0.0)]
    counts, _ = aggregate_point_events(EventStream("report_311", recs), xy, _grid())
    assert counts[0, 1] == 1.0 and counts.sum() == 1.0


def test_point_events_conservation_with_out_of_range():
    xy = np.array([[0.0, 0.0]])
    recs = [
        EventRecord(timestamp=T0 - 9000.0, x=0.0, y=0.0),     # before the grid
        EventRecord(timestamp=T0 + 10.0, x=0.0, y=0.0),
        EventRecord(timestamp=T0 + 1e7, x=0.0, y=0.0),        # after the grid
    ]
    counts, report = aggregate_point_events(EventStream("report_311", recs), xy, _grid())
    assert counts.sum() == 1.0
    assert report["assigned"] + report["out_of_time_range"] == 3.0


# -- activity -----------------------------------------------------------------------


def test_activity_constant_tile():
    recs = [EventRecord(timestamp=T0 + 4 * HOUR * k, value=0.5, tile_id="t0")
            for k in range(3)]
    out = aggregate_activity(EventStream("activity_tile", recs), {"t0": "n0"},
                             ["n0"], TimeGrid(start=T0, count=16))
    np.testing.assert_allclose(out[0], 0.5)


def test_activity_mean_of_member_tiles():
    recs = [EventRecord(timestamp=T0, value=0.2, tile_id="a"),
            EventRecord(timestamp=T0, value=0.6, tile_id="b"),
            EventRecord(timestamp=T0 + 4 * HOUR, value=0.2, tile_id="a"),
            EventRecord(timestamp=T0 + 4 * HOUR, value=0.6, tile_id="b")]
    out = aggregate_activity(EventStream("activity_tile", recs),
                             {"a": "n0", "b": "n0"}, ["n0"], _grid())
    np.testing.assert_allclose(out[0], 0.4)


def test_activity_linear_interpolation_between_windows():
    # windows at 0.0 then 1.0, four hours apart: midpoint grid step reads 0.5
    recs = [EventRecord(timestamp=T0, value=0.0, tile_id="t"),
            EventRecord(timestamp=T0 + 4 * HOUR, value=1.0, tile_id="t")]
    out = aggregate_activity(EventStream("activity_tile", recs), {"t": "n0"},
                             ["n0"], TimeGrid(start=T0, count=9))
    assert out[0, 4] == pytest.approx(0.5, abs=1e-12)


def test_activity_uncovered_node_zero_with_warning(caplog):
    recs = [EventRecord(timestamp=T0, value=0.3, tile_id="t"),
            EventRecord(timestamp=T0 + 4 * HOUR, value=0.3, tile_id="t")]
    with caplog.at_level(logging.WARNING):
        out = aggregate_activity(EventStream("activity_tile", recs), {"t": "n0"},
                                 ["n0", "n1"], _grid())
    assert np.all(out[1] == 0.0)
    assert "coverage" in caplog.text


# a tile mapped to a node id outside the node list ended in a KeyError traceback
@pytest.mark.parametrize("tile_to_node", [{"t": "n9"}, {}], ids=["unknown_node", "no_entry"])
def test_activity_rejects_a_tile_of_no_known_node(tile_to_node):
    recs = [EventRecord(timestamp=T0, value=0.3, tile_id="t")]
    with pytest.raises(UsageError, match="'t'"):
        aggregate_activity(EventStream("activity_tile", recs), tile_to_node, ["n0"], _grid())


def test_activity_rejects_out_of_range_index():
    with pytest.raises(DomainError):
        EventStream("activity_tile", [EventRecord(timestamp=T0, value=1.2, tile_id="t")])


# -- labels -----------------------------------------------------------------------


@pytest.mark.parametrize("fraction,expected", [
    (0.005, 0), (0.05, 1), (0.15, 2),
    (0.0, 0), (0.01, 1), (0.10, 1), (0.100001, 2), (1.0, 2),
])
def test_label_thresholds(fraction, expected):
    assert label_flood_class(fraction) == expected


def test_label_rejects_out_of_range():
    with pytest.raises(DomainError):
        label_flood_class(-0.1)
    with pytest.raises(DomainError):
        label_flood_class(1.5)


def test_labels_vectorized_matches_scalar_and_monotone():
    fr = np.linspace(0.0, 1.0, 101)
    vec = label_flood_classes(fr)
    assert list(vec) == [label_flood_class(f) for f in fr]
    assert np.all(np.diff(vec) >= 0)


# -- assembly ----------------------------------------------------------------------


def _zero_channels(n, t):
    return {name: np.zeros((n, t)) for name in CHANNELS}


def test_assemble_zero_inputs():
    grid = TimeGrid(start=T0, count=4)
    ft = assemble(["a", "b"], _zero_channels(2, 4), np.zeros((2, 4), dtype=int), grid, 2)
    assert ft.values.shape == (2, 6, 4)
    np.testing.assert_array_equal(ft.values, 0.0)
    np.testing.assert_array_equal(ft.labels, 0)
    np.testing.assert_array_equal(ft.channel_std, 1.0)  # constant channels keep std 1


def test_assemble_channel_order_fixed():
    assert CHANNELS == ("rain_2h", "rain_24h", "water_ratio", "reports_311",
                        "tweets", "activity")
    grid = TimeGrid(start=T0, count=3)
    channels = _zero_channels(1, 3)
    channels["tweets"] = np.array([[1.0, 2.0, 3.0]])
    ft = assemble(["a"], channels, np.zeros((1, 3), dtype=int), grid, 3)
    assert np.any(ft.values[0, CHANNELS.index("tweets")] != 0.0)


def test_assemble_training_span_zscore():
    # training span has mean 3, std 2; value 5 maps to 1.0
    grid = TimeGrid(start=T0, count=6)
    channels = _zero_channels(1, 6)
    channels["rain_2h"] = np.array([[1.0, 5.0, 1.0, 5.0, 5.0, 5.0]])
    ft = assemble(["a"], channels, np.zeros((1, 6), dtype=int), grid, train_steps=4)
    assert ft.channel_mean[0] == pytest.approx(3.0)
    assert ft.channel_std[0] == pytest.approx(2.0)
    assert ft.values[0, 0, 1] == pytest.approx(1.0, abs=1e-12)


def test_assemble_missing_channel_and_nan():
    grid = TimeGrid(start=T0, count=3)
    channels = _zero_channels(2, 3)
    del channels["activity"]
    with pytest.raises(UsageError):
        assemble(["a", "b"], channels, np.zeros((2, 3), dtype=int), grid, 2)
    channels = _zero_channels(2, 3)
    channels["tweets"][1, 2] = np.nan
    with pytest.raises(DomainError, match="tweets"):
        assemble(["a", "b"], channels, np.zeros((2, 3), dtype=int), grid, 2)


def test_end_to_end_resample_then_accumulate_hand_fixture():
    # readings already on the grid: resample is the identity, rolling sum by hand
    grid = TimeGrid(start=T0, count=10)
    increments = np.array([0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 1.0])
    readings = [GaugeReading(timestamp=float(ts), rain_increment_mm=float(v),
                             water_elevation_m=1.0)
                for ts, v in zip(grid.times(), increments)]
    gauge = _gauge("g", 0.0, 0.0, readings=readings)
    ts, rain, _ = gauge.series()
    on_grid = resample_series(ts, rain, grid.times())
    out = accumulate_rainfall(on_grid, 4)
    hand = [0.0, 1.0, 3.0, 3.0, 3.0, 5.0, 3.0, 3.0, 3.0, 1.0]
    np.testing.assert_array_equal(out, hand)


def test_count_channels_integer_nonnegative_before_normalization():
    xy = np.array([[0.0, 0.0], [9000.0, 0.0]])
    rng = np.random.default_rng(0)
    recs = [EventRecord(timestamp=T0 + float(rng.integers(1, 6 * 1800)),
                        x=float(rng.uniform(0, 9000)), y=0.0) for _ in range(40)]
    counts, _ = aggregate_point_events(EventStream("report_311", recs), xy, _grid())
    assert np.all(counts >= 0)
    assert np.all(counts == np.round(counts))


# -- container round trip -------------------------------------------------------


def test_dataset_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    grid = TimeGrid(start=T0, count=12)
    channels = {name: rng.normal(size=(3, 12)) for name in CHANNELS}
    labels = rng.integers(0, 3, size=(3, 12))
    ft = assemble(["a", "b", "c"], channels, labels, grid, train_steps=8)
    path = tmp_path / "dataset.bin"
    save_dataset(ft, path)
    back = load_dataset(path)
    assert np.array_equal(back.values, ft.values)
    assert np.array_equal(back.labels, ft.labels)
    assert back.node_ids == ft.node_ids
    assert back.train_steps == ft.train_steps
    assert back.grid == ft.grid
    np.testing.assert_array_equal(back.channel_mean, ft.channel_mean)
    # the sidecar records the sha256 of everything after the header line
    sidecar = json.loads((tmp_path / "dataset.bin.json").read_text())
    payload = path.read_bytes().split(b"\n", 1)[1]
    assert sidecar["sha256"] == hashlib.sha256(payload).hexdigest()
    # serialization is deterministic
    save_dataset(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
    assert (tmp_path / "again.bin.json").read_text() == (tmp_path / "dataset.bin.json").read_text()

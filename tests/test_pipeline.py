import hashlib
import json
import logging
import math

import numpy as np
import pytest

from floodnowcast.errors import DomainError, UsageError
from floodnowcast.pipeline import (
    CHANNELS,
    EVENT_DTYPE,
    GAUGE_DTYPE,
    READING_DTYPE,
    TimeGrid,
    accumulate_rainfall,
    aggregate_activity,
    aggregate_point_events,
    assemble,
    gauge_channels,
    label_flood_classes,
    load_dataset,
    load_events,
    load_gauges,
    nearest_two_gauges,
    parse_utc,
    resample_series,
    save_dataset,
)

T0 = parse_utc("2022-05-01T00:00:00+00:00")
HOUR = 3600.0


def _gauges(*rows):
    """Gauge records ``(id, x, y[, threshold])``, threshold 3 by default, in id order."""
    return np.array(sorted((*r, 3.0) if len(r) == 3 else r for r in rows), dtype=GAUGE_DTYPE)


def _xy(gauges):
    return np.column_stack((gauges["x"], gauges["y"]))


def _readings(*series):
    """Readings at T0 and T0 + 1 h: gauge i reads ``(rain, elevation)`` = series[i]."""
    return np.array([(g, t, rain, level) for g, (rain, level) in enumerate(series)
                     for t in (T0, T0 + HOUR)], dtype=READING_DTYPE)


def _events(kind, *rows):
    """Events of one kind from ``(t, x, y, tile, value)`` rows."""
    return np.array([(kind, *r) for r in rows], dtype=EVENT_DTYPE)


def _write(directory, name, lines):
    (directory / name).write_text("\n".join(lines) + "\n")


# -- nearest gauges ------------------------------------------------------------


def test_nearest_two_gauges_inverse_distance():
    gauges = _gauges(("a", 1000.0, 0.0), ("b", 3000.0, 0.0), ("c", 9000.0, 0.0))
    nearest, w = nearest_two_gauges(np.zeros((1, 2)), _xy(gauges))
    assert list(gauges["id"][nearest[0]]) == ["a", "b"]
    assert w[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert w[0, 1] == pytest.approx(0.25, abs=1e-12)


def test_nearest_two_gauges_equal_distances():
    gauges = _gauges(("a", -500.0, 0.0), ("b", 500.0, 0.0))
    _, w = nearest_two_gauges(np.zeros((1, 2)), _xy(gauges))
    assert w[0, 0] == w[0, 1] == 0.5


def test_nearest_two_gauges_coincident():
    gauges = _gauges(("a", 0.0, 0.0), ("b", 700.0, 0.0))
    nearest, w = nearest_two_gauges(np.zeros((1, 2)), _xy(gauges))
    assert nearest[0, 0] == 0 and w[0, 0] == 1.0 and w[0, 1] == 0.0


def test_nearest_two_gauges_tie_breaks_by_id(tmp_path):
    # gauges.csv lists them out of id order; load_gauges sorts by id
    _write(tmp_path, "gauges.csv", ["id,x,y,threshold", "z,100.0,0.0,3.0",
                                    "a,-100.0,0.0,3.0", "m,0.0,900.0,3.0"])
    # load_gauges needs at least 2 readings of every gauge
    _write(tmp_path, "gauge_readings.csv",
           ["gauge_id,timestamp,rain_increment_mm,water_elevation_m"]
           + [f"{g},2022-05-01T0{h}:00:00+00:00,0.0,1.0" for g in "zam" for h in (0, 1)])
    gauges, _ = load_gauges(tmp_path)
    nearest, _ = nearest_two_gauges(np.zeros((1, 2)), _xy(gauges))
    assert list(gauges["id"][nearest[0]]) == ["a", "z"]


def test_nearest_two_gauges_needs_two():
    with pytest.raises(UsageError):
        nearest_two_gauges(np.zeros((1, 2)), _xy(_gauges(("a", 1.0, 1.0))))


def test_nearest_two_gauges_match_a_per_node_loop():
    # the loop ranks by (math.hypot, id); np.hypot differs from math.hypot in
    # the last bit on about 0.6% of coordinate pairs, which would change weights
    rng = np.random.default_rng(1)
    gauge_xy = rng.uniform(0, 30_000, size=(8, 2))
    gauge_xy[5] = gauge_xy[2]                      # a tie, broken toward gauge 2
    node_xy = np.vstack([rng.uniform(0, 30_000, size=(500, 2)), gauge_xy[3:4]])
    nearest, w = nearest_two_gauges(node_xy, gauge_xy)
    for i, (nx, ny) in enumerate(node_xy.tolist()):
        ranked = sorted(range(8), key=lambda g: (math.hypot(gauge_xy[g, 0] - nx,
                                                            gauge_xy[g, 1] - ny), g))
        d1, d2 = (math.hypot(gauge_xy[g, 0] - nx, gauge_xy[g, 1] - ny) for g in ranked[:2])
        inv1, inv2 = (1.0 / d1, 1.0 / d2) if d1 else (1.0, 0.0)
        assert list(nearest[i]) == ranked[:2]
        assert list(w[i]) == [inv1 / (inv1 + inv2), inv2 / (inv1 + inv2)]


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


def test_accumulate_rows_match_one_row_at_a_time():
    rng = np.random.default_rng(2)
    rain = rng.exponential(size=(5, 60))
    for window in (4, 48):
        together = accumulate_rainfall(rain, window)
        assert np.array_equal(together, np.vstack([accumulate_rainfall(r, window)
                                                   for r in rain]))


def test_accumulate_rejects_negative_and_bad_window():
    with pytest.raises(DomainError):
        accumulate_rainfall(np.array([1.0, -0.1]), 4)
    with pytest.raises(UsageError):
        accumulate_rainfall(np.ones(3), 0)


# -- water ratio -----------------------------------------------------------------


def test_water_ratio_values():
    gauges = _gauges(("a", 0.0, 0.0, 3.0), ("b", 10.0, 0.0, 2.0))
    grid = np.array([T0, T0 + HOUR])
    readings = np.array([(0, T0, 0.0, 3.0), (0, T0 + HOUR, 0.0, 4.5),
                         (1, T0, 0.0, 0.0), (1, T0 + HOUR, 0.0, 1.0)], dtype=READING_DTYPE)
    # nodes sitting on each gauge read that gauge's elevation / threshold
    _, ratio = gauge_channels(gauges, readings, np.array([[0.0, 0.0], [10.0, 0.0]]), grid)
    np.testing.assert_allclose(ratio, [[1.0, 1.5], [0.0, 0.5]])


def test_water_ratio_rejects_bad_threshold(tmp_path):
    _write(tmp_path, "gauge_readings.csv",
           ["gauge_id,timestamp,rain_increment_mm,water_elevation_m"])
    for threshold in ("0.0", "-1.0", "nan"):
        _write(tmp_path, "gauges.csv", ["id,x,y,threshold", "a,0.0,0.0,3.0",
                                        f"b,1.0,0.0,{threshold}"])
        with pytest.raises(DomainError, match="gauges.csv line 3: "):
            load_gauges(tmp_path)


# -- blending ---------------------------------------------------------------------


def test_blend_hand_value():
    gauges = _gauges(("a", 1000.0, 0.0), ("b", 3000.0, 0.0))
    rain, _ = gauge_channels(gauges, _readings((10.0, 1.0), (20.0, 1.0)), np.zeros((1, 2)),
                             np.array([T0]))
    assert rain[0, 0] == pytest.approx(12.5, abs=1e-12)


def test_blend_identity_cases():
    s = np.array([1.0, 2.0, 3.0])
    grid = T0 + 1800.0 * np.arange(3)
    same = np.array([(g, t, v, v) for g in (0, 1) for t, v in zip(grid, s)],
                    dtype=READING_DTYPE)
    # equal series blend to themselves at any weights
    rain, ratio = gauge_channels(_gauges(("a", 0.0, 0.0, 1.0), ("b", 30.0, 0.0, 1.0)), same,
                                 np.array([[12.0, 0.0]]), grid)
    np.testing.assert_array_equal(rain[0], s)
    np.testing.assert_array_equal(ratio[0], s)
    # a node on gauge a takes weight 1 on it, whatever b reads
    other = same.copy()
    other["rain"][3:] *= 9
    rain, _ = gauge_channels(_gauges(("a", 0.0, 0.0), ("b", 30.0, 0.0)), other,
                             np.zeros((1, 2)), grid)
    np.testing.assert_array_equal(rain[0], s)


# -- point events ------------------------------------------------------------------


def _grid(count=6):
    return TimeGrid(start=T0, count=count)


def test_point_events_empty():
    counts = aggregate_point_events(_events("report_311"), np.zeros((3, 2)), _grid())
    assert counts.shape == (3, 6) and counts.sum() == 0


def test_point_events_three_in_one_cell():
    xy = np.array([[0.0, 0.0], [5000.0, 0.0]])
    events = _events("tweet", *[(T0 + 1200.0 + i, 10.0, -5.0, "", 1.0) for i in range(3)])
    counts = aggregate_point_events(events, xy, _grid())
    assert counts[0, 1] == 3.0
    assert counts.sum() == 3.0


def test_point_events_boundary_belongs_to_ending_interval():
    xy = np.array([[0.0, 0.0], [5000.0, 0.0]])
    counts = aggregate_point_events(_events("report_311", (T0 + 1800.0, 0.0, 0.0, "", 1.0)),
                                    xy, _grid())
    assert counts[0, 1] == 1.0 and counts.sum() == 1.0


def test_point_events_conservation_with_out_of_range(caplog):
    xy = np.array([[0.0, 0.0]])
    events = _events("report_311",
                     (T0 - 9000.0, 0.0, 0.0, "", 1.0),     # before the grid
                     (T0 + 10.0, 0.0, 0.0, "", 1.0),
                     (T0 + 1e7, 0.0, 0.0, "", 1.0))        # after the grid
    with caplog.at_level(logging.WARNING):
        counts = aggregate_point_events(events, xy, _grid())
    assert counts.sum() == 1.0
    assert "report_311: 2 event(s) fell outside the grid time range" in caplog.text


def test_point_events_match_a_per_event_loop():
    # lattice coordinates put many events equally near two or more nodes: the
    # first such node takes the event, as np.argmin does per event
    rng = np.random.default_rng(3)
    xy = rng.integers(0, 4, size=(7, 2)).astype(float)
    events = _events("tweet", *[(T0 + float(rng.integers(-1800, 8 * 1800)),
                                 float(rng.integers(0, 4)), float(rng.integers(0, 4)), "",
                                 float(rng.integers(1, 4))) for _ in range(300)])
    grid = _grid()
    expected = np.zeros((7, grid.count))
    for t, x, y, value in zip(events["t"], events["x"], events["y"], events["value"]):
        step = math.ceil((t - T0) / 1800.0)
        if 0 <= step < grid.count:
            expected[np.argmin(np.hypot(xy[:, 0] - x, xy[:, 1] - y)), step] += value
    assert np.array_equal(aggregate_point_events(events, xy, grid), expected)


# -- activity -----------------------------------------------------------------------


def test_activity_constant_tile():
    events = _events("activity_tile", *[(T0 + 4 * HOUR * k, np.nan, np.nan, "t0", 0.5)
                                        for k in range(3)])
    out = aggregate_activity(events, {"t0": "n0"}, ["n0"], TimeGrid(start=T0, count=16))
    np.testing.assert_allclose(out[0], 0.5)


def test_activity_mean_of_member_tiles():
    events = _events("activity_tile", (T0, np.nan, np.nan, "a", 0.2),
                     (T0, np.nan, np.nan, "b", 0.6), (T0 + 4 * HOUR, np.nan, np.nan, "a", 0.2),
                     (T0 + 4 * HOUR, np.nan, np.nan, "b", 0.6))
    out = aggregate_activity(events, {"a": "n0", "b": "n0"}, ["n0"], _grid())
    np.testing.assert_allclose(out[0], 0.4)


def test_activity_linear_interpolation_between_windows():
    # windows at 0.0 then 1.0, four hours apart: midpoint grid step reads 0.5
    events = _events("activity_tile", (T0, np.nan, np.nan, "t", 0.0),
                     (T0 + 4 * HOUR, np.nan, np.nan, "t", 1.0))
    out = aggregate_activity(events, {"t": "n0"}, ["n0"], TimeGrid(start=T0, count=9))
    assert out[0, 4] == pytest.approx(0.5, abs=1e-12)


def test_activity_uncovered_node_zero_with_warning(caplog):
    events = _events("activity_tile", (T0, np.nan, np.nan, "t", 0.3),
                     (T0 + 4 * HOUR, np.nan, np.nan, "t", 0.3))
    with caplog.at_level(logging.WARNING):
        out = aggregate_activity(events, {"t": "n0"}, ["n0", "n1"], _grid())
    assert np.all(out[1] == 0.0)
    assert "coverage" in caplog.text


# a tile mapped to a node id outside the node list ended in a KeyError traceback
@pytest.mark.parametrize("tile_to_node", [{"t": "n9"}, {}], ids=["unknown_node", "no_entry"])
def test_activity_rejects_a_tile_of_no_known_node(tile_to_node):
    events = _events("activity_tile", (T0, np.nan, np.nan, "t", 0.3))
    with pytest.raises(UsageError, match="'t'"):
        aggregate_activity(events, tile_to_node, ["n0"], _grid())


def test_activity_rejects_out_of_range_index(tmp_path):
    _write(tmp_path, "events.csv", ["kind,timestamp,x,y,tile_id,value",
                                    "activity_tile,2022-05-01T00:00:00+00:00,,,t,1.2"])
    with pytest.raises(DomainError, match="events.csv line 2: "):
        load_events(tmp_path)


# -- labels -----------------------------------------------------------------------


@pytest.mark.parametrize("fraction,expected", [
    (0.005, 0), (0.05, 1), (0.15, 2),
    (0.0, 0), (0.01, 1), (0.10, 1), (0.100001, 2), (1.0, 2),
])
def test_label_thresholds(fraction, expected):
    assert label_flood_classes(fraction) == expected


def test_label_rejects_out_of_range():
    with pytest.raises(DomainError):
        label_flood_classes(-0.1)
    with pytest.raises(DomainError):
        label_flood_classes(np.array([0.5, 1.5]))


def test_labels_vectorized_matches_scalar_and_monotone():
    fr = np.linspace(0.0, 1.0, 101)
    vec = label_flood_classes(fr)
    assert list(vec) == [int(label_flood_classes(f)) for f in fr]
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
    readings = np.array([(g, t, v, 1.0) for g in (0, 1) for t, v in zip(grid.times(), increments)],
                        dtype=READING_DTYPE)
    rain, _ = gauge_channels(_gauges(("g", 0.0, 0.0), ("h", 50.0, 0.0)), readings,
                             np.zeros((1, 2)), grid.times())
    out = accumulate_rainfall(rain, 4)
    hand = [0.0, 1.0, 3.0, 3.0, 3.0, 5.0, 3.0, 3.0, 3.0, 1.0]
    np.testing.assert_array_equal(out[0], hand)


def test_count_channels_integer_nonnegative_before_normalization():
    xy = np.array([[0.0, 0.0], [9000.0, 0.0]])
    rng = np.random.default_rng(0)
    events = _events("report_311", *[(T0 + float(rng.integers(1, 6 * 1800)),
                                      float(rng.uniform(0, 9000)), 0.0, "", 1.0)
                                     for _ in range(40)])
    counts = aggregate_point_events(events, xy, _grid())
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

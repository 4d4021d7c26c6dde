"""Feature pipeline: raw sensor/report/activity streams to the model tensor.

Takes gauge readings, point events (flood reports, tweets), activity-tile
indexes and per-node road flooding fractions, and produces an aligned
``N x 6 x T`` float tensor on a fixed 30-minute grid plus integer class
labels per (node, timestep). Channel order is fixed and part of the contract:

    0 rain_2h      accumulated rainfall over the trailing 2 h (4 steps)
    1 rain_24h     accumulated rainfall over the trailing 24 h (48 steps)
    2 water_ratio  water elevation / gauge flooding threshold
    3 reports_311  flood reports counted per node per interval
    4 tweets       flood-related tweet counts per node per interval
    5 activity     normalized human-activity index in [0, 1]

Each scenario CSV is converted row by row into numpy columns (the
``*_DTYPE`` record arrays); a row that fails its checks names its file and
line. Every channel is then computed over whole arrays. Gauge channels blend
the two nearest gauges per node with inverse-distance weights. Count
channels use half-open intervals ``(t - 30min, t]``. Channels are z-scored
with statistics fit on the training span only; the stats ride along with the
tensor so a checkpoint can be applied to new data.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (DomainError, UsageError, check_payload, check_sealed, check_version,
                     convert_rows, parse_header, seal)
from .graph import UnitNode

__all__ = [
    "CHANNELS",
    "N_CLASSES",
    "GAUGE_DTYPE",
    "READING_DTYPE",
    "EVENT_DTYPE",
    "TimeGrid",
    "FeatureTensor",
    "parse_utc",
    "format_utc",
    "nearest_two_gauges",
    "resample_series",
    "gauge_channels",
    "accumulate_rainfall",
    "aggregate_point_events",
    "aggregate_activity",
    "label_flood_classes",
    "assemble",
    "build_feature_tensor",
    "save_dataset",
    "load_dataset",
]

log = logging.getLogger(__name__)

CHANNELS = ("rain_2h", "rain_24h", "water_ratio", "reports_311", "tweets", "activity")

RAIN_SHORT_STEPS = 4    # 2 hours of 30-minute steps
RAIN_LONG_STEPS = 48    # 24 hours

EVENT_KINDS = ("report_311", "tweet", "activity_tile")

# one record per CSV row; `gauge` indexes the id-sorted gauges, and an event
# without a location has x = y = nan
GAUGE_DTYPE = [("id", "O"), ("x", "f8"), ("y", "f8"), ("threshold", "f8")]
READING_DTYPE = [("gauge", "i8"), ("t", "f8"), ("rain", "f8"), ("elevation", "f8")]
EVENT_DTYPE = [("kind", "O"), ("t", "f8"), ("x", "f8"), ("y", "f8"), ("tile", "O"),
               ("value", "f8")]


def parse_utc(stamp: str) -> float:
    """ISO-8601 UTC timestamp to epoch seconds."""
    try:
        dt = datetime.fromisoformat(str(stamp).replace("Z", "+00:00"))
    except ValueError as exc:
        raise UsageError(f"bad timestamp {stamp!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def format_utc(epoch: float) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S+00:00")


@dataclass(frozen=True)
class TimeGrid:
    """Regular timestamp grid; index i covers the interval (t_i - step, t_i]."""

    start: float                 # epoch seconds of the first grid timestamp
    count: int
    step_minutes: int = 30

    def __post_init__(self):
        if self.count < 1:
            raise UsageError("grid needs at least one step")

    @property
    def step_seconds(self) -> float:
        return self.step_minutes * 60.0

    def times(self) -> np.ndarray:
        return self.start + self.step_seconds * np.arange(self.count)

    @classmethod
    def from_timestamps(cls, stamps: Sequence[float], source) -> "TimeGrid":
        """The grid whose times are exactly the distinct ``stamps``, whole
        minutes apart; anything else raises :class:`UsageError` naming ``source``."""
        ts = sorted(set(stamps))
        if len(ts) < 2:
            raise UsageError(f"{source}: need at least two distinct timestamps to infer a grid")
        grid = cls(start=ts[0], count=len(ts), step_minutes=int(round((ts[1] - ts[0]) / 60.0)))
        off = np.flatnonzero(grid.times() != ts)
        if off.size:
            i = off[0]
            raise UsageError(f"{source}: timestamps are not whole-minute steps of one grid "
                             f"(one is {ts[i] - ts[0]!r} s after the first, where the "
                             f"{grid.step_minutes}-minute grid has {i * grid.step_seconds!r} s)")
        return grid


# -- gauge channels -----------------------------------------------------------


def nearest_two_gauges(node_xy: np.ndarray, gauge_xy: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the indices of the two closest gauges and their inverse-distance
    weights, summing to 1 (both ``(N, 2)``).

    Gauges come in id order, so a stable sort breaks ties in distance by gauge
    id ascending. A node sitting exactly on a gauge gives that gauge weight 1.
    Distances use ``math.hypot``: ``np.hypot`` differs from it in the last bit.
    """
    if len(gauge_xy) < 2:
        raise UsageError(f"need at least 2 gauges, got {len(gauge_xy)}")
    dist = np.array([[math.hypot(gx - nx, gy - ny) for gx, gy in gauge_xy.tolist()]
                     for nx, ny in node_xy.tolist()])
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :2]
    d = np.take_along_axis(dist, nearest, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        weights = inv / (inv[:, :1] + inv[:, 1:])
    weights[d[:, 0] == 0.0] = (1.0, 0.0)
    return nearest, weights


def resample_series(timestamps: np.ndarray, values: np.ndarray,
                    grid_times: np.ndarray) -> np.ndarray:
    """Linear interpolation onto grid timestamps, constant beyond the ends."""
    timestamps = np.asarray(timestamps, dtype=float)
    if timestamps.size < 2:
        raise UsageError(f"need at least 2 readings, got {timestamps.size}")
    if np.any(np.diff(timestamps) <= 0):
        raise UsageError("readings must be sorted by strictly increasing timestamp")
    return np.interp(np.asarray(grid_times, dtype=float), timestamps,
                     np.asarray(values, dtype=float))


def gauge_channels(gauges: np.ndarray, readings: np.ndarray, node_xy: np.ndarray,
                   grid_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rain increments and threshold-relative water levels per node on the grid
    (both ``(N, T)``), each blended from the node's two nearest gauges.

    ``gauges`` (:data:`GAUGE_DTYPE`) are in id order and ``readings``
    (:data:`READING_DTYPE`) sorted by gauge, then time, as :func:`load_gauges`
    returns them.
    """
    nearest, w = nearest_two_gauges(node_xy, np.column_stack((gauges["x"], gauges["y"])))
    bounds = np.searchsorted(readings["gauge"], np.arange(len(gauges) + 1))
    rain = np.empty((len(gauges), len(grid_times)))
    level = np.empty_like(rain)
    for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        own = readings[lo:hi]
        rain[g] = resample_series(own["t"], own["rain"], grid_times)
        level[g] = resample_series(own["t"], own["elevation"], grid_times)
    ratio = level / gauges["threshold"][:, None]
    return tuple(w[:, :1] * s[nearest[:, 0]] + w[:, 1:] * s[nearest[:, 1]]
                 for s in (rain, ratio))


def accumulate_rainfall(incremental: np.ndarray, window_steps: int) -> np.ndarray:
    """Trailing-window sum along the last (time) axis, truncated at the start."""
    if window_steps < 1:
        raise UsageError(f"window_steps must be >= 1, got {window_steps}")
    incremental = np.asarray(incremental, dtype=float)
    if np.any(incremental < 0):
        raise DomainError("rainfall increments must be nonnegative")
    cs = np.cumsum(incremental, axis=-1)
    cs = np.concatenate([np.zeros(cs.shape[:-1] + (1,)), cs], axis=-1)
    idx = np.arange(incremental.shape[-1]) + 1
    lo = np.maximum(idx - window_steps, 0)
    return cs[..., idx] - cs[..., lo]


# -- event channels ------------------------------------------------------------


def aggregate_point_events(events: np.ndarray, node_xy: np.ndarray,
                           grid: TimeGrid) -> np.ndarray:
    """Sum event values per (nearest node, grid interval) for events of one kind.

    Every located event maps to its nearest centroid (there are no polygon
    boundaries at this stage), so nothing is dropped spatially; events whose
    timestamp precedes the grid or follows its last interval are excluded
    with a warning, never silently discarded.
    """
    step = np.ceil((events["t"] - grid.start) / grid.step_seconds)
    inside = (step >= 0) & (step < grid.count)
    if not np.all(inside):
        lost = events[~inside]
        log.warning("%s: %.0f event(s) fell outside the grid time range",
                    lost["kind"][0], lost["value"].sum())
    events = events[inside]
    # nearest node by a running minimum, first node on ties (as np.argmin);
    # never an events x nodes matrix
    nearest = np.zeros(len(events), dtype=np.int64)
    best = np.full(len(events), np.inf)
    for i, (nx, ny) in enumerate(node_xy):
        d = np.hypot(nx - events["x"], ny - events["y"])
        closer = d < best
        nearest[closer], best[closer] = i, d[closer]
    counts = np.zeros((len(node_xy), grid.count))
    np.add.at(counts, (nearest, step[inside].astype(np.int64)), events["value"])
    return counts


def aggregate_activity(events: np.ndarray, tile_to_node: dict[str, str],
                       node_ids: Sequence[str], grid: TimeGrid) -> np.ndarray:
    """Average activity-tile indexes per node, then resample to the grid.

    Raw activity arrives on a coarser cadence (4-hour windows); per raw
    timestamp the member tiles of a node are averaged (summed in record
    order), and the resulting series is linearly interpolated onto the
    30-minute grid with constant extension at the ends. Nodes with no tiles
    get a zero channel and a coverage warning.
    """
    node_index = {nid: i for i, nid in enumerate(node_ids)}
    rows = []
    for tile in events["tile"]:
        node = tile_to_node.get(tile)
        if node not in node_index:
            raise UsageError(f"tile {tile!r} maps to no known node ({node!r}) "
                             f"in the tile->node map")
        rows.append(node_index[node])
    stamps, cols = np.unique(events["t"], return_inverse=True)
    cells = np.array(rows, dtype=np.int64), cols
    sums = np.zeros((len(node_ids), stamps.size))
    counts = np.zeros_like(sums)
    np.add.at(sums, cells, events["value"])
    np.add.at(counts, cells, 1.0)

    out = np.zeros((len(node_ids), grid.count))
    times = grid.times()
    for i in range(len(node_ids)):
        seen = counts[i] > 0
        if np.any(seen):
            out[i] = np.interp(times, stamps[seen], sums[i, seen] / counts[i, seen])
    uncovered = [nid for nid, c in zip(node_ids, counts) if not np.any(c)]
    if uncovered:
        log.warning("activity coverage: %d node(s) have no tiles (%s%s)",
                    len(uncovered), ", ".join(uncovered[:5]),
                    "..." if len(uncovered) > 5 else "")
    return out


# -- labels ---------------------------------------------------------------------

# class thresholds on the flooded-road fraction: <1% none, 1-10% moderate, >10% severe
N_CLASSES = 3
NO_FLOOD_BELOW = 0.01
SEVERE_ABOVE = 0.10


def label_flood_classes(fractions: np.ndarray) -> np.ndarray:
    """Class per flooded-road fraction: 0 none, 1 moderate, 2 severe.

    Boundaries are inclusive for the moderate class: fraction below
    ``NO_FLOOD_BELOW`` -> 0, up to ``SEVERE_ABOVE`` -> 1, above it -> 2. A
    fraction outside [0, 1] raises :class:`DomainError`.
    """
    fractions = np.asarray(fractions, dtype=float)
    if np.any(~np.isfinite(fractions)) or np.any(fractions < 0) or np.any(fractions > 1):
        raise DomainError("flooded fractions outside [0, 1]")
    labels = np.ones(fractions.shape, dtype=np.int64)
    labels[fractions < NO_FLOOD_BELOW] = 0
    labels[fractions > SEVERE_ABOVE] = 2
    return labels


# -- assembly ---------------------------------------------------------------------


@dataclass
class FeatureTensor:
    """Assembled model input: normalized N x 6 x T values plus labels.

    ``values`` are z-scored per channel with statistics fit on timesteps
    ``[0, train_steps)`` only; ``channel_mean``/``channel_std`` hold those
    statistics so the transform is reproducible on new data.
    """

    values: np.ndarray           # (N, 6, T) normalized
    labels: np.ndarray           # (N, T) ints in {0, 1, 2}
    grid: TimeGrid
    node_ids: list[str]
    channel_mean: np.ndarray     # (6,)
    channel_std: np.ndarray      # (6,)
    train_steps: int

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[2]


def assemble(node_ids: Sequence[str], channels: dict[str, np.ndarray],
             labels: np.ndarray, grid: TimeGrid, train_steps: int) -> FeatureTensor:
    """Stack per-channel matrices into the fixed-order tensor and z-score it.

    Raises ``UsageError`` for a missing channel and ``DomainError`` (naming
    the channel and location) if any value is non-finite after interpolation.
    Channels that are constant on the training span keep std 1 so they map
    to zero rather than dividing by zero.
    """
    n, t = len(node_ids), grid.count
    missing = [c for c in CHANNELS if c not in channels]
    if missing:
        raise UsageError(f"missing channels: {missing}")
    if not 1 <= train_steps <= t:
        raise UsageError(f"train_steps {train_steps} outside [1, {t}]")
    values = np.zeros((n, len(CHANNELS), t))
    for ci, name in enumerate(CHANNELS):
        ch = np.asarray(channels[name], dtype=float)
        if ch.shape != (n, t):
            raise UsageError(f"channel {name} has shape {ch.shape}, want {(n, t)}")
        bad = ~np.isfinite(ch)
        if np.any(bad):
            ni, ti = np.argwhere(bad)[0]
            raise DomainError(f"channel {name} has a non-finite value at node "
                              f"{node_ids[ni]}, step {ti}")
        values[:, ci, :] = ch
    labels = np.asarray(labels)
    if labels.shape != (n, t):
        raise UsageError(f"labels have shape {labels.shape}, want {(n, t)}")
    if not np.all(np.isin(labels, (0, 1, 2))):
        raise UsageError("labels must be in {0, 1, 2}")

    train = values[:, :, :train_steps]
    mean = train.mean(axis=(0, 2))
    std = train.std(axis=(0, 2))
    std = np.where(std == 0.0, 1.0, std)
    values = (values - mean[None, :, None]) / std[None, :, None]
    return FeatureTensor(values=values, labels=labels.astype(np.int64), grid=grid,
                         node_ids=list(node_ids), channel_mean=mean, channel_std=std,
                         train_steps=int(train_steps))


# -- directory ingestion ------------------------------------------------------


def _read_csv(path: Path, expected_header: list[str]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != expected_header:
            raise UsageError(f"{path.name}: header {reader.fieldnames}, want {expected_header}")
        return list(reader)


def _number(text: str, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """``float(text)``; a value that is not finite or not in [low, high]
    raises :class:`DomainError`."""
    value = float(text)
    if not math.isfinite(value):
        raise DomainError(f"{name} {value} is not finite")
    if not low <= value <= high:
        raise DomainError(f"{name} {value} outside [{low}, {high}]")
    return value


def load_gauges(directory: Path) -> tuple[np.ndarray, np.ndarray]:
    """``gauges.csv`` in id order (:data:`GAUGE_DTYPE`) and ``gauge_readings.csv``
    sorted by gauge, then time (:data:`READING_DTYPE`)."""
    path = directory / "gauges.csv"
    ids = set()

    def gauge(r):
        if r["id"] in ids:
            raise UsageError(f"a second row for gauge {r['id']}")
        ids.add(r["id"])
        threshold = _number(r["threshold"], "threshold")
        if threshold <= 0:
            raise DomainError(f"gauge {r['id']}: flood threshold must be > 0")
        return r["id"], _number(r["x"], "x"), _number(r["y"], "y"), threshold

    gauges = np.array(sorted(convert_rows(_read_csv(path, ["id", "x", "y", "threshold"]),
                                          gauge, path)), dtype=GAUGE_DTYPE)
    index = {gid: i for i, gid in enumerate(gauges["id"])}
    path = directory / "gauge_readings.csv"
    seen = set()

    def reading(r):
        if r["gauge_id"] not in index:
            raise UsageError(f"reading references unknown gauge {r['gauge_id']!r}")
        key = index[r["gauge_id"]], parse_utc(r["timestamp"])
        if key in seen:
            raise UsageError(f"a second reading of gauge {r['gauge_id']} at {r['timestamp']}")
        seen.add(key)
        return (*key, _number(r["rain_increment_mm"], "rain_increment_mm", 0.0),
                _number(r["water_elevation_m"], "water_elevation_m"))

    readings = np.array(convert_rows(
        _read_csv(path, ["gauge_id", "timestamp", "rain_increment_mm", "water_elevation_m"]),
        reading, path), dtype=READING_DTYPE)
    counts = np.bincount(readings["gauge"], minlength=len(gauges))
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise UsageError(f"{path}: gauge {gauges['id'][short[0]]} has {counts[short[0]]} "
                         f"reading(s); need at least 2")
    return gauges, readings[np.lexsort((readings["t"], readings["gauge"]))]


def load_events(directory: Path) -> np.ndarray:
    """``events.csv`` as :data:`EVENT_DTYPE` records in file order."""
    path = directory / "events.csv"

    def event(r):
        kind = r["kind"]
        if kind not in EVENT_KINDS:
            raise UsageError(f"unknown event kind {kind!r}")
        x, y = (_number(r[c], c) if r[c] else math.nan for c in ("x", "y"))
        if kind == "activity_tile":
            if not r["tile_id"]:
                raise UsageError("an activity_tile event needs a tile_id")
            value = _number(r["value"], "activity index", 0.0, 1.0)
        else:
            if math.isnan(x) or math.isnan(y):
                raise UsageError(f"a {kind} event needs x and y")
            value = _number(r["value"], f"{kind} value", 0.0)
        return kind, parse_utc(r["timestamp"]), x, y, r["tile_id"], value

    return np.array(convert_rows(_read_csv(path, ["kind", "timestamp", "x", "y", "tile_id",
                                                  "value"]), event, path), dtype=EVENT_DTYPE)


def load_tile_map(directory: Path) -> dict[str, str]:
    """``tiles.csv`` as tile id -> node id; a second row for a tile id is an error."""
    path = directory / "tiles.csv"
    tiles: dict[str, str] = {}

    def tile(r):
        if r["tile_id"] in tiles:
            raise UsageError(f"a second row for tile {r['tile_id']}")
        tiles[r["tile_id"]] = r["node_id"]

    convert_rows(_read_csv(path, ["tile_id", "node_id"]), tile, path)
    return tiles


def load_road_status(directory: Path, node_ids: Sequence[str]
                     ) -> tuple[TimeGrid, np.ndarray]:
    """The grid ``road_status.csv``'s timestamps set, and its ``(N, T)`` fractions."""
    path = directory / "road_status.csv"
    index = {nid: i for i, nid in enumerate(node_ids)}
    seen = set()

    def status(r):
        if r["node_id"] not in index:
            raise UsageError(f"unknown node {r['node_id']!r}")
        key = index[r["node_id"]], parse_utc(r["timestamp"])
        if key in seen:
            raise UsageError(f"a second row for node {r['node_id']} at {format_utc(key[1])}")
        seen.add(key)
        return (*key, _number(r["flooded_fraction"], "flooded_fraction", 0.0, 1.0))

    rows = np.array(convert_rows(
        _read_csv(path, ["node_id", "timestamp", "flooded_fraction"]), status, path),
        dtype=[("node", "i8"), ("t", "f8"), ("fraction", "f8")])
    grid = TimeGrid.from_timestamps(rows["t"].tolist(), path)
    fractions = np.full((len(node_ids), grid.count), np.nan)
    fractions[rows["node"], np.searchsorted(grid.times(), rows["t"])] = rows["fraction"]
    missing = np.argwhere(np.isnan(fractions))
    if missing.size:
        ni, ti = missing[0]
        raise UsageError(f"{path}: no row for node {node_ids[ni]} at "
                         f"{format_utc(grid.times()[ti])}")
    return grid, fractions


def build_feature_tensor(nodes: Sequence[UnitNode], gauges: np.ndarray, readings: np.ndarray,
                         events: np.ndarray, tile_to_node: dict[str, str], grid: TimeGrid,
                         fractions: np.ndarray, train_steps: int) -> FeatureTensor:
    """Run the whole channel pipeline for a loaded scenario."""
    node_ids = [n.id for n in nodes]
    node_xy = np.array([[n.x, n.y] for n in nodes])
    rain, ratio = gauge_channels(gauges, readings, node_xy, grid.times())
    kind = events["kind"]
    channels = {
        "rain_2h": accumulate_rainfall(rain, RAIN_SHORT_STEPS),
        "rain_24h": accumulate_rainfall(rain, RAIN_LONG_STEPS),
        "water_ratio": ratio,
        "reports_311": aggregate_point_events(events[kind == "report_311"], node_xy, grid),
        "tweets": aggregate_point_events(events[kind == "tweet"], node_xy, grid),
        "activity": aggregate_activity(events[kind == "activity_tile"], tile_to_node,
                                       node_ids, grid),
    }
    return assemble(node_ids, channels, label_flood_classes(fractions), grid, train_steps)


def prepare_from_dir(directory: str | Path, train_steps: int) -> FeatureTensor:
    """Load a scenario directory's CSV files and assemble the feature tensor."""
    directory = Path(directory)
    # looked up at call time, so that a wrapper installed on graph.load_nodes_csv
    # (perfbench's tracer installs one) sees this call
    from .graph import load_nodes_csv
    nodes = load_nodes_csv(directory / "nodes.csv")
    gauges, readings = load_gauges(directory)
    events = load_events(directory)
    tiles = load_tile_map(directory)
    grid, fractions = load_road_status(directory, [n.id for n in nodes])
    return build_feature_tensor(nodes, gauges, readings, events, tiles, grid, fractions,
                                train_steps)


# -- dataset container ----------------------------------------------------------

_DATASET_MAGIC = "FLOODNOWCAST-DATASET"
_DATASET_VERSION = 3   # 3: the sidecar's digests are `sha256` (payload) and `header_sha256`


_SIDECAR_SPEC = {
    "channels": "list[str]",
    "node_ids": "list[str]",
    "grid": {"start": "str", "step_minutes": "int", "count": "int"},
    "normalization": {"mean": "list[float]", "std": "list[float]"},
    "train_steps": "int",
}


def save_dataset(ft: FeatureTensor, path: str | Path) -> None:
    """Write the tensor container: ASCII shape header, float64 LE payload,
    uint8 labels; normalization stats and grid metadata go to `<path>.json`,
    sealed with the payload (see :func:`errors.seal`)."""
    path = Path(path)
    n, c, t = ft.values.shape
    payload = ft.values.astype("<f8").tobytes() + ft.labels.astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"{_DATASET_MAGIC} {_DATASET_VERSION} {n} {c} {t}\n".encode())
        fh.write(payload)
    sidecar = seal({
        "channels": list(CHANNELS),
        "node_ids": ft.node_ids,
        "grid": {"start": format_utc(ft.grid.start), "step_minutes": ft.grid.step_minutes,
                 "count": ft.grid.count},
        "normalization": {"mean": [float(v) for v in ft.channel_mean],
                          "std": [float(v) for v in ft.channel_std]},
        "train_steps": ft.train_steps,
    }, payload)
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str | Path) -> FeatureTensor:
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.readline().decode(errors="replace").split()
        payload = fh.read()
    if (len(header) != 5 or header[0] != _DATASET_MAGIC
            or not all(v.isdecimal() for v in header[1:])):
        raise UsageError(f"{path} is not a dataset container")
    version, n, c, t = (int(v) for v in header[1:])
    check_version(version, _DATASET_VERSION, path, "prepare")
    sidecar_path = Path(str(path) + ".json")
    sidecar = check_sealed(parse_header(sidecar_path.read_bytes(), {}, sidecar_path),
                           _SIDECAR_SPEC, sidecar_path)
    sealed = (len(sidecar["node_ids"]), len(sidecar["channels"]), sidecar["grid"]["count"])
    if (n, c, t) != sealed:
        raise UsageError(f"{path} header says N C T = {n} {c} {t}; its sidecar lists "
                         f"{' '.join(map(str, sealed))}")
    size = n * c * t * 8
    check_payload(payload, size + n * t, sidecar, path)
    values = np.frombuffer(payload, dtype="<f8", count=n * c * t).reshape(n, c, t).copy()
    labels = np.frombuffer(payload, dtype=np.uint8, offset=size).reshape(n, t).astype(np.int64)
    grid = TimeGrid(start=parse_utc(sidecar["grid"]["start"]),
                    count=sidecar["grid"]["count"],
                    step_minutes=sidecar["grid"]["step_minutes"])
    return FeatureTensor(values=values, labels=labels, grid=grid,
                         node_ids=list(sidecar["node_ids"]),
                         channel_mean=np.array(sidecar["normalization"]["mean"]),
                         channel_std=np.array(sidecar["normalization"]["std"]),
                         train_steps=sidecar["train_steps"])

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

Gauge channels blend the two nearest gauges per node with inverse-distance
weights. Count channels use half-open intervals ``(t - 30min, t]``. Channels
are z-scored with statistics fit on the training span only; the stats ride
along with the tensor so a checkpoint can be applied to new data.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, UsageError
from .graph import UnitNode

__all__ = [
    "CHANNELS",
    "TimeGrid",
    "GaugeReading",
    "GaugeStation",
    "EventRecord",
    "EventStream",
    "FeatureTensor",
    "parse_utc",
    "format_utc",
    "nearest_two_gauges",
    "resample_series",
    "accumulate_rainfall",
    "water_ratio",
    "blend_gauge_channel",
    "aggregate_point_events",
    "aggregate_activity",
    "label_flood_class",
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


def parse_utc(stamp: str) -> float:
    """ISO-8601 UTC timestamp to epoch seconds."""
    try:
        dt = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
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

    def index_of(self, epoch: float) -> Optional[int]:
        """Interval index for a timestamp, or None if outside the grid."""
        idx = math.ceil((epoch - self.start) / self.step_seconds)
        return idx if 0 <= idx < self.count else None

    @classmethod
    def from_timestamps(cls, stamps: Sequence[float]) -> "TimeGrid":
        ts = np.asarray(sorted(set(stamps)), dtype=float)
        if ts.size < 2:
            raise UsageError("need at least two distinct timestamps to infer a grid")
        steps = np.diff(ts)
        if not np.allclose(steps, steps[0], atol=1e-6):
            raise UsageError("timestamps are not evenly spaced")
        return cls(start=float(ts[0]), count=int(ts.size),
                   step_minutes=int(round(steps[0] / 60.0)))


@dataclass(frozen=True)
class GaugeReading:
    timestamp: float
    rain_increment_mm: float
    water_elevation_m: float


@dataclass
class GaugeStation:
    """A gauge with its location, flooding threshold, and raw readings."""

    id: str
    x: float
    y: float
    flood_threshold_elevation: float
    readings: list[GaugeReading] = field(default_factory=list)

    def __post_init__(self):
        if self.flood_threshold_elevation <= 0:
            raise DomainError(f"gauge {self.id}: flood threshold must be > 0")
        stamps = [r.timestamp for r in self.readings]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise UsageError(f"gauge {self.id}: timestamps must be strictly increasing")

    def series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.array([r.timestamp for r in self.readings])
        rain = np.array([r.rain_increment_mm for r in self.readings])
        elev = np.array([r.water_elevation_m for r in self.readings])
        return t, rain, elev


@dataclass(frozen=True)
class EventRecord:
    timestamp: float
    value: float = 1.0
    x: Optional[float] = None
    y: Optional[float] = None
    tile_id: Optional[str] = None


@dataclass
class EventStream:
    """Timestamped point or tile events of one kind."""

    kind: str
    records: list[EventRecord] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise UsageError(f"unknown event kind {self.kind!r}")
        for rec in self.records:
            if rec.value < 0:
                raise DomainError(f"{self.kind} event value {rec.value} < 0")
            if self.kind == "activity_tile" and not 0.0 <= rec.value <= 1.0:
                raise DomainError(f"activity index {rec.value} outside [0, 1]")


# -- gauge channels -----------------------------------------------------------


def nearest_two_gauges(centroid: tuple[float, float], gauges: Sequence[GaugeStation]
                       ) -> tuple[tuple[GaugeStation, float], tuple[GaugeStation, float]]:
    """Two closest gauges with inverse-distance weights summing to 1.

    Ties in distance break by gauge id ascending. A centroid sitting exactly
    on a gauge gives that gauge weight 1.
    """
    if len(gauges) < 2:
        raise UsageError(f"need at least 2 gauges, got {len(gauges)}")
    cx, cy = centroid
    ranked = sorted(gauges, key=lambda g: (math.hypot(g.x - cx, g.y - cy), g.id))
    g1, g2 = ranked[0], ranked[1]
    d1 = math.hypot(g1.x - cx, g1.y - cy)
    d2 = math.hypot(g2.x - cx, g2.y - cy)
    if d1 == 0.0:
        return (g1, 1.0), (g2, 0.0)
    inv1, inv2 = 1.0 / d1, 1.0 / d2
    return (g1, inv1 / (inv1 + inv2)), (g2, inv2 / (inv1 + inv2))


def resample_series(timestamps: np.ndarray, values: np.ndarray,
                    grid_times: np.ndarray) -> np.ndarray:
    """Linear interpolation onto grid timestamps, constant beyond the ends."""
    timestamps = np.asarray(timestamps, dtype=float)
    values = np.asarray(values, dtype=float)
    if timestamps.size < 2:
        raise UsageError(f"need at least 2 readings, got {timestamps.size}")
    if np.any(np.diff(timestamps) <= 0):
        raise UsageError("readings must be sorted by strictly increasing timestamp")
    if not np.all(np.isfinite(values)):
        raise DomainError("readings contain non-finite values")
    return np.interp(np.asarray(grid_times, dtype=float), timestamps, values)


def accumulate_rainfall(incremental: np.ndarray, window_steps: int) -> np.ndarray:
    """Trailing-window sum, truncated at the start of the series."""
    if window_steps < 1:
        raise UsageError(f"window_steps must be >= 1, got {window_steps}")
    incremental = np.asarray(incremental, dtype=float)
    if np.any(incremental < 0):
        raise DomainError("rainfall increments must be nonnegative")
    cs = np.concatenate([[0.0], np.cumsum(incremental)])
    idx = np.arange(incremental.size) + 1
    lo = np.maximum(idx - window_steps, 0)
    return cs[idx] - cs[lo]


def water_ratio(elevation: np.ndarray, threshold: float) -> np.ndarray:
    """Elevation relative to the flooding threshold; may exceed 1 in a flood."""
    if threshold <= 0:
        raise UsageError(f"threshold must be > 0, got {threshold}")
    return np.asarray(elevation, dtype=float) / threshold


def blend_gauge_channel(series_1: np.ndarray, series_2: np.ndarray,
                        w1: float, w2: float) -> np.ndarray:
    """Convex combination of two per-gauge series on the same grid."""
    series_1 = np.asarray(series_1, dtype=float)
    series_2 = np.asarray(series_2, dtype=float)
    if series_1.shape != series_2.shape:
        raise UsageError(f"grid mismatch: {series_1.shape} vs {series_2.shape}")
    if abs(w1 + w2 - 1.0) > 1e-9:
        raise UsageError(f"weights must sum to 1, got {w1} + {w2}")
    return w1 * series_1 + w2 * series_2


# -- event channels ------------------------------------------------------------


def aggregate_point_events(stream: EventStream, node_xy: np.ndarray, grid: TimeGrid
                           ) -> tuple[np.ndarray, dict]:
    """Count events per (nearest node, grid interval).

    Every located event maps to its nearest centroid (there are no polygon
    boundaries at this stage), so nothing is dropped spatially; events whose
    timestamp precedes the grid or follows its last interval are excluded but
    tallied in the returned report, never silently discarded.
    """
    n = node_xy.shape[0]
    counts = np.zeros((n, grid.count))
    out_of_range = 0.0
    for rec in stream.records:
        if rec.x is None or rec.y is None:
            raise UsageError(f"{stream.kind} event lacks a location")
        idx = grid.index_of(rec.timestamp)
        if idx is None:
            out_of_range += rec.value
            continue
        node = int(np.argmin(np.hypot(node_xy[:, 0] - rec.x, node_xy[:, 1] - rec.y)))
        counts[node, idx] += rec.value
    report = {"assigned": float(counts.sum()), "out_of_time_range": out_of_range}
    if out_of_range:
        log.warning("%s: %.0f event(s) fell outside the grid time range",
                    stream.kind, out_of_range)
    return counts, report


def aggregate_activity(stream: EventStream, tile_to_node: dict[str, str],
                       node_ids: Sequence[str], grid: TimeGrid) -> np.ndarray:
    """Average activity-tile indexes per node, then resample to the grid.

    Raw activity arrives on a coarser cadence (4-hour windows); per raw
    timestamp the member tiles of a node are averaged, and the resulting
    series is linearly interpolated onto the 30-minute grid with constant
    extension at the ends. Nodes with no tiles get a zero channel and a
    coverage warning.
    """
    node_index = {nid: i for i, nid in enumerate(node_ids)}
    per_node: dict[int, dict[float, list[float]]] = {}
    for rec in stream.records:
        if rec.tile_id is None:
            raise UsageError("activity event lacks a tile id")
        if rec.tile_id not in tile_to_node:
            raise UsageError(f"tile {rec.tile_id!r} missing from the tile->node map")
        node = node_index[tile_to_node[rec.tile_id]]
        per_node.setdefault(node, {}).setdefault(rec.timestamp, []).append(rec.value)

    out = np.zeros((len(node_ids), grid.count))
    uncovered = []
    for i, nid in enumerate(node_ids):
        buckets = per_node.get(i)
        if not buckets:
            uncovered.append(nid)
            continue
        stamps = np.array(sorted(buckets))
        means = np.array([float(np.mean(buckets[t])) for t in stamps])
        if stamps.size == 1:
            out[i, :] = means[0]
        else:
            out[i, :] = resample_series(stamps, means, grid.times())
    if uncovered:
        log.warning("activity coverage: %d node(s) have no tiles (%s%s)",
                    len(uncovered), ", ".join(uncovered[:5]),
                    "..." if len(uncovered) > 5 else "")
    return out


# -- labels ---------------------------------------------------------------------

# class thresholds on the flooded-road fraction: <1% none, 1-10% moderate, >10% severe
NO_FLOOD_BELOW = 0.01
SEVERE_ABOVE = 0.10


def label_flood_class(flooded_fraction: float) -> int:
    """Class for one flooded-road fraction: 0 none, 1 moderate, 2 severe.

    Boundaries are inclusive for the moderate class:
    fraction < 0.01 -> 0; 0.01 <= fraction <= 0.10 -> 1; fraction > 0.10 -> 2.
    """
    if not 0.0 <= flooded_fraction <= 1.0:
        raise DomainError(f"flooded fraction {flooded_fraction} outside [0, 1]")
    if flooded_fraction < NO_FLOOD_BELOW:
        return 0
    if flooded_fraction <= SEVERE_ABOVE:
        return 1
    return 2


def label_flood_classes(fractions: np.ndarray) -> np.ndarray:
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


def load_gauges(directory: Path) -> list[GaugeStation]:
    rows = _read_csv(directory / "gauges.csv", ["id", "x", "y", "threshold"])
    gauges = {r["id"]: GaugeStation(id=r["id"], x=float(r["x"]), y=float(r["y"]),
                                    flood_threshold_elevation=float(r["threshold"]))
              for r in rows}
    readings = _read_csv(directory / "gauge_readings.csv",
                         ["gauge_id", "timestamp", "rain_increment_mm", "water_elevation_m"])
    for r in readings:
        gid = r["gauge_id"]
        if gid not in gauges:
            raise UsageError(f"reading references unknown gauge {gid!r}")
        gauges[gid].readings.append(GaugeReading(
            timestamp=parse_utc(r["timestamp"]),
            rain_increment_mm=float(r["rain_increment_mm"]),
            water_elevation_m=float(r["water_elevation_m"]),
        ))
    out = []
    for g in gauges.values():
        g.readings.sort(key=lambda rec: rec.timestamp)
        out.append(GaugeStation(id=g.id, x=g.x, y=g.y,
                                flood_threshold_elevation=g.flood_threshold_elevation,
                                readings=g.readings))
    return sorted(out, key=lambda g: g.id)


def load_events(directory: Path) -> dict[str, EventStream]:
    rows = _read_csv(directory / "events.csv",
                     ["kind", "timestamp", "x", "y", "tile_id", "value"])
    streams = {kind: EventStream(kind=kind) for kind in EVENT_KINDS}
    for r in rows:
        kind = r["kind"]
        if kind not in streams:
            raise UsageError(f"unknown event kind {kind!r} in events.csv")
        streams[kind].records.append(EventRecord(
            timestamp=parse_utc(r["timestamp"]),
            value=float(r["value"]),
            x=float(r["x"]) if r["x"] else None,
            y=float(r["y"]) if r["y"] else None,
            tile_id=r["tile_id"] or None,
        ))
    return {k: EventStream(kind=k, records=s.records) for k, s in streams.items()}


def load_tile_map(directory: Path) -> dict[str, str]:
    path = directory / "tiles.csv"
    if not path.exists():
        return {}
    return {r["tile_id"]: r["node_id"]
            for r in _read_csv(path, ["tile_id", "node_id"])}


def load_road_status(directory: Path, node_ids: Sequence[str]
                     ) -> tuple[TimeGrid, np.ndarray]:
    rows = _read_csv(directory / "road_status.csv",
                     ["node_id", "timestamp", "flooded_fraction"])
    stamps = sorted({parse_utc(r["timestamp"]) for r in rows})
    grid = TimeGrid.from_timestamps(stamps)
    index = {nid: i for i, nid in enumerate(node_ids)}
    stamp_index = {s: i for i, s in enumerate(grid.times())}
    fractions = np.full((len(node_ids), grid.count), np.nan)
    for r in rows:
        nid = r["node_id"]
        if nid not in index:
            raise UsageError(f"road_status references unknown node {nid!r}")
        fractions[index[nid], stamp_index[parse_utc(r["timestamp"])]] = float(r["flooded_fraction"])
    if np.any(np.isnan(fractions)):
        ni, ti = np.argwhere(np.isnan(fractions))[0]
        raise DomainError(f"road_status missing node {node_ids[ni]} at step {ti}")
    return grid, fractions


def build_feature_tensor(nodes: Sequence[UnitNode], gauges: Sequence[GaugeStation],
                         events: dict[str, EventStream], tile_to_node: dict[str, str],
                         grid: TimeGrid, fractions: np.ndarray,
                         train_steps: int) -> FeatureTensor:
    """Run the whole channel pipeline for a loaded scenario."""
    node_ids = [n.id for n in nodes]
    node_xy = np.array([[n.x, n.y] for n in nodes])
    times = grid.times()

    # per-gauge series on the grid (rain increments and threshold-relative level)
    per_gauge_rain: dict[str, np.ndarray] = {}
    per_gauge_ratio: dict[str, np.ndarray] = {}
    for g in gauges:
        ts, rain, elev = g.series()
        per_gauge_rain[g.id] = resample_series(ts, rain, times)
        per_gauge_ratio[g.id] = water_ratio(resample_series(ts, elev, times),
                                            g.flood_threshold_elevation)

    rain_blend = np.zeros((len(nodes), grid.count))
    ratio_blend = np.zeros((len(nodes), grid.count))
    for i, node in enumerate(nodes):
        (g1, w1), (g2, w2) = nearest_two_gauges((node.x, node.y), gauges)
        rain_blend[i] = blend_gauge_channel(per_gauge_rain[g1.id], per_gauge_rain[g2.id], w1, w2)
        ratio_blend[i] = blend_gauge_channel(per_gauge_ratio[g1.id], per_gauge_ratio[g2.id], w1, w2)

    rain_2h = np.vstack([accumulate_rainfall(rain_blend[i], RAIN_SHORT_STEPS)
                         for i in range(len(nodes))])
    rain_24h = np.vstack([accumulate_rainfall(rain_blend[i], RAIN_LONG_STEPS)
                          for i in range(len(nodes))])

    reports, _ = aggregate_point_events(events["report_311"], node_xy, grid)
    tweets, _ = aggregate_point_events(events["tweet"], node_xy, grid)
    activity = aggregate_activity(events["activity_tile"], tile_to_node, node_ids, grid)

    channels = {
        "rain_2h": rain_2h,
        "rain_24h": rain_24h,
        "water_ratio": ratio_blend,
        "reports_311": reports,
        "tweets": tweets,
        "activity": activity,
    }
    labels = label_flood_classes(fractions)
    return assemble(node_ids, channels, labels, grid, train_steps)


def prepare_from_dir(directory: str | Path, train_steps: int) -> FeatureTensor:
    """Load a scenario directory's CSV files and assemble the feature tensor."""
    directory = Path(directory)
    from .graph import load_nodes_csv  # local import to avoid cycle at module load
    nodes = load_nodes_csv(directory / "nodes.csv")
    gauges = load_gauges(directory)
    events = load_events(directory)
    tiles = load_tile_map(directory)
    grid, fractions = load_road_status(directory, [n.id for n in nodes])
    return build_feature_tensor(nodes, gauges, events, tiles, grid, fractions, train_steps)


# -- dataset container ----------------------------------------------------------

_DATASET_MAGIC = "FLOODNOWCAST-DATASET"
_DATASET_VERSION = 1


def save_dataset(ft: FeatureTensor, path: str | Path) -> None:
    """Write the tensor container: ASCII shape header, float64 LE payload,
    uint8 labels; normalization stats and grid metadata go to `<path>.json`."""
    path = Path(path)
    n, c, t = ft.values.shape
    with open(path, "wb") as fh:
        fh.write(f"{_DATASET_MAGIC} {_DATASET_VERSION} {n} {c} {t}\n".encode())
        fh.write(ft.values.astype("<f8").tobytes())
        fh.write(ft.labels.astype(np.uint8).tobytes())
    sidecar = {
        "channels": list(CHANNELS),
        "node_ids": ft.node_ids,
        "grid": {"start": format_utc(ft.grid.start), "step_minutes": ft.grid.step_minutes,
                 "count": ft.grid.count},
        "normalization": {"mean": [float(v) for v in ft.channel_mean],
                          "std": [float(v) for v in ft.channel_std]},
        "train_steps": ft.train_steps,
    }
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
    if version != _DATASET_VERSION:
        raise UsageError(f"unsupported dataset version {version}")
    size = n * c * t * 8
    if len(payload) != size + n * t:
        raise UsageError(f"{path} payload is {len(payload)} bytes; its header "
                         f"({n} x {c} x {t}) needs {size + n * t}")
    values = np.frombuffer(payload, dtype="<f8", count=n * c * t).reshape(n, c, t).copy()
    labels = np.frombuffer(payload, dtype=np.uint8, offset=size).reshape(n, t).astype(np.int64)
    with open(str(path) + ".json") as fh:
        sidecar = json.load(fh)
    grid = TimeGrid(start=parse_utc(sidecar["grid"]["start"]),
                    count=sidecar["grid"]["count"],
                    step_minutes=sidecar["grid"]["step_minutes"])
    return FeatureTensor(values=values, labels=labels, grid=grid,
                         node_ids=list(sidecar["node_ids"]),
                         channel_mean=np.array(sidecar["normalization"]["mean"]),
                         channel_std=np.array(sidecar["normalization"]["std"]),
                         train_steps=int(sidecar["train_steps"]))

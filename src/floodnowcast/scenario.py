"""Deterministic synthetic flood scenarios for desk-scale verification.

Real flood telemetry is proprietary, so tests and examples run on generated
scenarios: nodes scattered in a planar square, drifting Gaussian rain storms,
and a latent flooded-road fraction per node that rises with excess rainfall,
spills toward graph neighbors, and drains away:

    f[t+1] = clip(f[t] + gain * max(rain - threshold, 0)
                       + spill * neighbor_mean(f[t]) - drainage, 0, 1)

Everything observable is derived from that latent field with the same
semantics the feature pipeline expects: gauges report rain increments and a
reservoir-like water elevation against their flooding threshold, 3-1-1
report counts follow a Poisson law on the lagged fraction, tweet counts on
the current fraction, and activity-tile indexes dip below their baseline
while an area is flooded. One seed produces byte-identical files; a seed
whose human-sensed channels carry too little signal (report/fraction
correlation below a fixed floor) is regenerated from a derived seed rather
than silently accepted. A config sets size, seed and gauge count only; the
fixed physics are :data:`PHYSICS`, and ``scenario_meta.json`` lists both.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, UsageError, check_field_types
from .graph import NODES_HEADER, StaticFeatures, UnitNode, build_adjacency
from .pipeline import N_CLASSES, FeatureTensor, format_utc, label_flood_classes, parse_utc

__all__ = ["PHYSICS", "ScenarioConfig", "ScenarioDataset", "generate",
           "latent_flood_step", "physics_only"]

log = logging.getLogger(__name__)

ACTIVITY_WINDOW_STEPS = 8   # raw activity cadence: 4 hours of 30-minute steps


@dataclass(frozen=True)
class ScenarioConfig:
    """Generator knobs; defaults give a learnable 50-node, 10-day scenario."""

    n_nodes: int = 50
    n_timesteps: int = 480
    seed: int = 0
    n_gauges: int = 6

    def __post_init__(self):
        check_field_types(self)
        if self.n_nodes < 4:
            raise UsageError(f"n_nodes must be >= 4, got {self.n_nodes}")
        if self.n_timesteps < 26:  # two default windows (t_in 12 + horizon 1)
            raise UsageError(f"n_timesteps must be >= 26, got {self.n_timesteps}")
        if self.n_gauges < 2:
            raise UsageError("need at least 2 gauges")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class _Physics:
    """The fixed storm, flood and sensing constants of every scenario."""

    area_side_m: float = 30_000.0
    start_time: str = "2022-05-01T00:00:00+00:00"

    # drifting rain storms: compact cells moving fast enough that upwind
    # neighbors flood a few steps before a node does
    n_storms: int = 3
    storm_amplitude_mm: float = 10.0       # per-step rain at a storm center
    storm_radius_m: float = 6_000.0
    storm_drift_m_per_step: float = 700.0

    # latent flood dynamics; spill must stay below drainage or a saturated
    # region would sustain itself forever
    rain_gain: float = 0.04                # fraction increase per excess mm
    absorption_threshold_mm: float = 2.0
    drainage_rate: float = 0.12
    spill_coefficient: float = 0.10

    # sensors
    gauge_noise_mm: float = 0.15

    # human-sensed signals are sparse and noisy per node (a handful of
    # reports per flooded window, activity depression near the noise floor),
    # so one node's own counts barely pin down its state while the flood
    # field stays spatially smooth; pooling observations across neighbors is
    # where the information lives
    report_rate: float = 0.4
    report_lag_steps: int = 1
    tweet_rate: float = 0.4
    tweet_background: float = 0.15
    activity_baseline: float = 0.65
    activity_depression: float = 0.20
    activity_noise: float = 0.15
    min_report_correlation: float = 0.3


PHYSICS = _Physics()


@dataclass
class ScenarioDataset:
    """Where a generated scenario lives, plus its latent ground truth."""

    directory: Path
    config: ScenarioConfig
    node_ids: list[str]
    flooded_fraction: np.ndarray    # (N, T), the values written to road_status.csv
    attempt: int
    report_correlation: float


def latent_flood_step(f: np.ndarray, rain: np.ndarray, adjacency: np.ndarray,
                      gain: float, threshold: float, spill: float,
                      drainage: float) -> np.ndarray:
    """One update of the latent flooded fraction (clipped to [0, 1])."""
    deg = adjacency.sum(axis=1)
    neighbor_mean = np.where(deg > 0, adjacency @ f / np.where(deg > 0, deg, 1.0), 0.0)
    excess = np.maximum(rain - threshold, 0.0)
    return np.clip(f + gain * excess + spill * neighbor_mean - drainage, 0.0, 1.0)


def _make_nodes(cfg: ScenarioConfig, rng: np.random.Generator) -> list[UnitNode]:
    side = PHYSICS.area_side_m
    xy = rng.uniform(0.0, side, size=(cfg.n_nodes, 2))
    # watersheds from a Voronoi partition of a few seed points
    n_sheds = max(2, cfg.n_nodes // 10)
    shed_pts = rng.uniform(0.0, side, size=(n_sheds, 2))
    # one main stream: a horizontal line at a random latitude
    stream_y = rng.uniform(0.35, 0.65) * side
    nodes = []
    for i in range(cfg.n_nodes):
        x, y = xy[i]
        shed = int(np.argmin(np.hypot(shed_pts[:, 0] - x, shed_pts[:, 1] - y)))
        dist_stream = abs(y - stream_y)
        dist_coast = y  # the "bay" is the southern edge of the square
        in_plain = dist_stream < 0.18 * side or rng.random() < 0.1
        nodes.append(UnitNode(
            id=f"n{i:03d}", x=round(float(x), 2), y=round(float(y), 2),
            static=StaticFeatures(
                in_floodplain=bool(in_plain),
                residential_ratio=round(float(rng.uniform(0.05, 0.95)), 4),
                watershed_id=f"w{shed}",
                dist_coast=round(float(dist_coast), 2),
                dist_stream=round(float(dist_stream), 2),
            )))
    return nodes


def _draw_storms(cfg: ScenarioConfig, rng: np.random.Generator) -> list[dict]:
    """Storm centers, drift velocities and temporal envelopes.

    Peak times are stratified across [0.2, 0.8] of the timeline so long runs
    see flooding build and recede in both early and late stretches; centers
    stay inside the middle of the square so storms actually cross the nodes.
    """
    storms = []
    for s in range(PHYSICS.n_storms):
        center = rng.uniform(0.15 * PHYSICS.area_side_m, 0.85 * PHYSICS.area_side_m, size=2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        frac = (s + rng.uniform()) / PHYSICS.n_storms
        storms.append({
            "center": center,
            "velocity": PHYSICS.storm_drift_m_per_step * np.array([np.cos(angle),
                                                                   np.sin(angle)]),
            "peak_t": (0.2 + 0.6 * frac) * cfg.n_timesteps,
            "width_t": 0.10 * cfg.n_timesteps,
        })
    return storms


def _rain_field(cfg: ScenarioConfig, storms: list[dict],
                points: np.ndarray) -> np.ndarray:
    """Rain (mm per step) at each point from the shared storm set."""
    t_axis = np.arange(cfg.n_timesteps)
    rain = np.zeros((points.shape[0], cfg.n_timesteps))
    for storm in storms:
        envelope = np.exp(-((t_axis - storm["peak_t"]) ** 2)
                          / (2.0 * storm["width_t"] ** 2))
        # the drawn center is the storm's position at its temporal peak
        cx = storm["center"][0] + storm["velocity"][0] * (t_axis - storm["peak_t"])
        cy = storm["center"][1] + storm["velocity"][1] * (t_axis - storm["peak_t"])
        d2 = (points[:, 0:1] - cx[None, :]) ** 2 + (points[:, 1:2] - cy[None, :]) ** 2
        rain += PHYSICS.storm_amplitude_mm * envelope[None, :] * \
            np.exp(-d2 / (2.0 * PHYSICS.storm_radius_m ** 2))
    return rain


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _generate_once(cfg: ScenarioConfig, attempt: int):
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(attempt,)))
    nodes = _make_nodes(cfg, rng)
    node_xy = np.array([[n.x, n.y] for n in nodes])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny scenarios may trip bandwidth fallbacks
        adjacency = build_adjacency(nodes)

    storms = _draw_storms(cfg, rng)
    node_rain = _rain_field(cfg, storms, node_xy)

    latent = np.zeros((cfg.n_nodes, cfg.n_timesteps))
    for t in range(cfg.n_timesteps - 1):
        latent[:, t + 1] = latent_flood_step(
            latent[:, t], node_rain[:, t], adjacency, PHYSICS.rain_gain,
            PHYSICS.absorption_threshold_mm, PHYSICS.spill_coefficient, PHYSICS.drainage_rate)
    emitted = np.round(latent, 6)

    # gauges: the same storm field sampled at the gauge location plus noise;
    # elevation follows a leaky accumulation of local rain so the threshold
    # ratio peaks during storms
    gauge_xy = rng.uniform(0.0, PHYSICS.area_side_m, size=(cfg.n_gauges, 2))
    thresholds = np.round(rng.uniform(2.5, 5.0, size=cfg.n_gauges), 2)
    gauge_rain_true = _rain_field(cfg, storms, gauge_xy)
    gauge_rain = np.clip(
        gauge_rain_true + rng.normal(scale=PHYSICS.gauge_noise_mm,
                                     size=gauge_rain_true.shape), 0.0, None)
    elevation = np.zeros_like(gauge_rain)
    ema = np.zeros(cfg.n_gauges)
    for t in range(cfg.n_timesteps):
        ema = 0.92 * ema + gauge_rain[:, t]
        elevation[:, t] = 0.3 * thresholds + 0.085 * ema * (thresholds / 3.5)

    # human-sensed draws
    lag = PHYSICS.report_lag_steps
    report_intensity = np.zeros_like(latent)
    report_intensity[:, lag:] = PHYSICS.report_rate * latent[:, :cfg.n_timesteps - lag]
    reports = rng.poisson(report_intensity)
    tweets = rng.poisson(PHYSICS.tweet_rate * latent + PHYSICS.tweet_background)
    n_windows = (cfg.n_timesteps + ACTIVITY_WINDOW_STEPS - 1) // ACTIVITY_WINDOW_STEPS
    activity = np.zeros((cfg.n_nodes, 2, n_windows))
    for w in range(n_windows):
        sl = latent[:, w * ACTIVITY_WINDOW_STEPS:(w + 1) * ACTIVITY_WINDOW_STEPS]
        window_mean = sl.mean(axis=1)
        base = PHYSICS.activity_baseline - PHYSICS.activity_depression * window_mean
        noise = rng.normal(scale=PHYSICS.activity_noise, size=(cfg.n_nodes, 2))
        activity[:, :, w] = np.clip(base[:, None] + noise, 0.0, 1.0)
    activity = np.round(activity, 4)

    jitter = rng.normal(scale=100.0, size=(cfg.n_nodes, cfg.n_timesteps, 2))
    return (nodes, node_xy, emitted, gauge_xy, thresholds, gauge_rain, elevation,
            reports, tweets, activity, jitter)


def generate(cfg: ScenarioConfig, out_dir: str | Path) -> ScenarioDataset:
    """Write a full scenario directory; deterministic for a given config.

    Regenerates from a derived seed when the lagged report counts correlate
    with the flooded fraction below ``PHYSICS.min_report_correlation``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    attempt = 0
    while True:
        (nodes, node_xy, emitted, gauge_xy, thresholds, gauge_rain, elevation,
         reports, tweets, activity, jitter) = _generate_once(cfg, attempt)
        lag = PHYSICS.report_lag_steps
        lagged = reports[:, lag:].ravel()
        target = emitted[:, :emitted.shape[1] - lag].ravel()
        if np.std(target) == 0.0 or np.std(lagged) == 0.0:
            corr = 0.0
        else:
            corr = float(np.corrcoef(lagged, target)[0, 1])
        if corr > PHYSICS.min_report_correlation:
            break
        attempt += 1
        if attempt >= 8:
            raise DomainError(
                f"no seed variant reached report/fraction correlation "
                f"{PHYSICS.min_report_correlation} (last: {corr:.3f})")
        log.warning("scenario seed %d attempt %d: report correlation %.3f too low; "
                    "regenerating", cfg.seed, attempt - 1, corr)

    start = parse_utc(PHYSICS.start_time)
    step = 1800.0
    times = start + step * np.arange(cfg.n_timesteps)
    stamps = [format_utc(t) for t in times]
    mids = [format_utc(t) for t in times - 900.0]   # mid-interval event times

    _write_csv(out_dir / "nodes.csv", NODES_HEADER, [
        [n.id, repr(n.x), repr(n.y), int(n.static.in_floodplain),
         repr(n.static.residential_ratio), n.static.watershed_id,
         repr(n.static.dist_coast), repr(n.static.dist_stream)]
        for n in nodes])

    _write_csv(out_dir / "gauges.csv", ["id", "x", "y", "threshold"], [
        [f"g{i:02d}", f"{gauge_xy[i, 0]:.2f}", f"{gauge_xy[i, 1]:.2f}",
         f"{thresholds[i]:.2f}"]
        for i in range(cfg.n_gauges)])

    reading_rows = []
    for i in range(cfg.n_gauges):
        cadence = 2 if i % 3 == 2 else 1   # every third gauge reports hourly
        for t in range(0, cfg.n_timesteps, cadence):
            reading_rows.append([f"g{i:02d}", stamps[t], f"{gauge_rain[i, t]:.4f}",
                                 f"{elevation[i, t]:.4f}"])
    _write_csv(out_dir / "gauge_readings.csv",
               ["gauge_id", "timestamp", "rain_increment_mm", "water_elevation_m"],
               reading_rows)

    event_rows = []
    for i in range(cfg.n_nodes):
        for t in range(cfg.n_timesteps):
            if reports[i, t] > 0:
                event_rows.append(["report_311", mids[t],
                                   f"{node_xy[i, 0] + jitter[i, t, 0]:.2f}",
                                   f"{node_xy[i, 1] + jitter[i, t, 1]:.2f}",
                                   "", str(int(reports[i, t]))])
            if tweets[i, t] > 0:
                event_rows.append(["tweet", mids[t],
                                   f"{node_xy[i, 0] - jitter[i, t, 0]:.2f}",
                                   f"{node_xy[i, 1] - jitter[i, t, 1]:.2f}",
                                   "", str(int(tweets[i, t]))])
    n_windows = activity.shape[2]
    for i in range(cfg.n_nodes):
        for k in range(2):
            tile = f"tile_{i:03d}_{k}"
            for w in range(n_windows):
                t_idx = w * ACTIVITY_WINDOW_STEPS
                event_rows.append(["activity_tile", stamps[t_idx], "", "", tile,
                                   f"{activity[i, k, w]:.4f}"])
    _write_csv(out_dir / "events.csv",
               ["kind", "timestamp", "x", "y", "tile_id", "value"], event_rows)

    _write_csv(out_dir / "tiles.csv", ["tile_id", "node_id"],
               [[f"tile_{i:03d}_{k}", nodes[i].id]
                for i in range(cfg.n_nodes) for k in range(2)])

    _write_csv(out_dir / "road_status.csv", ["node_id", "timestamp", "flooded_fraction"],
               [[nodes[i].id, stamps[t], f"{emitted[i, t]:.6f}"]
                for i in range(cfg.n_nodes) for t in range(cfg.n_timesteps)])

    meta = {"config": {**dataclasses.asdict(cfg), **dataclasses.asdict(PHYSICS)},
            "attempt": attempt, "report_correlation": corr,
            "label_counts": [int(c) for c in np.bincount(
                label_flood_classes(emitted).ravel(), minlength=N_CLASSES)]}
    with open(out_dir / "scenario_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return ScenarioDataset(directory=out_dir, config=cfg,
                           node_ids=[n.id for n in nodes],
                           flooded_fraction=emitted, attempt=attempt,
                           report_correlation=corr)


# -- dataset views -------------------------------------------------------------


def physics_only(ft: FeatureTensor) -> FeatureTensor:
    """Channels 4-6 (reports, tweets, activity) zeroed in normalized space."""
    values = ft.values.copy()
    values[:, 3:, :] = 0.0
    return FeatureTensor(values=values, labels=ft.labels.copy(), grid=ft.grid,
                         node_ids=list(ft.node_ids),
                         channel_mean=ft.channel_mean.copy(),
                         channel_std=ft.channel_std.copy(),
                         train_steps=ft.train_steps)


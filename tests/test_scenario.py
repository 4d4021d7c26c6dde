import json

import numpy as np
import pytest

from floodnowcast.errors import UsageError
from floodnowcast.pipeline import label_flood_classes, prepare_from_dir
from floodnowcast.scenario import (
    ScenarioConfig,
    generate,
    latent_flood_step,
    physics_only,
)

SMALL = dict(n_nodes=12, n_timesteps=96, n_gauges=4, seed=5)


def test_config_validation():
    with pytest.raises(UsageError):
        ScenarioConfig(n_nodes=3)
    with pytest.raises(UsageError):
        ScenarioConfig(n_timesteps=10)
    with pytest.raises(UsageError):
        ScenarioConfig(drainage_rate=-0.1)
    with pytest.raises(UsageError):
        ScenarioConfig(seed=-1)


def test_latent_step_rain_drives_flooding_to_saturation():
    # 1-node graph, no drainage, constant super-threshold rain: hand iteration
    adjacency = np.zeros((1, 1))
    f = np.zeros(1)
    seen = [f[0]]
    for _ in range(30):
        f = latent_flood_step(f, np.array([6.0]), adjacency, gain=0.05,
                              threshold=2.0, spill=0.1, drainage=0.0)
        seen.append(f[0])
    # per-step gain is 0.05 * (6 - 2) = 0.2: reaches 1 at step 5 and stays
    np.testing.assert_allclose(seen[:6], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)
    assert all(v == 1.0 for v in seen[6:])


def test_latent_step_neighbor_spill():
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = np.array([1.0, 0.0])
    out = latent_flood_step(f, np.zeros(2), adjacency, gain=0.0, threshold=1.0,
                            spill=0.2, drainage=0.05)
    assert out[1] == pytest.approx(0.2 * 1.0 - 0.05, abs=1e-12)
    assert out[0] == pytest.approx(1.0 - 0.05 + 0.0, abs=1e-12)


def test_generate_is_deterministic_byte_for_byte(tmp_path):
    cfg = ScenarioConfig(**SMALL)
    a = generate(cfg, tmp_path / "a")
    b = generate(cfg, tmp_path / "b")
    for name in ("nodes.csv", "gauges.csv", "gauge_readings.csv", "events.csv",
                 "tiles.csv", "road_status.csv", "scenario_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert np.array_equal(a.flooded_fraction, b.flooded_fraction)


def test_zero_amplitude_means_no_flood(tmp_path):
    cfg = ScenarioConfig(storm_amplitude_mm=0.0, **SMALL)
    ds = generate(cfg, tmp_path / "quiet")
    assert np.all(ds.flooded_fraction == 0.0)
    ft = prepare_from_dir(tmp_path / "quiet", train_steps=60)
    assert np.all(ft.labels == 0)


def test_generate_round_trips_through_pipeline(tmp_path):
    cfg = ScenarioConfig(**SMALL)
    ds = generate(cfg, tmp_path / "s")
    ft = prepare_from_dir(tmp_path / "s", train_steps=60)
    assert ft.values.shape == (12, 6, 96)
    # labels reproduce the latent field's thresholded classes exactly
    np.testing.assert_array_equal(ft.labels, label_flood_classes(ds.flooded_fraction))
    assert np.all(np.isfinite(ft.values))


def test_default_config_carries_report_signal(tmp_path):
    ds = generate(ScenarioConfig(**SMALL), tmp_path / "sig")
    assert ds.report_correlation > 0.3
    meta = json.loads((tmp_path / "sig" / "scenario_meta.json").read_text())
    assert meta["report_correlation"] == ds.report_correlation
    assert meta["attempt"] == ds.attempt
    # the scenario actually floods somewhere
    assert sum(meta["label_counts"][1:]) > 0


def test_physics_only_view_zeroes_human_channels(tmp_path):
    ds = generate(ScenarioConfig(**SMALL), tmp_path / "v")
    ft = prepare_from_dir(tmp_path / "v", train_steps=60)
    original = ft.values.copy()
    phys = physics_only(ft)
    assert np.all(phys.values[:, 3:, :] == 0.0)
    np.testing.assert_array_equal(phys.values[:, :3, :], ft.values[:, :3, :])
    # the input tensor is untouched
    np.testing.assert_array_equal(ft.values, original)
    assert np.any(ft.values[:, 3:, :] != 0.0)
    np.testing.assert_array_equal(phys.labels, ft.labels)


def test_physics_only_does_not_share_buffers(tmp_path):
    ds = generate(ScenarioConfig(**SMALL), tmp_path / "w")
    ft = prepare_from_dir(tmp_path / "w", train_steps=60)
    phys = physics_only(ft)
    phys.values[0, 0, 0] = 999.0
    assert ft.values[0, 0, 0] != 999.0

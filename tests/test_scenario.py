import hashlib
import json

import numpy as np
import pytest

from floodnowcast.errors import UsageError
from floodnowcast.pipeline import label_flood_classes, prepare_from_dir, save_dataset
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


# sha256 of every file `generate` writes for the default scenario at three
# seeds. Every later stage reads these files, and the generator borrows the
# graph's adjacency, so a refactor of either must keep these bytes; a
# deliberate change to the generated data records new digests here.
GENERATED_SHA256 = {
    11: {
        "nodes.csv": "bab6d46d189c4cc4e834b53e1860ad66f5208b9ef308e68e4519d9d48b5ca47b",
        "gauges.csv": "49bda2a0dfd79c3e6161b5e60d62b5451bd0a56b4c5e3aa78346b973df352521",
        "gauge_readings.csv": "668f7582e1bafa3e0b594734b1a3a7d043e72b4c6207a0ab986be1768f0c1db6",
        "events.csv": "22d2402ef35e85238e989079fe18d9324f090ab5f1ee6b744221a9c28188d249",
        "tiles.csv": "bfb53b5ec14ee3116e7f263892395a51c92f5a540931375097e25cddb35d5ab8",
        "road_status.csv": "2f19e693bd5f3f95a6a4be9b036ac552bb462cf224197fe303f49c03bb32841a",
        "scenario_meta.json": "4dd8114507901ab573bb72e89f8d82c4391e23d5c57abcf2a795cc0832cb507a",
    },
    22: {
        "nodes.csv": "c2555280623d555ef3be6f101c0bbe7701fe65024f02ba6a89edfceb92368265",
        "gauges.csv": "b6ba639008e9ea30edfadfb68f8584bf5e877541673a96f567911d3438004d9a",
        "gauge_readings.csv": "b17110e25f2238b81f2d40e8ed5aba985f1d534a0b0954fa041795a73677ab9a",
        "events.csv": "40fafef328f23fc86bb0f070cab197123785bf9839d98e9f2b04367894fc1cb6",
        "tiles.csv": "bfb53b5ec14ee3116e7f263892395a51c92f5a540931375097e25cddb35d5ab8",
        "road_status.csv": "663fd07c67202a72e2d3e4bd39a6db0851570dfec5590288b7ce1b1593aa8919",
        "scenario_meta.json": "f1d64a90f405992871685f357f8335c643e4eeeab769301acb7ab29f7c0b1305",
    },
    33: {
        "nodes.csv": "fb95cb127daf42799ca22be5d0e9bf7f75e144096fe4a09da25ddcda5993d014",
        "gauges.csv": "126ce5e45d90d01b4b46bb3a0546fa2c189ab6220214b255be58a362d3a1dabb",
        "gauge_readings.csv": "9736f3b7ce162834155b4c1f2d8af447991da15278538ff0e4642daaa309a385",
        "events.csv": "f95655c82af937959217839dc9c3f928bbd5a335492642f45a9be091cc682cc3",
        "tiles.csv": "bfb53b5ec14ee3116e7f263892395a51c92f5a540931375097e25cddb35d5ab8",
        "road_status.csv": "d00eb3061e91c82e4a0692e7e846eb6336aa9e72e964916c446234c4752011f3",
        "scenario_meta.json": "1ef999ce590ce9635b251d33f97fe360a642e063b603c28367e4d513cf051547",
    },
}


@pytest.mark.parametrize("seed", sorted(GENERATED_SHA256))
def test_generate_writes_the_recorded_bytes(tmp_path, seed):
    generate(ScenarioConfig(seed=seed), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GENERATED_SHA256[seed]}
    assert digests == GENERATED_SHA256[seed]


# sha256 of the dataset container `prepare` writes from those scenarios (train
# span 288), and from the 256-unit, 72-step scenario of seed 0 (train span 40).
# A rewrite of the pipeline must keep these bytes.
PREPARED_SHA256 = {
    "seed-11": (ScenarioConfig(seed=11), 288, {
        "dataset.bin": "ea35663d59df13177be729a09f5881553ca7c4b0cb27f7a979cd913b87b84633",
        "dataset.bin.json": "c59d2e0c15628872a7ebc149d9cad130245087dd2fdc98e2698296972a838ded",
    }),
    "seed-22": (ScenarioConfig(seed=22), 288, {
        "dataset.bin": "6d29eaeb6910f3a630cb97aae23e58714feb0142c6e59b5d263da6eaa2e25306",
        "dataset.bin.json": "c7b5e50330ca55fbf5a3211204c5a172a78462635ce58250405f0d0e71dc56d8",
    }),
    "seed-33": (ScenarioConfig(seed=33), 288, {
        "dataset.bin": "2c36984f620e82efb7d925ca82c7bb2101cae4ec373de8de223616d0d29c44e9",
        "dataset.bin.json": "73b2f4d8e0f37804b68060164e9904a7a52dcd7b07f121f38b867f66c5f6f5b0",
    }),
    "tracts-256": (ScenarioConfig(n_nodes=256, n_timesteps=72, seed=0), 40, {
        "dataset.bin": "28d3bcb814e82977701e73d94b9096dfbb39e01cb6c2bf09cd934e283b4e0016",
        "dataset.bin.json": "c01cff578e29fa6d3a2a65abb09b78c2710f842f85e3f472c1bfc88caa20db75",
    }),
}


@pytest.mark.parametrize("case", sorted(PREPARED_SHA256))
def test_prepare_writes_the_recorded_bytes(tmp_path, case):
    cfg, train_steps, expected = PREPARED_SHA256[case]
    generate(cfg, tmp_path / "scenario")
    save_dataset(prepare_from_dir(tmp_path / "scenario", train_steps), tmp_path / "dataset.bin")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in expected}
    assert digests == expected

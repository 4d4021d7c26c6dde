"""Property tests: a damaged container or sidecar never ends `evaluate` in a traceback.

For each file `prepare` and `train` write for `evaluate`, hypothesis draws a
truncation offset, a bit to flip or a header key to drop. `evaluate` must
exit 2 (usage), 3 (I/O) or 4 (numeric) with a message on stderr; exit 1 (an
uncaught exception) fails the test. Exit 0 is accepted only where the damage
leaves the file meaning the same (say, an exponent's ``e`` flipped to
``E`` in the sidecar).
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodnowcast.cli import main

SCENARIO = {"n_nodes": 6, "n_timesteps": 48, "n_gauges": 3, "seed": 5}
TRAIN = {"train": {"learning_rate": 3e-3, "epochs": 1, "batch_size": 8, "seed": 5},
         "model": {"channels": [4], "t_in": 4, "horizon": 1, "k": 3}}
FILES = ["dataset.bin", "dataset.bin.json", "weights.bin", "graph.bin"]


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    root = tmp_path_factory.mktemp("containers")
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    (root / "train.json").write_text(json.dumps(TRAIN))
    assert main(["generate", "--config", str(root / "scenario.json"),
                 "--out", str(root / "scen")]) == 0
    assert main(["prepare", "--scenario", str(root / "scen"), "--train-steps", "30",
                 "--out", str(root / "data")]) == 0
    assert main(["train", "--dataset", str(root / "data"), "--config",
                 str(root / "train.json"), "--out", str(root / "run")]) == 0
    return root


def _header_split(name: str, raw: bytes) -> tuple[bytes, bytes]:
    """The file's header (the whole file for the sidecar) and the rest."""
    if name == "dataset.bin.json":
        return raw, b""
    header, _, payload = raw.partition(b"\n")
    return header + b"\n", payload


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _drop(name: str, raw: bytes, index: int) -> bytes:
    header, payload = _header_split(name, raw)
    if name == "dataset.bin":    # a plain-text header: drop one of its fields
        fields = header.split()
        del fields[index % len(fields)]
        return b" ".join(fields) + b"\n" + payload
    parsed = json.loads(header)
    paths = sorted(_key_paths(parsed))
    *parents, key = paths[index % len(paths)]
    owner = parsed
    for parent in parents:
        owner = owner[parent]
    del owner[key]
    text = json.dumps(parsed, sort_keys=True)
    return (text + "\n").encode() + payload


def _evaluate(work: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["evaluate", "--dataset", str(work / "data"), "--weights",
                     str(work / "weights.bin"), "--out", str(work / "eval")])
    return code, err.getvalue()


def _same_meaning(name: str, before: bytes, after: bytes) -> bool:
    if name == "dataset.bin.json":
        try:
            return json.loads(after) == json.loads(before)
        except ValueError:
            return False
    return False


@pytest.mark.parametrize("kind", ["truncate", "flip", "drop"])
@pytest.mark.parametrize("name", FILES)
def test_damaged_file_exits_with_a_message(prepared, name, kind):
    path = prepared / ("run" if name == "weights.bin" else "data") / name
    original = path.read_bytes()
    # a truncation offset, a bit, or an index into the header's keys
    bound = {"truncate": len(original) - 1, "flip": 8 * len(original) - 1, "drop": 1000}

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(st.integers(0, bound[kind]))
    def check(where):
        if kind == "truncate":
            damaged = original[:where]
        elif kind == "flip":
            flipped = bytearray(original)
            flipped[where // 8] ^= 1 << (where % 8)
            damaged = bytes(flipped)
        else:
            damaged = _drop(name, original, where)
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            shutil.copytree(prepared / "data", work / "data")
            shutil.copyfile(prepared / "run" / "weights.bin", work / "weights.bin")
            target = work / ("weights.bin" if name == "weights.bin" else f"data/{name}")
            target.write_bytes(damaged)
            code, err = _evaluate(work)
        same = _same_meaning(name, original, damaged)
        assert code in ((0, 2, 3, 4) if same else (2, 3, 4)), (kind, where, err)
        if code:
            assert err.strip() and "Traceback" not in err

    check()

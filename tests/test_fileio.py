"""Base64 float64 arrays in dataset and checkpoint files, and atomic writes."""

import base64
import json
import os
import stat

import numpy as np
import pytest

from dphgnn.autodiff import Tensor
from dphgnn.errors import ParseError
from dphgnn.hypergraph import LabeledHypergraph, build_hypergraph, load_dataset, save_dataset
from dphgnn.nn import load_checkpoint, save_checkpoint


def _bits(*words: int) -> list[float]:
    return np.array(words, dtype=np.uint64).view(np.float64).tolist()


# -0.0, the smallest subnormal, 1/3, ±max, ±inf, a quiet NaN with a payload
# and a signalling NaN, as an (n, 3) array.
SPECIAL = np.array(
    [[-0.0, 5e-324, 1.0 / 3.0],
     [np.finfo(np.float64).max, -np.finfo(np.float64).max, np.inf],
     [-np.inf, *_bits(0x7FF8_0000_0000_0123, 0xFFF0_0000_0000_0001)]]
)


class DatasetFile:
    """A dataset whose dense features are the array under test."""

    @staticmethod
    def save(arr, path):
        n = arr.shape[0]
        save_dataset(LabeledHypergraph(
            hypergraph=build_hypergraph(n, [(v,) for v in range(n)]),
            features=arr,
            labels=np.zeros(n, dtype=np.int64),
            train_mask=np.zeros(n, dtype=bool),
            val_mask=np.zeros(n, dtype=bool),
            test_mask=np.zeros(n, dtype=bool),
            num_classes=1,
        ), path)

    @staticmethod
    def load(path):
        return load_dataset(path).features

    @staticmethod
    def list_form(arr):
        return arr.tolist()

    @staticmethod
    def holder(payload):
        return payload, "features"


class CheckpointFile:
    """A checkpoint whose one parameter is the array under test."""

    @staticmethod
    def save(arr, path):
        save_checkpoint({"w": Tensor(arr)}, path)

    @staticmethod
    def load(path):
        return load_checkpoint(path)[0]["w"]

    @staticmethod
    def list_form(arr):
        return {"shape": list(arr.shape), "values": arr.ravel().tolist()}

    @staticmethod
    def holder(payload):
        return payload["params"], "w"


FILES = pytest.mark.parametrize("kind", [DatasetFile, CheckpointFile], ids=["dataset", "checkpoint"])


def _replace_entry(kind, path, form):
    payload = json.loads(path.read_text())
    parent, key = kind.holder(payload)
    parent[key] = form
    path.write_text(json.dumps(payload))


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@FILES
@pytest.mark.parametrize("arr", [SPECIAL, np.zeros((0, 3))], ids=["special", "empty"])
def test_round_trip_keeps_every_bit(tmp_path, kind, arr):
    path = tmp_path / "f.json"
    kind.save(arr, path)
    parent, key = kind.holder(json.loads(path.read_text()))
    encoded = base64.b64encode(arr.astype("<f8").tobytes()).decode()
    assert parent[key] == {"shape": list(arr.shape), "float64_le": encoded}
    loaded = kind.load(path)
    _same_bits(loaded, arr)
    assert loaded.flags.writeable and loaded.dtype.isnative
    kind.save(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


@FILES
def test_list_form_still_loads(tmp_path, kind):
    # Old files and hand-written ones hold number lists; they load as before.
    arr = np.array([[0.25, -1.0, 1.0 / 3.0], [2.0, 0.0, -0.0]])
    path = tmp_path / "f.json"
    kind.save(arr, path)
    _replace_entry(kind, path, kind.list_form(arr))
    _same_bits(kind.load(path), arr)


_GOOD = base64.b64encode(np.arange(6.0).tobytes()).decode()


@FILES
@pytest.mark.parametrize(
    "form",
    [
        {"shape": [2, 3], "float64_le": _GOOD[:-4] + "AAA*"},      # not a base64 character
        {"shape": [2, 3], "float64_le": _GOOD[:-1]},               # padding cut
        {"shape": [2, 3], "float64_le": _GOOD + "\n"},             # stray whitespace
        {"shape": [2, 3], "float64_le": 7},                        # not a string
        {"shape": [2, 2], "float64_le": _GOOD},                    # 48 bytes for 4 elements
        {"shape": [2, 3], "float64_le": _GOOD[:-12]},              # too few bytes
        {"shape": [-2, -3], "float64_le": _GOOD},                  # negative extents
        {"shape": [2.0, 3.0], "float64_le": _GOOD},                # not integers
        {"shape": [True, 6], "float64_le": _GOOD},                 # a bool is no extent
        {"shape": "2x3", "float64_le": _GOOD},                     # not a list
        {"shape": [2, 3]},                                         # missing key
        {"float64_le": _GOOD},
        {"shape": [2, 3], "float64_le": _GOOD, "dtype": "f8"},     # extra key
        _GOOD,                                                     # not an object
    ],
)
def test_malformed_float_object_raises_parse_error(tmp_path, kind, form):
    path = tmp_path / "f.json"
    kind.save(np.arange(6.0).reshape(2, 3), path)
    _replace_entry(kind, path, form)
    with pytest.raises(ParseError):
        kind.load(path)


@FILES
def test_failed_save_keeps_previous_file(tmp_path, kind, monkeypatch):
    path = tmp_path / "f.json"
    kind.save(np.ones((2, 3)), path)
    before = path.read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def broken_dump(obj, fh, **kwargs):
        fh.write("{partial")
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        kind.save(np.zeros((2, 3)), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


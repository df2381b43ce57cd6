"""Model container round-trip and corruption tests."""

import hashlib
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drnnsim import lm
from drnnsim.training import (
    MODEL_MAGIC,
    ModelFormatError,
    load_model,
    named_arrays,
    save_model,
)


def write_container(path, arrays):
    """A version-1 container of f64 arrays, written field by field."""
    out = [MODEL_MAGIC, struct.pack("<II", 1, len(arrays))]
    for name, shape, raw in arrays:
        out += [struct.pack("<H", len(name)), name, struct.pack("<BB", 0, len(shape))]
        out += [struct.pack("<Q", dim) for dim in shape] + [raw]
    path.write_bytes(b"".join(out))


def container_size(params, itemsize):
    """Exact file size from the container layout."""
    size = 4 + 4 + 4  # magic + version + count
    for name, arr in named_arrays(params).items():
        size += 2 + len(name.encode()) + 1 + 1 + 8 * arr.ndim + arr.size * itemsize
    return size


class TestRoundTrip:
    def test_f64_roundtrip_is_bitwise_exact(self, tmp_path):
        params = lm.init_params(hidden=5, vocab=11, seed=19)
        path = tmp_path / "model.drnn"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.hidden == 5 and loaded.vocab == 11
        for name, arr in named_arrays(params).items():
            np.testing.assert_array_equal(arr, named_arrays(loaded)[name])

    def test_f32_roundtrip_preserves_f32_values_exactly(self, tmp_path):
        params = lm.init_params(hidden=4, vocab=9, seed=2)
        path = tmp_path / "model32.drnn"
        save_model(params, path, dtype="f32")
        loaded = load_model(path)
        for name, arr in named_arrays(params).items():
            np.testing.assert_array_equal(
                arr.astype(np.float32).astype(np.float64), named_arrays(loaded)[name]
            )

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_roundtrip_over_random_shapes(self, hidden, vocab, seed):
        params = lm.init_params(hidden=hidden, vocab=vocab, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            for dtype, cast in (("f64", np.float64), ("f32", np.float32)):
                path = Path(tmp) / f"{dtype}.drnn"
                save_model(params, path, dtype=dtype)
                loaded = load_model(path)
                assert (loaded.hidden, loaded.vocab) == (hidden, vocab)
                got = named_arrays(loaded)
                for name, arr in named_arrays(params).items():
                    assert got[name].tobytes() == arr.astype(cast).astype(np.float64).tobytes(), (dtype, name)

    def test_double_roundtrip_produces_identical_bytes(self, tmp_path):
        params = lm.init_params(hidden=3, vocab=7, seed=5)
        a, b = tmp_path / "a.drnn", tmp_path / "b.drnn"
        save_model(params, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_model_bytes_are_pinned(self, tmp_path):
        # SHA-256 of the file as written while layers were stored as twelve
        # per-gate arrays: seeded init values and the container must not change
        path = tmp_path / "model.drnn"
        save_model(lm.init_params(4, 9, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "abd7d2984b178e016e18b9f01bf27b6027a7861f0feab17fc7093a794bb502a8"
        )

    def test_file_size_matches_the_layout(self, tmp_path):
        params = lm.init_params(hidden=3, vocab=6, seed=0)
        for dtype, itemsize in (("f64", 8), ("f32", 4)):
            path = tmp_path / f"model_{dtype}.drnn"
            save_model(params, path, dtype=dtype)
            assert path.stat().st_size == container_size(params, itemsize)


class TestCorruption:
    def make_file(self, tmp_path):
        params = lm.init_params(hidden=3, vocab=6, seed=1)
        path = tmp_path / "model.drnn"
        save_model(params, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_truncation(self, tmp_path):
        path = self.make_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_dims_whose_product_overflows_64_bits(self, tmp_path):
        path = tmp_path / "model.drnn"
        write_container(path, [(b"V", (2**32, 2**32), b"")])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_array_name_that_is_not_utf8(self, tmp_path):
        path = self.make_file(tmp_path)
        data = path.read_bytes()
        name = b"layer0.Wf"
        path.write_bytes(data.replace(name, b"\xff" * len(name), 1))
        with pytest.raises(ModelFormatError, match="UTF-8"):
            load_model(path)

    def test_well_formed_container_with_two_layers(self, tmp_path):
        params = lm.init_params(hidden=3, vocab=6, seed=1)
        arrays = [
            (name.encode(), arr.shape, arr.tobytes())
            for name, arr in named_arrays(params).items()
            if not name.startswith("layer2.")
        ]
        path = tmp_path / "model.drnn"
        write_container(path, arrays)
        with pytest.raises(ModelFormatError, match="missing array layer2"):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)

    def test_non_finite_values_rejected(self, tmp_path):
        params = lm.init_params(hidden=2, vocab=5, seed=0)
        params.V[0, 0] = np.inf
        path = tmp_path / "model.drnn"
        save_model(params, path)
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(path)

    def test_bad_dtype_argument(self, tmp_path):
        params = lm.init_params(hidden=2, vocab=5, seed=0)
        with pytest.raises(ValueError):
            save_model(params, tmp_path / "x.drnn", dtype="f16")

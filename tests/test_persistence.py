"""Model container round-trip and corruption tests."""

import hashlib
import os
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drnnsim import corpus, lm
from drnnsim.training import (
    ARRAY_NAMES,
    MODEL_MAGIC,
    ModelFormatError,
    TrainConfig,
    load_model,
    named_arrays,
    save_model,
    train,
)


def write_container(path, arrays, code=0):
    """A version-1 container of arrays of dtype ``code`` (0 = f64, 1 = f32), written field by field."""
    out = [MODEL_MAGIC, struct.pack("<II", 1, len(arrays))]
    for name, shape, raw in arrays:
        out += [struct.pack("<H", len(name)), name, struct.pack("<BB", code, len(shape))]
        out += [struct.pack("<Q", dim) for dim in shape] + [raw]
    path.write_bytes(b"".join(out))


def documented_order(params):
    """(name, array) pairs in README's order, spelled out apart from ``named_arrays``."""
    pairs = [(f"layer{l}.{kind}{gate}", getattr(layer, kind + gate))
             for l, layer in enumerate(params.layers) for kind in "WUb" for gate in "fiog"]
    return pairs + [("V", params.V)]


def seeded_entries(replace=()):
    """The 37 (name, shape, raw) entries of a seeded h3/V6 model, in order; ``replace``: name -> (shape, raw)."""
    arrays = documented_order(lm.init_params(hidden=3, vocab=6, seed=1))
    return [(name.encode(), *dict(replace).get(name, (arr.shape, arr.tobytes()))) for name, arr in arrays]


def f32_with_nan_in_layer1_bg(arrays):
    arrays.update({name: arr.astype(np.float32) for name, arr in arrays.items()})
    arrays["layer1.bg"][1] = np.nan


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

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_saved_bytes_equal_a_field_by_field_writer(self, hidden, vocab, seed):
        params = lm.init_params(hidden=hidden, vocab=vocab, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            for dtype, code, cast in (("f64", 0, np.float64), ("f32", 1, np.float32)):
                saved, written = Path(tmp) / f"saved_{dtype}.drnn", Path(tmp) / f"written_{dtype}.drnn"
                save_model(params, saved, dtype=dtype)
                entries = [(n.encode(), a.shape, a.astype(cast).tobytes()) for n, a in documented_order(params)]
                write_container(written, entries, code)
                assert saved.read_bytes() == written.read_bytes(), dtype

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

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_loaded_arrays_are_owned_writable_float64(self, tmp_path, dtype):
        path = tmp_path / "model.drnn"
        save_model(lm.init_params(hidden=3, vocab=7, seed=4), path, dtype=dtype)
        loaded = load_model(path)
        assert loaded.flat.dtype == np.float64 and loaded.flat.base is None
        assert loaded.flat.flags.c_contiguous and loaded.flat.flags.writeable
        fused = [arr for layer in loaded.layers for arr in (layer.W, layer.U, layer.b)] + [loaded.V]
        assert len(fused) == 10
        for arr in fused:
            assert arr.base is loaded.flat and arr.flags.c_contiguous and arr.flags.writeable

    def test_training_a_loaded_model_equals_training_the_original(self, tmp_path):
        params = lm.init_params(hidden=4, vocab=9, seed=3)
        path = tmp_path / "model.drnn"
        save_model(params, path)
        pairs = corpus.pairs_from_encoded([[1, 2, 3], [0, 5], [4, 4, 6, 1]], 9)
        config = TrainConfig(learning_rate=0.1, epochs=1, rng_seed=2)
        from_file, _ = train(load_model(path), pairs, config)
        in_memory, _ = train(params, pairs, config)
        got = named_arrays(from_file)
        for name, arr in named_arrays(in_memory).items():
            assert got[name].tobytes() == arr.tobytes(), name

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
        write_container(path, seeded_entries({"layer0.Wf": ((2**32, 2**32), b"")}))
        with pytest.raises(ModelFormatError, match="^truncated model file$"):
            load_model(path)

    @pytest.mark.parametrize("shape", [(0, 2**62), (2**40, 0, 2**40), (0, 2**64 - 1)])
    def test_zero_size_array_whose_dims_numpy_cannot_hold(self, tmp_path, shape):
        path = tmp_path / "model.drnn"
        write_container(path, seeded_entries({"layer0.Wf": (shape, b"")}))
        with pytest.raises(ModelFormatError, match=rf"^array layer0.Wf shape {re.escape(str(shape))} is too large$"):
            load_model(path)

    def test_array_name_that_is_not_utf8(self, tmp_path):
        path = self.make_file(tmp_path)
        data = path.read_bytes()
        name = b"layer0.Wf"
        path.write_bytes(data.replace(name, b"\xff" * len(name), 1))
        with pytest.raises(ModelFormatError, match="UTF-8"):
            load_model(path)

    def test_well_formed_container_with_two_layers(self, tmp_path):
        arrays = [entry for entry in seeded_entries() if not entry[0].startswith(b"layer2.")]
        path = tmp_path / "model.drnn"
        write_container(path, arrays)
        with pytest.raises(ModelFormatError, match="^array count 25, expected 37$"):
            load_model(path)

    def test_swapped_gate_arrays(self, tmp_path):
        # Each array keeps its own name and shape: only the container order is wrong.
        arrays = seeded_entries()
        arrays[0], arrays[1] = arrays[1], arrays[0]
        path = tmp_path / "model.drnn"
        write_container(path, arrays)
        with pytest.raises(ModelFormatError, match="^array 0 is 'layer0.Wi', expected 'layer0.Wf'$"):
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

    def test_repeated_array_name(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"layer0.Wi", b"layer0.Wf", 1))  # a second layer0.Wf
        with pytest.raises(ModelFormatError, match="^array 1 is 'layer0.Wf', expected 'layer0.Wi'$"):
            load_model(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[12 + 2 + len(b"layer0.Wf")] = 7  # the first array's dtype code
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="unknown dtype code 7"):
            load_model(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda arrays: arrays.pop("V"), "^array count 36, expected 37$"),
        (lambda arrays: arrays.update(V=arrays["V"].ravel()), "V has rank 1, expected 2"),
        (lambda arrays: arrays.update({"layer0.Uf": arrays["layer0.Uf"].T}), r"array layer0.Uf shape \(6, 3\) != \(3, 6\)"),
        (lambda arrays: arrays.update(extra=arrays.pop("V")), "^array 36 is 'extra', expected 'V'$"),
        # the four gate blocks still hold 4H rows between them
        (lambda arrays: arrays.update({"layer0.Wf": np.zeros((4, 3)), "layer0.Wi": np.zeros((2, 3))}),
         r"^array layer0.Wf shape \(4, 3\) != \(3, 3\)$"),
        (f32_with_nan_in_layer1_bg, "^non-finite values in array layer1.bg$"),
    ], ids=["missing-V", "V-rank", "wrong-shape", "unexpected-array", "gate-rows-sum-to-4H", "f32-nan"])
    def test_container_not_matching_the_topology(self, tmp_path, edit, match):
        arrays = dict(named_arrays(lm.init_params(hidden=3, vocab=6, seed=1)))
        edit(arrays)
        path = tmp_path / "model.drnn"
        code = 1 if all(arr.dtype == np.float32 for arr in arrays.values()) else 0
        write_container(path, [(name.encode(), arr.shape, arr.tobytes()) for name, arr in arrays.items()], code)
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize("vocab, hidden, match", [(5, 0, "^hidden must be >= 1, got 0$"),
                                                      (0, 3, "^vocab must be >= 1, got 0$")])
    def test_zero_width_model(self, tmp_path, vocab, hidden, match):
        # A well-formed container: every array has the shape V's topology gives it.
        shapes = {}
        for l in range(lm.N_LAYERS):
            blocks = {"W": (hidden, hidden), "U": (hidden, vocab if l == 0 else hidden), "b": (hidden,)}
            shapes.update({f"layer{l}.{name}": blocks[name[0]] for name in lm.GATE_PARAM_FIELDS})
        shapes["V"] = (vocab, hidden)
        path = tmp_path / "model.drnn"
        write_container(path, [(name.encode(), shape, np.zeros(shape).tobytes()) for name, shape in shapes.items()])
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize("dtype", ["f16", ["f32"], None, b"f32"])
    def test_bad_dtype_argument(self, tmp_path, dtype):
        params = lm.init_params(hidden=2, vocab=5, seed=0)
        with pytest.raises(ValueError, match=r"^dtype must be one of \['f32', 'f64'\]$"):
            save_model(params, tmp_path / "x.drnn", dtype=dtype)
        assert not (tmp_path / "x.drnn").exists()

    def test_a_model_path_that_is_not_a_str_or_path_is_refused_before_any_io(self):
        params = lm.init_params(hidden=2, vocab=5, seed=0)
        message = "^model path must be a str or os.PathLike, not {}$"
        read_fd, write_fd = os.pipe()
        try:
            for path in (write_fd, 2.5):  # an int would be opened as a file descriptor, written and closed
                with pytest.raises(ValueError, match=message.format(type(path).__name__)):
                    save_model(params, path)
            for path in (read_fd, True, b"model.drnn"):
                with pytest.raises(ValueError, match=message.format(type(path).__name__)):
                    load_model(path)
            os.write(write_fd, b"still open")
            assert os.read(read_fd, 64) == b"still open"  # nothing else was written into the pipe
        finally:
            os.close(read_fd)
            os.close(write_fd)

    @pytest.mark.parametrize("name, value", [("V", 1e39), ("layer1.Ug", -3.5e38), ("layer0.bf", 1.7e308)])
    def test_f32_save_of_a_value_beyond_float32_leaves_no_file(self, tmp_path, name, value):
        params = lm.init_params(hidden=2, vocab=5, seed=0)
        named_arrays(params)[name].flat[0] = value
        path = tmp_path / "model.drnn"
        path.write_bytes(b"an older file at the same path")
        with pytest.raises(ValueError, match=f"^array {re.escape(name)} has values beyond the float32 range$"):
            save_model(params, path, dtype="f32")
        assert not path.exists()
        save_model(params, path)  # float64 holds the value
        assert load_model(path).flat.tobytes() == params.flat.tobytes()

    def test_f32_save_keeps_the_largest_value_that_rounds_to_float32(self, tmp_path):
        params = lm.init_params(hidden=2, vocab=5, seed=0)
        params.V[0, 0] = 3.4028235e38  # rounds down to float32's largest finite value
        path = tmp_path / "model.drnn"
        save_model(params, path, dtype="f32")
        assert load_model(path).V[0, 0] == float(np.finfo(np.float32).max)


class TestFiniteness:
    """The one whole-buffer screen in ``load_model`` and the per-array fallback that names the bad array."""

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("name", ARRAY_NAMES)
    def test_a_non_finite_entry_names_its_array(self, tmp_path, name, dtype):
        path = tmp_path / "model.drnn"
        for bad in (np.nan, np.inf, -np.inf):
            params = lm.init_params(hidden=3, vocab=6, seed=1)
            named_arrays(params)[name].flat[-1] = bad
            save_model(params, path, dtype=dtype)  # save writes a non-finite value as it is
            with pytest.raises(ModelFormatError, match=f"^non-finite values in array {re.escape(name)}$"):
                load_model(path)

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("later, earlier", [("V", "layer0.Wf"), ("layer2.bg", "layer1.Ui"), ("layer0.bg", "layer0.Uf")])
    def test_of_two_non_finite_arrays_the_first_in_container_order_is_named(self, tmp_path, later, earlier, dtype):
        params = lm.init_params(hidden=3, vocab=6, seed=1)
        named_arrays(params)[later].flat[0] = np.nan
        named_arrays(params)[earlier].flat[-1] = np.inf
        path = tmp_path / "model.drnn"
        save_model(params, path, dtype=dtype)
        with pytest.raises(ModelFormatError, match=f"^non-finite values in array {re.escape(earlier)}$"):
            load_model(path)

    def test_finite_values_whose_squares_overflow_load_bit_exactly_without_a_warning(self, tmp_path):
        params = lm.init_params(hidden=3, vocab=6, seed=1)
        params.V[...] = 1e200  # the screen's sum of squares overflows: a false alarm the exact check clears
        path = tmp_path / "model.drnn"
        save_model(params, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_model(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()

"""The model reader against a reference reader, on every prefix and on single-bit flips of real files.

``ref_load_model`` below is ``training.load_model`` as it was written
before the reader walked the file with precompiled structs and a bytes
compare per name: it slices a memoryview per field, decodes every name,
derives the expected shapes from ``stack_shapes`` and checks finiteness
through ``np.all``. Every file, well formed or not, must give the same
outcome from both readers: the same ``ModelFormatError`` message, or
the same parameters bit for bit.
"""

import math
import struct
from pathlib import Path

import numpy as np
import pytest

from drnnsim import lm, training
from drnnsim.lm import LstmStackParams, stack_shapes
from drnnsim.training import _DTYPE_NP, ARRAY_NAMES, MODEL_MAGIC, MODEL_VERSION, ModelFormatError


def ref_load_model(path) -> LstmStackParams:
    data = memoryview(Path(path).read_bytes())  # slices share the file's bytes, no copy
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(data):
            raise ModelFormatError("truncated model file")
        chunk = data[offset:offset + n]
        offset += n
        return chunk

    if take(4) != MODEL_MAGIC:
        raise ModelFormatError("bad magic: not a model file")
    version, count = struct.unpack("<II", take(8))
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unknown model version {version}")
    if count != len(ARRAY_NAMES):
        raise ModelFormatError(f"array count {count}, expected {len(ARRAY_NAMES)}")

    arrays = []  # in container order, each a view of the file's bytes
    for position, want in enumerate(ARRAY_NAMES):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError("array name is not valid UTF-8") from None
        if name != want:
            raise ModelFormatError(f"array {position} is {name!r}, expected {want!r}")
        code, rank = struct.unpack("<BB", take(2))
        if code not in _DTYPE_NP:
            raise ModelFormatError(f"unknown dtype code {code}")
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        raw = take(math.prod(shape) * _DTYPE_NP[code].itemsize)  # Python ints: no overflow
        try:
            arrays.append(np.frombuffer(raw, _DTYPE_NP[code]).reshape(shape))
        except ValueError:  # only a zero-size array gets here: its other dims are too large for numpy
            raise ModelFormatError(f"array {name} shape {shape} is too large") from None
    if offset != len(data):
        raise ModelFormatError("trailing bytes after last array")

    if arrays[-1].ndim != 2:
        raise ModelFormatError(f"V has rank {arrays[-1].ndim}, expected 2")
    vocab, hidden = arrays[-1].shape
    for name, size in (("hidden", hidden), ("vocab", vocab)):
        if size < 1:
            raise ModelFormatError(f"{name} must be >= 1, got {size}")
    # Each fused array of the layout (V's shape is the file's) is four consecutive gate blocks f, i, o, g.
    expected = [(rows // 4, *cols) for rows, *cols in stack_shapes(hidden, vocab)[:-1] for _ in range(4)]
    for name, arr, want in zip(ARRAY_NAMES, arrays, expected):
        if arr.shape != want:
            raise ModelFormatError(f"array {name} shape {arr.shape} != {want}")
    # On the file's views, not the float64 buffer: an f32 file's views are half the bytes.
    for name, arr in zip(ARRAY_NAMES, arrays):
        if not np.all(np.isfinite(arr)):
            raise ModelFormatError(f"non-finite values in array {name}")
    return LstmStackParams(np.concatenate(arrays, axis=None, dtype=np.float64), hidden, vocab)


def outcome(reader, path):
    """What a reader makes of a file: ("error", message) or ("model", hidden, vocab, the buffer's bytes)."""
    try:
        params = reader(path)
    except ModelFormatError as err:
        return "error", str(err)
    return "model", params.hidden, params.vocab, params.flat.tobytes()


def variants(data: bytes):
    """Every proper prefix of ``data``, ``data`` with one bit flipped per byte (bit i % 8 of byte i), one byte more."""
    yield from (data[:n] for n in range(len(data)))
    for i in range(len(data)):
        flipped = bytearray(data)
        flipped[i] ^= 1 << (i % 8)
        yield bytes(flipped)
    yield data + b"\0"


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_reader_matches_the_reference_on_every_prefix_and_bit_flip(tmp_path, dtype):
    path = tmp_path / "model.drnn"
    training.save_model(lm.init_params(hidden=1, vocab=4, seed=3), path, dtype=dtype)
    data = path.read_bytes()
    kinds = set()
    for n, variant in enumerate([data, *variants(data)]):
        path.write_bytes(variant)
        want = outcome(ref_load_model, path)
        assert outcome(training.load_model, path) == want, (dtype, n, want[:2])
        kinds.add(want[1] if want[0] == "error" else "model")
    # The variants reach the header, name, dtype and shape checks, and some still load.
    for kind in ("truncated model file", "bad magic: not a model file", "unknown model version",
                 "array count", "array name is not valid UTF-8", "unknown dtype code",
                 "array 0 is ", "array layer", "trailing bytes after last array", "model"):
        assert any(seen.startswith(kind) for seen in kinds), kind


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_reader_matches_the_reference_on_non_finite_values(tmp_path, dtype, bad):
    params = lm.init_params(hidden=2, vocab=5, seed=0)
    params.layers[1].bg[1] = bad
    path = tmp_path / "model.drnn"
    training.save_model(params, path, dtype=dtype)
    want = outcome(ref_load_model, path)
    assert want == ("error", "non-finite values in array layer1.bg")
    assert outcome(training.load_model, path) == want

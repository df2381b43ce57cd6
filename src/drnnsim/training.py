"""Training of the LSTM language model: cross-entropy loss, BPTT over the
stack (each layer's backward is ``lm._layer_backward``), plain SGD,
perplexity tracking, sentence scoring, and binary model persistence."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import TrainingPair, start_token_id
from .lm import (
    GATE_PARAM_FIELDS,
    N_LAYERS,
    LstmLayerParams,
    LstmStackParams,
    _check_int_fields,
    _check_positive_real,
    _check_token_id,
    _layer_backward,
    param_layout,
    stack_forward,
    stack_forward_trace,
    stack_views,
)

# Probability floor inside the loss so a zero-probability target cannot
# produce an infinite loss.
LOSS_EPS = 1e-12


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite losses or gradients."""


class ModelFormatError(ValueError):
    """Raised when a model file is corrupt or has an unknown layout."""


# ---------------------------------------------------------------------------
# Loss and scoring
# ---------------------------------------------------------------------------

def sequence_loss(outputs, labels) -> float:
    """Sum over steps of -log p[label], in nats.

    Each target probability is floored at LOSS_EPS, which keeps the loss
    finite and non-negative (a perfect prediction scores exactly 0).
    """
    labels = list(labels)
    if len(outputs) != len(labels):
        raise ValueError(f"{len(outputs)} outputs vs {len(labels)} labels")
    nats = 0.0
    for p, y in zip(outputs, labels):
        _check_token_id(y, len(p), "target")
        nats -= math.log(max(float(p[y]), LOSS_EPS))
    return nats


def score_sentence(params: LstmStackParams, sentence) -> float:
    """Chain-rule log probability of a sentence, in nats (always <= 0).

    Token t is predicted from the start marker plus the sentence prefix, so
    a sentence of T tokens contributes exactly T conditional factors. The
    value equals minus the sequence loss of that prediction problem.
    """
    ids = list(sentence)
    if not ids:
        raise ValueError("sentence is empty")
    inputs = [start_token_id(params.vocab)] + ids[:-1]
    outputs, _ = stack_forward(params, inputs)
    return -sequence_loss(outputs, ids)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def _all_finite(buffer: np.ndarray) -> bool:
    """Whether every entry of a 1-D float buffer is finite, in one BLAS pass and with no bool temporary.

    A NaN or an infinity makes the sum of squares non-finite, so a finite sum proves the answer; a non-finite
    one may be a finite buffer whose squares overflow, and falls through to the exact check."""
    with np.errstate(over="ignore"):  # squares past ~1.3e154 overflow the screen, never the answer
        screen = np.dot(buffer, buffer)
    return math.isfinite(screen) or bool(np.isfinite(buffer).all())


@dataclass
class Gradients:
    """Loss gradients, one array per parameter array, each a view of ``dense`` in its parameter's shape but one.

    ``dense`` is laid out by ``param_layout(hidden, vocab, k)``: layer 0's input gradient is column-sparse, so
    ``layers[0].U`` is 4H x k, its column j the gradient of ``params.layers[0].U[:, input_ids[j]]`` for the
    sentence's k distinct input tokens ``input_ids``, sorted; every other column of it is zero."""

    dense: np.ndarray
    layers: tuple[LstmLayerParams, ...]
    V: np.ndarray
    input_ids: np.ndarray


# The model container's array order, the only one it has: each layer's per-gate
# arrays in GATE_PARAM_FIELDS order, layers bottom up, then V.
ARRAY_NAMES = tuple(f"layer{l}.{name}" for l in range(N_LAYERS) for name in GATE_PARAM_FIELDS) + ("V",)


def named_arrays(obj: LstmStackParams | Gradients) -> dict[str, np.ndarray]:
    """Flat name -> array view of a parameter or gradient container, in ``ARRAY_NAMES`` order."""
    arrays = [getattr(layer, name) for layer in obj.layers for name in GATE_PARAM_FIELDS] + [obj.V]
    return dict(zip(ARRAY_NAMES, arrays, strict=True))


def bptt_gradients(params: LstmStackParams, pair: TrainingPair):
    """Exact loss gradients by backpropagation through time.

    Runs the stack forward over ``pair.input``, then walks the layers from the top down, each one
    backwards through time. Every weight gradient is one product of arrays stacked over the sequence,
    written into its view of ``Gradients.dense``. Returns (loss, Gradients).
    """
    outputs, traces = stack_forward_trace(params, pair.input)
    loss = sequence_loss(outputs, pair.label)
    input_ids = np.array(sorted(set(pair.input)))  # np.unique's result, at a third of its cost
    dense = np.empty(param_layout(params.hidden, params.vocab, len(input_ids)).size)
    grad_layers, grad_V = stack_views(dense, params.hidden, params.vocab, len(input_ids))

    # Softmax + cross-entropy collapse to (p - onehot) at the logits.
    dz_out = np.array(outputs)
    dz_out[np.arange(len(pair.label)), pair.label] -= 1.0
    np.matmul(dz_out.T, traces[-1].h[1:], out=grad_V)
    dh_in = dz_out @ params.V
    for l in reversed(range(N_LAYERS)):
        layer, tr, grad = params.layers[l], traces[l], grad_layers[l]
        dZ = _layer_backward(layer, tr, dh_in)
        np.matmul(dZ.T, tr.h[:-1], out=grad.W)
        dZ.sum(axis=0, out=grad.b)
        if l:
            np.matmul(dZ.T, traces[l - 1].h[1:], out=grad.U)
            dh_in = dZ @ layer.U
    # One-hot input: only the tokens' columns receive gradient. Each column
    # sums its dZ rows in sentence order, starting from 0.0.
    grad_U0 = grad_layers[0].U.T  # k x 4H: row j is column j of the 4H x k block
    grad_U0.fill(0.0)
    np.add.at(grad_U0, np.searchsorted(input_ids, pair.input), dZ)
    return loss, Gradients(dense, grad_layers, grad_V, input_ids)


def sgd_step(params: LstmStackParams, grads: Gradients, learning_rate: float) -> LstmStackParams:
    """In-place SGD update of the parameter buffer.

    The step, ``learning_rate`` times ``grads.dense``, is checked before anything is touched: a non-finite
    gradient or an overflowing step raises DivergenceError and leaves the parameters unmodified. Layer 0's
    input gradient reaches only the ``grads.input_ids`` columns; the rest would be updated by zero, a no-op.
    """
    _check_positive_real(learning_rate, "learning_rate")
    with np.errstate(over="ignore"):  # an overflow is an infinite step, refused below
        step = np.multiply(grads.dense, learning_rate)
    if not _all_finite(step):
        raise DivergenceError("diverged: non-finite gradient")
    U0, k = params.layers[0].U, len(grads.input_ids)
    shape, start, stop = param_layout(params.hidden, params.vocab, k).arrays[1]  # layer 0's U block in the step
    params.flat[:start] -= step[:start]
    U0[:, grads.input_ids] -= step[start:stop].reshape(shape)
    params.flat[start + U0.size:] -= step[stop:]
    return params


# ---------------------------------------------------------------------------
# Training loop and log
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 245
    eval_interval: int = 100  # steps between perplexity records
    rng_seed: int = 0

    def __post_init__(self):
        _check_positive_real(self.learning_rate, "learning_rate")
        _check_int_fields(self, 1, "epochs", "eval_interval")
        _check_int_fields(self, 0, "rng_seed")


@dataclass(frozen=True)
class TrainRecord:
    epoch: int
    step: int
    mean_loss: float  # nats per token
    perplexity: float
    kind: str  # "epoch" or "interval" from train(); "eval" for the one record `drnnsim eval --csv-out` writes


CSV_HEADER = "epoch,step,mean_loss,perplexity"


@dataclass
class TrainingLog:
    """Chronological loss/perplexity records collected during training."""

    records: list[TrainRecord] = field(default_factory=list)

    def add(self, epoch: int, step: int, mean_loss: float, kind: str) -> TrainRecord:
        record = TrainRecord(epoch, step, mean_loss, math.exp(mean_loss), kind)
        self.records.append(record)
        return record

    def epoch_records(self) -> list[TrainRecord]:
        return [r for r in self.records if r.kind == "epoch"]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(f"{r.epoch},{r.step},{r.mean_loss:.17g},{r.perplexity:.17g}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


def train(params: LstmStackParams, pairs: list[TrainingPair], config: TrainConfig):
    """SGD over shuffled sentence pairs, one update per sentence.

    Deterministic for a fixed ``config.rng_seed`` (the seed drives the
    shuffle order; initialization is seeded by the caller). Records the
    per-token mean loss at every ``eval_interval`` steps and at each epoch
    end. Aborts with DivergenceError if a loss or gradient goes non-finite.
    """
    if not pairs:
        raise ValueError("no training pairs")
    rng = np.random.default_rng(config.rng_seed)
    log = TrainingLog()
    step = 0
    window_nats = 0.0
    window_tokens = 0

    for epoch in range(1, config.epochs + 1):
        epoch_nats = 0.0
        epoch_tokens = 0
        for idx in rng.permutation(len(pairs)):
            pair = pairs[idx]
            loss, grads = bptt_gradients(params, pair)
            if not math.isfinite(loss):
                raise DivergenceError(f"diverged: non-finite loss at step {step + 1}")
            try:
                sgd_step(params, grads, config.learning_rate)
            except DivergenceError as err:
                raise DivergenceError(f"{err} at step {step + 1}") from None
            step += 1
            tokens = len(pair.label)
            epoch_nats += loss
            epoch_tokens += tokens
            window_nats += loss
            window_tokens += tokens
            if step % config.eval_interval == 0:
                log.add(epoch, step, window_nats / window_tokens, kind="interval")
                window_nats = 0.0
                window_tokens = 0
        log.add(epoch, step, epoch_nats / epoch_tokens, kind="epoch")
    return params, log


def evaluate(params: LstmStackParams, pairs: list[TrainingPair]):
    """Mean per-token loss and perplexity of a model over sentence pairs."""
    if not pairs:
        raise ValueError("no evaluation pairs")
    total = 0.0
    tokens = 0
    for pair in pairs:
        outputs, _ = stack_forward(params, pair.input)
        total += sequence_loss(outputs, pair.label)
        tokens += len(pair.label)
    mean = total / tokens
    return mean, math.exp(mean)


# ---------------------------------------------------------------------------
# Model persistence
#
# Binary layout (little-endian):
#   magic "DRNN" | version u32 | array count u32 (= len(ARRAY_NAMES))
#   per array, in ARRAY_NAMES order: name length u16 | name utf-8
#              | dtype code u8 (0=f64, 1=f32) | rank u8 | dims u64 each
#              | raw row-major data
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"DRNN"
MODEL_VERSION = 1
_DTYPE_CODE = {"f64": 0, "f32": 1}
_DTYPE_NP = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_U16, _U8_PAIR = struct.Struct("<H"), struct.Struct("<BB")
_DIMS = tuple(struct.Struct(f"<{rank}Q") for rank in range(256))  # a u8 rank's dims
_NAMES_UTF8 = tuple(name.encode() for name in ARRAY_NAMES)


def _check_model_path(path) -> None:
    """The model-path rule: a str or os.PathLike, else ValueError (``open`` would take an int as a file descriptor)."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"model path must be a str or os.PathLike, not {type(path).__name__}")


def save_model(params: LstmStackParams, path, dtype: str = "f64") -> None:
    """Write the named-array container: per array its header, then its slice of ``flat``, cast on its own.

    A finite value that the f32 cast would make infinite raises ValueError naming its array, and no file is left."""
    _check_model_path(path)
    if not isinstance(dtype, str) or dtype not in _DTYPE_CODE:
        raise ValueError(f"dtype must be one of {sorted(_DTYPE_CODE)}")
    code = _DTYPE_CODE[dtype]
    try:
        with open(path, "wb") as fh, np.errstate(over="raise"):
            fh.write(struct.pack("<4sII", MODEL_MAGIC, MODEL_VERSION, len(ARRAY_NAMES)))
            blocks = param_layout(params.hidden, params.vocab, params.vocab).blocks
            for name, utf8, (shape, start, stop) in zip(ARRAY_NAMES, _NAMES_UTF8, blocks):
                fh.write(_U16.pack(len(utf8)) + utf8 + _U8_PAIR.pack(code, len(shape)) + _DIMS[len(shape)].pack(*shape))
                # One slice at a time: a whole f32 copy of the buffer would raise the peak memory.
                fh.write(np.ascontiguousarray(params.flat[start:stop], dtype=_DTYPE_NP[code]))
    except FloatingPointError:  # only the f32 cast of a finite value too large for float32
        Path(path).unlink()
        raise ValueError(f"array {name} has values beyond the float32 range") from None


def load_model(path) -> LstmStackParams:
    """Read a container of the ``ARRAY_NAMES`` arrays, in that order, back into float64 parameters.

    Every malformed file raises ModelFormatError. Headers and shapes (against V's topology) are checked on views
    of the file's bytes; the buffer is then one concatenation of them in file order, its layout, and its
    finiteness one ``_all_finite`` check.
    """
    _check_model_path(path)
    data = Path(path).read_bytes()
    offset = 0

    def take(n: int) -> int:  # consumes the next n bytes; returns where they start
        nonlocal offset
        if offset + n > len(data):
            raise ModelFormatError("truncated model file")
        offset += n
        return offset - n

    if data[take(4):offset] != MODEL_MAGIC:
        raise ModelFormatError("bad magic: not a model file")
    version, count = struct.unpack_from("<II", data, take(8))
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unknown model version {version}")
    if count != len(ARRAY_NAMES):
        raise ModelFormatError(f"array count {count}, expected {len(ARRAY_NAMES)}")

    arrays = []  # in container order, each a view of the file's bytes
    for position, (want, want_utf8) in enumerate(zip(ARRAY_NAMES, _NAMES_UTF8)):
        start = take(_U16.unpack_from(data, take(2))[0])
        if data[start:offset] != want_utf8:  # a name is decoded only to report it
            try:
                name = str(data[start:offset], "utf-8")
            except UnicodeDecodeError:
                raise ModelFormatError("array name is not valid UTF-8") from None
            raise ModelFormatError(f"array {position} is {name!r}, expected {want!r}")
        code, rank = _U8_PAIR.unpack_from(data, take(2))
        if code not in _DTYPE_NP:
            raise ModelFormatError(f"unknown dtype code {code}")
        shape = _DIMS[rank].unpack_from(data, take(8 * rank))
        size = math.prod(shape)  # Python ints: no overflow
        start = take(size * _DTYPE_NP[code].itemsize)
        try:
            arrays.append(np.frombuffer(data, _DTYPE_NP[code], size, start).reshape(shape))
        except ValueError:  # only a zero-size array gets here: its other dims are too large for numpy
            raise ModelFormatError(f"array {want} shape {shape} is too large") from None
    if offset != len(data):
        raise ModelFormatError("trailing bytes after last array")

    if arrays[-1].ndim != 2:
        raise ModelFormatError(f"V has rank {arrays[-1].ndim}, expected 2")
    vocab, hidden = arrays[-1].shape
    for name, size in (("hidden", hidden), ("vocab", vocab)):
        if size < 1:
            raise ModelFormatError(f"{name} must be >= 1, got {size}")
    for name, arr, (want, _, _) in zip(ARRAY_NAMES, arrays, param_layout(hidden, vocab, vocab).blocks):
        if arr.shape != want:
            raise ModelFormatError(f"array {name} shape {arr.shape} != {want}")
    flat = np.concatenate(arrays, axis=None, dtype=np.float64)
    if not _all_finite(flat):  # the per-view loop runs only to name the first bad array
        for name, arr in zip(ARRAY_NAMES, arrays):
            if not np.isfinite(arr).all():
                raise ModelFormatError(f"non-finite values in array {name}")
    return LstmStackParams(flat, hidden, vocab)

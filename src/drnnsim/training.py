"""Training of the LSTM language model: cross-entropy loss, exact BPTT
gradients, plain SGD, perplexity tracking, sentence scoring, and binary
model persistence."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import TrainingPair, end_token_id, start_token_id
from .lm import (
    GATE_PARAM_FIELDS,
    N_LAYERS,
    LayerTrace,
    LstmLayerParams,
    LstmStackParams,
    hard_sigmoid_deriv,
    stack_forward,
    stack_forward_trace,
    zero_params,
)

# Probability floor inside the loss so a zero-probability target cannot
# produce an infinite loss.
LOSS_EPS = 1e-12


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite losses or gradients."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ModelFormatError(ValueError):
    """Raised when a model file is corrupt or has an unknown layout."""


# ---------------------------------------------------------------------------
# Loss, perplexity, scoring
# ---------------------------------------------------------------------------

def cross_entropy(prediction: np.ndarray, target: int) -> float:
    """Negative log probability of the target token, in nats.

    The predicted probability is floored at LOSS_EPS, which keeps the loss
    finite and non-negative (a perfect prediction scores exactly 0).
    """
    prediction = np.asarray(prediction)
    if not 0 <= target < prediction.shape[0]:
        raise ValueError(f"target id {target} out of range [0, {prediction.shape[0]})")
    return -math.log(max(float(prediction[target]), LOSS_EPS))


def sequence_loss(outputs, labels) -> float:
    """Sum of per-step cross-entropies over a sequence, in nats."""
    labels = list(labels)
    if len(outputs) != len(labels):
        raise ValueError(f"{len(outputs)} outputs vs {len(labels)} labels")
    return sum(cross_entropy(o, y) for o, y in zip(outputs, labels))


def perplexity(total_loss: float, token_count: int) -> float:
    """exp of the mean per-token loss."""
    if token_count < 1:
        raise ValueError("token_count must be >= 1")
    return math.exp(total_loss / token_count)


def score_sentence(params: LstmStackParams, sentence) -> float:
    """Chain-rule log probability of a sentence, in nats (always <= 0).

    Token t is predicted from the start marker plus the sentence prefix, so
    a sentence of T tokens contributes exactly T conditional factors. The
    value equals minus the sequence loss of that prediction problem.
    """
    ids = [int(i) for i in sentence]
    if not ids:
        raise ValueError("sentence is empty")
    inputs = [start_token_id(params.vocab)] + ids[:-1]
    outputs, _ = stack_forward(params, inputs)
    return -sequence_loss(outputs, ids)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

@dataclass
class Gradients:
    """Loss gradients, one array per parameter array.

    Every array has its parameter's shape except layer 0's input gradient,
    which is column-sparse: ``layers[0].U`` is 4H x k and its column j is
    the gradient of ``params.layers[0].U[:, input_ids[j]]``. ``input_ids``
    holds the k distinct input tokens of the sentence, sorted; every other
    column of the dense gradient is zero.
    """

    layers: list[LstmLayerParams]
    V: np.ndarray
    input_ids: np.ndarray


def zero_gradients(params: LstmStackParams) -> Gradients:
    """All-zero gradients; layer 0's input gradient has no columns."""
    zeros = zero_params(params.hidden, 0)  # vocabulary 0: layer 0's U is 4H x 0
    return Gradients(layers=zeros.layers, V=np.zeros_like(params.V), input_ids=np.zeros(0, dtype=np.intp))


def named_arrays(obj: LstmStackParams | Gradients) -> dict[str, np.ndarray]:
    """Flat name -> array view of a parameter or gradient container."""
    arrays: dict[str, np.ndarray] = {}
    for l, layer in enumerate(obj.layers):
        for name in GATE_PARAM_FIELDS:
            arrays[f"layer{l}.{name}"] = getattr(layer, name)
    arrays["V"] = obj.V
    return arrays


def _layer_backward(layer: LstmLayerParams, tr: LayerTrace, dh_in: np.ndarray) -> np.ndarray:
    """Pre-activation gradients dZ (T x 4H) of one layer, given dLoss/dh per step.

    Only the dh/dc recurrence runs step by step; everything it reads is
    computed for all steps at once.
    """
    hidden = layer.hidden
    f, i, o, g = np.split(tr.act, 4, axis=1)
    tanh_c = np.tanh(tr.c[1:])
    slope = np.concatenate((hard_sigmoid_deriv(tr.z[:, :3 * hidden]), 1.0 - g**2), axis=1)
    # dZ[t] = [dc, dc, dh, dc] * dz_dstate[t], block by block in gate order.
    dz_dstate = np.concatenate((tr.c[:-1], g, tanh_c, i), axis=1) * slope
    dc_dh = o * (1.0 - tanh_c**2)

    dZ = np.empty_like(tr.z)
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in reversed(range(len(dZ))):
        dh = dh_next + dh_in[t]
        dc = dc_next + dh * dc_dh[t]
        dZ[t] = np.concatenate((dc, dc, dh, dc)) * dz_dstate[t]
        dc_next = dc * f[t]
        dh_next = layer.W.T @ dZ[t]
    return dZ


def bptt_gradients(params: LstmStackParams, pair: TrainingPair):
    """Exact loss gradients by backpropagation through time.

    Runs the stack forward over ``pair.input``, then walks the layers from
    the top down, each one backwards through time. Every weight gradient is
    one product of arrays stacked over the sequence. Returns (loss,
    Gradients).
    """
    if len(pair.input) != len(pair.label):
        raise ValueError("input and label lengths differ")
    outputs, traces = stack_forward_trace(params, pair.input)
    loss = sequence_loss(outputs, pair.label)

    # Softmax + cross-entropy collapse to (p - onehot) at the logits.
    dz_out = np.array(outputs)
    dz_out[np.arange(len(pair.label)), pair.label] -= 1.0
    grad_V = dz_out.T @ traces[-1].h[1:]
    dh_in = dz_out @ params.V

    grad_layers = []
    for l in reversed(range(len(params.layers))):
        layer, tr = params.layers[l], traces[l]
        dZ = _layer_backward(layer, tr, dh_in)
        if l == 0:
            # One-hot input: only the tokens' columns receive gradient. Each
            # column sums its dZ rows in sentence order, starting from 0.0.
            input_ids, column = np.unique(pair.input, return_inverse=True)
            grad_U = np.zeros((len(input_ids), dZ.shape[1]))
            np.add.at(grad_U, column, dZ)
            grad_U = grad_U.T
        else:
            grad_U = dZ.T @ traces[l - 1].h[1:]
            dh_in = dZ @ layer.U
        grad_layers.append(LstmLayerParams(dZ.T @ tr.h[:-1], grad_U, dZ.sum(axis=0)))
    return loss, Gradients(layers=grad_layers[::-1], V=grad_V, input_ids=input_ids)


def _fused_arrays(obj: LstmStackParams | Gradients) -> list[np.ndarray]:
    """The fused arrays W, U, b of each layer, then V."""
    return [arr for layer in obj.layers for arr in (layer.W, layer.U, layer.b)] + [obj.V]


def sgd_step(params: LstmStackParams, grads: Gradients, learning_rate: float) -> LstmStackParams:
    """In-place SGD update of every parameter array.

    All gradients are checked before anything is touched, so a divergence
    error leaves the parameters unmodified. Layer 0's input gradient only
    reaches the columns named by ``grads.input_ids``; the columns it skips
    would have been updated by zero, which leaves a finite value unchanged.
    """
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    grad_arrays = _fused_arrays(grads)
    for g in grad_arrays:
        if not np.all(np.isfinite(g)):
            raise DivergenceError("diverged: non-finite gradient")
    for p, g in zip(_fused_arrays(params), grad_arrays):
        if p is params.layers[0].U:
            p[:, grads.input_ids] -= learning_rate * g
        else:
            p -= learning_rate * g
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")


@dataclass(frozen=True)
class TrainRecord:
    epoch: int
    step: int
    mean_loss: float  # nats per token
    perplexity: float
    kind: str  # "epoch" or "interval"


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

    def interval_records(self) -> list[TrainRecord]:
        return [r for r in self.records if r.kind == "interval"]

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
                raise DivergenceError(f"diverged: non-finite loss at step {step + 1}", step=step + 1)
            try:
                sgd_step(params, grads, config.learning_rate)
            except DivergenceError as err:
                raise DivergenceError(f"{err} at step {step + 1}", step=step + 1) from None
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
#   magic "DRNN" | version u32 | array count u32
#   per array: name length u16 | name utf-8 | dtype code u8 (0=f64, 1=f32)
#              | rank u8 | dims u64 each | raw row-major data
# ---------------------------------------------------------------------------

MODEL_MAGIC = b"DRNN"
MODEL_VERSION = 1
_DTYPE_CODE = {"f64": 0, "f32": 1}
_DTYPE_NP = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def save_model(params: LstmStackParams, path, dtype: str = "f64") -> None:
    """Write all parameter arrays to the uncompressed named-array container."""
    if dtype not in _DTYPE_CODE:
        raise ValueError(f"dtype must be one of {sorted(_DTYPE_CODE)}")
    code = _DTYPE_CODE[dtype]
    np_dtype = _DTYPE_NP[code]
    arrays = named_arrays(params)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(arrays)))
        for name, arr in arrays.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BB", code, arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(arr, dtype=np_dtype).tobytes())


def load_model(path) -> LstmStackParams:
    """Read a model container back into float64 parameters.

    Every malformed file raises ModelFormatError. The headers are read and
    checked against the topology named by V's shape before anything is
    allocated; each array is then decoded straight into its gate block.
    """
    data = Path(path).read_bytes()
    offset = 0

    def take(n: int) -> bytes:
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

    index: dict[str, tuple[np.dtype, tuple[int, ...], int]] = {}  # name -> dtype, shape, data offset
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError("array name is not valid UTF-8") from None
        code, rank = struct.unpack("<BB", take(2))
        if code not in _DTYPE_NP:
            raise ModelFormatError(f"unknown dtype code {code}")
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(rank))
        np_dtype = _DTYPE_NP[code]
        index[name] = (np_dtype, shape, offset)
        take(math.prod(shape) * np_dtype.itemsize)  # Python ints: no overflow
    if offset != len(data):
        raise ModelFormatError("trailing bytes after last array")

    if "V" not in index:
        raise ModelFormatError("missing output projection array V")
    if len(index["V"][1]) != 2:
        raise ModelFormatError(f"V has rank {len(index['V'][1])}, expected 2")
    vocab, hidden = index["V"][1]
    expected = {"V": (vocab, hidden)}
    for l in range(N_LAYERS):
        shapes = {"W": (hidden, hidden), "U": (hidden, vocab if l == 0 else hidden), "b": (hidden,)}
        expected.update({f"layer{l}.{name}": shapes[name[0]] for name in GATE_PARAM_FIELDS})
    for name, want in expected.items():
        if name not in index:
            raise ModelFormatError(f"missing array {name}")
        if index[name][1] != want:
            raise ModelFormatError(f"array {name} shape {index[name][1]} != {want}")
    if index.keys() != expected.keys():
        raise ModelFormatError(f"unexpected arrays: {sorted(index.keys() - expected.keys())}")

    params = zero_params(hidden, vocab)
    for name, dest in named_arrays(params).items():
        np_dtype, shape, start = index[name]
        dest[...] = np.frombuffer(data, dtype=np_dtype, count=dest.size, offset=start).reshape(shape)
        if not np.all(np.isfinite(dest)):
            raise ModelFormatError(f"non-finite values in array {name}")
    return params

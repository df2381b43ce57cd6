"""Floating-point LSTM language model, forward and backward.

Holds the parameter containers, the LSTM cell (hard-sigmoid gates, tanh
candidate), the 3-layer stack with a softmax output projection, and each
layer's exact backward through time, which ``training`` chains into BPTT.
The BPTT trace keeps each step's h, c and gate values; every gate's slope
is read from its value, so no pre-activation is stored.
Everything here is pure float64 and side-effect free; the fixed-point path lives in ``accel``.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

N_LAYERS = 3
DEFAULT_HIDDEN = 50
DEFAULT_VOCAB = 4000

# The hard sigmoid clamp(0.2 x + 0.5, 0, 1) has slope 0.2 where the
# value lies strictly inside (0, 1) and 0 where it is clamped. The constants
# are 0-d arrays: numpy converts a Python float operand on every call, which
# costs about a third of a ufunc call on a cell's 3H gate entries.
_HS_SLOPE, _HALF, _ZERO, _ONE = (np.array(v) for v in (0.2, 0.5, 0.0, 1.0))


def _hard_sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """z <- clamp(0.2 z + 0.5, 0, 1) in place, without ``np.clip``'s wrapper; returns z."""
    z *= _HS_SLOPE
    z += _HALF
    np.maximum(z, _ZERO, out=z)
    return np.minimum(z, _ONE, out=z)


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max subtraction before exponentiation)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    e /= e.sum()  # in place on exp's array; a 0-d input's scalar is rebound
    return e


GATES = ("f", "i", "o", "g")


def _rebuild(self):
    """``__reduce__`` of a frozen dataclass: a copy or pickle holds only its fields and reruns the constructor."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class LstmLayerParams:
    """One LSTM layer as three fused arrays, row blocks in gate order f, i, o, g.

    ``W`` is 4H x H (recurrent), ``U`` is 4H x I (input), ``b`` has 4H
    entries; ``hidden`` (H) and ``input_dim`` (I) are set at construction.
    The layer is frozen, so no array can be rebound away from a stack's
    ``flat``. The per-gate names ``Wf`` ... ``bg`` are read-only attributes
    whose values are views of the blocks: in-place writes through them
    (``layer.bf[...] += 1``) reach the fused storage, and they stay aliased
    after ``copy.deepcopy`` because they are derived on access.
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name, value in (("W", self.W), ("U", self.U), ("b", self.b)):  # checked, not cast: views of flat stay
            if not isinstance(value, np.ndarray):
                raise ValueError(f"{name} must be a numpy array, not {type(value).__name__}")
            _check_array(value, name, "biuf")
        hidden = self.b.size // 4
        rows = 4 * hidden
        if self.b.shape != (rows,) or self.W.shape != (rows, hidden) or self.U.ndim != 2 or len(self.U) != rows:
            raise ValueError(
                f"shapes W {self.W.shape}, U {self.U.shape}, b {self.b.shape} are not (4H, H), (4H, I), (4H,)"
            )
        vars(self).update(hidden=hidden, input_dim=self.U.shape[1])  # set once, past the frozen __setattr__

    __reduce__ = _rebuild


def _gate_block(fused: str, k: int) -> property:
    """Row block ``k`` of the fused array ``fused``, as a view."""

    def view(layer: LstmLayerParams) -> np.ndarray:
        arr = getattr(layer, fused)
        rows = len(arr) // 4
        return arr[k * rows:(k + 1) * rows]

    return property(view)


# Per-gate names in container order: recurrent weights, input weights, biases.
GATE_PARAM_FIELDS = tuple(fused + gate for fused in "WUb" for gate in GATES)
for _name in GATE_PARAM_FIELDS:
    setattr(LstmLayerParams, _name, _gate_block(_name[0], GATES.index(_name[1])))


def stack_shapes(hidden: int, vocab: int) -> list[tuple[int, ...]]:
    """The parameter layout's shapes, a fresh list: fused W, U, b per layer, then V (``param_layout`` adds offsets)."""
    rows, inputs = 4 * hidden, [vocab] + [hidden] * (N_LAYERS - 1)  # each layer's 4H gate rows and input width
    return [shape for n_in in inputs for shape in ((rows, hidden), (rows, n_in), (rows,))] + [(vocab, hidden)]


class ParamLayout(NamedTuple):
    """Where each array of a parameter buffer lies, as ``(shape, start, stop)`` triples of Python ints."""

    arrays: tuple  # the ``stack_shapes`` arrays: fused W, U, b per layer, then V
    blocks: tuple  # the model file's arrays: each fused array's four gate blocks (consecutive rows), then V
    size: int


def _table(shapes) -> tuple:  # ((shape, start, stop), ...) of consecutive arrays from offset 0
    bounds = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    return tuple(zip(shapes, bounds, bounds[1:]))


def param_layout(hidden: int, vocab: int, u0_cols: int) -> ParamLayout:
    """The one layout table, computed once per shape, of a buffer whose layer-0 U is ``u0_cols`` wide."""
    return _layout(_check_int(hidden, "hidden", 1), _check_int(vocab, "vocab", 1), _check_int(u0_cols, "u0_cols", 1))


# Bounded: a long-lived process may load files of many shapes, and each gradient's k is a shape of its own.
@functools.lru_cache(maxsize=64)
def _layout(hidden: int, vocab: int, u0_cols: int) -> ParamLayout:
    shapes = stack_shapes(hidden, vocab)
    shapes[1] = (4 * hidden, u0_cols)
    blocks = [(rows // 4, *cols) for rows, *cols in shapes[:-1] for _ in GATES] + shapes[-1:]
    return ParamLayout(_table(shapes), _table(blocks), sum(map(math.prod, shapes)))


def stack_views(buffer: np.ndarray, hidden: int, vocab: int, u0_cols: int):
    """The ``(layers, V)`` views of a 1-D ``buffer`` cut by ``param_layout(hidden, vocab, u0_cols)``."""
    arrays = [buffer[start:stop].reshape(shape) for shape, start, stop in param_layout(hidden, vocab, u0_cols).arrays]
    return tuple(LstmLayerParams(*arrays[k:k + 3]) for k in range(0, 3 * N_LAYERS, 3)), arrays[-1]


@dataclass(frozen=True)
class LstmStackParams:
    """Three LSTM layers and the output projection V (vocab x hidden), all views of one float64 buffer.

    ``flat`` holds them in ``stack_shapes`` order; ``copy.deepcopy`` copies it and builds the views again.
    """

    flat: np.ndarray
    hidden: int
    vocab: int

    def __post_init__(self):
        _check_int_fields(self, 1, "hidden", "vocab")
        size, flat = param_layout(self.hidden, self.vocab, self.vocab).size, self.flat
        if not isinstance(flat, np.ndarray) or flat.dtype != np.float64 or flat.shape != (size,):
            got = f"{flat.dtype} {flat.shape}" if isinstance(flat, np.ndarray) else type(flat).__name__
            raise ValueError(f"flat must be float64 of shape ({size},), got {got}")
        layers, V = stack_views(flat, self.hidden, self.vocab, self.vocab)
        vars(self).update(layers=layers, V=V)  # set once, past the frozen __setattr__

    __reduce__ = _rebuild


@dataclass
class LstmState:
    """Per-layer hidden and cell rows: ``h`` and ``c`` are float64 arrays of shape (N_LAYERS, H).

    Row l is layer l's vector, as row t of a ``LayerTrace`` is step t's.
    """

    h: np.ndarray
    c: np.ndarray


def zero_state(params: LstmStackParams) -> LstmState:
    return LstmState(np.zeros((N_LAYERS, params.hidden)), np.zeros((N_LAYERS, params.hidden)))


def _cell(layer: LstmLayerParams, x_term, h_prev, c_prev, out) -> None:
    """The LSTM cell over the fused gate blocks, on the input term ``x_term`` = U x, written into ``out``.

    The caller decides the input term (column ``U[:, x]`` for a token id,
    ``U @ x`` for a vector) and owns the rows ``out`` = (h, c, act) that
    the cell writes. ``act`` holds the 4H gate values in order f, i, o, g:
    hard-sigmoid of z = W h + U x + b on the first 3H entries, tanh on the
    candidate g. Forget and input gates scale the cell update, the output
    gate scales tanh(c). Biases sit inside the nonlinearities.
    """
    hidden = layer.hidden
    h, c, act = out
    np.dot(layer.W, h_prev, out=act)
    act += x_term
    act += layer.b
    _hard_sigmoid_inplace(act[:3 * hidden])
    f, i, o, g = act.reshape(4, hidden)
    np.tanh(g, out=g)
    np.multiply(i, g, out=h)  # h holds i * g until tanh(c) overwrites it
    np.multiply(f, c_prev, out=c)
    c += h
    np.tanh(c, out=h)
    h *= o


def lstm_cell_forward(layer: LstmLayerParams, x, h_prev: np.ndarray, c_prev: np.ndarray):
    """One cell step on a token id or real (I,) vector ``x`` from real (H,) ``h_prev``, ``c_prev``; fresh (h, c)."""
    if np.ndim(x) == 0:
        _check_token_id(x, layer.input_dim)
        x_term = layer.U[:, x]  # a one-hot input reduces U @ x to a column pick
    else:
        x_term = layer.U @ _check_array(x, "x", "biuf", (layer.input_dim,)).astype(np.float64, copy=False)
    h_prev = _check_array(h_prev, "h_prev", "biuf", (layer.hidden,)).astype(np.float64, copy=False)
    c_prev = _check_array(c_prev, "c_prev", "biuf", (layer.hidden,)).astype(np.float64, copy=False)
    h, c, act = np.empty(layer.hidden), np.empty(layer.hidden), np.empty(4 * layer.hidden)
    _cell(layer, x_term, h_prev, c_prev, (h, c, act))
    return h, c


@dataclass
class LayerTrace:
    """One layer's forward values over a sequence, stacked over time.

    ``h`` and ``c`` have T+1 rows: the zero state before the first step,
    then the state after each step. Row t of ``act`` holds step t's gate
    values (order f, i, o, g), which also give each gate's slope.
    """

    h: np.ndarray
    c: np.ndarray
    act: np.ndarray


def _layer_forward(layer: LstmLayerParams, inputs) -> LayerTrace:
    """One layer over the sequence from the zero state, each cell writing into its trace rows.

    ``inputs`` are token ids (layer 0) or the h rows of the layer below.
    """
    steps, hidden = len(inputs), layer.hidden
    tr = LayerTrace(np.zeros((steps + 1, hidden)), np.zeros((steps + 1, hidden)), np.empty((steps, 4 * hidden)))
    U, x_term = layer.U, np.empty(4 * hidden)
    ids = np.ndim(inputs) == 1  # layer 0 reads token ids, a layer above reads the 2-D h rows below
    for x, h_prev, c_prev, h, c, act in zip(inputs, tr.h, tr.c, tr.h[1:], tr.c[1:], tr.act):
        _cell(layer, U[:, x] if ids else np.dot(U, x, out=x_term), h_prev, c_prev, (h, c, act))
    return tr


def _layer_backward(layer: LstmLayerParams, tr: LayerTrace, dh_in: np.ndarray) -> np.ndarray:
    """Pre-activation gradients dZ (T x 4H) of a ``_layer_forward`` trace, given dLoss/dh per step.

    Each gate's slope comes from its value: 0.2 strictly inside (0, 1) for
    a hard-sigmoid gate, else 0, and 1 - g**2 for the candidate. Only the
    dh/dc recurrence runs step by step, into buffers it reuses.
    """
    steps, hidden = len(tr.act), layer.hidden
    f, i, o, g = (tr.act[:, k * hidden:(k + 1) * hidden] for k in range(4))
    tanh_c = np.tanh(tr.c[1:])
    sig = tr.act[:, :3 * hidden]
    slope = np.empty_like(tr.act)
    np.multiply((_ZERO < sig) & (sig < _ONE), _HS_SLOPE, out=slope[:, :3 * hidden])
    np.subtract(_ONE, g**2, out=slope[:, 3 * hidden:])
    # dZ[t] = [dc, dc, dh, dc] * dz_dstate[t], block by block in gate order.
    dz_dstate = np.concatenate((tr.c[:-1], g, tanh_c, i), axis=1) * slope
    dc_dh = o * (_ONE - tanh_c**2)

    dZ = np.empty_like(tr.act)
    WT = layer.W.T
    dh, dc, dh_dc = np.zeros(hidden), np.zeros(hidden), np.empty(hidden)
    rows = (dh_in, dc_dh, dz_dstate.reshape(steps, 4, hidden), dZ, dZ.reshape(steps, 4, hidden), f)
    # Backwards in time: dh = dh_next + dh_in[t], dc = dc_next + dh * dc_dh[t],
    # then dc_next = dc * f[t] and dh_next = W.T @ dZ[t].
    for dh_in_t, dc_dh_t, dz_dstate_t, dZ_t, dZ_blocks_t, f_t in zip(*(a[::-1] for a in rows)):
        dh += dh_in_t
        np.multiply(dh, dc_dh_t, out=dh_dc)
        dc += dh_dc
        np.multiply(dz_dstate_t, dc, out=dZ_blocks_t)
        np.multiply(dz_dstate_t[2], dh, out=dZ_blocks_t[2])
        dc *= f_t
        np.dot(WT, dZ_t, out=dh)
    return dZ


def stack_forward_trace(params: LstmStackParams, input_ids):
    """Run the 3-layer stack over a token sequence from the zero state, keeping what BPTT needs.

    Layer-major: each layer runs over the whole sequence before the next
    one starts, the mirror of the backward pass. Returns (outputs, traces):
    the softmax output per step and one LayerTrace per layer.
    """
    ids = list(input_ids)
    if not ids:
        raise ValueError("input sequence is empty")
    for x in ids:
        _check_token_id(x, params.vocab)
    traces: list[LayerTrace] = []
    for layer in params.layers:
        traces.append(_layer_forward(layer, traces[-1].h[1:] if traces else ids))
    outputs = [softmax(np.dot(params.V, h)) for h in traces[-1].h[1:]]  # np.dot: bitwise V @ h, less overhead
    return outputs, traces


def stack_forward(params: LstmStackParams, input_ids):
    """Forward from the zero state; returns (outputs, state after the last token), which ``stack_step`` continues."""
    outputs, traces = stack_forward_trace(params, input_ids)
    return outputs, LstmState(np.array([tr.h[-1] for tr in traces]), np.array([tr.c[-1] for tr in traces]))


def stack_step(params: LstmStackParams, x_id: int, state: LstmState):
    """Advance the stack by one token; returns (output distribution, new state), ``state`` untouched.

    ``state`` must be an ``LstmState`` whose ``h`` and ``c`` pass
    ``_check_array`` as real (N_LAYERS, H) arrays, else ValueError; they are read as float64.
    """
    _check_token_id(x_id, params.vocab)
    if not isinstance(state, LstmState):
        raise ValueError(f"state must be an LstmState, not {type(state).__name__}")
    # One read as float64 for every accepted dtype (an extended float included); a float64 state is not copied.
    want = (N_LAYERS, params.hidden)
    h_rows = _check_array(state.h, "state.h", "biuf", want).astype(np.float64, copy=False)
    c_rows = _check_array(state.c, "state.c", "biuf", want).astype(np.float64, copy=False)
    new, act, x_term = zero_state(params), np.empty(4 * params.hidden), np.empty(4 * params.hidden)
    x = x_id
    for l, (layer, h_prev, c_prev, h, c) in enumerate(zip(params.layers, h_rows, c_rows, new.h, new.c)):
        _cell(layer, layer.U[:, x] if l == 0 else np.dot(layer.U, x, out=x_term), h_prev, c_prev, (h, c, act))
        x = h
    return softmax(np.dot(params.V, x)), new


def init_params(hidden: int = DEFAULT_HIDDEN, vocab: int = DEFAULT_VOCAB, seed: int = 0) -> LstmStackParams:
    """Seeded initialization: each matrix uniform in +-1/sqrt(fan_in), biases zero."""
    hidden, vocab, seed = _check_int(hidden, "hidden", 1), _check_int(vocab, "vocab", 1), _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    # not np.zeros: calloc on reused memory zeroes it all
    params = LstmStackParams(np.empty(param_layout(hidden, vocab, vocab).size), hidden, vocab)
    # Each weight matrix is one draw, in layout order (a fused array's gate blocks f, i, o, g in turn):
    # rng.uniform(-bound, bound) bit for bit, drawn into the buffer without a temporary.
    for arr in [arr for layer in params.layers for arr in (layer.W, layer.U, layer.b)] + [params.V]:
        if arr.ndim == 1:  # a bias
            arr.fill(0.0)
        else:
            bound = 1.0 / math.sqrt(arr.shape[1])
            rng.random(out=arr)
            arr *= 2 * bound
            arr -= bound
    return params


def _is_int(value) -> bool:
    """The one integer rule: an ``int`` (not a bool) or numpy integer, never coerced."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(value, name: str, least) -> int:
    """The one rule for a size, a count or a seed: ``_is_int`` and >= ``least``, else ValueError naming it."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


_KIND_NAMES = {"biuf": "bool, int or float", "biu": "bool or int"}


def _check_array(value, name: str, kinds: str, shape=None) -> np.ndarray:
    """The one array rule: ``np.asarray(value)``, its dtype kind in ``kinds`` (real "biuf" or integer "biu")
    and its shape exactly ``shape`` if one is given, else ValueError naming it; returns the array, not cast."""
    arr = np.asarray(value)
    if arr.dtype.kind not in kinds:
        raise ValueError(f"{name} has dtype {arr.dtype}, expected {_KIND_NAMES[kinds]}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _check_int_fields(obj, least: int, *names: str) -> None:
    """``_check_int`` on each named field of a frozen dataclass, stored back as a Python ``int``: sizes cannot wrap."""
    for name in names:
        object.__setattr__(obj, name, _check_int(getattr(obj, name), name, least))


def _check_positive_real(value, name: str) -> None:
    """The one rule for a rate or a clock: a real number (not a bool), finite and > 0, else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_token_id(x_id, vocab: int, what: str = "token") -> None:
    """The one token-id rule: an integer (``_is_int``) in [0, vocab), never coerced."""
    if not _is_int(x_id):
        raise ValueError(f"{what} id {x_id!r} is not an integer")
    if not 0 <= x_id < vocab:
        raise ValueError(f"{what} id {x_id} out of range [0, {vocab})")

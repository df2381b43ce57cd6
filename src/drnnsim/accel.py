"""Cycle-level model of the streaming fixed-point matrix-multiply accelerator.

The core is a MAC array of ``num_pes`` processing elements with
``lanes_per_pe`` multiplier lanes each; every lane owns one weight row and
consumes one operand pair per cycle, so a batch (one matrix-vector product
over ``chunk_len`` operands) takes ``chunk_len`` cycles. Operands are
16-bit signed fixed point; accumulators are modeled as exact wide integers
(hardware width >= 40 bits, never overflowed at these shapes). Data enters
and leaves as stream frames: 1-D arrays of ``PACKET`` records, one 32-bit
word plus its last flag per transfer, the flag set on the final packet only,
mirroring an AXI4-Stream burst. Words are packed and unpacked by
reinterpreting little-endian dtypes, so frames do not depend on the host's
byte order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lm import _check_array, _check_int_fields, _check_positive_real, _rebuild

# ---------------------------------------------------------------------------
# Q(m,n) fixed-point formats
# ---------------------------------------------------------------------------

_OPERAND_BITS = 16
_INT16_MIN = -(1 << (_OPERAND_BITS - 1))
_INT16_MAX = (1 << (_OPERAND_BITS - 1)) - 1


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed Q(m,n) format: m integer bits, n fractional bits, value = raw / 2^n for ``scale`` = 2^n."""

    int_bits: int
    frac_bits: int

    def __post_init__(self):
        _check_int_fields(self, 0, "int_bits", "frac_bits")
        bits = self.int_bits + self.frac_bits
        if not 1 <= bits <= _OPERAND_BITS:
            raise ValueError(f"int_bits + frac_bits must be in [1, {_OPERAND_BITS}]")
        scale = 1 << self.frac_bits
        # Derived values, set once in the instance __dict__, past the frozen __setattr__: fields, equality, hash
        # and repr are untouched. _scale_f64 is a 0-d array: numpy converts a Python int operand on every call
        # (the lm._HS_SLOPE idiom). The range is the nominal Q(m,n) one, capped to the 16-bit operand width.
        vars(self).update(scale=scale, _scale_f64=np.array(float(scale)),
                          raw_min=max(-(1 << bits), _INT16_MIN), raw_max=min((1 << bits) - 1, _INT16_MAX))

    __reduce__ = _rebuild

    @classmethod
    def parse(cls, text: str) -> "FixedPointFormat":
        """Parse "m.n" (e.g. "8.8") into a format; anything else is a ValueError."""
        parts = text.split(".") if isinstance(text, str) else ()
        try:
            m, n = parts
            return cls(int(m), int(n))
        except ValueError as err:
            raise ValueError(f"bad fixed-point format {text!r}, expected 'm.n'") from err

    def __str__(self) -> str:
        return f"Q{self.int_bits}.{self.frac_bits}"


@dataclass
class FixedPointTensor:
    """Integer raw values on a fixed-point grid: value = raw / fmt.scale for the ``fmt`` of ``from_real``."""

    raw: np.ndarray

    @classmethod
    def from_real(cls, values, fmt: FixedPointFormat) -> "FixedPointTensor":
        if not isinstance(fmt, FixedPointFormat):
            raise ValueError(f"fmt must be a FixedPointFormat, not {type(fmt).__name__}")
        values = _check_array(values, "values", "biuf")
        raw = np.rint(np.multiply(values, fmt._scale_f64, dtype=np.float64))
        # Clip only when something is out of range. A NaN fails both comparisons, so it
        # gets here too; an empty array has no min or max, and clipping it is free.
        if not (raw.size and fmt.raw_min <= np.minimum.reduce(raw, None)
                and np.maximum.reduce(raw, None) <= fmt.raw_max):
            raw = np.clip(raw, fmt.raw_min, fmt.raw_max)
            if np.isnan(raw).any():  # NaN passes through rint and clip
                raise ValueError("cannot quantize NaN")
        return cls(raw=raw.astype(np.int64))


def matvec_error_bound(w_max: float, x_max: float, chunk_len: int, fmt: FixedPointFormat) -> float:
    """Worst-case |fixed - float| for one matvec output element.

    Each operand is off by at most delta = 2^-(n+1) after rounding, so each
    of the chunk_len product terms is off by at most
    x_max*delta + w_max*delta + delta^2.
    """
    delta = 2.0 ** -(fmt.frac_bits + 1)
    return chunk_len * (x_max * delta + w_max * delta + delta * delta)


# ---------------------------------------------------------------------------
# Stream protocol: one 32-bit word per packet, last flag ends the frame
# ---------------------------------------------------------------------------

# One record per packet. A frame is a plain ndarray of this dtype; the np.record
# type makes each element read as a packet (frame[-1].last) without a recarray.
PACKET = np.dtype((np.record, [("payload", "<i8"), ("last", "?")]))


class FramingError(RuntimeError):
    """Raised when a packet frame violates the last-flag protocol."""


def to_stream(values) -> np.ndarray:
    """Serialize integer operands into a ``PACKET`` frame, last flag on the final packet."""
    values = np.asarray(values)
    if not values.size:
        raise ValueError("cannot stream an empty batch")
    _check_array(values, "values", "biu")
    frame = np.zeros(values.size, dtype=PACKET)
    frame["payload"] = values.ravel().astype("<u4", copy=False)  # the integer cast keeps the low 32 bits
    frame["last"][-1] = True
    return frame


def _read_frame(frame: np.ndarray) -> np.ndarray:
    """Payload words of one frame, which must end with its only last flag: each payload's low 32 bits as ``<u4``."""
    if not (isinstance(frame, np.ndarray) and frame.dtype == PACKET and frame.ndim == 1):
        got = f"{frame.ndim}-D {frame.dtype}" if isinstance(frame, np.ndarray) else type(frame).__name__
        raise FramingError(f"malformed packet: a frame is a 1-D PACKET array, not a {got}")
    last = frame["last"]
    if np.count_nonzero(last) != 1 or not last[-1]:  # an empty frame has no flag, so it lands here too
        if last[:-1].any():
            raise FramingError("packet after last flag")
        raise FramingError("missing last flag at end of frame")
    return frame["payload"].astype("<u4")


def decode_output_stream(frame: np.ndarray) -> np.ndarray:
    """Reassemble accumulator values from an output frame (framing-checked)."""
    words = _read_frame(frame)
    if len(words) % 2 != 0:
        raise FramingError(f"odd output frame length {len(words)}")
    return words.view("<i8")  # each (low, high) word pair is one two's-complement accumulator


# ---------------------------------------------------------------------------
# MAC array core and timing model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchReport:
    mult_ops: int
    add_ops: int
    latency_cycles: int
    latency_ns: float
    gops: float  # (mult_ops + add_ops) / latency_ns


@dataclass(frozen=True)
class AcceleratorConfig:
    """MAC-array geometry and clock; its ``rows`` and the batch ``report`` are set once, at construction."""

    num_pes: int = 5
    lanes_per_pe: int = 10
    chunk_len: int = 50  # dot-product length per batch
    clock_mhz: float = 200.0

    def __post_init__(self):
        _check_int_fields(self, 1, "num_pes", "lanes_per_pe", "chunk_len")
        _check_positive_real(self.clock_mhz, "clock_mhz")
        rows = self.num_pes * self.lanes_per_pe  # output rows per batch, one per multiplier lane
        ops = rows * self.chunk_len
        # One batch takes chunk_len cycles whatever its operands; every config that constructs has a finite report.
        try:
            latency_ns = self.chunk_len * 1000.0 / self.clock_mhz
            report = BatchReport(ops, ops, self.chunk_len, latency_ns, 2 * ops / latency_ns)
        except OverflowError:  # an int too large to convert to a float
            raise ValueError("num_pes * lanes_per_pe * chunk_len is too large: "
                             "a batch's report overflows a float") from None
        if not math.isfinite(report.latency_ns):
            raise ValueError(f"clock_mhz {self.clock_mhz} is too small: a batch's latency in ns is not finite")
        if not math.isfinite(report.gops):
            raise ValueError(f"clock_mhz {self.clock_mhz} is too large: a batch's GOPS is not finite")
        vars(self).update(rows=rows, report=report)  # set once, as in FixedPointFormat

    __reduce__ = _rebuild


class MacArrayCore:
    """Weight-stationary MAC array computing y = W @ x in exact integer math.

    Weights stay resident across batches until reloaded. Row r belongs to
    PE r // lanes_per_pe; the assignment does not change any result, it
    only fixes the reporting convention.
    """

    def __init__(self, config: AcceleratorConfig | None = None):
        if config is None:
            config = AcceleratorConfig()
        elif not isinstance(config, AcceleratorConfig):
            raise ValueError(f"config must be an AcceleratorConfig or None, not {type(config).__name__}")
        self.config = config
        self._weights: np.ndarray | None = None

    def load_weights(self, weights) -> None:
        """Latch a rows x chunk_len matrix of 16-bit signed weights."""
        weights = _check_array(weights, "weights", "biu", (self.config.rows, self.config.chunk_len))
        _check_operand_range(weights, "weight")
        self._weights = weights.astype(np.int64)  # astype copies

    def run_batch(self, x) -> np.ndarray:
        """One batch: every lane accumulates one product per cycle.

        Returns the exact integer accumulator vector (int64, models the
        >=40-bit hardware accumulators). The cycle-by-cycle accumulation is
        computed as one integer product, which gives the same sums; timing
        comes from ``report``.
        """
        if self._weights is None:
            raise RuntimeError("weights not loaded")
        x = _check_array(x, "x", "biu", (self.config.chunk_len,))
        _check_operand_range(x, "input")
        return self._weights @ x.astype(np.int64, copy=False)

    def report(self) -> BatchReport:
        """Timing/operation report for one batch under the current config."""
        return self.config.report

    def stream_batch(self, frame: np.ndarray) -> np.ndarray:
        """Consume one input frame, run the batch, emit the output frame."""
        y = self.run_batch(self._consume_frame(frame))
        # Each accumulator travels as its low word then its high word; one last flag closes the frame.
        return to_stream(np.ascontiguousarray(y, dtype="<i8").view("<u4"))

    def _consume_frame(self, frame: np.ndarray) -> np.ndarray:
        chunk = self.config.chunk_len
        words = _read_frame(frame)
        if len(words) < chunk:
            raise FramingError(f"last flag after {len(words)} of {chunk} words")
        if len(words) > chunk:
            raise FramingError(f"frame exceeds {chunk} words")
        return words.view("<i4")  # reinterpreting each word as signed sign-extends it


def stream_roundtrip(core: MacArrayCore, x) -> np.ndarray:
    """Drive one batch through the stream interface end to end."""
    return decode_output_stream(core.stream_batch(to_stream(x)))


def matvec_fixed(core: MacArrayCore, w_real, x_real, fmt: FixedPointFormat) -> np.ndarray:
    """Quantize, run on the core, rescale to reals; returns y_real.

    The integer accumulators carry products of two 2^n-scaled operands, so
    the result is rescaled by 2^(-2n).
    """
    w_q = FixedPointTensor.from_real(w_real, fmt)
    x_q = FixedPointTensor.from_real(x_real, fmt)
    core.load_weights(w_q.raw)
    return core.run_batch(x_q.raw).astype(np.float64) / float(fmt.scale) ** 2


def _check_operand_range(values: np.ndarray, label: str) -> None:
    """The 16-bit signed range of an integer operand array that passed ``_check_array``."""
    if values.size and (
        np.minimum.reduce(values, None) < _INT16_MIN or np.maximum.reduce(values, None) > _INT16_MAX
    ):
        raise ValueError(f"{label} values exceed the 16-bit signed operand range")

"""Cycle-level model of the streaming fixed-point matrix-multiply accelerator.

The core is a MAC array of ``num_pes`` processing elements with
``lanes_per_pe`` multiplier lanes each; every lane owns one weight row and
consumes one operand pair per cycle, so a batch (one matrix-vector product
over ``chunk_len`` operands) takes ``chunk_len + pipeline_fill`` cycles.
Operands are 16-bit signed fixed point; accumulators are modeled as exact
wide integers (hardware width >= 40 bits, never overflowed at these
shapes). Data enters and leaves through a packetized word stream whose
final packet carries a last flag, mirroring a DMA burst transfer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

# ---------------------------------------------------------------------------
# Q(m,n) fixed-point formats
# ---------------------------------------------------------------------------

_OPERAND_BITS = 16
_INT16_MIN = -(1 << (_OPERAND_BITS - 1))
_INT16_MAX = (1 << (_OPERAND_BITS - 1)) - 1


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed Q(m,n) format: m integer bits, n fractional bits, value = raw / 2^n."""

    int_bits: int
    frac_bits: int

    def __post_init__(self):
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError("bit counts must be non-negative")
        if not 1 <= self.int_bits + self.frac_bits <= _OPERAND_BITS:
            raise ValueError(f"int_bits + frac_bits must be in [1, {_OPERAND_BITS}]")

    # Cached in the instance __dict__: fields, equality, hash and repr are untouched.
    @cached_property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @cached_property
    def raw_min(self) -> int:
        # Nominal Q(m,n) range, capped to the 16-bit signed operand width.
        return max(-(1 << (self.int_bits + self.frac_bits)), _INT16_MIN)

    @cached_property
    def raw_max(self) -> int:
        return min((1 << (self.int_bits + self.frac_bits)) - 1, _INT16_MAX)

    @classmethod
    def parse(cls, text: str) -> "FixedPointFormat":
        """Parse "m.n" (e.g. "8.8") into a format."""
        try:
            m, n = text.split(".")
            return cls(int(m), int(n))
        except ValueError as err:
            raise ValueError(f"bad fixed-point format {text!r}, expected 'm.n'") from err

    def __str__(self) -> str:
        return f"Q{self.int_bits}.{self.frac_bits}"


def quantize(value: float, fmt: FixedPointFormat) -> int:
    """Round-to-nearest-even of value * 2^n, saturated at the format bounds."""
    return int(FixedPointTensor.from_real(value, fmt).raw)


def dequantize(raw: int, fmt: FixedPointFormat) -> float:
    return float(raw) / fmt.scale


@dataclass
class FixedPointTensor:
    """Integer raw values plus the format that gives them meaning."""

    raw: np.ndarray
    fmt: FixedPointFormat

    @classmethod
    def from_real(cls, values, fmt: FixedPointFormat) -> "FixedPointTensor":
        values = np.asarray(values)
        if values.dtype.kind not in "biuf":
            raise ValueError(f"cannot quantize {values.dtype} values")
        raw = np.rint(np.multiply(values, fmt.scale, dtype=np.float64))
        # Clip only when something is out of range. A NaN fails both comparisons, so it
        # gets here too; an empty array has no min or max, and clipping it is free.
        if not (raw.size and fmt.raw_min <= np.minimum.reduce(raw, None)
                and np.maximum.reduce(raw, None) <= fmt.raw_max):
            raw = np.clip(raw, fmt.raw_min, fmt.raw_max)
            if np.isnan(raw).any():  # NaN passes through rint and clip
                raise ValueError("cannot quantize NaN")
        return cls(raw=raw.astype(np.int64), fmt=fmt)

    def to_real(self) -> np.ndarray:
        return self.raw.astype(np.float64) / self.fmt.scale

    @property
    def shape(self) -> tuple[int, ...]:
        return self.raw.shape


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

_WORD_BITS = 32
_WORD_MASK = (1 << _WORD_BITS) - 1

# One record per packet. A frame is a plain ndarray of this dtype; the np.record
# type makes each element read as a packet (frame[-1].last) without a recarray.
PACKET = np.dtype((np.record, [("payload", "<i8"), ("last", "?")]))
_WORD_SHIFTS = np.array([0, _WORD_BITS])  # an accumulator's low word, then its high word


class FramingError(RuntimeError):
    """Raised when a packet frame violates the last-flag protocol."""


class StreamPacket(NamedTuple):
    """One hand-built packet; a list of these is a frame too."""

    payload: int  # 32-bit word, two's complement; only the low 32 bits are read
    last: bool = False


def to_stream(values) -> np.ndarray:
    """Serialize integer operands into a ``PACKET`` frame, last flag on the final packet."""
    values = np.asarray(values)
    if not values.size:
        raise ValueError("cannot stream an empty batch")
    if values.dtype.kind not in "biu":
        raise ValueError(f"stream values must be integers, not {values.dtype}")
    frame = np.zeros(values.size, dtype=PACKET)
    frame["payload"] = values.astype(np.int64, copy=False).ravel() & _WORD_MASK
    frame["last"][-1] = True
    return frame


def _read_frame(packets: Iterable[StreamPacket] | np.ndarray) -> np.ndarray:
    """Payload words (int64) of one frame, which must end with its only last flag."""
    if not (isinstance(packets, np.ndarray) and packets.dtype == PACKET and packets.ndim == 1):
        try:
            packets = np.array([(operator.index(p.payload), bool(p.last)) for p in packets], PACKET)
        except (AttributeError, TypeError, ValueError, OverflowError) as err:
            raise FramingError(f"malformed packet: {err}") from err
    last = packets["last"]
    if np.count_nonzero(last) != 1 or not last[-1]:  # an empty frame has no flag, so it lands here too
        if last[:-1].any():
            raise FramingError("packet after last flag")
        raise FramingError("missing last flag at end of frame")
    return packets["payload"] & _WORD_MASK


def decode_output_stream(packets: Iterable[StreamPacket] | np.ndarray) -> np.ndarray:
    """Reassemble accumulator values from an output frame (framing-checked)."""
    words = _read_frame(packets)
    if len(words) % 2 != 0:
        raise FramingError(f"odd output frame length {len(words)}")
    return words[0::2] | (words[1::2] << _WORD_BITS)  # int64 wraps to two's complement


# ---------------------------------------------------------------------------
# MAC array core and timing model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcceleratorConfig:
    num_pes: int = 5
    lanes_per_pe: int = 10
    chunk_len: int = 50  # dot-product length per batch
    clock_mhz: float = 200.0
    pipeline_fill: int = 0  # extra startup cycles

    def __post_init__(self):
        if self.num_pes < 1 or self.lanes_per_pe < 1 or self.chunk_len < 1:
            raise ValueError("num_pes, lanes_per_pe, chunk_len must be >= 1")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be > 0")
        if self.pipeline_fill < 0:
            raise ValueError("pipeline_fill must be >= 0")

    @property
    def rows(self) -> int:
        """Output rows per batch, one per multiplier lane."""
        return self.num_pes * self.lanes_per_pe

    @cached_property
    def _batch_report(self) -> BatchReport:
        # The config is frozen, so every batch under it has this one report.
        mult_ops = self.rows * self.chunk_len
        add_ops = self.rows * self.chunk_len
        latency_cycles = self.chunk_len + self.pipeline_fill
        latency_ns = latency_cycles * 1000.0 / self.clock_mhz
        return BatchReport(
            mult_ops=mult_ops,
            add_ops=add_ops,
            latency_cycles=latency_cycles,
            latency_ns=latency_ns,
            gops=(mult_ops + add_ops) / latency_ns,
        )


@dataclass(frozen=True)
class BatchReport:
    mult_ops: int
    add_ops: int
    latency_cycles: int
    latency_ns: float
    gops: float  # (mult_ops + add_ops) / latency_ns


class MacArrayCore:
    """Weight-stationary MAC array computing y = W @ x in exact integer math.

    Weights stay resident across batches until reloaded. Row r belongs to
    PE r // lanes_per_pe; the assignment does not change any result, it
    only fixes the reporting convention.
    """

    def __init__(self, config: AcceleratorConfig | None = None):
        self.config = config or AcceleratorConfig()
        self._weights: np.ndarray | None = None

    def load_weights(self, weights) -> None:
        """Latch a rows x chunk_len matrix of 16-bit signed weights."""
        weights = np.asarray(weights)
        expected = (self.config.rows, self.config.chunk_len)
        if weights.shape != expected:
            raise ValueError(f"weight shape {weights.shape} != {expected}")
        _check_operand_range(weights, "weight")
        self._weights = weights.astype(np.int64)  # astype copies

    def run_batch(self, x) -> tuple[np.ndarray, BatchReport]:
        """One batch: every lane accumulates one product per cycle.

        Returns the exact integer accumulator vector (int64, models the
        >=40-bit hardware accumulators) and the batch timing report. The
        cycle-by-cycle accumulation is computed as one integer product,
        which gives the same sums; timing comes from ``report``.
        """
        if self._weights is None:
            raise RuntimeError("weights not loaded")
        x = np.asarray(x)
        if x.shape != (self.config.chunk_len,):
            raise ValueError(f"input shape {x.shape} != ({self.config.chunk_len},)")
        _check_operand_range(x, "input")
        return self._weights @ x.astype(np.int64, copy=False), self.report()

    def report(self) -> BatchReport:
        """Timing/operation report for one batch under the current config."""
        return self.config._batch_report

    def stream_batch(self, packets: Iterable[StreamPacket] | np.ndarray) -> np.ndarray:
        """Consume one input frame, run the batch, emit the output frame."""
        x = self._consume_frame(packets)
        y, _ = self.run_batch(x)
        # Each accumulator travels as its low word then its high word; one last flag closes the frame.
        return to_stream(y[:, None] >> _WORD_SHIFTS)

    def _consume_frame(self, packets: Iterable[StreamPacket] | np.ndarray) -> np.ndarray:
        chunk = self.config.chunk_len
        words = _read_frame(packets)
        if len(words) < chunk:
            raise FramingError(f"last flag after {len(words)} of {chunk} words")
        if len(words) > chunk:
            raise FramingError(f"frame exceeds {chunk} words")
        return words.astype(np.int32).astype(np.int64)  # the int32 cast wraps: sign-extends each word


def stream_roundtrip(core: MacArrayCore, x) -> np.ndarray:
    """Drive one batch through the stream interface end to end."""
    return decode_output_stream(core.stream_batch(to_stream(x)))


def matvec_fixed(core: MacArrayCore, w_real, x_real, fmt: FixedPointFormat):
    """Quantize, run on the core, dequantize; returns (y_real, report).

    The integer accumulators carry products of two 2^n-scaled operands, so
    the result is rescaled by 2^(-2n).
    """
    w_q = FixedPointTensor.from_real(w_real, fmt)
    x_q = FixedPointTensor.from_real(x_real, fmt)
    core.load_weights(w_q.raw)
    y_int, report = core.run_batch(x_q.raw)
    return y_int.astype(np.float64) / float(fmt.scale) ** 2, report


def _check_operand_range(values: np.ndarray, label: str) -> None:
    kind = values.dtype.kind
    if kind not in "biuf":
        raise ValueError(f"{label} values must be integers, not {values.dtype}")
    if kind == "f" and not np.all(values == np.round(values)):
        raise ValueError(f"{label} values must be integers")
    if values.size and (
        np.minimum.reduce(values, None) < _INT16_MIN or np.maximum.reduce(values, None) > _INT16_MAX
    ):
        raise ValueError(f"{label} values exceed the 16-bit signed operand range")

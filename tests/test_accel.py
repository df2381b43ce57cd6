"""Accelerator model tests: quantization, integer exactness against a
brute-force oracle, stream framing, and the timing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drnnsim.accel import (
    AcceleratorConfig,
    BatchReport,
    FixedPointFormat,
    FixedPointTensor,
    FramingError,
    MacArrayCore,
    PACKET,
    StreamPacket,
    decode_output_stream,
    dequantize,
    matvec_error_bound,
    matvec_fixed,
    quantize,
    stream_roundtrip,
    to_stream,
)

Q88 = FixedPointFormat(8, 8)

# Every valid format: 1 to 16 bits in all, split any way between the parts.
FORMATS = st.integers(1, 16).flatmap(
    lambda bits: st.builds(lambda frac: FixedPointFormat(bits - frac, frac), st.integers(0, bits))
)
REALS = st.floats(min_value=-1e6, max_value=1e6)

# Arrays that are neither bool, integer nor float: none of them is an operand.
NON_REAL = {
    "complex": lambda shape: np.full(shape, 1 + 5j),
    "str": lambda shape: np.full(shape, "1"),
    "object-int": lambda shape: np.full(shape, 1, dtype=object),
    "none": lambda shape: np.full(shape, None),
    "datetime": lambda shape: np.zeros(shape, dtype="datetime64[s]"),
}


def int_matvec_oracle(weights, x):
    """Plain double loop over Python integers."""
    rows = len(weights)
    return [sum(int(weights[r][k]) * int(x[k]) for k in range(len(x))) for r in range(rows)]


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------

class TestFixedPointFormat:
    def test_parse(self):
        fmt = FixedPointFormat.parse("8.8")
        assert (fmt.int_bits, fmt.frac_bits) == (8, 8)
        assert str(fmt) == "Q8.8"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FixedPointFormat.parse("88")

    def test_q88_bounds_are_the_operand_width(self):
        assert Q88.raw_min == -32768
        assert Q88.raw_max == 32767
        assert Q88.scale == 256

    def test_narrow_format_keeps_nominal_bounds(self):
        fmt = FixedPointFormat(4, 8)
        assert fmt.raw_min == -4096  # -2^4 * 2^8
        assert fmt.raw_max == 4095

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            FixedPointFormat(10, 8)
        with pytest.raises(ValueError):
            FixedPointFormat(-1, 4)

    def test_cached_bounds_leave_equality_hash_and_repr_alone(self):
        fresh, read = FixedPointFormat(8, 8), FixedPointFormat(8, 8)
        assert (read.scale, read.raw_min, read.raw_max) == (256, -32768, 32767)
        assert fresh == read and hash(fresh) == hash(read)
        assert repr(read) == "FixedPointFormat(int_bits=8, frac_bits=8)"
        assert read != FixedPointFormat(4, 8)


class TestQuantize:
    def test_exact_value(self):
        assert quantize(1.5, Q88) == 384

    def test_saturation(self):
        assert quantize(200.0, Q88) == 32767
        assert quantize(-200.0, Q88) == -32768

    def test_rounding(self):
        assert quantize(0.005, Q88) == 1  # 1.28 rounds to 1

    def test_round_half_to_even(self):
        assert quantize(0.5 / 256, Q88) == 0  # halfway, rounds to even 0
        assert quantize(1.5 / 256, Q88) == 2  # halfway, rounds to even 2

    def test_nan_is_an_error(self):
        with pytest.raises(ValueError):
            quantize(float("nan"), Q88)
        with pytest.raises(ValueError):
            FixedPointTensor.from_real(np.array([0.0, np.nan]), Q88)

    def test_roundtrip_error_is_half_a_step(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-100.0, 100.0, size=2000)
        for x in xs:
            back = dequantize(quantize(float(x), Q88), Q88)
            assert abs(back - x) <= 2.0 ** -(Q88.frac_bits + 1) + 1e-15

    def test_roundtrip_of_out_of_range_values_tracks_the_clamp(self):
        lo = Q88.raw_min / Q88.scale
        hi = Q88.raw_max / Q88.scale
        rng = np.random.default_rng(2)
        for x in rng.uniform(-500.0, 500.0, size=2000):
            back = dequantize(quantize(float(x), Q88), Q88)
            clamped = min(max(float(x), lo), hi)
            assert abs(back - clamped) <= 2.0 ** -(Q88.frac_bits + 1) + 1e-15

    def test_raw_never_leaves_the_16_bit_range(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-1e6, 1e6, size=5000)
        tensor = FixedPointTensor.from_real(values, Q88)
        assert tensor.raw.min() >= -32768 and tensor.raw.max() <= 32767

    @given(FORMATS, REALS, REALS)
    def test_monotone(self, fmt, a, b):
        a, b = min(a, b), max(a, b)
        assert quantize(a, fmt) <= quantize(b, fmt)

    @given(FORMATS, REALS)
    def test_saturates_at_the_format_limits(self, fmt, x):
        raw = quantize(x, fmt)
        assert fmt.raw_min <= raw <= fmt.raw_max
        if x * fmt.scale >= fmt.raw_max:
            assert raw == fmt.raw_max
        if x * fmt.scale <= fmt.raw_min:
            assert raw == fmt.raw_min

    @settings(deadline=None)
    @given(FORMATS, st.lists(REALS, min_size=1, max_size=20), st.lists(st.integers(-(2**17), 2**17), max_size=20))
    def test_raw_values_match_np_round_bitwise(self, fmt, reals, ties):
        # np.round with 0 decimals rounds half to even like rint; (k + 0.5) / 2^n are exact ties
        values = np.array(reals + [(k + 0.5) / fmt.scale for k in ties])
        expected = np.clip(np.round(values * fmt.scale), fmt.raw_min, fmt.raw_max).astype(np.int64)
        raw = FixedPointTensor.from_real(values, fmt).raw
        assert raw.dtype == np.int64
        np.testing.assert_array_equal(raw, expected)
        assert [quantize(float(v), fmt) for v in values] == expected.tolist()

    @settings(deadline=None)
    @given(
        FORMATS,
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
            elements=st.floats(-1.5, 1.5) | st.sampled_from([np.inf, -np.inf, np.nan, 0.5, -0.5]),
        ),
    )
    def test_from_real_equals_the_clip_form_bitwise(self, fmt, unit):
        # in range, saturating, +-inf, NaN, 0-d and empty, scaled to each format's range
        values = unit * (fmt.raw_max / fmt.scale)
        if np.isnan(values).any():
            with pytest.raises(ValueError, match="NaN"):
                FixedPointTensor.from_real(values, fmt)
            return
        expected = np.clip(np.rint(np.asarray(values, dtype=np.float64) * fmt.scale), fmt.raw_min, fmt.raw_max)
        expected = expected.astype(np.int64)
        raw = FixedPointTensor.from_real(values, fmt).raw
        assert type(raw) is type(expected) and raw.dtype == expected.dtype and raw.shape == expected.shape
        np.testing.assert_array_equal(raw, expected)

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_non_real_values_cannot_be_quantized(self, kind):
        with pytest.raises(ValueError, match="cannot quantize"):
            FixedPointTensor.from_real(NON_REAL[kind]((3,)), Q88)

    def test_tensor_roundtrip(self):
        values = np.array([[1.5, -0.25], [0.0, 3.75]])
        tensor = FixedPointTensor.from_real(values, Q88)
        np.testing.assert_array_equal(tensor.to_real(), values)  # all on the grid
        assert tensor.shape == (2, 2)


# ---------------------------------------------------------------------------
# Core: weights, batches, integer exactness
# ---------------------------------------------------------------------------

class TestMacArrayCore:
    def test_run_before_load_is_an_error(self):
        core = MacArrayCore()
        with pytest.raises(RuntimeError, match="not loaded"):
            core.run_batch(np.zeros(50, dtype=np.int64))

    def test_wrong_weight_shape(self):
        core = MacArrayCore()
        with pytest.raises(ValueError, match="shape"):
            core.load_weights(np.zeros((49, 50), dtype=np.int64))

    def test_operands_must_fit_16_bits(self):
        core = MacArrayCore()
        weights = np.zeros((50, 50), dtype=np.int64)
        weights[0, 0] = 2**15
        with pytest.raises(ValueError, match="16-bit"):
            core.load_weights(weights)

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_non_real_weights_are_rejected(self, kind):
        with pytest.raises(ValueError, match="weight values must be integers"):
            MacArrayCore().load_weights(NON_REAL[kind]((50, 50)))

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_non_real_inputs_are_rejected(self, kind):
        core = MacArrayCore()
        core.load_weights(np.ones((50, 50), dtype=np.int64))
        with pytest.raises(ValueError, match="input values must be integers"):
            core.run_batch(NON_REAL[kind]((50,)))

    def test_loaded_matrix_drives_the_output(self):
        config = AcceleratorConfig()
        core = MacArrayCore(config)
        rng = np.random.default_rng(5)
        w1 = rng.integers(-100, 100, size=(50, 50))
        x = rng.integers(-100, 100, size=50)
        core.load_weights(w1)
        y1, _ = core.run_batch(x)
        np.testing.assert_array_equal(y1, w1 @ x)
        # reload changes subsequent outputs only
        w2 = rng.integers(-100, 100, size=(50, 50))
        core.load_weights(w2)
        y2, _ = core.run_batch(x)
        np.testing.assert_array_equal(y2, w2 @ x)

    def test_load_weights_owns_its_weights(self):
        # an int64 matrix needs no cast, so only a copy keeps the caller's writes out
        rng = np.random.default_rng(12)
        weights = rng.integers(-(2**15), 2**15, size=(50, 50), dtype=np.int64)
        x = rng.integers(-(2**15), 2**15, size=50)
        expected = int_matvec_oracle(weights.tolist(), x.tolist())
        core = MacArrayCore()
        core.load_weights(weights)
        weights[:] = 7
        y, _ = core.run_batch(x)
        assert y.tolist() == expected

    def test_identity_times_scale(self):
        core = MacArrayCore()
        core.load_weights(np.eye(50, dtype=np.int64) * 256)
        x = np.arange(-25, 25)
        y, _ = core.run_batch(x)
        np.testing.assert_array_equal(y, x * 256)

    def test_consecutive_numbers_golden_row_pattern(self):
        core = MacArrayCore()
        weights = np.tile(np.arange(1, 51)[:, None], (1, 50))
        core.load_weights(weights)
        y, _ = core.run_batch(np.arange(1, 51))
        np.testing.assert_array_equal(y, 1275 * np.arange(1, 51))

    def test_matches_integer_oracle_on_random_operands(self):
        rng = np.random.default_rng(42)
        core = MacArrayCore()
        for _ in range(25):
            weights = rng.integers(-(2**15), 2**15, size=(50, 50))
            x = rng.integers(-(2**15), 2**15, size=50)
            core.load_weights(weights)
            y, _ = core.run_batch(x)
            assert y.tolist() == int_matvec_oracle(weights.tolist(), x.tolist())

    def test_non_default_geometry(self):
        config = AcceleratorConfig(num_pes=2, lanes_per_pe=3, chunk_len=4)
        core = MacArrayCore(config)
        rng = np.random.default_rng(9)
        weights = rng.integers(-50, 50, size=(6, 4))
        x = rng.integers(-50, 50, size=4)
        core.load_weights(weights)
        y, report = core.run_batch(x)
        assert y.tolist() == int_matvec_oracle(weights.tolist(), x.tolist())
        assert report.mult_ops == report.add_ops == 24

    def test_determinism(self):
        rng = np.random.default_rng(3)
        weights = rng.integers(-(2**15), 2**15, size=(50, 50))
        x = rng.integers(-(2**15), 2**15, size=50)
        results = []
        for _ in range(2):
            core = MacArrayCore()
            core.load_weights(weights)
            y, report = core.run_batch(x)
            results.append((y.tolist(), report))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Timing model
# ---------------------------------------------------------------------------

class TestTimingModel:
    def test_default_report_numbers(self):
        _, report = run_default_batch()
        assert report.mult_ops == 2500
        assert report.add_ops == 2500
        assert report.latency_cycles == 50
        assert report.latency_ns == 250.0
        assert report.gops == 20.0

    def test_gops_definition_holds(self):
        _, report = run_default_batch()
        assert report.gops == (report.mult_ops + report.add_ops) / report.latency_ns

    def test_gops_scales_linearly_with_clock(self):
        core = MacArrayCore(AcceleratorConfig(clock_mhz=100.0))
        assert core.report().gops == 10.0

    def test_small_array_geometry(self):
        core = MacArrayCore(AcceleratorConfig(num_pes=1, lanes_per_pe=10))
        report = core.report()
        assert report.mult_ops + report.add_ops == 1000
        assert report.latency_ns == 250.0
        assert report.gops == 4.0

    def test_closed_form_across_random_configs(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            config = AcceleratorConfig(
                num_pes=int(rng.integers(1, 9)),
                lanes_per_pe=int(rng.integers(1, 17)),
                chunk_len=int(rng.integers(1, 129)),
                clock_mhz=float(rng.uniform(10, 1000)),
                pipeline_fill=int(rng.integers(0, 10)),
            )
            report = MacArrayCore(config).report()
            expected = (
                2 * config.rows * config.chunk_len * config.clock_mhz
                / (1000.0 * (config.chunk_len + config.pipeline_fill))
            )
            assert report.gops == pytest.approx(expected, rel=1e-12)

    def test_pipeline_fill_adds_cycles(self):
        core = MacArrayCore(AcceleratorConfig(pipeline_fill=5))
        report = core.report()
        assert report.latency_cycles == 55
        assert report.latency_ns == 275.0

    def test_report_equals_a_fresh_batch_report(self):
        for config in (
            AcceleratorConfig(),
            AcceleratorConfig(num_pes=2, lanes_per_pe=3, chunk_len=4),
            AcceleratorConfig(clock_mhz=333.0, pipeline_fill=7),
            AcceleratorConfig(num_pes=1, lanes_per_pe=50, chunk_len=50, clock_mhz=100.0),
        ):
            ops = config.rows * config.chunk_len
            cycles = config.chunk_len + config.pipeline_fill
            latency_ns = cycles * 1000.0 / config.clock_mhz
            expected = BatchReport(ops, ops, cycles, latency_ns, 2 * ops / latency_ns)
            core = MacArrayCore(config)
            core.load_weights(np.ones((config.rows, config.chunk_len), dtype=np.int64))
            assert core.report() == expected
            assert core.run_batch(np.ones(config.chunk_len, dtype=np.int64))[1] == expected

    def test_report_follows_a_reassigned_config(self):
        core = MacArrayCore()
        assert core.report().gops == 20.0
        core.config = AcceleratorConfig(clock_mhz=100.0)
        assert core.report().gops == 10.0
        core.load_weights(np.ones((50, 50), dtype=np.int64))
        assert core.run_batch(np.ones(50, dtype=np.int64))[1].gops == 10.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(lanes_per_pe=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(clock_mhz=0.0)


def run_default_batch():
    core = MacArrayCore()
    core.load_weights(np.ones((50, 50), dtype=np.int64))
    return core.run_batch(np.ones(50, dtype=np.int64))


# ---------------------------------------------------------------------------
# Stream interface
# ---------------------------------------------------------------------------

class TestStreamProtocol:
    def make_core(self, seed=0):
        rng = np.random.default_rng(seed)
        core = MacArrayCore()
        core.load_weights(rng.integers(-(2**15), 2**15, size=(50, 50)))
        return core, rng

    def test_frame_has_exactly_one_last_packet(self):
        packets = to_stream(list(range(50)))
        assert sum(p.last for p in packets) == 1
        assert packets[-1].last

    def test_frames_are_plain_arrays_of_packet_records(self):
        core, rng = self.make_core(seed=6)
        for frame in (to_stream(rng.integers(-(2**15), 2**15, size=50)), core.stream_batch(to_stream(np.arange(50)))):
            assert type(frame) is np.ndarray and frame.dtype == PACKET
            assert [bool(p.last) for p in frame] == [False] * (len(frame) - 1) + [True]
            assert [int(p.payload) for p in frame] == frame["payload"].tolist()

    def test_recarray_views_and_packet_lists_decode_alike(self):
        core, rng = self.make_core(seed=11)
        x = rng.integers(-(2**15), 2**15, size=50)
        frame = to_stream(x)
        packets = [StreamPacket(int(p.payload), bool(p.last)) for p in frame]
        out = core.stream_batch(frame)
        assert core.stream_batch(frame.view(np.recarray)).tolist() == out.tolist()
        assert core.stream_batch(packets).tolist() == out.tolist()
        expected = decode_output_stream(out)
        out_packets = [StreamPacket(int(p.payload), bool(p.last)) for p in out]
        np.testing.assert_array_equal(decode_output_stream(out.view(np.recarray)), expected)
        np.testing.assert_array_equal(decode_output_stream(out_packets), expected)

    def test_roundtrip_equals_run_batch(self):
        core, rng = self.make_core(seed=8)
        for _ in range(10):
            x = rng.integers(-(2**15), 2**15, size=50)
            direct, _ = core.run_batch(x)
            np.testing.assert_array_equal(stream_roundtrip(core, x), direct)

    def test_negative_accumulators_survive_the_stream(self):
        core = MacArrayCore()
        core.load_weights(np.full((50, 50), -(2**15), dtype=np.int64))
        x = np.full(50, 2**15 - 1, dtype=np.int64)
        direct, _ = core.run_batch(x)
        assert direct.min() < -(2**31)  # wider than one stream word
        np.testing.assert_array_equal(stream_roundtrip(core, x), direct)

    @settings(deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
    def test_int64_accumulators_roundtrip_as_word_pairs(self, values):
        # each accumulator travels as its low then its high 32-bit word
        words = [w for v in values for w in (v & 0xFFFFFFFF, v >> 32)]
        decoded = decode_output_stream(to_stream(words))
        assert decoded.dtype == np.int64
        assert decoded.tolist() == values

    def test_early_last_is_a_framing_error(self):
        core, _ = self.make_core()
        packets = [StreamPacket(payload=k, last=(k == 29)) for k in range(30)]
        with pytest.raises(FramingError, match="last flag after 30 of 50"):
            core.stream_batch(packets)

    def test_missing_last_is_a_framing_error(self):
        core, _ = self.make_core()
        packets = [StreamPacket(payload=k) for k in range(50)]
        with pytest.raises(FramingError, match="missing last"):
            core.stream_batch(packets)

    def test_packet_after_last_is_a_framing_error(self):
        core, _ = self.make_core()
        packets = [StreamPacket(payload=k, last=(k == 49)) for k in range(50)]
        packets.append(StreamPacket(payload=0))
        with pytest.raises(FramingError, match="after last"):
            core.stream_batch(packets)

    def test_overlong_frame_is_a_framing_error(self):
        core, _ = self.make_core()
        packets = [StreamPacket(payload=k, last=(k == 50)) for k in range(51)]
        with pytest.raises(FramingError, match="exceeds"):
            core.stream_batch(packets)

    def test_weight_residency_across_frames(self):
        core, rng = self.make_core(seed=10)
        weights = core._weights.copy()
        for _ in range(2):
            x = rng.integers(-(2**15), 2**15, size=50)
            y = stream_roundtrip(core, x)
            assert y.tolist() == int_matvec_oracle(weights.tolist(), x.tolist())

    def test_empty_batch_cannot_be_streamed(self):
        with pytest.raises(ValueError):
            to_stream([])


# ---------------------------------------------------------------------------
# Plain-Python reference: the per-packet stream path the record frames replace
# ---------------------------------------------------------------------------

WORD_MASK = 0xFFFFFFFF


def ref_sign_extend(word, bits):
    sign = 1 << (bits - 1)
    return (word & ((1 << bits) - 1)) - ((word & sign) << 1)


def ref_to_stream(values):
    words = [int(v) & WORD_MASK for v in values]
    if not words:
        raise ValueError("cannot stream an empty batch")
    return [StreamPacket(w) for w in words[:-1]] + [StreamPacket(words[-1], last=True)]


def ref_read_frame(packets):
    words = []
    closed = False
    for packet in packets:
        if closed:
            raise FramingError("packet after last flag")
        words.append(int(packet.payload) & WORD_MASK)
        closed = packet.last
    if not closed:
        raise FramingError("missing last flag at end of frame")
    return words


def ref_decode_output_stream(packets):
    words = ref_read_frame(packets)
    if len(words) % 2 != 0:
        raise FramingError(f"odd output frame length {len(words)}")
    return [ref_sign_extend(lo | (hi << 32), 64) for lo, hi in zip(words[0::2], words[1::2])]


def ref_output_frame(accumulators):
    return ref_to_stream([w for v in accumulators for w in (v, v >> 32)])


def as_pairs(frame):
    return [(int(p.payload), bool(p.last)) for p in frame]


def error_text(fn, *args):
    try:
        fn(*args)
    except FramingError as err:
        return str(err)
    return None


OPERANDS = st.lists(st.integers(-(2**15), 2**15 - 1), min_size=50, max_size=50)
INT64 = st.integers(-(2**63), 2**63 - 1)


class TestStreamMatchesReference:
    def make_core(self, seed):
        core = MacArrayCore()
        core.load_weights(np.random.default_rng(seed).integers(-(2**15), 2**15, size=(50, 50)))
        return core

    @settings(deadline=None)
    @given(st.lists(st.integers(-(2**15), 2**15), min_size=1, max_size=120))
    def test_input_frames_equal_packet_for_packet(self, values):
        frame = to_stream(np.array(values))
        assert frame.dtype == PACKET
        assert as_pairs(frame) == as_pairs(ref_to_stream(values))

    @settings(deadline=None)
    @given(st.lists(INT64, min_size=50, max_size=50))
    def test_output_frames_equal_packet_for_packet(self, accumulators):
        # any int64 accumulator vector, fed to the real stream_batch in place of the product
        core = self.make_core(0)
        y = np.array(accumulators, dtype=np.int64)
        core.run_batch = lambda x: (y, core.report())
        frame = core.stream_batch(to_stream(np.zeros(50, dtype=np.int64)))
        assert as_pairs(frame) == as_pairs(ref_output_frame(accumulators))
        assert decode_output_stream(frame).tolist() == accumulators
        assert ref_decode_output_stream(frame) == accumulators

    @settings(deadline=None, max_examples=50)
    @given(OPERANDS, st.integers(0, 2**32 - 1))
    def test_roundtrip_equals_run_batch_and_the_reference_decode(self, x, seed):
        core = self.make_core(seed)
        direct, _ = core.run_batch(np.array(x))
        through = stream_roundtrip(core, x)
        assert through.dtype == np.int64
        np.testing.assert_array_equal(through, direct)
        # hand-built input frame in, reference decode out
        assert ref_decode_output_stream(core.stream_batch(ref_to_stream(x))) == through.tolist()

    @settings(deadline=None)
    @given(st.lists(st.booleans(), max_size=12), st.lists(st.integers(0, 2**32 - 1), min_size=12, max_size=12))
    def test_last_flag_patterns_raise_the_reference_message(self, flags, words):
        packets = [StreamPacket(w, last=f) for w, f in zip(words, flags)]
        expected = error_text(ref_decode_output_stream, packets)
        assert error_text(decode_output_stream, packets) == expected
        assert error_text(decode_output_stream, iter(packets)) == expected
        assert error_text(decode_output_stream, np.array(packets, dtype=PACKET)) == expected

    @settings(deadline=None, max_examples=50)
    @given(OPERANDS)
    def test_a_generator_of_packets_decodes_like_a_list(self, x):
        core = self.make_core(4)
        packets = ref_to_stream(x)
        out = core.stream_batch(p for p in packets)
        assert as_pairs(out) == as_pairs(core.stream_batch(packets))
        out_packets = [StreamPacket(int(p.payload), bool(p.last)) for p in out]
        np.testing.assert_array_equal(
            decode_output_stream(p for p in out_packets), decode_output_stream(out_packets)
        )


class TestMalformedStreamInput:
    def frame_with(self, payload):
        # a well-formed 50-word input frame with one bad payload in the middle
        packets = [StreamPacket(k, last=(k == 49)) for k in range(50)]
        packets[20] = StreamPacket(payload)
        return packets

    @pytest.mark.parametrize("payload", ["x", "7", 1.5, 7.0, None, 2**63, -(2**63) - 1],
                             ids=["str", "numeric-str", "float", "integral-float", "none", "above-int64", "below-int64"])
    def test_bad_payload_is_a_framing_error(self, payload):
        core = MacArrayCore()
        core.load_weights(np.ones((50, 50), dtype=np.int64))
        with pytest.raises(FramingError, match="malformed packet"):
            core.stream_batch(self.frame_with(payload))
        with pytest.raises(FramingError, match="malformed packet"):
            decode_output_stream([StreamPacket(0), StreamPacket(payload, last=True)])

    @pytest.mark.parametrize("frame", [[0, 1], np.zeros((2, 2), dtype=PACKET), np.zeros((), dtype=PACKET)],
                             ids=["ints", "2-d-records", "0-d-record"])
    def test_frame_that_is_not_a_packet_sequence_is_a_framing_error(self, frame):
        with pytest.raises(FramingError, match="malformed packet"):
            decode_output_stream(frame)

    def test_integer_payloads_keep_32_bit_masking(self):
        # -1 is the word 0xFFFFFFFF: a low word of all ones and a zero high word
        assert decode_output_stream([StreamPacket(-1), StreamPacket(0, last=True)]).tolist() == [WORD_MASK]
        assert decode_output_stream([StreamPacket(np.int64(-1)), StreamPacket(2**40 - 1, last=True)]).tolist() == [-1]
        core = MacArrayCore()
        core.load_weights(np.eye(50, dtype=np.int64))
        packets = self.frame_with(-1)
        packets[21] = StreamPacket(WORD_MASK)  # the same word, written unsigned
        y = decode_output_stream(core.stream_batch(packets))
        assert y[20] == y[21] == -1

    @pytest.mark.parametrize("values", [[1.5], [1.0], np.array([0.5, 2.0]), ["7"], [None]],
                             ids=["float", "integral-float", "float-array", "str", "none"])
    def test_non_integer_operands_cannot_be_streamed(self, values):
        with pytest.raises(ValueError, match="integers"):
            to_stream(values)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint32, np.uint64, np.bool_])
    def test_operands_of_any_integer_dtype_stream_like_python_ints(self, dtype):
        values = np.array([0, 1, 100, -1, -100]).astype(dtype)
        assert as_pairs(to_stream(values)) == as_pairs(ref_to_stream(values.tolist()))


# ---------------------------------------------------------------------------
# Fixed-point matvec against the float oracle
# ---------------------------------------------------------------------------

class TestMatvecFixed:
    def test_zero_matrix(self):
        core = MacArrayCore()
        y, _ = matvec_fixed(core, np.zeros((50, 50)), np.random.default_rng(0).uniform(-1, 1, 50), Q88)
        np.testing.assert_array_equal(y, np.zeros(50))

    def test_error_within_analytic_bound(self):
        rng = np.random.default_rng(99)
        core = MacArrayCore()
        for _ in range(50):
            w = rng.uniform(-1.0, 1.0, size=(50, 50))
            x = rng.uniform(-1.0, 1.0, size=50)
            y_fixed, _ = matvec_fixed(core, w, x, Q88)
            y_float = w @ x
            bound = matvec_error_bound(
                float(np.abs(w).max()), float(np.abs(x).max()), 50, Q88
            )
            assert float(np.abs(y_fixed - y_float).max()) <= bound

    def test_on_grid_inputs_are_exact(self):
        # values already on the Q8.8 grid quantize losslessly, and the
        # float64 reference is exact at these magnitudes
        rng = np.random.default_rng(7)
        core = MacArrayCore()
        w = rng.integers(-256, 257, size=(50, 50)) / 256.0
        x = rng.integers(-256, 257, size=50) / 256.0
        y_fixed, _ = matvec_fixed(core, w, x, Q88)
        np.testing.assert_array_equal(y_fixed, w @ x)

    def test_scaled_identity_recovers_input(self):
        core = MacArrayCore()
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.0, 1.0, size=50)
        y, _ = matvec_fixed(core, np.eye(50), x, Q88)
        assert float(np.abs(y - x).max()) <= 2.0**-Q88.frac_bits

    def test_reports_come_back(self):
        core = MacArrayCore()
        _, report = matvec_fixed(core, np.zeros((50, 50)), np.zeros(50), Q88)
        assert report.gops == 20.0

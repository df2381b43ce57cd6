"""Accelerator model tests: quantization, integer exactness against a
brute-force oracle, stream framing, and the timing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drnnsim.accel import (
    AcceleratorConfig,
    FixedPointFormat,
    FixedPointTensor,
    FramingError,
    MacArrayCore,
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

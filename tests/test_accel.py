"""Accelerator model tests: quantization, integer exactness against a
brute-force oracle, stream framing, and the timing model."""

import copy
import fractions
import math
import pickle
import re
from types import SimpleNamespace

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
    decode_output_stream,
    matvec_error_bound,
    matvec_fixed,
    stream_roundtrip,
    to_stream,
)

Q88 = FixedPointFormat(8, 8)

# Every valid format: 1 to 16 bits in all, split any way between the parts.
FORMATS = st.integers(1, 16).flatmap(
    lambda bits: st.builds(lambda frac: FixedPointFormat(bits - frac, frac), st.integers(0, bits))
)
REALS = st.floats(min_value=-1e6, max_value=1e6)


# A deep copy and a pickle round trip: each must keep a value object's fields and its derived values.
CLONES = pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                                 ids=["deepcopy", "pickle"])


def raw_of(x, fmt):
    """The raw integer one real quantizes to."""
    return int(FixedPointTensor.from_real(x, fmt).raw)

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

    @pytest.mark.parametrize("text", [None, 8.8, 88, b"8.8", ["8", "8"]],
                             ids=["none", "float", "int", "bytes", "list"])
    def test_parse_of_a_non_string_is_the_documented_error(self, text):
        with pytest.raises(ValueError, match=re.escape(f"bad fixed-point format {text!r}, expected 'm.n'")):
            FixedPointFormat.parse(text)

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

    @CLONES
    def test_copies_keep_the_fields_and_the_derived_values(self, clone):
        for fmt in (Q88, FixedPointFormat(4, 4), FixedPointFormat(0, 16)):
            copied = clone(fmt)
            assert copied == fmt
            assert (copied.scale, copied.raw_min, copied.raw_max) == (fmt.scale, fmt.raw_min, fmt.raw_max)
            assert copied._scale_f64.shape == () and copied._scale_f64.dtype == np.float64
            assert copied._scale_f64 == fmt._scale_f64 == fmt.scale
        assert (FixedPointFormat(4, 4).raw_min, FixedPointFormat(4, 4).raw_max) == (-256, 255)


class TestQuantize:
    def test_exact_value(self):
        assert raw_of(1.5, Q88) == 384

    def test_saturation(self):
        assert raw_of(200.0, Q88) == 32767
        assert raw_of(-200.0, Q88) == -32768

    def test_rounding(self):
        assert raw_of(0.005, Q88) == 1  # 1.28 rounds to 1

    def test_round_half_to_even(self):
        assert raw_of(0.5 / 256, Q88) == 0  # halfway, rounds to even 0
        assert raw_of(1.5 / 256, Q88) == 2  # halfway, rounds to even 2

    def test_nan_is_an_error(self):
        with pytest.raises(ValueError):
            raw_of(float("nan"), Q88)
        with pytest.raises(ValueError):
            FixedPointTensor.from_real(np.array([0.0, np.nan]), Q88)

    def test_roundtrip_error_is_half_a_step(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-100.0, 100.0, size=2000)
        for x in xs:
            back = raw_of(float(x), Q88) / Q88.scale
            assert abs(back - x) <= 2.0 ** -(Q88.frac_bits + 1) + 1e-15

    def test_roundtrip_of_out_of_range_values_tracks_the_clamp(self):
        lo = Q88.raw_min / Q88.scale
        hi = Q88.raw_max / Q88.scale
        rng = np.random.default_rng(2)
        for x in rng.uniform(-500.0, 500.0, size=2000):
            back = raw_of(float(x), Q88) / Q88.scale
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
        assert raw_of(a, fmt) <= raw_of(b, fmt)

    @given(FORMATS, REALS)
    def test_saturates_at_the_format_limits(self, fmt, x):
        raw = raw_of(x, fmt)
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
        assert [raw_of(float(v), fmt) for v in values] == expected.tolist()

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
        values = NON_REAL[kind]((3,))
        message = f"values has dtype {values.dtype}, expected bool, int or float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FixedPointTensor.from_real(values, Q88)

    @pytest.mark.parametrize("fmt", [8, "8.8", None, (8, 8)], ids=["int", "str", "none", "tuple"])
    def test_fmt_must_be_a_fixed_point_format(self, fmt):
        message = f"^fmt must be a FixedPointFormat, not {type(fmt).__name__}$"
        with pytest.raises(ValueError, match=message):
            FixedPointTensor.from_real(np.zeros(3), fmt)
        with pytest.raises(ValueError, match=message):
            matvec_fixed(MacArrayCore(), np.zeros((50, 50)), np.zeros(50), fmt)

    def test_tensor_roundtrip(self):
        values = np.array([[1.5, -0.25], [0.0, 3.75]])
        tensor = FixedPointTensor.from_real(values, Q88)
        np.testing.assert_array_equal(tensor.raw / Q88.scale, values)  # all on the grid
        assert tensor.raw.shape == (2, 2)


# ---------------------------------------------------------------------------
# Core: weights, batches, integer exactness
# ---------------------------------------------------------------------------

class TestMacArrayCore:
    @pytest.mark.parametrize("config", [0, "x", False, {}, SimpleNamespace(rows=50, chunk_len=50)],
                             ids=["zero", "str", "false", "empty-dict", "duck"])
    def test_any_other_config_is_rejected_by_type(self, config):
        message = f"^config must be an AcceleratorConfig or None, not {type(config).__name__}$"
        with pytest.raises(ValueError, match=message):
            MacArrayCore(config)

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
        weights = NON_REAL[kind]((50, 50))
        message = f"weights has dtype {weights.dtype}, expected bool or int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MacArrayCore().load_weights(weights)

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_non_real_inputs_are_rejected(self, kind):
        core = MacArrayCore()
        core.load_weights(np.ones((50, 50), dtype=np.int64))
        x = NON_REAL[kind]((50,))
        with pytest.raises(ValueError, match=f"^{re.escape(f'x has dtype {x.dtype}, expected bool or int')}$"):
            core.run_batch(x)

    @pytest.mark.parametrize("shape", [(49,), (51,), (50, 1)])
    def test_wrong_input_shape(self, shape):
        core = MacArrayCore()
        core.load_weights(np.ones((50, 50), dtype=np.int64))
        with pytest.raises(ValueError, match=f"^{re.escape(f'x has shape {shape}, expected (50,)')}$"):
            core.run_batch(np.zeros(shape, dtype=np.int64))

    def test_non_integral_float_operands_are_rejected(self):
        # Operands are integer arrays: a float array is rejected even when every value is integral.
        core = MacArrayCore()
        for weights in (np.full((50, 50), 0.5), np.full((50, 50), 2.0)):
            with pytest.raises(ValueError, match="^weights has dtype float64, expected bool or int$"):
                core.load_weights(weights)
        core.load_weights(np.full((50, 50), 2))
        x = np.ones(50)
        x[7] = 1.25
        for values in (x, np.ones(50, dtype=np.float32)):
            with pytest.raises(ValueError, match=f"^x has dtype {values.dtype}, expected bool or int$"):
                core.run_batch(values)

    def test_loaded_matrix_drives_the_output(self):
        config = AcceleratorConfig()
        core = MacArrayCore(config)
        rng = np.random.default_rng(5)
        w1 = rng.integers(-100, 100, size=(50, 50))
        x = rng.integers(-100, 100, size=50)
        core.load_weights(w1)
        y1 = core.run_batch(x)
        np.testing.assert_array_equal(y1, w1 @ x)
        # reload changes subsequent outputs only
        w2 = rng.integers(-100, 100, size=(50, 50))
        core.load_weights(w2)
        y2 = core.run_batch(x)
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
        y = core.run_batch(x)
        assert y.tolist() == expected

    def test_identity_times_scale(self):
        core = MacArrayCore()
        core.load_weights(np.eye(50, dtype=np.int64) * 256)
        x = np.arange(-25, 25)
        y = core.run_batch(x)
        np.testing.assert_array_equal(y, x * 256)

    def test_consecutive_numbers_golden_row_pattern(self):
        core = MacArrayCore()
        weights = np.tile(np.arange(1, 51)[:, None], (1, 50))
        core.load_weights(weights)
        y = core.run_batch(np.arange(1, 51))
        np.testing.assert_array_equal(y, 1275 * np.arange(1, 51))

    def test_matches_integer_oracle_on_random_operands(self):
        rng = np.random.default_rng(42)
        core = MacArrayCore()
        for _ in range(25):
            weights = rng.integers(-(2**15), 2**15, size=(50, 50))
            x = rng.integers(-(2**15), 2**15, size=50)
            core.load_weights(weights)
            y = core.run_batch(x)
            assert y.tolist() == int_matvec_oracle(weights.tolist(), x.tolist())

    def test_non_default_geometry(self):
        config = AcceleratorConfig(num_pes=2, lanes_per_pe=3, chunk_len=4)
        core = MacArrayCore(config)
        rng = np.random.default_rng(9)
        weights = rng.integers(-50, 50, size=(6, 4))
        x = rng.integers(-50, 50, size=4)
        core.load_weights(weights)
        y = core.run_batch(x)
        assert y.tolist() == int_matvec_oracle(weights.tolist(), x.tolist())
        assert core.report().mult_ops == core.report().add_ops == 24

    def test_determinism(self):
        rng = np.random.default_rng(3)
        weights = rng.integers(-(2**15), 2**15, size=(50, 50))
        x = rng.integers(-(2**15), 2**15, size=50)
        results = []
        for _ in range(2):
            core = MacArrayCore()
            core.load_weights(weights)
            results.append((core.run_batch(x).tolist(), core.report()))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Timing model
# ---------------------------------------------------------------------------

class TestTimingModel:
    def test_default_report_numbers(self):
        report = MacArrayCore().report()
        assert report.mult_ops == 2500
        assert report.add_ops == 2500
        assert report.latency_cycles == 50
        assert report.latency_ns == 250.0
        assert report.gops == 20.0

    def test_gops_definition_holds(self):
        report = MacArrayCore().report()
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
            )
            report = MacArrayCore(config).report()
            expected = 2 * config.rows * config.clock_mhz / 1000.0
            assert report.gops == pytest.approx(expected, rel=1e-12)

    def test_report_equals_a_fresh_batch_report(self):
        for config in (
            AcceleratorConfig(),
            AcceleratorConfig(num_pes=2, lanes_per_pe=3, chunk_len=4),
            AcceleratorConfig(clock_mhz=333.0),
            AcceleratorConfig(num_pes=1, lanes_per_pe=50, chunk_len=50, clock_mhz=100.0),
        ):
            ops = config.rows * config.chunk_len
            latency_ns = config.chunk_len * 1000.0 / config.clock_mhz
            expected = BatchReport(ops, ops, config.chunk_len, latency_ns, 2 * ops / latency_ns)
            assert MacArrayCore(config).report() == expected

    def test_report_is_computed_once_per_config(self):
        config = AcceleratorConfig(num_pes=2, lanes_per_pe=3, chunk_len=4)
        assert config.report is MacArrayCore(config).report() is MacArrayCore(config).report()

    def test_cached_report_leaves_equality_hash_and_repr_alone(self):
        config, other = AcceleratorConfig(), AcceleratorConfig()
        assert vars(config)["report"] is config.report  # cached when the config was built
        del vars(other)["report"]
        assert config == other and hash(config) == hash(other)
        assert repr(config) == "AcceleratorConfig(num_pes=5, lanes_per_pe=10, chunk_len=50, clock_mhz=200.0)"
        assert config != AcceleratorConfig(clock_mhz=100.0)

    @CLONES
    def test_copies_keep_the_fields_and_the_derived_values(self, clone):
        for config in (AcceleratorConfig(), AcceleratorConfig(num_pes=2, lanes_per_pe=3, chunk_len=4, clock_mhz=333.0)):
            copied = clone(config)
            assert copied == config
            assert (copied.rows, copied.report) == (config.rows, config.report)
            assert MacArrayCore(copied).report() == config.report

    def test_report_follows_a_reassigned_config(self):
        core = MacArrayCore()
        assert core.report().gops == 20.0
        core.config = AcceleratorConfig(clock_mhz=100.0)
        assert core.report().gops == 10.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(lanes_per_pe=0)
        for clock_mhz in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="clock_mhz must be finite and > 0"):
                AcceleratorConfig(clock_mhz=clock_mhz)
        # sizes whose op count or latency cannot be converted to a float
        for geometry in ({"chunk_len": 10**400}, {"num_pes": 10**200, "lanes_per_pe": 10**200}):
            with pytest.raises(ValueError, match="too large: a batch's report overflows a float"):
                AcceleratorConfig(**geometry)
        with pytest.raises(ValueError, match="too large: a batch's GOPS is not finite"):
            AcceleratorConfig(num_pes=500, clock_mhz=1.7e308)

    @pytest.mark.parametrize("clock_mhz", ["200", None, 1j, True, np.bool_(True), [200.0]])
    def test_clock_must_be_a_real_number(self, clock_mhz):
        with pytest.raises(ValueError, match=f"^clock_mhz must be a real number, got {re.escape(repr(clock_mhz))}$"):
            AcceleratorConfig(clock_mhz=clock_mhz)

    @pytest.mark.parametrize("clock_mhz", [200, np.float32(150.0), np.int64(100), fractions.Fraction(400, 2)])
    def test_clock_accepts_any_real_number(self, clock_mhz):
        assert AcceleratorConfig(clock_mhz=clock_mhz).report.gops == pytest.approx(float(clock_mhz) / 10)

    @settings(deadline=None)
    @given(st.integers(-2, 10**400), st.integers(-2, 10**400), st.integers(-2, 10**400), st.floats())
    def test_every_config_that_constructs_has_a_finite_report(self, pes, lanes, chunk, clock_mhz):
        try:
            config = AcceleratorConfig(num_pes=pes, lanes_per_pe=lanes, chunk_len=chunk, clock_mhz=clock_mhz)
        except ValueError:
            return
        report = MacArrayCore(config).report()
        assert math.isfinite(report.latency_ns) and math.isfinite(report.gops)

    def test_largest_geometry_that_constructs_has_a_finite_report(self):
        # 10^100 x 10^100 rows construct; 10^200 x 10^200 do not (see above).
        config = AcceleratorConfig(num_pes=10**100, lanes_per_pe=10**100)
        report = MacArrayCore(config).report()
        assert report.mult_ops == 10**200 * 50 and report.latency_ns == 250.0
        assert report.gops == 2 * 10**200 * 50 / 250.0

    @pytest.mark.parametrize("value", [5.5, 8.0, True, "5", np.int64(5)],
                             ids=["float-5.5", "float-8.0", "bool", "str", "np.int64"])
    @pytest.mark.parametrize("make, field", [
        (lambda v: AcceleratorConfig(num_pes=v), "num_pes"),
        (lambda v: AcceleratorConfig(lanes_per_pe=v), "lanes_per_pe"),
        (lambda v: AcceleratorConfig(chunk_len=v), "chunk_len"),
        (lambda v: FixedPointFormat(v, 8), "int_bits"),
        (lambda v: FixedPointFormat(8, v), "frac_bits"),
    ], ids=["num_pes", "lanes_per_pe", "chunk_len", "int_bits", "frac_bits"])
    def test_geometry_and_bit_counts_must_be_integers(self, make, field, value):
        # the token-id rule: an int (not a bool) or a numpy integer, never coerced from anything else
        if isinstance(value, np.integer):
            made = getattr(make(value), field)
            assert made == 5 and type(made) is int
        else:
            with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
                make(value)

    @pytest.mark.parametrize("make, message", [
        (lambda: FixedPointFormat(-1, 8), "int_bits must be >= 0, got -1"),
        (lambda: FixedPointFormat(8, np.int8(-2)), "frac_bits must be >= 0, got -2"),
        (lambda: AcceleratorConfig(num_pes=0), "num_pes must be >= 1, got 0"),
        (lambda: AcceleratorConfig(lanes_per_pe=-1), "lanes_per_pe must be >= 1, got -1"),
        (lambda: AcceleratorConfig(chunk_len=0), "chunk_len must be >= 1, got 0"),
    ], ids=["int_bits", "frac_bits", "num_pes", "lanes_per_pe", "chunk_len"])
    def test_geometry_and_bit_counts_name_their_floor(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_numpy_integer_geometry_does_not_wrap(self):
        # stored as a Python int, so rows are 2^64, not int64's wrapped 0
        assert AcceleratorConfig(num_pes=np.int64(2**62), lanes_per_pe=np.int64(4)).rows == 2**64

    @pytest.mark.parametrize("clock_mhz", [1e-320, 5e-324, 1e-305])
    def test_clock_too_small_for_a_finite_latency(self, clock_mhz):
        with pytest.raises(ValueError, match="too small: a batch's latency in ns is not finite"):
            AcceleratorConfig(clock_mhz=clock_mhz)

    def test_smallest_clocks_keep_a_finite_report(self):
        report = MacArrayCore(AcceleratorConfig(clock_mhz=1e-300)).report()
        assert report.latency_ns == 50 * 1000.0 / 1e-300
        assert math.isfinite(report.latency_ns) and report.gops > 0


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

    def test_recarray_views_decode_alike(self):
        core, rng = self.make_core(seed=11)
        frame = to_stream(rng.integers(-(2**15), 2**15, size=50))
        out = core.stream_batch(frame)
        assert core.stream_batch(frame.view(np.recarray)).tolist() == out.tolist()
        np.testing.assert_array_equal(decode_output_stream(out.view(np.recarray)), decode_output_stream(out))

    def test_roundtrip_equals_run_batch(self):
        core, rng = self.make_core(seed=8)
        for _ in range(10):
            x = rng.integers(-(2**15), 2**15, size=50)
            direct = core.run_batch(x)
            np.testing.assert_array_equal(stream_roundtrip(core, x), direct)

    def test_negative_accumulators_survive_the_stream(self):
        core = MacArrayCore()
        core.load_weights(np.full((50, 50), -(2**15), dtype=np.int64))
        x = np.full(50, 2**15 - 1, dtype=np.int64)
        direct = core.run_batch(x)
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

    # Faults are injected by editing a to_stream frame in place.
    def test_early_last_is_a_framing_error(self):
        core, _ = self.make_core()
        frame = to_stream(np.arange(50))[:30]
        frame["last"][-1] = True
        with pytest.raises(FramingError, match="last flag after 30 of 50"):
            core.stream_batch(frame)

    def test_missing_last_is_a_framing_error(self):
        core, _ = self.make_core()
        frame = to_stream(np.arange(50))
        frame["last"][-1] = False
        with pytest.raises(FramingError, match="missing last"):
            core.stream_batch(frame)

    def test_packet_after_last_is_a_framing_error(self):
        core, _ = self.make_core()
        frame = to_stream(np.arange(51))
        frame["last"][49:] = True, False
        with pytest.raises(FramingError, match="after last"):
            core.stream_batch(frame)

    def test_overlong_frame_is_a_framing_error(self):
        core, _ = self.make_core()
        with pytest.raises(FramingError, match="exceeds"):
            core.stream_batch(to_stream(np.arange(51)))

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
# Plain-Python reference: the stream path packet by packet, as (payload, last)
# tuples; ``as_frame`` turns them into a PACKET frame only to feed the real code
# ---------------------------------------------------------------------------

WORD_MASK = 0xFFFFFFFF


def ref_sign_extend(word, bits):
    sign = 1 << (bits - 1)
    return (word & ((1 << bits) - 1)) - ((word & sign) << 1)


def ref_to_stream(values):
    words = [int(v) & WORD_MASK for v in values]
    if not words:
        raise ValueError("cannot stream an empty batch")
    return [(w, False) for w in words[:-1]] + [(words[-1], True)]


def ref_read_frame(packets):
    words = []
    closed = False
    for payload, last in packets:
        if closed:
            raise FramingError("packet after last flag")
        words.append(int(payload) & WORD_MASK)
        closed = last
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


def as_frame(packets):
    return np.array(packets, dtype=PACKET)


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
        assert as_pairs(frame) == ref_to_stream(values)

    @settings(deadline=None)
    @given(st.lists(INT64, min_size=50, max_size=50))
    def test_output_frames_equal_packet_for_packet(self, accumulators):
        # any int64 accumulator vector, fed to the real stream_batch in place of the product
        core = self.make_core(0)
        y = np.array(accumulators, dtype=np.int64)
        core.run_batch = lambda x: y
        frame = core.stream_batch(to_stream(np.zeros(50, dtype=np.int64)))
        assert as_pairs(frame) == ref_output_frame(accumulators)
        assert decode_output_stream(frame).tolist() == accumulators
        assert ref_decode_output_stream(as_pairs(frame)) == accumulators

    @settings(deadline=None)
    @given(st.lists(INT64, min_size=100, max_size=100), st.sampled_from(["strided", "big-endian"]))
    def test_output_frames_of_any_accumulator_layout_equal_the_reference(self, accumulators, layout):
        # run_batch's vector reaches the frame builder as it is: a strided view or a byte-swapped dtype
        y = np.array(accumulators, dtype=np.int64)
        y = y[::2] if layout == "strided" else y[:50].astype(">i8")
        core = self.make_core(0)
        core.run_batch = lambda x: y
        frame = core.stream_batch(to_stream(np.zeros(50, dtype=np.int64)))
        assert as_pairs(frame) == ref_output_frame(y.tolist())

    @settings(deadline=None)
    @given(hnp.arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=INT64),
           st.sampled_from(["2-d", "transposed", "big-endian", "uint64"]))
    def test_input_frames_of_any_operand_layout_equal_the_reference(self, values, layout):
        values = {"2-d": values, "transposed": values.T, "big-endian": values.astype(">i8"),
                  "uint64": values.astype(np.uint64)}[layout]
        assert as_pairs(to_stream(values)) == ref_to_stream(values.ravel().tolist())

    @settings(deadline=None, max_examples=50)
    @given(OPERANDS, st.integers(0, 2**32 - 1))
    def test_roundtrip_equals_run_batch_and_the_reference_decode(self, x, seed):
        core = self.make_core(seed)
        direct = core.run_batch(np.array(x))
        through = stream_roundtrip(core, x)
        assert through.dtype == np.int64
        np.testing.assert_array_equal(through, direct)
        # hand-built input frame in, reference decode out
        out = core.stream_batch(as_frame(ref_to_stream(x)))
        assert ref_decode_output_stream(as_pairs(out)) == through.tolist()

    @settings(deadline=None)
    @given(st.lists(st.booleans(), max_size=12), st.lists(st.integers(0, 2**32 - 1), min_size=12, max_size=12))
    def test_last_flag_patterns_raise_the_reference_message(self, flags, words):
        packets = list(zip(words, flags))
        expected = error_text(ref_decode_output_stream, packets)
        assert error_text(decode_output_stream, as_frame(packets)) == expected


class TestMalformedStreamInput:
    @pytest.mark.parametrize(
        "frame",
        [
            [0, 1],
            np.zeros((2, 2), dtype=PACKET),
            np.zeros((), dtype=PACKET),
            [(0, False), (1, True)],
            [SimpleNamespace(payload=0, last=False), SimpleNamespace(payload=1, last=True)],
        ],
        ids=["ints", "2-d-records", "0-d-record", "tuples", "packet-objects"],
    )
    def test_frame_that_is_not_a_packet_sequence_is_a_framing_error(self, frame):
        with pytest.raises(FramingError, match="malformed packet"):
            decode_output_stream(frame)

    def test_integer_payloads_keep_32_bit_masking(self):
        # -1 is the word 0xFFFFFFFF: a low word of all ones and a zero high word
        assert decode_output_stream(as_frame([(-1, False), (0, True)])).tolist() == [WORD_MASK]
        assert decode_output_stream(as_frame([(-1, False), (2**40 - 1, True)])).tolist() == [-1]
        core = MacArrayCore()
        core.load_weights(np.eye(50, dtype=np.int64))
        frame = to_stream(np.arange(50))
        frame["payload"][20:22] = -1, WORD_MASK  # the same word, written signed and unsigned
        y = decode_output_stream(core.stream_batch(frame))
        assert y[20] == y[21] == -1

    @pytest.mark.parametrize("word", [0x8000, 0xFFFF7FFF, 0x7FFFFFFF, 0x80000000])
    def test_input_words_outside_int16_are_rejected(self, word):
        core = MacArrayCore()
        core.load_weights(np.eye(50, dtype=np.int64))
        frame = to_stream(np.zeros(50, dtype=np.int64))
        frame["payload"][9] = word
        with pytest.raises(ValueError, match="^input values exceed the 16-bit signed operand range$"):
            core.stream_batch(frame)

    @pytest.mark.parametrize("word, operand", [(0x7FFF, 2**15 - 1), (0xFFFF8000, -(2**15)), (-1, -1), (2**40 + 5, 5)])
    def test_input_words_read_as_their_signed_low_32_bits(self, word, operand):
        core = MacArrayCore()
        core.load_weights(np.eye(50, dtype=np.int64))
        frame = to_stream(np.zeros(50, dtype=np.int64))
        frame["payload"][9] = word
        y = decode_output_stream(core.stream_batch(frame))
        assert y[9] == operand and not y[:9].any() and not y[10:].any()

    @pytest.mark.parametrize("values", [[1.5], [1.0], np.array([0.5, 2.0]), ["7"], [None]],
                             ids=["float", "integral-float", "float-array", "str", "none"])
    def test_non_integer_operands_cannot_be_streamed(self, values):
        message = f"values has dtype {np.asarray(values).dtype}, expected bool or int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            to_stream(values)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint32, np.uint64, np.bool_])
    def test_operands_of_any_integer_dtype_stream_like_python_ints(self, dtype):
        values = np.array([0, 1, 100, -1, -100]).astype(dtype)
        assert as_pairs(to_stream(values)) == ref_to_stream(values.tolist())


# ---------------------------------------------------------------------------
# Fixed-point matvec against the float oracle
# ---------------------------------------------------------------------------

class TestMatvecFixed:
    def test_zero_matrix(self):
        core = MacArrayCore()
        y = matvec_fixed(core, np.zeros((50, 50)), np.random.default_rng(0).uniform(-1, 1, 50), Q88)
        np.testing.assert_array_equal(y, np.zeros(50))

    def test_error_within_analytic_bound(self):
        rng = np.random.default_rng(99)
        core = MacArrayCore()
        for _ in range(50):
            w = rng.uniform(-1.0, 1.0, size=(50, 50))
            x = rng.uniform(-1.0, 1.0, size=50)
            y_fixed = matvec_fixed(core, w, x, Q88)
            y_float = w @ x
            bound = matvec_error_bound(
                float(np.abs(w).max()), float(np.abs(x).max()), 50, Q88
            )
            assert float(np.abs(y_fixed - y_float).max()) <= bound

    @pytest.mark.parametrize("fmt, expected", [
        (Q88, 50 * (1.5 * 2.0**-9 + 2.0**-18)),  # delta = 2^-9
        (FixedPointFormat(4, 12), 50 * (1.5 * 2.0**-13 + 2.0**-26)),  # delta = 2^-13
    ], ids=["Q8.8", "Q4.12"])
    def test_error_bound_is_its_closed_form(self, fmt, expected):
        # delta = 2^-(n+1) per operand; each of the 50 terms is off by at most x_max*delta + w_max*delta + delta^2.
        # Every value here is dyadic, so the bound is exact, not approximate.
        assert matvec_error_bound(w_max=1.0, x_max=0.5, chunk_len=50, fmt=fmt) == expected

    def test_on_grid_inputs_are_exact(self):
        # values already on the Q8.8 grid quantize losslessly, and the
        # float64 reference is exact at these magnitudes
        rng = np.random.default_rng(7)
        core = MacArrayCore()
        w = rng.integers(-256, 257, size=(50, 50)) / 256.0
        x = rng.integers(-256, 257, size=50) / 256.0
        y_fixed = matvec_fixed(core, w, x, Q88)
        np.testing.assert_array_equal(y_fixed, w @ x)

    def test_scaled_identity_recovers_input(self):
        core = MacArrayCore()
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.0, 1.0, size=50)
        y = matvec_fixed(core, np.eye(50), x, Q88)
        assert float(np.abs(y - x).max()) <= 2.0**-Q88.frac_bits

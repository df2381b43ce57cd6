"""Co-simulation tests: golden vectors, gate offload, throughput table."""

import numpy as np
import pytest

from drnnsim import lm
from drnnsim.accel import AcceleratorConfig, FixedPointFormat, MacArrayCore
from drnnsim.cosim import (
    BASELINE_FIXED_LSTM_GOPS,
    BASELINE_FLOAT32_LSTM_GFLOPS,
    golden_input,
    golden_test,
    golden_weight_matrix,
    offload_gate_preactivation,
    throughput_report,
)

Q88 = FixedPointFormat(8, 8)


class TestGoldenTest:
    def test_default_run_passes_with_expected_values(self):
        result = golden_test()
        assert result.passed
        assert result.hardware == result.software
        assert result.hardware == [1275 * j for j in range(1, 51)]
        assert result.hardware[0] == 1275
        assert result.hardware[-1] == 63750

    def test_zero_input_variant(self):
        core = MacArrayCore()
        core.load_weights(golden_weight_matrix(core.config))
        from drnnsim.accel import stream_roundtrip

        y = stream_roundtrip(core, np.zeros(50, dtype=np.int64))
        assert y.tolist() == [0] * 50

    def test_fault_injection_fails_only_at_the_corrupt_row(self):
        core = MacArrayCore()
        weights = golden_weight_matrix(core.config)
        weights[13, 7] += 1
        core.load_weights(weights)
        result = golden_test(core=core)
        assert not result.passed
        assert [m[0] for m in result.mismatches] == [13]
        index, expected, got = result.mismatches[0]
        assert expected == 1275 * 14
        assert got == expected + golden_input(core.config)[7]

    @pytest.mark.parametrize("core", ["x", 0, AcceleratorConfig()], ids=["str", "int", "config"])
    def test_core_must_be_a_mac_array_core(self, core):
        with pytest.raises(ValueError, match=f"^core must be a MacArrayCore or None, not {type(core).__name__}$"):
            golden_test(core=core)

    def test_str_rendering(self):
        assert "PASS" in str(golden_test())

    def test_str_of_a_failing_run_names_the_first_mismatches(self):
        core = MacArrayCore()
        weights = golden_weight_matrix(core.config)
        weights[2:9, 0] += 1  # rows 2..8 each gain golden_input[0] = 1
        core.load_weights(weights)
        text = str(golden_test(core=core))
        assert text.startswith("golden vector check: FAIL (7 mismatches: [2] expected 3825 got 3826, ")
        assert text.endswith("[6] expected 8925 got 8926)")


class TestOffload:
    def make_layer(self, seed=0, hidden=50):
        return lm.init_params(hidden=hidden, vocab=200, seed=seed).layers[0]

    def test_zero_state_reduces_to_column_plus_bias(self):
        layer = self.make_layer(seed=1)
        layer.b[:] = np.random.default_rng(1).uniform(-1.0, 1.0, layer.b.size)  # init_params sets every bias to 0
        assert layer.bf.all()
        result = offload_gate_preactivation(layer, np.zeros(50), 3, Q88)
        np.testing.assert_array_equal(result.accel, layer.Uf[:, 3] + layer.bf)
        np.testing.assert_array_equal(result.accel, result.float_ref)
        assert result.max_abs_err == 0.0

    def test_random_state_within_bound(self):
        rng = np.random.default_rng(6)
        layer = self.make_layer(seed=6)
        for _ in range(10):
            h_prev = rng.uniform(-1.0, 1.0, size=50)
            result = offload_gate_preactivation(layer, h_prev, int(rng.integers(200)), Q88)
            assert result.max_abs_err <= result.error_bound

    def test_finer_fraction_gives_smaller_error(self):
        rng = np.random.default_rng(8)
        layer = self.make_layer(seed=8)
        h_prev = rng.uniform(-1.0, 1.0, size=50)
        fine = offload_gate_preactivation(layer, h_prev, 5, FixedPointFormat(8, 8))
        coarse = offload_gate_preactivation(layer, h_prev, 5, FixedPointFormat(12, 4))
        assert fine.max_abs_err <= coarse.max_abs_err

    def test_dimension_mismatch(self):
        layer = self.make_layer(seed=2, hidden=32)
        with pytest.raises(ValueError, match=r"^weights has shape \(32, 32\), expected \(50, 50\)$"):
            offload_gate_preactivation(layer, np.zeros(32), 0, Q88)

    @pytest.mark.parametrize("x_id", [-1, 200, 10**6])
    def test_out_of_range_token_id(self, x_id):
        layer = self.make_layer(seed=2)
        with pytest.raises(ValueError, match=rf"token id {x_id} out of range \[0, 200\)"):
            offload_gate_preactivation(layer, np.zeros(50), x_id, Q88)

    @pytest.mark.parametrize("h_prev", [np.full(50, 0.5 + 0.25j), np.full(50, 0.5, dtype=object), np.full(50, "0.5")],
                             ids=["complex", "object", "str"])
    def test_non_real_state_is_rejected(self, h_prev):
        # a complex state must not lose its imaginary part to a float64 cast
        layer = self.make_layer(seed=2)
        with pytest.raises(ValueError, match=f"^h_prev has dtype {h_prev.dtype}, expected bool, int or float$"):
            offload_gate_preactivation(layer, h_prev, 0, Q88)

    @pytest.mark.parametrize("config", [0, "x"])
    def test_config_must_be_an_accelerator_config(self, config):
        with pytest.raises(ValueError, match="^config must be an AcceleratorConfig or None"):
            offload_gate_preactivation(self.make_layer(seed=2), np.zeros(50), 0, Q88, config)

    @pytest.mark.parametrize("fmt", [8, "8.8"], ids=["int", "str"])
    def test_fmt_must_be_a_fixed_point_format(self, fmt):
        with pytest.raises(ValueError, match=f"^fmt must be a FixedPointFormat, not {type(fmt).__name__}$"):
            offload_gate_preactivation(self.make_layer(seed=2), np.zeros(50), 0, fmt)

    def test_on_grid_values_are_exact(self):
        layer = self.make_layer(seed=3)
        rng = np.random.default_rng(3)
        layer.Wf[:] = rng.integers(-256, 257, size=(50, 50)) / 256.0
        h_prev = rng.integers(-256, 257, size=50) / 256.0
        result = offload_gate_preactivation(layer, h_prev, 0, Q88)
        assert result.max_abs_err == 0.0


class TestThroughputReport:
    def test_default_numbers_match_the_published_comparison(self):
        report = throughput_report()
        assert report.gops == 20.0
        ours, fixed_baseline, float_baseline = report.rows
        assert ours.speedup == 1.0
        assert fixed_baseline.speedup == pytest.approx(70.5, abs=0.1)
        assert float_baseline.speedup == pytest.approx(2.75, abs=0.05)
        assert fixed_baseline.throughput == BASELINE_FIXED_LSTM_GOPS
        assert float_baseline.throughput == BASELINE_FLOAT32_LSTM_GFLOPS

    def test_speedups_are_pure_ratios(self):
        report = throughput_report()
        for row in report.rows:
            assert row.speedup == pytest.approx(report.gops / row.throughput, rel=1e-12)

    def test_renderings(self):
        report = throughput_report()
        text = report.render_text()
        assert "20.0000" in text and "70.50x" in text
        csv = report.to_csv()
        assert csv.splitlines()[0] == "label,throughput,unit,speedup"
        assert len(csv.splitlines()) == 4

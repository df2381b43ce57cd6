"""Joint verification of the accelerator model against software oracles:
the consecutive-numbers golden vector test, gate pre-activation offload
with a float reference, and the throughput comparison table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import (
    AcceleratorConfig,
    FixedPointFormat,
    MacArrayCore,
    matvec_error_bound,
    matvec_fixed,
    stream_roundtrip,
)
from .lm import LstmLayerParams, _check_array, _check_token_id, _check_type

# Externally published baseline figures, used for ratio comparison only
# (never measured here). The first is a fixed-point LSTM-cell accelerator,
# the second a float-32 LSTM accelerator on a larger part.
BASELINE_FIXED_LSTM_GOPS = 0.2837
BASELINE_FLOAT32_LSTM_GFLOPS = 7.26


# ---------------------------------------------------------------------------
# Golden vector test
# ---------------------------------------------------------------------------

def golden_weight_matrix(config: AcceleratorConfig) -> np.ndarray:
    """Row r holds the constant r+1, so output r is (r+1) * sum(1..chunk)."""
    return np.tile(np.arange(1, config.rows + 1, dtype=np.int64)[:, None], (1, config.chunk_len))


def golden_input(config: AcceleratorConfig) -> np.ndarray:
    """Consecutive numbers 1..chunk_len."""
    return np.arange(1, config.chunk_len + 1, dtype=np.int64)


@dataclass(frozen=True)
class GoldenResult:
    passed: bool
    hardware: list[int]
    software: list[int]
    mismatches: list[tuple[int, int, int]]  # (index, expected, got)

    def __str__(self) -> str:
        if self.passed:
            return f"golden vector check: PASS ({len(self.hardware)} values, exact match)"
        head = ", ".join(f"[{i}] expected {e} got {g}" for i, e, g in self.mismatches[:5])
        return f"golden vector check: FAIL ({len(self.mismatches)} mismatches: {head})"


def golden_test(core: MacArrayCore | None = None) -> GoldenResult:
    """Drive consecutive numbers through the stream path and compare exactly.

    The software side is an independent plain double loop over Python
    integers. Passing a pre-loaded ``core`` lets a harness inject faults;
    the expected values always come from the clean golden weights.
    """
    if core is None:
        core = MacArrayCore()
        core.load_weights(golden_weight_matrix(core.config))
    _check_type(core, "core", MacArrayCore, "a MacArrayCore or None")
    config = core.config
    x = golden_input(config)
    hardware = [int(v) for v in stream_roundtrip(core, x)]

    weights = golden_weight_matrix(config)
    software = [
        sum(int(weights[r][k]) * int(x[k]) for k in range(config.chunk_len))
        for r in range(config.rows)
    ]
    mismatches = [(i, e, g) for i, (e, g) in enumerate(zip(software, hardware)) if e != g]
    return GoldenResult(
        passed=not mismatches, hardware=hardware, software=software, mismatches=mismatches
    )


# ---------------------------------------------------------------------------
# Gate pre-activation offload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffloadResult:
    accel: np.ndarray
    float_ref: np.ndarray
    max_abs_err: float
    error_bound: float


def offload_gate_preactivation(
    layer: LstmLayerParams,
    h_prev: np.ndarray,
    x_id: int,
    fmt: FixedPointFormat,
    config: AcceleratorConfig | None = None,
) -> OffloadResult:
    """Compute the forget-gate pre-activation with the recurrent half offloaded.

    W @ h_prev runs on the accelerator model in fixed point; the one-hot
    input term is a host-side column pick of U (zero multiplies), and the
    bias is added on the host. Returns the accelerated result, the float64
    reference, the observed max error, and the analytic quantization bound.
    ``h_prev`` must pass ``_check_array`` as a real (H,) array, else ValueError; it is read as float64.
    """
    core = MacArrayCore(config)
    _check_token_id(x_id, _check_type(layer, "layer", LstmLayerParams, "an LstmLayerParams").input_dim)
    h_prev = _check_array(h_prev, "h_prev", "biuf", (layer.hidden,)).astype(np.float64, copy=False)

    recurrent_term = matvec_fixed(core, layer.Wf, h_prev, fmt)
    host_term = layer.Uf[:, x_id] + layer.bf

    accel = recurrent_term + host_term
    float_ref = layer.Wf @ h_prev + host_term
    max_abs_err = float(np.max(np.abs(accel - float_ref)))
    bound = matvec_error_bound(
        w_max=float(np.max(np.abs(layer.Wf))),
        x_max=float(np.max(np.abs(h_prev))),
        chunk_len=core.config.chunk_len,
        fmt=fmt,
    )
    return OffloadResult(accel=accel, float_ref=float_ref, max_abs_err=max_abs_err, error_bound=bound)


# ---------------------------------------------------------------------------
# Throughput comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThroughputRow:
    label: str
    throughput: float
    unit: str
    speedup: float  # modeled GOPS / this row's throughput


@dataclass(frozen=True)
class ThroughputReport:
    gops: float
    rows: list[ThroughputRow]

    def render_text(self) -> str:
        lines = [f"{'label':<34} {'throughput':>12} {'unit':<7} {'speedup':>8}"]
        for row in self.rows:
            lines.append(
                f"{row.label:<34} {row.throughput:>12.4f} {row.unit:<7} {row.speedup:>7.2f}x"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["label,throughput,unit,speedup"]
        for row in self.rows:
            lines.append(f"{row.label},{row.throughput:.17g},{row.unit},{row.speedup:.17g}")
        return "\n".join(lines) + "\n"


def throughput_report() -> ThroughputReport:
    """Modeled GOPS of one batch of the default core plus speedup ratios against the baselines."""
    gops = AcceleratorConfig().report.gops
    rows = [
        ThroughputRow("mac array (this model)", gops, "GOPS", 1.0),
        ThroughputRow(
            "baseline: fixed-point lstm cell", BASELINE_FIXED_LSTM_GOPS, "GOPS",
            gops / BASELINE_FIXED_LSTM_GOPS,
        ),
        ThroughputRow(
            "baseline: float-32 lstm", BASELINE_FLOAT32_LSTM_GFLOPS, "GFLOPS",
            gops / BASELINE_FLOAT32_LSTM_GFLOPS,
        ),
    ]
    return ThroughputReport(gops=gops, rows=rows)

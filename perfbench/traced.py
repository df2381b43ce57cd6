"""The traced run: per-layer metrics from spans around drnnsim's public functions.

Each round runs the workload's dominant phase untraced, then every phase with
the tracer installed, each for half its usual share; two probes follow: the
tokenizer/vocabulary probe and a forward pass driven cell by cell. The
difference between the untraced and traced rate of the dominant phase is the
tracing overhead; alternating the two in rounds exposes both to the same
load on the machine.
"""

from __future__ import annotations

import numpy as np

import drnnsim
from drnnsim import corpus, lm

from tracer import Tracer, summarize
from workloads import PHASE_CLASSES, ROUNDS, Ops, Session, macs_per_token, n_params, rate_record, sim_counts

PROBE_PAIRS = 8
PROBE_REPEATS = 5
SGD_PASSES = 4  # per parameter: finiteness read of the gradient, then read gradient, read and write parameter


def _probe_corpus(s: Session, ops: Ops) -> None:
    for _ in range(PROBE_REPEATS):
        words = corpus.tokenize(s.text)
        vocab = corpus.build_vocab(words, max_words=s.vocab - 3)
        ops.check(words == s.words and vocab.size <= s.vocab, "corpus probe: tokenization differs from the corpus")


def _probe_cells(s: Session, tracer: Tracer, ops: Ops) -> None:
    """Drive the forward pass through lstm_cell_forward and softmax; it must equal stack_forward bitwise."""
    params = s.params
    for pair in s.pairs[:PROBE_PAIRS]:
        reference, _ = lm.stack_forward(params, pair.input)
        h = [np.zeros(params.hidden) for _ in params.layers]
        c = [np.zeros(params.hidden) for _ in params.layers]
        same = True
        for t, x in enumerate(pair.input):
            layer_input = x
            for l, layer in enumerate(params.layers):
                with tracer.span(f"probe.cell.l{l}"):
                    h[l], c[l] = lm.lstm_cell_forward(layer, layer_input, h[l], c[l])
                layer_input = h[l]
            with tracer.span("probe.output"):
                probs = lm.softmax(params.V @ h[-1])
            same = same and np.array_equal(probs, reference[t])
        ops.check(same, "cell probe: cell-by-cell forward differs from stack_forward")


def traced_run(s: Session, seconds: float, ops: Ops):
    """Returns (per-layer metrics as name -> (value, unit), info dict)."""
    main = s.workload.main
    slice_s = seconds / 2 / ROUNDS
    tracer = Tracer()

    def untraced():
        return tracer.suspended(drnnsim)

    base = PHASE_CLASSES[main](s, ops)
    with tracer.installed(drnnsim):
        phases = {p: cls(s, ops, untraced) for p, cls in PHASE_CLASSES.items()}
    for _ in range(ROUNDS):
        base.run_for(s.workload.share(main) * slice_s)
        with tracer.installed(drnnsim):
            for p, phase in phases.items():
                phase.run_for(s.workload.share(p) * slice_s)
    base.finish()
    with tracer.installed(drnnsim):
        for phase in phases.values():
            phase.finish()
        _probe_corpus(s, ops)
        _probe_cells(s, tracer, ops)
    base_result = base.result()
    results = {p: phase.result() for p, phase in phases.items()}

    main_metric = next(iter(base_result.metrics))
    untraced_rate = base_result.metrics[main_metric][0]
    traced_rate = results[main].metrics[main_metric][0]
    overhead_pct = (untraced_rate / traced_rate - 1.0) * 100.0

    def median(name: str, scale: float, parent: str | None = None) -> float:
        return summarize(tracer.durations(name, parent))["median"] * scale

    train, offload = results["train"].counters, results["offload"].counters
    sim = sim_counts(s.params.hidden, s.params.vocab)
    metrics = {
        **{
            f"lm.cell_us.l{l}": (median("lm.lstm_cell_forward", 1e6, f"probe.cell.l{l}"), "us")
            for l in range(len(s.params.layers))
        },
        "lm.output_us": (median("probe.output", 1e6), "us"),
        "lm.stack_forward_ms": (median("lm.stack_forward", 1e3, "training.evaluate"), "ms"),
        "lm.stack_step_us": (median("lm.stack_step", 1e6), "us"),
        "lm.macs_per_token": (macs_per_token(s.params.hidden, s.params.vocab), "count"),
        "training.bptt_ms": (median("training.bptt_gradients", 1e3), "ms"),
        "training.backward_self_ms": (summarize(tracer.self_times("training.bptt_gradients"))["median"] * 1e3, "ms"),
        "training.sgd_step_ms": (median("training.sgd_step", 1e3), "ms"),
        "training.grad_useful_frac": (train["grad_nonzero"] / train["grad_entries"], "ratio"),
        "training.sgd_bytes_per_step": (SGD_PASSES * 8 * n_params(s.params), "bytes"),
        "training.evaluate_ms": (median("training.evaluate", 1e3), "ms"),
        "training.save_model_ms": (median("training.save_model", 1e3), "ms"),
        "training.load_model_ms": (median("training.load_model", 1e3), "ms"),
        "accel.from_real_us": (median("accel.FixedPointTensor.from_real", 1e6), "us"),
        "accel.load_weights_us": (median("accel.MacArrayCore.load_weights", 1e6), "us"),
        "accel.run_batch_us": (median("accel.MacArrayCore.run_batch", 1e6), "us"),
        "accel.to_stream_us": (median("accel.to_stream", 1e6), "us"),
        "accel.stream_batch_us": (median("accel.MacArrayCore.stream_batch", 1e6), "us"),
        "accel.decode_output_stream_us": (median("accel.decode_output_stream", 1e6), "us"),
        "accel.batches": (offload["batches"], "count"),
        "accel.stream_words": (offload["stream_words"], "count"),
        "accel.saturated_frac": (offload["saturated_frac"], "ratio"),
        **{f"sim.{k}": (v, "count") for k, v in sim.items() if k.startswith("batches_per_token.")},
        "sim.cycles_per_token": (sim["cycles_per_token"], "cycles"),
        "sim.ns_per_token": (sim["ns_per_token"], "sim_ns"),
        "sim.gops_per_token": (sim["gops_per_token"], "GOPS"),
        "cosim.offload_us": (median("cosim.offload_gate_preactivation", 1e6), "us"),
        "cosim.golden_test_ms": (median("cosim.golden_test", 1e3), "ms"),
        "cosim.err_over_bound": (offload["gate_err_over_bound"], "ratio"),
        "corpus.tokenize_ms": (median("corpus.tokenize", 1e3), "ms"),
        "corpus.build_vocab_ms": (median("corpus.build_vocab", 1e3), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    info = {
        "trace_overhead": {
            "phase": main, "metric": main_metric, "untraced": untraced_rate, "traced": traced_rate,
            "overhead_pct": overhead_pct,
        },
        "modules": {
            name: {"self_s": v["self_s"], "spans": v["spans"]}
            for name, v in tracer.module_totals().items() if name != "probe"
        },
        "spans": {
            name: summarize(tracer.durations(name))
            for name in sorted(set(tracer.names))
        },
        **rate_record(results),
    }
    return metrics, info

"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured numbers (run with ``pytest -v -s``).

Criterion 7 checks the size of a hidden=128 / vocab=8000 float32 model file
against the exact figure the documented topology and container layout give:
4H(V+H+1) + 2*4H(2H+1) + VH = 5,449,216 parameters at 4 bytes each, plus a
12-byte header and (2 + name bytes + 2 + 8*rank) bytes per array. The size
is derived from H and V in the test, never read back from a saved file. An
earlier 17 MB +-20% budget was dropped: no file holding this topology can be
under its 21.8 MB of float32 data, and where 17 MB came from is not recorded.
"""

import math
import time

import numpy as np

from drnnsim import accel, corpus, cosim, lm, training
from drnnsim.cli import main

FIG15_GOLDEN = [
    1275, 2550, 3825, 5100, 6375, 7650, 8925, 10200, 11475, 12750,
    14025, 15300, 16575, 17850, 19125, 20400, 21675, 22950, 24225, 25500,
    26775, 28050, 29325, 30600, 31875, 33150, 34425, 35700, 36975, 38250,
    39525, 40800, 42075, 43350, 44625, 45900, 47175, 48450, 49725, 51000,
    52275, 53550, 54825, 56100, 57375, 58650, 59925, 61200, 62475, 63750,
]


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_golden_vectors():
    t0 = time.perf_counter()
    result = cosim.golden_test()
    elapsed = time.perf_counter() - t0
    ok = (
        result.passed
        and result.hardware == FIG15_GOLDEN
        and result.software == FIG15_GOLDEN
        and elapsed < 1.0
    )
    report(1, "golden vectors", ok,
           f"50 values exact, first={result.hardware[0]}, last={result.hardware[-1]}, "
           f"{elapsed*1e3:.0f} ms")


def test_criterion_2_throughput_arithmetic():
    t0 = time.perf_counter()
    core = accel.MacArrayCore()
    batch_report = core.report()
    table = cosim.throughput_report()
    elapsed = time.perf_counter() - t0
    speedup_fixed = table.rows[1].speedup
    speedup_float = table.rows[2].speedup
    ok = (
        batch_report.mult_ops == 2500
        and batch_report.add_ops == 2500
        and batch_report.latency_ns == 250.0
        and batch_report.gops == 20.0
        and abs(speedup_fixed - 70.5) <= 0.1
        and abs(speedup_float - 2.75) <= 0.05
        and elapsed < 1.0
    )
    report(2, "throughput arithmetic", ok,
           f"2500+2500 ops / 250 ns = {batch_report.gops} GOPS, "
           f"speedups {speedup_fixed:.3f}x / {speedup_float:.4f}x")


def test_criterion_3_gradient_correctness():
    from test_gradients import check_all_gradients

    t0 = time.perf_counter()
    params = lm.init_params(hidden=4, vocab=8, seed=7)
    pair = corpus.TrainingPair(input=[5, 0, 3, 1, 6], label=[0, 3, 6, 2, 6])
    worst, worst_name = check_all_gradients(params, pair)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(3, "gradient correctness", ok,
           f"worst relative error {worst:.3e} ({worst_name}), {elapsed:.1f} s")


def test_criterion_4_fixed_point_fidelity():
    fmt = accel.FixedPointFormat(8, 8)
    rng = np.random.default_rng(2024)
    core = accel.MacArrayCore()
    worst_err = 0.0
    worst_margin = math.inf
    oracle_mismatches = 0
    trials = 1000
    for trial in range(trials):
        w = rng.uniform(-1.0, 1.0, size=(50, 50))
        x = rng.uniform(-1.0, 1.0, size=50)
        y_fixed = accel.matvec_fixed(core, w, x, fmt)
        y_float = w @ x
        err = float(np.abs(y_fixed - y_float).max())
        bound = accel.matvec_error_bound(
            float(np.abs(w).max()), float(np.abs(x).max()), 50, fmt
        )
        worst_err = max(worst_err, err)
        worst_margin = min(worst_margin, bound - err)

        # integer mode against the brute-force oracle, exact
        w_raw = accel.FixedPointTensor.from_real(w, fmt).raw
        x_raw = accel.FixedPointTensor.from_real(x, fmt).raw
        core.load_weights(w_raw)
        y_int = core.run_batch(x_raw)
        w_list, x_list = w_raw.tolist(), x_raw.tolist()
        oracle = [
            sum(w_list[r][k] * x_list[k] for k in range(50)) for r in range(50)
        ]
        if y_int.tolist() != oracle:
            oracle_mismatches += 1
    ok = worst_margin >= 0.0 and oracle_mismatches == 0
    report(4, "fixed-point fidelity", ok,
           f"{trials} matvecs, worst |err| {worst_err:.3e} (margin to bound "
           f"{worst_margin:.3e}), integer oracle mismatches {oracle_mismatches}")


def test_criterion_5_perplexity_invariants():
    vocab = 4000
    steps = 9
    uniform = [np.full(vocab, 1.0 / vocab) for _ in range(steps)]
    labels = [7] * steps
    loss = training.sequence_loss(uniform, labels)
    ppl_uniform = math.exp(loss / steps)
    uniform_ok = abs(ppl_uniform - vocab) / vocab < 0.001

    params = lm.init_params(hidden=6, vocab=12, seed=5)
    pairs = corpus.pairs_from_encoded([[3, 1, 0], [2, 2], [8]], 12)
    consistency_ok = True
    for pair in pairs:
        outputs, _ = lm.stack_forward(params, pair.input)
        pair_loss = training.sequence_loss(outputs, pair.label)
        tokens = len(pair.label)
        mean = pair_loss / tokens
        consistency_ok &= training.evaluate(params, [pair]) == (mean, math.exp(mean))

    score_ok = True
    for sentence in ([4], [0, 1, 2], [5, 5, 5, 5]):
        inputs = [corpus.start_token_id(12)] + sentence[:-1]
        outputs, _ = lm.stack_forward(params, inputs)
        score_ok &= training.score_sentence(params, sentence) == -training.sequence_loss(
            outputs, sentence
        )

    ok = uniform_ok and consistency_ok and score_ok
    report(5, "perplexity invariants", ok,
           f"uniform ppl {ppl_uniform:.6f} vs vocab {vocab}, "
           f"exp/log consistent={consistency_ok}, score identity={score_ok}")


def test_criterion_6_training_behavior():
    t0 = time.perf_counter()
    text = corpus.bundled_corpus_path().read_text(encoding="utf-8")
    sentences = corpus.tokenize(text)
    vocab = corpus.build_vocab(sentences, max_words=100)
    pairs = corpus.make_training_pairs(sentences, vocab)
    assert len(pairs) <= 200 and vocab.size <= 100

    params = lm.init_params(hidden=16, vocab=vocab.size, seed=42)
    _, ppl_start = training.evaluate(params, pairs)
    config = training.TrainConfig(learning_rate=0.1, epochs=100, eval_interval=100, rng_seed=42)
    _, log = training.train(params, pairs, config)
    epochs = log.epoch_records()
    elapsed = time.perf_counter() - t0

    loss_ratio = epochs[-1].mean_loss / epochs[0].mean_loss
    ppl_final = epochs[-1].perplexity
    ok = (
        abs(ppl_start - vocab.size) / vocab.size < 0.05
        and loss_ratio < 0.60
        and ppl_final < 0.5 * vocab.size
        and elapsed < 300.0
    )
    report(6, "training behavior", ok,
           f"{len(pairs)} sentences, vocab {vocab.size}: ppl {ppl_start:.1f} -> "
           f"{ppl_final:.2f}, final/first epoch loss {loss_ratio:.3f}, {elapsed:.0f} s")


def expected_model_layout(hidden, vocab):
    """Name -> shape of every array in a model file, in file order.

    Three layers of four gates (f, i, o, g), each gate a recurrent H x H
    matrix W, an input matrix U (H x V on the one-hot layer 0, H x H above)
    and a bias b of length H; then the V x H output projection, no bias.
    """
    layout = {}
    for l in range(3):
        input_dim = vocab if l == 0 else hidden
        for kind, shape in (("W", (hidden, hidden)), ("U", (hidden, input_dim)),
                            ("b", (hidden,))):
            for gate in "fiog":
                layout[f"layer{l}.{kind}{gate}"] = shape
    layout["V"] = (vocab, hidden)
    return layout


def expected_file_size(layout, itemsize):
    """Container bytes: magic + version + count, then per array a u16 name
    length, the name, dtype and rank bytes, u64 dims and the raw data."""
    header = 4 + 4 + 4
    meta = sum(2 + len(name.encode("utf-8")) + 2 + 8 * len(shape)
               for name, shape in layout.items())
    data = sum(math.prod(shape) for shape in layout.values()) * itemsize
    return header + meta + data


def test_criterion_7_persistence(tmp_path):
    params = lm.init_params(hidden=5, vocab=11, seed=3)
    path = tmp_path / "roundtrip.drnn"
    training.save_model(params, path)
    loaded = training.load_model(path)
    roundtrip_ok = all(
        np.array_equal(arr, training.named_arrays(loaded)[name])
        for name, arr in training.named_arrays(params).items()
    )

    H, V = 128, 8000
    layout = expected_model_layout(H, V)
    n_params = 4 * H * (V + H + 1) + 2 * 4 * H * (2 * H + 1) + V * H
    expected = expected_file_size(layout, itemsize=4)

    big = lm.init_params(hidden=H, vocab=V, seed=0)
    saved = training.named_arrays(big)
    layout_ok = (
        n_params == 5_449_216
        and sum(math.prod(shape) for shape in layout.values()) == n_params
        and [(name, arr.shape) for name, arr in saved.items()] == list(layout.items())
    )
    big_path = tmp_path / "big.drnn"
    training.save_model(big, big_path, dtype="f32")
    size = big_path.stat().st_size
    size_ok = size == expected

    reloaded = training.named_arrays(training.load_model(big_path))
    f32_ok = list(reloaded) == list(saved) and all(
        np.array_equal(reloaded[name], arr.astype(np.float32).astype(np.float64))
        for name, arr in saved.items()
    )

    ok = roundtrip_ok and layout_ok and size_ok and f32_ok
    report(7, "persistence", ok,
           f"roundtrip bitwise exact={roundtrip_ok}; hidden={H}/vocab={V} f32 file "
           f"{size/1e6:.1f} MB ({size} bytes) vs derived {expected} bytes "
           f"({n_params} params, layout ok={layout_ok}) -> "
           f"{'exact' if size_ok else 'mismatch'}; f32 reload exact={f32_ok}")


def test_criterion_8_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text(corpus.bundled_corpus_path().read_text(encoding="utf-8"))

    artifacts = []
    for tag in ("a", "b"):
        vocab_out = tmp_path / f"vocab_{tag}.txt"
        tokens_out = tmp_path / f"tokens_{tag}.txt"
        model_out = tmp_path / f"model_{tag}.drnn"
        log_out = tmp_path / f"log_{tag}.csv"
        trace_out = tmp_path / f"trace_{tag}.csv"
        assert main(["prep", str(corpus_path), "--vocab-size", "100",
                     "--vocab-out", str(vocab_out), "--tokens-out", str(tokens_out)]) == 0
        assert main(["train", str(tokens_out), "--vocab", str(vocab_out),
                     "--hidden", "8", "--epochs", "2", "--lr", "0.05", "--seed", "123",
                     "--model-out", str(model_out), "--log-out", str(log_out)]) == 0
        assert main(["accel-bench", "--batches", "2", "--trace-out", str(trace_out)]) == 0
        artifacts.append(
            (model_out.read_bytes(), log_out.read_bytes(), trace_out.read_bytes())
        )
    ok = artifacts[0] == artifacts[1]
    report(8, "determinism", ok,
           "model, log, and simulator trace bytes identical across two seeded runs")

"""Loss, scoring, SGD, and training-loop tests."""

import copy
import math
import re
import types

import numpy as np
import pytest

from drnnsim import corpus, cosim, lm, training
from drnnsim.accel import FixedPointFormat
from drnnsim.corpus import TrainingPair
from drnnsim.training import (
    DivergenceError,
    TrainConfig,
    TrainingLog,
    bptt_gradients,
    evaluate,
    named_arrays,
    score_sentence,
    sequence_loss,
    sgd_step,
    train,
)


def uniform_outputs(steps, vocab):
    return [np.full(vocab, 1.0 / vocab) for _ in range(steps)]


class TestCrossEntropy:
    def test_uniform_over_large_vocab(self):
        pred = np.full(4000, 1.0 / 4000)
        assert sequence_loss([pred], [17]) == pytest.approx(math.log(4000), abs=1e-12)
        assert sequence_loss([pred], [17]) == pytest.approx(8.29405, abs=1e-5)

    def test_perfect_prediction_scores_zero(self):
        pred = np.zeros(5)
        pred[2] = 1.0
        assert sequence_loss([pred], [2]) == 0.0

    def test_one_over_e(self):
        pred = np.full(4, (1 - 1 / math.e) / 3)
        pred[1] = 1 / math.e
        assert sequence_loss([pred], [1]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_is_floored(self):
        pred = np.zeros(3)
        pred[0] = 1.0
        loss = sequence_loss([pred], [2])
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), abs=1e-9)

    def test_invalid_target(self):
        with pytest.raises(ValueError, match=r"^target id 4 out of range \[0, 4\)$"):
            sequence_loss([np.full(4, 0.25)], [4])


class TestSequenceLoss:
    def test_uniform_closed_form(self):
        assert sequence_loss(uniform_outputs(7, 50), [0] * 7) == pytest.approx(
            7 * math.log(50), abs=1e-10
        )

    def test_empty_sequence(self):
        assert sequence_loss([], []) == 0.0

    def test_single_step_reduces_to_cross_entropy(self):
        out = np.array([0.1, 0.6, 0.3])
        assert sequence_loss([out], [1]) == -math.log(0.6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sequence_loss(uniform_outputs(2, 4), [0])


class TestScoreSentence:
    def test_uniform_single_token(self):
        params = lm.LstmStackParams(np.zeros(lm.init_params(hidden=2, vocab=5).flat.size), hidden=2, vocab=5)
        assert score_sentence(params, [1]) == pytest.approx(math.log(1 / 5), abs=1e-12)

    def test_equals_negative_sequence_loss(self):
        params = lm.init_params(hidden=4, vocab=9, seed=8)
        sentence = [2, 5, 0, 3]
        inputs = [corpus.start_token_id(9)] + sentence[:-1]
        outputs, _ = lm.stack_forward(params, inputs)
        assert score_sentence(params, sentence) == -sequence_loss(outputs, sentence)

    def test_appending_never_increases_log_probability(self):
        params = lm.init_params(hidden=4, vocab=9, seed=10)
        rng = np.random.default_rng(10)
        sentence = [int(rng.integers(9))]
        prev = score_sentence(params, sentence)
        for _ in range(6):
            sentence.append(int(rng.integers(9)))
            cur = score_sentence(params, sentence)
            assert cur <= prev
            prev = cur

    def test_empty_sentence_is_an_error(self):
        params = lm.init_params(hidden=3, vocab=6, seed=0)
        with pytest.raises(ValueError):
            score_sentence(params, [])


def dense_reference_step(params, pair, learning_rate):
    """One SGD step with a dense 4H x V layer-0 input gradient.

    The update as it was before that gradient went column-sparse: the
    tokens' dZ rows are added in sentence order into a zero array of U's
    shape, then every one of the 37 named arrays is updated by
    ``p -= learning_rate * g``.
    """
    outputs, traces = lm.stack_forward_trace(params, pair.input)
    dz_out = np.array(outputs)
    dz_out[np.arange(len(pair.label)), pair.label] -= 1.0
    grad_V = dz_out.T @ traces[-1].h[1:]
    dh_in = dz_out @ params.V
    grad_layers = []
    for l in reversed(range(len(params.layers))):
        layer, tr = params.layers[l], traces[l]
        dZ = lm._layer_backward(layer, tr, dh_in)
        if l == 0:
            grad_U = np.zeros_like(layer.U)
            np.add.at(grad_U.T, list(pair.input), dZ)
        else:
            grad_U = dZ.T @ traces[l - 1].h[1:]
            dh_in = dZ @ layer.U
        grad_layers.append(lm.LstmLayerParams(dZ.T @ tr.h[:-1], grad_U, dZ.sum(axis=0)))
    grads = types.SimpleNamespace(layers=grad_layers[::-1], V=grad_V)  # all that named_arrays reads
    for p, g in zip(named_arrays(params).values(), named_arrays(grads).values()):
        p -= learning_rate * g


def param_bytes(params):
    return {name: arr.tobytes() for name, arr in named_arrays(params).items()}


# Each entry point that takes token ids, driven with one bad id ``x``: at
# layer 0's input, at the label, or both.
TOKEN_ID_ENTRY_POINTS = {
    "stack_forward": lambda p, x: lm.stack_forward(p, [0, x]),
    "stack_forward_trace": lambda p, x: lm.stack_forward_trace(p, [x]),
    "stack_step": lambda p, x: lm.stack_step(p, x, lm.zero_state(p)),
    "lstm_cell_forward": lambda p, x: lm.lstm_cell_forward(p.layers[0], x, np.zeros(p.hidden), np.zeros(p.hidden)),
    "sequence_loss": lambda p, x: sequence_loss(uniform_outputs(1, p.vocab), [x]),
    "score_sentence": lambda p, x: score_sentence(p, [x, 0]),
    "evaluate": lambda p, x: evaluate(p, [TrainingPair([x], [0])]),
    "bptt_gradients": lambda p, x: bptt_gradients(p, TrainingPair([0, x], [x, 0])),
    "train-input": lambda p, x: train(p, [TrainingPair([x], [0])], TrainConfig(epochs=1)),
    "train-label": lambda p, x: train(p, [TrainingPair([0], [x])], TrainConfig(epochs=1)),
    "offload_gate_preactivation": lambda p, x: cosim.offload_gate_preactivation(
        p.layers[0], np.zeros(p.hidden), x, FixedPointFormat(8, 8)),
    "Vocabulary.decode": lambda p, x: corpus.Vocabulary([*"abcde", *corpus.SPECIAL_TOKENS]).decode(x),
}


@pytest.mark.parametrize("bad_id", [1.7, "3", np.float64(2.0), True], ids=["float", "str", "np.float64", "bool"])
@pytest.mark.parametrize("entry", TOKEN_ID_ENTRY_POINTS.values(), ids=TOKEN_ID_ENTRY_POINTS.keys())
def test_a_non_integer_token_id_is_named_not_coerced(entry, bad_id):
    params = lm.init_params(hidden=50, vocab=8, seed=0)  # the offload tiles need hidden 50
    before = param_bytes(params)
    with pytest.raises(ValueError, match=rf"^(token|target) id {re.escape(repr(bad_id))} is not an integer$"):
        entry(params, bad_id)
    assert param_bytes(params) == before


def zeroed_gradients(params, pair):
    """Real BPTT gradients of ``pair`` with every entry set to zero."""
    _, grads = bptt_gradients(params, pair)
    for g in named_arrays(grads).values():
        g[...] = 0.0
    return grads


class TestSgdStep:
    def test_zero_gradients_leave_params_unchanged(self):
        params = lm.init_params(hidden=3, vocab=6, seed=1)
        before = param_bytes(params)
        grads = zeroed_gradients(params, TrainingPair(input=[5, 0, 3, 0], label=[0, 3, 0, 4]))
        assert grads.layers[0].U.shape == (12, 3) and grads.input_ids.tolist() == [0, 3, 5]
        sgd_step(params, grads, learning_rate=0.5)
        assert param_bytes(params) == before

    @pytest.mark.parametrize("hidden, vocab", [(4, 8), (16, 59)])
    def test_matches_the_dense_update_bitwise(self, hidden, vocab):
        rng = np.random.default_rng(vocab)
        sparse = lm.init_params(hidden=hidden, vocab=vocab, seed=3)
        dense = copy.deepcopy(sparse)
        for _ in range(20):
            # more steps than 6 distinct ids: every sentence repeats a token
            steps = int(rng.integers(7, 14))
            pair = TrainingPair(input=rng.integers(0, 6, steps).tolist(), label=rng.integers(0, vocab, steps).tolist())
            _, grads = bptt_gradients(sparse, pair)
            sgd_step(sparse, grads, learning_rate=0.1)
            dense_reference_step(dense, pair, learning_rate=0.1)
        assert param_bytes(sparse) == param_bytes(dense)

    def test_update_arithmetic(self):
        params = lm.init_params(hidden=2, vocab=4, seed=0)
        params.V[:] = 1.0
        grads = zeroed_gradients(params, TrainingPair(input=[3, 1, 2], label=[1, 2, 0]))
        grads.V[:] = 0.5
        sgd_step(params, grads, learning_rate=0.1)
        np.testing.assert_allclose(params.V, np.full((4, 2), 0.95), atol=1e-15)

    def test_descent_on_a_fixed_pair(self):
        params = lm.init_params(hidden=4, vocab=8, seed=3)
        pair = TrainingPair(input=[5, 0, 3], label=[0, 3, 6])
        loss_before, grads = bptt_gradients(params, pair)
        sgd_step(params, grads, learning_rate=1e-3)
        loss_after, _ = bptt_gradients(params, pair)
        assert loss_after < loss_before

    @pytest.mark.parametrize(
        "array, index, bad",
        [
            (lambda g: g.layers[0].W, 0, np.nan),  # the dense buffer's first entry
            (lambda g: g.layers[0].W, -1, np.inf),  # its last entry before layer 0's U in the parameters
            (lambda g: g.layers[1].W, -1, np.nan),
            (lambda g: g.layers[0].U, -1, np.nan),  # the compact 4H x k input gradient
            (lambda g: g.layers[2].b, -1, np.nan),
            (lambda g: g.V, -1, np.inf),  # the dense buffer's last entry
        ],
        ids=["layer0.W-first", "layer0.W-last", "layer1.W", "layer0.U", "layer2.b", "V"],
    )
    def test_non_finite_gradient_raises(self, array, index, bad):
        params = lm.init_params(hidden=2, vocab=4, seed=0)
        before = param_bytes(params)
        _, grads = bptt_gradients(params, TrainingPair(input=[1, 3, 1], label=[3, 1, 2]))
        array(grads).flat[index] = bad
        with pytest.raises(DivergenceError, match="diverged"):
            sgd_step(params, grads, learning_rate=0.1)
        # failed update must not touch anything
        assert param_bytes(params) == before

    def test_a_finite_gradient_whose_step_overflows_raises(self):
        params = lm.init_params(hidden=2, vocab=4, seed=0)
        before = param_bytes(params)
        _, grads = bptt_gradients(params, TrainingPair(input=[1, 3, 1], label=[3, 1, 2]))
        grads.V[0, 0] = 4.0  # finite, but 4.0 * 1e308 is not
        with pytest.raises(DivergenceError, match="^diverged: non-finite gradient$"):
            sgd_step(params, grads, learning_rate=1e308)
        assert param_bytes(params) == before

    def test_a_finite_step_whose_squares_overflow_is_applied(self):
        params = lm.init_params(hidden=2, vocab=4, seed=0)
        _, grads = bptt_gradients(params, TrainingPair(input=[1, 3, 1], label=[3, 1, 2]))
        grads.V[0, 0] = 1e200  # finite, but its square overflows the finiteness screen
        expected = copy.deepcopy(params)  # flat - step, with layer 0's input step at the input_ids columns
        for (name, p), g in zip(named_arrays(expected).items(), named_arrays(grads).values()):
            if name.startswith("layer0.U"):
                p[:, grads.input_ids] -= g
            else:
                p -= g
        sgd_step(params, grads, learning_rate=1.0)
        assert param_bytes(params) == param_bytes(expected)
        assert params.V[0, 0] == -1e200

    @pytest.mark.parametrize("learning_rate", [0.0, -0.1, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_bad_learning_rate_leaves_params_unchanged(self, learning_rate):
        params = lm.init_params(hidden=2, vocab=4, seed=0)
        before = param_bytes(params)
        _, grads = bptt_gradients(params, TrainingPair(input=[1, 3, 1], label=[3, 1, 2]))
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            sgd_step(params, grads, learning_rate=learning_rate)
        assert param_bytes(params) == before


def toy_pairs(n_sentences=10, seed=0):
    rng = np.random.default_rng(seed)
    lexicon = ["sun", "moon", "rises", "sets", "the", "slowly", "."]
    sentences = [
        [str(rng.choice(lexicon)) for _ in range(int(rng.integers(2, 6)))]
        for _ in range(n_sentences)
    ]
    vocab = corpus.build_vocab(sentences, max_words=50)
    return corpus.make_training_pairs(sentences, vocab), vocab


class TestTrain:
    def test_one_epoch_one_pair_equals_manual_update(self):
        pairs, vocab = toy_pairs(n_sentences=1, seed=5)
        config = TrainConfig(learning_rate=0.01, epochs=1, eval_interval=100, rng_seed=5)

        manual = lm.init_params(hidden=3, vocab=vocab.size, seed=5)
        _, grads = bptt_gradients(manual, pairs[0])
        sgd_step(manual, grads, learning_rate=0.01)

        trained = lm.init_params(hidden=3, vocab=vocab.size, seed=5)
        trained, log = train(trained, pairs, config)

        for name, arr in named_arrays(trained).items():
            np.testing.assert_array_equal(arr, named_arrays(manual)[name])
        assert len(log.epoch_records()) == 1

    def test_training_a_deep_copy_equals_training_the_original(self):
        # perfbench's train checkpoint trains a deep copy of the session model as its reference:
        # the copy's layer views must read the buffer that its SGD steps write.
        pairs, vocab = toy_pairs(n_sentences=6, seed=4)
        config = TrainConfig(learning_rate=0.05, epochs=1, rng_seed=4)
        original = lm.init_params(hidden=4, vocab=vocab.size, seed=4)
        clone = copy.deepcopy(original)
        train(original, pairs, config)
        train(clone, pairs, config)
        assert param_bytes(clone) == param_bytes(original)

    def test_loss_decreases_on_toy_corpus(self):
        pairs, vocab = toy_pairs(n_sentences=10, seed=1)
        params = lm.init_params(hidden=8, vocab=vocab.size, seed=1)
        config = TrainConfig(learning_rate=0.05, epochs=50, eval_interval=1000, rng_seed=1)
        _, log = train(params, pairs, config)
        epochs = log.epoch_records()
        assert epochs[-1].mean_loss < epochs[0].mean_loss

    def test_perplexity_starts_near_vocab_and_decreases(self):
        pairs, vocab = toy_pairs(n_sentences=10, seed=2)
        params = lm.init_params(hidden=8, vocab=vocab.size, seed=2)
        _, ppl0 = evaluate(params, pairs)
        assert ppl0 == pytest.approx(vocab.size, rel=0.05)
        config = TrainConfig(learning_rate=0.05, epochs=30, eval_interval=1000, rng_seed=2)
        _, log = train(params, pairs, config)
        assert log.epoch_records()[-1].perplexity < ppl0

    def test_identical_seeds_give_identical_logs(self):
        pairs, vocab = toy_pairs(n_sentences=8, seed=3)
        logs = []
        for _ in range(2):
            params = lm.init_params(hidden=4, vocab=vocab.size, seed=3)
            _, log = train(params, pairs, TrainConfig(
                learning_rate=0.02, epochs=5, eval_interval=7, rng_seed=3))
            logs.append(log)
        assert logs[0].records == logs[1].records

    def test_interval_records_appear_at_the_interval(self):
        pairs, vocab = toy_pairs(n_sentences=10, seed=4)
        params = lm.init_params(hidden=4, vocab=vocab.size, seed=4)
        _, log = train(params, pairs, TrainConfig(
            learning_rate=0.02, epochs=3, eval_interval=10, rng_seed=4))
        # 30 steps -> interval records at steps 10, 20, 30 plus 3 epoch records
        assert [r.step for r in log.records if r.kind == "interval"] == [10, 20, 30]
        assert [r.step for r in log.epoch_records()] == [10, 20, 30]
        # each interval window is its epoch's 10 sentences, summed in the same order
        intervals = [r.mean_loss for r in log.records if r.kind == "interval"]
        assert intervals == [r.mean_loss for r in log.epoch_records()]

    def test_divergence_aborts_with_step_index(self):
        # the saturating activations and the loss floor make organic
        # divergence nearly impossible, so corrupt the parameters directly
        pairs, vocab = toy_pairs(n_sentences=4, seed=6)
        params = lm.init_params(hidden=4, vocab=vocab.size, seed=6)
        params.V[0, 0] = np.nan
        config = TrainConfig(learning_rate=0.01, epochs=2, eval_interval=1000, rng_seed=6)
        with pytest.raises(DivergenceError, match="^diverged: non-finite loss at step 1$"):
            train(params, pairs, config)

    def test_non_finite_gradient_aborts_with_step_index(self, monkeypatch):
        # a finite loss with a non-finite gradient: sgd_step's error is re-raised with the step
        calls = []

        def third_gradient_is_nan(params, pair):
            loss, grads = bptt_gradients(params, pair)
            calls.append(pair)
            if len(calls) == 3:
                grads.V[0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "bptt_gradients", third_gradient_is_nan)
        pairs, vocab = toy_pairs(n_sentences=4, seed=6)
        params = lm.init_params(hidden=4, vocab=vocab.size, seed=6)
        config = TrainConfig(learning_rate=0.01, epochs=2, eval_interval=1000, rng_seed=6)
        with pytest.raises(DivergenceError, match="^diverged: non-finite gradient at step 3$"):
            train(params, pairs, config)

    def test_empty_pairs_is_an_error(self):
        params = lm.init_params(hidden=2, vocab=5, seed=0)
        with pytest.raises(ValueError):
            train(params, [], TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="eval_interval must be >= 1"):
            TrainConfig(eval_interval=0)
        for learning_rate in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=learning_rate)


def sgd_step_at_rate(learning_rate):
    params = lm.init_params(hidden=2, vocab=4, seed=0)
    before = copy.deepcopy(params)
    _, grads = bptt_gradients(params, TrainingPair([0, 1], [1, 2]))
    try:
        sgd_step(params, grads, learning_rate)
    finally:
        for name, arr in named_arrays(before).items():
            assert named_arrays(params)[name].tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("make, message", [
    (lambda: TrainConfig(eval_interval=1.5), "eval_interval must be an integer, got 1.5"),
    (lambda: TrainConfig(epochs=True), "epochs must be an integer, got True"),
    (lambda: TrainConfig(epochs=2.5), "epochs must be an integer, got 2.5"),
    (lambda: TrainConfig(rng_seed=1.5), "rng_seed must be an integer, got 1.5"),
    (lambda: TrainConfig(learning_rate=True), "learning_rate must be a real number, got True"),
    (lambda: TrainConfig(learning_rate="0.1"), "learning_rate must be a real number, got '0.1'"),
    (lambda: TrainConfig(learning_rate=1j), "learning_rate must be a real number, got 1j"),
    (lambda: sgd_step_at_rate(True), "learning_rate must be a real number, got True"),
    (lambda: sgd_step_at_rate("0.1"), "learning_rate must be a real number, got '0.1'"),
    (lambda: sgd_step_at_rate(float("nan")), "learning_rate must be finite and > 0, got nan"),
], ids=["interval-float", "epochs-bool", "epochs-float", "seed-float", "rate-bool", "rate-str", "rate-complex",
        "sgd-rate-bool", "sgd-rate-str", "sgd-rate-nan"])
def test_training_sizes_and_rates_follow_the_integer_and_rate_rules(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_numpy_integer_sizes_train_as_python_ints():
    pairs, vocab = toy_pairs(n_sentences=3, seed=7)
    logs = []
    for epochs, interval, seed in ((2, 2, 7), (np.int64(2), np.uint8(2), np.int32(7))):
        params = lm.init_params(hidden=3, vocab=vocab.size, seed=7)
        _, log = train(params, pairs, TrainConfig(learning_rate=0.05, epochs=epochs, eval_interval=interval,
                                                  rng_seed=seed))
        logs.append(log.to_csv())
    assert logs[0] == logs[1]


def test_numpy_integer_config_fields_are_stored_as_python_ints():
    config = TrainConfig(epochs=np.int64(3), eval_interval=np.uint8(2), rng_seed=np.int32(7))
    assert [(type(v), v) for v in (config.epochs, config.eval_interval, config.rng_seed)] == [
        (int, 3), (int, 2), (int, 7)]


def test_gradient_layout_leaves_the_cached_parameter_layout_alone():
    params = lm.init_params(hidden=3, vocab=6, seed=0)
    before = lm.param_layout(3, 6, 6)
    _, grads = bptt_gradients(params, TrainingPair([3, 1, 4], [1, 4, 5]))
    assert lm.param_layout(3, 6, 6) is before and before.arrays[1][0] == (12, 6)
    assert grads.dense.size == lm.param_layout(3, 6, 3).size == before.size - 12 * 3
    assert grads.layers[0].U.shape == (12, 3)  # the sentence's three distinct input tokens
    assert lm.LstmStackParams(params.flat, 3, 6).layers[0].U.shape == (12, 6)


def test_every_gradient_array_is_a_view_of_the_one_buffer():
    params = lm.init_params(hidden=3, vocab=6, seed=0)
    _, grads = bptt_gradients(params, TrainingPair([3, 1, 4, 1], [1, 4, 5, 2]))
    named = named_arrays(grads)
    assert len(named) == len(training.ARRAY_NAMES)
    for name, arr in named.items():
        assert np.shares_memory(arr, grads.dense), name


@pytest.mark.parametrize("values, finite", [
    ([], True),
    ([-0.0], True),
    ([5e-324, 1e-310], True),  # subnormals: their squares underflow to 0
    ([1e200, -1e200], True),  # the sum of squares overflows; the exact check clears it
    ([1.0, np.nan], False),
    ([np.inf, 1.0], False),
    ([1.0, -np.inf], False),
    ([1e200, np.nan], False),
], ids=["empty", "negative-zero", "subnormal", "large", "nan", "inf", "minus-inf", "large-and-nan"])
def test_all_finite(values, finite):
    assert training._all_finite(np.array(values, dtype=np.float64)) is finite


def test_evaluate_rejects_an_empty_pair_list():
    params = lm.init_params(hidden=2, vocab=5, seed=0)
    with pytest.raises(ValueError, match="no evaluation pairs"):
        evaluate(params, [])


class TestTrainingLog:
    def test_perplexity_consistent_with_mean_loss(self):
        log = TrainingLog()
        rng = np.random.default_rng(7)
        for step, loss in enumerate(rng.uniform(0.1, 9.0, size=40), 1):
            log.add(epoch=1, step=step, mean_loss=float(loss), kind="interval")
        for record in log.records:
            assert record.perplexity == pytest.approx(math.exp(record.mean_loss), abs=1e-9)

    def test_csv_format(self, tmp_path):
        log = TrainingLog()
        log.add(epoch=1, step=10, mean_loss=2.0, kind="interval")
        log.add(epoch=1, step=12, mean_loss=1.5, kind="epoch")
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,step,mean_loss,perplexity"
        assert len(lines) == 3
        epoch, step, loss, ppl = lines[1].split(",")
        assert (int(epoch), int(step)) == (1, 10)
        assert float(ppl) == pytest.approx(math.exp(float(loss)), abs=1e-9)

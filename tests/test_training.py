"""Loss, perplexity, scoring, SGD, and training-loop tests."""

import copy
import math

import numpy as np
import pytest

from drnnsim import corpus, lm, training
from drnnsim.corpus import TrainingPair
from drnnsim.training import (
    DivergenceError,
    TrainConfig,
    TrainingLog,
    bptt_gradients,
    cross_entropy,
    evaluate,
    named_arrays,
    perplexity,
    score_sentence,
    sequence_loss,
    sgd_step,
    train,
    zero_gradients,
)


def uniform_outputs(steps, vocab):
    return [np.full(vocab, 1.0 / vocab) for _ in range(steps)]


class TestCrossEntropy:
    def test_uniform_over_large_vocab(self):
        pred = np.full(4000, 1.0 / 4000)
        assert cross_entropy(pred, 17) == pytest.approx(math.log(4000), abs=1e-12)
        assert cross_entropy(pred, 17) == pytest.approx(8.29405, abs=1e-5)

    def test_perfect_prediction_scores_zero(self):
        pred = np.zeros(5)
        pred[2] = 1.0
        assert cross_entropy(pred, 2) == 0.0

    def test_one_over_e(self):
        pred = np.full(4, (1 - 1 / math.e) / 3)
        pred[1] = 1 / math.e
        assert cross_entropy(pred, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_is_floored(self):
        pred = np.zeros(3)
        pred[0] = 1.0
        loss = cross_entropy(pred, 2)
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), abs=1e-9)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            cross_entropy(np.full(4, 0.25), 4)


class TestSequenceLoss:
    def test_uniform_closed_form(self):
        assert sequence_loss(uniform_outputs(7, 50), [0] * 7) == pytest.approx(
            7 * math.log(50), abs=1e-10
        )

    def test_empty_sequence(self):
        assert sequence_loss([], []) == 0.0

    def test_single_step_reduces_to_cross_entropy(self):
        out = np.array([0.1, 0.6, 0.3])
        assert sequence_loss([out], [1]) == cross_entropy(out, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sequence_loss(uniform_outputs(2, 4), [0])


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        vocab = 123
        loss = sequence_loss(uniform_outputs(9, vocab), [5] * 9)
        assert perplexity(loss, 9) == pytest.approx(vocab, rel=1e-12)

    def test_zero_loss(self):
        assert perplexity(0.0, 10) == 1.0

    def test_zero_tokens_is_an_error(self):
        with pytest.raises(ValueError):
            perplexity(1.0, 0)

    def test_published_scale_sanity(self):
        # perplexity near 3500 corresponds to mean loss near ln 3500
        assert math.log(3500) == pytest.approx(8.16, abs=0.005)
        assert perplexity(8.160518247, 1) == pytest.approx(3500, rel=1e-4)


class TestScoreSentence:
    def test_uniform_single_token(self):
        layers = [
            lm.LstmLayerParams(W=np.zeros((8, 2)), U=np.zeros((8, input_dim)), b=np.zeros(8))
            for input_dim in (5, 2, 2)
        ]
        params = lm.LstmStackParams(layers=layers, V=np.zeros((5, 2)), hidden=2, vocab=5)
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
        dZ = training._layer_backward(layer, tr, dh_in)
        if l == 0:
            grad_U = np.zeros_like(layer.U)
            np.add.at(grad_U.T, list(pair.input), dZ)
        else:
            grad_U = dZ.T @ traces[l - 1].h[1:]
            dh_in = dZ @ layer.U
        grad_layers.append(lm.LstmLayerParams(dZ.T @ tr.h[:-1], grad_U, dZ.sum(axis=0)))
    grads = training.Gradients(grad_layers[::-1], grad_V, np.arange(params.vocab))
    for p, g in zip(named_arrays(params).values(), named_arrays(grads).values()):
        p -= learning_rate * g


def param_bytes(params):
    return {name: arr.tobytes() for name, arr in named_arrays(params).items()}


class TestSgdStep:
    def test_zero_gradients_leave_params_unchanged(self):
        params = lm.init_params(hidden=3, vocab=6, seed=1)
        before = param_bytes(params)
        grads = zero_gradients(params)
        assert grads.layers[0].U.shape == (12, 0) and grads.input_ids.size == 0
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
        grads = zero_gradients(params)
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
        "array, bad",
        [
            (lambda g: g.layers[1].W, np.nan),
            (lambda g: g.layers[0].U, np.nan),  # the compact 4H x k input gradient
            (lambda g: g.V, np.inf),
        ],
        ids=["layer1.W", "layer0.U", "V"],
    )
    def test_non_finite_gradient_raises(self, array, bad):
        params = lm.init_params(hidden=2, vocab=4, seed=0)
        before = param_bytes(params)
        _, grads = bptt_gradients(params, TrainingPair(input=[1, 3, 1], label=[3, 1, 2]))
        array(grads)[-1, -1] = bad
        with pytest.raises(DivergenceError, match="diverged"):
            sgd_step(params, grads, learning_rate=0.1)
        # failed update must not touch anything
        assert param_bytes(params) == before

    def test_bad_learning_rate(self):
        params = lm.init_params(hidden=2, vocab=4, seed=0)
        with pytest.raises(ValueError):
            sgd_step(params, zero_gradients(params), learning_rate=0.0)


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
        assert [r.step for r in log.interval_records()] == [10, 20, 30]
        assert [r.step for r in log.epoch_records()] == [10, 20, 30]

    def test_divergence_aborts_with_step_index(self):
        # the saturating activations and the loss floor make organic
        # divergence nearly impossible, so corrupt the parameters directly
        pairs, vocab = toy_pairs(n_sentences=4, seed=6)
        params = lm.init_params(hidden=4, vocab=vocab.size, seed=6)
        params.V[0, 0] = np.nan
        config = TrainConfig(learning_rate=0.01, epochs=2, eval_interval=1000, rng_seed=6)
        with pytest.raises(DivergenceError) as err:
            train(params, pairs, config)
        assert err.value.step == 1

    def test_empty_pairs_is_an_error(self):
        params = lm.init_params(hidden=2, vocab=5, seed=0)
        with pytest.raises(ValueError):
            train(params, [], TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)


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

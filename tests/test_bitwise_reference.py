"""Bitwise parity of the in-place LSTM code with allocating reference arithmetic.

The reference below is the fused cell, backward step, softmax and SGD
update as they were written before the cell worked in caller-owned rows:
each operation allocates its result (``W @ h + U x + b``, ``np.clip``,
``np.split``, ``np.concatenate``). The in-place code performs the same
float operations in the same order, so every forward value, trace row,
gradient, trained parameter and training log must equal the reference's
bit for bit. Both sides run on the same numpy, BLAS and CPU, so the check
holds on any platform, unlike a pinned digest.
"""

import numpy as np
import pytest

from drnnsim import corpus, lm, training
from drnnsim.corpus import TrainingPair
from drnnsim.lm import LayerTrace

# ---------------------------------------------------------------------------
# Allocating reference
# ---------------------------------------------------------------------------


def ref_softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def ref_cell(layer, x, h_prev, c_prev):
    hidden = layer.hidden
    x_term = layer.U[:, x] if isinstance(x, (int, np.integer)) else layer.U @ x
    z = layer.W @ h_prev + x_term + layer.b
    act = np.clip(0.2 * z + 0.5, 0.0, 1.0)
    act[3 * hidden:] = np.tanh(z[3 * hidden:])
    f, i, o, g = np.split(act, 4)
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, act


def ref_layer_forward(layer, inputs):
    steps, hidden = len(inputs), layer.hidden
    tr = LayerTrace(np.zeros((steps + 1, hidden)), np.zeros((steps + 1, hidden)), np.empty((steps, 4 * hidden)))
    for t, x in enumerate(inputs):
        tr.h[t + 1], tr.c[t + 1], tr.act[t] = ref_cell(layer, x, tr.h[t], tr.c[t])
    return tr


def ref_layer_backward(layer, tr, dh_in):
    hidden = layer.hidden
    f, i, o, g = np.split(tr.act, 4, axis=1)
    tanh_c = np.tanh(tr.c[1:])
    sig = tr.act[:, :3 * hidden]
    slope = np.concatenate((np.where((0.0 < sig) & (sig < 1.0), 0.2, 0.0), 1.0 - g**2), axis=1)
    dz_dstate = np.concatenate((tr.c[:-1], g, tanh_c, i), axis=1) * slope
    dc_dh = o * (1.0 - tanh_c**2)
    dZ = np.empty_like(tr.act)
    dh_next, dc_next = np.zeros(hidden), np.zeros(hidden)
    for t in reversed(range(len(dZ))):
        dh = dh_next + dh_in[t]
        dc = dc_next + dh * dc_dh[t]
        dZ[t] = np.concatenate((dc, dc, dh, dc)) * dz_dstate[t]
        dc_next = dc * f[t]
        dh_next = layer.W.T @ dZ[t]
    return dZ


def ref_stack_step(params, x_id, state):
    x, h, c = x_id, [], []
    for layer, h_prev, c_prev in zip(params.layers, state.h, state.c):
        x, c_l, _ = ref_cell(layer, x, h_prev, c_prev)
        h.append(x)
        c.append(c_l)
    return ref_softmax(params.V @ x), lm.LstmState(np.array(h), np.array(c))


def ref_sgd_step(params, grads, learning_rate):
    pairs = [(getattr(lp, name), getattr(lg, name)) for lp, lg in zip(params.layers, grads.layers) for name in "WUb"]
    pairs.append((params.V, grads.V))
    for _, g in pairs:
        if not np.all(np.isfinite(g)):
            raise training.DivergenceError("diverged: non-finite gradient")
    for p, g in pairs:
        if p is params.layers[0].U:
            p[:, grads.input_ids] -= learning_rate * g
        else:
            p -= learning_rate * g
    return params


# ---------------------------------------------------------------------------
# In-place code vs reference
# ---------------------------------------------------------------------------

# (hidden, vocab): criterion 6's shape, a small odd one and a wider hidden layer.
SHAPES = [(16, 59), (5, 30), (50, 200)]
IDS = [3, 17, 3, 26, 9, 3, 22, 0, 17, 29, 1]


def seeded(hidden, vocab, seed=42):
    """A seeded model with non-zero biases, so some gates clamp at 0 or 1 and others do not."""
    params = lm.init_params(hidden, vocab, seed)
    rng = np.random.default_rng(seed + 1)
    for layer in params.layers:
        layer.b[...] = rng.uniform(-4.0, 4.0, size=layer.b.shape)
    return params


def assert_traces_equal(got, want):
    for name in ("h", "c", "act"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


@pytest.mark.parametrize("hidden,vocab", SHAPES)
def test_layer_forward_matches_reference(hidden, vocab):
    params = seeded(hidden, vocab)
    inputs = IDS
    for layer in params.layers:
        got = lm._layer_forward(layer, inputs)
        want = ref_layer_forward(layer, inputs)
        assert_traces_equal(got, want)
        inputs = want.h[1:]
    # the trace holds clamped and unclamped gates, so both slope branches are exercised below
    sig = got.act[:, :3 * hidden]
    assert np.any((sig == 0.0) | (sig == 1.0)) and np.any((0.0 < sig) & (sig < 1.0))


@pytest.mark.parametrize("hidden,vocab", SHAPES)
def test_layer_backward_matches_reference(hidden, vocab):
    params = seeded(hidden, vocab)
    rng = np.random.default_rng(7)
    inputs = IDS
    for layer in params.layers:
        tr = ref_layer_forward(layer, inputs)
        dh_in = rng.normal(size=(len(IDS), hidden))
        np.testing.assert_array_equal(lm._layer_backward(layer, tr, dh_in), ref_layer_backward(layer, tr, dh_in))
        inputs = tr.h[1:]


@pytest.mark.parametrize("hidden,vocab", SHAPES)
def test_stack_step_chain_matches_reference(hidden, vocab):
    params = seeded(hidden, vocab)
    _, state = lm.stack_forward(params, IDS[:3])
    ref_state = state
    x = IDS[3]
    for _ in range(10):
        probs, state = lm.stack_step(params, x, state)
        ref_probs, ref_state = ref_stack_step(params, x, ref_state)
        np.testing.assert_array_equal(probs, ref_probs)
        np.testing.assert_array_equal(state.h, ref_state.h)
        np.testing.assert_array_equal(state.c, ref_state.c)
        x = int(np.argmax(probs))


@pytest.mark.parametrize("hidden,vocab", SHAPES)
def test_lstm_cell_forward_matches_reference(hidden, vocab):
    params = seeded(hidden, vocab)
    rng = np.random.default_rng(4)
    h_prev, c_prev = rng.normal(size=hidden), rng.normal(size=hidden)
    for layer, x in ((params.layers[0], 5), (params.layers[1], rng.normal(size=hidden))):
        got = lm.lstm_cell_forward(layer, x, h_prev, c_prev)
        for a, b in zip(got, ref_cell(layer, x, h_prev, c_prev)[:2]):
            np.testing.assert_array_equal(a, b)


def test_softmax_matches_reference():
    z = np.random.default_rng(5).normal(scale=6.0, size=59)
    np.testing.assert_array_equal(lm.softmax(z), ref_softmax(z))
    assert lm.softmax(np.float64(3.0)) == 1.0  # a 0-d input still gives 1.0


def with_reference(monkeypatch):
    """Route the stack's forward, backward, softmax and SGD update through the reference."""
    monkeypatch.setattr(lm, "_layer_forward", ref_layer_forward)
    monkeypatch.setattr(lm, "softmax", ref_softmax)
    monkeypatch.setattr(training, "_layer_backward", ref_layer_backward)
    monkeypatch.setattr(training, "sgd_step", ref_sgd_step)


def test_bptt_gradients_match_reference(monkeypatch):
    params = seeded(16, 59)
    pair = TrainingPair(input=IDS, label=IDS[1:] + [58])
    loss, grads = training.bptt_gradients(params, pair)
    with_reference(monkeypatch)
    ref_loss, ref_grads = training.bptt_gradients(params, pair)
    assert loss == ref_loss
    np.testing.assert_array_equal(grads.input_ids, ref_grads.input_ids)
    for (name, got), want in zip(training.named_arrays(grads).items(), training.named_arrays(ref_grads).values()):
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_two_epoch_training_matches_reference(monkeypatch):
    sentences = corpus.tokenize(corpus.bundled_corpus_path().read_text(encoding="utf-8"))
    vocab = corpus.build_vocab(sentences, max_words=100)
    pairs = corpus.make_training_pairs(sentences, vocab)
    config = training.TrainConfig(learning_rate=0.1, epochs=2, eval_interval=50, rng_seed=9)

    def run():
        return training.train(lm.init_params(hidden=8, vocab=vocab.size, seed=5), pairs, config)

    params, log = run()
    with_reference(monkeypatch)
    ref_params, ref_log = run()
    assert log.to_csv() == ref_log.to_csv()
    for (name, got), want in zip(training.named_arrays(params).items(), training.named_arrays(ref_params).values()):
        np.testing.assert_array_equal(got, want, err_msg=name)

"""Backpropagation-through-time gradients checked entry by entry against a
central finite-difference oracle."""

import numpy as np
import pytest

from drnnsim import lm
from drnnsim.corpus import TrainingPair
from drnnsim.training import bptt_gradients, named_arrays, sequence_loss
from grad_helpers import SATURATED_PAIR, dense_input_gradient, dense_named_gradients, saturated_params

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8  # guards finite-difference noise on near-zero entries


def forward_loss(params, pair):
    outputs, _ = lm.stack_forward(params, pair.input)
    return sequence_loss(outputs, pair.label)


def finite_difference_gradient(params, pair, arr, step=FD_STEP):
    """Central differences of the forward loss w.r.t. one parameter array."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        loss_plus = forward_loss(params, pair)
        arr[idx] = orig - step
        loss_minus = forward_loss(params, pair)
        arr[idx] = orig
        grad[idx] = (loss_plus - loss_minus) / (2 * step)
    return grad


def check_all_gradients(params, pair):
    """Returns the worst (rel_err, name) over every parameter entry."""
    loss, grads = bptt_gradients(params, pair)
    assert loss == pytest.approx(forward_loss(params, pair), abs=1e-12)
    grad_arrays = dense_named_gradients(grads, params.vocab)
    worst = (0.0, "")
    for name, arr in named_arrays(params).items():
        numeric = finite_difference_gradient(params, pair, arr)
        analytic = grad_arrays[name]
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), ABS_FLOOR / REL_TOL)
        rel = np.abs(analytic - numeric) / denom
        idx = np.unravel_index(np.argmax(rel), rel.shape)
        if rel[idx] > worst[0]:
            worst = (float(rel[idx]), name)
        assert rel[idx] < REL_TOL, (
            f"{name}{idx}: analytic {analytic[idx]:.10g} vs numeric {numeric[idx]:.10g}"
        )
    return worst


def test_full_stack_gradients_match_finite_differences():
    params = lm.init_params(hidden=4, vocab=8, seed=7)
    pair = TrainingPair(input=[5, 0, 3, 1, 6], label=[0, 3, 6, 2, 6])
    worst, name = check_all_gradients(params, pair)
    assert worst < REL_TOL, f"worst relative error {worst:.3e} at {name}"


def test_gradients_with_saturated_gates():
    # large biases push gates into the flat hard-sigmoid regions where the
    # analytic slope is exactly zero; the check must still hold
    params = saturated_params()
    _, traces = lm.stack_forward_trace(params, SATURATED_PAIR.input)
    for tr in traces:
        f, o = tr.act[:, :3], tr.act[:, 6:9]
        assert (f == 1.0).all() and (o[:, 0] == 0.0).all() and (o[:, 1:] > 0.0).all()
        assert (tr.h[1:, 1:] != 0.0).all()  # only unit 0 is shut
    check_all_gradients(params, SATURATED_PAIR)


# The largest float below 2.5: 0.2 z + 0.5 rounds to exactly 1.0 there, so the
# forward's gate is clamped and its slope is 0. One ulp further in it is 0.2.
KNEE = 2.4999999999999996


@pytest.mark.parametrize("bias, slope", [(KNEE, 0.0), (np.nextafter(KNEE, 0.0), 0.2), (-2.5, 0.0)],
                         ids=["knee", "one-ulp-inside", "lower-knee"])
def test_forget_gate_slope_follows_its_value_at_the_knee(bias, slope):
    # With W = U = 0 the forget pre-activation is exactly ``bias`` at every step.
    layer = lm.LstmLayerParams(W=np.zeros((4, 1)), U=np.zeros((4, 2)), b=np.array([bias, 0.0, 0.0, 1.0]))
    tr = lm._layer_forward(layer, [0, 1, 0])
    dh_in = np.array([[0.3], [-0.7], [1.1]])
    dZ = lm._layer_backward(layer, tr, dh_in)
    f, _, o, _ = tr.act.T
    assert ((f == 0.0) | (f == 1.0)).all() == (slope == 0.0)
    # W = 0 sends nothing back through h, so dc follows its own recurrence.
    dc_next, want = 0.0, np.empty(3)
    for t in reversed(range(3)):
        dc = dc_next + dh_in[t, 0] * o[t] * (1.0 - np.tanh(tr.c[t + 1, 0]) ** 2)
        want[t] = dc * tr.c[t, 0] * slope
        dc_next = dc * f[t]
    np.testing.assert_allclose(dZ[:, 0], want, rtol=1e-14, atol=0.0)
    assert (want[1:] != 0.0).all() == (slope != 0.0)


def test_single_step_output_projection_identity():
    # for one step, dV is the softmax-cross-entropy outer product
    params = lm.init_params(hidden=4, vocab=8, seed=4)
    pair = TrainingPair(input=[2], label=[5])
    outputs, traces = lm.stack_forward_trace(params, pair.input)
    _, grads = bptt_gradients(params, pair)
    expected = outputs[0].copy()
    expected[5] -= 1.0
    np.testing.assert_allclose(
        grads.V, np.outer(expected, traces[-1].h[1]), atol=1e-12
    )
    numeric = finite_difference_gradient(params, pair, params.V)
    np.testing.assert_allclose(grads.V, numeric, atol=1e-7)


def test_length_one_pair_is_well_defined():
    params = lm.init_params(hidden=4, vocab=8, seed=1)
    pair = TrainingPair(input=[3], label=[7])
    loss, grads = bptt_gradients(params, pair)
    outputs, _ = lm.stack_forward(params, pair.input)
    assert loss == sequence_loss([outputs[0]], [7])
    for arr in named_arrays(grads).values():
        assert np.all(np.isfinite(arr))


def test_length_mismatch_is_an_error():
    params = lm.init_params(hidden=2, vocab=5, seed=0)
    with pytest.raises(ValueError):
        bptt_gradients(params, TrainingPair(input=[1, 2], label=[2]))


def test_gradients_accumulate_over_time():
    # the same token appearing twice must contribute twice to its U column
    params = lm.init_params(hidden=3, vocab=6, seed=2)
    pair = TrainingPair(input=[2, 2, 2], label=[2, 2, 3])
    _, grads = bptt_gradients(params, pair)
    np.testing.assert_array_equal(grads.input_ids, [2])
    touched = np.abs(dense_input_gradient(grads, params.vocab)).sum(axis=0)
    assert touched[2] > 0.0
    untouched = [v for i, v in enumerate(touched) if i != 2]
    assert all(v == 0.0 for v in untouched)

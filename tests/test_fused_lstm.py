"""The fused LSTM layer against a pinned per-gate reference.

The reference below is the per-gate cell and BPTT the package used while
each layer was stored as twelve separate gate arrays: four gate lines in
the cell and four gradient lines per gate and step in the backward pass.
It reads the per-gate views ``Wf`` ... ``bg``. The fused forward pass and
every gradient array must agree with it within 1e-12 relative to the
array's largest entry (float reassociation, not a change of formula).
"""

import copy

import numpy as np
import pytest

from drnnsim import lm
from drnnsim.corpus import TrainingPair
from drnnsim.lm import hard_sigmoid, hard_sigmoid_deriv, softmax
from drnnsim.training import bptt_gradients, named_arrays, sequence_loss
from grad_helpers import dense_named_gradients

REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Per-gate reference
# ---------------------------------------------------------------------------

def ref_input_term(U, x):
    if isinstance(x, (int, np.integer)):
        return U[:, x]
    return U @ x


def ref_cell(layer, x, h_prev, c_prev):
    zf = layer.Wf @ h_prev + ref_input_term(layer.Uf, x) + layer.bf
    zi = layer.Wi @ h_prev + ref_input_term(layer.Ui, x) + layer.bi
    zo = layer.Wo @ h_prev + ref_input_term(layer.Uo, x) + layer.bo
    zg = layer.Wg @ h_prev + ref_input_term(layer.Ug, x) + layer.bg
    f = hard_sigmoid(zf)
    i = hard_sigmoid(zi)
    o = hard_sigmoid(zo)
    g = np.tanh(zg)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return dict(
        x=x, h_prev=h_prev, c_prev=c_prev, f=f, i=i, g=g, o=o, c=c, tanh_c=tanh_c, h=h,
        f_deriv=hard_sigmoid_deriv(zf), i_deriv=hard_sigmoid_deriv(zi), o_deriv=hard_sigmoid_deriv(zo),
    )


def ref_forward(params, ids):
    h = [np.zeros(params.hidden) for _ in params.layers]
    c = [np.zeros(params.hidden) for _ in params.layers]
    outputs, traces = [], []
    for x in ids:
        step, layer_input = [], int(x)
        for l, layer in enumerate(params.layers):
            tr = ref_cell(layer, layer_input, h[l], c[l])
            h[l], c[l] = tr["h"], tr["c"]
            step.append(tr)
            layer_input = tr["h"]
        outputs.append(softmax(params.V @ h[-1]))
        traces.append(step)
    return outputs, traces


def ref_bptt(params, pair):
    """Returns (loss, name -> gradient) with the names of ``named_arrays``."""
    outputs, traces = ref_forward(params, pair.input)
    loss = sequence_loss(outputs, pair.label)
    grads = {name: np.zeros_like(arr) for name, arr in named_arrays(params).items()}
    n_layers, hidden = len(params.layers), params.hidden
    dh_next = [np.zeros(hidden) for _ in range(n_layers)]
    dc_next = [np.zeros(hidden) for _ in range(n_layers)]
    for t in reversed(range(len(pair.input))):
        dz_out = outputs[t].copy()
        dz_out[pair.label[t]] -= 1.0
        grads["V"] += np.outer(dz_out, traces[t][-1]["h"])
        dx = params.V.T @ dz_out
        for l in reversed(range(n_layers)):
            tr, p = traces[t][l], params.layers[l]
            g = {name: grads[f"layer{l}.{name}"] for name in lm.GATE_PARAM_FIELDS}
            dh = dh_next[l] + dx
            dc = dc_next[l] + dh * tr["o"] * (1.0 - tr["tanh_c"] ** 2)
            dzo = dh * tr["tanh_c"] * tr["o_deriv"]
            dzf = dc * tr["c_prev"] * tr["f_deriv"]
            dzi = dc * tr["g"] * tr["i_deriv"]
            dzg = dc * tr["i"] * (1.0 - tr["g"] ** 2)
            dc_next[l] = dc * tr["f"]
            dh_next[l] = p.Wf.T @ dzf + p.Wi.T @ dzi + p.Wo.T @ dzo + p.Wg.T @ dzg
            g["Wf"] += np.outer(dzf, tr["h_prev"])
            g["Wi"] += np.outer(dzi, tr["h_prev"])
            g["Wo"] += np.outer(dzo, tr["h_prev"])
            g["Wg"] += np.outer(dzg, tr["h_prev"])
            g["bf"] += dzf
            g["bi"] += dzi
            g["bo"] += dzo
            g["bg"] += dzg
            if l == 0:
                g["Uf"][:, tr["x"]] += dzf
                g["Ui"][:, tr["x"]] += dzi
                g["Uo"][:, tr["x"]] += dzo
                g["Ug"][:, tr["x"]] += dzg
            else:
                g["Uf"] += np.outer(dzf, tr["x"])
                g["Ui"] += np.outer(dzi, tr["x"])
                g["Uo"] += np.outer(dzo, tr["x"])
                g["Ug"] += np.outer(dzg, tr["x"])
                dx = p.Uf.T @ dzf + p.Ui.T @ dzi + p.Uo.T @ dzo + p.Ug.T @ dzg
    return loss, grads


# ---------------------------------------------------------------------------
# Fused code vs reference
# ---------------------------------------------------------------------------

def assert_close(got, want, what):
    scale = float(np.max(np.abs(want)))
    err = float(np.max(np.abs(got - want)))
    assert err <= REL_TOL * scale, f"{what}: max |diff| {err:.3e} vs scale {scale:.3e}"


def saturated_params():
    # as in test_gradients_with_saturated_gates: gates pushed into the flat
    # hard-sigmoid regions, where the slope is exactly zero
    params = lm.init_params(hidden=3, vocab=6, seed=11)
    for layer in params.layers:
        layer.bf += 3.0
        layer.bo -= 3.0
    return params


CASES = {
    "h4-V8": (lambda: lm.init_params(hidden=4, vocab=8, seed=7),
              TrainingPair(input=[5, 0, 3, 1, 6], label=[0, 3, 6, 2, 6])),
    "h16-V59": (lambda: lm.init_params(hidden=16, vocab=59, seed=42),
                TrainingPair(input=[56, 3, 17, 3, 40, 58, 9, 3, 22, 0, 31],
                             label=[3, 17, 3, 40, 58, 9, 3, 22, 0, 31, 57])),
    "saturated": (saturated_params, TrainingPair(input=[4, 1, 0], label=[1, 0, 5])),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_forward_matches_per_gate_reference(case):
    make, pair = CASES[case]
    params = make()
    outputs, states = lm.stack_forward(params, pair.input)
    ref_outputs, ref_traces = ref_forward(params, pair.input)
    for t, (got, want) in enumerate(zip(outputs, ref_outputs)):
        assert_close(got, want, f"output[{t}]")
        for l in range(len(params.layers)):
            assert_close(states[t].h[l], ref_traces[t][l]["h"], f"h[{t}][{l}]")
            assert_close(states[t].c[l], ref_traces[t][l]["c"], f"c[{t}][{l}]")


@pytest.mark.parametrize("case", sorted(CASES))
def test_gradients_match_per_gate_reference(case):
    make, pair = CASES[case]
    params = make()
    loss, grads = bptt_gradients(params, pair)
    ref_loss, ref_grads = ref_bptt(params, pair)
    assert loss == pytest.approx(ref_loss, rel=REL_TOL)
    got = dense_named_gradients(grads, params.vocab)
    assert list(got) == list(ref_grads)
    for name, want in ref_grads.items():
        assert got[name].shape == want.shape
        assert_close(got[name], want, name)


# ---------------------------------------------------------------------------
# Fused storage and its per-gate views
# ---------------------------------------------------------------------------

def test_gate_names_are_row_blocks_of_the_fused_arrays():
    layer = lm.init_params(hidden=3, vocab=5, seed=0).layers[0]
    for k, gate in enumerate(lm.GATES):
        rows = slice(3 * k, 3 * (k + 1))
        for fused in ("W", "U", "b"):
            view = getattr(layer, fused + gate)
            assert np.shares_memory(view, getattr(layer, fused))
            np.testing.assert_array_equal(view, getattr(layer, fused)[rows])
    layer.Ug[:] = 7.0
    np.testing.assert_array_equal(layer.U[9:12], np.full((3, 5), 7.0))


def test_in_place_updates_through_named_arrays_survive_deepcopy():
    params = copy.deepcopy(lm.init_params(hidden=4, vocab=8, seed=1))
    before, _ = lm.stack_forward(params, [3, 1])
    arrays = named_arrays(params)
    arrays["layer1.Wg"] += 0.5
    arrays["layer0.bf"][...] = 3.0
    after, _ = lm.stack_forward(params, [3, 1])
    assert not np.array_equal(before[-1], after[-1])
    np.testing.assert_array_equal(params.layers[0].b[:4], np.full(4, 3.0))
    for layer in params.layers:
        for name in lm.GATE_PARAM_FIELDS:
            assert np.shares_memory(getattr(layer, name), getattr(layer, name[0]))

"""Forward-path tests: activations, LSTM cell, and the 3-layer
stack, checked against independent scalar (pure Python) oracles."""

import copy
import dataclasses
import math
import operator
import pickle
import re

import numpy as np
import pytest

from drnnsim import cosim, lm
from drnnsim.accel import AcceleratorConfig, FixedPointFormat
from drnnsim.lm import (
    LstmLayerParams,
    init_params,
    lstm_cell_forward,
    softmax,
    stack_forward,
    stack_forward_trace,
    zero_state,
)
from drnnsim.training import save_model

# ---------------------------------------------------------------------------
# Scalar oracles: plain Python floats and math functions, no numpy algebra
# ---------------------------------------------------------------------------

def scalar_hs(x):
    return min(1.0, max(0.0, 0.2 * x + 0.5))


def scalar_matvec(M, v):
    return [sum(M[r][k] * v[k] for k in range(len(v))) for r in range(len(M))]


def scalar_softmax(z):
    m = max(z)
    e = [math.exp(v - m) for v in z]
    s = sum(e)
    return [v / s for v in e]


def scalar_cell(layer, x_vec, h_prev, c_prev):
    W = {n: getattr(layer, n).tolist() for n in ("Wf", "Wi", "Wo", "Wg")}
    U = {n: getattr(layer, n).tolist() for n in ("Uf", "Ui", "Uo", "Ug")}
    b = {n: getattr(layer, n).tolist() for n in ("bf", "bi", "bo", "bg")}
    hidden = len(b["bf"])
    h, c = [], []
    for r in range(hidden):
        zf = scalar_matvec(W["Wf"], h_prev)[r] + scalar_matvec(U["Uf"], x_vec)[r] + b["bf"][r]
        zi = scalar_matvec(W["Wi"], h_prev)[r] + scalar_matvec(U["Ui"], x_vec)[r] + b["bi"][r]
        zo = scalar_matvec(W["Wo"], h_prev)[r] + scalar_matvec(U["Uo"], x_vec)[r] + b["bo"][r]
        zg = scalar_matvec(W["Wg"], h_prev)[r] + scalar_matvec(U["Ug"], x_vec)[r] + b["bg"][r]
        f, i, o, g = scalar_hs(zf), scalar_hs(zi), scalar_hs(zo), math.tanh(zg)
        c_r = f * c_prev[r] + i * g
        c.append(c_r)
        h.append(o * math.tanh(c_r))
    return h, c


def onehot(i, n):
    v = [0.0] * n
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# hard sigmoid / softmax
# ---------------------------------------------------------------------------

def hard_sigmoid(x):
    """The cell's in-place hard sigmoid, applied to a float64 copy of ``x``."""
    return lm._hard_sigmoid_inplace(np.array(x, dtype=np.float64))


class TestHardSigmoid:
    def test_midpoint(self):
        assert hard_sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert hard_sigmoid(2.5) == 1.0
        assert hard_sigmoid(-2.5) == 0.0
        assert hard_sigmoid(100.0) == 1.0
        assert hard_sigmoid(-100.0) == 0.0

    def test_linear_region(self):
        assert float(hard_sigmoid(1.0)) == pytest.approx(0.7, abs=1e-12)
        assert float(hard_sigmoid(-1.5)) == pytest.approx(0.2, abs=1e-12)

    def test_array_input_stays_in_unit_interval(self):
        xs = np.linspace(-10, 10, 401)
        ys = hard_sigmoid(xs)
        assert np.all(ys >= 0.0) and np.all(ys <= 1.0)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-15)

    def test_closed_form(self):
        out = softmax(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=10)
        np.testing.assert_allclose(softmax(z), softmax(z + 123.4), atol=1e-15)

    def test_normalized_and_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = softmax(rng.normal(scale=30.0, size=17))
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out >= 0.0)

    def test_leaves_its_argument_unchanged(self):
        z = np.random.default_rng(2).normal(size=9)
        before = z.copy()
        out = softmax(z)
        np.testing.assert_array_equal(z, before)
        assert not np.shares_memory(z, out)


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def zero_layer(hidden, input_dim):
    return LstmLayerParams(
        W=np.zeros((4 * hidden, hidden)), U=np.zeros((4 * hidden, input_dim)), b=np.zeros(4 * hidden)
    )


class TestLstmCell:
    @pytest.mark.parametrize("W_shape, U_shape, b_shape", [
        ((12, 3), (12, 4), (11,)),
        ((12, 4), (12, 4), (12,)),
        ((12, 3), (12,), (12,)),
        ((12, 3), (8, 4), (12,)),
    ], ids=["b-length", "W-shape", "U-rank", "U-rows"])
    def test_constructor_rejects_mismatched_shapes(self, W_shape, U_shape, b_shape):
        with pytest.raises(ValueError, match=r"are not \(4H, H\), \(4H, I\), \(4H,\)"):
            LstmLayerParams(W=np.zeros(W_shape), U=np.zeros(U_shape), b=np.zeros(b_shape))

    @pytest.mark.parametrize("bad, message", [
        (lambda a: a.tolist(), "must be a numpy array, not list"),
        (lambda a: tuple(a), "must be a numpy array, not tuple"),
        (lambda a: a.astype(complex), "has dtype complex128, expected bool, int or float"),
        (lambda a: a.astype(object), "has dtype object, expected bool, int or float"),
    ], ids=["list", "tuple", "complex", "object"])
    @pytest.mark.parametrize("field", ["W", "U", "b"])
    def test_constructor_checks_each_field_by_the_array_rule(self, field, bad, message):
        arrays = {"W": np.zeros((12, 3)), "U": np.zeros((12, 4)), "b": np.zeros(12)}
        arrays[field] = bad(arrays[field])
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            LstmLayerParams(**arrays)

    @pytest.mark.skipif(np.dtype(np.longdouble) == np.float64, reason="longdouble is float64 on this platform")
    @pytest.mark.parametrize("field", ["W", "U", "b"])
    def test_constructor_refuses_a_field_wider_than_float64(self, field):
        arrays = {"W": np.zeros((12, 3)), "U": np.zeros((12, 4)), "b": np.zeros(12)}
        arrays[field] = arrays[field].astype(np.longdouble)
        wide = np.dtype(np.longdouble)
        with pytest.raises(ValueError, match=f"^{field} has dtype {wide}, wider than float64$"):
            LstmLayerParams(**arrays)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, bool])
    def test_constructor_keeps_real_arrays_unconverted(self, dtype):
        arrays = {"W": np.ones((12, 3), dtype), "U": np.ones((12, 4), dtype), "b": np.ones(12, dtype)}
        layer = LstmLayerParams(**arrays)
        assert all(getattr(layer, name) is arr for name, arr in arrays.items())

    @pytest.mark.parametrize("arg, value, message", [
        ("h_prev", np.zeros(3, dtype=complex), "h_prev has dtype complex128, expected bool, int or float"),
        ("c_prev", np.zeros(3, dtype=object), "c_prev has dtype object, expected bool, int or float"),
        ("x", np.zeros(4, dtype=complex), "x has dtype complex128, expected bool, int or float"),
        ("c_prev", np.zeros((3, 1)), "c_prev has shape (3, 1), expected (3,)"),
        ("x", np.zeros(5), "x has shape (5,), expected (4,)"),
        ("x", np.zeros((1, 4)), "x has shape (1, 4), expected (4,)"),
    ], ids=["complex-h", "object-c", "complex-x", "rank-2-c", "long-x", "rank-2-x"])  # a short h_prev: below
    def test_arguments_follow_the_array_rule(self, arg, value, message):
        layer = zero_layer(hidden=3, input_dim=4)
        args = {"x": np.zeros(4), "h_prev": np.zeros(3), "c_prev": np.zeros(3), arg: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lstm_cell_forward(layer, **args)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, bool, np.longdouble])
    def test_real_arguments_step_as_their_float64_values(self, dtype):
        rng = np.random.default_rng(14)
        layer = init_params(hidden=3, vocab=5, seed=14).layers[1]  # a layer above 0 reads a vector x
        x, h_prev, c_prev = (rng.normal(size=3).astype(dtype) for _ in range(3))
        got = lstm_cell_forward(layer, x, h_prev, c_prev)
        want = lstm_cell_forward(layer, x.astype(float), h_prev.astype(float), c_prev.astype(float))
        np.testing.assert_array_equal(got, want)

    def test_zero_weights_halve_the_cell(self):
        layer = zero_layer(hidden=3, input_dim=4)
        v = np.array([0.4, -1.2, 2.0])
        h, c = lstm_cell_forward(layer, np.zeros(4), np.zeros(3), v)
        np.testing.assert_allclose(c, 0.5 * v, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * v), atol=1e-15)

    def test_zero_everything_stays_zero(self):
        layer = zero_layer(hidden=3, input_dim=4)
        h, c = lstm_cell_forward(layer, np.zeros(4), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(12)
        layer = LstmLayerParams(
            W=rng.normal(scale=0.7, size=(8, 2)),
            U=rng.normal(scale=0.7, size=(8, 2)),
            b=rng.normal(scale=0.3, size=8),
        )
        x = rng.normal(size=2)
        h_prev = rng.normal(size=2)
        c_prev = rng.normal(size=2)
        h, c = lstm_cell_forward(layer, x, h_prev, c_prev)
        h_ref, c_ref = scalar_cell(layer, x.tolist(), h_prev.tolist(), c_prev.tolist())
        np.testing.assert_allclose(h, h_ref, atol=1e-12)
        np.testing.assert_allclose(c, c_ref, atol=1e-12)

    def test_gate_ranges(self):
        rng = np.random.default_rng(13)
        params = init_params(hidden=6, vocab=9, seed=13)
        _, traces = stack_forward_trace(params, list(rng.integers(0, 9, size=8)))
        for tr in traces:
            f, i, o, g = np.split(tr.act, 4, axis=1)
            for gate in (f, i, o):
                assert np.all(gate >= 0.0) and np.all(gate <= 1.0)
            assert np.all(np.abs(g) <= 1.0)
            assert np.all(np.abs(np.tanh(tr.c[1:])) <= 1.0)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["deepcopy", "pickle"])
    def test_copies_keep_the_arrays_and_the_derived_sizes(self, clone):
        layer = init_params(hidden=3, vocab=5, seed=1).layers[0]
        copied = clone(layer)
        for name in ("W", "U", "b") + lm.GATE_PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(copied, name), getattr(layer, name))
        assert (copied.hidden, copied.input_dim) == (layer.hidden, layer.input_dim) == (3, 5)
        # the per-gate names still view the copy's own fused arrays
        assert np.shares_memory(copied.bf, copied.b) and not np.shares_memory(copied.b, layer.b)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.W = layer.W

    def test_shape_mismatch_is_an_error(self):
        layer = zero_layer(hidden=3, input_dim=4)
        with pytest.raises(ValueError, match=r"^h_prev has shape \(2,\), expected \(3,\)$"):
            lstm_cell_forward(layer, np.zeros(4), np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# 3-layer stack
# ---------------------------------------------------------------------------

def zero_params(hidden, vocab):
    return lm.LstmStackParams(np.zeros(sum(math.prod(s) for s in lm.stack_shapes(hidden, vocab))), hidden, vocab)


class TestStackParams:
    def test_fields_are_the_buffer_and_its_sizes(self):
        params = init_params(hidden=4, vocab=9, seed=0)
        assert [f.name for f in dataclasses.fields(params)] == ["flat", "hidden", "vocab"]
        # 4H rows of W (H wide) x 3, U (V wide on layer 0, H above) and b, then V x H
        assert params.flat.dtype == np.float64 and params.flat.shape == (4 * 4 * (3 * 4 + 9 + 2 * 4 + 3) + 9 * 4,)
        assert (params.hidden, params.vocab) == (4, 9)
        for name in ("hidden", "flat", "layers", "V"):
            with pytest.raises(AttributeError):
                setattr(params, name, None)

    def test_arrays_are_views_of_the_buffer_in_layout_order(self):
        params = init_params(hidden=3, vocab=5, seed=1)
        fused = [arr for layer in params.layers for arr in (layer.W, layer.U, layer.b)] + [params.V]
        assert [arr.shape for arr in fused] == lm.stack_shapes(3, 5)
        np.testing.assert_array_equal(np.concatenate([arr.ravel() for arr in fused]), params.flat)
        params.flat[:] = 0.5
        assert all(np.all(arr == 0.5) for arr in fused)

    def test_deepcopy_views_its_own_buffer(self):
        params = init_params(hidden=3, vocab=5, seed=1)
        clone = copy.deepcopy(params)
        np.testing.assert_array_equal(clone.flat, params.flat)
        fused = [arr for layer in clone.layers for arr in (layer.W, layer.U, layer.b)] + [clone.V]
        for arr in fused:
            assert np.shares_memory(arr, clone.flat) and not np.shares_memory(arr, params.flat)

    @pytest.mark.parametrize("flat", [
        lambda size: np.zeros(size, dtype=np.float32),
        lambda size: np.zeros(size - 1),
        lambda size: np.zeros(size + 1),
        lambda size: np.zeros((1, size)),
    ], ids=["dtype", "short", "long", "rank"])
    def test_constructor_rejects_a_buffer_of_the_wrong_dtype_or_size(self, flat):
        size = zero_params(3, 5).flat.size
        with pytest.raises(ValueError, match=rf"flat must be float64 of shape \({size},\), got "):
            lm.LstmStackParams(flat(size), 3, 5)


    @pytest.mark.parametrize("value, message", [
        (2.5, "must be an integer, got 2.5"),
        (True, "must be an integer, got True"),
        (0, "must be >= 1, got 0"),
        (-1, "must be >= 1, got -1"),
    ], ids=["float", "bool", "zero", "negative"])
    @pytest.mark.parametrize("field", ["hidden", "vocab"])
    def test_sizes_follow_the_integer_rule(self, field, value, message):
        sizes = {"hidden": 2, "vocab": 7, field: value}
        with pytest.raises(ValueError, match=f"^{field} {re.escape(message)}$"):
            lm.LstmStackParams(zero_params(2, 7).flat, **sizes)

    @pytest.mark.parametrize("flat, got", [([0.0] * 10, "list"), ((0.0,) * 10, "tuple"), (None, "NoneType")],
                             ids=["list", "tuple", "none"])
    def test_constructor_rejects_a_buffer_that_is_not_an_array(self, flat, got):
        with pytest.raises(ValueError, match=rf"^flat must be float64 of shape \(124,\), got {got}$"):
            lm.LstmStackParams(flat, 2, 2)

    @pytest.mark.parametrize("rebind, error", [
        (lambda p: setattr(p.layers[2], "W", np.zeros_like(p.layers[2].W)), dataclasses.FrozenInstanceError),
        (lambda p: setattr(p.layers[0], "U", np.zeros_like(p.layers[0].U)), dataclasses.FrozenInstanceError),
        (lambda p: setattr(p.layers[2], "b", np.ones_like(p.layers[2].b)), dataclasses.FrozenInstanceError),
        (lambda p: operator.setitem(p.layers, 0, zero_layer(p.hidden, p.vocab)), TypeError),
    ], ids=["W", "U", "b", "layer"])
    def test_layers_cannot_be_detached_from_the_buffer(self, tmp_path, rebind, error):
        params = init_params(hidden=3, vocab=5, seed=2)
        flat, (outputs, _) = params.flat.copy(), stack_forward(params, [1, 4, 0])
        save_model(params, tmp_path / "before.drnn")
        with pytest.raises(error):
            rebind(params)
        np.testing.assert_array_equal(params.flat, flat)
        np.testing.assert_array_equal(stack_forward(params, [1, 4, 0])[0], outputs)
        save_model(params, tmp_path / "after.drnn")
        assert (tmp_path / "after.drnn").read_bytes() == (tmp_path / "before.drnn").read_bytes()

    def test_numpy_integer_sizes_are_stored_as_python_ints(self):
        params = lm.LstmStackParams(zero_params(2, 7).flat, np.int32(2), np.uint16(7))
        assert (type(params.hidden), type(params.vocab)) == (int, int)


# Each frozen container whose other values are derived from its fields, and the names of those values.
DERIVED_VALUES = {
    "LstmLayerParams": (lambda: init_params(hidden=3, vocab=5, seed=1).layers[0], ("hidden", "input_dim")),
    "LstmStackParams": (lambda: init_params(hidden=3, vocab=5, seed=1), ("layers", "V")),
    "FixedPointFormat": (lambda: FixedPointFormat(8, 8), ("scale", "_scale_f64", "raw_min", "raw_max")),
    "AcceleratorConfig": (AcceleratorConfig, ("rows", "report")),
}


@pytest.mark.parametrize("make, derived", DERIVED_VALUES.values(), ids=DERIVED_VALUES.keys())
def test_a_pickle_holds_only_the_fields_and_rebuilds_the_rest(make, derived):
    obj = make()
    want = {name: repr(getattr(obj, name)) for name in derived}
    for name in derived:
        vars(obj)[name] = "tampered"  # a value the constructor never sets
    data = pickle.dumps(obj)
    assert b"tampered" not in data
    assert {name: repr(getattr(pickle.loads(data), name)) for name in derived} == want


class TestParamLayout:
    def test_table_is_stack_shapes_with_offsets(self):
        layout = lm.param_layout(3, 5, 5)
        assert [shape for shape, _, _ in layout.arrays] == lm.stack_shapes(3, 5)
        bounds = [start for _, start, _ in layout.arrays] + [layout.size]
        assert bounds[0] == 0 and all(stop == bounds[k + 1] for k, (_, _, stop) in enumerate(layout.arrays))
        assert layout.size == init_params(hidden=3, vocab=5).flat.size
        # The file's arrays: each fused array's four gate blocks in turn, then V.
        fused = [(3, 3), (3, 5), (3,)] + [(3, 3), (3, 3), (3,)] * 2
        assert [shape for shape, _, _ in layout.blocks] == [shape for shape in fused for _ in "fiog"] + [(5, 3)]

    def test_blocks_are_the_per_gate_views(self):
        params = init_params(hidden=3, vocab=5, seed=2)
        per_gate = [getattr(layer, name) for layer in params.layers for name in lm.GATE_PARAM_FIELDS] + [params.V]
        for (shape, start, stop), arr in zip(lm.param_layout(3, 5, 5).blocks, per_gate, strict=True):
            np.testing.assert_array_equal(params.flat[start:stop].reshape(shape), arr)

    def test_cached_immutable_and_python_ints(self):
        layout = lm.param_layout(np.int32(4), np.uint16(9), np.uint16(9))
        assert lm.param_layout(np.int32(4), np.uint16(9), np.uint16(9)) is layout
        assert layout == lm.param_layout(4, 9, 9)
        values = [v for table in layout[:2] for shape, start, stop in table for v in (*shape, start, stop)]
        assert all(type(v) is int for v in values + [layout.size])
        assert isinstance(layout.arrays, tuple) and all(isinstance(entry, tuple) for entry in layout.arrays)
        with pytest.raises(TypeError):
            layout.arrays[1] = ((16, 0), 0, 0)

    def test_a_float_size_is_refused(self):
        with pytest.raises(ValueError, match="^hidden must be an integer, got 3.0$"):
            lm.param_layout(3.0, 5, 5)

    @pytest.mark.parametrize("sizes, message", [
        ((3, 5.0, 5), "vocab must be an integer, got 5.0"),
        ((3, 5, [5]), "u0_cols must be an integer, got [5]"),  # not hashed: the check runs before the cache
        ((True, 5, 5), "hidden must be an integer, got True"),
        ((0, 5, 5), "hidden must be >= 1, got 0"),
        ((3, 5, -1), "u0_cols must be >= 1, got -1"),
    ], ids=["float-vocab", "list", "bool", "zero", "negative"])
    def test_every_size_follows_the_integer_rule(self, sizes, message):
        lm.param_layout(3, 5, 5)  # a cached equal key (3 == 3.0 == True) must not satisfy the check
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lm.param_layout(*sizes)


class TestStackForward:
    def test_zero_params_give_uniform_outputs(self):
        params = zero_params(3, 5)
        outputs, _ = stack_forward(params, [0, 4, 2])
        for out in outputs:
            np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-15)

    def test_single_step_equals_chained_cells(self):
        params = init_params(hidden=4, vocab=6, seed=2)
        outputs, state = stack_forward(params, [3])
        h, c = lstm_cell_forward(params.layers[0], 3, np.zeros(4), np.zeros(4))
        h1, c1 = lstm_cell_forward(params.layers[1], h, np.zeros(4), np.zeros(4))
        h2, c2 = lstm_cell_forward(params.layers[2], h1, np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(outputs[0], softmax(params.V @ h2))
        np.testing.assert_array_equal(state.h[2], h2)
        np.testing.assert_array_equal(state.c[0], c)
        np.testing.assert_array_equal(state.c[1], c1)
        np.testing.assert_array_equal(state.c[2], c2)

    def test_matches_scalar_trace(self):
        params = init_params(hidden=2, vocab=5, seed=9)
        ids = [4, 0, 2]
        outputs, _ = stack_forward(params, ids)

        h = [[0.0, 0.0] for _ in range(3)]
        c = [[0.0, 0.0] for _ in range(3)]
        for t, x_id in enumerate(ids):
            x = onehot(x_id, 5)
            for l, layer in enumerate(params.layers):
                h[l], c[l] = scalar_cell(layer, x, h[l], c[l])
                x = h[l]
            p_ref = scalar_softmax(scalar_matvec(params.V.tolist(), h[2]))
            np.testing.assert_allclose(outputs[t], p_ref, atol=1e-12)

    def test_column_selection_equals_explicit_onehot(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            hidden = int(rng.integers(1, 5))
            vocab = int(rng.integers(2, 7))
            params = init_params(hidden=hidden, vocab=vocab, seed=int(rng.integers(1000)))
            x_id = int(rng.integers(vocab))
            layer = params.layers[0]
            h_prev = rng.normal(size=hidden)
            c_prev = rng.normal(size=hidden)
            h_sel, c_sel = lstm_cell_forward(layer, x_id, h_prev, c_prev)
            x_vec = np.zeros(vocab)
            x_vec[x_id] = 1.0
            h_mat, c_mat = lstm_cell_forward(layer, x_vec, h_prev, c_prev)
            np.testing.assert_array_equal(h_sel, h_mat)
            np.testing.assert_array_equal(c_sel, c_mat)

    def test_deterministic(self):
        params = init_params(hidden=5, vocab=11, seed=3)
        ids = [1, 10, 4, 7]
        first, _ = stack_forward(params, ids)
        second, _ = stack_forward(params, ids)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_state_continuation(self):
        params = init_params(hidden=3, vocab=6, seed=6)
        full, _ = stack_forward(params, [1, 2, 3])
        head, state = stack_forward(params, [1, 2])
        tail, _ = lm.stack_step(params, 3, state)
        np.testing.assert_allclose(tail, full[2], atol=1e-15)

    def test_rejects_bad_ids_and_empty_input(self):
        params = init_params(hidden=3, vocab=6, seed=0)
        with pytest.raises(ValueError):
            stack_forward(params, [6])
        with pytest.raises(ValueError):
            stack_forward(params, [])

    def test_outputs_sum_to_one(self):
        params = init_params(hidden=8, vocab=40, seed=5)
        outputs, _ = stack_forward(params, [0, 13, 39, 7])
        for out in outputs:
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out >= 0.0)


# ---------------------------------------------------------------------------
# Layer-major forward against the step-major cell chain, and stack_step
# ---------------------------------------------------------------------------

SCHEDULE_SHAPES = [(4, 8), (16, 59), (50, 4000)]
SENTENCE_LEN = 13


def schedule_case(hidden, vocab, random_state0=False):
    """Parameters with non-zero biases, a sentence, and a zero or random start state."""
    rng = np.random.default_rng(hidden * vocab)
    params = init_params(hidden=hidden, vocab=vocab, seed=hidden)
    for layer in params.layers:
        layer.b[:] = rng.normal(size=4 * hidden)
    ids = [int(x) for x in rng.integers(0, vocab, size=SENTENCE_LEN)]
    state0 = zero_state(params)
    if random_state0:
        state0 = lm.LstmState(rng.normal(size=(3, hidden)), rng.normal(size=(3, hidden)))
    return params, ids, state0


def step_major_chain(params, ids, state0):
    """Every layer advances one cell step before the next token, as a cell-by-cell probe drives it.

    Returns the outputs and, per step, each layer's (h, c, act).
    """
    h, c = list(state0.h), list(state0.c)
    outputs, rows = [], []
    for x in ids:
        step = []
        for l, layer in enumerate(params.layers):
            out = (np.empty(params.hidden), np.empty(params.hidden), np.empty(4 * params.hidden))
            lm._cell(layer, layer.U[:, x] if l == 0 else layer.U @ x, h[l], c[l], out)
            h[l], c[l], _ = out
            step.append(out)
            x = h[l]
        outputs.append(softmax(params.V @ h[-1]))
        rows.append(step)
    return outputs, rows


@pytest.mark.parametrize("hidden,vocab", SCHEDULE_SHAPES, ids=[f"h{h}_V{v}" for h, v in SCHEDULE_SHAPES])
class TestLayerMajorSchedule:
    def test_stack_forward_equals_step_major_chain(self, hidden, vocab):
        params, ids, state0 = schedule_case(hidden, vocab)
        ref_outputs, ref_rows = step_major_chain(params, ids, state0)
        outputs, state = stack_forward(params, ids)
        assert len(outputs) == len(ids)
        for out, ref in zip(outputs, ref_outputs):
            np.testing.assert_array_equal(out, ref)
        for l in range(3):
            np.testing.assert_array_equal(state.h[l], ref_rows[-1][l][0])
            np.testing.assert_array_equal(state.c[l], ref_rows[-1][l][1])

    def test_trace_rows_equal_step_major_chain(self, hidden, vocab):
        params, ids, state0 = schedule_case(hidden, vocab)
        ref_outputs, ref_rows = step_major_chain(params, ids, state0)
        outputs, traces = stack_forward_trace(params, ids)
        for out, ref in zip(outputs, ref_outputs):
            np.testing.assert_array_equal(out, ref)
        for l, tr in enumerate(traces):
            np.testing.assert_array_equal(tr.h[0], state0.h[l])
            np.testing.assert_array_equal(tr.c[0], state0.c[l])
            for t in range(len(ids)):
                h, c, act = ref_rows[t][l]
                np.testing.assert_array_equal(tr.h[t + 1], h)
                np.testing.assert_array_equal(tr.c[t + 1], c)
                np.testing.assert_array_equal(tr.act[t], act)

    def test_continuing_from_the_returned_state_equals_the_full_forward(self, hidden, vocab):
        params, ids, _ = schedule_case(hidden, vocab)
        outputs, final = stack_forward(params, ids)
        head, state = stack_forward(params, ids[:5])
        tail = []
        for x in ids[5:]:
            probs, state = lm.stack_step(params, x, state)
            tail.append(probs)
        assert len(head + tail) == len(outputs)
        for got, want in zip(head + tail, outputs):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(state.h, final.h)
        np.testing.assert_array_equal(state.c, final.c)

    def test_chained_stack_step_equals_stack_forward(self, hidden, vocab):
        params, ids, state0 = schedule_case(hidden, vocab)
        outputs, final = stack_forward(params, ids)
        state = state0
        for x, expected in zip(ids, outputs):
            probs, state = lm.stack_step(params, x, state)
            np.testing.assert_array_equal(probs, expected)
        np.testing.assert_array_equal(state.h, final.h)
        np.testing.assert_array_equal(state.c, final.c)


def test_layer_trace_rows_are_distinct_arrays():
    # each cell writes into its own trace rows, never into the previous step's
    params = init_params(hidden=5, vocab=11, seed=8)
    _, traces = stack_forward_trace(params, [3, 7, 7, 1, 0])
    for tr in traces:
        arrays = (tr.h, tr.c, tr.act)
        assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays) for b in arrays[k + 1:])
        for rows in arrays:
            assert all(not np.array_equal(rows[t], rows[t + 1]) for t in range(len(rows) - 1))


def test_cell_results_do_not_alias_its_inputs():
    layer = init_params(hidden=4, vocab=6, seed=2).layers[1]
    rng = np.random.default_rng(3)
    x, h_prev, c_prev = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    before = [a.copy() for a in (x, h_prev, c_prev, layer.W, layer.U, layer.b)]
    h, c = lstm_cell_forward(layer, x, h_prev, c_prev)
    for a, b in zip((x, h_prev, c_prev, layer.W, layer.U, layer.b), before):
        np.testing.assert_array_equal(a, b)
    assert not any(np.shares_memory(out, a) for out in (h, c) for a in (x, h_prev, c_prev))


class TestStackStep:
    def test_leaves_the_given_state_unchanged(self):
        params, ids, state0 = schedule_case(4, 8, random_state0=True)
        h0, c0 = state0.h, state0.c
        h_before, c_before = h0.copy(), c0.copy()
        _, new = lm.stack_step(params, ids[0], state0)
        assert state0.h is h0 and state0.c is c0
        np.testing.assert_array_equal(state0.h, h_before)
        np.testing.assert_array_equal(state0.c, c_before)
        assert not any(np.array_equal(a, b) for a, b in zip(new.h, state0.h))

    def test_new_state_shares_no_memory_with_the_given_one(self):
        params, ids, state0 = schedule_case(4, 8, random_state0=True)
        _, new = lm.stack_step(params, ids[0], state0)
        assert (new.h.shape, new.c.shape, new.h.dtype, new.c.dtype) == ((3, 4), (3, 4), np.float64, np.float64)
        arrays = (new.h, new.c, state0.h, state0.c)
        assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays[:2]) for b in arrays[k + 1:])

    def test_accepts_a_state_given_as_lists_of_rows(self):
        params, ids, state0 = schedule_case(4, 8, random_state0=True)
        probs, new = lm.stack_step(params, ids[0], state0)
        list_probs, list_new = lm.stack_step(params, ids[0], lm.LstmState(list(state0.h), list(state0.c)))
        np.testing.assert_array_equal(list_probs, probs)
        np.testing.assert_array_equal(list_new.h, new.h)
        np.testing.assert_array_equal(list_new.c, new.c)

    def test_rejects_a_ragged_list_state(self):
        params, ids, state0 = schedule_case(4, 8)
        with pytest.raises(ValueError):
            lm.stack_step(params, ids[0], lm.LstmState([*state0.h[:2], np.zeros(5)], list(state0.c)))

    @pytest.mark.parametrize("state, got", [
        (None, "NoneType"), ((np.zeros((3, 4)), np.zeros((3, 4))), "tuple"), ({"h": 0, "c": 0}, "dict"),
    ], ids=["none", "tuple", "dict"])
    def test_rejects_a_state_that_is_not_an_lstm_state(self, state, got):
        params, ids, _ = schedule_case(4, 8)
        with pytest.raises(ValueError, match=f"^state must be an LstmState, not {got}$"):
            lm.stack_step(params, ids[0], state)

    @pytest.mark.parametrize("x_id", [-1, 8, 100])
    def test_rejects_out_of_range_id(self, x_id):
        params, _, state0 = schedule_case(4, 8)
        with pytest.raises(ValueError):
            lm.stack_step(params, x_id, state0)

    @pytest.mark.parametrize("malform, name, shape", [  # h is checked before c
        (lambda s: lm.LstmState(s.h[:2], s.c[:2]), "state.h", (2, 4)),
        (lambda s: lm.LstmState(np.vstack((s.h, s.h[:1])), np.vstack((s.c, s.c[:1]))), "state.h", (4, 4)),
        (lambda s: lm.LstmState(s.h, s.c[:2]), "state.c", (2, 4)),
        (lambda s: lm.LstmState(s.h, s.c[:, :1]), "state.c", (3, 1)),
        (lambda s: lm.LstmState(s.h[:, None], s.c), "state.h", (3, 1, 4)),  # each layer's h has rank 2
        (lambda s: lm.LstmState(list(s.h[:2]), s.c), "state.h", (2, 4)),  # a list's shape is read as an array's
    ], ids=["2-layers", "4-layers", "3h-2c", "c-width-1", "h-rank-2", "h-list"])
    def test_rejects_a_malformed_state(self, malform, name, shape):
        params, ids, state0 = schedule_case(4, 8)
        message = f"{name} has shape {shape}, expected (3, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lm.stack_step(params, ids[0], malform(state0))

    @pytest.mark.parametrize("h_dtype, c_dtype, name", [
        (np.float64, np.complex128, "state.c"), (np.float64, object, "state.c"), ("<U1", np.float64, "state.h"),
        (np.complex128, np.float64, "state.h"),
    ], ids=["complex-c", "object-c", "str-h", "complex-h"])
    def test_rejects_a_state_that_is_not_real(self, h_dtype, c_dtype, name):
        params, ids, _ = schedule_case(4, 8)
        state = lm.LstmState(np.zeros((3, 4)).astype(h_dtype), np.zeros((3, 4)).astype(c_dtype))
        bad = np.dtype(c_dtype if name == "state.c" else h_dtype)
        message = f"{name} has dtype {bad}, expected bool, int or float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lm.stack_step(params, ids[0], state)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32, bool, np.longdouble])
    def test_a_real_state_steps_as_its_float64_values(self, dtype):
        params, ids, state0 = schedule_case(4, 8, random_state0=True)
        state = lm.LstmState((state0.h > 0).astype(dtype), (state0.c * 3).astype(dtype))
        probs, new = lm.stack_step(params, ids[0], state)
        want_probs, want = lm.stack_step(params, ids[0], lm.LstmState(state.h.astype(float), state.c.astype(float)))
        np.testing.assert_array_equal(probs, want_probs)
        np.testing.assert_array_equal(new.h, want.h)
        np.testing.assert_array_equal(new.c, want.c)


def test_init_params_shapes_and_bounds():
    params = init_params(hidden=7, vocab=19, seed=1)
    assert params.V.shape == (19, 7)
    assert params.layers[0].Uf.shape == (7, 19)
    assert params.layers[1].Uf.shape == (7, 7)
    for layer in params.layers:
        for name in ("bf", "bi", "bo", "bg"):
            np.testing.assert_array_equal(getattr(layer, name), np.zeros(7))
        assert np.max(np.abs(layer.Wf)) <= 1 / math.sqrt(7)
    assert np.max(np.abs(params.layers[0].Uf)) <= 1 / math.sqrt(19)


@pytest.mark.parametrize("hidden, vocab, bad", [(0, 5, "hidden"), (-2, 5, "hidden"), (3, 0, "vocab")])
def test_init_params_rejects_empty_shapes(hidden, vocab, bad):
    with pytest.raises(ValueError, match=f"{bad} must be >= 1"):
        init_params(hidden=hidden, vocab=vocab)


@pytest.mark.parametrize("kwargs, message", [
    ({"hidden": 2.5}, "hidden must be an integer, got 2.5"),
    ({"hidden": True}, "hidden must be an integer, got True"),
    ({"vocab": np.float64(5)}, f"vocab must be an integer, got {np.float64(5)!r}"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
    ({"seed": 1.0}, "seed must be an integer, got 1.0"),
], ids=["hidden-float", "hidden-bool", "vocab-numpy-float", "seed-str", "seed-float"])
def test_init_params_sizes_and_seed_follow_the_integer_rule(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        init_params(**{"hidden": 2, "vocab": 5, **kwargs})


def test_init_params_accepts_numpy_integers():
    params = init_params(hidden=np.int32(2), vocab=np.uint16(5), seed=np.int64(4))
    want = init_params(hidden=2, vocab=5, seed=4)
    assert (params.hidden, params.vocab) == (2, 5)
    np.testing.assert_array_equal(params.V, want.V)


def test_zero_state_shapes():
    params = init_params(hidden=4, vocab=9, seed=0)
    state = zero_state(params)
    for rows in (state.h, state.c):
        assert rows.dtype == np.float64
        np.testing.assert_array_equal(rows, np.zeros((3, 4)))
    assert not np.shares_memory(state.h, state.c)


# A wrong object type: each of these entry points refuses it by the type rule before reading an attribute of it.
_TYPE_RULE_CALLS = {
    "stack_step": ("params", "an LstmStackParams", lambda bad: lm.stack_step(bad, 1, zero_state(init_params(2, 5)))),
    "stack_forward": ("params", "an LstmStackParams", lambda bad: stack_forward(bad, [1])),
    "lstm_cell_forward": (
        "layer", "an LstmLayerParams", lambda bad: lstm_cell_forward(bad, 1, np.zeros(2), np.zeros(2)),
    ),
    "offload_gate_preactivation": (
        "layer", "an LstmLayerParams",
        lambda bad: cosim.offload_gate_preactivation(bad, np.zeros(2), 1, FixedPointFormat(8, 8)),
    ),
}


@pytest.mark.parametrize("bad, got", [
    (None, "NoneType"), (1, "int"), ("x", "str"), ((init_params(2, 5), None), "tuple"),
], ids=["none", "int", "str", "tuple"])
@pytest.mark.parametrize("entry", list(_TYPE_RULE_CALLS))
def test_object_arguments_follow_the_type_rule(entry, bad, got):
    name, what, call = _TYPE_RULE_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be {what}, not {got}$"):
        call(bad)

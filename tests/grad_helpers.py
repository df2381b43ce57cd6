"""Helpers of the gradient oracles: dense views of the column-sparse layer-0
input gradient, and a model whose gates sit in the flat hard-sigmoid regions."""

import numpy as np

from drnnsim import lm
from drnnsim.corpus import TrainingPair
from drnnsim.lm import GATES
from drnnsim.training import Gradients, named_arrays


def dense_input_gradient(grads: Gradients, vocab: int) -> np.ndarray:
    """Layer 0's input gradient scattered into a zero 4H x V array at ``grads.input_ids``."""
    dense = np.zeros((len(grads.layers[0].U), vocab))
    dense[:, grads.input_ids] = grads.layers[0].U
    return dense


def dense_named_gradients(grads: Gradients, vocab: int) -> dict[str, np.ndarray]:
    """``named_arrays`` of the gradients, with every array in its parameter's shape."""
    named = named_arrays(grads)
    blocks = np.split(dense_input_gradient(grads, vocab), len(GATES))
    named.update({f"layer0.U{gate}": block for gate, block in zip(GATES, blocks)})
    return named


def saturated_params():
    """Every forget gate clamped at 1 and unit 0's output gate clamped at 0.

    The other output gates stay inside (0, 1), so h is non-zero and the
    loss reaches the clamped gates: a slope of 0.2 where the value is
    clamped would show in their gradients. (Closing every output gate
    would make h = 0 and every LSTM gradient 0 whatever the slope.)
    """
    params = lm.init_params(hidden=3, vocab=6, seed=11)
    for layer in params.layers:
        layer.bf[...] += 3.0
        layer.bo[:1] -= 3.0
    return params


SATURATED_PAIR = TrainingPair(input=[4, 1, 0], label=[1, 0, 5])

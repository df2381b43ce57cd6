"""Dense views of the column-sparse layer-0 input gradient, for the oracles."""

import numpy as np

from drnnsim.lm import LstmLayerParams
from drnnsim.training import Gradients, named_arrays


def dense_input_gradient(grads: Gradients, vocab: int) -> np.ndarray:
    """Layer 0's input gradient scattered into a zero 4H x V array at ``grads.input_ids``."""
    dense = np.zeros((len(grads.layers[0].U), vocab))
    dense[:, grads.input_ids] = grads.layers[0].U
    return dense


def dense_named_gradients(grads: Gradients, vocab: int) -> dict[str, np.ndarray]:
    """``named_arrays`` of the gradients, with every array in its parameter's shape."""
    layer0 = grads.layers[0]
    dense0 = LstmLayerParams(layer0.W, dense_input_gradient(grads, vocab), layer0.b)
    return named_arrays(Gradients([dense0, *grads.layers[1:]], grads.V, np.arange(vocab)))

"""Deep recurrent LSTM language model with a co-simulated fixed-point
streaming MAC-array accelerator."""

from . import accel, corpus, cosim, lm, training
from .lm import stack_forward  # perfbench/test_perfbench.py reads drnnsim.stack_forward

__version__ = "0.1.0"

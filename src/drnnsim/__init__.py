"""Deep recurrent LSTM language model with a co-simulated fixed-point
streaming MAC-array accelerator."""

from .accel import (
    AcceleratorConfig,
    BatchReport,
    FixedPointFormat,
    FixedPointTensor,
    FramingError,
    MacArrayCore,
    matvec_fixed,
    stream_roundtrip,
)
from .corpus import (
    SENTENCE_END,
    SENTENCE_START,
    UNKNOWN_TOKEN,
    TrainingPair,
    Vocabulary,
    build_vocab,
    make_training_pairs,
    tokenize,
)
from .cosim import golden_test, offload_gate_preactivation, throughput_report
from .lm import (
    LstmLayerParams,
    LstmStackParams,
    LstmState,
    hard_sigmoid,
    init_params,
    lstm_cell_forward,
    softmax,
    stack_forward,
)
from .training import (
    DivergenceError,
    Gradients,
    ModelFormatError,
    TrainConfig,
    TrainingLog,
    bptt_gradients,
    cross_entropy,
    evaluate,
    load_model,
    perplexity,
    save_model,
    score_sentence,
    sequence_loss,
    sgd_step,
    train,
)

__version__ = "0.1.0"

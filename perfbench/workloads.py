"""The benchmark's workloads and the closed-loop phases they are made of.

Every workload runs the same five phases on its own model shape and corpus,
one caller at a time: the next sentence, token or tile starts only after the
previous call returned. The phases differ only in the share of the run each
gets, so every end-to-end metric exists on every workload while each
workload is dominated by the layer it was chosen to stress.

Timed regions hold only calls into drnnsim; every output is checked after
its timed region, and a failed check or an error raised by drnnsim counts as
a failed operation.
"""

from __future__ import annotations

import copy
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from drnnsim import accel, corpus, cosim, lm, training

import synth
from tracer import summarize

PHASES = ("train", "eval", "generate", "persist", "offload")
FMT = accel.FixedPointFormat(8, 8)
TILE = accel.AcceleratorConfig()  # the default 5x10-lane core: 50x50 weight tiles
GATES = ("f", "i", "o", "g")
TINY_VOCAB_BUDGET = 100  # criterion-6 vocabulary budget for the bundled corpus
SYNTH_SENTENCES = 200
GENERATE_MAX_LEN = 20
ERR_TOKENS = 8  # tokens that offload_err_over_bound covers
MIN_OPS = 9  # operations every phase runs at least
ROUNDS = 20  # slices each phase's time is cut into; a rate is taken per round
RATE_PERCENTILE = 25  # of the per-round rates: the level the shared machine holds steadily (see RoundRates)
MAIN_SHARE = 0.4  # of the run, for the phase a workload was chosen for
# Errors drnnsim raises on bad input or a failed run (DivergenceError and
# FramingError are RuntimeErrors, ModelFormatError is a ValueError).
OP_ERRORS = (ValueError, RuntimeError, OSError)


@dataclass(frozen=True)
class Workload:
    name: str
    hidden: int
    vocab: int | None  # None: the bundled corpus sets it (59)
    main: str  # the phase that gets MAIN_SHARE of the run; the others share the rest
    learning_rate: float
    train_sentences: int | None = None  # leading sentences the train phase uses (None: all)
    checkpoint_epochs: int = 1  # train_final_ppl and the train() equality check are taken here

    def share(self, phase: str) -> float:
        return MAIN_SHARE if phase == self.main else (1.0 - MAIN_SHARE) / (len(PHASES) - 1)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # criterion 6: lr 0.1 on the bundled corpus
        Workload("train-tiny", hidden=16, vocab=None, main="train", learning_rate=0.1, checkpoint_epochs=3),
        # At V=4000 a rate of 0.1 leaves one epoch's perplexity heavy-tailed
        # across seeds (683 to 2160 over 16 seeds); at 0.02 it still falls by
        # about 5% and varies by about 2%.
        Workload("train-paper", hidden=50, vocab=4000, main="train", learning_rate=0.02,
                 train_sentences=2 * synth.BLOCK),
        Workload("offload-paper", hidden=50, vocab=4000, main="offload", learning_rate=0.02,
                 train_sentences=synth.BLOCK),
    )
}


@dataclass
class Ops:
    """Attempted and failed operations, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


@dataclass
class Session:
    """Everything set-up produces: corpus, seeded model and its model file."""

    workload: Workload
    seed: int
    pairs: list[corpus.TrainingPair]
    params: lm.LstmStackParams  # read by every phase, never written
    model_path: Path
    text: str  # the corpus as text, for the tokenizer probe
    words: list[list[str]]  # what tokenizing ``text`` gives

    @property
    def vocab(self) -> int:
        return self.params.vocab

    @property
    def train_pairs(self) -> list[corpus.TrainingPair]:
        return self.pairs[: self.workload.train_sentences]


def setup(workload: Workload, seed: int, workdir: Path) -> Session:
    """Corpus, seeded init, the model file and one warm-up forward."""
    if workload.vocab is None:
        text = corpus.bundled_corpus_path().read_text(encoding="utf-8")
        words = corpus.tokenize(text)
        vocab = corpus.build_vocab(words, max_words=TINY_VOCAB_BUDGET)
        pairs = corpus.make_training_pairs(words, vocab)
        vocab_size = vocab.size
    else:
        encoded = synth.zipf_sentences(seed, SYNTH_SENTENCES, workload.vocab)
        pairs = corpus.pairs_from_encoded(encoded, workload.vocab)
        text, words, vocab_size = synth.render_text(encoded), synth.rendered_tokens(encoded), workload.vocab
    params = lm.init_params(hidden=workload.hidden, vocab=vocab_size, seed=seed)
    model_path = workdir / "model.drnn"
    training.save_model(params, model_path, dtype="f32")
    training.evaluate(params, pairs[:1])
    return Session(workload, seed, pairs, params, model_path, text, words)


class RoundRates:
    """Units done and seconds taken by one kind of operation, summed per round.

    A round's rate is its units over its seconds, so each operation weighs
    as much as the time it took, as in any throughput. The reported rate is
    the RATE_PERCENTILE-th percentile over the rounds. On a shared 2-vCPU
    KVM guest (Xeon, 2.0 GHz) the rate of a round sits at a steady level
    while other tenants keep the machine busy and jumps by up to 1.5x,
    erratically, while they idle; over ten 25-second runs of the train-tiny
    training loop the lower quartile of 10 to 50 round rates spread by 3-5%
    from run to run, the median by 6-12% and the upper quartile by 12-17%.
    """

    def __init__(self):
        self.units: list[float] = []
        self.seconds: list[float] = []
        self.samples: list[float] = []  # seconds of every operation, for the run record

    def new_round(self) -> None:
        self.units.append(0.0)
        self.seconds.append(0.0)

    def add(self, units: float, seconds: float) -> None:
        if not self.units:
            self.new_round()
        self.units[-1] += units
        self.seconds[-1] += seconds
        self.samples.append(seconds)

    def per_round(self) -> list[float]:
        return [u / t for u, t in zip(self.units, self.seconds) if t > 0]

    def rate(self) -> float:
        return float(np.percentile(self.per_round(), RATE_PERCENTILE))


@dataclass
class PhaseResult:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)  # end-to-end: name -> (value, unit)
    counters: dict[str, float] = field(default_factory=dict)  # inputs to per-layer metrics
    rates: dict[str, RoundRates] = field(default_factory=dict)  # op kind -> its timings


def params_equal(a: lm.LstmStackParams, b: lm.LstmStackParams) -> bool:
    named_b = training.named_arrays(b)
    return all(np.array_equal(arr, named_b[name]) for name, arr in training.named_arrays(a).items())


def n_params(params: lm.LstmStackParams) -> int:
    return sum(arr.size for arr in training.named_arrays(params).values())


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

class Phase:
    """One closed-loop activity; ``op`` runs one operation and checks it.

    ``untraced`` is a context manager factory for work that must not be
    traced, such as the reference ``training.train`` in a traced run.
    """

    min_ops = MIN_OPS
    timed: tuple[str, ...] = ()  # the kinds of operation whose rates the phase reports

    def __init__(self, s: Session, ops: Ops, untraced=nullcontext):
        self.s = s
        self.ops = ops
        self.untraced = untraced
        self.n = 0
        self.rates = {kind: RoundRates() for kind in self.timed}

    def run_for(self, budget_s: float) -> None:
        """One round: operations until ``budget_s`` has passed."""
        for r in self.rates.values():
            r.new_round()
        end = time.perf_counter() + budget_s
        while time.perf_counter() < end:
            self.op()
            self.n += 1

    def ready(self) -> bool:
        return self.n >= self.min_ops

    def finish(self) -> None:
        while not self.ready():
            self.op()
            self.n += 1

    def op(self) -> None:
        raise NotImplementedError

    def result(self) -> PhaseResult:
        raise NotImplementedError


class TrainPhase(Phase):
    """SGD one sentence per step, in ``training.train``'s shuffle order.

    At the checkpoint epoch the parameters must equal ``training.train``'s
    bitwise, and their perplexity over the training sentences is
    ``train_final_ppl``. Training goes on past it while the phase has time.
    """

    timed = ("train_step",)

    def __init__(self, s: Session, ops: Ops, untraced=nullcontext):
        super().__init__(s, ops, untraced)
        self.pairs = s.train_pairs
        with untraced():
            _, self.ppl_init = training.evaluate(s.params, self.pairs)
        self.params = copy.deepcopy(s.params)
        self.rng = np.random.default_rng(s.seed)
        self.order: list[int] = []
        self.epoch = 0
        self.ppl_final = None
        self.steps = 0
        self.grad_nonzero = 0
        self.grad_entries = 0

    def ready(self) -> bool:
        return self.ppl_final is not None

    def op(self) -> None:
        if not self.order:
            self.order = self.rng.permutation(len(self.pairs)).tolist()
        pair = self.pairs[self.order.pop(0)]
        t0 = time.perf_counter()
        try:
            loss, grads = training.bptt_gradients(self.params, pair)
            training.sgd_step(self.params, grads, self.s.workload.learning_rate)
        except OP_ERRORS as err:
            self.ops.check(False, f"train step: {err}")
        else:
            self.rates["train_step"].add(len(pair.label), time.perf_counter() - t0)
            self.steps += 1
            self.ops.check(math.isfinite(loss), f"train step: non-finite loss {loss}")
            for g in training.named_arrays(grads).values():
                self.grad_nonzero += np.count_nonzero(g)
                self.grad_entries += g.size
        if not self.order:
            self.epoch += 1
            if self.epoch == self.s.workload.checkpoint_epochs:
                self._checkpoint()

    def _checkpoint(self) -> None:
        epochs = self.s.workload.checkpoint_epochs
        config = training.TrainConfig(learning_rate=self.s.workload.learning_rate, epochs=epochs, rng_seed=self.s.seed)
        with self.untraced():
            try:
                reference, _ = training.train(copy.deepcopy(self.s.params), self.pairs, config)
            except OP_ERRORS as err:
                self.ops.check(False, f"train reference: {err}")
            else:
                self.ops.check(params_equal(self.params, reference), "train: loop parameters differ from training.train")
            _, self.ppl_final = training.evaluate(self.params, self.pairs)
        self.ops.check(
            self.ppl_final < self.ppl_init, f"train: perplexity {self.ppl_final} not below initial {self.ppl_init}"
        )

    def result(self) -> PhaseResult:
        return PhaseResult(
            metrics={
                "train_tokens_per_s": (self.rates["train_step"].rate(), "1/s"),
                "train_final_ppl": (self.ppl_final, "ppl"),
            },
            counters={"grad_nonzero": self.grad_nonzero, "grad_entries": self.grad_entries, "steps": self.steps},
            rates=self.rates,
        )


class EvalPhase(Phase):
    """Teacher-forced ``evaluate`` of one sentence at a time, cycling the corpus.

    The model is the random init, so the perplexity must be within 5% of V.
    """

    timed = ("eval_sentence",)

    def __init__(self, s: Session, ops: Ops, untraced=nullcontext):
        super().__init__(s, ops, untraced)
        self.tokens = 0
        self.nats = 0.0

    def op(self) -> None:
        pair = self.s.pairs[self.n % len(self.s.pairs)]
        t0 = time.perf_counter()
        try:
            mean, _ = training.evaluate(self.s.params, [pair])
        except OP_ERRORS as err:
            self.ops.check(False, f"eval: {err}")
            return
        self.rates["eval_sentence"].add(len(pair.label), time.perf_counter() - t0)
        self.tokens += len(pair.label)
        self.nats += mean * len(pair.label)
        self.ops.check(math.isfinite(mean), f"eval: non-finite loss {mean}")

    def result(self) -> PhaseResult:
        vocab = self.s.vocab
        ppl = math.exp(self.nats / self.tokens)
        self.ops.check(abs(ppl - vocab) / vocab < 0.05, f"eval: random-init perplexity {ppl} not within 5% of V={vocab}")
        return PhaseResult(
            metrics={"eval_tokens_per_s": (self.rates["eval_sentence"].rate(), "1/s")},
            rates=self.rates,
        )


class GeneratePhase(Phase):
    """Sample token by token with ``stack_step``; a sentence ends at the end token or 20 tokens."""

    timed = ("generate_token",)

    def __init__(self, s: Session, ops: Ops, untraced=nullcontext):
        super().__init__(s, ops, untraced)
        self.rng = np.random.default_rng(s.seed)
        self._restart()

    def _restart(self) -> None:
        self.state = lm.zero_state(self.s.params)
        self.token = corpus.start_token_id(self.s.vocab)
        self.length = 0

    def op(self) -> None:
        t0 = time.perf_counter()
        try:
            probs, self.state = lm.stack_step(self.s.params, self.token, self.state)
            self.token = int(self.rng.choice(self.s.vocab, p=probs))
        except OP_ERRORS as err:
            self.ops.check(False, f"generate: {err}")
            self._restart()
            return
        self.rates["generate_token"].add(1, time.perf_counter() - t0)
        self.ops.check(bool(np.all(np.isfinite(probs))) and abs(probs.sum() - 1.0) < 1e-9, "generate: bad distribution")
        self.length += 1
        if self.token == corpus.end_token_id(self.s.vocab) or self.length >= GENERATE_MAX_LEN:
            self._restart()

    def result(self) -> PhaseResult:
        return PhaseResult(
            metrics={"generate_tokens_per_s": (self.rates["generate_token"].rate(), "1/s")},
            rates=self.rates,
        )


class PersistPhase(Phase):
    """f32 ``save_model`` to a new file, then ``load_model``; the load must equal the f32 cast.

    The previous file is removed outside the timed region, so a save never
    pays for the file system freeing the old file's blocks.
    """

    timed = ("save_model", "load_model")

    def op(self) -> None:
        path = self.s.model_path
        path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            training.save_model(self.s.params, path, dtype="f32")
            t1 = time.perf_counter()
            loaded = training.load_model(path)
            t2 = time.perf_counter()
        except OP_ERRORS as err:
            self.ops.check(False, f"persist: {err}")
            return
        megabytes = path.stat().st_size / 1e6
        self.rates["save_model"].add(megabytes, t1 - t0)
        self.rates["load_model"].add(megabytes, t2 - t1)
        got = training.named_arrays(loaded)
        self.ops.check(
            all(np.array_equal(got[k], v.astype(np.float32)) for k, v in training.named_arrays(self.s.params).items()),
            "persist: f32 round trip differs from the f32 cast",
        )

    def result(self) -> PhaseResult:
        return PhaseResult(
            metrics={
                "save_mb_per_s": (self.rates["save_model"].rate(), "MB/s"),
                "load_mb_per_s": (self.rates["load_model"].rate(), "MB/s"),
            },
            rates=self.rates,
        )


# --- accelerator offload ---------------------------------------------------

def tile_batches(rows: int, cols: int) -> int:
    """Batches one rows x cols matvec needs on the core (edge tiles zero-padded)."""
    return math.ceil(rows / TILE.rows) * math.ceil(cols / TILE.chunk_len)


def macs_per_token(hidden: int, vocab: int) -> int:
    """Multiply-accumulates of one token's forward; layer 0's one-hot input term is a column pick."""
    layer0 = 4 * hidden * hidden  # recurrent W of four gates
    upper = 8 * hidden * hidden  # W and U of four gates, layers 1 and 2 each
    return layer0 + 2 * upper + vocab * hidden


def sim_counts(hidden: int, vocab: int) -> dict[str, float]:
    """Closed-form simulated cost of one token offloaded as in ``OffloadPhase``."""
    hh = tile_batches(hidden, hidden)
    per_layer = {"l0": 4 * hh, "l1": 8 * hh, "l2": 8 * hh, "output": tile_batches(vocab, hidden)}
    batches = sum(per_layer.values())
    report = accel.MacArrayCore(TILE).report()
    ns = batches * report.latency_ns
    return {
        **{f"batches_per_token.{k}": v for k, v in per_layer.items()},
        "batches_per_token": batches,
        "cycles_per_token": batches * report.latency_cycles,
        "ns_per_token": ns,
        "gops_per_token": 2 * macs_per_token(hidden, vocab) / ns,
    }


def _tiles(matrix: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(column-chunk index, zero-padded rows x chunk_len tile) in row-major tile order."""
    rows, chunk = TILE.rows, TILE.chunk_len
    out = []
    for r0 in range(0, matrix.shape[0], rows):
        for c0 in range(0, matrix.shape[1], chunk):
            tile = np.zeros((rows, chunk))
            block = matrix[r0:r0 + rows, c0:c0 + chunk]
            tile[: block.shape[0], : block.shape[1]] = block
            out.append((c0 // chunk, tile))
    return out


def offload_plan(params: lm.LstmStackParams) -> list[tuple[str, str, int, list]]:
    """Every hidden-width matvec of one token plus the output projection, as tiles.

    Entries are (layer, input kind, input layer, tiles); input kind "prev" is
    the layer's previous hidden state, "new" the current step's hidden state.
    """
    plan = []
    for l, layer in enumerate(params.layers):
        for g in GATES:
            plan.append((f"l{l}", "prev", l, _tiles(getattr(layer, "W" + g))))
        if l > 0:
            for g in GATES:
                plan.append((f"l{l}", "new", l - 1, _tiles(getattr(layer, "U" + g))))
    plan.append(("output", "new", len(params.layers) - 1, _tiles(params.V)))
    return plan


def _segments(h: np.ndarray) -> np.ndarray:
    """Zero-pad a vector to whole chunks; one row per chunk."""
    chunk = TILE.chunk_len
    padded = np.zeros(math.ceil(h.size / chunk) * chunk)
    padded[: h.size] = h
    return padded.reshape(-1, chunk)


class OffloadPhase(Phase):
    """Teacher-forced forward with every tile through from_real -> load_weights -> stream_roundtrip.

    Per token the phase also offloads layer 0's forget-gate pre-activation
    with ``offload_gate_preactivation`` on a core sized to the layer; once
    per run it runs ``golden_test``. ``offload_err_over_bound`` is the median,
    over the first ERR_TOKENS tokens, of each token's worst tile error over
    its bound: fixed per seed, unlike a maximum over however many tokens a
    run reaches. The gate offload's error is summarized the same way.
    """

    min_ops = max(MIN_OPS, ERR_TOKENS)
    timed = ("offload_token",)

    def __init__(self, s: Session, ops: Ops, untraced=nullcontext):
        super().__init__(s, ops, untraced)
        params = s.params
        self.plan = offload_plan(params)
        self.expected_batches = sim_counts(params.hidden, params.vocab)["batches_per_token"]
        self.gate_config = accel.AcceleratorConfig(num_pes=1, lanes_per_pe=params.hidden, chunk_len=params.hidden)
        self.core = accel.MacArrayCore(TILE)
        self.inputs = [t for pair in s.pairs for t in [None, *pair.input]]  # None: a new sentence starts
        self.pos = 0
        self.state = lm.zero_state(params)
        self.batches = 0
        self.token_worst: list[float] = []
        self.gate_ratio: list[float] = []  # per token: gate offload error over its bound
        self.operands = 0
        self.saturated = 0

    def _next_input(self) -> int:
        x = self.inputs[self.pos % len(self.inputs)]
        self.pos += 1
        if x is None:
            self.state = lm.zero_state(self.s.params)
            return self._next_input()
        return x

    def op(self) -> None:
        params = self.s.params
        x = self._next_input()
        prev = self.state
        done = []
        t0 = time.perf_counter()
        try:
            _, self.state = lm.stack_step(params, x, prev)
            real = {"prev": [_segments(h) for h in prev.h], "new": [_segments(h) for h in self.state.h]}
            quant = {k: [accel.FixedPointTensor.from_real(v, FMT).raw for v in vs] for k, vs in real.items()}
            for _, kind, src, tiles in self.plan:
                for chunk, w_tile in tiles:
                    w_q = accel.FixedPointTensor.from_real(w_tile, FMT)
                    self.core.load_weights(w_q.raw)
                    y = accel.stream_roundtrip(self.core, quant[kind][src][chunk])
                    done.append((w_tile, w_q.raw, real[kind][src][chunk], quant[kind][src][chunk], y))
            gate = cosim.offload_gate_preactivation(params.layers[0], prev.h[0], x, FMT, self.gate_config)
        except OP_ERRORS as err:
            self.ops.check(False, f"offload: {err}")
            self.state = lm.zero_state(params)
            return
        self.rates["offload_token"].add(len(done), time.perf_counter() - t0)
        self.batches += len(done)
        self._check(done, gate)

    def _check(self, done, gate) -> None:
        ops = self.ops
        ops.check(
            len(done) == self.expected_batches,
            f"offload: {len(done)} batches in a token, closed form {self.expected_batches}",
        )
        scale2 = float(FMT.scale) ** 2
        worst = 0.0
        for w_tile, w_raw, x_real, x_raw, y in done:
            bound = accel.matvec_error_bound(
                float(np.abs(w_tile).max()), float(np.abs(x_real).max()), TILE.chunk_len, FMT
            )
            err = float(np.abs(y / scale2 - w_tile @ x_real).max())
            worst = max(worst, err / bound if bound else 0.0)
            ops.check(
                np.array_equal(y, w_raw @ x_raw) and err <= bound,
                f"offload: tile differs from exact W @ x or error {err} over bound {bound}",
            )
            for raw in (w_raw, x_raw):
                self.operands += raw.size
                self.saturated += int(np.count_nonzero((raw == FMT.raw_min) | (raw == FMT.raw_max)))
        self.token_worst.append(worst)
        self.gate_ratio.append(gate.max_abs_err / gate.error_bound)
        ops.check(gate.max_abs_err <= gate.error_bound, f"offload: gate error {gate.max_abs_err} over {gate.error_bound}")

    def finish(self) -> None:
        super().finish()
        golden = cosim.golden_test()
        self.ops.check(golden.passed, str(golden))

    def result(self) -> PhaseResult:
        total = self.batches
        return PhaseResult(
            metrics={
                "sim_batches_per_s": (self.rates["offload_token"].rate(), "1/s"),
                "offload_err_over_bound": (float(np.median(self.token_worst[:ERR_TOKENS])), "ratio"),
            },
            counters={
                "batches": total,
                "stream_words": total * (TILE.chunk_len + 2 * TILE.rows),
                "saturated_frac": self.saturated / self.operands if self.operands else 0.0,
                "err_over_bound_max": max(self.token_worst, default=0.0),
                "gate_err_over_bound": float(np.median(self.gate_ratio[:ERR_TOKENS])),
                "gate_err_over_bound_max": max(self.gate_ratio, default=0.0),
            },
            rates=self.rates,
        )


def rate_record(results: dict[str, PhaseResult]) -> dict:
    """For the run record: per kind of operation, its per-op timing summary and per-round rates."""
    rates = {k: r for res in results.values() for k, r in res.rates.items()}
    return {
        "timings_s": {k: summarize(r.samples) for k, r in rates.items()},
        "round_rates": {k: r.per_round() for k, r in rates.items()},
    }


PHASE_CLASSES = {
    "train": TrainPhase,
    "eval": EvalPhase,
    "generate": GeneratePhase,
    "persist": PersistPhase,
    "offload": OffloadPhase,
}


def run_phases(s: Session, seconds: float, ops: Ops, between_rounds=None) -> dict[str, PhaseResult]:
    """Run every phase for its share of ``seconds``, interleaved in ROUNDS slices.

    Slicing spreads each phase over the whole run, so a slow stretch of a
    shared machine lands on every metric instead of on one phase.
    ``between_rounds`` is called after each round.
    """
    phases = {p: cls(s, ops) for p, cls in PHASE_CLASSES.items()}
    for _ in range(ROUNDS):
        for p, phase in phases.items():
            phase.run_for(s.workload.share(p) * seconds / ROUNDS)
        if between_rounds is not None:
            between_rounds()
    for phase in phases.values():
        phase.finish()
    return {p: phase.result() for p, phase in phases.items()}

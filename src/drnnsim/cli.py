"""Command-line front end: corpus prep, training, evaluation, generation,
accelerator benchmarking, and co-simulation verification.

Exit codes: 0 success, 1 usage error, 2 data error, 3 divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import accel, corpus, cosim, lm, training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own codes.
    def error(self, message):
        raise _UsageError(message)


def _fixed_point_format(text: str) -> accel.FixedPointFormat:
    """``FixedPointFormat.parse`` for ``--fmt``: argparse reports only an ArgumentTypeError's own message."""
    try:
        return accel.FixedPointFormat.parse(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drnnsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="tokenize text, build the vocabulary, encode the corpus")
    p.add_argument("input", help="UTF-8 text file")
    p.add_argument("--vocab-size", type=int, default=corpus.DEFAULT_VOCAB_BUDGET)
    p.add_argument("--vocab-out", default="vocab.txt")
    p.add_argument("--tokens-out", default="tokens.txt")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train the language model")
    p.add_argument("tokens", help="encoded corpus file from prep")
    p.add_argument("--vocab", required=True, help="vocabulary file from prep")
    p.add_argument("--hidden", type=int, default=lm.DEFAULT_HIDDEN)
    p.add_argument("--epochs", type=int, default=training.TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=training.TrainConfig.learning_rate)
    p.add_argument("--eval-interval", type=int, default=training.TrainConfig.eval_interval)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", default="model.drnn")
    p.add_argument("--log-out", default="train_log.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="perplexity of a model over a corpus")
    p.add_argument("model")
    p.add_argument("tokens")
    p.add_argument("--vocab", required=True)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="sample a sentence from a trained model")
    p.add_argument("model")
    p.add_argument("--vocab", required=True)
    p.add_argument("--max-len", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--greedy", action="store_true", help="argmax instead of sampling")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("accel-bench", help="print the accelerator model's per-batch timing trace")
    p.add_argument("--pes", type=int, default=accel.AcceleratorConfig.num_pes)
    p.add_argument("--lanes", type=int, default=accel.AcceleratorConfig.lanes_per_pe)
    p.add_argument("--clock-mhz", type=float, default=accel.AcceleratorConfig.clock_mhz)
    p.add_argument("--batches", type=int, default=1)
    p.add_argument("--trace-out", default=None, help="write the batch trace CSV here")
    p.set_defaults(func=cmd_accel_bench)

    p = sub.add_parser("cosim-verify", help="golden vectors, gate offload, throughput table")
    p.add_argument("--fmt", type=_fixed_point_format, default="8.8",
                   help="fixed-point format m.n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv-out", default=None, help="write the throughput CSV here")
    p.set_defaults(func=cmd_cosim_verify)
    return parser


def cmd_prep(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    sentences = corpus.tokenize(text)
    vocab = corpus.build_vocab(sentences, max_words=args.vocab_size)
    encoded = [[vocab.encode(w) for w in s] for s in sentences]
    corpus.save_vocab(vocab, args.vocab_out)
    corpus.save_encoded_corpus(encoded, args.tokens_out)
    print(f"vocabulary: {vocab.size} tokens -> {args.vocab_out}")
    print(f"corpus: {len(encoded)} sentences -> {args.tokens_out}")
    return EXIT_OK


def cmd_train(args) -> int:
    vocab = corpus.load_vocab(args.vocab)
    encoded = corpus.load_encoded_corpus(args.tokens, vocab.size)
    pairs = corpus.pairs_from_encoded(encoded, vocab.size)
    config = training.TrainConfig(
        learning_rate=args.lr, epochs=args.epochs,
        eval_interval=args.eval_interval, rng_seed=args.seed,
    )
    params = lm.init_params(hidden=args.hidden, vocab=vocab.size, seed=args.seed)
    params, log = training.train(params, pairs, config)
    training.save_model(params, args.model_out)
    log.write_csv(args.log_out)
    last = log.epoch_records()[-1]
    print(f"trained {args.epochs} epochs over {len(pairs)} sentences")
    print(f"final epoch mean loss {last.mean_loss:.6f} nats/token, perplexity {last.perplexity:.3f}")
    print(f"model -> {args.model_out}, log -> {args.log_out}")
    return EXIT_OK


def _load_model_and_vocab(args):
    """The model and vocabulary files named by ``args``, which must agree on the vocabulary size."""
    params = training.load_model(args.model)
    vocab = corpus.load_vocab(args.vocab)
    if vocab.size != params.vocab:
        raise ValueError(f"vocab size {vocab.size} != model vocab {params.vocab}")
    return params, vocab


def cmd_eval(args) -> int:
    params, vocab = _load_model_and_vocab(args)
    encoded = corpus.load_encoded_corpus(args.tokens, vocab.size)
    pairs = corpus.pairs_from_encoded(encoded, vocab.size)
    mean_loss, ppl = training.evaluate(params, pairs)
    print(f"mean loss {mean_loss:.6f} nats/token")
    print(f"perplexity {ppl:.6f}")
    if args.csv_out:
        log = training.TrainingLog()
        log.add(0, 0, mean_loss, kind="eval")
        log.write_csv(args.csv_out)
    return EXIT_OK


def cmd_generate(args) -> int:
    params, vocab = _load_model_and_vocab(args)
    rng = np.random.default_rng(lm._check_int(args.seed, "seed", 0))
    state = lm.zero_state(params)
    token = corpus.start_token_id(vocab.size)
    words = []
    for _ in range(lm._check_int(args.max_len, "max-len", 1)):
        probs, state = lm.stack_step(params, token, state)
        token = int(np.argmax(probs)) if args.greedy else int(rng.choice(params.vocab, p=probs))
        if token == corpus.end_token_id(vocab.size):
            break
        words.append(vocab.decode(token))
    print(" ".join(words))
    return EXIT_OK


def cmd_accel_bench(args) -> int:
    config = accel.AcceleratorConfig(
        num_pes=args.pes, lanes_per_pe=args.lanes, clock_mhz=args.clock_mhz
    )
    # Every batch takes the same time whatever its operands, so each row is the config's report.
    report = config.report
    row = f"{report.mult_ops},{report.add_ops},{report.latency_cycles},{report.latency_ns:.17g},{report.gops:.17g}"
    lines = ["batch,mult_ops,add_ops,latency_cycles,latency_ns,gops"]
    lines += [f"{batch},{row}" for batch in range(1, lm._check_int(args.batches, "batches", 1) + 1)]
    trace = "\n".join(lines) + "\n"
    print(f"{config.num_pes} PEs x {config.lanes_per_pe} lanes, "
          f"{config.chunk_len} operands/batch @ {config.clock_mhz:g} MHz")
    print(trace, end="")
    if args.trace_out:
        Path(args.trace_out).write_text(trace, encoding="utf-8")
    return EXIT_OK


def cmd_cosim_verify(args) -> int:
    rng = np.random.default_rng(lm._check_int(args.seed, "seed", 0))
    golden = cosim.golden_test()
    print(golden)
    print(f"hardware: {golden.hardware}")
    print(f"software: {golden.software}")

    config = accel.AcceleratorConfig()
    params = lm.init_params(hidden=config.chunk_len, vocab=lm.DEFAULT_VOCAB, seed=args.seed)
    h_prev = rng.uniform(-1.0, 1.0, size=config.chunk_len)
    x_id = int(rng.integers(0, params.vocab))
    offload = cosim.offload_gate_preactivation(params.layers[0], h_prev, x_id, args.fmt)
    within = offload.max_abs_err <= offload.error_bound
    print(
        f"gate pre-activation offload ({args.fmt}): max |error| = {offload.max_abs_err:.3e} "
        f"(bound {offload.error_bound:.3e}) -> {'PASS' if within else 'FAIL'}"
    )

    report = cosim.throughput_report()
    print(report.render_text())
    print(report.to_csv(), end="")
    if args.csv_out:
        Path(args.csv_out).write_text(report.to_csv(), encoding="utf-8")
    return EXIT_OK if (golden.passed and within) else EXIT_DATA


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except training.DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError, RuntimeError, MemoryError) as err:  # MemoryError: sizes too large to allocate
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

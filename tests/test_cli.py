"""End-to-end command-line tests (prep, train, eval, generate, bench, cosim)."""

import pytest

from drnnsim import corpus, lm, training
from drnnsim.cli import main
from drnnsim.corpus import SPECIAL_TOKENS

TINY_TEXT = (
    "The sun rises. The sun sets. The moon rises. The moon sets slowly. "
    "The sun shines. The moon shines. The sun rises slowly. The moon rises."
)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(TINY_TEXT, encoding="utf-8")
    return path


def run_prep(tmp_path, corpus_file, vocab_size=50):
    vocab_out = tmp_path / "vocab.txt"
    tokens_out = tmp_path / "tokens.txt"
    code = main([
        "prep", str(corpus_file), "--vocab-size", str(vocab_size),
        "--vocab-out", str(vocab_out), "--tokens-out", str(tokens_out),
    ])
    return code, vocab_out, tokens_out


def run_train(tmp_path, vocab_out, tokens_out, tag="", **overrides):
    model_out = tmp_path / f"model{tag}.drnn"
    log_out = tmp_path / f"log{tag}.csv"
    args = {"--hidden": "6", "--epochs": "2", "--lr": "0.05", "--seed": "11"}
    args.update({k: str(v) for k, v in overrides.items()})
    argv = ["train", str(tokens_out), "--vocab", str(vocab_out),
            "--model-out", str(model_out), "--log-out", str(log_out)]
    for k, v in args.items():
        argv += [k, v]
    return main(argv), model_out, log_out


class TestPrep:
    def test_writes_vocab_and_tokens(self, tmp_path, corpus_file):
        code, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        assert code == 0
        lines = vocab_out.read_text().splitlines()
        assert lines[-3:] == list(SPECIAL_TOKENS)
        vocab = corpus.load_vocab(vocab_out)
        encoded = corpus.load_encoded_corpus(tokens_out, vocab.size)
        assert len(encoded) == 8

    def test_rerun_is_idempotent(self, tmp_path, corpus_file):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        first = (vocab_out.read_bytes(), tokens_out.read_bytes())
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        assert (vocab_out.read_bytes(), tokens_out.read_bytes()) == first

    def test_zero_vocab_size_fails(self, tmp_path, corpus_file):
        code, _, _ = run_prep(tmp_path, corpus_file, vocab_size=0)
        assert code == 2

    def test_missing_input_fails(self, tmp_path):
        assert main(["prep", str(tmp_path / "nope.txt")]) == 2


class TestTrain:
    def test_two_epoch_run_writes_model_and_log(self, tmp_path, corpus_file):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        code, model_out, log_out = run_train(tmp_path, vocab_out, tokens_out)
        assert code == 0
        lines = log_out.read_text().splitlines()
        assert lines[0] == training.CSV_HEADER
        # 16 steps with the default interval of 100: only the 2 epoch records
        assert len(lines) == 3
        first_loss = float(lines[1].split(",")[2])
        second_loss = float(lines[2].split(",")[2])
        assert second_loss < first_loss
        params = training.load_model(model_out)
        assert params.hidden == 6

    def test_zero_epochs_fails(self, tmp_path, corpus_file):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        code, _, _ = run_train(tmp_path, vocab_out, tokens_out, **{"--epochs": 0})
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                             ("--hidden", "0"), ("--hidden", "-2")])
    def test_bad_rate_or_width_is_a_one_line_data_error(self, tmp_path, corpus_file, capsys, flag, value):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        capsys.readouterr()
        code, model_out, _ = run_train(tmp_path, vocab_out, tokens_out, **{flag: value})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not model_out.exists()

    def test_width_too_large_to_allocate_is_a_one_line_data_error(self, tmp_path, corpus_file, capsys):
        # The parameter buffer is about 2e15 float64s, 14.2 PiB, beyond the 128 TiB x86-64
        # user address space: the allocation fails before any memory is touched.
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        capsys.readouterr()
        code, model_out, _ = run_train(tmp_path, vocab_out, tokens_out, **{"--hidden": 10**7})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 14.2 PiB") and err.count("\n") == 1
        assert not model_out.exists()

    def test_divergence_exits_3(self, tmp_path, corpus_file, capsys, monkeypatch):
        def diverge(params, pairs, config):
            raise training.DivergenceError("diverged: non-finite loss at step 4")

        monkeypatch.setattr(training, "train", diverge)
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        capsys.readouterr()
        code, model_out, _ = run_train(tmp_path, vocab_out, tokens_out)
        assert code == 3
        assert capsys.readouterr().err == "error: diverged: non-finite loss at step 4\n"
        assert not model_out.exists()

    def test_identical_seeds_give_identical_outputs(self, tmp_path, corpus_file):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        _, model_a, log_a = run_train(tmp_path, vocab_out, tokens_out, tag="_a")
        _, model_b, log_b = run_train(tmp_path, vocab_out, tokens_out, tag="_b")
        assert model_a.read_bytes() == model_b.read_bytes()
        assert log_a.read_bytes() == log_b.read_bytes()


class TestEval:
    def test_untrained_model_scores_near_vocab_size(self, tmp_path, corpus_file, capsys):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        capsys.readouterr()
        vocab = corpus.load_vocab(vocab_out)
        model = tmp_path / "untrained.drnn"
        training.save_model(lm.init_params(hidden=6, vocab=vocab.size, seed=0), model)
        csv_out = tmp_path / "eval.csv"
        code = main(["eval", str(model), str(tokens_out), "--vocab", str(vocab_out),
                     "--csv-out", str(csv_out)])
        assert code == 0
        out = capsys.readouterr().out
        ppl = float(out.split("perplexity")[1].split()[0])
        assert ppl == pytest.approx(vocab.size, rel=0.05)
        assert csv_out.read_text().splitlines()[0] == training.CSV_HEADER

    def test_trained_beats_untrained(self, tmp_path, corpus_file, capsys):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        vocab = corpus.load_vocab(vocab_out)
        untrained = tmp_path / "untrained.drnn"
        training.save_model(lm.init_params(hidden=6, vocab=vocab.size, seed=11), untrained)
        _, trained, _ = run_train(tmp_path, vocab_out, tokens_out, **{"--epochs": 30})
        capsys.readouterr()

        ppls = []
        for model in (untrained, trained):
            assert main(["eval", str(model), str(tokens_out), "--vocab", str(vocab_out)]) == 0
            out = capsys.readouterr().out
            ppls.append(float(out.split("perplexity")[1].split()[0]))
        assert ppls[1] < ppls[0]

    def test_empty_eval_set_fails(self, tmp_path, corpus_file):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        vocab = corpus.load_vocab(vocab_out)
        model = tmp_path / "m.drnn"
        training.save_model(lm.init_params(hidden=4, vocab=vocab.size, seed=0), model)
        assert main(["eval", str(model), str(empty), "--vocab", str(vocab_out)]) == 2

    def test_corrupt_model_file_fails(self, tmp_path, corpus_file):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        bad = tmp_path / "bad.drnn"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["eval", str(bad), str(tokens_out), "--vocab", str(vocab_out)]) == 2


@pytest.mark.parametrize("command", ["eval", "generate"])
def test_model_and_vocabulary_sizes_must_agree(tmp_path, corpus_file, capsys, command):
    _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
    vocab = corpus.load_vocab(vocab_out)
    model = tmp_path / "m.drnn"
    training.save_model(lm.init_params(hidden=4, vocab=vocab.size + 1, seed=0), model)
    capsys.readouterr()
    argv = [command, str(model)] + ([str(tokens_out)] if command == "eval" else []) + ["--vocab", str(vocab_out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: vocab size {vocab.size} != model vocab {vocab.size + 1}\n"


class TestGenerate:
    def setup_model(self, tmp_path, corpus_file):
        _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
        _, model_out, _ = run_train(tmp_path, vocab_out, tokens_out)
        return model_out, vocab_out

    def test_max_len_one_emits_at_most_one_token(self, tmp_path, corpus_file, capsys):
        model, vocab_out = self.setup_model(tmp_path, corpus_file)
        capsys.readouterr()  # drop setup output
        assert main(["generate", str(model), "--vocab", str(vocab_out),
                     "--max-len", "1", "--seed", "5"]) == 0
        words = capsys.readouterr().out.split()
        assert len(words) <= 1

    def test_fixed_seed_is_reproducible(self, tmp_path, corpus_file, capsys):
        model, vocab_out = self.setup_model(tmp_path, corpus_file)
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(["generate", str(model), "--vocab", str(vocab_out),
                         "--max-len", "12", "--seed", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_all_emitted_words_are_in_vocabulary(self, tmp_path, corpus_file, capsys):
        model, vocab_out = self.setup_model(tmp_path, corpus_file)
        vocab = corpus.load_vocab(vocab_out)
        capsys.readouterr()
        assert main(["generate", str(model), "--vocab", str(vocab_out),
                     "--max-len", "20", "--seed", "3"]) == 0
        for word in capsys.readouterr().out.split():
            assert word in vocab.words

    def test_max_len_zero_fails(self, tmp_path, corpus_file, capsys):
        model, vocab_out = self.setup_model(tmp_path, corpus_file)
        capsys.readouterr()
        assert main(["generate", str(model), "--vocab", str(vocab_out), "--max-len", "0"]) == 2
        assert capsys.readouterr().err == "error: max-len must be >= 1, got 0\n"

    def test_greedy_mode(self, tmp_path, corpus_file, capsys):
        model, vocab_out = self.setup_model(tmp_path, corpus_file)
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(["generate", str(model), "--vocab", str(vocab_out),
                         "--max-len", "10", "--greedy"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestAccelBench:
    def test_default_bench_reports_20_gops(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["accel-bench", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "batch,mult_ops,add_ops,latency_cycles,latency_ns,gops" in out
        assert ",2500,2500,50,250," in out
        assert out.rstrip().endswith("20")
        lines = trace.read_text().splitlines()
        assert lines[1].split(",")[5] == "20"

    def test_bad_geometry_fails(self):
        assert main(["accel-bench", "--lanes", "0"]) == 2

    @pytest.mark.parametrize("clock", ["nan", "inf", "0"])
    def test_clock_must_be_finite_and_positive(self, clock, capsys):
        assert main(["accel-bench", "--clock-mhz", clock]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: clock_mhz must be finite and > 0, got {float(clock)}\n"

    def test_clock_too_small_for_a_finite_latency(self, capsys):
        assert main(["accel-bench", "--clock-mhz", "1e-320"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: clock_mhz 1e-320 is too small: a batch's latency in ns is not finite\n"
        )

    def test_clock_too_large_for_a_finite_gops(self, capsys):
        # 100 x 10 rows at 1.7e308 MHz give 2 * 1000 * 1.7e308 / 1000 GOPS: inf.
        assert main(["accel-bench", "--pes", "100", "--clock-mhz", "1.7e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: clock_mhz 1.7e+308 is too large: a batch's GOPS is not finite\n"

    @pytest.mark.parametrize("size, error", [
        (10**200, "error: num_pes * lanes_per_pe * chunk_len is too large: a batch's report overflows a float"),
    ], ids=["too-large-to-time"])
    def test_geometry_too_large_is_a_one_line_data_error(self, size, error, capsys):
        assert main(["accel-bench", "--pes", str(size), "--lanes", str(size)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error) and captured.err.count("\n") == 1

    def test_huge_geometry_prints_its_closed_form_rows(self, capsys):
        # 10^12 rows: the trace is the config's report, so no weight array is ever allocated.
        assert main(["accel-bench", "--pes", "1000000", "--lanes", "1000000", "--batches", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert rows == [f"{b},50000000000000,50000000000000,50,250,400000000000" for b in (1, 2)]

    def test_tiny_clock_still_reports(self, capsys):
        assert main(["accel-bench", "--clock-mhz", "1e-300"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert float(row[4]) == 50 * 1000.0 / 1e-300 and float(row[5]) > 0

    def test_zero_batches_fails(self, capsys):
        assert main(["accel-bench", "--batches", "0"]) == 2
        assert capsys.readouterr().err == "error: batches must be >= 1, got 0\n"

    def test_deterministic_trace(self, tmp_path):
        traces = []
        for tag in ("a", "b"):
            path = tmp_path / f"trace_{tag}.csv"
            assert main(["accel-bench", "--batches", "3", "--trace-out", str(path)]) == 0
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]


class TestCosimVerify:
    def test_verify_passes_and_prints_everything(self, tmp_path, capsys):
        csv_out = tmp_path / "throughput.csv"
        assert main(["cosim-verify", "--csv-out", str(csv_out)]) == 0
        out = capsys.readouterr().out
        assert "golden vector check: PASS" in out
        assert "1275" in out and "63750" in out
        assert "offload" in out and "PASS" in out
        assert "70.50x" in out and "2.75x" in out
        assert csv_out.exists()

    def test_bad_format_flag_is_a_usage_error(self):
        assert main(["cosim-verify", "--fmt", "nonsense"]) == 1

    def test_bad_format_flag_keeps_the_parser_message(self, capsys):
        assert main(["cosim-verify", "--fmt", "8.8.8"]) == 1
        assert capsys.readouterr() == (
            "", "usage error: argument --fmt: bad fixed-point format '8.8.8', expected 'm.n'\n")


@pytest.mark.parametrize("entry, message", [
    ("init_params", "seed must be >= 0, got -1"),
    ("TrainConfig", "rng_seed must be >= 0, got -1"),
    ("train", "rng_seed must be >= 0, got -1"),
    ("generate", "seed must be >= 0, got -1"),
    ("cosim-verify", "seed must be >= 0, got -1"),
])
def test_a_negative_seed_names_its_field(entry, message, tmp_path, corpus_file, capsys):
    _, vocab_out, tokens_out = run_prep(tmp_path, corpus_file)
    model = tmp_path / "model.drnn"
    training.save_model(lm.init_params(hidden=3, vocab=corpus.load_vocab(vocab_out).size), model)
    capsys.readouterr()
    commands = {
        "train": ["train", str(tokens_out), "--vocab", str(vocab_out), "--model-out", str(tmp_path / "out.drnn")],
        "generate": ["generate", str(model), "--vocab", str(vocab_out)],
        "cosim-verify": ["cosim-verify"],
    }
    if entry in commands:
        assert main([*commands[entry], "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    else:
        calls = {"init_params": lambda: lm.init_params(seed=-1), "TrainConfig": lambda: training.TrainConfig(rng_seed=-1)}
        with pytest.raises(ValueError, match=f"^{message}$"):
            calls[entry]()


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["train", "tokens.txt"]) == 1

    def test_unknown_flag(self):
        assert main(["accel-bench", "--frobnicate"]) == 1

    def test_accel_bench_takes_no_seed(self, capsys):
        # The trace depends on the config alone, so there is no seed to set.
        assert main(["accel-bench", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_bad_flag_value(self):
        assert main(["accel-bench", "--pes", "many"]) == 1

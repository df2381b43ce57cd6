"""Tests of the benchmark's own code: span arithmetic, the corpus generator,
the closed-form simulated counts and the traced-equals-untraced check.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import drnnsim  # noqa: E402
from drnnsim import corpus, lm, training  # noqa: E402

import synth  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # parent [0, 10]; child a [1, 3]; child b [4, 8] holding grandchild [5, 6]
    tr = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 8, 10))
    with tr.span("parent"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("grand"):
                pass
    assert tr.durations("parent") == [10]
    assert tr.self_times("parent") == [4]  # 10 - 2 - 4; the grandchild is inside b
    assert tr.self_times("b") == [3]
    assert tr.self_times("grand") == [1]
    assert tr.durations("grand", parent="b") == [1]
    assert tr.durations("grand", parent="parent") == []
    assert sum(tr.self_times()) == 10  # self times partition the root span
    assert tr.module_totals()["parent"] == {"self_s": 4, "spans": 1}


def test_installed_patches_cross_module_references_and_restores_them():
    originals = (lm.stack_forward, training.stack_forward, drnnsim.stack_forward)
    params = lm.init_params(hidden=3, vocab=7, seed=0)
    pair = corpus.TrainingPair(input=[4, 1, 2], label=[1, 2, 5])
    tr = Tracer()
    with tr.installed(drnnsim):
        assert lm.stack_forward is training.stack_forward is not originals[0]
        training.evaluate(params, [pair])
    assert (lm.stack_forward, training.stack_forward, drnnsim.stack_forward) == originals
    assert len(tr.durations("training.evaluate")) == 1
    assert tr.durations("lm.stack_forward", parent="training.evaluate")
    assert len(tr.durations("lm.softmax")) == 3


def test_summarize_reports_highest_percentile_with_ten_samples_beyond():
    assert summarize(range(1, 101)) == {"median": 50.5, "n": 100, "p90": 90}
    assert summarize(range(1000)) == {"median": 499.5, "n": 1000, "p99": 989}
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}


def test_zipf_corpus_is_a_function_of_the_seed():
    a = synth.zipf_sentences(7, 40, 4000)
    assert a == synth.zipf_sentences(7, 40, 4000)
    assert a != synth.zipf_sentences(8, 40, 4000)
    assert len(a) == 40
    assert sorted(len(s) for s in a[:synth.BLOCK]) == list(range(synth.MIN_LEN, synth.MAX_LEN + 1))
    assert all(synth.MIN_LEN <= len(s) <= synth.MAX_LEN for s in a)
    assert all(0 <= k < 4000 - 3 for s in a for k in s)
    assert corpus.tokenize(synth.render_text(a)) == synth.rendered_tokens(a)


def test_closed_form_cost_at_the_paper_shape():
    sim = workloads.sim_counts(hidden=50, vocab=4000)
    per_layer = [sim[f"batches_per_token.{k}"] for k in ("l0", "l1", "l2", "output")]
    assert per_layer == [4, 8, 8, 80]
    assert sim["batches_per_token"] == 100
    assert sim["cycles_per_token"] == 5000
    assert sim["ns_per_token"] == 25_000
    assert sim["gops_per_token"] == pytest.approx(20.0)
    assert workloads.macs_per_token(50, 4000) == 250_000


@pytest.mark.parametrize("hidden, vocab", [(16, 59), (50, 4000), (7, 123)])
def test_offload_plan_matches_closed_form(hidden, vocab):
    plan = workloads.offload_plan(lm.init_params(hidden=hidden, vocab=vocab, seed=0))
    counts = {}
    for layer, _, _, tiles in plan:
        counts[layer] = counts.get(layer, 0) + len(tiles)
    sim = workloads.sim_counts(hidden, vocab)
    assert counts == {k: sim[f"batches_per_token.{k}"] for k in counts}


def test_round_rate_weighs_operations_by_time_and_takes_the_lower_quartile():
    r = workloads.RoundRates()
    for units_seconds in ([(1, 1.0), (9, 1.0)], [(2, 1.0)], [(30, 10.0)], [(8, 1.0), (0, 1.0)], [(5, 1.0)]):
        r.new_round()
        for units, seconds in units_seconds:
            r.add(units, seconds)
    r.new_round()  # a round without operations has no rate
    assert r.per_round() == [5.0, 2.0, 3.0, 4.0, 5.0]
    assert r.rate() == pytest.approx(3.0)  # lower quartile of 2, 3, 4, 5, 5
    assert len(r.samples) == 7


SMALL = workloads.Workload(
    name="small", hidden=4, vocab=40, main="train", learning_rate=0.1, train_sentences=3, checkpoint_epochs=2,
)


def test_traced_training_loop_equals_untraced_train(tmp_path):
    s = workloads.setup(SMALL, seed=3, workdir=tmp_path)
    ops = workloads.Ops()
    tr = Tracer()
    with tr.installed(drnnsim):
        phase = workloads.TrainPhase(s, ops, untraced=lambda: tr.suspended(drnnsim))
        phase.finish()
    result = phase.result()
    assert ops.failed == 0, ops.errors
    steps = result.counters["steps"]
    assert steps == SMALL.checkpoint_epochs * SMALL.train_sentences
    # the reference training.train ran untraced: only the loop's steps have spans
    assert len(tr.durations("training.bptt_gradients")) == len(tr.durations("training.sgd_step")) == steps
    assert tr.durations("training.train") == []


def test_train_equality_check_catches_a_one_ulp_difference(tmp_path, monkeypatch):
    s = workloads.setup(SMALL, seed=3, workdir=tmp_path)
    ops = workloads.Ops()
    real_train = training.train

    def nudged_train(params, pairs, config):
        params, log = real_train(params, pairs, config)
        params.V[0, 0] = np.nextafter(params.V[0, 0], np.inf)
        return params, log

    monkeypatch.setattr(training, "train", nudged_train)
    workloads.TrainPhase(s, ops).finish()
    assert ops.failed == 1
    assert "differ from training.train" in ops.errors[0]


def test_every_phase_passes_its_checks_on_a_small_model(tmp_path):
    s = workloads.setup(SMALL, seed=5, workdir=tmp_path)
    ops = workloads.Ops()
    results = workloads.run_phases(s, 0.0, ops)
    assert ops.failed == 0, ops.errors
    metrics = {k: v for r in results.values() for k, v in r.metrics.items()}
    assert set(metrics) == {
        "train_tokens_per_s", "train_final_ppl", "eval_tokens_per_s", "generate_tokens_per_s",
        "save_mb_per_s", "load_mb_per_s", "sim_batches_per_s", "offload_err_over_bound",
    }
    assert all(v > 0 for v, _ in metrics.values())
    assert 0 < metrics["offload_err_over_bound"][0] <= 1
    assert np.isfinite(metrics["train_final_ppl"][0])

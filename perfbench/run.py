"""drnnsim benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-tiny --seed 1 --seconds 20 --trace 0

It imports drnnsim from ``src/`` next to this directory, sets the workload
up from the seed several times (``setup_s`` is the median), runs the
workload's closed-loop phases for ``--seconds`` and prints two JSON lines:
run details (environment, corpus counts, per-op timing summaries) and, last,
the result ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones of a separate traced run (see traced.py).
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set in main before numpy is first imported.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# glibc's default mmap threshold adapts to the blocks a process has freed:
# a large array gets fresh, page-faulting mmap pages until the process has
# once freed an mmap'd block at least as large, and heap pages after. Which
# happens first depends on the run, so with the default one load_model at
# h50/V4000 ran at ~335 MB/s in four runs out of five and at ~800 MB/s in
# the fifth. Fixed thresholds, the state a long-running process drifts to,
# make it the same in every run; a run where they cannot be set is counted
# as a failed operation.
MALLOC_OPTIONS = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 512 << 20)}


def fix_malloc_thresholds() -> bool:
    """Apply MALLOC_OPTIONS with mallopt; False where the C library has none (not glibc)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    return mallopt is not None and all(mallopt(param, value) == 1 for param, value in MALLOC_OPTIONS.values())


BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_SLICE_S = 0.1


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description="drnnsim benchmark")
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "malloc": {k: v for k, (_, v) in MALLOC_OPTIONS.items()},
    }


def main(argv=None) -> int:
    if not (SRC / "drnnsim" / "__init__.py").is_file():
        print(f"error: drnnsim sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)
    malloc_fixed = fix_malloc_thresholds()
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import drnnsim

    import_s = time.perf_counter() - import_start
    if Path(drnnsim.__file__).resolve().parent != SRC / "drnnsim":
        print(f"error: imported drnnsim from {drnnsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import summarize
    from traced import traced_run
    from workloads import WORKLOADS, Ops, rate_record, run_phases, setup

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    ops = Ops()
    ops.check(malloc_fixed, "mallopt could not fix the malloc thresholds; the figures would not compare")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        setup_times = []

        def set_up():
            """Set the workload up at least once and for at least SETUP_SLICE_S; keep the last session."""
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                session = setup(workload, args.seed, Path(workdir))
                setup_times.append(time.perf_counter() - t0)
                if time.perf_counter() - start >= SETUP_SLICE_S:
                    return session

        session = set_up()
        info = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "corpus": {
                "sentences": len(session.pairs),
                "tokens": sum(len(p.label) for p in session.pairs),
                "vocab": session.vocab,
                "hidden": session.params.hidden,
                "train_sentences": len(session.train_pairs),
            },
            "import_s": import_s,
        }
        if args.trace:
            metrics, trace_info = traced_run(session, args.seconds, ops)
            info.update(trace_info)
        else:
            # Further set-ups between rounds sample set-up time across the whole run.
            results = run_phases(session, args.seconds, ops, between_rounds=set_up)
            metrics = {"setup_s": (statistics.median(setup_times), "s")}
            for r in results.values():
                metrics.update(r.metrics)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
            info.update(rate_record(results))
            info["counters"] = {p: {k: float(v) for k, v in r.counters.items()} for p, r in results.items() if r.counters}
        info["setup_s"] = summarize(setup_times)
    info["errors"] = ops.errors
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

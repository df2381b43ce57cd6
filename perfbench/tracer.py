"""In-memory spans around the public functions of drnnsim's modules.

The tracer patches module attributes from outside the program (no change to
drnnsim itself). A function imported by name into another drnnsim module is
patched there too, so ``training.evaluate`` calling ``stack_forward`` is seen.
Spans nest on a stack: a span's parent is the span open when it started, and
its self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

# The layer boundaries that get a span, by module. "Class.method" names a
# method; everything else is a module-level function.
TRACED = {
    "corpus": ("tokenize", "build_vocab", "make_training_pairs", "pairs_from_encoded"),
    "lm": ("init_params", "lstm_cell_forward", "softmax", "stack_forward", "stack_forward_trace", "stack_step"),
    "training": ("bptt_gradients", "sgd_step", "train", "evaluate", "save_model", "load_model"),
    "accel": (
        "FixedPointTensor.from_real", "MacArrayCore.load_weights", "MacArrayCore.run_batch",
        "MacArrayCore.stream_batch", "to_stream", "decode_output_stream", "stream_roundtrip",
    ),
    "cosim": ("golden_test", "offload_gate_preactivation", "throughput_report"),
}


class Tracer:
    """Span recorder. Spans are kept in parallel lists until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)

        return traced

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations in seconds of every span called ``name`` (under ``parent``, if given)."""
        return [
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.names)
            if n == name and (parent is None or (self.parents[i] >= 0 and self.names[self.parents[i]] == parent))
        ]

    def self_times(self, name: str | None = None) -> list[float]:
        """Self time of every span called ``name`` (all spans if None), in start order."""
        child_total = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_total[p] += self.ends[i] - self.starts[i]
        return [
            self.ends[i] - self.starts[i] - child_total[i]
            for i, n in enumerate(self.names)
            if name is None or n == name
        ]

    def module_totals(self) -> dict[str, dict[str, float]]:
        """Per module: summed self time in seconds and span count."""
        totals: dict[str, dict[str, float]] = {}
        for n, t in zip(self.names, self.self_times()):
            entry = totals.setdefault(n.split(".", 1)[0], {"self_s": 0.0, "spans": 0})
            entry["self_s"] += t
            entry["spans"] += 1
        return totals

    def install(self, package) -> None:
        """Patch every ``TRACED`` boundary of ``package`` (the imported drnnsim)."""
        modules = [getattr(package, m) for m in TRACED] + [package]
        for mod_name, attrs in TRACED.items():
            mod = getattr(package, mod_name)
            for attr in attrs:
                span_name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, classmethod):
                        patched = classmethod(self.wrap(orig.__func__, span_name))
                    else:
                        patched = self.wrap(orig, span_name)
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, patched)
                    continue
                orig = getattr(mod, attr)
                patched = self.wrap(orig, span_name)
                for holder in modules:
                    if holder.__dict__.get(attr) is orig:
                        self._undo.append((holder, attr, orig))
                        setattr(holder, attr, patched)

    def uninstall(self) -> None:
        """Put back every original that ``install`` replaced."""
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def suspended(self, package):
        """Run a block untraced inside an ``installed`` block."""
        self.uninstall()
        try:
            yield
        finally:
            self.install(package)


def summarize(samples) -> dict[str, float]:
    """Median, the highest of p50/p90/p99/p99.9 with at least ten samples beyond it, and the count.

    Percentiles are nearest-rank. With fewer than 20 samples only the median
    is given.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return {"n": 0}
    mid = n // 2
    out = {"median": values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid]), "n": n}
    for permille in (999, 990, 900, 500):
        rank = -(-permille * n // 1000)  # nearest rank, in integers to avoid float rounding
        if n - rank >= 10:
            out[f"p{permille / 10:g}"] = values[rank - 1]
            break
    return out

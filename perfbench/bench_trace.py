"""Spans and counters recorded around calls into compresslearn's layers.

The wrappers live in the benchmark, not in ``src/``.  Each one replaces a
name as the calling module binds it (``compresslearn.learners.log_density``,
``compresslearn.compression.gd.solve_hull_coefficients``, ...), so every
call the pipeline makes through that name opens a span.  Codec methods are
wrapped by rebuilding the frozen ``Codec`` with ``dataclasses.replace``.

A span is ``[name, start, end, parent, op]``.  Spans stay in memory until
the run ends; a layer's self time is its spans' duration minus the time
their direct child spans cover.  Calls made outside an operation (the
benchmark's own input generation and TV scoring) are not recorded.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
import tracemalloc
from collections import defaultdict

from compresslearn.errors import DecodingError


class Tracer:
    """In-memory span list plus counters keyed by metric name."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def layer_times(self) -> dict:
        """``{name: (total_s, self_s, calls)}`` computed from the spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += end - start
            acc[1] += end - start - child[i]
            acc[2] += 1
        return {name: tuple(v) for name, v in out.items()}


def traced_codec(tracer: Tracer, codec):
    """The codec with ``encode``/``decode``/``random_payload`` wrapped."""
    counts = tracer.counts

    def encode(target, samp, eps):
        outcome = tracer.span("compression.encode", codec.encode,
                              target, samp, eps)
        if tracer.op is not None and outcome.ok:
            counts["compression.encode.ok"] += 1
        return outcome

    def decode(message, points, eps):
        try:
            return tracer.span("compression.decode", codec.decode,
                               message, points, eps)
        except DecodingError:
            if tracer.op is not None:
                counts["compression.decode.fail"] += 1
            raise

    def random_payload(eps, rng):
        return tracer.span("compression.random_payload",
                           codec.random_payload, eps, rng)

    return dataclasses.replace(codec, encode=encode, decode=decode,
                               random_payload=random_payload)


def _wrappers(tracer: Tracer) -> list:
    """``(module, attribute, replacement)`` for every patched name."""
    counts = tracer.counts

    def pairwise(original):
        def wrapped(values):
            if tracer.op is None:
                return original(values)
            m, n = values.shape
            counts["kernels.pairwise_greater_fraction.cmp"] += m * m * n
            tracemalloc.start()
            try:
                return tracer.span("kernels.pairwise_greater_fraction",
                                   original, values)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
                key = "kernels.pairwise_greater_fraction.peak_mb"
                counts[key] = max(counts[key], peak)
        return wrapped

    def log_density(original):
        def wrapped(dist, x):
            if tracer.op is not None:
                shape = getattr(x, "shape", ())
                counts["gaussmodels.log_density.points"] += \
                    shape[0] if len(shape) == 2 else 1
            return tracer.span("gaussmodels.log_density", original, dist, x)
        return wrapped

    def sample(original):
        def wrapped(dist, n, seed):
            if tracer.op is not None:
                counts["gaussmodels.sample.points"] += n
            return tracer.span("gaussmodels.sample", original, dist, n, seed)
        return wrapped

    def plain(name):
        def wrap(original):
            def wrapped(*args, **kwargs):
                return tracer.span(name, original, *args, **kwargs)
            return wrapped
        return wrap

    def codec_for(original):
        def wrapped(scheme, target):
            return traced_codec(tracer, original(scheme, target))
        return wrapped

    return [
        ("compresslearn.learners", "pairwise_greater_fraction", pairwise),
        ("compresslearn.learners", "log_density", log_density),
        ("compresslearn.learners", "sample", sample),
        ("compresslearn.learners", "select_candidate",
         plain("learners.select_candidate")),
        ("compresslearn.distances", "log_density", log_density),
        ("compresslearn.distances", "sample", sample),
        ("compresslearn.harness", "sample", sample),
        ("compresslearn.harness", "tv_mc", plain("distances.tv_mc")),
        ("compresslearn.harness", "codec_for", codec_for),
        ("compresslearn.compression.gd", "solve_hull_coefficients",
         plain("nets.solve_hull_coefficients")),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, make in _wrappers(tracer):
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, make(original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

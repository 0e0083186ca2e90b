"""What ``perfbench/bench_trace.py`` needs from the package: every name its
tracer patches still exists, and a codec rebuilt with traced ``encode``,
``decode`` and ``random_payload`` still decodes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from compresslearn import (SCHEME_CHOICES, Gaussian, Mixture, codec_for,
                           dist_to_json, sample)

from helpers import encode_with_retries

EPS = 0.5
BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" \
    / "bench_trace.py"

TARGETS = {
    "g1d": Gaussian([1.5], [[4.0]]),
    "g1d_robust": Gaussian([-0.5], [[2.0]]),
    "gd": Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]]),
    "axis": Gaussian([0.5, -1.0], [[2.0, 0.0], [0.0, 0.7]]),
    "mixture": Mixture([0.4, 0.6], [Gaussian([-2.0], [[1.0]]),
                                    Gaussian([3.0], [[2.0]])]),
}


@pytest.fixture(scope="module")
def bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_patches_exists(bench_trace):
    """``patched`` looks each name up on its module, so a name that is
    gone raises here."""
    with bench_trace.patched(bench_trace.Tracer()):
        pass


@pytest.mark.parametrize("scheme", SCHEME_CHOICES)
def test_a_traced_codec_decodes_what_the_codec_decodes(bench_trace, scheme):
    target = TARGETS[scheme]
    codec = codec_for(scheme, target)
    samp = sample(target, 2 * codec.m_samples(EPS), 11)
    msg = encode_with_retries(codec, target, samp, EPS)
    assert msg is not None
    tracer = bench_trace.Tracer()
    traced = bench_trace.traced_codec(tracer, codec)
    tracer.op = 0
    got = traced.decode(msg, samp.points, EPS)
    want = codec.decode(msg, samp.points, EPS)
    assert dist_to_json(got) == dist_to_json(want)
    assert [name for name, *_ in tracer.spans] == ["compression.decode"]
    assert len(traced.random_payload(EPS, np.random.default_rng(3))) \
        == codec.layout(EPS).n_bits

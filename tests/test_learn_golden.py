"""Golden learns: what ``learn_from_compression`` selects and how much RNG
stream it uses.

Each digest is the sha256 of one learn's winner index, ``scheffe_wins``,
``candidate_count``, ``candidate_space``, ``n_holdout`` and the next
``integers(1 << 62)`` of the generator passed as its seed, which pins the
order and number of draws made while sampling messages and pools.  Every
scheme learns at a small budget from a fixed sample, once without planted
messages and once with the codec's own encoding of the target (found over
disjoint batches of the encoding prefix) as its one ``extra_messages``
entry.

``ESTIMATE`` pins the winner itself: the sha256 of
``dist_dumps(res.estimate)`` for the same learns.
"""

import hashlib

import numpy as np
import pytest

from compresslearn import (Gaussian, LabeledSample, Mixture, codec_for,
                           compression_sample_size, dist_dumps,
                           learn_from_compression, sample)
from compresslearn.learners import _encoding_size

from helpers import encode_with_retries

SEED = 20171014
DELTA = 0.2

# name: (scheme, target, eps, budget)
CASES = {
    "g1d": ("g1d", Gaussian([1.0], [[0.25]]), 0.5, 40),
    "g1d_robust": ("g1d_robust", Gaussian([-0.5], [[2.0]]), 0.5, 30),
    "axis": ("axis", Gaussian([0.5, -1.0], [[1.0, 0.0], [0.0, 2.0]]), 0.5,
             24),
    "gd_d2": ("gd", Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]]), 0.5,
              16),
    "mixture_g1d": ("mixture", Mixture([0.4, 0.6], [
        Gaussian([-2.0], [[1.0]]), Gaussian([3.0], [[2.0]])]), 0.5, 24),
}

GOLDEN = {
    "axis/plain":
        "5e03456099ea5eb063d0e875a4ce1324d08c93f057854318cc5cbf228faa4ff5",
    "axis/planted":
        "6180f2bf81640270efd201733b637bc13d9c5686ed8bccf6ffb21745e5774374",
    "g1d/plain":
        "f125caa3e6026f8654256ead99cc2d64891abb044da3f56e21f296e63386fedd",
    "g1d/planted":
        "4ea7bea32c74c4ae04f7399178deeeb4516c18b98e142fa93606a15102b305b9",
    "g1d_robust/plain":
        "015c59d5ae7e423fe59ec01a3e3a362b36d8dd5e7e51f600ac7887a90a28adb9",
    "g1d_robust/planted":
        "6198f32727bfc8bac578ff1b8fecd14855c6c07023d1084f099920a0900bd12e",
    "gd_d2/plain":
        "e95669e8934ddca106972f7eff7785900f491c38e9a68cca8b583022e3486a47",
    "gd_d2/planted":
        "d75434eba34fdc119c7380921a27eacccffc3a6c24cf4e06db0358b53f08d013",
    "mixture_g1d/plain":
        "a63f3d858658a0657e5a6ff1b60432517222120ea49e01c471b10a3729d2b880",
    "mixture_g1d/planted":
        "45952adc4b1d08a5ba1892fbdebbf56e48f2c79a2d648a56d16f2b921b34097c",
}

ESTIMATE = {
    "axis/plain":
        "3fb5f26cc1aaf6210c9583c5ede9af571dd4aaefb6330c01a8f068e247692fa9",
    "axis/planted":
        "0bca498d88d41c0a2eda077eea617cfd9e1ff773b21ffcaa71f17c10461b5475",
    "g1d/plain":
        "850217d9df6beaa6cd1e3a1fc4507fdf62488e1b9fd7effde6ba6d20c85f796e",
    "g1d/planted":
        "fdde0c66807a1cf5b9fb20aeedb140be3294cd42aa762bb44f66c6206ff5c1f6",
    "g1d_robust/plain":
        "b50e4131b73747788c5ff1d3d80fd99b76e7ca0f5a2c84eed94d2ef86d3afe74",
    "g1d_robust/planted":
        "59b3bf721d0f292c7eb31591394e7a78880a6820f1a14b9985cbbd38a931137e",
    "gd_d2/plain":
        "3328b36ba3ec492c13ca78a4ad3edfda20787bf6074daa0803ae7010bba4277a",
    "gd_d2/planted":
        "9e3ea50eee8902f77a5943cdcf87476f3616e8c8d89841e65d588918451f5476",
    "mixture_g1d/plain":
        "3968d4d5f8f35384c91dff5e64967169fbb893102867d00e7a4b00a9717bec9d",
    "mixture_g1d/planted":
        "b160da7759bb14f8edf3f9086b385b5b1e18081717cbd901c53a97ab06ca644b",
}


def learn(name: str, planted: bool):
    """The case's learn result and the generator it was seeded with."""
    scheme, target, eps, budget = CASES[name]
    codec = codec_for(scheme, target)
    n = compression_sample_size(codec, eps, DELTA, budget)
    samp = sample(target, n, SEED)
    extras = []
    if planted:
        n_enc = _encoding_size(codec, eps, DELTA, budget)
        labels = None if samp.labels is None else samp.labels[:n_enc]
        msg = encode_with_retries(
            codec, target, LabeledSample(samp.points[:n_enc], labels),
            eps / 6.0)
        assert msg is not None
        extras.append(msg)
    rng = np.random.default_rng([SEED, budget])
    res = learn_from_compression(codec, samp, eps, DELTA, budget, rng,
                                 extra_messages=extras)
    return res, rng


def learn_digest(name: str, planted: bool) -> str:
    res, rng = learn(name, planted)
    h = hashlib.sha256()
    for value in (res.selection.index, res.candidate_count,
                  res.candidate_space, res.selection.n_holdout):
        h.update(str(value).encode() + b";")
    h.update(np.asarray(res.selection.scheffe_wins, dtype="<i8").tobytes())
    h.update(int(rng.integers(1 << 62)).to_bytes(8, "little"))
    return h.hexdigest()


@pytest.mark.parametrize("planted", [False, True], ids=["plain", "planted"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_learn_golden(name, planted):
    key = f"{name}/{'planted' if planted else 'plain'}"
    assert learn_digest(name, planted) == GOLDEN[key]


@pytest.mark.parametrize("planted", [False, True], ids=["plain", "planted"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_learn_estimate_golden(name, planted):
    key = f"{name}/{'planted' if planted else 'plain'}"
    res, _ = learn(name, planted)
    digest = hashlib.sha256(dist_dumps(res.estimate).encode()).hexdigest()
    assert digest == ESTIMATE[key]

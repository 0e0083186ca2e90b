"""Golden draws: the bits of ``sample`` and how much RNG stream it uses.

The digests were recorded from the ``sample`` that built each draw as
``mean + z @ sqrt_cov`` in fresh temporaries.  Each one is the sha256,
over every ``n`` in ``NS``, of ``n``, the bytes of ``points`` and
``labels`` and, when ``sample`` gets a ``Generator``, that generator's
next ``integers(1 << 62)``, which pins how much of the stream the draw
consumes.
"""

import hashlib

import numpy as np
import pytest

from compresslearn import Gaussian, Mixture, gaussmodels, sample

DIMS = (1, 2, 3, 5, 8)
NS = (0, 1, 2, 3, 7, 100, 65537)
INT_SEED = 20171014
WEIGHTS = {1: [1.0], 2: [0.3, 0.7], 3: [0.2, 0.5, 0.3]}


def _gaussian(d: int, seed: int) -> Gaussian:
    rng = np.random.default_rng([d, seed])
    a = rng.standard_normal((d, d))
    return Gaussian(2.0 * rng.standard_normal(d),
                    a @ a.T / d + 0.5 * np.eye(d))


def _targets() -> dict:
    out = {}
    for d in DIMS:
        out[f"gauss_d{d}"] = _gaussian(d, 0)
        for k, weights in WEIGHTS.items():
            out[f"mix_d{d}_k{k}"] = Mixture(
                weights, [_gaussian(d, c + 1) for c in range(k)])
    out["mix_d2_zero_weight"] = Mixture(
        [0.5, 0.0, 0.5], [_gaussian(2, c + 1) for c in range(3)])
    out["mix_d2_rare"] = Mixture(
        [0.5, 0.001, 0.499], [_gaussian(2, c + 1) for c in range(3)])
    return out


TARGETS = _targets()
# more components than uint8 labels hold: checked against rng.choice,
# not hashed into the digests
WIDE_LABELS = Mixture(np.full(257, 1.0 / 257),
                      [_gaussian(2, c + 1) for c in range(257)])


def sample_digest(name: str, kind: str, ns=NS) -> str:
    h = hashlib.sha256()
    for n in ns:
        seed = (INT_SEED if kind == "int"
                else np.random.default_rng([INT_SEED, n]))
        samp = sample(TARGETS[name], n, seed)
        h.update(n.to_bytes(4, "little"))
        h.update(np.ascontiguousarray(samp.points, dtype="<f8").tobytes())
        if samp.labels is not None:
            h.update(np.ascontiguousarray(samp.labels, dtype="<i8").tobytes())
        if kind == "generator":
            h.update(int(seed.integers(1 << 62)).to_bytes(8, "little"))
    return h.hexdigest()


DIGESTS = {
    ("gauss_d1", "int"):
        "3a7fcde83ac5f622f5bf111873f7e3c0751326206ef48423f9c3b2be31f4f9fd",
    ("gauss_d1", "generator"):
        "ec207713484c8d6fef3bb4652862b78e1111fa96f2a19735ee6e30bc53cd2b2b",
    ("gauss_d2", "int"):
        "eaab9ea35616cddf28f4ca94de62cb16ce285e77fcb03486ed1b56ba807a3b8c",
    ("gauss_d2", "generator"):
        "7e4d7a75915f1b02c463774bc90ac134f41ed4faf0f6ad5aef543c7f46625cf4",
    ("gauss_d3", "int"):
        "989cd833a44c42139ab4aa7ce8a57f51040dd57773aa3ea4968a3fc91655a153",
    ("gauss_d3", "generator"):
        "94dde4931df6f3092db65b4d9ba3ce74777c8e7ed8cb9bb644f8b261444d81a1",
    ("gauss_d5", "int"):
        "b35c11e996d3bf0de63201fba65ce5cd16d711eb9c0bd9902a75318d53219478",
    ("gauss_d5", "generator"):
        "dd4ef7496d84bf8751833b53e9aa69e998921516efd68f5d30662619f4fba77b",
    ("gauss_d8", "int"):
        "ed9c50d0069b67b015958831c7c2fede2495643fd5839067d8c905f3322c6fe1",
    ("gauss_d8", "generator"):
        "adc071ef5875355a7e75308f50ed81589e5f337974e840646c256b2da994da6e",
    ("mix_d1_k1", "int"):
        "3d6ae95656742bbb5a4177e403ea1e419e8bc21422ff2342e97c56ff8a6fa566",
    ("mix_d1_k1", "generator"):
        "7fe2204a2de57498f6eca576f7dbfcb90a7167bf6ff34640f3db71f6d5a23fe9",
    ("mix_d1_k2", "int"):
        "d60a108f8f57504421f085ae57be6125e0afc2f07dd28efbf22492109c0478a5",
    ("mix_d1_k2", "generator"):
        "fc07fcce6195b07bf7e0c6b7e9b475b25a22b5d80ac72cf432e203c15c705b1e",
    ("mix_d1_k3", "int"):
        "08ad555f5d1eb02bfc0b50c37e00def7fd4969bf241159c43ad702e1aad23e0f",
    ("mix_d1_k3", "generator"):
        "7bb14fd7901eac4996ef1e9c3f8fedffbba7affbde2f76df952e3ca532571bec",
    ("mix_d2_k1", "int"):
        "fee6e801a2d3f5257c4b4556f2637fc6550bf4023d21cd320a48dc82addf457a",
    ("mix_d2_k1", "generator"):
        "14c86a54d9f6358e422043b0289a2accdead1c8900ecc2ef77c0f4b7037b6e8d",
    ("mix_d2_k2", "int"):
        "d6b5eb7746209f526be33098c5eb2b8c2106c83d7d33ec8863e60c7468e76d4c",
    ("mix_d2_k2", "generator"):
        "bd01e98511aa3a32e5ff509b1b7010732f55cc1915b6c5e64f99672de4bd0d86",
    ("mix_d2_k3", "int"):
        "db466236e9c5c80686e02bd1c100516645adb72ce85fc51a085a961882900811",
    ("mix_d2_k3", "generator"):
        "95fed5bb75e57932da7659e0dfd0f979a65ad722144d0c3fb711fef9115cfab2",
    ("mix_d2_zero_weight", "int"):
        "ed2fc92cf83807bd5d2a4b035ea18e4ca04b061520fa138317afe8a96c034598",
    ("mix_d2_zero_weight", "generator"):
        "f2f567adc1c86f7a2d67753ed9c3d359fe1d95714e98794490a420b4be507c09",
    ("mix_d2_rare", "int"):
        "7cb627b277233f8e9a42a2c32345f26b3c35d80bb02d29d37c8a45c5f2867bff",
    ("mix_d2_rare", "generator"):
        "af38f713aaa69aa8d68bf6ae9f0b8cc5167fdb8d242672c42ec42b69fd09c32c",
    ("mix_d3_k1", "int"):
        "86ab2ba6d6b186b2fd82ab10d89505c784ed21d9df53dbb89e0d7e159dd712d8",
    ("mix_d3_k1", "generator"):
        "be1306a4a6865f8b7e754d41afd86c16678c3c758a84bc2f4f633a5930db9bf5",
    ("mix_d3_k2", "int"):
        "3e3932c5db0226fa4ab9f321de81ef22cba7f97af71f89e5cc6eaa2cfa8e8d44",
    ("mix_d3_k2", "generator"):
        "612014ca2297570bed5a6aacafdf7c6018111b19a8aaa2304c62e772b53a715a",
    ("mix_d3_k3", "int"):
        "e8d98c1d20bcdf295a34b50ab8b6f5d820ab992a230a355a57b139f545ce2490",
    ("mix_d3_k3", "generator"):
        "b34321691937c50f57235fb24309b695ed1509356fa2a0b7d2bc6b4c0ed754db",
    ("mix_d5_k1", "int"):
        "6f3957830e768a5d0cf5761ee2ac50af0a9d4debf513e66ac889861c34a8f2d4",
    ("mix_d5_k1", "generator"):
        "d7f9e94ee0644283ab70952cf0a80bfc1233be136ada05be4faad07ff40609a3",
    ("mix_d5_k2", "int"):
        "9f86e0cd296c00ef89c24ccee44273e71202ff30baa6d783e9699da04745f456",
    ("mix_d5_k2", "generator"):
        "1715abbb836f60a1787133fca450d2d9f77132797eeccca6582860a3701362a5",
    ("mix_d5_k3", "int"):
        "027b711b0e6e77d631f5f9b9dbf7e09660b2c2e27b0d97589e3d662ecd26c550",
    ("mix_d5_k3", "generator"):
        "fc34959e9487fccbf5270cb813816de40a4a84e1970f0dbf59534a47ec06aa52",
    ("mix_d8_k1", "int"):
        "74a17ea90f720b88987e64b67aaf76b2115b757020f37e14aa4a4e4b9bb601fa",
    ("mix_d8_k1", "generator"):
        "6631398d8b32f81110ca83497ccffe1f9ce0f237c40ad2ca2d0d4262093a5d06",
    ("mix_d8_k2", "int"):
        "2a404be3f741911f042f720133a8612ed51242151eb9f4b12f8f4ecc6cf3d365",
    ("mix_d8_k2", "generator"):
        "3f3a950a9a4f79d361a33256767f4aa6a556de7452641b9c4222edb1cd146c84",
    ("mix_d8_k3", "int"):
        "10ef3332abdc661e09770298ed82bd701061042a022351eb6ae34e26bf1eaa60",
    ("mix_d8_k3", "generator"):
        "e3a0bbc5944ee64d81340921e85655176cb6c8d15024ad2b0a5632f1fde82d04",
}


@pytest.mark.parametrize("kind", ["int", "generator"])
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_sample_golden(name, kind):
    assert sample_digest(name, kind) == DIGESTS[name, kind]


# sizes that span several of sample's row chunks, with a one-row tail
MULTI_CHUNK_NS = (3 * 2**16 + 1, 200003)
MULTI_CHUNK_DIGESTS = {
    ("gauss_d3", "int"):
        "54c2a871a18fcdc3bcc40f9870788be8f6862bac08681c5b01f976dfbb0f43bb",
    ("gauss_d3", "generator"):
        "f03909268c060315a77307a2c598b497059e4e34fe69d55234db7829c504e458",
    ("mix_d2_rare", "int"):
        "4a7b11779fdc3e0e84319d24eb45505b12972f94fcfd294e306138a165f35fb4",
    ("mix_d2_rare", "generator"):
        "e1ea4c8dfb885e03ac592c38792bc102d30c45f18176e1fa4b75cca4b80e4d89",
}


@pytest.mark.parametrize("name, kind", sorted(MULTI_CHUNK_DIGESTS))
def test_sample_golden_multi_chunk(name, kind):
    assert (sample_digest(name, kind, MULTI_CHUNK_NS)
            == MULTI_CHUNK_DIGESTS[name, kind])


def _one_matmul_sample(dist, n, rng):
    """``sample``'s reference: ``rng.choice`` for the labels, then one
    ``mean + z @ sqrt_cov`` per component over all of its rows."""
    if isinstance(dist, Gaussian):
        z = rng.standard_normal((n, dist.dim))
        return dist.mean + z @ dist.sqrt_cov, None
    labels = rng.choice(dist.n_components, size=n, p=dist.weights)
    z = rng.standard_normal((n, dist.dim))
    pts = np.empty_like(z)
    for c, comp in enumerate(dist.components):
        mask = labels == c
        pts[mask] = comp.mean + z[mask] @ comp.sqrt_cov
    return pts, labels


SMALL_CHUNK_NS = (0, 1, 2, 3, 4, 5, 8, 15, 64, 1001, 5003)


@pytest.mark.parametrize("chunk", [2, 3, 7])
@pytest.mark.parametrize("name", ["gauss_d1", "gauss_d5", "gauss_d8",
                                  "mix_d1_k2", "mix_d5_k3", "mix_d8_k2",
                                  "mix_d2_rare", "mix_d2_zero_weight"])
def test_sample_matches_one_matmul_at_any_chunk(monkeypatch, name, chunk):
    """Splitting the draw into blocks of ``chunk`` rows keeps every bit
    and RNG call; at d >= 5 a one-row matmul would not."""
    _check_one_matmul(monkeypatch, TARGETS[name], chunk)


@pytest.mark.parametrize("chunk", [7, gaussmodels._SAMPLE_CHUNK_ROWS])
def test_sample_matches_one_matmul_with_uint16_labels(monkeypatch, chunk):
    """257 components take uint16 labels; at chunk 7 most components
    have a lone row in a block."""
    _check_one_matmul(monkeypatch, WIDE_LABELS, chunk)


def _check_one_matmul(monkeypatch, dist, chunk):
    monkeypatch.setattr(gaussmodels, "_SAMPLE_CHUNK_ROWS", chunk)
    for n in SMALL_CHUNK_NS:
        rng, ref_rng = (np.random.default_rng([n, chunk]) for _ in range(2))
        samp = sample(dist, n, rng)
        pts, labels = _one_matmul_sample(dist, n, ref_rng)
        assert np.array_equal(samp.points, pts)
        if labels is None:
            assert samp.labels is None
        else:
            assert np.array_equal(samp.labels, labels)
        assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)

"""Golden payloads: wire bits, index mapping and RNG use of every codec.

The digests were recorded from the bit-at-a-time packing that preceded
``PayloadLayout``.  Each one is the sha256 of, at one ``eps``:

* ``random``: 16 ``random_payload`` draws from ``default_rng(20171014)``,
  then the generator's next ``integers(1 << 62)``, which pins how much of
  the stream the draws consume;
* ``index``: the layout's ``count`` and ``pack(index_digits(i))`` at 0, 1,
  ``count - 1`` and three large indices;
* ``encode``: ``to_bytes()`` of the message encoded from a fixed sample.
"""

import hashlib

import numpy as np
import pytest

from compresslearn import Gaussian, Mixture, sample
from compresslearn.compression import (compose_mixture, compose_product,
                                       g1d_codec, g1d_robust_codec, gd_codec)

from helpers import encode_with_retries

EPS = (0.2, 0.45)

_G1 = Gaussian([1.5], [[4.0]])
_G2 = Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
_G2_DIAG = Gaussian([0.5, -1.0], [[2.0, 0.0], [0.0, 0.7]])
_G3 = Gaussian([1.0, -0.5, 0.25], [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2],
                                   [0.1, -0.2, 0.5]])
_MIX1 = Mixture([0.4, 0.6], [Gaussian([-2.0], [[1.0]]),
                             Gaussian([3.0], [[2.0]])])
_MIX2 = Mixture([0.5, 0.5], [
    Gaussian([-2.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
    Gaussian([2.0, 1.0], [[1.5, 0.3], [0.3, 0.8]])])

CASES = {
    "g1d": (g1d_codec, _G1),
    "g1d_robust": (g1d_robust_codec, _G1),
    "gd2": (lambda: gd_codec(2), _G2),
    "gd3": (lambda: gd_codec(3), _G3),
    "axis2": (lambda: compose_product(g1d_codec(), 2), _G2_DIAG),
    "mixture_g1d": (lambda: compose_mixture(g1d_codec(), 2), _MIX1),
    "mixture_gd2": (lambda: compose_mixture(gd_codec(2), 2), _MIX2),
}


def _hash_bits(h, bits) -> None:
    bits = np.asarray(bits, dtype=np.uint8)
    h.update(len(bits).to_bytes(4, "little"))
    h.update(bits.tobytes())


def payload_digests(name: str, eps: float) -> dict:
    make, target = CASES[name]
    codec = make()
    out = {}

    rng = np.random.default_rng(20171014)
    h = hashlib.sha256()
    for _ in range(16):
        _hash_bits(h, codec.random_payload(eps, rng))
    h.update(int(rng.integers(1 << 62)).to_bytes(8, "little"))
    out["random"] = h.hexdigest()

    layout = codec.layout(eps)
    count = layout.count
    h = hashlib.sha256(count.to_bytes(count.bit_length() // 8 + 1, "little"))
    for idx in (0, 1, count - 1, count // 2, count // 3, (5 * count) // 7):
        _hash_bits(h, layout.pack(layout.index_digits(idx)))
    out["index"] = h.hexdigest()

    samp = sample(target, 2 * codec.m_samples(eps), 7)
    msg = encode_with_retries(codec, target, samp, eps)
    out["encode"] = hashlib.sha256(msg.to_bytes()).hexdigest()
    return out


EXPECTED = {
    ('axis2', 0.2): {
        'random': "441692e35f2e6a5b5eef06c933840fc8ceb28702586f0ead3e5cfe39dbc2ec5b",
        'index': "cb8d8d83649c4fde0ba8d96a65787c508e2bb76c5dc16fa231141752b4836d98",
        'encode': "41da2cbfd84af5cf6c72a053f084c1f573d3f177ef65292970fb90c2157f1bdc",
    },
    ('axis2', 0.45): {
        'random': "3c126e323cada955d5224bb242d7608eee81f175e040dbfad3d5495459a09c3d",
        'index': "80dca4127aaed44e0d6e51e69260600ea51497f280b92f4bec7edce73bb43a5e",
        'encode': "073a9887c0bbe5efc2d93985277492567c9fb4e111b7688f52af1e0a1c0e402f",
    },
    ('g1d', 0.2): {
        'random': "c969ec81daf8bb7410695633e4a2bf74450cedad1b81fbeb5755ce3bb3ea5e41",
        'index': "68469edf148811c13e4cee1e3c4d568e0630cce4ffea6d08e0e68d2e047a535f",
        'encode': "a1fe7515ab656f4629a435f13fcb0039297fc8516c1ad321adbf5012392d649b",
    },
    ('g1d', 0.45): {
        'random': "7f4c4b2290f464a4c196ff44641b91af52f36b3cf265b350b1f073d931fd98cc",
        'index': "9e8910f0ff2aa5d622365017f4863cc2f90e6c231b195b00fdef46d7d8f7ada1",
        'encode': "5ffc2f98ee6391b71799a274783c0b00e91852acb360549ca57e9314b5139f35",
    },
    ('g1d_robust', 0.2): {
        'random': "d19b23788d6fc38dac0f4f3dbcf9b2d446d3252c905feb1efd281bc42cdd9787",
        'index': "5bcde46e2cee2e74aa7e7263bcf1b90ef78016d9040e9bbcf1714c326c9c4a8d",
        'encode': "f6fe764f7b3a482bd54e15f2f1cab291071f475d749666260f2d59ddfc1425dc",
    },
    ('g1d_robust', 0.45): {
        'random': "d19b23788d6fc38dac0f4f3dbcf9b2d446d3252c905feb1efd281bc42cdd9787",
        'index': "5bcde46e2cee2e74aa7e7263bcf1b90ef78016d9040e9bbcf1714c326c9c4a8d",
        'encode': "54770f14a80b8e167707391ebe225d0b4174fb76bb478826da05661738a2e2d9",
    },
    ('gd2', 0.2): {
        'random': "39686ce2d0c78d0920cd101eb2dfc6e865b15ad8e51d6d7c994c51824585f42f",
        'index': "d0b468e6925f1edb9bcdf601144593a11c4e1ebf88339da1010e84a0439584ef",
        'encode': "76714a34f76550a1e12b575c64206a7e3ce2240ddc413c5af52e4e4068fe7d74",
    },
    ('gd2', 0.45): {
        'random': "863dcc3f5013e056f68cd1d97e34d7a944bb6613ce3024f60fefa1b5ceff7eb1",
        'index': "cee4298201b9304514abff9864f2a53b9a7d4122370fa6b8f868ec25b8bb35f2",
        'encode': "05db0e747e4e58dde99070462621f693e005c317847508e39ab8829d740a9583",
    },
    ('gd3', 0.2): {
        'random': "05f966bb5deb02d0d6df590ac25bbd21974554680ce6e14c5967c264318ddd2c",
        'index': "2ebf87192cb9a3c945b3c1b8d64a1c4db80df5a0e2734160bbfd1681da9e69b0",
        'encode': "c6855adafbba23c542748ede893b2e210accb88d364b7a8d36897d305bc3eb9b",
    },
    ('gd3', 0.45): {
        'random': "a9341bb78a39968dff7c27a9413133e1818a20ce2062e19d544321135f5a5b26",
        'index': "5a21f8f0717078b65ce1e499993e86e6ae39b600b30dc789753fa95083789d41",
        'encode': "16aa9c68f645c2bab087283062a9e658b541aa9dede102d26a0d21cc58c8be35",
    },
    ('mixture_g1d', 0.2): {
        'random': "e209e9d460d155ce09c1e139c0ab497d607570ce5cb47f77e794dff337a37b3c",
        'index': "1b922fbf6191dfa3176a9eb917b2f2ea1af748af3626e2a8daa40b18f0ec5eb3",
        'encode': "9a060b178871c98e038dd591e388ef062db0d1cb32fe5eef6e299fbe0bcd7280",
    },
    ('mixture_g1d', 0.45): {
        'random': "0bd6325d27fdc8afe85fb5d3378bf82955f2c15e8470e12374a9c9c6de2a5c11",
        'index': "7988a80a230cd762cd4a4239af3e2dcf43e79b658ec2568716d065ce2913f8cb",
        'encode': "0a0b68efd984d4522fd437d641f8264c2e34869f894ca1c03534ed9073878297",
    },
    ('mixture_gd2', 0.2): {
        'random': "7c3e9ef4f53be56d5fd25633877c79719bda774bcacc0e1ed98cf8da85a5e996",
        'index': "a0afd24556c96bfca4c25c3bfe13dabe56d9968d605da844ce27925d818bbb52",
        'encode': "3d81f2be37401f8f4c180f266c6372f7be286e1d899e8ccc4a49c02e2c09f9ac",
    },
    ('mixture_gd2', 0.45): {
        'random': "8d64beb4d98b786eeb58a130773fd44ab432aadb9acdda68e62d730447b6b9e6",
        'index': "eb4c8beca1e389ddc8e3ee59cb3027a1e4a5fc5c1db7ce59dd19ed9189ee055e",
        'encode': "c8c74f200e659219384f8839a9acac2eb745c710f833c0b533a38c3072fda787",
    },
}


@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_golden(name, eps):
    assert payload_digests(name, eps) == EXPECTED[name, eps]

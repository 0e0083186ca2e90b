"""The message gate of ``Codec.from_layout``: every codec decodes only the
messages the learner enumerates (its own scheme id, exactly ``tau``
references into the points, exactly the layout's payload width), and its
encoder returns only such messages."""

import numpy as np
import pytest

from compresslearn import (DecodingError, Gaussian, LabeledSample,
                           MessageSizeError, Mixture, ValidationError,
                           codec_for, compression_sample_size,
                           learn_from_compression, sample)
from compresslearn.compression import (SCHEME_G1D, SCHEME_GD, SCHEME_MIXTURE,
                                       Codec, CompressionMessage,
                                       EncodeOutcome, PayloadLayout)
from compresslearn.learners import ENUM_ACCURACY_DIV, _encoding_size

from helpers import encode_with_retries

EPS = 0.5

# name: (scheme, target)
CASES = {
    "g1d": ("g1d", Gaussian([1.5], [[4.0]])),
    "g1d_robust": ("g1d_robust", Gaussian([-0.5], [[2.0]])),
    "gd_d2": ("gd", Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])),
    "axis_d2": ("axis", Gaussian([0.5, -1.0], [[2.0, 0.0], [0.0, 0.7]])),
    "mixture_g1d": ("mixture", Mixture([0.4, 0.6], [
        Gaussian([-2.0], [[1.0]]), Gaussian([3.0], [[2.0]])])),
}


def _encoded(name):
    scheme, target = CASES[name]
    codec = codec_for(scheme, target)
    samp = sample(target, 2 * codec.m_samples(EPS), 11)
    msg = encode_with_retries(codec, target, samp, EPS)
    assert msg is not None
    codec.decode(msg, samp.points, EPS)
    return codec, msg, samp.points


def _other_scheme(scheme_id: int) -> int:
    return SCHEME_G1D if scheme_id == SCHEME_GD else SCHEME_GD


MUTATIONS = {
    "relabelled": lambda msg, n: CompressionMessage(
        _other_scheme(msg.scheme_id), msg.sample_refs, msg.bits),
    "ref_dropped": lambda msg, n: CompressionMessage(
        msg.scheme_id, msg.sample_refs[:-1], msg.bits),
    "ref_at_len_points": lambda msg, n: CompressionMessage(
        msg.scheme_id, np.concatenate([[n], msg.sample_refs[1:]]), msg.bits),
    "bit_dropped": lambda msg, n: CompressionMessage(
        msg.scheme_id, msg.sample_refs, msg.bits[:-1]),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_decode_rejects_messages_off_the_envelope(name, mutation):
    codec, msg, points = _encoded(name)
    bad = MUTATIONS[mutation](msg, len(points))
    with pytest.raises(DecodingError):
        codec.decode(bad, points, EPS)


def test_mixture_rejects_references_past_the_points():
    codec, msg, points = _encoded("mixture_g1d")
    shifted = CompressionMessage(msg.scheme_id, msg.sample_refs + len(points),
                                 msg.bits)
    with pytest.raises(DecodingError):
        codec.decode(shifted, points, EPS)


def test_learn_drops_a_planted_message_of_another_scheme():
    scheme, target = CASES["g1d"]
    codec = codec_for(scheme, target)
    delta, budget = 0.2, 40
    samp = sample(target, compression_sample_size(codec, EPS, delta, budget),
                  5)
    n_enc = _encoding_size(codec, EPS, delta, budget)
    msg = encode_with_retries(codec, target,
                              LabeledSample(samp.points[:n_enc]),
                              EPS / ENUM_ACCURACY_DIV)
    assert msg is not None

    def count(extra):
        return learn_from_compression(codec, samp, EPS, delta, budget, 3,
                                      extra_messages=[extra]).candidate_count

    foreign = CompressionMessage(SCHEME_MIXTURE, msg.sample_refs, msg.bits)
    assert count(foreign) == count(msg) - 1


def test_encode_rejects_messages_off_the_envelope():
    """An ``ok`` outcome outside the scheme's message space raises."""

    def toy(scheme_id, n_refs, n_bits, m=4):
        def encode(target, samp, eps):
            return EncodeOutcome.success(CompressionMessage(
                scheme_id, np.arange(n_refs), np.zeros(n_bits, np.uint8)))

        return Codec.from_layout("toy", SCHEME_G1D, encode, None,
                                 lambda eps: PayloadLayout([4], [2]), dim=1,
                                 tau=lambda eps: 2, m_samples=lambda eps: m,
                                 robustness=0.0)

    target = Gaussian([0.0], [[1.0]])
    samp = LabeledSample(np.zeros((4, 1)))
    assert toy(SCHEME_G1D, 2, 2).encode(target, samp, EPS).ok
    for scheme_id, n_refs, n_bits in [(SCHEME_G1D, 1, 2), (SCHEME_G1D, 3, 2),
                                      (SCHEME_G1D, 2, 1), (SCHEME_G1D, 2, 3),
                                      (SCHEME_GD, 2, 2)]:
        with pytest.raises(MessageSizeError):
            toy(scheme_id, n_refs, n_bits).encode(target, samp, EPS)
    # the gate passes a 1-point sample for m = 1; reference 1 is past it
    with pytest.raises(MessageSizeError):
        toy(SCHEME_G1D, 2, 2, m=1).encode(
            target, LabeledSample(np.zeros((1, 1))), EPS)


# the codecs above and a mixture over the d=2 Gaussian codec
GATE_CASES = dict(CASES, mixture_gd_d2=("mixture", Mixture([0.5, 0.5], [
    Gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
    Gaussian([4.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])])))


def _gate_case(name):
    """The case's codec and target, and a target of one more dimension."""
    scheme, target = GATE_CASES[name]
    d = target.dim + 1
    other = Gaussian(np.zeros(d), np.eye(d))
    if isinstance(target, Mixture):
        other = Mixture([1.0], [other])
    return codec_for(scheme, target), target, other


@pytest.mark.parametrize("name", sorted(GATE_CASES))
def test_decode_rejects_points_of_another_dimension(name):
    codec, target, _ = _gate_case(name)
    payload = codec.random_payload(EPS, np.random.default_rng(5))
    msg = CompressionMessage(codec.scheme_id,
                             np.zeros(codec.tau(EPS), np.int64), payload)
    with pytest.raises(ValidationError, match=f"decodes {target.dim}-D"):
        codec.decode(msg, np.zeros((4, target.dim + 1)), EPS)


@pytest.mark.parametrize("name", sorted(GATE_CASES))
def test_learn_rejects_a_sample_of_another_dimension(name):
    codec, target, _ = _gate_case(name)
    delta, budget = 0.9, 4
    n_enc = _encoding_size(codec, EPS, delta, budget)
    samp = LabeledSample(np.zeros((n_enc, target.dim + 1)))
    with pytest.raises(ValidationError, match=f"decodes {target.dim}-D"):
        learn_from_compression(codec, samp, EPS, delta, budget, 6)


@pytest.mark.parametrize("name", sorted(GATE_CASES))
def test_encode_rejects_a_sample_off_the_profile(name):
    """Another dimension of sample or target, or one point fewer than
    ``m_samples(eps)``, fails at the gate before the scheme runs."""
    codec, target, other = _gate_case(name)
    m = codec.m_samples(EPS)
    wide = sample(other, m, 7)
    for tgt, samp in [(target, wide), (other, wide),
                      (target, sample(target, m - 1, 7))]:
        with pytest.raises(ValidationError,
                           match=f"encodes a {target.dim}-D target"):
            codec.encode(tgt, samp, EPS)


@pytest.mark.parametrize("eps", [0.2, 0.45])
@pytest.mark.parametrize("name", sorted(CASES))
def test_random_payload_has_right_width(name, eps):
    scheme, target = CASES[name]
    codec = codec_for(scheme, target)
    bits = codec.random_payload(eps, np.random.default_rng(46))
    assert len(bits) == codec.layout(eps).n_bits


def test_an_outcome_is_ok_exactly_when_it_carries_a_message():
    msg = CompressionMessage(SCHEME_G1D, np.arange(2), np.zeros(2, np.uint8))
    assert EncodeOutcome.success(msg).ok
    assert not EncodeOutcome.failure("no luck").ok


# the last variance overflows to inf, as a decoded sigma_hat * sigma_hat can
@pytest.mark.parametrize("cov", [[[1e-310]], [[1e308]], [[1e200 * 1e200]]])
def test_decode_turns_an_unusable_covariance_into_a_decoding_error(cov):
    """A payload that decodes to a covariance ``Gaussian`` rejects is a
    message that does not decode, so a learn drops it."""

    def decode_rows(refs, digits, pts, eps):
        return (None, np.zeros((len(refs), 1)),
                np.broadcast_to(cov, (len(refs), 1, 1)),
                np.ones(len(refs), dtype=bool))

    codec = Codec.from_layout("toy", SCHEME_G1D, None, decode_rows,
                              lambda eps: PayloadLayout([4], [2]), dim=1,
                              tau=lambda eps: 1, m_samples=lambda eps: 1,
                              robustness=0.0)
    msg = CompressionMessage(SCHEME_G1D, np.zeros(1, np.int64),
                             np.zeros(2, np.uint8))
    with pytest.raises(DecodingError, match="toy payload"):
        codec.decode(msg, np.zeros((1, 1)), EPS)

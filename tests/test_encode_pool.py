"""The gd encoder's direction solves on the worker pool: the same message
bytes and failure reasons on one CPU and on two, units that pickle by
reference, and the rules that keep work in-process."""

import multiprocessing
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import compresslearn.compression.gd as gd_module
from compresslearn import (Gaussian, LabeledSample, Mixture, WorkerPoolError,
                           learners, sample, select_candidate, utils)
from compresslearn.compression import (compose_mixture, compose_product,
                                       gd_codec)

EPS = 0.45

_G2 = Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
_G2_DIAG = Gaussian([0.5, -1.0], [[2.0, 0.0], [0.0, 0.7]])
_G3 = Gaussian([1.0, -0.5, 0.25], [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2],
                                   [0.1, -0.2, 0.5]])
_MIX2 = Mixture([0.5, 0.5], [
    Gaussian([-2.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
    Gaussian([2.0, 1.0], [[1.5, 0.3], [0.3, 0.8]])])

CASES = {
    "gd2": (lambda: gd_codec(2), _G2),
    "gd3": (lambda: gd_codec(3), _G3),
    "product_gd": (lambda: compose_product(gd_codec(1), 2), _G2_DIAG),
    "mixture_gd": (lambda: compose_mixture(gd_codec(2), 2), _MIX2),
}


def encode(codec, target, samp, cpus, monkeypatch):
    """``codec.encode`` at ``EPS`` with ``cpus`` CPUs available."""
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return codec.encode(target, samp, EPS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_encoded_bytes_do_not_depend_on_the_cpu_count(name, monkeypatch):
    make, target = CASES[name]
    codec = make()
    samp = sample(target, codec.m_samples(EPS), 11)
    one = encode(codec, target, samp, 1, monkeypatch)
    two = encode(codec, target, samp, 2, monkeypatch)
    assert one.ok and two.ok
    assert one.message.to_bytes() == two.message.to_bytes()


def flat_sample():
    """A 3-D sample whose differences span only the first two axes, under
    a target whose eigen directions 1 and 2 both leave that plane."""
    target = Gaussian([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 3.0, 1.0],
                                        [0.0, 1.0, 3.0]])
    pts = sample(target, gd_codec(3).m_samples(EPS), 5).points.copy()
    pts[:, 2] = 0.25
    return target, LabeledSample(pts)


def test_failure_names_the_lowest_escaping_direction_on_both_paths(
        monkeypatch):
    target, samp = flat_sample()
    codec = gd_codec(3)
    for cpus in (1, 2):
        out = encode(codec, target, samp, cpus, monkeypatch)
        assert not out.ok
        assert out.reason == "eigen direction 1 escapes the difference hull"


def _distributions(obj):
    """Every ``Gaussian`` or ``Mixture`` in ``obj``, through tuples, lists
    and dicts."""
    if isinstance(obj, (Gaussian, Mixture)):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [d for item in obj for d in _distributions(item)]
    assert not (isinstance(obj, np.ndarray) and obj.dtype == object)
    return []


def test_every_pool_unit_pickles_by_reference(monkeypatch):
    seen = []

    def recording(units):
        seen.extend(units)
        return utils._run_units(units)

    monkeypatch.setattr(learners, "_run_units", recording)
    monkeypatch.setattr(gd_module, "_run_units", recording)
    rng = np.random.default_rng(3)
    # mc_pools (2-D), grid_1d (1-D mixtures) and a gd encode
    pool_cands = [Gaussian(rng.standard_normal(2), np.eye(2))
                  for _ in range(3)]
    monkeypatch.setattr(learners, "SCHEFFE_MC_POOL", 50)
    select_candidate(pool_cands, sample(pool_cands[0], 50, rng), 0.1, 1)
    cands = [Mixture([0.5, 0.5], [Gaussian([c], [[1.0]]),
                                  Gaussian([c + 2.0], [[1.0]])])
             for c in rng.standard_normal(3)]
    select_candidate(cands, sample(cands[0], 50, rng), 0.1, 1)
    codec = gd_codec(2)
    codec.encode(_G2, sample(_G2, codec.m_samples(EPS), 11), EPS)
    names = {fn.__name__ for fn, *_ in seen}
    assert names == {"_holdout_counts", "_pool_fractions", "_grid_masses",
                     "_solve_direction"}
    for unit in seen:
        fn = unit[0]
        assert pickle.loads(pickle.dumps(fn)) is fn
        pickle.dumps(unit)
    # units carry prepared arrays; an mc_pools unit carries only the
    # candidates of its own rows, to draw their pools
    rows = []
    for fn, *args in seen:
        if fn.__name__ in ("_holdout_counts", "_grid_masses"):
            assert _distributions(args) == []
        elif fn.__name__ == "_pool_fractions":
            _, own, start, *_ = args
            assert _distributions(args) == own
            assert all(c is d for c, d in
                       zip(own, pool_cands[start:start + len(own)]))
            rows += range(start, start + len(own))
    assert rows == list(range(len(pool_cands)))


def test_a_rebound_solver_name_keeps_the_pool_working(monkeypatch):
    # a tracer rebinds gd's solver name to a local closure, which does
    # not pickle; the submitted unit must not be that name
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    codec = gd_codec(2)
    samp = sample(_G2, codec.m_samples(EPS), 11)
    want = codec.encode(_G2, samp, EPS).message.to_bytes()
    original = gd_module.solve_hull_coefficients
    calls = []

    def traced(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gd_module, "solve_hull_coefficients", traced)
    assert codec.encode(_G2, samp, EPS).message.to_bytes() == want
    # the solves ran in the workers, forked before the rebinding
    assert calls == []


def test_one_unit_runs_in_process_and_forks_no_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(utils, "_POOL", None)
    assert utils._run_units([]) == []
    assert utils._run_units([(os.getpid,)]) == [os.getpid()]
    target = Gaussian([0.5], [[2.0]])
    codec = gd_codec(1)
    out = codec.encode(target, sample(target, codec.m_samples(EPS), 3),
                       EPS)
    assert out.ok
    assert utils._POOL is None


def test_two_units_run_in_the_workers_unless_in_a_child(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = utils._run_units([(os.getpid,), (os.getpid,)])
    assert os.getpid() not in pids
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert utils._run_units([(os.getpid,), (os.getpid,)]) \
        == [os.getpid()] * 2


def test_dead_worker_raises_from_encode_and_the_next_encode_recovers(
        monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    codec = gd_codec(2)
    samp = sample(_G2, codec.m_samples(EPS), 11)
    want = codec.encode(_G2, samp, EPS).message.to_bytes()
    pool, _ = utils._worker_pool()
    with pytest.raises(BrokenProcessPool):
        pool.submit(os._exit, 1).result()
    with pytest.raises(WorkerPoolError, match="worker process died"):
        codec.encode(_G2, samp, EPS)
    assert utils._worker_pool()[0] is not pool
    assert codec.encode(_G2, samp, EPS).message.to_bytes() == want

"""The tournament's work split: pool and in-process runs agree bit for bit."""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from compresslearn import (CompressLearnError, Gaussian, Mixture,
                           WorkerPoolError, log_densities, sample,
                           select_candidate)
from compresslearn import utils
from compresslearn.learners import _pool_seed, _shared_grid, _split_tournament
from compresslearn.utils import as_generator

N_POOL = 300


def reference_masses(cands, holdout, seed, n_pool):
    """``(p_hat, p_i, p_j)`` from the serial per-pair tournament as it ran
    before the work split: one holdout pass, one grid pass and one pool
    per candidate, compared pair by pair."""
    m = len(cands)
    I, J = np.triu_indices(m, 1)
    ld = log_densities(cands, holdout.points)
    p_hat = np.zeros(len(I))
    for k, (i, j) in enumerate(zip(I, J)):
        p_hat[k] = np.count_nonzero(ld[i] > ld[j]) / holdout.n
    if cands[0].dim == 1:
        grid = _shared_grid(cands)
        dx = grid[1] - grid[0]
        weights = np.full(grid.shape, dx)
        weights[0] = weights[-1] = 0.5 * dx
        ld_grid = log_densities(cands, grid[:, None])
        dens_w = np.exp(ld_grid) * weights
        p_i = np.empty(len(I))
        p_j = np.empty(len(I))
        for k, (i, j) in enumerate(zip(I, J)):
            mask = ld_grid[i] > ld_grid[j]
            p_i[k] = min(1.0, float(dens_w[i][mask].sum()))
            p_j[k] = min(1.0, float(dens_w[j][mask].sum()))
    else:
        salt = int(as_generator(seed).integers(1 << 62))
        prob_own = np.zeros((m, m))
        for i, cand in enumerate(cands):
            pool = sample(cand, n_pool, _pool_seed(cand, salt)).points
            lp = log_densities(cands, pool)
            prob_own[i] = (lp[i][None, :] > lp).mean(axis=1)
        p_i = prob_own[I, J]
        p_j = 1.0 - prob_own[J, I]
    return p_hat, p_i, p_j


def reference_selection(cands, holdout, seed, n_pool):
    """``(index, wins bytes, strategy)`` of the serial tournament."""
    m = len(cands)
    I, J = np.triu_indices(m, 1)
    p_hat, p_i, p_j = reference_masses(cands, holdout, seed, n_pool)
    strategy = "grid_1d" if cands[0].dim == 1 else "mc_pools"
    i_wins = np.abs(p_i - p_hat) <= np.abs(p_j - p_hat)
    wins = np.bincount(I[i_wins], minlength=m) \
        + np.bincount(J[~i_wins], minlength=m)
    return int(np.argmax(wins)), wins.astype("<i8").tobytes(), strategy


def gaussians_2d(m, rng):
    return [Gaussian(0.4 * rng.standard_normal(2),
                     np.diag(rng.uniform(0.5, 2.0, 2))) for _ in range(m)]


def mixtures_2d(m, rng):
    return [Mixture(rng.dirichlet([2.0, 2.0]),
                    [Gaussian(rng.standard_normal(2) + shift,
                              np.diag(rng.uniform(0.5, 1.5, 2)))
                     for shift in (-1.5, 1.5)]) for _ in range(m)]


def mixed_1d(m, rng):
    """1-D mixtures of 1 to 3 components, with a plain Gaussian second."""
    out = []
    while len(out) < m:
        if len(out) == 1:
            out.append(Gaussian([rng.normal()], [[rng.uniform(0.5, 3.0)]]))
            continue
        k = 1 + len(out) % 3
        out.append(Mixture(rng.dirichlet(np.ones(k)),
                           [Gaussian([rng.normal(0.0, 2.0)],
                                     [[rng.uniform(0.3, 2.0)]])
                            for _ in range(k)]))
    return out


FAMILIES = {"gauss_2d": gaussians_2d, "mixture_2d": mixtures_2d,
            "mixed_1d": mixed_1d}


def run(cands, holdout, cpus, monkeypatch):
    """``(index, wins bytes, strategy)`` with ``cpus`` CPUs available."""
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        res = select_candidate(cands, holdout, 0.1,
                               np.random.default_rng(5), n_pool=N_POOL)
    return (res.index, np.asarray(res.scheffe_wins, "<i8").tobytes(),
            res.strategy)


def masses(cands, holdout, cpus, monkeypatch):
    """Bytes of ``(p_hat, p_i, p_j)`` with ``cpus`` CPUs available."""
    strategy = "grid_1d" if cands[0].dim == 1 else "mc_pools"
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = _split_tournament(cands, holdout.points,
                                *np.triu_indices(len(cands), 1), strategy,
                                np.random.default_rng(5), N_POOL)
    return [a.tobytes() for a in out]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("n_hold", [1, 257])
def test_pool_and_in_process_match_the_serial_loop(family, m, n_hold,
                                                   monkeypatch):
    rng = np.random.default_rng([m, n_hold, len(family)])
    cands = FAMILIES[family](m, rng)
    holdout = sample(cands[0], n_hold, rng)
    want = reference_selection(cands, holdout, np.random.default_rng(5),
                               N_POOL)
    assert want[2] == ("grid_1d" if family == "mixed_1d" else "mc_pools")
    assert run(cands, holdout, 1, monkeypatch) == want
    assert run(cands, holdout, 2, monkeypatch) == want
    # the region masses themselves, not only the wins, match bit for bit
    want = [a.tobytes() for a in reference_masses(
        cands, holdout, np.random.default_rng(5), N_POOL)]
    assert masses(cands, holdout, 1, monkeypatch) == want
    assert masses(cands, holdout, 2, monkeypatch) == want


def gaussians_1d(m, rng):
    return [Gaussian([rng.normal()], [[rng.uniform(0.5, 3.0)]])
            for _ in range(m)]


@pytest.mark.parametrize("strategy, family", [
    ("closed_form_1d", gaussians_1d), ("grid_1d", mixed_1d),
    ("mc_pools", gaussians_2d)])
@pytest.mark.parametrize("cpus", [1, 2])
def test_every_strategy_follows_the_pair_list_it_is_given(strategy, family,
                                                         cpus, monkeypatch):
    rng = np.random.default_rng(17)
    cands = family(6, rng)
    holdout = sample(cands[0], 257, rng)
    I, J = np.triu_indices(len(cands), 1)

    def masses(I, J):
        with monkeypatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            return _split_tournament(cands, holdout.points, I, J, strategy,
                                     np.random.default_rng(5), N_POOL)

    forward = masses(I, J)
    backward = masses(I[::-1], J[::-1])
    assert [a.tobytes() for a in backward] \
        == [a[::-1].tobytes() for a in forward]


def test_work_stays_in_process_in_a_child_or_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert utils._worker_pool() == (None, 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert utils._worker_pool() == (None, 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_does_not_reuse_the_parent_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert utils._worker_pool()[0] is not None
    pid = os.fork()
    if pid == 0:
        os._exit(0 if utils._POOL is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_dead_worker_raises_and_the_next_selection_recovers(monkeypatch):
    rng = np.random.default_rng(71)
    cands = gaussians_2d(5, rng)
    holdout = sample(cands[0], 400, rng)
    want = reference_selection(cands, holdout, np.random.default_rng(5),
                               N_POOL)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pool, _ = utils._worker_pool()
    with pytest.raises(BrokenProcessPool):
        pool.submit(os._exit, 1).result()
    with pytest.raises(WorkerPoolError, match="worker process died"):
        run(cands, holdout, 2, monkeypatch)
    assert issubclass(WorkerPoolError, CompressLearnError)
    fresh, _ = utils._worker_pool()
    assert fresh is not pool
    assert run(cands, holdout, 2, monkeypatch) == want

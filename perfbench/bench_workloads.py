"""The benchmark's workloads: their inputs, operations and output checks.

Every workload is a closed loop with one client.  A round runs one
operation per part, each starting when the last returned.  Round ``r``
of a run uses instance ``order[r % POOL]``, where ``order`` is a
permutation of the workload's instance pool drawn from the workload seed.
An instance fixes every random input of its round, so its outputs can be
compared with the references recorded in ``reference.json``.

Learn parts follow the README library example: draw
``compression_sample_size`` points from the target (untimed input
generation), then time ``learn_from_compression``.  The roundtrip part
times ``run_experiment`` for ``scheme_roundtrip``, as ``compresslearn run``
does with ``workers=1``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

import compresslearn as cl
from compresslearn.gaussmodels import dist_to_json
from compresslearn.harness import rows_to_csv, summarize, summary_to_csv

DELTA = 0.1
TV_MC_POINTS = 20000
TV_MC_SEED = 20171014


@dataclass(frozen=True)
class Part:
    """One operation of a round, with the workload-specific settings."""

    label: str
    kind: str          # "learn" or "roundtrip"
    scheme: str
    target: object
    eps: float = 0.0
    budget: int = 0
    grid: tuple = ()
    trials: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple
    pool: int          # instances with recorded references
    tv_rounds: int     # rounds that tv_mean averages over (always run)


def build(name: str) -> Workload:
    """Targets and settings of workload ``name`` (the set-up step)."""
    if name == "learn_1d":
        g = cl.Gaussian([1.5], [[4.0]])
        mix = cl.Mixture([0.4, 0.6], [cl.Gaussian([-2.0], [[1.0]]),
                                      cl.Gaussian([3.0], [[2.0]])])
        return Workload(name, (
            Part("g1d", "learn", "g1d", g, eps=0.2, budget=300),
            Part("g1d_robust", "learn", "g1d_robust", g, eps=0.2, budget=120),
            Part("mixture_1d", "learn", "mixture", mix, eps=0.2, budget=100),
        ), pool=24, tv_rounds=16)
    if name == "learn_2d":
        g = cl.Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        mix = cl.Mixture([0.5, 0.5], [
            cl.Gaussian([-2.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            cl.Gaussian([2.0, 1.0], [[1.5, 0.3], [0.3, 0.8]])])
        return Workload(name, (
            Part("gd_2d", "learn", "gd", g, eps=0.2, budget=100),
            Part("mixture_2d", "learn", "mixture", mix, eps=0.3, budget=60),
        ), pool=32, tv_rounds=4)
    if name == "roundtrip_gd3":
        g = cl.Gaussian([1.0, -0.5, 0.25], [[2.0, 0.3, 0.1],
                                            [0.3, 1.0, -0.2],
                                            [0.1, -0.2, 0.5]])
        return Workload(name, (
            Part("roundtrip_gd3", "roundtrip", "gd", g, grid=(0.1, 0.2),
                 trials=2),
        ), pool=64, tv_rounds=16)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("learn_1d", "learn_2d", "roundtrip_gd3")


def codecs(wl: Workload) -> dict:
    """Codec per learn part, built once per run like the README example."""
    return {p.label: cl.codec_for(p.scheme, p.target)
            for p in wl.parts if p.kind == "learn"}


def instance_order(wl: Workload, seed: int) -> list:
    return [int(i) for i in np.random.default_rng(seed).permutation(wl.pool)]


def inputs(wl: Workload, part: Part, codec, inst: int):
    """Untimed input generation for ``part`` on instance ``inst``."""
    if part.kind == "roundtrip":
        return cl.ExperimentConfig(
            experiment="scheme_roundtrip", grid_kind="eps", grid=part.grid,
            trials=part.trials, seed=inst, scheme=part.scheme,
            target=dist_to_json(part.target))
    rng = np.random.default_rng([WORKLOADS.index(wl.name), inst,
                                 wl.parts.index(part)])
    n = cl.compression_sample_size(codec, part.eps, DELTA, part.budget)
    return cl.sample(part.target, n, rng), rng


def run(part: Part, codec, inp):
    """The timed call into the program."""
    if part.kind == "roundtrip":
        return cl.run_experiment(inp, workers=1)
    samp, rng = inp
    return cl.learn_from_compression(codec, samp, part.eps, DELTA,
                                     part.budget, rng)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(part: Part, result) -> dict:
    """What must match the reference: the same-behaviour gates."""
    if part.kind == "roundtrip":
        summary, slope = summarize(result, "eps")
        return {"rows_sha256": _sha(rows_to_csv(result).encode()),
                "summary_sha256": _sha(summary_to_csv(summary, slope).encode())}
    wins = np.asarray(result.selection.scheffe_wins, dtype="<i8")
    return {"winner": result.selection.index,
            "wins_sha256": _sha(wins.tobytes()),
            "candidates": result.candidate_count}


def tvs(part: Part, result) -> list:
    """TV to the target: 1-D quadrature, fixed-seed Monte Carlo above."""
    if part.kind == "roundtrip":
        return [r.tv_error for r in result if r.success]
    if part.target.dim == 1:
        return [cl.tv_1d(part.target, result.estimate).value]
    return [cl.tv_mc(part.target, result.estimate, TV_MC_POINTS,
                     TV_MC_SEED).value]


def latencies_ms(part: Part, result, busy_s: float) -> list:
    """Per-operation latencies: each trial's ``wall_ms`` or the learn time."""
    if part.kind == "roundtrip":
        return [r.wall_ms for r in result]
    return [1000.0 * busy_s]


def units(part: Part, result) -> int:
    """Operations completed: harness trials, or one learn."""
    return len(result) if part.kind == "roundtrip" else 1


def finite_mean(values) -> float:
    vals = [v for v in values if math.isfinite(v)]
    return sum(vals) / len(vals) if vals else math.nan

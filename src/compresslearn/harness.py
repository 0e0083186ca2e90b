"""Seeded experiment orchestration with deterministic CSV/JSON reporting.

Per-trial seeds derive from (master seed, grid index, trial index) through
a fixed splitmix-style 64-bit mix, so any trial can be reproduced in
isolation and worker scheduling cannot change results.  Output rows are
buffered and written in (grid, trial) order; wall-clock timings are kept
on the row objects but written as empty CSV cells so files are
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._kernels import backend_name
from .compression import codec_for
from .distances import kl_gaussians, tv_estimate
# kept for callers that patch this module's tv_mc; trials call tv_estimate
from .distances import tv_mc  # noqa: F401
from .errors import CompressLearnError, ValidationError
from .gaussmodels import Gaussian, dist_from_json, sample
from .learners import learn_gaussian_efficient
from .lowerbound import kl_pair, make_lb_family, tv_pair_lower
from .nets import HULL_MAX_DIM, hull_contains_ball
from .utils import (POOL_BLOCKS_PER_WORKER, _blocks, _run_units,
                    _worker_pool, as_generator)

ROWS_SCHEMA = "compresslearn-rows-v1"
SUMMARY_SCHEMA = "compresslearn-summary-v1"
MANIFEST_SCHEMA = "compresslearn-run-manifest-v1"

# splitmix64 mixing constants
_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB


def _integer(value) -> int:
    """``int(value)`` for an integer, an integral float or an integer
    string; a bool or a float with a fractional part (which ``int`` would
    truncate) is malformed."""
    if isinstance(value, (bool, np.bool_)) or (
            isinstance(value, (float, np.floating))
            and not float(value).is_integer()):
        raise ValueError(value)
    return int(value)


# every experiment-specific knob a config's ``params`` may carry: its
# converter and the rule its value must meet (None: any value)
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
PARAMS = {
    "n_mc": (_integer, _AT_LEAST_ONE),
    "d": (_integer, _AT_LEAST_ONE),
    "r": (_integer, _AT_LEAST_ONE),
    "m_family": (_integer, _AT_LEAST_ONE),
    "rho": (float, (lambda v: v > 0.0, "must be > 0")),
    "contamination": (float, (lambda v: 0.0 <= v <= 1.0,
                              "must be in [0, 1]")),
    "junk_scale": (float, None),
}
# the same for each grid value, by grid kind (a count stays a float)
GRID_KINDS = {
    "eps": (float, (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")),
    "n": (lambda v: float(_integer(v)), _AT_LEAST_ONE),
}


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_MUL_1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_MUL_2) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, grid_idx: int, trial_idx: int) -> int:
    """Per-trial seed: chained splitmix64 over master, grid, and trial.

    ``splitmix64(splitmix64(splitmix64(master) ^ (grid_idx+1)) ^ (trial_idx+1))``;
    stable across versions, documented so single trials can be replayed.
    """
    state = _splitmix64(master & _MASK64)
    state = _splitmix64(state ^ (grid_idx + 1))
    return _splitmix64(state ^ (trial_idx + 1))


def _checked(name: str, value, convert, rule=None):
    """``convert(value)``, which must meet ``rule`` (None: any value); a
    malformed or out-of-range value is a ValidationError."""
    try:
        value = convert(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"config field {name!r}: malformed value {value!r}") from None
    if rule is not None and not rule[0](value):
        raise ValidationError(
            f"config field {name!r}: {rule[1]}, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: experiment name, grid, trial count, master seed.

    ``grid_kind`` says what the grid values mean: accuracy targets
    (``eps``) or sample counts (``n``).  ``target`` is a distribution in
    its JSON form; ``params`` carries experiment-specific knobs, the
    names in ``PARAMS``.  Building a config checks it against its
    experiment's row of ``EXPERIMENTS``, and converts every value to its
    type and checks it against its range.
    """

    experiment: str
    grid_kind: str
    grid: tuple
    trials: int
    seed: int
    scheme: Optional[str] = None
    target: Optional[dict] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.experiment, str) \
                or self.experiment not in EXPERIMENTS:
            raise ValidationError(
                f"config field 'experiment': unknown value {self.experiment!r}")
        _, kind, reads, defaults = EXPERIMENTS[self.experiment]
        if self.grid_kind != kind:
            raise ValidationError(
                f"config field 'grid_kind': {self.experiment} sweeps {kind!r}")
        grid = tuple(_checked("grid", value, *GRID_KINDS[kind])
                     for value in _checked("grid", self.grid, tuple))
        if len(grid) == 0:
            raise ValidationError("config field 'grid': must be nonempty")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "trials", _checked(
            "trials", self.trials, _integer, _AT_LEAST_ONE))
        object.__setattr__(self, "seed", _checked("seed", self.seed, _integer))
        for name in ("target", "scheme"):
            if (getattr(self, name) is None) == (name in reads):
                verb = "required for" if name in reads else "not read by"
                raise ValidationError(
                    f"config field {name!r}: {verb} {self.experiment}")
        if self.target is not None:
            target = dist_from_json(self.target)  # raises if malformed
            if self.scheme is not None:
                codec_for(self.scheme, target)  # raises if they do not fit
            if self.experiment == "learn_curve" \
                    and not isinstance(target, Gaussian):
                raise ValidationError("learn_curve needs a Gaussian target")
        params = _checked("params", self.params, dict)
        unknown = set(params) - set(PARAMS)
        if unknown:
            raise ValidationError(
                f"config field 'params': unknown names {sorted(unknown)}")
        params = {name: _checked(f"params.{name}", value, *PARAMS[name])
                  for name, value in params.items()}
        unread = [name for name in params if name not in defaults]
        if unread:
            raise ValidationError(f"config field 'params.{unread[0]}': "
                                  f"not read by {self.experiment}")
        object.__setattr__(self, "params", params)
        # checked here, before a trial draws an (n, d) sample
        if self.experiment == "hull_probe" and self.param("d") > HULL_MAX_DIM:
            raise ValidationError(
                f"config field 'params.d': hull_probe supports d <= "
                f"{HULL_MAX_DIM}, got {self.param('d')}")

    def param(self, name: str):
        """Param ``name``, or its default for this experiment."""
        return self.params.get(name, EXPERIMENTS[self.experiment][3][name])

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["grid"] = list(self.grid)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"config fields unknown: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING
                   and f.default_factory is MISSING} - set(data)
        if missing:
            raise ValidationError(f"config fields missing: {sorted(missing)}")
        return cls(**data)


@dataclass(frozen=True)
class ExperimentRow:
    """One trial's outcome; ``tv_error``/``kl_error`` are NaN on failure."""

    experiment: str
    grid_value: float
    trial: int
    seed: int
    success: bool
    tv_error: float
    kl_error: float
    wall_ms: float


def _trial_scheme_roundtrip(cfg: ExperimentConfig, eps: float,
                            seed: int) -> tuple:
    target = dist_from_json(cfg.target)
    codec = codec_for(cfg.scheme, target)
    rng = as_generator(seed)
    samp = sample(target, codec.m_samples(eps), rng)
    outcome = codec.encode(target, samp, eps)
    if not outcome.ok:
        return False, math.nan, math.nan
    decoded = codec.decode(outcome.message, samp.points, eps)
    tv = tv_estimate(decoded, target, cfg.param("n_mc"), rng).value
    kl = math.nan
    if isinstance(decoded, Gaussian) and isinstance(target, Gaussian):
        kl = kl_gaussians(target, decoded)
    return True, tv, kl


def _trial_learn_curve(cfg: ExperimentConfig, n_value: float,
                       seed: int) -> tuple:
    target = dist_from_json(cfg.target)
    rng = as_generator(seed)
    n = 2 * (int(n_value) // 2)
    samp = sample(target, n, rng)
    try:
        est = learn_gaussian_efficient(samp)
    except CompressLearnError:
        return False, math.nan, math.nan
    tv = tv_estimate(est, target, cfg.param("n_mc"), rng).value
    return True, tv, kl_gaussians(target, est)


def _trial_lowerbound_audit(cfg: ExperimentConfig, eps: float,
                            seed: int) -> tuple:
    try:
        fam = make_lb_family(cfg.param("d"), cfg.param("r"), eps,
                             cfg.param("m_family"), seed)
    except ValidationError:
        return False, math.nan, math.nan
    max_kl = 0.0
    min_sep = math.inf
    for a in range(fam.size):
        for b in range(a + 1, fam.size):
            max_kl = max(max_kl, kl_pair(fam, a, b))
            min_sep = min(min_sep, tv_pair_lower(fam, a, b))
    if fam.size < 2:
        min_sep = 0.0
    # the separation is a Frobenius certificate, clamped into TV range
    return True, min(1.0, min_sep), max_kl


def _trial_hull_probe(cfg: ExperimentConfig, n_value: float,
                      seed: int) -> tuple:
    d = cfg.param("d")
    rng = as_generator(seed)
    pts = rng.standard_normal((int(n_value), d))
    if cfg.param("contamination") > 0.0:
        junk = rng.random(pts.shape[0]) < cfg.param("contamination")
        pts[junk] = cfg.param("junk_scale") \
            * rng.standard_normal((int(junk.sum()), d))
    kept = pts[np.linalg.norm(pts, axis=1) <= 4.0 * math.sqrt(d)]
    if kept.shape[0] == 0:
        return False, math.nan, math.nan
    ok, _ = hull_contains_ball(kept, cfg.param("rho"))
    return bool(ok), math.nan, math.nan


# name: (trial, grid kind, the optional config fields it reads, the params
# it reads with their defaults); a config may set nothing else
EXPERIMENTS = {
    "scheme_roundtrip": (_trial_scheme_roundtrip, "eps", ("scheme", "target"),
                         {"n_mc": 20000}),
    "learn_curve": (_trial_learn_curve, "n", ("target",), {"n_mc": 20000}),
    "lowerbound_audit": (_trial_lowerbound_audit, "eps", (),
                         {"d": 18, "r": 9, "m_family": 8}),
    "hull_probe": (_trial_hull_probe, "n", (),
                   {"d": 3, "rho": 1.0 / 20.0, "contamination": 0.0,
                    "junk_scale": 30.0}),
}


def _run_one(args: tuple) -> ExperimentRow:
    cfg, grid_idx, trial_idx = args
    seed = derive_seed(cfg.seed, grid_idx, trial_idx)
    start = time.perf_counter()
    success, tv, kl = EXPERIMENTS[cfg.experiment][0](
        cfg, cfg.grid[grid_idx], seed)
    return ExperimentRow(
        experiment=cfg.experiment, grid_value=cfg.grid[grid_idx],
        trial=trial_idx, seed=seed, success=success, tv_error=tv,
        kl_error=kl, wall_ms=1000.0 * (time.perf_counter() - start))


def _run_trials(tasks: list) -> list:
    """One pool unit: a contiguous block of trials, run in order."""
    return [_run_one(task) for task in tasks]


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """Run every grid point x trial and return rows in deterministic order.

    ``workers == 1`` (or a single trial) runs the trials in this
    process, one after the other; their own pool work (a gd encode's hull
    solves) still runs on the program's worker pool
    (``utils._run_units``).  ``workers > 1`` hands the trials to that pool
    instead, as contiguous blocks, so it uses one process per CPU this
    process may run on whatever its value (``taskset`` limits that);
    there the trials do their own work in-process.  Rows keep (grid,
    trial) order, so the worker count cannot change output.  A worker
    that dies raises :class:`WorkerPoolError`.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    tasks = [(cfg, g, t)
             for g in range(len(cfg.grid)) for t in range(cfg.trials)]
    parts = 1 if workers == 1 or len(tasks) == 1 \
        else POOL_BLOCKS_PER_WORKER * _worker_pool()[1]
    return [row for done in _run_units(
        [(_run_trials, tasks[a:b]) for a, b in _blocks(len(tasks), parts)])
        for row in done]


@dataclass(frozen=True)
class SummaryRow:
    """Per-grid-point aggregate over trials."""

    experiment: str
    grid_value: float
    n_trials: int
    success_rate: float
    tv_mean: float
    tv_std: float
    kl_mean: float
    kl_std: float


def _nan_stats(values: np.ndarray) -> tuple:
    if np.all(np.isnan(values)):
        return math.nan, math.nan
    return float(np.nanmean(values)), float(np.nanstd(values))


def summarize(rows, grid_kind: str = "eps"):
    """Group rows by grid value; fit a log-log slope on n-sweeps.

    Returns ``(summary_rows, slope)`` where the slope is the least-squares
    gradient of ``log(tv_mean)`` against ``log(n)`` (None unless the sweep
    is over n with at least two usable points).
    """
    if not rows:
        raise ValidationError("summarize needs at least one row")
    order = []
    for row in rows:
        if row.grid_value not in order:
            order.append(row.grid_value)
    out = []
    for gv in order:
        group = [r for r in rows if r.grid_value == gv]
        tvs = np.array([r.tv_error for r in group])
        kls = np.array([r.kl_error for r in group])
        tv_mean, tv_std = _nan_stats(tvs)
        kl_mean, kl_std = _nan_stats(kls)
        out.append(SummaryRow(
            experiment=group[0].experiment, grid_value=gv,
            n_trials=len(group),
            success_rate=float(np.mean([r.success for r in group])),
            tv_mean=tv_mean, tv_std=tv_std,
            kl_mean=kl_mean, kl_std=kl_std))
    slope = None
    if grid_kind == "n":
        pts = [(s.grid_value, s.tv_mean) for s in out
               if s.tv_mean > 0.0 and math.isfinite(s.tv_mean)]
        if len(pts) >= 2:
            xs = np.log([p[0] for p in pts])
            ys = np.log([p[1] for p in pts])
            slope = float(np.polyfit(xs, ys, 1)[0])
    return out, slope


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [f"# {ROWS_SCHEMA}",
             "experiment,grid_value,trial,seed,success,tv_error,kl_error,wall_ms"]
    for r in rows:
        # wall_ms cell stays empty: timings vary run to run and the file
        # must be byte-identical for a fixed config and seed
        lines.append(",".join([
            r.experiment, _fmt(r.grid_value), str(r.trial), str(r.seed),
            _fmt(r.success), _fmt(r.tv_error), _fmt(r.kl_error), ""]))
    return "\n".join(lines) + "\n"


def summary_to_csv(summary_rows, slope) -> str:
    lines = [f"# {SUMMARY_SCHEMA}",
             "experiment,grid_value,n_trials,success_rate,tv_mean,tv_std,"
             "kl_mean,kl_std,loglog_slope"]
    slope_cell = "" if slope is None else repr(float(slope))
    for s in summary_rows:
        lines.append(",".join([
            s.experiment, _fmt(s.grid_value), str(s.n_trials),
            _fmt(s.success_rate), _fmt(s.tv_mean), _fmt(s.tv_std),
            _fmt(s.kl_mean), _fmt(s.kl_std), slope_cell]))
    return "\n".join(lines) + "\n"


def run_manifest(cfg: ExperimentConfig) -> dict:
    # scipy loads here for its version, not when the package is imported
    import scipy

    return {
        "schema": MANIFEST_SCHEMA,
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": backend_name(),
        },
    }


def write_outputs(cfg: ExperimentConfig, rows, out_dir) -> dict:
    """Write rows.csv, summary.csv, and run-manifest.json under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_rows, slope = summarize(rows, cfg.grid_kind)
    paths = {
        "rows": out / "rows.csv",
        "summary": out / "summary.csv",
        "manifest": out / "run-manifest.json",
    }
    paths["rows"].write_text(rows_to_csv(rows))
    paths["summary"].write_text(summary_to_csv(summary_rows, slope))
    paths["manifest"].write_text(
        json.dumps(run_manifest(cfg), indent=2, sort_keys=True) + "\n")
    return paths

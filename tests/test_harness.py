"""Experiment harness: seed derivation, CSV formats, determinism, summaries."""

import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from compresslearn import (ExperimentConfig, ExperimentRow, Gaussian,
                           ValidationError, WorkerPoolError, derive_seed,
                           harness, run_experiment, sample, select_candidate,
                           summarize, utils, write_outputs)
from compresslearn.compression import gd_codec
from compresslearn.harness import (_splitmix64, rows_to_csv, run_manifest,
                                   summary_to_csv)
from compresslearn.nets import HULL_MAX_DIM
from helpers import exit_in_child, trials_with_pid

GAUSS_1D = {"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}


def small_config(**overrides):
    base = dict(experiment="scheme_roundtrip", grid_kind="eps",
                grid=[0.3], trials=3, seed=11, scheme="g1d",
                target=GAUSS_1D)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_splitmix64_reference_vector():
    # first output of the splitmix64 stream seeded with 0
    assert _splitmix64(0) == 0xE220A8397B1DCDAF


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(42, 0, 0) == 6266766552776962338
    seeds = {derive_seed(1, g, t) for g in range(4) for t in range(50)}
    assert len(seeds) == 200


def test_config_validation_messages():
    with pytest.raises(ValidationError, match="experiment"):
        small_config(experiment="nope")
    with pytest.raises(ValidationError, match="grid_kind"):
        small_config(grid_kind="n")  # scheme_roundtrip sweeps eps
    with pytest.raises(ValidationError, match="grid"):
        small_config(grid=[])
    with pytest.raises(ValidationError, match="trials"):
        small_config(trials=0)
    with pytest.raises(ValidationError, match="target"):
        ExperimentConfig.from_dict(dict(
            experiment="scheme_roundtrip", grid_kind="eps", grid=[0.3],
            trials=1, seed=0, scheme="g1d"))
    with pytest.raises(ValidationError, match="unknown"):
        ExperimentConfig.from_dict(dict(
            experiment="hull_probe", grid_kind="n", grid=[100], trials=1,
            seed=0, typo_field=1))
    # no experiment reads a budget, so it is not a config field
    with pytest.raises(ValidationError, match=r"unknown: \['budget'\]"):
        small_config(budget=100)
    with pytest.raises(ValidationError, match=r"unknown names \['dim'\]"):
        small_config(params={"dim": 3})


@pytest.mark.parametrize("overrides", [
    {"trials": "x"}, {"trials": [1]}, {"seed": "x"}, {"grid": ["a"]},
    {"grid": 5}, {"params": [1]}, {"params": {"n_mc": "x"}}],
    ids=["string trials", "list trials", "string seed", "string grid",
         "scalar grid", "list params", "string param"])
def test_config_rejects_malformed_values(overrides):
    with pytest.raises(ValidationError, match=next(iter(overrides))):
        small_config(**overrides)


@pytest.mark.parametrize("overrides", [
    {"trials": 2.7}, {"trials": True}, {"seed": 1.5}, {"seed": float("nan")},
    {"params": {"d": 2.9}}, {"params": {"n_mc": float("inf")}},
    {"params": {"m_family": np.float32(2.5)}}],
    ids=["fractional trials", "bool trials", "fractional seed", "nan seed",
         "fractional d", "infinite n_mc", "numpy fractional m_family"])
def test_config_rejects_non_integral_counts(overrides):
    with pytest.raises(ValidationError, match="malformed"):
        small_config(**overrides)


@pytest.mark.parametrize("name, value", [
    ("d", -1), ("d", 0), ("r", 0), ("m_family", 0), ("n_mc", 0),
    ("contamination", -0.1), ("contamination", 1.5),
    ("contamination", float("nan")), ("rho", 0.0), ("rho", -0.05)])
def test_config_rejects_out_of_range_params(name, value):
    with pytest.raises(ValidationError, match=rf"'params\.{name}': must"):
        small_config(params={name: value})


def test_config_checks_counts_when_built_directly():
    base = dict(experiment="hull_probe", grid_kind="n", grid=(100,))
    with pytest.raises(ValidationError, match="trials"):
        ExperimentConfig(**base, trials=2.7, seed=0)
    with pytest.raises(ValidationError, match="params.d"):
        ExperimentConfig(**base, trials=1, seed=0, params={"d": -1})
    cfg = ExperimentConfig(**base, trials=np.int64(2), seed=3.0,
                           params={"contamination": 1, "d": "4"})
    assert (cfg.trials, cfg.seed) == (2, 3)
    assert type(cfg.trials) is int and type(cfg.seed) is int
    assert cfg.params == {"contamination": 1.0, "d": 4}


def test_config_limits_hull_probe_dimension():
    base = dict(grid_kind="n", grid=(100,), trials=1, seed=0)
    assert ExperimentConfig(experiment="hull_probe", **base,
                            params={"d": HULL_MAX_DIM}).params["d"] == 8
    with pytest.raises(ValidationError, match=r"'params\.d': hull_probe"):
        ExperimentConfig(experiment="hull_probe", **base,
                         params={"d": HULL_MAX_DIM + 1})
    # the limit is the hull certifier's, not every experiment's
    audit = ExperimentConfig(experiment="lowerbound_audit", grid_kind="eps",
                             grid=(0.2,), trials=1, seed=0,
                             params={"d": 18})
    assert audit.params["d"] == 18


def test_config_converts_params_when_built():
    cfg = ExperimentConfig.from_dict(dict(
        experiment="hull_probe", grid_kind="n", grid=[100], trials=1,
        seed=0, params={"d": 3.0, "rho": 1}))
    assert cfg.params == {"d": 3, "rho": 1.0}
    assert type(cfg.params["d"]) is int and type(cfg.params["rho"]) is float


@pytest.mark.parametrize("data", [[1], "config", None])
def test_config_must_be_an_object(data):
    with pytest.raises(ValidationError, match="must be a JSON object"):
        ExperimentConfig.from_dict(data)


def test_config_roundtrips_through_dict():
    cfg = small_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_rows_are_ordered_and_seeded():
    cfg = small_config(grid=[0.3, 0.2], trials=2)
    rows = run_experiment(cfg)
    assert [(r.grid_value, r.trial) for r in rows] \
        == [(0.3, 0), (0.3, 1), (0.2, 0), (0.2, 1)]
    for g, gv in enumerate(cfg.grid):
        for t in range(cfg.trials):
            row = rows[g * cfg.trials + t]
            assert row.seed == derive_seed(cfg.seed, g, t)


def test_worker_counts_agree(tmp_path):
    cfg = small_config(trials=4)
    rows1 = run_experiment(cfg, workers=1)
    rows2 = run_experiment(cfg, workers=2)
    a = write_outputs(cfg, rows1, tmp_path / "a")
    b = write_outputs(cfg, rows2, tmp_path / "b")
    for key in ("rows", "summary", "manifest"):
        assert a[key].read_bytes() == b[key].read_bytes()


def test_rows_csv_golden_format():
    rows = [ExperimentRow(experiment="hull_probe", grid_value=100.0, trial=0,
                          seed=7, success=True, tv_error=float("nan"),
                          kl_error=0.25, wall_ms=3.5)]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "# compresslearn-rows-v1"
    assert lines[1] == ("experiment,grid_value,trial,seed,success,"
                        "tv_error,kl_error,wall_ms")
    # wall time cell stays empty for byte-stable outputs
    assert lines[2] == "hull_probe,100.0,0,7,true,nan,0.25,"


def test_summary_math_and_nan_handling():
    rows = [
        ExperimentRow("x", 1.0, 0, 0, True, 0.2, 1.0, 0.0),
        ExperimentRow("x", 1.0, 1, 1, False, float("nan"), 3.0, 0.0),
        ExperimentRow("x", 2.0, 0, 2, True, 0.4, float("nan"), 0.0),
    ]
    summary, slope = summarize(rows, grid_kind="eps")
    assert slope is None
    assert len(summary) == 2
    first = summary[0]
    assert first.n_trials == 2
    assert first.success_rate == pytest.approx(0.5)
    assert first.tv_mean == pytest.approx(0.2)  # nan ignored
    assert first.kl_mean == pytest.approx(2.0)
    assert math.isnan(summary[1].kl_mean)


def test_summary_slope_recovers_power_law():
    rows = []
    for g, n in enumerate([2 ** p for p in range(9, 16)]):
        for t in range(3):
            rows.append(ExperimentRow("lc", float(n), t, 0, True,
                                      n ** -0.5, float("nan"), 0.0))
    _, slope = summarize(rows, grid_kind="n")
    assert slope == pytest.approx(-0.5, abs=1e-9)


def test_summary_csv_contains_slope_column():
    rows = [ExperimentRow("lc", 512.0, 0, 0, True, 0.5, 0.1, 0.0),
            ExperimentRow("lc", 2048.0, 0, 1, True, 0.25, 0.1, 0.0)]
    summary, slope = summarize(rows, grid_kind="n")
    text = summary_to_csv(summary, slope)
    lines = text.splitlines()
    assert lines[0] == "# compresslearn-summary-v1"
    assert lines[2].endswith(repr(slope))


def test_manifest_contents(tmp_path):
    cfg = small_config()
    doc = run_manifest(cfg)
    assert doc["schema"] == "compresslearn-run-manifest-v1"
    assert doc["config"] == cfg.to_dict()
    assert doc["seed"] == 11
    assert set(doc["versions"]) \
        == {"package", "python", "numpy", "scipy", "kernel_backend"}
    rows = run_experiment(cfg)
    paths = write_outputs(cfg, rows, tmp_path / "out")
    parsed = json.loads(paths["manifest"].read_text())
    assert parsed == doc


def test_learn_curve_experiment_produces_kl():
    cfg = ExperimentConfig.from_dict(dict(
        experiment="learn_curve", grid_kind="n", grid=[256], trials=2,
        seed=5, target={"type": "gaussian", "mean": [0.0, 0.0],
                        "cov": [[1.0, 0.0], [0.0, 1.0]]},
        params={"n_mc": 2000}))
    rows = run_experiment(cfg)
    assert all(r.success for r in rows)
    assert all(r.kl_error >= 0.0 for r in rows)


def test_lowerbound_audit_experiment():
    cfg = ExperimentConfig.from_dict(dict(
        experiment="lowerbound_audit", grid_kind="eps", grid=[0.25],
        trials=1, seed=3, params={"d": 18, "r": 9, "m_family": 4}))
    rows = run_experiment(cfg)
    assert rows[0].success
    assert rows[0].kl_error > 0.0
    assert 0.0 < rows[0].tv_error <= 1.0


def test_hull_probe_experiment():
    cfg = ExperimentConfig.from_dict(dict(
        experiment="hull_probe", grid_kind="n", grid=[400], trials=2,
        seed=4, params={"d": 3, "rho": 0.05}))
    rows = run_experiment(cfg)
    assert all(r.success for r in rows)
    assert all(math.isnan(r.tv_error) for r in rows)


def test_summarize_rejects_empty():
    with pytest.raises(ValidationError):
        summarize([], "eps")


# what each experiment reads besides experiment, grid_kind, grid, trials
# and seed; a config may set nothing else
READS = {
    "scheme_roundtrip": {"scheme", "target", "n_mc"},
    "learn_curve": {"target", "n_mc"},
    "lowerbound_audit": {"d", "r", "m_family"},
    "hull_probe": {"d", "rho", "contamination", "junk_scale"},
}
BASES = {
    "scheme_roundtrip": dict(grid_kind="eps", grid=[0.3]),
    "learn_curve": dict(grid_kind="n", grid=[64]),
    "lowerbound_audit": dict(grid_kind="eps", grid=[0.2]),
    "hull_probe": dict(grid_kind="n", grid=[100]),
}
VALUES = {"scheme": "g1d", "target": GAUSS_1D, "n_mc": 500, "d": 2, "r": 1,
          "m_family": 2, "rho": 0.1, "contamination": 0.1,
          "junk_scale": 5.0}


def _config(experiment, names):
    data = dict(BASES[experiment], experiment=experiment, trials=1, seed=0,
                params={})
    for name in names:
        if name in ("scheme", "target"):
            data[name] = VALUES[name]
        else:
            data["params"][name] = VALUES[name]
    return ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("experiment", sorted(READS))
def test_config_accepts_everything_its_experiment_reads(experiment):
    cfg = _config(experiment, READS[experiment])
    # the five common fields, plus every value the experiment reads
    settable = 5 + (cfg.scheme is not None) + (cfg.target is not None) \
        + len(cfg.params)
    assert settable == {"scheme_roundtrip": 8, "learn_curve": 7,
                        "lowerbound_audit": 8, "hull_probe": 9}[experiment]
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("experiment, name", [
    (experiment, name) for experiment in sorted(READS)
    for name in sorted(VALUES) if name not in READS[experiment]])
def test_config_rejects_what_its_experiment_does_not_read(experiment, name):
    needed = READS[experiment] & {"scheme", "target"}
    field_name = name if name in ("scheme", "target") else f"params.{name}"
    with pytest.raises(ValidationError,
                       match=rf"'{field_name}': not read by {experiment}$"):
        _config(experiment, needed | {name})


@pytest.mark.parametrize("name", [["hull_probe"], {"x": 1}, None, 3])
def test_config_rejects_an_experiment_name_that_is_not_a_string(name):
    with pytest.raises(ValidationError, match="'experiment': unknown value"):
        small_config(experiment=name)


@pytest.mark.parametrize("grid", [[0.5, 1.5], [0.0], [-0.2], [float("nan")]])
def test_config_rejects_eps_outside_unit_interval(grid):
    with pytest.raises(ValidationError,
                       match=r"'grid': must be in \(0, 1\], got"):
        small_config(grid=grid)


@pytest.mark.parametrize("grid, match", [
    ([-5], "must be >= 1"), ([0], "must be >= 1"), ([7.9], "malformed"),
    ([100, True], "malformed"), ([float("inf")], "malformed")])
def test_config_rejects_n_grids_of_non_positive_integers(grid, match):
    with pytest.raises(ValidationError, match=rf"'grid': {match}"):
        ExperimentConfig(experiment="hull_probe", grid_kind="n", grid=grid,
                         trials=1, seed=0)


def test_config_keeps_n_grid_values_as_floats():
    cfg = ExperimentConfig(experiment="hull_probe", grid_kind="n",
                           grid=[150, "200", 250.0], trials=1, seed=0)
    assert cfg.grid == (150.0, 200.0, 250.0)
    assert all(type(v) is float for v in cfg.grid)


@pytest.mark.parametrize("scheme, target, match", [
    ("g1d", {"type": "gaussian", "mean": [0.0, 0.0],
             "cov": [[1.0, 0.0], [0.0, 1.0]]}, "1-D Gaussian"),
    ("mixture", GAUSS_1D, "mixture target"),
    ("nope", GAUSS_1D, "unknown scheme")])
def test_config_rejects_a_scheme_the_target_does_not_fit(scheme, target,
                                                         match):
    with pytest.raises(ValidationError, match=match):
        small_config(scheme=scheme, target=target)


MIXTURE_1D = {"type": "mixture", "weights": [0.5, 0.5],
              "components": [{"type": "gaussian", "mean": [-2.0],
                              "cov": [[1.0]]},
                             {"type": "gaussian", "mean": [2.0],
                              "cov": [[1.0]]}]}


def test_config_rejects_a_learn_curve_target_that_is_not_gaussian():
    with pytest.raises(ValidationError,
                       match="^learn_curve needs a Gaussian target$"):
        ExperimentConfig(experiment="learn_curve", grid_kind="n", grid=[64],
                         trials=1, seed=0, target=MIXTURE_1D)


@pytest.fixture
def two_cpus_no_pool(monkeypatch):
    """Two CPUs and no worker pool yet; a pool the test starts is shut
    down after it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(utils, "_POOL", None)
    yield
    if utils._POOL is not None:
        utils._POOL.shutdown(cancel_futures=True)


def hull_probe_config(n_grid=3, trials=5):
    return ExperimentConfig(experiment="hull_probe", grid_kind="n",
                            grid=[20 + g for g in range(n_grid)],
                            trials=trials, seed=2)


def start_pool_with_selection():
    rng = np.random.default_rng(4)
    cands = [Gaussian(rng.standard_normal(2), np.eye(2)) for _ in range(3)]
    select_candidate(cands, sample(cands[0], 50, rng), 0.1, 1, n_pool=50)


def start_pool_with_gd_encode():
    target = Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
    codec = gd_codec(2)
    codec.encode(target, sample(target, codec.spec.m_samples(0.45), 11),
                 0.45)


@pytest.mark.parametrize("start_pool", [start_pool_with_selection,
                                        start_pool_with_gd_encode],
                         ids=["select_candidate", "gd encode"])
def test_trials_run_on_the_pool_an_earlier_call_started(
        two_cpus_no_pool, monkeypatch, start_pool):
    start_pool()
    pool = utils._POOL
    assert pool is not None
    monkeypatch.setattr(harness, "_run_trials", trials_with_pid)
    cfg = hull_probe_config()
    rows = run_experiment(cfg, workers=2)
    assert utils._POOL is pool
    assert os.getpid() not in {row.wall_ms for row in rows}
    assert rows_to_csv(rows) == rows_to_csv(run_experiment(cfg, workers=1))


@pytest.mark.parametrize("cpus, in_child", [(1, False), (2, True)],
                         ids=["one cpu", "child process"])
def test_trials_run_in_process_on_one_cpu_or_in_a_child(
        two_cpus_no_pool, monkeypatch, cpus, in_child):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    if in_child:
        monkeypatch.setattr(multiprocessing, "parent_process",
                            lambda: object())
    monkeypatch.setattr(harness, "_run_trials", trials_with_pid)
    rows = run_experiment(hull_probe_config(), workers=2)
    assert {row.wall_ms for row in rows} == {os.getpid()}
    assert utils._POOL is None


@pytest.mark.parametrize("n_grid, trials", [(1, 1), (2, 1), (3, 5), (1, 9)])
def test_pool_rows_equal_in_process_rows(two_cpus_no_pool, n_grid, trials):
    cfg = hull_probe_config(n_grid, trials)
    assert rows_to_csv(run_experiment(cfg, workers=2)) \
        == rows_to_csv(run_experiment(cfg, workers=1))


def test_a_dead_trial_process_raises_worker_pool_error(two_cpus_no_pool,
                                                       monkeypatch):
    monkeypatch.setattr(harness, "_run_trials", exit_in_child)
    with pytest.raises(WorkerPoolError, match="worker process died"):
        run_experiment(small_config(), workers=2)

"""Command line entry points, invoked in process."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from compresslearn import cli, harness
from compresslearn.cli import (compresslearn_main, distances_main, learn_main,
                               lowerbound_main)
from compresslearn.distances import tv_frobenius_proxy
from compresslearn.gaussmodels import dist_from_json
from helpers import exit_in_child

GAUSS_A = json.dumps({"type": "gaussian", "mean": [0.0], "cov": [[1.0]]})
GAUSS_B = json.dumps({"type": "gaussian", "mean": [1.0], "cov": [[1.0]]})


def run_json(capsys, main, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_distances_kl(capsys):
    code, rec = run_json(capsys, distances_main,
                         ["--p", GAUSS_A, "--q", GAUSS_B, "--metric", "kl"])
    assert code == 0
    assert rec == {"method": "closed_form", "std_error": 0.0, "value": 0.5}


def test_distances_tv_quadrature(capsys):
    code, rec = run_json(capsys, distances_main,
                         ["--p", GAUSS_A, "--q", GAUSS_B, "--metric", "tv"])
    assert code == 0
    assert rec["method"] == "quadrature1d"
    assert rec["value"] == pytest.approx(0.38292492, abs=1e-6)


def test_distances_tv_monte_carlo_seeded(capsys):
    p = json.dumps({"type": "gaussian", "mean": [0.0, 0.0],
                    "cov": [[1.0, 0.0], [0.0, 1.0]]})
    q = json.dumps({"type": "gaussian", "mean": [1.0, 0.0],
                    "cov": [[1.0, 0.0], [0.0, 1.0]]})
    args = ["--p", p, "--q", q, "--metric", "tv", "--n-mc", "20000",
            "--seed", "3"]
    code, rec1 = run_json(capsys, distances_main, args)
    code2, rec2 = run_json(capsys, distances_main, args)
    assert code == code2 == 0
    assert rec1 == rec2
    assert rec1["method"] == "monte_carlo"
    assert rec1["std_error"] > 0.0


def test_distances_reads_files(tmp_path, capsys):
    p_path = tmp_path / "p.json"
    p_path.write_text(GAUSS_A)
    code, rec = run_json(capsys, distances_main,
                         ["--p", str(p_path), "--q", GAUSS_A,
                          "--metric", "kl"])
    assert code == 0
    assert rec["value"] == 0.0


def test_distances_kl_rejects_mixture(capsys):
    mix = json.dumps({"type": "mixture", "weights": [1.0],
                      "components": [json.loads(GAUSS_A)]})
    code = distances_main(["--p", mix, "--q", GAUSS_A, "--metric", "kl"])
    assert code == 2
    assert "kl" in capsys.readouterr().err


def test_distances_proxy_equals_the_library_value(capsys):
    p = {"type": "gaussian", "mean": [0.0, 0.0],
         "cov": [[2.0, 0.3], [0.3, 1.0]]}
    q = {"type": "gaussian", "mean": [0.0, 0.0],
         "cov": [[1.0, 0.0], [0.0, 0.5]]}
    code, rec = run_json(capsys, distances_main,
                         ["--p", json.dumps(p), "--q", json.dumps(q),
                          "--metric", "proxy"])
    assert code == 0
    assert rec == {"method": "frobenius_proxy", "std_error": 0.0,
                   "value": tv_frobenius_proxy(dist_from_json(p),
                                               dist_from_json(q))}


def test_distances_proxy_rejects_a_mixture_in_one_line(capsys):
    mix = json.dumps({"type": "mixture", "weights": [1.0],
                      "components": [json.loads(GAUSS_A)]})
    code = distances_main(["--p", GAUSS_A, "--q", mix, "--metric", "proxy"])
    assert code == 2
    assert capsys.readouterr().err == \
        "distances: the frobenius proxy needs two Gaussians\n"


@pytest.mark.parametrize("metric, p", [
    ("kl", {"type": "gaussian", "mean": [0.0, 0.0],
            "cov": [[1e308, 0.0], [0.0, 1e308]]}),
    ("tv", {"type": "gaussian", "mean": [0.0], "cov": [[1e-310]]}),
], ids=["kl cov overflows", "tv inverse overflows"])
def test_distances_rejects_a_covariance_it_cannot_evaluate(capsys, metric, p):
    dim = len(p["mean"])
    q = {"type": "gaussian", "mean": [0.0] * dim,
         "cov": np.eye(dim).tolist()}
    code = distances_main(["--p", json.dumps(p), "--q", json.dumps(q),
                           "--metric", metric])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("distances: ") and "not finite" in err
    assert err.count("\n") == 1


def test_learn_writes_result(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = learn_main([
        "--target", GAUSS_B, "--scheme", "g1d", "--eps", "0.3",
        "--delta", "0.4", "--budget", "32", "--seed", "5",
        "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["scheme"] == "g1d"
    assert rec["candidate_count"] <= 32
    assert rec["budget_capped"] is True
    assert 0.0 <= rec["tv_to_target"] <= 1.0
    assert rec["estimate"]["type"] == "gaussian"
    assert rec["selection"]["strategy"] == "closed_form_1d"


def test_learn_readme_command(tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"type": "gaussian", "mean": [1.5],
                                  "cov": [[4.0]]}))
    out = tmp_path / "result.json"
    code = learn_main([
        "--target", str(target), "--scheme", "g1d", "--eps", "0.2",
        "--delta", "0.1", "--budget", "2000", "--seed", "7",
        "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["budget"] == 2000
    assert rec["candidate_count"] <= 2000
    assert rec["selection"]["strategy"] == "closed_form_1d"
    assert rec["tv_to_target"] <= 0.2


def test_learn_mixture_scheme(tmp_path):
    target = json.dumps({
        "type": "mixture", "weights": [0.5, 0.5],
        "components": [{"type": "gaussian", "mean": [0.0], "cov": [[1.0]]},
                       {"type": "gaussian", "mean": [5.0], "cov": [[1.0]]}]})
    out = tmp_path / "mix.json"
    code = learn_main([
        "--target", target, "--scheme", "mixture", "--eps", "0.4",
        "--delta", "0.5", "--budget", "8", "--seed", "2", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["estimate"]["type"] == "mixture"


def test_learn_rejects_scheme_target_mismatch(capsys):
    code = learn_main([
        "--target", GAUSS_A, "--scheme", "mixture", "--eps", "0.3",
        "--delta", "0.3", "--budget", "8"])
    assert code == 2


@pytest.mark.parametrize("target, delta", [
    (GAUSS_A, "0"),
    ('{"type": "gaussian", "mean": "x", "cov": [[1]]}', "0.3"),
], ids=["delta 0", "string mean"])
def test_learn_rejects_bad_input_in_one_line(capsys, target, delta):
    code = learn_main([
        "--target", target, "--scheme", "g1d", "--eps", "0.3",
        "--delta", delta, "--budget", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("learn: ") and err.count("\n") == 1


def test_learn_reports_a_sample_too_large_to_size(capsys):
    code = learn_main([
        "--target", GAUSS_A, "--scheme", "g1d", "--eps", "1e-12",
        "--delta", "0.1", "--budget", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("learn: cannot allocate a sample of n=")
    assert "in d=1" in err and err.count("\n") == 1


def test_learn_reports_a_budget_too_large_to_size_a_holdout(capsys):
    code = learn_main([
        "--target", GAUSS_A, "--scheme", "g1d", "--eps", "0.3",
        "--delta", "0.1", "--budget", "1" + "0" * 200])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("learn: too many candidates to size a holdout")
    assert err.count("\n") == 1


def test_learn_reports_a_tournament_too_large_for_memory(monkeypatch,
                                                         capsys):
    monkeypatch.setattr("compresslearn.learners._mem_available",
                        lambda: 1 << 20)
    code = learn_main([
        "--target", GAUSS_A, "--scheme", "g1d", "--eps", "0.3",
        "--delta", "0.4", "--budget", "400"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("learn: a tournament over m=")
    assert err.endswith("MiB, more than the 1 MiB available; "
                        "lower the budget\n")
    assert err.count("\n") == 1


# only ever run under the address-space limit: the draw asks for 830 GiB
TOO_LARGE_SAMPLE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from compresslearn.cli import learn_main
sys.exit(learn_main(["--target", sys.argv[1], "--scheme", "g1d",
                     "--eps", "1e-4", "--delta", "0.1", "--budget", "10"]))
"""


def test_learn_reports_a_sample_too_large_to_allocate():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", TOO_LARGE_SAMPLE, GAUSS_A],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(
        "learn: cannot allocate a sample of n=111353788787 points in d=1")
    assert out.stderr.count("\n") == 1


def test_learn_out_into_a_missing_directory_exits_2_in_one_line(tmp_path,
                                                               capsys):
    out = tmp_path / "missing" / "r.json"
    code = learn_main([
        "--target", GAUSS_B, "--scheme", "g1d", "--eps", "0.3",
        "--delta", "0.4", "--budget", "8", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("learn: ") and "No such file or directory" in err
    assert err.count("\n") == 1


# both sizes are above the 128 TiB user address space, so the allocation
# fails at once without touching memory
def test_lowerbound_too_large_to_allocate_exits_2_in_one_line(tmp_path,
                                                              capsys):
    out = tmp_path / "x.json"
    code = lowerbound_main(["--d", "9000000", "--r", "9", "--eps", "0.1",
                            "--M", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("lowerbound: Unable to allocate")
    assert err.count("\n") == 1
    assert not out.exists()


def test_compresslearn_run_too_large_to_allocate_exits_2_in_one_line(
        tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        experiment="hull_probe", grid_kind="n", grid=[1e14], trials=1,
        seed=9, params={"d": 3})))
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("compresslearn: Unable to allocate")
    assert err.count("\n") == 1


def test_lowerbound_outputs(tmp_path, capsys):
    out = tmp_path / "family.json"
    code = lowerbound_main([
        "--d", "18", "--r", "9", "--eps", "0.25", "--M", "4", "--seed", "0",
        "--out", str(out), "--tv-mc-pairs", "1", "--n-mc", "5000"])
    assert code == 0
    fam = json.loads(out.read_text())
    assert fam["d"] == 18 and fam["size"] == 4
    assert len(fam["covariances"]) == 4
    kl_rows = (tmp_path / "family.kl.csv").read_text().splitlines()
    assert len(kl_rows) == 4
    assert float(kl_rows[0].split(",")[0]) == 0.0
    fr_rows = (tmp_path / "family.frobenius.csv").read_text().splitlines()
    assert len(fr_rows) == 4
    fano = json.loads((tmp_path / "family.fano.json").read_text())
    assert fano["m_family"] == 4
    assert fano["kl_upper_bound"] > 0.0
    assert len(fano["tv_mc_fits"]) == 1
    assert fano["fitted_c"] > 0.0


def test_lowerbound_deterministic_output(tmp_path):
    args = ["--d", "18", "--r", "9", "--eps", "0.2", "--M", "3",
            "--seed", "1", "--tv-mc-pairs", "0"]
    code = lowerbound_main(args + ["--out", str(tmp_path / "a.json")])
    code2 = lowerbound_main(args + ["--out", str(tmp_path / "b.json")])
    assert code == code2 == 0
    assert (tmp_path / "a.kl.csv").read_bytes() \
        == (tmp_path / "b.kl.csv").read_bytes()
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert a == b


@pytest.mark.parametrize("d", ["0", "-9"])
def test_lowerbound_rejects_nonpositive_dimension(tmp_path, capsys, d):
    out = tmp_path / "x.json"
    code = lowerbound_main(["--d", d, "--r", "9", "--eps", "0.2", "--M", "4",
                            "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "lowerbound: d must be a positive multiple of r = 9\n")
    assert not out.exists()


def test_compresslearn_run(tmp_path, capsys):
    cfg = dict(experiment="hull_probe", grid_kind="n", grid=[200],
               trials=2, seed=9, params={"d": 3})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "rows.csv").exists()
    assert (out_dir / "summary.csv").exists()
    manifest = json.loads((out_dir / "run-manifest.json").read_text())
    assert manifest["config"]["experiment"] == "hull_probe"


def test_compresslearn_run_records_a_failed_encode(tmp_path, capsys):
    # at this seed the g1d encoder misses its acceptance events in trial 3
    cfg = dict(experiment="scheme_roundtrip", grid_kind="eps", grid=[0.3],
               trials=4, seed=0, scheme="g1d",
               target={"type": "gaussian", "mean": [0.0], "cov": [[1.0]]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(out_dir)])
    assert code == 0
    rows = (out_dir / "rows.csv").read_text().splitlines()[2:]
    assert [",true," in row for row in rows] == [True, True, True, False]
    assert ",3," in rows[3] and ",false,nan,nan," in rows[3]
    with open(out_dir / "summary.csv") as f:
        summary = list(csv.DictReader(
            line for line in f if not line.startswith("#")))
    assert float(summary[0]["success_rate"]) == 0.75


def test_compresslearn_run_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "nope"}))
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(tmp_path / "o")])
    assert code == 2
    assert "compresslearn" in capsys.readouterr().err


def test_compresslearn_run_rejects_malformed_number(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for bad in ({"trials": "x"}, {"params": {"d": "x"}}):
        cfg = dict(experiment="hull_probe", grid_kind="n", grid=[200],
                   trials=2, seed=9)
        cfg.update(bad)
        cfg_path.write_text(json.dumps(cfg))
        code = compresslearn_main(["run", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("compresslearn: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [{"params": {"d": -1}}, {"trials": 2.7}],
                         ids=["negative d", "fractional trials"])
def test_compresslearn_run_rejects_out_of_range_config(tmp_path, capsys, bad):
    cfg = dict(experiment="hull_probe", grid_kind="n", grid=[200], trials=2,
               seed=9)
    cfg.update(bad)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "o"
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("compresslearn: ") and err.count("\n") == 1
    assert next(iter(bad)) in err
    assert not out_dir.exists()


def test_compresslearn_run_rejects_hull_probe_above_max_dim(tmp_path, capsys):
    cfg = dict(experiment="hull_probe", grid_kind="n", grid=[200], trials=2,
               seed=9, params={"d": 9})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "o"
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("compresslearn: config field 'params.d': hull_probe "
                   "supports d <= 8, got 9\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("cfg, err", [
    (dict(experiment="hull_probe", grid_kind="n", grid=[-5]),
     "config field 'grid': must be >= 1, got -5.0"),
    (dict(experiment="learn_curve", grid_kind="n", grid=[7.9],
          target={"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}),
     "config field 'grid': malformed value 7.9"),
    (dict(experiment="scheme_roundtrip", grid_kind="eps", grid=[0.5, 1.5],
          scheme="g1d",
          target={"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}),
     "config field 'grid': must be in (0, 1], got 1.5"),
    (dict(experiment="scheme_roundtrip", grid_kind="eps", grid=[0.5],
          scheme="g1d", target={"type": "gaussian", "mean": [0.0, 0.0],
                                "cov": [[1.0, 0.0], [0.0, 1.0]]}),
     "g1d expects a 1-D Gaussian target"),
    (dict(experiment="hull_probe", grid_kind="n", grid=[200],
          params={"n_mc": 100}),
     "config field 'params.n_mc': not read by hull_probe")],
    ids=["negative n", "fractional n", "eps above 1", "scheme misfit",
         "unread param"])
def test_compresslearn_run_rejects_config_before_any_trial(tmp_path, capsys,
                                                           cfg, err):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(cfg, trials=2, seed=9)))
    out_dir = tmp_path / "o"
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == f"compresslearn: {err}\n"
    assert not out_dir.exists()


def test_compresslearn_run_rejects_a_mixture_learn_curve_before_any_trial(
        tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg, workers: ran.append(cfg) or [])
    target = {"type": "mixture", "weights": [0.5, 0.5],
              "components": [{"type": "gaussian", "mean": [-2.0],
                              "cov": [[1.0]]},
                             {"type": "gaussian", "mean": [2.0],
                              "cov": [[1.0]]}]}
    cfg = dict(experiment="learn_curve", grid_kind="n", grid=[64], trials=2,
               seed=9, target=target)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "o"
    code = compresslearn_main(["run", "--config", str(cfg_path),
                               "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == \
        "compresslearn: learn_curve needs a Gaussian target\n"
    assert ran == []
    assert not out_dir.exists()


def test_compresslearn_run_reports_a_dead_trial_process(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(harness, "_run_trials", exit_in_child)
    cfg = dict(experiment="hull_probe", grid_kind="n", grid=[200],
               trials=2, seed=9)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = compresslearn_main(["run", "--config", str(cfg_path), "--out",
                               str(tmp_path / "o"), "--workers", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("compresslearn: a worker process died")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("main, args", [
    (compresslearn_main, ["run", "--out", "o", "--config"]),
    (distances_main, ["--q", GAUSS_B, "--metric", "kl", "--p"]),
    (learn_main, ["--scheme", "g1d", "--eps", "0.2", "--delta", "0.1",
                  "--budget", "10", "--target"])],
    ids=["run --config", "distances --p", "learn --target"])
def test_a_file_that_is_not_utf8_exits_2_in_one_line(tmp_path, capsys, main,
                                                     args):
    path = tmp_path / "in.json"
    path.write_bytes(b'{"type": "gaussian", "mean": [0.0]\xff}')
    assert main(args + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "can't decode byte 0xff" in err and err.count("\n") == 1


@pytest.mark.parametrize("main, args", [
    (compresslearn_main, ["run", "--out", "o", "--config"]),
    (distances_main, ["--q", GAUSS_B, "--metric", "tv", "--p"])],
    ids=["run --config", "distances --p"])
def test_deeply_nested_json_exits_2_in_one_line(tmp_path, capsys, main, args):
    path = tmp_path / "in.json"
    deep_keys = '{"a": ' * 100000 + "0" + "}" * 100000
    deep_mixture = ('{"type": "mixture", "weights": [1.0], "components": ['
                    * 2000 + GAUSS_A + "]}" * 2000)
    for text in (deep_keys, deep_mixture):
        path.write_text(text)
        assert main(args + [str(path)]) == 2
        err = capsys.readouterr().err
        assert "maximum recursion depth exceeded" in err
        assert err.count("\n") == 1

"""Golden harness runs: each experiment's rows and summary at its defaults.

Each digest is the sha256 of ``rows_to_csv`` and ``summary_to_csv`` for
one small config run with ``workers=1``.  The configs set no params, so
the digests pin every default an experiment reads: ``n_mc`` (a 2-D target,
whose TV is a Monte Carlo estimate), the audit's ``d``, ``r`` and
``m_family``, and the hull probe's ``d``, ``rho`` and ``contamination``;
the contaminated hull probe sets ``contamination`` alone, which pins
``junk_scale``.  The hull grid sits where the origin is inside the hull of
the sample about half the time, so a changed ``d`` or ``rho`` shows.
"""

import hashlib

import pytest

from compresslearn import ExperimentConfig, run_experiment, summarize
from compresslearn.harness import rows_to_csv, summary_to_csv

GAUSS_2D = {"type": "gaussian", "mean": [0.5, -1.0],
            "cov": [[1.0, 0.0], [0.0, 2.0]]}
HULL_GRID = [4, 5, 6, 7, 8, 10]

CASES = {
    "scheme_roundtrip": dict(experiment="scheme_roundtrip", grid_kind="eps",
                             grid=[0.5], trials=2, seed=7, scheme="axis",
                             target=GAUSS_2D),
    "learn_curve": dict(experiment="learn_curve", grid_kind="n",
                        grid=[64, 128], trials=2, seed=7, target=GAUSS_2D),
    "lowerbound_audit": dict(experiment="lowerbound_audit", grid_kind="eps",
                             grid=[0.2], trials=2, seed=7),
    "hull_probe": dict(experiment="hull_probe", grid_kind="n",
                       grid=HULL_GRID, trials=8, seed=7),
    "hull_probe_contaminated": dict(experiment="hull_probe", grid_kind="n",
                                    grid=HULL_GRID, trials=8, seed=7,
                                    params={"contamination": 0.3}),
}

# name: (rows.csv sha256, summary.csv sha256)
GOLDEN = {
    "hull_probe": (
        "71d7f2dcb56b25c42ecb5e974e387dadbecba807c275122e88e1660fe22d1dde",
        "fc1cba0a51eb2e3d625cff21806ac895ffcc5ddcb055decd0a948105d799f5b4"),
    "hull_probe_contaminated": (
        "783681ebb350b7d39ec89b58e8b092afd7c3e8ada7b55ec93266494323a6391c",
        "9ccc029d8b29829f3d6ec09854c9ec83a4da98e80e0ae693b906082c822487b0"),
    "learn_curve": (
        "001aa5d75fe69d600427275b6b651a74f96f95b70e51233314ac4e837e6ac7bd",
        "70b0385f096acc4f4cb54d5cd82fac9bc9993ebef247851310adbe498c9a7ffd"),
    "lowerbound_audit": (
        "f89605485a38054cc337a651e39cabb7e93e6a17538c464ac32d462b0a3fdf80",
        "1a6b041c1d18249690e3c105def7f02d87464bddfaed8e8ad58367d256b21f43"),
    "scheme_roundtrip": (
        "82cb9de0485d8ae381cbaf97f202a75bee14339c4a766bcec22e30af3f3f041f",
        "31d1b41cb4198d38e6abf4eb49cce209904203b7c3774eacf975cbd6656b586e"),
}


def _digests(data: dict) -> tuple:
    cfg = ExperimentConfig.from_dict(data)
    rows = run_experiment(cfg, workers=1)
    summary, slope = summarize(rows, cfg.grid_kind)
    return (hashlib.sha256(rows_to_csv(rows).encode()).hexdigest(),
            hashlib.sha256(summary_to_csv(summary, slope).encode())
            .hexdigest())


@pytest.mark.parametrize("name", sorted(CASES))
def test_harness_defaults_golden(name):
    assert _digests(CASES[name]) == GOLDEN[name]

"""What importing the package loads: scipy, multiprocessing and
concurrent.futures wait for the functions that use them, and so do
scipy.optimize and scipy.special."""

import json
import os
import subprocess
import sys
from pathlib import Path

# pinned to one CPU, so the gd encode below runs in this process, not on
# the worker pool
SCRIPT = r"""
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import compresslearn as cl
from compresslearn.harness import run_manifest

rec = {"package": {name: name in sys.modules for name in
                   ("scipy", "multiprocessing", "concurrent.futures")}}
import scipy

def loaded():
    return {name: name in sys.modules
            for name in ("scipy.optimize", "scipy.special")}

rec["import"] = loaded()
cfg = cl.ExperimentConfig(experiment="hull_probe", grid_kind="n",
                          grid=(100,), trials=1, seed=0)
rec["manifest_scipy"] = run_manifest(cfg)["versions"]["scipy"]
rec["scipy"] = scipy.__version__
rec["import_and_manifest"] = loaded()

target = cl.Gaussian([0.0], [[1.0]])
cands = [cl.Gaussian([0.1], [[1.0]]), cl.Gaussian([0.0], [[2.0]])]
res = cl.select_candidate(cands, cl.sample(target, 500, 1), 0.1, seed=1)
rec["strategy"] = res.strategy
rec["select"] = loaded()

target = cl.Gaussian([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])
codec = cl.codec_for("gd", target)
samp = cl.sample(target, codec.m_samples(0.5), 2)
codec.encode(target, samp, 0.5)
rec["encode"] = loaded()
print(json.dumps(rec))
"""


def test_scipy_submodules_load_on_first_use():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    rec = json.loads(out.stdout.splitlines()[-1])
    assert rec["package"] == {"scipy": False, "multiprocessing": False,
                              "concurrent.futures": False}
    none = {"scipy.optimize": False, "scipy.special": False}
    assert rec["import"] == none
    assert rec["import_and_manifest"] == none
    assert rec["manifest_scipy"] == rec["scipy"]
    assert rec["strategy"] == "closed_form_1d"
    assert rec["select"] == {"scipy.optimize": False, "scipy.special": True}
    assert rec["encode"]["scipy.optimize"]

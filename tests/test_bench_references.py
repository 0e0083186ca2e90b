"""The benchmark's recorded outputs still hold: instance 0 of every part of
every workload in ``perfbench/bench_workloads.py`` gives the fingerprint
that ``perfbench/reference.json`` records for it."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", PERFBENCH / "bench_workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


W = _load_workloads()
REFERENCES = json.loads((PERFBENCH / "reference.json").read_text())
PARTS = [(name, k, part.label) for name in W.WORKLOADS
         for k, part in enumerate(W.build(name).parts)]


@pytest.mark.parametrize("name, k, label", PARTS,
                         ids=[label for *_, label in PARTS])
def test_instance_zero_matches_the_recorded_fingerprint(name, k, label):
    wl = W.build(name)
    part = wl.parts[k]
    codec = W.codecs(wl).get(label)
    result = W.run(part, codec, W.inputs(wl, part, codec, 0))
    assert W.fingerprint(part, result) == REFERENCES[name][f"{label}/0"]

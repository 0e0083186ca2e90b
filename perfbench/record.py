"""Record the reference outputs that ``run.py`` checks every operation against.

Run from the repository root at the commit whose behaviour is the
reference::

    python3 perfbench/record.py > /tmp/instances.txt

It runs every instance of every workload's pool once, writes
``perfbench/reference.json`` and prints one line per operation with its
time and TV, for sizing the pools.
"""

from __future__ import annotations

import json
import sys
import time

import run  # sets BLAS threads and the import path
import bench_workloads as W


def main() -> int:
    refs = {}
    for name in W.WORKLOADS:
        wl = W.build(name)
        cods = W.codecs(wl)
        refs[name] = {}
        for inst in range(wl.pool):
            for part in wl.parts:
                codec = cods.get(part.label)
                inp = W.inputs(wl, part, codec, inst)
                t0 = time.perf_counter()
                result = W.run(part, codec, inp)
                busy = time.perf_counter() - t0
                refs[name][f"{part.label}/{inst}"] = W.fingerprint(part, result)
                print(name, part.label, inst, f"{busy:.4f}",
                      W.finite_mean(W.tvs(part, result)), flush=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

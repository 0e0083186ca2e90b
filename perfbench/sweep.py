"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root::

    python3 perfbench/sweep.py --workloads learn_1d learn_2d roundtrip_gd3 \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 1 2 --out baseline.json

``--seeds`` runs are untraced (end-to-end metrics), ``--trace-seeds`` runs
traced (per-layer metrics).  For every workload and metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median (the spread that ``BENCHMARK.json``
bounds).  ``--out`` writes the same numbers, the environment and the raw
values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload, seed, seconds, trace) -> tuple:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return env, json.loads(lines[-1])


def _stats(wl, name, vals) -> dict:
    med = statistics.median(vals)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    print(f"{wl:14s} {name:45s} median {med:<12.6g} spread {spread:.4f}",
          flush=True)
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": vals}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int,
                   default=json.loads((RUN.parent.parent / "BENCHMARK.json")
                                      .read_text())["run_seconds"])
    p.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    report = {"seconds": args.seconds, "seeds": args.seeds,
              "trace_seeds": args.trace_seeds, "workloads": {}}
    for wl in args.workloads:
        entry = report["workloads"][wl] = {"failed": 0}
        for section, trace, seeds in (("end_to_end", 0, args.seeds),
                                      ("per_layer", 1, args.trace_seeds)):
            values = {}
            for seed in seeds:
                env, res = _run(wl, seed, args.seconds, trace)
                entry["failed"] += res["failed"]
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                env.pop("seed")
                entry["env"] = env
            entry[section] = {name: _stats(wl, name, vals)
                              for name, vals in values.items()}
        print(f"{wl:14s} failed {entry['failed']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

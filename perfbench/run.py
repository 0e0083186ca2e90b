"""End-to-end and per-layer benchmark of the compress-then-learn pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload learn_1d --seed 1 --seconds 35 --trace 0

Workloads (closed loop, one client, single process, delta 0.1):

``learn_1d``
    ``learn_from_compression`` for g1d (N(1.5, 4), eps 0.2, budget 300),
    g1d_robust (same target, eps 0.2, budget 120) and a 1-D two-component
    mixture (eps 0.2, budget 100).  Selection is the all-pairs holdout
    comparison, whose temporary buffer sets peak memory; the mixture part
    takes the ``grid_1d`` tournament path.
``learn_2d``
    ``learn_from_compression`` for gd at d=2 (eps 0.2, budget 100) and a
    2-D two-component mixture (eps 0.3, budget 60).  Selection goes through
    ``mc_pools``, where ``log_density`` does most of the work.
``roundtrip_gd3``
    ``run_experiment`` for ``scheme_roundtrip`` with gd at d=3, an eps grid
    of [0.1, 0.2], two trials per grid point and ``workers=1``: the encode
    side, dominated by ``nets.solve_hull_coefficients``.  It never runs the
    learners, and the learn workloads never encode.

With ``--trace 0`` the run prints the end-to-end metrics:

``setup_s``
    median over five fresh interpreters of the time from process start
    until the first operation is ready (imports, targets, codecs).
``ops_per_s``
    operations completed per second spent inside the program's calls; an
    operation is one learn, or one harness trial on ``roundtrip_gd3``.
    Input generation and output checks sit outside the timed calls.
``op_p50_ms``
    median latency of one operation (a trial's ``wall_ms`` on
    ``roundtrip_gd3``).
``peak_rss_mb``
    the process's resident-memory high-water mark.
``tv_mean``
    mean TV from each estimate (or decoded roundtrip) to its target over
    the first ``tv_rounds`` rounds, which every run completes, so it
    repeats exactly for a seed.  1-D uses quadrature, d > 1 a fixed-seed
    Monte Carlo estimate.
``ok_frac``
    operations whose output matched the reference, over operations
    attempted; ``1 - fail_frac``.  A check against ``reference.json`` that
    fails, or a call that raises, fails the operation without stopping the
    run.  Encode failures the scheme reports are part of the rows it
    checks, not failures.

With ``--trace 1`` the run spends half its time untraced, then replays the
same rounds with every layer wrapped (see ``bench_trace``) and prints the
per-layer metrics; ``trace.overhead_frac`` compares the two halves.

Deliberately unmeasured: ``lowerbound`` (its largest family builds in about
0.1 s and sits on no pipeline's hot path), the README-scale g1d run (budget
2000; it asks for 17.1 GiB at the parent commit) and ``workers > 1``
harness scaling.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread keeps the single-client loop steady; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

SETUP_PROBES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(name):
    """Imports, targets and codecs: everything before the first operation."""
    import bench_workloads as W

    wl = W.build(name)
    return W, wl, W.codecs(wl)


def _setup_seconds(name) -> float:
    """Median over fresh interpreters of start-to-ready time."""
    values = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--setup-probe"], capture_output=True, text=True, timeout=120,
            check=True)
        values.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(values)


def _loop(W, wl, cods, order, refs, *, seconds=None, rounds=None,
          min_rounds=1, tracer=None, score_rounds=0):
    """Closed loop over rounds; returns one record per operation."""
    from bench_trace import traced_codec

    if tracer is not None:
        cods = {k: traced_codec(tracer, c) for k, c in cods.items()}
    recs = []
    start = time.monotonic()
    r = 0
    while (r < rounds if rounds is not None else
           r < min_rounds or time.monotonic() - start < seconds):
        inst = order[r % len(order)]
        for part in wl.parts:
            codec = cods.get(part.label)
            inp = W.inputs(wl, part, codec, inst)
            rec = {"round": r, "part": part, "ok": False}
            recs.append(rec)
            root = ("harness.run_experiment" if part.kind == "roundtrip"
                    else "learners.learn_from_compression")
            try:
                t0 = time.perf_counter()
                if tracer is None:
                    result = W.run(part, codec, inp)
                else:
                    tracer.op = len(recs) - 1
                    try:
                        result = tracer.span(root, W.run, part, codec, inp)
                    finally:
                        tracer.op = None
                busy = time.perf_counter() - t0
            except Exception:  # a failed call is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                continue
            del inp
            got = W.fingerprint(part, result)
            want = refs.get(f"{part.label}/{inst}")
            rec.update(ok=got == want, busy=busy,
                       units=W.units(part, result),
                       lat=W.latencies_ms(part, result, busy))
            if not rec["ok"]:
                print(f"mismatch {part.label}/{inst}: got {got} want {want}",
                      file=sys.stderr)
            if r < score_rounds:
                rec["tvs"] = W.tvs(part, result)
            if part.kind == "learn":
                rec["learn"] = result
        r += 1
    return recs


def _rate(recs) -> float:
    done = [r for r in recs if "busy" in r]
    return sum(r["units"] for r in done) / sum(r["busy"] for r in done)


def _end_to_end(W, recs, setup_s) -> dict:
    lat = [x for r in recs if "lat" in r for x in r["lat"]]
    tv = [x for r in recs if "tvs" in r for x in r["tvs"]]
    failed = sum(not r["ok"] for r in recs)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (_rate(recs), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "tv_mean": (W.finite_mean(tv), "tv"),
        "ok_frac": (1.0 - failed / len(recs), "frac"),
    }


LAYERS = (
    "kernels.pairwise_greater_fraction", "learners.learn_from_compression",
    "learners.select_candidate", "gaussmodels.log_density",
    "gaussmodels.sample", "compression.decode", "compression.encode",
    "compression.random_payload", "nets.solve_hull_coefficients",
    "distances.tv_mc", "harness.run_experiment")
# layers whose spans contain other wrapped layers, so self time differs
PARENT_LAYERS = ("learners.learn_from_compression",
                 "learners.select_candidate", "compression.encode",
                 "distances.tv_mc", "harness.run_experiment")
STRATEGIES = ("closed_form_1d", "grid_1d", "mc_pools")
NOTES = {
    "kernels.pairwise_greater_fraction.cmp":
        "computed m*m*n from argument shapes; base trace.ops",
    "kernels.pairwise_greater_fraction.peak_mb":
        "tracemalloc peak of the largest call",
    "learners.messages": "decode calls inside learns; base trace.ops",
    "learners.candidates": "decoded messages; base learners.messages",
    "learners.dropped": "DecodingError drops; base learners.messages",
    "learners.decode_yield": "learners.candidates / learners.messages",
    "learners.n_holdout": "holdout points summed over learns",
    "compression.encode.ok_frac": "ok outcomes / compression.encode.calls",
    "harness.overhead_s": "run_experiment time minus trial wall_ms",
    "trace.overhead_frac": "untraced ops_per_s / traced ops_per_s - 1",
}


def _per_layer(tracer, traced, untraced) -> dict:
    times = tracer.layer_times()
    c = tracer.counts
    out = {}
    for name in LAYERS:
        total, self_s, calls = times.get(name, (0.0, 0.0, 0))
        out[f"{name}.s"] = (total, "s")
        if name in PARENT_LAYERS:
            out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.calls"] = (calls, "count")
    done = [r for r in traced if "busy" in r]
    learns = [r["learn"] for r in done if "learn" in r]
    trials = [r for r in done if r["part"].kind == "roundtrip"]
    learn_ops = {i for i, r in enumerate(traced) if r["part"].kind == "learn"}
    messages = sum(1 for s in tracer.spans
                   if s[0] == "compression.decode" and s[4] in learn_ops)
    candidates = sum(x.candidate_count for x in learns)
    encode_calls = out["compression.encode.calls"][0]
    out.update({
        "kernels.pairwise_greater_fraction.cmp": (
            c["kernels.pairwise_greater_fraction.cmp"], "count"),
        "kernels.pairwise_greater_fraction.peak_mb": (
            c["kernels.pairwise_greater_fraction.peak_mb"], "MB"),
        "learners.messages": (messages, "count"),
        "learners.candidates": (candidates, "count"),
        "learners.dropped": (messages - candidates, "count"),
        "learners.decode_yield": (
            candidates / messages if messages else 0.0, "frac"),
        "learners.n_holdout": (sum(x.selection.n_holdout for x in learns), "count"),
        "gaussmodels.log_density.points": (
            c["gaussmodels.log_density.points"], "count"),
        "gaussmodels.sample.points": (c["gaussmodels.sample.points"],
                                      "count"),
        "compression.decode.fail": (c["compression.decode.fail"], "count"),
        "compression.encode.ok_frac": (
            c["compression.encode.ok"] / encode_calls if encode_calls
            else 0.0, "frac"),
        "harness.trials": (sum(r["units"] for r in trials), "count"),
        "harness.overhead_s": (
            sum(r["busy"] - sum(r["lat"]) / 1000.0 for r in trials), "s"),
        "trace.ops": (sum(r["units"] for r in done), "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_frac": (_rate(untraced) / _rate(traced) - 1.0,
                                "frac"),
    })
    for name in STRATEGIES:
        out[f"learners.strategy.{name}"] = (
            sum(x.selection.strategy == name for x in learns), "count")
    return out


def _environment(seed, name) -> dict:
    import numpy
    import scipy

    from compresslearn import backend_name

    numba = importlib.util.find_spec("numba")
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": "present" if numba else "absent",
        "kernel_backend": backend_name(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        W, wl, cods = _setup(args.workload)
    except (ImportError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(time.monotonic())
        return 0
    refs = json.loads((HERE / "reference.json").read_text())[wl.name]
    order = W.instance_order(wl, args.seed)
    if args.trace:
        from bench_trace import Tracer, patched

        untraced = _loop(W, wl, cods, order, refs, seconds=args.seconds / 2)
        tracer = Tracer()
        with patched(tracer):
            traced = _loop(W, wl, cods, order, refs, tracer=tracer,
                           rounds=1 + untraced[-1]["round"])
        recs = untraced + traced
        metrics = _per_layer(tracer, traced, untraced)
    else:
        recs = _loop(W, wl, cods, order, refs, seconds=args.seconds,
                     min_rounds=wl.tv_rounds, score_rounds=wl.tv_rounds)
        metrics = _end_to_end(W, recs, _setup_seconds(wl.name))
    failed = sum(not r["ok"] for r in recs)
    print("env " + json.dumps(_environment(args.seed, wl.name),
                              sort_keys=True))
    for key, (value, unit) in metrics.items():
        note = f"  ({NOTES[key]})" if key in NOTES else ""
        print(f"{key} {value} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front ends.

Four console scripts map here: ``distances`` (divergence between two
distributions), ``learn`` (compression-based learning against a known
target), ``lowerbound`` (hard-family construction plus Fano report), and
``compresslearn run`` (the experiment harness).  Distribution arguments
accept inline JSON or a path to a JSON file.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from pathlib import Path

from .compression import SCHEME_CHOICES, codec_for
from .distances import kl_gaussians, tv_estimate, tv_frobenius_proxy, tv_mc
from .errors import CompressLearnError, ValidationError
from .gaussmodels import Gaussian, dist_from_json, dist_to_json, sample
from .harness import ExperimentConfig, run_experiment, write_outputs
from .learners import compression_sample_size, learn_from_compression
from .lowerbound import (FanoInputs, fano_error_bound, fano_sample_lower,
                         kl_pair, kl_upper_bound, make_lb_family,
                         tv_pair_lower, tv_separation)
from .utils import as_generator


# each main prints these in one line and exits 2
_INPUT_ERRORS = (CompressLearnError, json.JSONDecodeError, UnicodeDecodeError,
                 OSError, RecursionError, MemoryError)


def _load_json_arg(text: str) -> dict:
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    return json.loads(Path(text).read_text())


def _emit(record: dict, out: str | None) -> None:
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)


def _tv_record(p, q, n_mc: int, seed) -> dict:
    est = tv_estimate(p, q, n_mc, seed)
    return {"value": est.value, "std_error": est.std_error,
            "method": est.method}


def distances_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="distances",
        description="Divergence between two distributions (JSON in, JSON out).")
    parser.add_argument("--p", required=True, help="distribution JSON or path")
    parser.add_argument("--q", required=True, help="distribution JSON or path")
    parser.add_argument("--metric", required=True,
                        choices=("kl", "tv", "proxy"))
    parser.add_argument("--n-mc", type=int, default=200000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        p = dist_from_json(_load_json_arg(args.p))
        q = dist_from_json(_load_json_arg(args.q))
        if args.metric == "kl":
            if not (isinstance(p, Gaussian) and isinstance(q, Gaussian)):
                raise ValidationError(
                    "closed-form kl needs two Gaussians; use --metric tv")
            record = {"value": kl_gaussians(p, q), "std_error": 0.0,
                      "method": "closed_form"}
        elif args.metric == "proxy":
            if not (isinstance(p, Gaussian) and isinstance(q, Gaussian)):
                raise ValidationError("the frobenius proxy needs two Gaussians")
            record = {"value": tv_frobenius_proxy(p, q), "std_error": 0.0,
                      "method": "frobenius_proxy"}
        else:
            record = _tv_record(p, q, args.n_mc, args.seed)
    except _INPUT_ERRORS as exc:
        print(f"distances: {exc}", file=sys.stderr)
        return 2
    _emit(record, None)
    return 0


def learn_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="learn",
        description="Learn a known target through the compression reduction.")
    parser.add_argument("--target", required=True,
                        help="distribution JSON or path")
    parser.add_argument("--scheme", required=True, choices=SCHEME_CHOICES)
    parser.add_argument("--eps", type=float, required=True)
    parser.add_argument("--delta", type=float, required=True)
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="result JSON path (stdout when omitted)")
    parser.add_argument("--n-mc", type=int, default=20000,
                        help="draws for the tv_to_target estimate in d > 1")
    args = parser.parse_args(argv)
    try:
        target = dist_from_json(_load_json_arg(args.target))
        codec = codec_for(args.scheme, target)
        n = compression_sample_size(codec, args.eps, args.delta, args.budget)
        rng = as_generator(args.seed)
        samp = sample(target, n, rng)
        result = learn_from_compression(codec, samp, args.eps, args.delta,
                                        args.budget, rng)
        tv = _tv_record(target, result.estimate, args.n_mc, rng)
        record = {
            "scheme": codec.name,
            "eps": args.eps,
            "delta": args.delta,
            "budget": args.budget,
            "seed": args.seed,
            "sample_size": n,
            "estimate": dist_to_json(result.estimate),
            "tv_to_target": tv["value"],
            "tv_method": tv["method"],
            "candidate_count": result.candidate_count,
            # exact digits past the interpreter's int-to-str limit
            "candidate_space": str(decimal.Decimal(result.candidate_space)),
            "budget_capped": result.budget_capped,
            "enumeration": ("sampled" if result.budget_capped
                            else "exhaustive"),
            "selection": {
                "index": result.selection.index,
                "n_holdout": result.selection.n_holdout,
                "strategy": result.selection.strategy,
            },
        }
        _emit(record, args.out)
    except _INPUT_ERRORS as exc:
        print(f"learn: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def _matrix_csv(size: int, entry) -> str:
    lines = []
    for a in range(size):
        lines.append(",".join(repr(float(entry(a, b)))
                              for b in range(size)))
    return "\n".join(lines) + "\n"


def lowerbound_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lowerbound",
        description="Construct a hard Gaussian family and report Fano bounds.")
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--eps", type=float, required=True)
    parser.add_argument("--M", type=int, required=True, dest="m_family")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="family JSON path")
    parser.add_argument("--c-lambda", type=float, default=1.0)
    parser.add_argument("--tv-mc-pairs", type=int, default=3,
                        help="pairs to spot-check with Monte Carlo TV")
    parser.add_argument("--n-mc", type=int, default=50000)
    args = parser.parse_args(argv)
    try:
        fam = make_lb_family(args.d, args.r, args.eps, args.m_family,
                             args.seed, c_lambda=args.c_lambda)
        out = Path(args.out)
        stem = out.parent / out.stem
        family_doc = {
            "schema": "compresslearn-lb-family-v1",
            "d": fam.d, "r": fam.r, "lam": fam.lam,
            "eps": args.eps, "seed": args.seed, "size": fam.size,
            "subspaces": [u.tolist() for u in fam.us],
            "covariances": [s.tolist() for s in fam.sigmas],
        }
        out.write_text(json.dumps(family_doc, sort_keys=True) + "\n")
        kl_path = Path(f"{stem}.kl.csv")
        fr_path = Path(f"{stem}.frobenius.csv")
        kl_path.write_text(_matrix_csv(fam.size, lambda a, b: kl_pair(fam, a, b)))
        fr_path.write_text(_matrix_csv(
            fam.size,
            lambda a, b: 0.0 if a == b else tv_pair_lower(fam, a, b)))

        # Monte Carlo spot checks fit the constant linking actual TV to the
        # Frobenius certificate; reported for calibration, never asserted.
        rng = as_generator(args.seed)
        pairs = [(a, b) for a in range(fam.size)
                 for b in range(a + 1, fam.size)][:max(0, args.tv_mc_pairs)]
        fits = []
        for a, b in pairs:
            est = tv_mc(fam.gaussian(a), fam.gaussian(b), args.n_mc, rng)
            lower = tv_pair_lower(fam, a, b)
            fits.append({"pair": [a, b], "tv_mc": est.value,
                         "std_error": est.std_error,
                         "frobenius_lower": lower,
                         "ratio": est.value / lower})
        kappa = kl_upper_bound(fam)
        fano = {
            "schema": "compresslearn-lb-fano-v1",
            "m_family": fam.size,
            "kl_upper_bound": kappa,
            "tv_separation": tv_separation(fam),
            "fano_error_bound_at_n": {
                str(n): fano_error_bound(
                    FanoInputs(fam.size, kappa, 1.0, n))
                for n in (0, 10, 100, 1000)
            },
            "fano_sample_lower": fano_sample_lower(fam.size, kappa, args.eps)
            if 0.0 < args.eps < 0.5 else None,
            "tv_mc_fits": fits,
            "fitted_c": (sum(f["ratio"] for f in fits) / len(fits))
            if fits else None,
        }
        fano_path = Path(f"{stem}.fano.json")
        fano_path.write_text(json.dumps(fano, indent=2, sort_keys=True) + "\n")
    except _INPUT_ERRORS as exc:
        print(f"lowerbound: {exc}", file=sys.stderr)
        return 2
    for path in (out, kl_path, fr_path, fano_path):
        print(f"wrote {path}")
    return 0


def compresslearn_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compresslearn", description="Seeded experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a config and write CSV outputs")
    run_p.add_argument("--config", required=True, help="config JSON path")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_dict(
            json.loads(Path(args.config).read_text()))
        rows = run_experiment(cfg, workers=args.workers)
        paths = write_outputs(cfg, rows, args.out)
    except _INPUT_ERRORS as exc:
        print(f"compresslearn: {exc}", file=sys.stderr)
        return 2
    for path in paths.values():
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(compresslearn_main())

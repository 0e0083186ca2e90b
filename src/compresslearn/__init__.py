"""Sample-compression density estimation for Gaussians and mixtures.

The package splits into model/distance infrastructure (``gaussmodels``,
``distances``, ``nets``), the compression schemes and their combinators
(``compression``), the reduction from compression to learning and the
direct learners (``learners``), the minimax hard-family construction
(``lowerbound``), and the seeded experiment harness (``harness``).
"""

__version__ = "0.1.0"

from ._kernels import backend_name
from .compression import (Codec, CompressionMessage, EncodeOutcome,
                          SCHEME_CHOICES, codec_for, compose_mixture,
                          compose_product, g1d_codec, g1d_robust_codec,
                          gd_codec)
from .distances import (TvEstimate, degenerate_pair_divergences, kl_gaussians,
                        logdet_divergence, pinsker_check, tv_1d,
                        tv_frobenius_proxy, tv_mc)
from .errors import (CompressLearnError, DecodingError,
                     DimensionMismatchError, MessageSizeError,
                     SingularCovarianceError, ValidationError,
                     WorkerPoolError)
from .gaussmodels import (Gaussian, LabeledSample, Mixture, density,
                          dist_dumps, dist_from_json, dist_loads,
                          dist_to_json, log_densities, log_density,
                          sample)
from .harness import (ExperimentConfig, ExperimentRow, derive_seed,
                      run_experiment, summarize, write_outputs)
from .learners import (LearnResult, SelectionResult,
                       compression_sample_size, efficient_sample_size,
                       holdout_size, learn_from_compression,
                       learn_gaussian_efficient, select_candidate)
from .lowerbound import (Codebook, FanoInputs, LowerBoundFamily,
                         fano_error_bound, fano_sample_lower, kl_pair,
                         kl_upper_bound, make_codebook, make_lb_family,
                         make_mixture_lb_family, mixture_mean_separation,
                         random_orthonormal, tv_pair_lower, tv_separation,
                         verify_codebook)
from .nets import hull_contains_ball

__all__ = [
    "Codebook",
    "Codec",
    "CompressLearnError",
    "CompressionMessage",
    "DecodingError",
    "DimensionMismatchError",
    "EncodeOutcome",
    "ExperimentConfig",
    "ExperimentRow",
    "FanoInputs",
    "Gaussian",
    "LabeledSample",
    "LearnResult",
    "LowerBoundFamily",
    "MessageSizeError",
    "Mixture",
    "SCHEME_CHOICES",
    "SelectionResult",
    "SingularCovarianceError",
    "TvEstimate",
    "ValidationError",
    "WorkerPoolError",
    "backend_name",
    "codec_for",
    "compose_mixture",
    "compose_product",
    "compression_sample_size",
    "degenerate_pair_divergences",
    "density",
    "derive_seed",
    "dist_dumps",
    "dist_from_json",
    "dist_loads",
    "dist_to_json",
    "efficient_sample_size",
    "fano_error_bound",
    "fano_sample_lower",
    "g1d_codec",
    "g1d_robust_codec",
    "gd_codec",
    "holdout_size",
    "hull_contains_ball",
    "kl_gaussians",
    "kl_pair",
    "kl_upper_bound",
    "learn_from_compression",
    "learn_gaussian_efficient",
    "log_densities",
    "log_density",
    "logdet_divergence",
    "make_codebook",
    "make_lb_family",
    "make_mixture_lb_family",
    "mixture_mean_separation",
    "pinsker_check",
    "random_orthonormal",
    "run_experiment",
    "sample",
    "select_candidate",
    "summarize",
    "tv_1d",
    "tv_frobenius_proxy",
    "tv_mc",
    "tv_pair_lower",
    "tv_separation",
    "verify_codebook",
    "write_outputs",
]

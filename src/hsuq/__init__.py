"""Horseshoe shrinkage uncertainty quantification for the normal means model.

Modules cover the kernel special functions, the exact per-coordinate
posterior, global-scale estimation, credible intervals and balls, the
hierarchical Gibbs sampler, model selection, and a simulation CLI.
"""

from .credible import (
    CredibleBall,
    RegionLabel,
    ball_radius,
    classify_regions,
    classify_regions_adaptive,
    covers,
    credible_ball,
    excessive_bias_diagnostic,
    interval_batch,
    region_blowups,
    self_similar_check,
)
from .hierarchical import (
    Chain,
    HyperPrior,
    hb_ball,
    hb_marginal_intervals,
    run_chain,
    verify_hyperprior,
)
from .kernels import (
    GlobalScale,
    KernelOrder,
    SparsityRate,
    integral_Ik,
    log_integral_Ik,
    log_marginal_lik,
    marginal_density,
    posterior_mean,
    posterior_variance,
    score_m,
    zeta,
)
from .posterior import PosteriorBatch
from .selection import (
    discovery_report,
    select_by_interval,
    select_by_threshold,
    shrinkage_weight,
)
from .tau import TauEstimate, fixed_tau, mmle, simple_estimator
from .experiments import ScenarioConfig, cli_main, run_scenario, verify_theory

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "CredibleBall",
    "GlobalScale",
    "HyperPrior",
    "KernelOrder",
    "PosteriorBatch",
    "RegionLabel",
    "ScenarioConfig",
    "SparsityRate",
    "TauEstimate",
    "ball_radius",
    "classify_regions",
    "classify_regions_adaptive",
    "cli_main",
    "covers",
    "credible_ball",
    "discovery_report",
    "excessive_bias_diagnostic",
    "fixed_tau",
    "hb_ball",
    "hb_marginal_intervals",
    "integral_Ik",
    "interval_batch",
    "log_integral_Ik",
    "log_marginal_lik",
    "marginal_density",
    "mmle",
    "posterior_mean",
    "posterior_variance",
    "region_blowups",
    "run_chain",
    "run_scenario",
    "score_m",
    "select_by_interval",
    "select_by_threshold",
    "self_similar_check",
    "shrinkage_weight",
    "simple_estimator",
    "verify_hyperprior",
    "verify_theory",
    "zeta",
]

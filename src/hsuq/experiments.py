"""Replication harness, theory checks, and the command line interface.

Scenarios draw sparse mean vectors, run the interval methods over
independent replications, and aggregate coverage, interval length, tau,
and discovery metrics into one tidy report. Every replication is seeded
from (scenario seed, replication index), so runs are reproducible
end to end; serialized reports exclude wall-clock runtimes so output
files are byte-identical across runs with the same seed.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .credible import (
    CredibleBall,
    RegionLabel,
    _check_draws,
    _intervals,
    ball_radius,
    classify_regions_adaptive,
    covers,
    credible_ball,
    interval_batch,
    region_blowups,
)
from .hierarchical import HyperPrior, hb_ball, hb_marginal_intervals, run_chain
from .kernels import (
    KERNEL_ORDERS,
    SCORE_UPPER_BOUND,
    GlobalScale,
    SparsityRate,
    _check_level,
    expansion_Hk,
    integral_Ik,
    marginal_density,
    posterior_mean,
    posterior_variance,
    score_m,
    zeta,
)
from .posterior import PosteriorBatch
from .selection import discovery_report, select_by_interval, select_by_threshold
from .tau import mmle, simple_estimator

__all__ = [
    "UnboundedScale",
    "FixedValue",
    "NormalAround",
    "ThreeGroup",
    "FromDistribution",
    "ScenarioConfig",
    "MethodResult",
    "RepReport",
    "RunReport",
    "CheckResult",
    "generate",
    "run_method",
    "aggregate",
    "run_scenario",
    "report_to_csv",
    "report_to_json",
    "parse_config",
    "build_scenario",
    "verify_theory",
    "THEORY_CHECKS",
    "cli_main",
]

HB_METHODS = {
    "hb-cauchy": HyperPrior.half_cauchy,
    "hb-tcauchy": HyperPrior.truncated_half_cauchy,
    "hb-tuniform": HyperPrior.truncated_uniform,
}
# EB method -> source of its plug-in scale; fixed:<tau> names its own
EB_METHODS = {"eb-mmle": "mmle", "eb-simple": "simple", "normal-approx": "mmle"}


@dataclass(frozen=True)
class UnboundedScale:
    """Scale estimate that may exceed one (full-Bayes posterior means
    under the untruncated hyperprior can land there).
    """

    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.tau}")


@dataclass(frozen=True)
class FixedValue:
    A: float

    @property
    def label(self):
        return f"fixed:{self.A:g}"

    def draw(self, rng, n, p):
        return self.A


@dataclass(frozen=True)
class NormalAround:
    A: float
    sd: float = 1.0

    @property
    def label(self):
        return f"normal:{self.A:g}:{self.sd:g}"

    def draw(self, rng, n, p):
        return rng.normal(self.A, self.sd, p)


@dataclass(frozen=True)
class ThreeGroup:
    """Signals split into small (1/n), medium, and large groups."""

    counts: tuple

    @property
    def label(self):
        return "three_group:" + ",".join(str(c) for c in self.counts)

    def values(self, n, p):
        return (1.0 / n, 0.5 * zeta(SparsityRate(n, p).tau_n), 1.5 * zeta(1.0 / n))

    def draw(self, rng, n, p):
        return np.repeat(self.values(n, p), self.counts)


@dataclass(frozen=True)
class FromDistribution:
    name: str

    # name -> draw of p signals
    DRAWS = {
        "laplace": lambda rng, p: rng.laplace(0.0, 3.0, p),
        "gamma": lambda rng, p: rng.gamma(2.0, 2.0, p),
        "cauchy": lambda rng, p: 5.0 * rng.standard_cauchy(p),
    }

    def __post_init__(self):
        if self.name not in self.DRAWS:
            raise ValueError(f"unknown signal distribution {self.name!r}")

    @property
    def label(self):
        return self.name

    def draw(self, rng, n, p):
        return self.DRAWS[self.name](rng, p)


def _eb_source(method):
    """Scale source of an EB method: "mmle", "simple", or the tau of fixed:<tau>."""
    source = EB_METHODS.get(method) or method.startswith("fixed:") and method[6:]
    if not source:
        raise ValueError(f"unknown method {method!r}")
    if method not in EB_METHODS:
        try:
            GlobalScale(float(source))
        except ValueError as exc:
            raise ValueError(f"method {method!r}: {exc}") from None
    return source


def _scale(Y, source, fit=None):
    """Global scale from a source name; ``fit`` is the MMLE of Y when already fitted."""
    if source == "mmle":
        return fit or mmle(Y).value
    if source == "simple":
        return simple_estimator(Y).value
    return GlobalScale(float(source))


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    p: int
    signal: object
    reps: int
    seed: int
    alpha: float = 0.05
    blowup_L: float = 1.0
    methods: tuple = ("eb-mmle",)
    name: str = "scenario"
    threshold: bool = False
    hb_iters: int = 3000
    hb_burn_in: int = 500
    ball: bool = False
    ball_draws: int = 2000

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not 0 <= self.p <= self.n:
            raise ValueError(f"need 0 <= p <= n, got p={self.p}, n={self.n}")
        if self.reps < 1:
            raise ValueError(f"need reps >= 1, got {self.reps}")
        _check_level(self.alpha, self.blowup_L)
        if not re.fullmatch(r"[A-Za-z0-9_-]+", self.name):
            raise ValueError(f"scenario name must be alphanumeric, got {self.name!r}")
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in HB_METHODS:
                _eb_source(m)
        if any(m in HB_METHODS for m in self.methods):
            if self.hb_burn_in < 0:
                raise ValueError(f"hb_burn_in must be >= 0, got {self.hb_burn_in}")
            if self.hb_iters < 100:
                raise ValueError(f"hb_iters (kept draws) must be >= 100, got {self.hb_iters}")
        if self.ball and not set(self.methods) <= HB_METHODS.keys():
            try:
                _check_draws(self.ball_draws)
            except ValueError as exc:
                raise ValueError(f"ball_draws: {exc}") from None
        if not isinstance(self.signal, (FixedValue, NormalAround, ThreeGroup,
                                        FromDistribution)):
            raise ValueError(f"unrecognized signal spec {self.signal!r}")
        if isinstance(self.signal, ThreeGroup):
            if sum(self.signal.counts) != self.p:
                raise ValueError(
                    f"three_group counts {self.signal.counts} must sum to p={self.p}"
                )
            if self.p == self.n:
                raise ValueError(f"signal {self.signal.label} needs p < n: its medium "
                                 "group sits at zeta(tau_n)/2, and tau_n = 0 at p = n")


def generate(config, rep_index):
    """Draw (Y, theta0) for one replication, deterministic in
    (config.seed, rep_index).
    """
    rng = np.random.default_rng([config.seed, rep_index])
    theta = np.zeros(config.n)
    if config.p > 0:
        theta[:config.p] = config.signal.draw(rng, config.n, config.p)
    return theta + rng.standard_normal(config.n), theta


@dataclass(frozen=True)
class MethodResult:
    method: str
    intervals: np.recarray
    tau: object
    ball: CredibleBall | None = None


def run_method(Y, method, alpha, L=1.0, seed=0, hb_iters=3000, hb_burn_in=500,
               want_ball=False, ball_draws=2000, *, _mmle=None):
    """Run one interval method on one data vector.

    EB methods plug an estimated (or fixed) scale into the exact
    marginal posteriors; the normal approximation keeps the exact
    posterior mean and variance but uses a Gaussian quantile; HB methods
    summarize a Gibbs chain. ``_mmle`` is the MMLE of Y when already fitted.
    """
    _check_level(alpha, L)
    Y = np.asarray(Y, dtype=float)
    if method in HB_METHODS:
        chain = run_chain(Y, HB_METHODS[method](), iters=hb_iters + hb_burn_in,
                          burn_in=hb_burn_in, seed=seed)
        intervals = hb_marginal_intervals(chain, alpha, L=L)
        tau_bar = float(chain.taus.mean())
        scale = UnboundedScale(tau_bar) if method == "hb-cauchy" else GlobalScale(tau_bar)
        ball = hb_ball(chain, alpha, L=L) if want_ball else None
        return MethodResult(method=method, intervals=intervals, tau=scale, ball=ball)
    tau = _scale(Y, _eb_source(method), _mmle)
    if method == "normal-approx":
        z = 1.96 if alpha == 0.05 else float(ndtri(1.0 - alpha / 2.0))
        intervals = _intervals(posterior_mean(Y, tau.tau),
                               L * z * np.sqrt(posterior_variance(Y, tau.tau)))
    else:
        intervals = interval_batch(Y, tau, alpha, L=L)
    ball = None
    if want_ball:
        rng = np.random.default_rng([seed, 104729])
        ball = credible_ball(Y, tau, alpha, L, ball_draws, rng)
    return MethodResult(method=method, intervals=intervals, tau=tau, ball=ball)


@dataclass(frozen=True)
class RepReport:
    """Metrics of one method on one replication. None marks a metric the
    row lacks (no intervals, no ball) or whose denominator was empty.
    """

    method: str
    coverage_all: float | None
    coverage_nonzero: float | None
    coverage_zero: float | None
    length_all: float | None
    length_nonzero: float | None
    length_zero: float | None
    tau: float
    fdr: float
    detect_hits: dict = field(default_factory=dict)
    detect_totals: dict = field(default_factory=dict)
    runtime_s: float = 0.0
    ball_radius: float | None = None
    ball_covers: bool | None = None


def _report(method, sel, theta0, regions, tau, runtime_s, intervals=None, ball=None):
    """Score one selection (and the intervals and ball behind it) against the truth."""
    nonzero = theta0 != 0.0

    def _means(x):
        # over all, nonzero, and zero coordinates
        return (float(x.mean()), *(float(np.mean(x[mask])) if mask.any() else None
                                   for mask in (nonzero, ~nonzero)))

    coverage = length = (None, None, None)
    if intervals is not None:
        coverage = _means(covers(intervals, theta0))
        length = _means(2.0 * intervals.half_width)
    rep = discovery_report(sel, theta0, regions)
    totals = {lab.value: 0 for lab in RegionLabel}
    for i in np.flatnonzero(nonzero):
        totals[regions[i].value] += 1
    return RepReport(
        method, *coverage, *length, tau=float(tau), fdr=rep.fdr,
        detect_hits={lab.value: int(c) for lab, c in rep.true_discoveries.items()},
        detect_totals=totals, runtime_s=runtime_s,
        ball_radius=None if ball is None else float(ball.radius),
        ball_covers=None if ball is None else bool(ball.contains(theta0)),
    )


def _run_one_rep(config, rep_index):
    Y, theta0 = generate(config, rep_index)
    n, p = config.n, config.p
    regions = (classify_regions_adaptive(theta0, n, p) if 0 < p < n
               else [RegionLabel.UNCLASSIFIED] * n)
    reports = []
    fit = None
    if config.threshold or "mmle" in (EB_METHODS.get(m) for m in config.methods):
        fit = mmle(Y).value
    for mi, method in enumerate(config.methods):
        hb_seed = int(np.random.SeedSequence([config.seed, rep_index, 1000 + mi]).generate_state(1)[0])
        start = time.perf_counter()
        res = run_method(
            Y, method, config.alpha, L=config.blowup_L, seed=hb_seed,
            hb_iters=config.hb_iters, hb_burn_in=config.hb_burn_in,
            want_ball=config.ball, ball_draws=config.ball_draws, _mmle=fit,
        )
        elapsed = time.perf_counter() - start
        sel = select_by_interval(res.intervals, method="hb" if method in HB_METHODS else "eb")
        reports.append(_report(method, sel, theta0, regions, res.tau.tau, elapsed,
                               intervals=res.intervals, ball=res.ball))
    if config.threshold:
        start = time.perf_counter()
        sel = select_by_threshold(Y, fit)
        reports.append(_report("threshold", sel, theta0, regions, fit.tau,
                               time.perf_counter() - start))
    return reports


def _fsum_mean(values):
    vals = [v for v in values if v is not None]
    return math.fsum(vals) / len(vals) if vals else None


# report metric -> RepReport field it averages, in report order
_METRICS = (
    ("coverage_all", "coverage_all"), ("coverage_nonzero", "coverage_nonzero"),
    ("coverage_zero", "coverage_zero"), ("length_all", "length_all"),
    ("length_nonzero", "length_nonzero"), ("length_zero", "length_zero"),
    ("mean_tau", "tau"), ("fdr", "fdr"), ("runtime_s", "runtime_s"),
    ("ball_coverage", "ball_covers"), ("ball_radius", "ball_radius"),
)
# detection-rate metric -> region labels pooled into it
_DETECT = {"small": ("small",), "medium": ("medium",), "large": ("large",),
           "unclassified": ("unclassified",), "small_medium": ("small", "medium")}


def aggregate(reports):
    """Average per-replication reports into {method: {metric: value}}.

    Means use exact summation, so the result is identical under any
    permutation of the replications. Metrics whose denominator was empty
    in every replication are dropped.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to aggregate")
    out = {}
    for method in dict.fromkeys(r.method for r in reports):
        rs = [r for r in reports if r.method == method]
        m = {metric: _fsum_mean(getattr(r, name) for r in rs) for metric, name in _METRICS}
        for label, pooled in _DETECT.items():
            m[f"detect_{label}"] = _fsum_mean(
                sum(r.detect_hits[k] for k in pooled) / total for r in rs
                if (total := sum(r.detect_totals.get(k, 0) for k in pooled)) > 0
            )
        out[method] = {k: v for k, v in m.items() if v is not None}
    return out


@dataclass(frozen=True)
class RunReport:
    scenario: dict
    metrics: dict


def run_scenario(config):
    """Run all replications and methods; returns the aggregated report.

    HSUQ_THREADS, an integer >= 1 (default 1), above 1 runs replications in
    a process pool; results are reduced in replication order either way. A
    credible ball adds a thread pool of its own inside each replication.
    """
    raw = os.environ.get("HSUQ_THREADS", "1")
    if not raw.strip().isdecimal() or (workers := int(raw)) < 1:
        raise ValueError(f"HSUQ_THREADS must be an integer >= 1, got {raw!r}")
    per_rep = []
    if workers > 1 and config.reps > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=min(workers, config.reps)) as pool:
            for reports in pool.map(_run_one_rep, [config] * config.reps,
                                    range(config.reps)):
                per_rep.extend(reports)
    else:
        for r in range(config.reps):
            per_rep.extend(_run_one_rep(config, r))
    scenario = {
        "name": config.name,
        "n": config.n,
        "p": config.p,
        "signal": config.signal.label,
        "reps": config.reps,
        "seed": config.seed,
        "alpha": config.alpha,
        "L": config.blowup_L,
        "methods": list(config.methods),
    }
    if config.signal == FromDistribution("gamma"):
        scenario["note"] = "gamma signals drawn positive, not sign-symmetrized"
    return RunReport(scenario=scenario, metrics=aggregate(per_rep))


def _file_metrics(metrics):
    """(metric, text) pairs written to files: sorted, runtimes excluded, 12 digits."""
    return [(k, f"{v:.12g}") for k, v in sorted(metrics.items()) if k != "runtime_s"]


def report_to_csv(report):
    """Tidy rows (scenario, method, metric, value), runtimes excluded."""
    buf = io.StringIO()
    if "note" in report.scenario:
        buf.write(f"# {report.scenario['note']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "method", "metric", "value"])
    name = report.scenario["name"]
    for method in sorted(report.metrics):
        for metric, text in _file_metrics(report.metrics[method]):
            writer.writerow([name, method, metric, text])
    return buf.getvalue()


def report_to_json(report):
    metrics = {
        method: {metric: float(text) for metric, text in _file_metrics(md)}
        for method, md in report.metrics.items()
    }
    payload = {"scenario": report.scenario, "metrics": metrics}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_config(text):
    """Parse flat `key = value` lines; # starts a comment."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def _parse_signal(text):
    text = text.strip().lower()
    if text in FromDistribution.DRAWS:
        return FromDistribution(text)
    if text.startswith("fixed:"):
        return FixedValue(float(text.split(":", 1)[1]))
    if text.startswith("normal:"):
        parts = text.split(":")[1:]
        if len(parts) > 2:
            raise ValueError(f"normal signal takes A[:sd], got {text!r}")
        return NormalAround(*(float(x) for x in parts))
    if text.startswith("three_group:"):
        counts = tuple(int(c) for c in text.split(":", 1)[1].split(","))
        if len(counts) != 3 or any(c < 0 for c in counts):
            raise ValueError(f"three_group needs three nonnegative counts, got {text!r}")
        return ThreeGroup(counts)
    raise ValueError(f"unrecognized signal spec {text!r}")


def _parse_bool(value):
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# config key -> (ScenarioConfig field, parser of the value text)
_CONFIG_FIELDS = {
    "n": ("n", int),
    "p": ("p", int),
    "signal": ("signal", _parse_signal),
    "reps": ("reps", int),
    "seed": ("seed", int),
    "alpha": ("alpha", float),
    "l": ("blowup_L", float),
    "methods": ("methods", lambda text: tuple(m.strip() for m in text.split(",") if m.strip())),
    "name": ("name", str),
    "threshold": ("threshold", _parse_bool),
    "hb_iters": ("hb_iters", int),
    "hb_burn_in": ("hb_burn_in", int),
    "ball": ("ball", _parse_bool),
    "ball_draws": ("ball_draws", int),
}


def build_scenario(raw):
    """Turn parsed config keys into a ScenarioConfig; absent keys keep its defaults."""
    missing = {"n", "p", "signal", "reps", "seed"} - raw.keys()
    if missing:
        raise ValueError(f"config missing required keys: {sorted(missing)}")
    return ScenarioConfig(**{
        name: parse(raw[key]) for key, (name, parse) in _CONFIG_FIELDS.items() if key in raw
    })


# ---------------------------------------------------------------------------
# theory checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: dict
    notes: str = ""


def _check_kernel_identity():
    from scipy.integrate import quad

    taus = [0.01, 0.05, 0.2, 0.9]
    ys = np.linspace(0.25, 10.25, 41)
    worst = 0.0
    for t in taus:
        for k in KERNEL_ORDERS[:-1]:
            for y in ys:
                h = 1e-5 * (1.0 + y)
                deriv = (integral_Ik(y + h, t, k) - integral_Ik(y - h, t, k)) / (2.0 * h)
                target = y * integral_Ik(y, t, k + 1.0)
                worst = max(worst, abs(deriv / target - 1.0))
    norm_defect = 0.0
    for t in taus:
        total = quad(lambda y: marginal_density(y, t), -np.inf, np.inf, limit=200)[0]
        norm_defect = max(norm_defect, abs(total - 1.0))
    return (worst <= 1e-5 and norm_defect <= 1e-8,
            {"max_rel_error": worst, "max_norm_defect": norm_defect})


def _brute_posterior_moments(y, t):
    # direct 2-D quadrature over (theta, lambda) with lambda = tan(psi);
    # the likelihood carries exp(y^2/2) so the inner slices stay O(1).
    # For tiny lambda the theta slice is a needle of width lambda*t, so
    # the inner range has to track the slice, not the full axis.
    from scipy.integrate import IntegrationWarning, quad

    def moment(power):
        def slice_integral(psi):
            lam = math.tan(psi)
            s2 = lam * lam * t * t
            if s2 <= 0.0 or not math.isfinite(s2):
                return 0.0
            w = s2 / (1.0 + s2)
            center, sd = w * y, math.sqrt(w)

            def f(th):
                return (
                    math.exp(y * th - 0.5 * th * th - 0.5 * th * th / s2)
                    / math.sqrt(s2) * th ** power
                )

            val, _ = quad(f, center - 12.0 * sd, center + 12.0 * sd,
                          epsabs=0.0, epsrel=1e-12, limit=100)
            return val

        # the inner tolerance brushes against double roundoff by design
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(slice_integral, 0.0, math.pi / 2.0,
                          epsabs=0.0, epsrel=1e-11, limit=400)
        return val

    z0 = moment(0)
    m1 = moment(1) / z0
    m2 = moment(2) / z0
    return m1, m2 - m1 * m1


def _check_oracle_moments():
    ys = [0.0, 0.8, 2.0, 4.0, 6.0]
    taus = [0.02, 0.05, 0.1, 0.3, 0.7]
    worst = 0.0
    for y in ys:
        for t in taus:
            om, ov = _brute_posterior_moments(y, t)
            worst = max(worst, abs(float(posterior_mean(y, t)) - om),
                        abs(float(posterior_variance(y, t)) - ov))
    post = PosteriorBatch([3.0], GlobalScale(0.1))
    draws = post.draw_matrix(10_000_000, np.random.default_rng(2024))
    worst_z = 0.0
    for t in (-0.5, 0.2, 0.8, 1.5, 2.6):
        F = float(post.cdf_rows(t)[0])
        emp = float(np.mean(draws <= t))
        se = math.sqrt(F * (1.0 - F) / draws.size)
        worst_z = max(worst_z, abs(emp - F) / se)
    return (worst <= 1e-6 and worst_z <= 4.0,
            {"max_moment_error": worst, "max_cdf_zscore": worst_z})


def _check_score_bounds(tau):
    ys = np.linspace(0.0, 30.0, 301)
    taus = np.geomspace(1e-6, 1.0, 41)
    lo = hi = 0.0
    for t in taus:
        vals = score_m(ys, t)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    grid = np.linspace(0.0, 20.0, 201)
    monotone = bool(np.all(np.diff(score_m(grid, 0.05)) >= -1e-12))
    origin_ratio = float(score_m(0.0, tau) / (-2.0 * tau / math.pi))
    zt = zeta(tau)
    zeta_ratio = float(score_m(zt, tau) * math.pi * zt * zt / 2.0)
    passed = (
        lo >= -1.0 - 1e-12
        and hi <= SCORE_UPPER_BOUND
        and monotone
        and 0.95 <= origin_ratio <= 1.05
        and 0.85 <= zeta_ratio <= 1.15
    )
    return passed, {"min_score": lo, "max_score": hi, "origin_ratio": origin_ratio,
                    "zeta_ratio": zeta_ratio, "monotone": float(monotone)}


def _check_radius_bound(n, tau, alpha, draws, reps):
    bound = 0.5 * math.sqrt(n * tau * zeta(tau))
    hits = 0
    for rep in range(reps):
        rng = np.random.default_rng([7, rep])
        Y = rng.standard_normal(n)
        r, _ = ball_radius(Y, GlobalScale(tau), alpha, draws, rng)
        hits += r >= bound
    frac = hits / reps
    return frac >= 0.95, {"fraction_above_bound": frac, "bound": bound}


def _check_moment_constant(n, tau):
    target = (2.0 / math.pi) ** 1.5
    Y = np.random.default_rng(11).standard_normal(n)
    total = float(np.sum(posterior_variance(Y, tau)))
    measured = total / (n * tau * zeta(tau))
    rel = abs(measured / target - 1.0)
    return rel <= 0.20, {"measured": measured, "target": target, "rel_error": rel}


def _check_region_coverage(tau, n):
    zt = zeta(tau)
    L_small, L_large = region_blowups(alpha=0.05, gamma=0.1)
    third = n // 3
    theta = np.concatenate([
        np.zeros(n - 2 * third), np.full(third, 0.5 * zt), np.full(third, 1.5 * zt),
    ])
    rng = np.random.default_rng(0)
    Y = theta + rng.standard_normal(n)
    batch = PosteriorBatch(Y, tau)
    r = batch.radius_batch(0.05)
    d = np.abs(theta - batch.means)
    ns = n - 2 * third
    fS = float((d[:ns] <= L_small * r[:ns]).mean())
    fM = float((d[ns:ns + third] <= r[ns:ns + third]).mean())
    fL = float((d[ns + third:] <= L_large * r[ns + third:]).mean())
    return fS >= 0.9 and fL >= 0.9 and fM <= 0.1, {
        "small_fraction": fS, "medium_fraction": fM, "large_fraction": fL,
        "L_small": L_small, "L_large": L_large}


def _check_ball_coverage(n, p, reps, L):
    tau = GlobalScale(SparsityRate(n, p).tau_n)
    sig = 2.0 * zeta(p / n)
    theta = np.concatenate([np.full(p, sig), np.zeros(n - p)])
    hits = 0
    for rep in range(reps):
        rng = np.random.default_rng([21, rep])
        Y = theta + rng.standard_normal(n)
        ball = credible_ball(Y, tau, alpha=0.05, L=L, draws=1024, rng=rng)
        hits += ball.contains(theta)
    frac = hits / reps
    return frac >= 0.9, {"coverage": frac, "L": L}


def _check_kernel_expansions():
    worst_series = 0.0
    for x in (1e-4, 1e-3, 0.01, 0.05):
        for k in (0.5, 1.5, 2.5, 3.5):
            series = sum(x ** m / (math.factorial(m) * (m + k)) for m in range(40))
            worst_series = max(worst_series,
                               abs(expansion_Hk(math.sqrt(2.0 * x), k) / series - 1.0))
    worst_tail = 0.0
    for y in (10.0, 15.0, 25.0):
        for k in (0.5, 1.5):
            lead = 2.0 * math.exp(y * y / 2.0) / (y * y)
            worst_tail = max(worst_tail, abs(expansion_Hk(y, k) / lead - 1.0))
    t = 0.05
    closed = (2.0 / (t * math.sqrt(1.0 - t * t))) * math.atan(math.sqrt(1.0 - t * t) / t)
    origin_err = abs(integral_Ik(0.0, t, -0.5) / closed - 1.0)
    return worst_series <= 1e-9 and worst_tail <= 0.05 and origin_err <= 1e-12, {
        "max_series_error": worst_series, "max_tail_error": worst_tail,
        "origin_closed_form_error": origin_err}


# name -> (check, parameter defaults, time limit in seconds or None, note);
# each check takes its parameters as keywords and returns (passed, measured)
THEORY_CHECKS = {
    "kernel-identity": (
        _check_kernel_identity, {}, 10.0,
        "derivative identity on a 41x4 grid plus density normalization"),
    "oracle-moments": (
        _check_oracle_moments, {}, None,
        "brute-force 2-D quadrature on a 5x5 grid; 1e7-draw empirical CDF"),
    "score-bounds": (
        _check_score_bounds, {"tau": 1e-4}, None,
        "the threshold-scale ratio converges at a log rate and sits near 1.19 "
        "at tau=1e-4, outside the asymptotic band [0.85, 1.15]"),
    "radius-bound": (
        _check_radius_bound,
        {"n": 5000, "tau": 0.01, "alpha": 0.05, "draws": 2000, "reps": 50}, 120.0,
        "ball radius floor on null data"),
    "moment-constant": (
        _check_moment_constant, {"n": 100_000, "tau": 1e-4}, None,
        "slow log-rate convergence; tolerance 20 percent"),
    "region-coverage": (
        _check_region_coverage, {"tau": 0.01, "n": 10_000}, None,
        "split thirds at 0, half, and 1.5 times the threshold scale"),
    "ball-coverage": (
        _check_ball_coverage, {"n": 2000, "p": 40, "reps": 100, "L": 2.0}, None,
        "self-similar truth at the sparsity-rate scale"),
    "kernel-expansions": (
        _check_kernel_expansions, {}, None,
        "small-argument series, leading-order tail, closed form at the origin"),
}


def verify_theory(check_name, params=None):
    """Run one named numeric check from THEORY_CHECKS.

    Each value in ``params`` is converted to the type of the check's default
    for that key; an unknown key or a value that does not convert raises
    ValueError. The check is timed into ``measured["runtime_s"]`` and fails
    when it runs past its time limit.
    """
    if check_name not in THEORY_CHECKS:
        raise ValueError(
            f"unknown check {check_name!r}; available: {', '.join(sorted(THEORY_CHECKS))}"
        )
    check, defaults, limit_s, note = THEORY_CHECKS[check_name]
    kwargs = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValueError(f"check {check_name!r} takes {sorted(defaults)}, got {key!r}")
        kind = type(defaults[key])
        try:
            kwargs[key] = kind(value)
        except (TypeError, ValueError):
            raise ValueError(f"check {check_name!r} parameter {key!r} must be "
                             f"{kind.__name__}, got {value!r}") from None
    start = time.perf_counter()
    passed, measured = check(**kwargs)
    measured["runtime_s"] = elapsed = time.perf_counter() - start
    passed = passed and (limit_s is None or elapsed < limit_s)
    return CheckResult(check_name, passed, measured, note)


# ---------------------------------------------------------------------------
# command line interface


def _read_observations(path):
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
    if len(values) < 2:
        raise ValueError(f"{path}: need at least two observations, got {len(values)}")
    return np.array(values)


def _print_interval_csv(Y, intervals):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["index", "y", "center", "half_width", "lower", "upper"])
    c, h = intervals.center, intervals.half_width
    for i, row in enumerate(zip(Y, c, h, c - h, c + h)):
        writer.writerow([i] + [f"{v:.12g}" for v in row])


def _cmd_fit_tau(args):
    Y = _read_observations(args.file)
    if args.method == "mmle":
        est = mmle(Y)
    else:
        est = simple_estimator(Y, c1=args.c1, c2=args.c2)
    print(f"{est.tau:.12g}")
    return 0


def _cmd_intervals(args):
    Y = _read_observations(args.file)
    tau = _scale(Y, args.tau)
    _print_interval_csv(Y, interval_batch(Y, tau, alpha=args.alpha, L=args.L))
    print(f"# tau {tau.tau:.12g}")
    return 0


def _cmd_ball(args):
    Y = _read_observations(args.file)
    tau = _scale(Y, args.tau)
    ball = credible_ball(Y, tau, alpha=args.alpha, L=args.L, draws=args.draws,
                         rng=np.random.default_rng(args.seed))
    print(f"radius {ball.radius:.12g}")
    print(f"mc_se {ball.mc_se:.12g}")
    print(f"draws {ball.mc_draws}")
    print(f"tau {tau.tau:.12g}")
    return 0


def _cmd_hb(args):
    Y = _read_observations(args.file)
    prior = HB_METHODS["hb-" + args.prior]()
    chain = run_chain(Y, prior, iters=args.iters, burn_in=args.burnin,
                      thin=args.thin, seed=args.seed)
    if args.chain_csv:
        chain.to_csv(args.chain_csv)
    _print_interval_csv(Y, hb_marginal_intervals(chain, alpha=args.alpha, L=args.L))
    print(f"# tau_mean {float(chain.taus.mean()):.12g}")
    return 0


def _cmd_select(args):
    Y = _read_observations(args.file)
    tau = _scale(Y, args.tau)
    if args.rule == "interval":
        sel = select_by_interval(interval_batch(Y, tau, alpha=args.alpha, L=args.L))
    else:
        sel = select_by_threshold(Y, tau, cutoff=args.cutoff)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["index", "y", "selected"])
    for i, (y, s) in enumerate(zip(Y, sel.selected)):
        writer.writerow([i, f"{y:.12g}", int(s)])
    return 0


def _cmd_simulate(args):
    with open(args.config, encoding="utf-8") as fh:
        config = build_scenario(parse_config(fh.read()))
    report = run_scenario(config)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{config.name}_metrics.csv")
    json_path = os.path.join(out_dir, f"{config.name}_summary.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report_to_csv(report))
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report_to_json(report))
    print(csv_path)
    print(json_path)
    return 0


def _cmd_verify(args):
    if args.check == "list":
        for name in sorted(THEORY_CHECKS):
            print(name)
        return 0
    params = {}
    for item in args.params:
        if "=" not in item:
            raise ValueError(f"check parameters look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    result = verify_theory(args.check, params)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}")
    for key in sorted(result.measured):
        print(f"  {key} {result.measured[key]:.12g}")
    if result.notes:
        print(f"  note: {result.notes}")
    return 0 if result.passed else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hsuq",
        description="Shrinkage-prior uncertainty quantification for sparse means",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("file")
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--alpha", type=float, default=0.05)
    level.add_argument("--L", type=float, default=1.0)

    p = sub.add_parser("fit-tau", parents=[data],
                       help="estimate the global scale from a data file")
    p.add_argument("--method", choices=["mmle", "simple"], default="mmle")
    p.add_argument("--c1", type=float, default=2.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.set_defaults(func=_cmd_fit_tau)

    p = sub.add_parser("intervals", parents=[data, level],
                       help="per-coordinate credible intervals")
    p.add_argument("--tau", required=True, help="mmle, simple, or a number")
    p.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("ball", parents=[data, level], help="joint credible ball radius")
    p.add_argument("--tau", required=True)
    p.add_argument("--draws", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("hb", parents=[data, level],
                       help="full-Bayes intervals via the Gibbs sampler")
    p.add_argument("--prior", choices=["cauchy", "tcauchy", "tuniform"],
                   default="tcauchy")
    p.add_argument("--iters", type=int, default=12000)
    p.add_argument("--burnin", type=int, default=2000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chain-csv", help="also export the kept chain to this path")
    p.set_defaults(func=_cmd_hb)

    p = sub.add_parser("select", parents=[data, level], help="flag likely signals")
    p.add_argument("--rule", choices=["interval", "threshold"], default="interval")
    p.add_argument("--tau", default="mmle")
    p.add_argument("--cutoff", type=float, default=0.5)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="run a replication study from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a named theory check (or: verify list)")
    p.add_argument("check")
    p.add_argument("params", nargs="*", help="key=value overrides")
    p.set_defaults(func=_cmd_verify)
    return parser


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(cli_main())

"""Vector-level credible sets: interval batches, L2 balls, region diagnostics.

Centers are always the posterior means. Interval half-widths come from
the exact per-coordinate mass equation; ball radii are the Monte Carlo
quantile of the distance to the center over joint posterior draws. The
region classifiers and the self-similarity / excessive-bias checks
operate on the true mean vector and are pure bookkeeping: they exist so
simulation studies can report coverage per signal-size regime.
"""

import math
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import ndtri

from .kernels import (
    SparsityRate,
    _as_obs,
    _check_level,
    _tau_value,
    posterior_mean,
    zeta,
)
from .posterior import _BLOCK, _STREAM, PosteriorBatch

__all__ = [
    "CredibleBall",
    "RegionLabel",
    "ExcessiveBiasReport",
    "interval_batch",
    "covers",
    "ball_radius",
    "credible_ball",
    "classify_regions",
    "classify_regions_adaptive",
    "self_similar_check",
    "excessive_bias_diagnostic",
    "region_blowups",
]


@dataclass(frozen=True, eq=False)
class CredibleBall:
    """L2 ball around the posterior mean vector."""

    center: np.ndarray
    radius: float
    alpha: float
    blowup_L: float
    mc_draws: int
    mc_se: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("ball radius must be positive")
        if self.mc_draws < 1:
            raise ValueError("mc_draws must be a positive integer")

    def contains(self, theta) -> bool:
        """Whether the point theta, of the centre's shape, lies in the closed ball."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != np.shape(self.center):
            raise ValueError(f"point of shape {theta.shape} does not match the centre's "
                             f"shape {np.shape(self.center)}")
        return bool(np.linalg.norm(theta - self.center) <= self.radius)


class RegionLabel(Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class ExcessiveBiasReport:
    satisfied: bool
    q: int | None
    p_tilde: int
    constants: dict = field(default_factory=dict)


def interval_batch(Y, tau, alpha, L=1.0):
    """One marginal credible interval per coordinate, shared tau: a
    record array with the float fields center and half_width."""
    _check_level(alpha, L)
    batch = PosteriorBatch(Y, tau)
    return _intervals(batch.means, L * batch.radius_batch(alpha))


def _intervals(center, half_width):
    """The record array of symmetric intervals |x - center| <= half_width."""
    return np.rec.fromarrays([center, half_width], names="center,half_width")


def covers(intervals, theta):
    """Bool array: True where theta lies in the closed interval of its row."""
    return np.abs(np.asarray(theta, dtype=float) - intervals.center) <= intervals.half_width


def _check_draws(draws):
    """``draws`` as an int, or ValueError below the 1000 a stable quantile needs."""
    draws = int(draws)
    if draws < 1000:
        raise ValueError(f"need at least 1000 draws for a stable quantile, got {draws}")
    return draws


def ball_radius(Y, tau, alpha, draws, rng, *, _center=None):
    """(1-alpha) quantile of ||theta - mean|| over joint posterior draws.

    The draws are streamed in chunks of _BLOCK rows (coordinates are independent
    given tau). Each chunk is drawn, centred in place and reduced to its squared
    norms on one thread pool, with one worker per sampler block of a chunk up to
    the usable CPUs, opened for this ball and joined before it returns; memory is
    O(_BLOCK x draws) per worker, with no (draws, n) or (n, nodes) matrix. The
    chunks' generators are spawned and their norms summed here, in chunk order,
    so the radius is the same on any number of threads in any order of completion.
    Returns (radius, mc_se) where the standard error comes from the
    usual order-statistic asymptotics with a finite-difference density
    estimate at the quantile, over a step that stays inside (0, 1).
    ``_center`` is the posterior mean, if known.
    """
    from concurrent.futures import ThreadPoolExecutor

    _check_level(alpha)
    draws = _check_draws(draws)
    batch = PosteriorBatch(Y, tau)
    center = batch.means if _center is None else _center
    starts = range(0, batch.n, _BLOCK)
    streams = [rng.spawn(-(-min(_BLOCK, batch.n - lo) // _STREAM)) for lo in starts]

    def chunk(lo, children):
        M = batch.draw_matrix(draws, None, slice(lo, lo + _BLOCK), _streams=children)
        M -= center[lo:lo + _BLOCK]
        return np.einsum("ij,ij->i", M, M)

    sq = np.zeros(draws)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(len(streams[0]), cpus or 1)) as pool:
        for part in pool.map(chunk, starts, streams):
            sq += part
    dist = np.sqrt(sq)
    p = 1.0 - float(alpha)
    r = float(np.quantile(dist, p))
    h = min(float(alpha) / 2.0, p / 2.0, 0.02)
    spread = float(np.quantile(dist, p + h) - np.quantile(dist, p - h))
    dens = spread / (2.0 * h) if spread > 0 else math.inf
    mc_se = math.sqrt(p * (1.0 - p) / draws) * dens
    return r, mc_se


def credible_ball(Y, tau, alpha, L, draws, rng):
    """Credible ball centred at the posterior mean vector, with the Monte
    Carlo radius of :func:`ball_radius` blown up by L."""
    _check_level(alpha, L)
    draws = _check_draws(draws)
    Y = _as_obs(Y, 1)
    center = posterior_mean(Y, tau)
    r, se = ball_radius(Y, tau, alpha, draws, rng, _center=center)
    return CredibleBall(
        center=center, radius=float(L) * r, alpha=float(alpha),
        blowup_L=float(L), mc_draws=draws, mc_se=float(L) * se,
    )


def _region_split(theta0, small_hi, med_lo, med_hi, large_lo):
    a = np.abs(np.asarray(theta0, dtype=float).ravel())
    labels = np.full(a.shape, RegionLabel.UNCLASSIFIED, dtype=object)
    labels[a <= small_hi] = RegionLabel.SMALL
    labels[(a >= med_lo) & (a <= med_hi)] = RegionLabel.MEDIUM
    labels[a >= large_lo] = RegionLabel.LARGE
    return list(labels)


def _check_region_constants(kS, kM, kL, f):
    if not (kS > 0.0 and f > 0.0):
        raise ValueError("kS and f must be positive")
    if not kM < 1.0:
        raise ValueError(f"medium cutoff must satisfy kM < 1, got {kM}")
    if not kL > 1.0:
        raise ValueError(f"large cutoff must satisfy kL > 1, got {kL}")


def classify_regions(theta0, tau, kS=1.0, kM=0.9, kL=1.1, f=2.0):
    """Label coordinates as small/medium/large relative to the scale tau."""
    t = _tau_value(tau)
    _check_region_constants(kS, kM, kL, f)
    if f * t <= kS * t:
        raise ValueError(
            f"regions overlap: medium floor f*tau = {f * t:.4g} does not exceed "
            f"small ceiling kS*tau = {kS * t:.4g}"
        )
    z = zeta(t)
    return _region_split(theta0, kS * t, f * t, kM * z, kL * z)


def classify_regions_adaptive(theta0, n, p, kS=1.0, kM=0.9, kL=1.1, f=2.0):
    """Same labeling with boundaries tied to the sparsity rate (p of n)."""
    _check_region_constants(kS, kM, kL, f)
    tn = SparsityRate(n=n, p=p).tau_n
    if f * tn <= kS / n:
        raise ValueError(
            f"regions overlap: medium floor f*tau_n = {f * tn:.4g} does not exceed "
            f"small ceiling kS/n = {kS / n:.4g}"
        )
    large_lo = kL * zeta(1.0 / n)
    return _region_split(theta0, kS / n, f * tn, kM * zeta(tn), large_lo)


def _count_at_least(sorted_abs, thr):
    # exceedance count; a zero threshold counts strictly positive entries
    if thr <= 0.0:
        return int(np.sum(sorted_abs > 0.0))
    return int(sorted_abs.size - np.searchsorted(sorted_abs, thr, side="left"))


def _exceedance_threshold(A):
    """(n, q) -> A sqrt(2 log(n/q)), the level q of n coordinates clear (0 at q = n)."""
    if not A > 1.0:
        raise ValueError(f"need A > 1, got {A}")
    return lambda n, q: A * math.sqrt(2.0 * math.log(n / q)) if q < n else 0.0


def self_similar_check(theta0, p, A=2.0, Cs=1.0):
    """True when at least p/Cs coordinates clear the A-scaled threshold."""
    threshold = _exceedance_threshold(A)
    if not Cs >= 1.0:
        raise ValueError(f"need Cs >= 1, got {Cs}")
    a = np.sort(np.abs(_as_obs(theta0, 1)))
    SparsityRate(a.size, p)  # needs 1 <= p <= n
    return _count_at_least(a, threshold(a.size, p)) >= p / Cs


def excessive_bias_diagnostic(theta0, A=2.0, Cs=1.0, C=None):
    """Smallest q whose tail energy and exceedance count both pass.

    Scans q = 1..n for sum of squares below the q-th threshold at most
    C*q*log(n/q) while at least q/Cs coordinates clear it; reports the
    exceedance count p_tilde at that q.
    """
    threshold = _exceedance_threshold(A)
    if not Cs > 0.0:
        raise ValueError(f"need Cs > 0, got {Cs}")
    if C is None:
        C = 2.0 * A * A
    if not C > 0.0:
        raise ValueError(f"need C > 0, got {C}")
    theta0 = _as_obs(theta0, 1)
    a = np.sort(np.abs(theta0))
    n = a.size
    sq = np.concatenate([[0.0], np.cumsum(a * a)])
    constants = {"A": float(A), "Cs": float(Cs), "C": float(C)}
    for q in range(1, n + 1):
        log_ratio = math.log(n / q)
        thr = threshold(n, q)
        count = _count_at_least(a, thr)
        if count < q / Cs:
            continue
        below = int(np.searchsorted(a, thr, side="left"))
        if sq[below] <= C * q * log_ratio:
            return ExcessiveBiasReport(satisfied=True, q=q, p_tilde=count, constants=constants)
    return ExcessiveBiasReport(satisfied=False, q=None, p_tilde=0, constants=constants)


def region_blowups(alpha, gamma, k_small=1.0):
    """Blow-up factors at which small and large coordinates reach their
    target coverage, as functions of the coverage shortfall gamma. The
    medium region is the one that stays uncovered at any fixed factor.
    Needs 0 < alpha < 1/2: both factors divide by ndtri(1 - alpha).
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 1/2) for region blow-ups, got {alpha}: "
                         "they divide by ndtri(1 - alpha), which is 0 at 1/2")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    z_a = ndtri(1.0 - alpha)
    zg = zeta(gamma / 2.0)
    L_small = (2.1 / z_a) * (k_small + (2.0 / gamma) * zg)
    L_large = (1.1 / z_a) * zg
    return L_small, L_large

"""Empirical-Bayes estimators of the global shrinkage scale.

Two estimators over the interval [1/n, 1]: the marginal maximum
likelihood estimator (every root of a Chebyshev interpolant of the score
in log tau, compared with both endpoints on the exact likelihood) and
the counting estimator that divides the number of exceedances of a
universal-threshold multiple by c1 * n.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.polynomial import chebyshev as C

from .kernels import GlobalScale, _as_obs, _tau_sweep, _tau_value, log_marginal_lik, score_m, zeta

__all__ = ["TauMethod", "TauEstimate", "mmle", "simple_estimator", "score_sum", "fixed_tau"]


class TauMethod(Enum):
    MMLE = "mmle"
    SIMPLE = "simple"
    FIXED = "fixed"


@dataclass(frozen=True)
class TauEstimate:
    value: GlobalScale
    method: TauMethod
    diagnostics: dict = field(default_factory=dict)

    @property
    def tau(self) -> float:
        return self.value.tau


def score_sum(Y, tau):
    """Derivative of the log marginal likelihood in tau: (1/tau) * sum of scores."""
    arr = _as_obs(Y, 1)
    t = _tau_value(tau)
    return float(np.sum(score_m(arr, t))) / t


def mmle(Y) -> TauEstimate:
    """Marginal maximum likelihood estimate of tau on [1/n, 1].

    The summed score is d loglik / d log tau, so every stationary point is
    a root (a colleague-matrix eigenvalue) of its Chebyshev interpolant in
    x = 1 + log(tau) / h, h = log(n) / 2, fitted to one ``_tau_sweep`` at
    m = 32 Chebyshev points, doubled while the last two coefficients exceed
    1e-11 of the largest. The ends and the real roots in (-1, 1) are
    compared on the exact log likelihood; an interior winner takes one
    Newton step in log tau with the exact score and the interpolant's slope.
    Diagnostics add the node pairs around each root (``sign_changes``),
    ``local_maxima`` (roots where the score falls), ``nodes`` (the final m),
    ``at_boundary`` and ``score_at_estimate`` (the exact summed score).
    """
    arr = _as_obs(Y, 2)
    lo, h = 1.0 / arr.size, 0.5 * math.log(arr.size)
    for m in (32, 64, 128, 256, 512):
        x = C.chebpts1(m)
        grid = np.exp(h * (x - 1.0))
        scores, objective = _tau_sweep(arr, grid)
        coef = C.chebfit(x, scores, m - 1)
        if np.max(np.abs(coef[-2:])) <= 1e-11 * np.max(np.abs(coef)):
            break
    slope = C.chebder(coef)
    r = C.chebroots(coef)
    roots = np.sort(r.real[(r.imag == 0.0) & (np.abs(r.real) < 1.0)])
    edges, k = np.r_[lo, grid, 1.0], np.searchsorted(x, roots)
    sign_changes = [(float(edges[i]), float(edges[i + 1])) for i in k]

    candidates = [lo, 1.0] + np.exp(h * (roots - 1.0)).tolist()
    best = int(np.argmax([log_marginal_lik(arr, t) for t in candidates]))
    tau_hat = candidates[best]
    if best >= 2:
        s = float(np.sum(score_m(arr, tau_hat)))
        tau_hat = min(max(tau_hat * math.exp(-s * h / C.chebval(roots[best - 2], slope)), lo), 1.0)
    diagnostics = {
        "grid": grid,
        "objective": objective,
        "sign_changes": sign_changes,
        "candidates": candidates,
        "bracket": sign_changes[0] if sign_changes else (lo, 1.0),
        "at_boundary": tau_hat in (lo, 1.0),
        "local_maxima": int(np.sum(C.chebval(roots, slope) < 0.0)),
        "nodes": m,
        "score_at_estimate": float(np.sum(score_m(arr, tau_hat))),
    }
    return TauEstimate(GlobalScale(tau_hat), TauMethod.MMLE, diagnostics)


def simple_estimator(Y, c1=2.0, c2=1.0) -> TauEstimate:
    """Counting estimator: exceedances of sqrt(c2) zeta(1/n) = sqrt(c2 * 2 log n),
    floored at one, divided by c1 * n, clamped to [1/n, 1]."""
    arr = _as_obs(Y, 2)
    if not c1 >= 1.0:
        raise ValueError(f"need c1 >= 1, got {c1}")
    if not c2 > 0.0:
        raise ValueError(f"need c2 > 0, got {c2}")
    n = arr.size
    threshold = math.sqrt(c2) * zeta(1.0 / n)
    count = int(np.sum(np.abs(arr) >= threshold))
    raw = max(1, count) / (c1 * n)
    clamped = min(max(raw, 1.0 / n), 1.0)
    diagnostics = {"count": count, "threshold": threshold, "raw": raw}
    return TauEstimate(GlobalScale(clamped), TauMethod.SIMPLE, diagnostics)


def fixed_tau(value) -> TauEstimate:
    """Wrap a user-chosen scale so downstream code sees one estimate type."""
    return TauEstimate(GlobalScale(_tau_value(value)), TauMethod.FIXED, {})

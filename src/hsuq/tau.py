"""Empirical-Bayes estimators of the global shrinkage scale.

Two estimators over the interval [1/n, 1]: the marginal maximum
likelihood estimator (grid scan for score sign changes, bracketed
refinement, candidate comparison) and the counting estimator that
divides the number of exceedances of a universal-threshold multiple by
c1 * n.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kernels import GlobalScale, _as_obs, _tau_sweep, _tau_value, log_marginal_lik, score_m, zeta

__all__ = ["TauMethod", "TauEstimate", "mmle", "simple_estimator", "score_sum", "fixed_tau"]

GRID_POINTS = 200


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

    The objective can be multimodal, so every sign change of the score
    on a log-spaced grid is refined and compared, together with both
    endpoints, on the actual log likelihood. The grid is scanned in one
    shared-node pass (``kernels._tau_sweep``). Diagnostics add
    ``at_boundary`` (the estimate is 1/n or 1) and ``local_maxima`` (grid
    sign changes of the score from positive to negative).
    """
    from scipy.optimize import brentq

    arr = _as_obs(Y, 2)
    n = arr.size
    lo = 1.0 / n
    grid = np.geomspace(lo, 1.0, GRID_POINTS)
    scores, objective = _tau_sweep(arr, grid)

    sign_changes = []
    roots = []
    for i in range(len(grid) - 1):
        a, b = scores[i], scores[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        if a * b < 0.0:
            sign_changes.append((float(grid[i]), float(grid[i + 1])))
            root = brentq(
                lambda t: float(np.sum(score_m(arr, t))),
                grid[i],
                grid[i + 1],
                xtol=1e-10,
            )
            roots.append(float(root))

    candidates = [lo, 1.0] + roots
    values = [log_marginal_lik(arr, t) for t in candidates]
    best = int(np.argmax(values))
    tau_hat = min(max(candidates[best], lo), 1.0)
    diagnostics = {
        "grid": grid,
        "objective": objective,
        "sign_changes": sign_changes,
        "candidates": candidates,
        "bracket": sign_changes[0] if sign_changes else (lo, 1.0),
        "at_boundary": tau_hat in (lo, 1.0),
        "local_maxima": int(np.sum((scores[:-1] > 0.0) & (scores[1:] < 0.0))),
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

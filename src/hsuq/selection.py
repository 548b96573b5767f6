"""Signal selection from posterior summaries and discovery accounting."""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .credible import RegionLabel, covers
from .kernels import log_integral_Ik

__all__ = [
    "SelectionMethod",
    "SelectionResult",
    "DiscoveryReport",
    "shrinkage_weight",
    "select_by_interval",
    "select_by_threshold",
    "discovery_report",
]


class SelectionMethod(Enum):
    INTERVAL_EB = "interval_eb"
    INTERVAL_HB = "interval_hb"
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class SelectionResult:
    selected: np.ndarray
    method: SelectionMethod
    params: dict = field(default_factory=dict)

    @property
    def n_selected(self) -> int:
        return int(np.sum(self.selected))


@dataclass(frozen=True)
class DiscoveryReport:
    """FDR plus per-region true-discovery counts for one selection."""

    fdr: float
    true_discoveries: dict
    false_positives: int


def shrinkage_weight(Y, tau):
    """Posterior shrinkage factor in (0, 1): the posterior mean divided
    by the observation, extended continuously through zero.
    """
    return np.exp(log_integral_Ik(Y, tau, 0.5) - log_integral_Ik(Y, tau, -0.5))


def select_by_interval(intervals, method="eb"):
    """Select the coordinates whose interval excludes zero."""
    kind = {"eb": SelectionMethod.INTERVAL_EB, "hb": SelectionMethod.INTERVAL_HB}.get(method)
    if kind is None:
        raise ValueError(f"method must be 'eb' or 'hb', got {method!r}")
    return SelectionResult(selected=~covers(intervals, 0.0), method=kind)


def select_by_threshold(Y, tau, cutoff=0.5):
    """Select the coordinates whose shrinkage weight exceeds the cutoff."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    Y = np.asarray(Y, dtype=float)
    kappa = shrinkage_weight(Y, tau)
    return SelectionResult(
        selected=np.asarray(kappa > cutoff, dtype=bool),
        method=SelectionMethod.THRESHOLD,
        params={"cutoff": float(cutoff)},
    )


def discovery_report(sel, theta0, regions):
    """Score a selection against the true mean vector.

    False positives are selected coordinates whose true mean is exactly
    zero; the FDR denominator is guarded at one so an empty selection
    scores zero. True discoveries are counted per region label among the
    truly nonzero coordinates.
    """
    theta0 = np.asarray(theta0, dtype=float).ravel()
    selected = np.asarray(sel.selected, dtype=bool).ravel()
    regions = list(regions)
    if not (theta0.size == selected.size == len(regions)):
        raise ValueError(
            f"length mismatch: {selected.size} selections, {theta0.size} means, "
            f"{len(regions)} region labels"
        )
    nonzero = theta0 != 0.0
    fp = int(np.sum(selected & ~nonzero))
    fdr = fp / max(1, int(np.sum(selected)))
    hits = {label: 0 for label in RegionLabel}
    for i in np.flatnonzero(selected & nonzero):
        hits[regions[i]] += 1
    return DiscoveryReport(fdr=float(fdr), true_discoveries=hits, false_positives=fp)

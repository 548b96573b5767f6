"""Tests for the interval and thresholding selection rules."""

import math

import numpy as np
import pytest

from hsuq.credible import RegionLabel, interval_batch
from hsuq.kernels import GlobalScale, SparsityRate, posterior_mean, zeta
from hsuq.selection import (
    DiscoveryReport,
    SelectionMethod,
    SelectionResult,
    discovery_report,
    select_by_interval,
    select_by_threshold,
    shrinkage_weight,
)
from hsuq.tau import mmle


def _iv(lo, hi):
    return np.rec.fromarrays([[0.5 * (lo + hi)], [0.5 * (hi - lo)]], names="center,half_width")


class TestIntervalRule:
    def test_interval_straddling_zero_is_not_selected(self):
        sel = select_by_interval(_iv(-1.0, 1.0))
        assert not sel.selected[0]

    def test_interval_away_from_zero_is_selected(self):
        sel = select_by_interval(_iv(0.5, 2.0))
        assert sel.selected[0]

    def test_boundary_interval_is_not_selected(self):
        # covers() is closed, so an endpoint exactly at zero still counts
        # as containing it.
        sel = select_by_interval(_iv(0.0, 2.0))
        assert not sel.selected[0]

    def test_method_tag_and_params(self):
        ivs = _iv(-1.0, 1.0)
        eb = select_by_interval(ivs)
        hb = select_by_interval(ivs, method="hb")
        assert eb.method is SelectionMethod.INTERVAL_EB
        assert hb.method is SelectionMethod.INTERVAL_HB
        with pytest.raises(ValueError):
            select_by_interval(ivs, method="threshold")

    def test_larger_blowup_selects_a_subset(self):
        rng = np.random.default_rng(19)
        Y = np.concatenate([np.full(8, 3.0), rng.standard_normal(72)])
        tau = GlobalScale(0.1)
        narrow = select_by_interval(interval_batch(Y, tau, alpha=0.05, L=1.0))
        wide = select_by_interval(interval_batch(Y, tau, alpha=0.05, L=2.0))
        assert np.all(narrow.selected | ~wide.selected)
        assert narrow.n_selected >= wide.n_selected


class TestShrinkageWeight:
    def test_value_at_origin_with_unit_scale(self):
        assert shrinkage_weight(0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_posterior_mean_ratio(self):
        for y in (0.5, 2.5, -4.0):
            k = shrinkage_weight(y, 0.1)
            assert k == pytest.approx(posterior_mean(y, 0.1) / y, rel=1e-12)

    def test_large_observation_approaches_one(self):
        k = shrinkage_weight(10.0, 0.05)
        assert 1.0 - k <= 2.0 / zeta(0.05) ** 2
        assert k > 0.9

    def test_strictly_increasing_in_magnitude(self):
        y = np.linspace(0.0, 12.0, 61)
        k = shrinkage_weight(y, 0.1)
        assert np.all(np.diff(k) > 0.0)

    def test_even_in_y(self):
        assert shrinkage_weight(-3.0, 0.1) == shrinkage_weight(3.0, 0.1)

    @pytest.mark.xfail(strict=True, reason="exp of a difference of two logs that each "
                       "carry y^2/2 loses digits: 7.3e-12 low at y = 1e3, 2.4e-9 at 1e4, "
                       "and exactly 1.0 at 1e6")
    def test_large_observations_keep_their_digits(self):
        # the reference is jz / j0 of one moment pass, which the mean over y gives
        Y = np.array([1e3, 1e4, 1e6])
        np.testing.assert_allclose(shrinkage_weight(Y, 0.1), posterior_mean(Y, 0.1) / Y,
                                   rtol=1e-13, atol=0.0)


class TestThresholdRule:
    def test_origin_not_selected_at_default_cutoff(self):
        sel = select_by_threshold(np.array([0.0]), 1.0)
        assert not sel.selected[0]
        assert sel.method is SelectionMethod.THRESHOLD

    def test_strong_observation_selected(self):
        sel = select_by_threshold(np.array([10.0]), 0.05)
        assert sel.selected[0]

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            select_by_threshold(np.zeros(3), 0.1, cutoff=0.0)
        with pytest.raises(ValueError):
            select_by_threshold(np.zeros(3), 0.1, cutoff=1.0)

    def test_more_liberal_than_interval_rule_on_average(self):
        # Thresholding tends to flag more coordinates than the interval
        # rule, true and false alike. Checked as an average over
        # replications of a sparse three-group scenario, not per draw.
        n = 200
        tn = SparsityRate(n, 30).tau_n
        theta = np.concatenate([
            np.full(10, 1.5 * math.sqrt(2.0 * math.log(n))),
            np.full(10, 0.5 * math.sqrt(2.0 * math.log(1.0 / tn))),
            np.full(10, 1.0 / n),
            np.zeros(n - 30),
        ])
        reps = 50
        diff = 0
        for seed in range(reps):
            rng = np.random.default_rng([61, seed])
            Y = theta + rng.standard_normal(n)
            tau = mmle(Y).value
            n_thresh = select_by_threshold(Y, tau).n_selected
            n_interval = select_by_interval(interval_batch(Y, tau, alpha=0.05)).n_selected
            diff += n_thresh - n_interval
        assert diff / reps > 0.0


class TestDiscoveryReport:
    def test_no_selections_scores_zero(self):
        sel = SelectionResult(np.zeros(4, dtype=bool), SelectionMethod.THRESHOLD)
        rep = discovery_report(sel, np.zeros(4), [RegionLabel.SMALL] * 4)
        assert rep.fdr == 0.0
        assert rep.false_positives == 0

    def test_all_null_selected_scores_one(self):
        sel = SelectionResult(np.ones(4, dtype=bool), SelectionMethod.THRESHOLD)
        rep = discovery_report(sel, np.zeros(4), [RegionLabel.SMALL] * 4)
        assert rep.fdr == 1.0
        assert rep.false_positives == 4

    def test_mixed_hand_case(self):
        sel = SelectionResult(np.array([True, False, True]), SelectionMethod.INTERVAL_EB)
        regions = [RegionLabel.SMALL, RegionLabel.SMALL, RegionLabel.LARGE]
        rep = discovery_report(sel, np.array([0.0, 0.0, 3.0]), regions)
        assert rep.fdr == 0.5
        assert rep.false_positives == 1
        assert rep.true_discoveries[RegionLabel.LARGE] == 1
        assert rep.true_discoveries[RegionLabel.SMALL] == 0

    def test_length_mismatch_rejected(self):
        sel = SelectionResult(np.array([True, False]), SelectionMethod.THRESHOLD)
        with pytest.raises(ValueError, match="mismatch"):
            discovery_report(sel, np.zeros(3), [RegionLabel.SMALL] * 3)

"""Tests for the global-scale estimators."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsuq.credible import excessive_bias_diagnostic
from hsuq.kernels import SparsityRate, _tau_sweep, log_marginal_lik, score_m
from hsuq.tau import TauMethod, fixed_tau, mmle, score_sum, simple_estimator

from _oracles import crit09_data, grid_mmle, loop_mmle, traced_peak


def _sparse(seed, n, k, size):
    y = np.random.default_rng(seed).standard_normal(n)
    y[:k] += size
    return y


# Inputs on which the one-pass grid sweep must reproduce the per-tau loop.
SWEEP_INPUTS = {
    "n2": lambda: 3.0 * np.random.default_rng(21).standard_normal(2),
    "all_zero": lambda: np.zeros(100),
    "null_400": lambda: np.random.default_rng(22).standard_normal(400),
    "sparse_400_a": lambda: _sparse(23, 400, 20, 2.0 * math.sqrt(2.0 * math.log(400))),
    "sparse_400_b": lambda: _sparse(24, 400, 8, 4.0),
    "sparse_60": lambda: _sparse(25, 60, 3, 5.0),
    "one_signal_1000": lambda: _sparse(26, 1000, 1, 8.0),
    # |y| up to 40, beyond the float64 overflow of exp(y^2 / 2)
    "huge_y": lambda: np.concatenate(
        [np.linspace(20.0, 40.0, 10), np.random.default_rng(27).standard_normal(290)]),
    "n_10k": lambda: _sparse(28, 10_000, 100, 5.0),
}


class TestScoreSum:
    def test_negative_for_null_data(self):
        Y = np.zeros(50)
        for tau in [0.01, 0.1, 0.5, 1.0]:
            assert score_sum(Y, tau) < 0.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        Y = rng.normal(0, 2, size=60)
        tau, h = 0.1, 1e-6
        fd = (log_marginal_lik(Y, tau + h) - log_marginal_lik(Y, tau - h)) / (2 * h)
        assert_allclose(score_sum(Y, tau), fd, rtol=1e-4)

    def test_additive_under_concatenation(self):
        Y = np.array([0.3, -1.2, 4.0])
        both = np.concatenate([Y, Y])
        assert_allclose(score_sum(both, 0.2), 2.0 * score_sum(Y, 0.2), rtol=1e-12)


class TestMmle:
    def test_null_data_hits_left_endpoint(self):
        est = mmle(np.zeros(100))
        assert est.tau == 1.0 / 100
        assert est.method is TauMethod.MMLE
        assert est.diagnostics["at_boundary"] is True
        assert est.diagnostics["local_maxima"] == 0

    def test_boundary_diagnostics(self):
        null = mmle(np.random.default_rng(3).standard_normal(400))
        assert null.tau == 1.0 / 400
        assert null.diagnostics["at_boundary"] is True
        assert null.diagnostics["local_maxima"] == 0
        dense = mmle(np.full(50, 10.0))
        assert dense.tau == 1.0
        assert dense.diagnostics["at_boundary"] is True
        assert dense.diagnostics["local_maxima"] == 0
        signals = mmle(_sparse(5, 400, 20, 5.0))
        assert 1.0 / 400 < signals.tau < 1.0
        assert signals.diagnostics["at_boundary"] is False
        assert signals.diagnostics["local_maxima"] == 1

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            theta = np.zeros(200)
            theta[:10] = 4.0
            Y = theta + rng.standard_normal(200)
            est = mmle(Y)
            oracle_tau, grid = grid_mmle(Y, n_grid=2000)
            spacing = oracle_tau * (grid[1] / grid[0] - 1.0)
            assert abs(est.tau - oracle_tau) <= 2.0 * spacing
            # the refined optimum can only improve on the grid scan
            assert log_marginal_lik(Y, est.tau) >= log_marginal_lik(Y, oracle_tau) - 1e-9

    def test_large_signal_scenario_lands_in_band(self):
        rng = np.random.default_rng(1)
        theta = np.concatenate([np.full(5, 7.0), np.full(5, 1.5), np.zeros(190)])
        est = mmle(theta + rng.standard_normal(200))
        assert 0.03 <= est.tau <= 0.3

    def test_diagnostics_shape(self):
        est = mmle(np.random.default_rng(2).normal(0, 3, 80))
        d = est.diagnostics
        assert {"grid", "objective", "sign_changes", "candidates", "bracket",
                "at_boundary", "local_maxima", "nodes", "score_at_estimate"} <= set(d)
        assert len(d["grid"]) == len(d["objective"]) == d["nodes"]
        assert np.all(np.diff(d["grid"]) > 0.0)
        assert all(lo < hi for lo, hi in d["sign_changes"])
        assert 1.0 / 80 in d["candidates"] and 1.0 in d["candidates"]

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            mmle(np.array([1.0]))


class TestGridSweep:
    """The one-pass sweep against exact kernel calls at every tau, and the
    Chebyshev fit of its scores against a root refined to float resolution."""

    @pytest.mark.parametrize("name", list(SWEEP_INPUTS))
    def test_matches_per_tau_loop(self, name):
        y = SWEEP_INPUTS[name]()
        tau_ref, grid, ref_scores, ref_objective = loop_mmle(y)
        scores, objective = _tau_sweep(y, grid)
        assert np.all(np.abs(scores - ref_scores) <= 1e-10 * np.maximum(1.0, np.abs(ref_scores)))
        assert np.all(np.abs(objective - ref_objective) <= 1e-8)
        est = mmle(y)
        assert abs(est.tau - tau_ref) <= 1e-12 * tau_ref
        assert np.array_equal(est.diagnostics["objective"], _tau_sweep(y, est.diagnostics["grid"])[1])

    @pytest.mark.parametrize("name", list(SWEEP_INPUTS))
    def test_degree(self, name):
        # 32 nodes resolve the score for n up to a few thousand; n = 10,000 needs 64
        y = SWEEP_INPUTS[name]()
        assert mmle(y).diagnostics["nodes"] == (64 if y.size == 10_000 else 32)

    @pytest.mark.parametrize("name", list(SWEEP_INPUTS) + [f"crit09_{i}" for i in range(20)])
    def test_roots_match_a_fine_exact_sweep(self, name):
        y = SWEEP_INPUTS[name]() if name in SWEEP_INPUTS else crit09_data(int(name[7:]))
        d = mmle(y).diagnostics
        grid = np.geomspace(1.0 / y.size, 1.0, 2000)
        scores, _ = _tau_sweep(y, grid)
        change = np.flatnonzero(np.sign(scores[:-1]) != np.sign(scores[1:]))
        roots = np.array(d["candidates"][2:])
        assert roots.size == change.size
        assert np.all((grid[change] <= roots) & (roots <= grid[change + 1]))
        assert all(lo < r < hi for (lo, hi), r in zip(d["sign_changes"], roots))
        assert d["local_maxima"] == int(np.sum(scores[change] > 0.0))

    @pytest.mark.parametrize("name", list(SWEEP_INPUTS))
    def test_interior_estimate_zeroes_the_score(self, name):
        y = SWEEP_INPUTS[name]()
        est = mmle(y)
        d = est.diagnostics
        assert d["score_at_estimate"] == float(np.sum(score_m(y, est.tau)))
        if not d["at_boundary"]:
            # float noise: measured below 1e-16 of the summands' total magnitude
            assert abs(d["score_at_estimate"]) <= 1e-13 * np.sum(np.abs(score_m(y, est.tau)))

    def test_memory_does_not_grow_with_n(self):
        def peak(n):
            return traced_peak(mmle, _sparse(11, n, n // 100, 5.0))[1]

        assert peak(50_000) <= 1.5 * peak(10_000)

    def test_peak_memory_at_ten_thousand(self):
        peak = traced_peak(mmle, _sparse(11, 10_000, 100, 5.0))[1]
        assert peak <= 35e6


class TestSimpleEstimator:
    def test_five_exceedances(self):
        n = 400
        Y = np.zeros(n)
        Y[:5] = 2.0 * math.sqrt(2 * math.log(n))
        est = simple_estimator(Y, c1=2.0, c2=1.0)
        assert est.tau == 5.0 / 800.0
        assert est.method is TauMethod.SIMPLE
        assert est.diagnostics["count"] == 5

    def test_null_data_clamps_to_floor(self):
        est = simple_estimator(np.zeros(400), c1=2.0)
        # one phantom exceedance over 800 falls below 1/400, so it clamps
        assert est.tau == 1.0 / 400

    def test_saturated_count(self):
        Y = np.full(400, 50.0)
        assert simple_estimator(Y, c1=2.0).tau == 0.5

    def test_threshold_constant_reachable(self):
        # c2 scales the threshold inside the square root
        n = 400
        Y = np.zeros(n)
        Y[:7] = 1.2 * math.sqrt(2 * math.log(n))
        loose = simple_estimator(Y, c1=2.0, c2=1.0)
        tight = simple_estimator(Y, c1=2.0, c2=2.0)
        assert loose.diagnostics["count"] == 7
        assert tight.diagnostics["count"] == 0

    def test_parameter_validation(self):
        Y = np.zeros(10)
        with pytest.raises(ValueError):
            simple_estimator(Y, c1=0.5)
        with pytest.raises(ValueError):
            simple_estimator(Y, c2=0.0)


class TestFixedTau:
    def test_wraps_value(self):
        est = fixed_tau(0.25)
        assert est.tau == 0.25
        assert est.method is TauMethod.FIXED


class TestSparseCalibration:
    """Monte Carlo checks that the MMLE tracks the sparsity level."""

    def test_mmle_scales_with_sparsity(self):
        n, p = 400, 20
        rate = SparsityRate(n=n, p=p)
        signal = 5.0 * math.sqrt(2 * math.log(n))
        hits_c1, hits_c5 = 0, 0
        reps = 50
        for rep in range(reps):
            rng = np.random.default_rng([97, rep])
            theta = np.zeros(n)
            theta[:p] = signal
            Y = theta + rng.standard_normal(n)
            est = mmle(Y)
            assert est.tau >= 1.0 / n
            if est.tau <= 5.0 * rate.tau_n:
                hits_c1 += 1
            report = excessive_bias_diagnostic(theta)
            p_eff = max(report.p_tilde, 1)
            tn_eff = SparsityRate(n=n, p=p_eff).tau_n
            if tn_eff / 10.0 <= est.tau <= 10.0 * tn_eff:
                hits_c5 += 1
        assert hits_c1 >= int(0.95 * reps)
        assert hits_c5 >= int(0.90 * reps)

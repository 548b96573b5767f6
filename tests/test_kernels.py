"""Tests for the quadrature kernels and posterior moment formulas."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from hsuq import kernels
from hsuq.credible import interval_batch
from hsuq.kernels import (
    KERNEL_ORDERS,
    SCORE_UPPER_BOUND,
    GlobalScale,
    KernelOrder,
    SparsityRate,
    expansion_Hk,
    integral_Ik,
    kappa_threshold,
    log_integral_Ik,
    log_marginal_density,
    log_marginal_lik,
    marginal_density,
    posterior_mean,
    posterior_variance,
    score_m,
    zeta,
)
from hsuq.posterior import PosteriorBatch

from _oracles import (
    kappa_bisect,
    legendre_panel_interp,
    midpoint_Ik,
    mp_H,
    mp_kernel_integrals,
    mp_posterior_variance,
    nested_posterior_moments,
    quad_H,
    series_H_half,
    theta_prior,
)


class TestKernelIntegral:
    def test_origin_closed_form(self):
        # At y = 0 the k = -1/2 member reduces to an arctangent.
        for tau in [0.05, 0.1, 0.3, 0.7, 0.95]:
            r = math.sqrt(1.0 - tau * tau)
            expect = 2.0 / (tau * r) * math.atan(r / tau)
            assert_allclose(integral_Ik(0.0, tau, -0.5), expect, rtol=1e-12)

    def test_origin_special_points(self):
        assert_allclose(integral_Ik(0.0, 1.0, -0.5), 2.0, rtol=1e-12)
        assert_allclose(integral_Ik(0.0, 1.0 / math.sqrt(2.0), -0.5), math.pi, rtol=1e-12)

    def test_midpoint_oracle(self):
        got = integral_Ik(3.0, 0.1, 0.5)
        assert_allclose(got, 23.202123507578523, rtol=1e-8)  # frozen oracle value
        assert_allclose(got, midpoint_Ik(3.0, 0.1, 0.5), rtol=1e-8)

    def test_log_form_matches_direct(self):
        for y in [0.0, 1.0, 4.0, 8.0]:
            for tau in [1e-3, 0.2, 1.0]:
                for k in KERNEL_ORDERS:
                    direct = math.log(integral_Ik(y, tau, k))
                    assert_allclose(log_integral_Ik(y, tau, k), direct, rtol=1e-11)

    def test_log_form_survives_large_y(self):
        # Direct evaluation overflows near |y| ~ 38; the log form must not.
        v = log_integral_Ik(50.0, 0.01, -0.5)
        assert np.isfinite(v)
        assert v > 1000.0

    def test_derivative_identity(self):
        # d/dy I_k(y) = y * I_{k+1}(y), checked by central differences.
        h = 1e-5
        for tau in [0.01, 0.2, 0.9]:
            for y in [0.3, 1.0, 2.5, 6.0]:
                for k in KERNEL_ORDERS[:-1]:
                    fd = (integral_Ik(y + h, tau, k) - integral_Ik(y - h, tau, k)) / (2 * h)
                    assert_allclose(fd, y * integral_Ik(y, tau, k + 1.0), rtol=1e-6)

    def test_orders_decrease(self):
        # z^k weights shrink on (0, 1), so the integral is decreasing in k.
        for tau in [0.05, 0.5]:
            vals = [integral_Ik(2.0, tau, k) for k in KERNEL_ORDERS]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_even_in_y(self):
        assert_allclose(integral_Ik(-2.5, 0.1, 0.5), integral_Ik(2.5, 0.1, 0.5), rtol=1e-13)

    @pytest.mark.parametrize("tau", [1.5e-154, 1e-12, 1e-4, 0.05, 0.5, 1.0])
    def test_mpmath_atlas(self, tau):
        # one pass on the one layout, against 30-digit Gauss-Legendre sums
        # with breakpoints at the knee (tau 4^j) and in the layer (1 - 2^-j)
        ref = mp_kernel_integrals(tau, [0.0, 0.5, 2.0, 5.0, 10.0, 20.0, 37.0, 50.0, 200.0])
        for y, vals in ref.items():
            for k, v in zip(KERNEL_ORDERS, vals):
                if y <= 37.0:
                    for sign in (1.0, -1.0):
                        assert_allclose(integral_Ik(sign * y, tau, k), float(v), rtol=1e-12)
                assert_allclose(log_integral_Ik(y, tau, k), float(mp.log(v)), rtol=1e-14)

    def test_overflows_to_inf_past_the_float_range(self):
        assert math.isfinite(integral_Ik(37.8, 0.5, -0.5))
        with np.errstate(over="ignore"):
            assert integral_Ik(37.9, 0.5, -0.5) == math.inf
            assert integral_Ik(1e100, 0.5, 3.5) == math.inf

    def test_scalar_contract(self):
        assert integral_Ik([3.0], 0.1, 0.5) == integral_Ik(3.0, 0.1, 0.5)
        with pytest.raises(ValueError, match="too many values"):
            integral_Ik([1.0, 2.0], 0.1, 0.5)
        # the checks run in order: tau, then k, then y
        with pytest.raises(ValueError, match="^tau must lie in"):
            integral_Ik(np.nan, 2.0, 0.7)
        with pytest.raises(ValueError, match="^kernel order must be one of"):
            integral_Ik(np.nan, 0.1, 0.7)
        with pytest.raises(ValueError, match="value not finite"):
            integral_Ik(np.nan, 0.1, 0.5)


@pytest.mark.parametrize("name", [
    "marginal_density", "log_marginal_density", "log_marginal_lik", "log_integral_Ik",
    "score_m", "posterior_mean", "posterior_variance",
])
def test_array_entry_points_name_the_nonfinite_coordinate(name):
    args = (0.1, 0.5) if name == "log_integral_Ik" else (0.1,)
    with pytest.raises(ValueError, match="coordinate 1: value not finite"):
        getattr(kernels, name)(np.array([0.5, np.nan]), *args)


# every entry point that grades its quadrature panels by |y|; each call
# must raise, since for |y| > 1.34e154 the square of y overflows
_HUGE_Y_CHILD = """
import numpy as np
from hsuq import credible, kernels, tau
from hsuq.posterior import PosteriorBatch
calls = {
    "log_marginal_lik": lambda y: kernels.log_marginal_lik(y, 0.1),
    "log_integral_Ik": lambda y: kernels.log_integral_Ik(y, 0.1, 0.5),
    "PosteriorBatch": lambda y: PosteriorBatch(y, 0.1),
    "interval_batch": lambda y: credible.interval_batch(y, 0.1, 0.05),
    "mmle": tau.mmle,
    "expansion_Hk": lambda y: kernels.expansion_Hk(y[1], 0.5),
}
for name in ("marginal_density", "log_marginal_density", "score_m", "posterior_mean",
             "posterior_variance"):
    calls[name] = lambda y, f=getattr(kernels, name): f(y, 0.1)
for big in (1e155, 1e300):
    for name, call in calls.items():
        try:
            call(np.array([0.5, -big]))
            outcome = "returned"
        except ValueError:
            outcome = "ValueError"
        print(name, big, outcome, flush=True)
"""


def test_huge_observations_raise_in_time():
    # in a child process, so a call that never returns fails the test
    # at the timeout instead of stalling the suite
    src = Path(kernels.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        proc = subprocess.run([sys.executable, "-c", _HUGE_Y_CHILD], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"an entry point hung; finished before it:\n{exc.stdout}")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 22
    assert [line for line in lines if not line.endswith("ValueError")] == []


def test_tiny_tau_raises_below_the_normal_range():
    # the prior factor divides by tau^2 + (1 - tau^2) u^2, which underflows
    # once tau^2 is subnormal; just above that floor the answers hold
    calls = {
        "integral_Ik": lambda t: integral_Ik(3.0, t, 0.5),
        "log_integral_Ik": lambda t: log_integral_Ik([0.0, 3.0], t, 0.5),
        "log_marginal_lik": lambda t: log_marginal_lik([0.0, 3.0], t),
        "PosteriorBatch": lambda t: PosteriorBatch([0.0, 3.0, 50.0], t),
        "interval_batch": lambda t: interval_batch([0.0, 3.0, 50.0], t, 0.05),
    }
    for name in ("marginal_density", "log_marginal_density", "score_m", "posterior_mean",
                 "posterior_variance"):
        calls[name] = lambda t, f=getattr(kernels, name): f(np.array([0.0, 3.0]), t)
    for tau in [1e-160, 1e-300]:
        for name, call in calls.items():
            with pytest.raises(ValueError, match=f"^tau = {tau:g} is out of range"):
                call(tau)
    tau = 1.5e-154
    assert_allclose(posterior_mean(3.0, tau) / tau, 22.531090747579636, rtol=1e-14)


class TestMarginalDensity:
    def test_normalizes(self):
        for tau in [0.05, 1.0]:
            total = quad(lambda y: marginal_density(y, tau), -np.inf, np.inf,
                         epsabs=1e-12, epsrel=1e-10, limit=400)[0]
            assert_allclose(total, 1.0, atol=1e-8)

    def test_value_at_origin(self):
        assert_allclose(marginal_density(0.0, 1.0), 2.0 / (math.pi * math.sqrt(2 * math.pi)),
                        rtol=1e-12)

    def test_symmetric_positive(self):
        y = np.linspace(-6, 6, 41)
        d = marginal_density(y, 0.1)
        assert np.all(d > 0)
        assert_allclose(d, d[::-1], rtol=1e-12)

    def test_log_matches(self):
        y = np.array([0.0, 1.5, 5.0, 30.0])
        ld = log_marginal_density(y, 0.02)
        assert_allclose(ld[:3], np.log(marginal_density(y[:3], 0.02)), rtol=1e-12)
        assert np.isfinite(ld[3])

    def test_loglik_against_pointwise_oracle(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=50) * 2.0
        tau = 0.15
        oracle = sum(
            math.log(tau / math.pi * midpoint_Ik(v, tau, -0.5, n=200_000)
                     * math.exp(-v * v / 2) / math.sqrt(2 * math.pi))
            for v in y
        )
        assert_allclose(log_marginal_lik(y, tau), oracle, rtol=1e-8)

    def test_loglik_permutation_invariant(self):
        y = np.array([0.4, -2.0, 3.3, 0.0])
        assert log_marginal_lik(y, 0.3) == pytest.approx(log_marginal_lik(y[::-1], 0.3))

    def test_loglik_rejects_empty(self):
        with pytest.raises(ValueError):
            log_marginal_lik(np.array([]), 0.3)


class TestScoreFunction:
    def test_matches_scale_derivative_of_loglik(self):
        # score(y) equals tau * d/dtau log marginal(y), by construction.
        h = 1e-6
        for tau in [0.01, 0.3, 0.9]:
            for y in [0.0, 1.7, 5.0]:
                fd = (log_marginal_density(y, tau * (1 + h))
                      - log_marginal_density(y, tau * (1 - h))) / (2 * h * tau)
                assert_allclose(score_m(y, tau), tau * fd, atol=5e-6)

    def test_bounds_on_scan(self):
        y = np.linspace(0.0, 30.0, 301)
        for tau in np.geomspace(1e-6, 1.0, 41):
            m = score_m(y, float(tau))
            assert np.all(m < SCORE_UPPER_BOUND)
            assert np.all(m >= -1.0 - 1e-12)

    def test_origin_value_tau_one(self):
        assert_allclose(score_m(0.0, 1.0), -1.0 / 3.0, rtol=1e-12)

    def test_origin_small_tau(self):
        # score(0) ~ -2*tau/pi as tau -> 0
        tau = 1e-4
        ratio = score_m(0.0, tau) / (-2.0 * tau / math.pi)
        assert 0.999 < ratio < 1.0001
        assert_allclose(ratio, 0.9999065913965162, rtol=1e-9)  # frozen regression value

    def test_at_threshold_small_tau(self):
        tau = 1e-4
        z = zeta(tau)
        m = score_m(z, tau)
        assert_allclose(m, 0.04122771833268974, rtol=1e-9)  # frozen regression value
        # Normalized against the 2/(pi*zeta^2) limit the ratio must drift
        # down toward 1 as tau shrinks, staying above it the whole way.
        ratios = []
        for t in [1e-2, 1e-4, 1e-8, 1e-16]:
            zz = zeta(t)
            ratios.append(score_m(zz, t) * math.pi * zz * zz / 2.0)
        assert all(r > 1.0 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.05

    def test_tends_to_one_for_large_y(self):
        tau = 1e-3
        m = score_m(6.0, tau)
        assert abs(m - 1.0) < 1.0 / zeta(tau) ** 2
        assert_allclose(m, 0.999216099509408, rtol=1e-9)  # frozen regression value

    def test_monotone_in_y(self):
        y = np.linspace(0.0, 60.0, 601)
        for tau in [1e-4, 1e-2, 0.5, 1.0]:
            m = score_m(y, tau)
            assert np.all(np.diff(m) >= -1e-10)

    def test_even_in_y(self):
        assert_allclose(score_m(-3.0, 0.05), score_m(3.0, 0.05), rtol=1e-12)


class TestPosteriorMoments:
    def test_mean_odd_and_zero_at_origin(self):
        assert posterior_mean(0.0, 0.3) == 0.0
        assert_allclose(posterior_mean(-1.8, 0.1), -posterior_mean(1.8, 0.1), rtol=1e-12)

    def test_mean_against_double_quadrature(self):
        mean, var = nested_posterior_moments(1.5, 0.05)
        assert_allclose(posterior_mean(1.5, 0.05), mean, atol=1e-6)
        assert_allclose(posterior_variance(1.5, 0.05), var, atol=1e-6)
        # frozen values from the same oracle
        assert_allclose(mean, 0.06935853844614423, rtol=1e-10)
        assert_allclose(var, 0.08963607187141129, rtol=1e-10)

    def test_mean_never_expands(self):
        y = np.linspace(-12, 12, 49)
        for tau in [1e-3, 0.1, 1.0]:
            assert np.all(np.abs(posterior_mean(y, tau)) <= np.abs(y) + 1e-12)

    def test_mean_close_to_identity_past_threshold(self):
        for tau, y in [(0.1, 10.0), (1e-3, 8.0)]:
            gap = abs(posterior_mean(y, tau) - y)
            assert gap <= 2.0 / zeta(tau)

    def test_mean_tiny_for_small_signals(self):
        tau = 0.01
        for y in [0.1, 0.5, 1.0, 2.0]:
            assert abs(posterior_mean(y, tau)) <= tau * abs(y) * math.exp(y * y / 2)

    def test_mean_gap_logarithmic_at_moderate_scale(self):
        tau = 0.5
        for y in np.linspace(3.0, 30.0, 28):
            assert abs(posterior_mean(float(y), tau) - y) <= 4.0 * math.log(y) / y

    def test_variance_at_origin_unit_scale(self):
        assert_allclose(posterior_variance(0.0, 1.0), 1.0 / 3.0, rtol=1e-12)

    def test_variance_positive_and_bounded(self):
        y = np.linspace(-15, 15, 61)
        for tau in [1e-4, 0.2, 1.0]:
            v = posterior_variance(y, tau)
            assert np.all(v > 0)
            assert np.all(v <= 1.0 + y * y + 1e-9)

    def test_variance_near_one_past_threshold(self):
        tau = 1e-3
        assert abs(posterior_variance(8.0, tau) - 1.0) <= 1.0 / zeta(tau) ** 2

    @pytest.mark.parametrize("y, tau", [(1.25, 1e-6), (0.5, 1e-6), (3.0, 1e-6),
                                        (1.25, 0.01), (8.0, 1e-6), (30.0, 0.01),
                                        (0.3, 0.4), (1.25, 0.5), (6.0, 0.7),
                                        (3.0, 0.9), (0.5, 1.0)])
    def test_central_moments_against_mpmath(self, y, tau):
        # at tiny tau and small |y| the weight z sits near 0, where moments
        # of w = 1 - z cancel; the variance must keep full precision there,
        # and on the knee panels that tau >= 0.4 grades too
        assert_allclose(posterior_variance(y, tau), mp_posterior_variance(y, tau), rtol=1e-12)

    def test_mean_from_density_gradient(self):
        # posterior mean = y + d/dy log marginal, an identity worth its own check
        h = 1e-5
        for tau in [0.05, 0.6]:
            for y in [0.7, 2.2, 5.5]:
                fd = (log_marginal_density(y + h, tau)
                      - log_marginal_density(y - h, tau)) / (2 * h)
                assert_allclose(posterior_mean(y, tau), y + fd, atol=1e-7)

    def test_vectorized_shapes(self):
        y = np.linspace(-3, 3, 12).reshape(3, 4)
        assert posterior_mean(y, 0.1).shape == (3, 4)
        assert posterior_variance(y, 0.1).shape == (3, 4)
        assert score_m(y.ravel(), 0.1).shape == (12,)
        assert isinstance(posterior_mean(1.0, 0.1), float)

    def test_mean_is_row_local(self):
        # zeros beside y = 1 leave the layout as it is; a BLAS product gave
        # ...388, ...385 or ...3844 by position and length, so the moment
        # contraction must not mix rows
        means = set()
        for n in range(1, 13):
            for pos in range(n):
                y = np.zeros(n)
                y[pos] = 1.0
                means.add(float(posterior_mean(y, 0.0625)[pos]))
        assert means == {posterior_mean(1.0, 0.0625)}


class TestKappaThreshold:
    def test_defining_identity(self):
        for tau in [0.01, 0.1, 0.25, 1e-6]:
            k = kappa_threshold(tau)
            assert_allclose(math.exp(k * k / 2) / (k * k / 2) * tau, 1.0, rtol=1e-10)

    def test_bisection_oracle(self):
        assert_allclose(kappa_threshold(0.01), kappa_bisect(0.01), atol=1e-10)
        assert_allclose(kappa_threshold(0.01), 3.5979925303963616, rtol=1e-12)
        assert_allclose(kappa_threshold(1e-4), 4.830551631556453, rtol=1e-12)

    def test_branch_boundary(self):
        assert_allclose(kappa_threshold(1.0 / math.e), math.sqrt(2.0), rtol=1e-12)

    def test_rejects_large_tau(self):
        with pytest.raises(ValueError):
            kappa_threshold(0.4)

    def test_monotone_and_above_zeta(self):
        taus = [0.3, 0.1, 1e-2, 1e-4, 1e-8]
        ks = [kappa_threshold(t) for t in taus]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        for t, k in zip(taus, ks):
            assert k >= max(math.sqrt(2.0), zeta(t)) - 1e-12


class TestExpansionHk:
    def test_series_oracle(self):
        y = math.sqrt(2.0)
        assert_allclose(expansion_Hk(y, 0.5), series_H_half(1.0), rtol=1e-12)
        assert_allclose(expansion_Hk(y, 0.5), 2.9253034918143626, rtol=1e-12)

    def test_quadrature_oracle(self):
        for y, k in [(2.0, -0.5), (3.0, 1.5), (1.2, 0.5), (6.0, 3.5)]:
            assert_allclose(expansion_Hk(y, k), quad_H(y, k), rtol=1e-9)

    def test_frozen_values(self):
        assert_allclose(expansion_Hk(2.0, -0.5), 3.5519732565361193, rtol=1e-12)
        assert_allclose(expansion_Hk(3.0, 1.5), 17.3821955049322, rtol=1e-12)

    def test_small_argument_series(self):
        # H_k(y) -> 1/k + (y^2/2)/(k+1) + ... for k > 0
        for k in [0.5, 1.5, 2.5, 3.5]:
            for y in [1e-4, 1e-2]:
                x = y * y / 2
                expect = 1.0 / k + x / (k + 1.0) + x * x / (2 * (k + 2.0))
                assert_allclose(expansion_Hk(y, k), expect, rtol=1e-10)

    def test_negative_order_small_argument_limit(self):
        # For k = -1/2 the small-y limit is -2 (lower-endpoint dominated).
        assert_allclose(expansion_Hk(1e-4, -0.5), -2.0, atol=1e-3)
        assert_allclose(expansion_Hk(1e-3, -0.5), -2.00029177284393879, rtol=1e-14)

    @pytest.mark.parametrize("k", KERNEL_ORDERS)
    def test_mpmath_atlas(self, k):
        for y in [1e-3, 0.1, 0.5, 1.0, 1.2, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 37.0]:
            assert_allclose(expansion_Hk(y, k), mp_H(y, k), rtol=1e-14)

    def test_finite_up_to_overflow(self):
        # exp(x) / x at x = 714.42 is still below the largest float
        assert math.isfinite(expansion_Hk(37.8, 0.5))
        for y in [37.9, 1e10, 1e150]:
            with pytest.raises(OverflowError) as info:
                expansion_Hk(y, 0.5)
            assert str(info.value).endswith(f"at |y| = {y:g}")

    def test_large_argument_leading_order(self):
        x = 50.0
        ratio = expansion_Hk(10.0, 0.5) / (math.exp(x) / x)
        assert 1.0 < ratio < 1.05

    def test_decreasing_in_order(self):
        vals = [expansion_Hk(3.0, k) for k in KERNEL_ORDERS]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_is_limit_point(self):
        assert_allclose(expansion_Hk(0.0, 1.5), 1.0 / 1.5, rtol=1e-14)
        with pytest.raises(ValueError):
            expansion_Hk(0.0, -0.5)


class TestPanelInterp:
    # the panel ends, the floats next to them, and 1,000 interior points
    S = np.r_[-1.0, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), 1.0,
              np.random.default_rng(5).uniform(-1.0, 1.0, 1000)]

    @staticmethod
    def smooth(rng, m, spread=3.0):
        """m rows of positive node values exp(a x + b x^2) of smooth shapes."""
        a, b = rng.normal(0.0, spread, (2, m, 1))
        return np.exp(a * kernels._REF_X + b * kernels._REF_X ** 2)

    def test_matches_the_recurrence(self):
        # the old form built the Legendre values, integrals and slopes degree
        # by degree; both round differently but agree to 1e-13 of the node
        # values. For rough node values the slope, up to 15^2 max|f| by
        # Markov's inequality, is pinned to 1e-13 of that scale
        rng = np.random.default_rng(9)
        m = self.S.size
        for f, slope_scale in ((self.smooth(rng, m), 1.0), (rng.uniform(-1.0, 1.0, (m, 16)), 225.0)):
            dev = np.abs(kernels._panel_interp(f, self.S) - legendre_panel_interp(f, self.S))
            dev /= np.abs(f).max(axis=1)
            assert dev[:2].max() <= 1e-13
            assert dev[2].max() <= 1e-13 * slope_scale

    def test_integral_starts_at_zero(self):
        # exactly 0 at a panel's left edge, and not negative just right of it
        # where the polynomial is positive at -1 (a steep shape's can dip
        # below 0 there: one spread 3 row has p(-1) = -563, max f 7.9e5)
        rng = np.random.default_rng(10)
        f = np.vstack([self.smooth(rng, 200, spread=1.5), np.zeros((1, 16)), np.ones((1, 16))])
        at = kernels._panel_interp(f, np.full(len(f), -1.0))[0]
        assert np.all(at == 0.0)
        right = kernels._panel_interp(f, np.full(len(f), np.nextafter(-1.0, 0.0)))[0]
        assert np.all(right >= 0.0) and np.all(right[:-2] > 0.0)

    def test_each_row_is_its_own_product(self):
        # a row's result does not depend on the rows computed with it
        rng = np.random.default_rng(11)
        f, s = rng.uniform(-1.0, 1.0, (300, 16)), rng.uniform(-1.0, 1.0, 300)
        whole = kernels._panel_interp(f, s)
        for i in (0, 1, 150, 299):
            assert np.array_equal(kernels._panel_interp(f[i:i + 1], s[i:i + 1])[:, 0], whole[:, i])

    def test_matrix_is_exact_legendre_algebra(self):
        # each Q_k (s + 1) and P'_k, from the matrix, against numpy's legint and legder
        leg = np.polynomial.legendre
        s = np.linspace(-1.0, 1.0, 7)
        weights = (leg.legvander(s, 15) @ kernels._INTERP).reshape(7, 3, 16)
        for k in range(16):
            e = np.eye(16)[k]
            node = leg.legvander(kernels._REF_X, 15)[:, k]  # P_k at the nodes
            q, val, slope = (weights @ node).T
            assert_allclose((s + 1.0) * q, leg.legval(s, leg.legint(e, lbnd=-1.0)), atol=1e-13)
            assert_allclose(val, leg.legval(s, e), atol=1e-13)
            assert_allclose(slope, leg.legval(s, leg.legder(e)), atol=1e-11)


class TestThetaPrior:
    """The closed-form marginal prior p(theta) = e^x E1(x) / (tau sqrt(2 pi^3))."""

    LOG_NORM = 0.5 * math.log(2.0 * math.pi**3)

    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.01, 1e-4])
    def test_matches_quadrature_over_the_local_scale(self, tau):
        # theta / tau from 1e-3 to 3e5 reaches both sides of the series switch
        theta = np.concatenate([tau * np.array([1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 37.0, 38.0, 100.0]),
                                [0.7, 5.0, 30.0]])
        got = np.exp(kernels._log_prior(theta, tau))
        assert_allclose(got, [theta_prior(t, tau) for t in theta], rtol=1e-13)

    def test_continuous_across_the_series_switch(self):
        # e^x E1(x) from exp1 up to x = 700 and from its asymptotic series
        # above, each within a few ulp of 40-digit mpmath on both sides
        tau = 0.3
        x = 700.0 * (1.0 + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3]))
        got = np.exp(kernels._log_prior(tau * np.sqrt(2.0 * x), tau) + math.log(tau) + self.LOG_NORM)
        with mp.workdps(40):
            want = [float(mp.exp(mp.mpf(v)) * mp.e1(mp.mpf(v))) for v in x]
        assert_allclose(got, want, rtol=5e-15)
        # no step at the switch: the neighbours' ratio is mpmath's
        assert abs(got[3] / got[2] - want[3] / want[2]) < 5e-15

    def test_even_and_decreasing_in_theta(self):
        # at tau = 1e-150, theta / tau passes 1.34e154, where x = theta^2 / (2 tau^2)
        # overflows
        theta = np.geomspace(1e-12, 1e6, 200)
        for tau in (0.2, 1e-150):
            lp = kernels._log_prior(theta, tau)
            assert np.all(np.isfinite(lp))
            assert np.array_equal(lp, kernels._log_prior(-theta, tau))
            assert np.all(np.diff(lp) < 0.0)

    @pytest.mark.parametrize("tau", [1.0, 1e-100, 1e-153])
    def test_matches_the_asymptote_past_the_square_overflow(self, tau):
        # p(theta) -> 2 tau / (theta^2 sqrt(2 pi^3)) as x -> inf, to relative 1/x
        theta = tau * np.array([1e150, 1e160, 1e200])
        want = np.log(2.0 * tau) - 2.0 * np.log(theta) - self.LOG_NORM
        assert_allclose(kernels._log_prior(theta, tau), want, rtol=1e-14)


class TestTypes:
    def test_global_scale_validation(self):
        assert GlobalScale(1.0).tau == 1.0
        for bad in [0.0, -0.2, 1.5, math.nan]:
            with pytest.raises(ValueError):
                GlobalScale(bad)

    def test_global_scale_zeta(self):
        g = GlobalScale(0.1)
        assert_allclose(g.zeta, math.sqrt(2 * math.log(10.0)), rtol=1e-14)
        assert GlobalScale(1.0).zeta == 0.0

    def test_zeta_function(self):
        assert zeta(1.0) == 0.0
        assert_allclose(zeta(0.01), math.sqrt(2 * math.log(100.0)), rtol=1e-14)

    def test_sparsity_rate(self):
        s = SparsityRate(p=20, n=400)
        assert_allclose(s.tau_n, 20.0 / 400.0 * math.sqrt(math.log(20.0)), rtol=1e-14)
        with pytest.raises(ValueError):
            SparsityRate(p=0, n=400)
        with pytest.raises(ValueError):
            SparsityRate(p=401, n=400)

    def test_kernel_order(self):
        assert KernelOrder(-0.5).k == -0.5
        with pytest.raises(ValueError):
            KernelOrder(1.0)

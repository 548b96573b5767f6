"""Tests for the Gibbs sampler and the hyperprior plumbing."""

import collections
import logging
import math

import mpmath as mp
import numpy as np
import numpy.testing as npt
import pytest

from _oracles import gamma_gibbs_step, traced_peak, trunc_invgamma_oracle
from hsuq import hierarchical
from hsuq.credible import ball_radius
from hsuq.hierarchical import (
    Chain,
    GibbsState,
    HyperPrior,
    HyperPriorKind,
    _ROWS,
    _TILE,
    _column_quantiles,
    gibbs_step,
    hb_ball,
    hb_marginal_intervals,
    mcse_mean,
    mcse_quantile,
    run_chain,
    verify_hyperprior,
)
from hsuq.kernels import GlobalScale, SparsityRate, _tau_sweep, posterior_mean, zeta
from hsuq.posterior import PosteriorBatch
from scipy.integrate import quad


def _mixed_data(n=12, seed=100):
    rng = np.random.default_rng(seed)
    return np.concatenate([np.full(3, 4.0), rng.standard_normal(n - 3)])


class _CountingRng:
    """Forwards to a Generator and counts the calls of each method."""

    def __init__(self, rng):
        self.rng, self.calls = rng, collections.Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


class _StubGammaRng(_CountingRng):
    """Every standard_gamma draw returns one fixed value."""

    def __init__(self, rng, value):
        super().__init__(rng)
        self.value = value

    def standard_gamma(self, shape):
        return self.value


class _ZeroExponentialRng(_CountingRng):
    """The k-th array (or, with scalar=True, the k-th scalar) of standard
    exponentials has a 0 as its first entry."""

    def __init__(self, rng, k, scalar=False):
        super().__init__(rng)
        self.k, self.scalar = k, scalar

    def standard_exponential(self, *args, **kwargs):
        out = self.rng.standard_exponential(*args, **kwargs)
        if np.ndim(out) == 0 and self.scalar:
            self.k -= 1
            if self.k == 0:
                return 0.0
        elif np.ndim(out) and not self.scalar:
            self.k -= 1
            if self.k == 0:
                out[0] = 0.0
        return out


class TestHyperPrior:
    def test_factories_set_kinds(self):
        assert HyperPrior.half_cauchy().kind is HyperPriorKind.HALF_CAUCHY
        assert HyperPrior.truncated_half_cauchy().kind is HyperPriorKind.TRUNCATED_HALF_CAUCHY
        assert HyperPrior.truncated_uniform().kind is HyperPriorKind.TRUNCATED_UNIFORM
        pm = HyperPrior.point_mass(0.1)
        assert pm.kind is HyperPriorKind.POINT_MASS
        assert pm.tau0 == 0.1

    def test_truncated_support(self):
        n = 50
        assert HyperPrior.truncated_uniform().support(n) == (1.0 / n, 1.0)
        assert HyperPrior.truncated_half_cauchy().support(n) == (1.0 / n, 1.0)
        lo, hi = HyperPrior.half_cauchy().support(n)
        assert lo == 0.0 and math.isinf(hi)

    @pytest.mark.parametrize("prior", [
        HyperPrior.half_cauchy(),
        HyperPrior.truncated_half_cauchy(),
        HyperPrior.truncated_uniform(),
    ])
    def test_density_integrates_to_one(self, prior):
        n = 50
        lo, hi = prior.support(n)
        hi = min(hi, np.inf)
        total, _ = quad(lambda t: prior.density(t, n), lo, hi)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_zero_outside_truncation(self):
        prior = HyperPrior.truncated_half_cauchy()
        assert prior.density(1.5, 50) == 0.0
        assert prior.density(0.001, 50) == 0.0

    def test_point_mass_has_no_density(self):
        with pytest.raises(ValueError, match="density"):
            HyperPrior.point_mass(0.1).density(0.1, 50)

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperPrior.point_mass(0.0)
        with pytest.raises(ValueError):
            HyperPrior(HyperPriorKind.HALF_CAUCHY, tau0=0.5)


class TestGibbsStep:
    def test_theta_conditional_is_the_stated_normal(self):
        # Repeatedly sweeping from the same input state draws theta from
        # its conditional given the frozen scales, so the sample moments
        # must match Normal(w*Y, w) coordinate by coordinate.
        Y = np.array([3.0, -1.0, 0.0, 5.0, 0.4, -2.5])
        lam2 = np.array([4.0, 1.0, 0.25, 9.0, 0.5, 2.0])
        tau = 0.5
        state = GibbsState(
            theta=np.zeros(6), lambda2=lam2, nu=np.ones(6), tau2=tau * tau, xi=1.0,
        )
        prior = HyperPrior.point_mass(tau)
        rng = np.random.default_rng(17)
        S = 4000
        draws = np.empty((S, 6))
        for s in range(S):
            draws[s] = gibbs_step(state, Y, prior, rng).theta
        w = lam2 * tau * tau / (1.0 + lam2 * tau * tau)
        mean_tol = 4.0 * np.sqrt(w / S)
        var_tol = 4.0 * w * math.sqrt(2.0 / (S - 1))
        npt.assert_array_less(np.abs(draws.mean(axis=0) - w * Y), mean_tol)
        npt.assert_array_less(np.abs(draws.var(axis=0, ddof=1) - w), var_tol)

    def test_point_mass_never_moves_tau(self):
        Y = _mixed_data()
        chain = run_chain(Y, HyperPrior.point_mass(0.17), iters=600, burn_in=100, seed=2)
        assert np.all(chain.taus == 0.17)

    def test_input_state_is_untouched(self):
        state = GibbsState(
            theta=np.zeros(4), lambda2=np.ones(4), nu=np.ones(4), tau2=0.01, xi=1.0,
        )
        theta_before = state.theta.copy()
        lambda2_before, nu_before = state.lambda2.copy(), state.nu.copy()
        gibbs_step(state, np.ones(4), HyperPrior.half_cauchy(), np.random.default_rng(0))
        npt.assert_array_equal(state.theta, theta_before)
        assert state.tau2 == 0.01
        npt.assert_array_equal(state.lambda2, lambda2_before)
        npt.assert_array_equal(state.nu, nu_before)
        assert state.xi == 1.0

    @pytest.mark.parametrize("shapes", [((4,), (3,), (4,)), ((4,), (4,), (5,)),
                                        ((2, 2), (2, 2), (2, 2))])
    def test_rejects_arrays_of_unequal_length_or_not_1d(self, shapes):
        theta, lam2, nu = (np.ones(s) for s in shapes)
        with pytest.raises(ValueError, match="1-D of one length") as err:
            GibbsState(theta=theta, lambda2=lam2, nu=nu, tau2=0.01, xi=1.0)
        for s in shapes:
            assert str(s) in str(err.value)

    def test_rejects_a_state_whose_length_is_not_the_data_length(self):
        # a length-1 state used to broadcast against Y into a length-5 state
        state = GibbsState(theta=np.zeros(1), lambda2=np.ones(1), nu=np.ones(1),
                           tau2=0.01, xi=1.0)
        with pytest.raises(ValueError, match="state has 1 coordinates but Y has 5"):
            gibbs_step(state, np.ones(5), HyperPrior.half_cauchy(), np.random.default_rng(0))

    @pytest.mark.parametrize("prior", [
        HyperPrior.truncated_half_cauchy(),
        HyperPrior.truncated_uniform(),
    ])
    def test_truncated_draws_stay_in_support(self, prior):
        Y = _mixed_data(n=40, seed=8)
        chain = run_chain(Y, prior, iters=2000, burn_in=200, seed=3)
        assert np.all(chain.taus >= 1.0 / 40)
        assert np.all(chain.taus <= 1.0)

    def test_underflowed_truncation_clamps_and_warns(self, caplog):
        # Huge data with a huge stale tau2 leaves the sweep with enormous
        # means over tiny local scales, so the tau2 conditional has all
        # its mass far above the truncation range and must clamp.
        state = GibbsState(
            theta=np.zeros(4), lambda2=np.ones(4),
            nu=np.full(4, 1e20), tau2=1e30, xi=1.0,
        )
        with caplog.at_level(logging.WARNING, logger="hsuq.hierarchical"):
            out = gibbs_step(state, np.full(4, 1e9), HyperPrior.truncated_half_cauchy(),
                             np.random.default_rng(0))
        assert out.tau2 == 1.0
        assert any("clamping" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("field", ["lambda2", "nu", "tau2", "xi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nan_and_infinite_scales(self, field, bad):
        kw = dict(theta=np.zeros(3), lambda2=np.ones(3), nu=np.ones(3), tau2=0.01, xi=1.0)
        if field in ("lambda2", "nu"):
            kw[field][1] = bad
        else:
            kw[field] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            GibbsState(**kw)

    def test_lower_tail_truncation_when_upper_tail_rounds_to_one(self, caplog):
        # The tau2 conditional that a null n=400 truncated_uniform chain
        # met: its bulk lies below lo, so Q(a, s/x) is 1.0 at both ends,
        # yet the mass in [lo, hi] is about 5e-18 and can be drawn from.
        from scipy.special import gammaincc

        from hsuq.hierarchical import _trunc_invgamma

        shape, scale, lo, hi = 199.5, 0.0006334328365138885, 1.0 / 400**2, 1.0
        assert gammaincc(shape, scale / lo) == gammaincc(shape, scale / hi) == 1.0
        rng = np.random.default_rng(43)
        N = 20_000
        with caplog.at_level(logging.WARNING, logger="hsuq.hierarchical"):
            draws = np.array([_trunc_invgamma(rng, shape, scale, lo, hi) for _ in range(N)])
        assert not any("clamping" in rec.message for rec in caplog.records)
        assert draws.min() >= lo and draws.max() <= hi
        assert np.any(draws > lo)

        def P(x):
            return mp.gammainc(shape, 0, scale / x, regularized=True)

        def cdf(x):
            with mp.workdps(40):
                return float((P(lo) - P(x)) / (P(lo) - P(hi)))

        for probe in (6.26e-6, 6.28e-6, 6.32e-6):
            emp = np.mean(draws <= probe)
            p = cdf(probe)
            assert 0.1 < p < 0.9
            assert abs(emp - p) <= 4.0 * math.sqrt(p * (1.0 - p) / N)

    @pytest.mark.parametrize("shape, scale, lo, hi, seed, probes, fallback", [
        # about 68% of the untruncated law lies in [lo, hi], so both the
        # untruncated first try and the inverse-CDF fallback run
        (3.0, 2.0, 0.5, 2.0, 41, (0.6, 1.0, 1.5), (0.2, 0.45)),
        # no truncation: the first try is always kept
        (4.5, 3.0, 0.0, math.inf, 44, (0.5, 0.8, 1.2), (0.0, 0.0)),
    ], ids=["partly-truncated", "untruncated"])
    def test_truncated_inverse_gamma_matches_analytic_cdf(self, shape, scale, lo, hi, seed,
                                                          probes, fallback):
        from scipy.special import gammaincc

        from hsuq.hierarchical import _trunc_invgamma

        rng = _CountingRng(np.random.default_rng(seed))
        N = 20_000
        draws = np.array([_trunc_invgamma(rng, shape, scale, lo, hi) for _ in range(N)])
        assert np.all(np.isfinite(draws)) and draws.min() > 0.0
        assert draws.min() >= lo and draws.max() <= hi
        assert rng.calls["standard_gamma"] == N
        assert fallback[0] * N <= rng.calls["random"] <= fallback[1] * N

        def F(t):
            return gammaincc(shape, scale / t) if t > 0.0 else 0.0

        def cdf(x):
            return (F(x) - F(lo)) / (F(hi) - F(lo))

        for probe in probes:
            emp = np.mean(draws <= probe)
            p = cdf(probe)
            assert 0.1 < p < 0.9
            assert abs(emp - p) <= 4.0 * math.sqrt(p * (1.0 - p) / N)

    TRUNCATIONS = [
        (3.0, 2.0, 0.5, 2.0),
        (199.5, 0.0006334328365138885, 1.0 / 400**2, 1.0),
        (4.5, 3.0, 0.0, math.inf),
    ]

    @pytest.mark.parametrize("shape, scale, lo, hi", TRUNCATIONS)
    @pytest.mark.parametrize("g", [0.0, math.inf])
    def test_a_zero_or_infinite_gamma_falls_back_inside_the_support(self, shape, scale,
                                                                    lo, hi, g):
        from hsuq.hierarchical import _trunc_invgamma

        rng = _StubGammaRng(np.random.default_rng(45), g)
        draws = np.array([_trunc_invgamma(rng, shape, scale, lo, hi) for _ in range(500)])
        assert rng.calls["random"] == 500
        assert np.all(np.isfinite(draws))
        assert np.all((draws >= lo) & (draws <= hi) & (draws > 0.0))

    @pytest.mark.parametrize("shape, scale, lo, hi", TRUNCATIONS)
    def test_truncated_draws_match_the_plain_oracle_bit_for_bit(self, shape, scale, lo, hi):
        from hsuq.hierarchical import _trunc_invgamma

        a, b = np.random.default_rng(46), np.random.default_rng(46)
        fast = [_trunc_invgamma(a, shape, scale, lo, hi) for _ in range(2000)]
        slow = [trunc_invgamma_oracle(b, shape, scale, lo, hi) for _ in range(2000)]
        assert fast == slow


class TestRunChain:
    def test_seed_determinism(self):
        Y = _mixed_data()
        a = run_chain(Y, HyperPrior.truncated_half_cauchy(), iters=500, burn_in=100, seed=11)
        b = run_chain(Y, HyperPrior.truncated_half_cauchy(), iters=500, burn_in=100, seed=11)
        npt.assert_array_equal(a.thetas, b.thetas)
        npt.assert_array_equal(a.taus, b.taus)

    def test_kept_count_respects_thinning(self):
        Y = _mixed_data()
        chain = run_chain(Y, HyperPrior.point_mass(0.1), iters=1300, burn_in=100, thin=3)
        assert chain.n_draws == 400
        assert chain.thin == 3

    def test_validation(self):
        Y = _mixed_data()
        with pytest.raises(ValueError):
            run_chain(Y, HyperPrior.point_mass(0.1), iters=100, burn_in=100)
        with pytest.raises(ValueError):
            run_chain(Y, HyperPrior.point_mass(0.1), iters=200, burn_in=100, thin=0)
        with pytest.raises(TypeError):
            run_chain(Y, "half_cauchy", iters=200, burn_in=100)
        with pytest.raises(ValueError):
            run_chain(np.array([1.0]), HyperPrior.point_mass(0.1), iters=200, burn_in=100)

    def test_fixed_tau_chain_reproduces_quadrature_means(self):
        # At a point-mass hyperprior the sampler targets the exact
        # fixed-tau posterior, so chain means must agree with quadrature
        # within Monte Carlo error.
        Y = _mixed_data()
        chain = run_chain(Y, HyperPrior.point_mass(0.1), iters=12000, burn_in=2000, seed=5)
        exact = posterior_mean(Y, 0.1)
        for i in range(Y.size):
            se = mcse_mean(chain.thetas[:, i])
            assert abs(chain.theta_mean[i] - exact[i]) <= 3.0 * se


class TestSweepGuards:
    ALL_PRIORS = [
        HyperPrior.half_cauchy(),
        HyperPrior.truncated_half_cauchy(),
        HyperPrior.truncated_uniform(),
        HyperPrior.point_mass(0.05),
    ]

    @pytest.mark.parametrize("seed, prior", enumerate(ALL_PRIORS))
    def test_chain_matches_gamma_draw_oracle_bit_for_bit(self, seed, prior, monkeypatch,
                                                         caplog):
        Y = _mixed_data(n=400, seed=31)
        with caplog.at_level(logging.WARNING, logger="hsuq.hierarchical"):
            fast = run_chain(Y, prior, iters=1500, burn_in=0, seed=seed)
            monkeypatch.setattr(hierarchical, "gibbs_step", gamma_gibbs_step)
            slow = run_chain(Y, prior, iters=1500, burn_in=0, seed=seed)
        assert not any("clamping" in rec.message for rec in caplog.records)
        npt.assert_array_equal(fast.thetas, slow.thetas)
        npt.assert_array_equal(fast.taus, slow.taus)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_a_zero_exponential_fails_the_chain(self, prior, monkeypatch):
        # the fifth array is sweep 3's lambda^2 draw: the zero makes one
        # lambda^2 infinite, so the next sweep's theta is NaN; the sweep
        # does not check its draws, run_chain does
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ZeroExponentialRng(make(seed), k=5))
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite theta"):
            run_chain(_mixed_data(), prior, iters=200, burn_in=100, seed=1)

    @pytest.mark.parametrize("prior", ALL_PRIORS)
    def test_a_zero_exponential_in_nu_leaves_the_chain_finite(self, prior, monkeypatch):
        # the fourth array is sweep 2's nu draw. An infinite nu enters the
        # next sweep only as 1/nu = 0, the limit of a huge draw, so no kept
        # draw goes bad and the chain runs on.
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ZeroExponentialRng(make(seed), k=4))
        with np.errstate(divide="ignore"):
            chain = run_chain(_mixed_data(), prior, iters=200, burn_in=0, seed=1)
        assert np.all(np.isfinite(chain.thetas))
        assert np.all((chain.taus > 0.0) & np.isfinite(chain.taus))

    @pytest.mark.parametrize("prior", [HyperPrior.half_cauchy(),
                                       HyperPrior.truncated_half_cauchy()])
    def test_a_zero_exponential_in_xi_stops_the_sweep(self, prior, monkeypatch):
        # xi's exponential is a Python float, so the sweep's scalar
        # division by it raises at once
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _ZeroExponentialRng(make(seed), k=2, scalar=True))
        with pytest.raises(ZeroDivisionError):
            run_chain(_mixed_data(), prior, iters=200, burn_in=0, seed=1)

    def test_quantile_intervals_equal_two_quantile_calls(self):
        chain = run_chain(_mixed_data(n=60), HyperPrior.truncated_half_cauchy(),
                          iters=700, burn_in=100, seed=8)
        alpha, L = 0.1, 1.3
        ivs = hb_marginal_intervals(chain, alpha, L=L)
        lo = np.quantile(chain.thetas, alpha / 2.0, axis=0)
        hi = np.quantile(chain.thetas, 1.0 - alpha / 2.0, axis=0)
        npt.assert_array_equal(ivs.center, 0.5 * (lo + hi))
        npt.assert_array_equal(ivs.half_width, 0.5 * (hi - lo) * L)

    def test_run_chain_calls_the_module_sweep_once_per_iteration(self, monkeypatch):
        calls = []
        sweep = hierarchical.gibbs_step

        def counting(*args):
            calls.append(1)
            return sweep(*args)

        monkeypatch.setattr(hierarchical, "gibbs_step", counting)
        run_chain(_mixed_data(), HyperPrior.half_cauchy(), iters=250, burn_in=50, seed=1)
        assert len(calls) == 250


class TestLongNullChain:
    @pytest.mark.parametrize("prior", [
        HyperPrior.half_cauchy(),
        HyperPrior.truncated_half_cauchy(),
        HyperPrior.truncated_uniform(),
    ])
    def test_null_chain_stays_finite_in_support_and_unclamped(self, prior, caplog):
        # Tiny local scales are where horseshoe Gibbs samplers lose
        # precision (Johndrow, Orenstein & Bhattacharya, JMLR 2020); the
        # truncated_uniform chain at seed 4 meets a tau2 conditional whose
        # upper-tail mass rounds to 1 at both truncation bounds.
        n = 400
        Y = np.random.default_rng(7).standard_normal(n)
        with caplog.at_level(logging.WARNING, logger="hsuq.hierarchical"):
            chain = run_chain(Y, prior, iters=20_000, burn_in=0, seed=4)
        assert np.all(np.isfinite(chain.thetas))
        assert np.all(np.isfinite(chain.taus))
        lo, hi = prior.support(n)
        assert np.all((chain.taus >= lo) & (chain.taus <= hi))
        assert np.all(chain.taus > 0.0)
        assert not any("clamping" in rec.message for rec in caplog.records)


class TestMarginalIntervals:
    def _constant_chain(self):
        thetas = np.tile(np.array([1.5, -2.0, 0.0]), (200, 1))
        return Chain(thetas=thetas, taus=np.full(200, 0.1), burn_in=0, thin=1, seed=0)

    def test_constant_chain_gives_zero_width(self):
        ivs = hb_marginal_intervals(self._constant_chain(), alpha=0.05)
        assert [iv.center for iv in ivs] == [1.5, -2.0, 0.0]
        assert all(iv.half_width == 0.0 for iv in ivs)

    def test_quantile_method_matches_empirical_quantiles(self):
        rng = np.random.default_rng(23)
        thetas = rng.standard_normal((5000, 2)) * np.array([1.0, 3.0])
        chain = Chain(thetas=thetas, taus=np.full(5000, 0.1), burn_in=0, thin=1, seed=0)
        ivs = hb_marginal_intervals(chain, alpha=0.1)
        for i, iv in enumerate(ivs):
            lo = np.quantile(thetas[:, i], 0.05)
            hi = np.quantile(thetas[:, i], 0.95)
            assert iv.center - iv.half_width == pytest.approx(lo, rel=1e-12)
            assert iv.center + iv.half_width == pytest.approx(hi, rel=1e-12)

    def test_fixed_tau_endpoints_match_quadrature(self):
        Y = _mixed_data()
        tau = GlobalScale(0.1)
        chain = run_chain(Y, HyperPrior.point_mass(0.1), iters=12000, burn_in=2000, seed=5)
        ivs = hb_marginal_intervals(chain, alpha=0.05)
        batch = PosteriorBatch(Y, tau)
        exact = {p: batch.quantile_rows(p) for p in (0.025, 0.975)}
        for i, iv in enumerate(ivs):
            for sign, p in ((-1, 0.025), (1, 0.975)):
                endpoint = iv.center + sign * iv.half_width
                se = mcse_quantile(chain.thetas[:, i], p)
                assert abs(endpoint - exact[p][i]) <= 3.0 * se

    def test_rejects_short_chains_and_bad_arguments(self):
        thetas = np.zeros((50, 2))
        short = Chain(thetas=thetas, taus=np.full(50, 0.1), burn_in=0, thin=1, seed=0)
        with pytest.raises(ValueError, match="100"):
            hb_marginal_intervals(short, alpha=0.05)
        chain = self._constant_chain()
        for L in (0.0, math.nan):
            with pytest.raises(ValueError, match="blow-up"):
                hb_marginal_intervals(chain, alpha=0.05, L=L)
            with pytest.raises(ValueError, match="blow-up"):
                hb_ball(chain, alpha=0.05, L=L)
        with pytest.raises(ValueError):
            hb_marginal_intervals(chain, alpha=1.5)


class TestHbBall:
    def test_deterministic_in_the_chain(self):
        Y = _mixed_data()
        chain = run_chain(Y, HyperPrior.point_mass(0.1), iters=2000, burn_in=500, seed=4)
        b1 = hb_ball(chain, alpha=0.05)
        b2 = hb_ball(chain, alpha=0.05)
        assert b1.radius == b2.radius
        npt.assert_array_equal(b1.center, b2.center)

    def test_fixed_tau_radius_matches_direct_sampler(self):
        Y = _mixed_data()
        chain = run_chain(Y, HyperPrior.point_mass(0.1), iters=12000, burn_in=2000, seed=5)
        ball = hb_ball(chain, alpha=0.05)
        r, se = ball_radius(Y, GlobalScale(0.1), alpha=0.05, draws=10_000,
                            rng=np.random.default_rng(1))
        joint = math.hypot(ball.mc_se, se)
        assert abs(ball.radius - r) <= 3.0 * joint
        assert ball.mc_draws == chain.n_draws

    def test_null_data_radius_clears_scale_lower_bound(self):
        n = 400
        Y = np.random.default_rng(55).standard_normal(n)
        chain = run_chain(Y, HyperPrior.truncated_half_cauchy(),
                          iters=4000, burn_in=1000, seed=6)
        ball = hb_ball(chain, alpha=0.05)
        tau_bar = float(chain.taus.mean())
        assert ball.radius >= 0.1 * math.sqrt(n * zeta(tau_bar) * tau_bar)


def _draws(N, m=7, seed=0, layout="plain"):
    """A (N, m) draw matrix: Gaussian, rounded to force ties, or a strided view."""
    rng = np.random.default_rng([N, seed])
    if layout == "strided":
        return (rng.standard_normal((2 * N, 3 * m)) * 2.0)[::2, ::3]
    x = rng.standard_normal((N, m)) * np.linspace(0.5, 3.0, m)
    return np.round(x, 1) if layout == "ties" else x


def _as_chain(thetas):
    return Chain(thetas=thetas, taus=np.full(thetas.shape[0], 0.1), burn_in=0, thin=1, seed=0)


class TestSummariesMatchNumpy:
    # (N, alpha) pairs whose lower virtual index (N-1) alpha/2 is an integer
    # (101 draws at alpha 0.5 and 0.1), or has a fractional part below 1/2
    # or of 1/2 or more (0.475, 0.5, 0.75, 0.95)
    CASES = [(N, a) for N in (100, 101, 2500) for a in (0.5, 0.05, 0.1)]

    def test_cases_cover_every_interpolation_branch(self):
        fracs = {round(((N - 1) * (a / 2.0)) % 1.0, 6) for N, a in self.CASES}
        assert 0.0 in fracs
        assert any(0.0 < f < 0.5 for f in fracs)
        assert any(f >= 0.5 for f in fracs)

    @pytest.mark.parametrize("layout", ["plain", "ties", "strided"])
    @pytest.mark.parametrize("N, alpha", CASES)
    def test_intervals_equal_np_quantile_bit_for_bit(self, N, alpha, layout):
        thetas = _draws(N, layout=layout)
        q = [alpha / 2.0, 1.0 - alpha / 2.0]
        lo, hi = np.quantile(thetas, q, axis=0)
        npt.assert_array_equal(_column_quantiles(thetas, q), np.stack([lo, hi]))
        ivs = hb_marginal_intervals(_as_chain(thetas), alpha, L=1.3)
        npt.assert_array_equal(ivs.center, 0.5 * (lo + hi))
        npt.assert_array_equal(ivs.half_width, 0.5 * (hi - lo) * 1.3)

    @pytest.mark.parametrize("N", [100, 101])
    def test_each_interpolation_form_is_read_where_numpy_reads_it(self, N):
        # The 2.5% level falls between the 3rd and 4th order statistics a
        # and b: at weight t = 0.475 for 100 draws, where numpy reads
        # a + (b-a) t, and at t = 0.5 for 101, where it reads
        # b - (b-a)(1-t). Unrelated a and b make the two forms differ in
        # the last bit; neighbouring draws of one chain seldom do.
        rng = np.random.default_rng(N)
        a, b = np.sort(rng.standard_normal((2, 200)), axis=0)
        t = (N - 1) * 0.025 - 2.0
        assert np.any(a + (b - a) * t != b - (b - a) * (1 - t))
        rows = [a - 2.0, a - 1.0, a, b] + [b + k for k in range(1, N - 3)]
        thetas = rng.permuted(np.array(rows), axis=0)
        q = [0.025, 0.975]
        npt.assert_array_equal(_column_quantiles(thetas, q), np.quantile(thetas, q, axis=0))

    def test_a_level_that_rounds_to_one_reads_the_largest_draw(self):
        # 1 - alpha/2 == 1.0 in floating point puts the upper level on the
        # last order statistic, which numpy reads without interpolation
        thetas = _draws(100)
        q = [5e-18, 1.0 - 5e-18]
        assert q[1] == 1.0
        out = _column_quantiles(thetas, q)
        npt.assert_array_equal(out, np.quantile(thetas, q, axis=0))
        npt.assert_array_equal(out[1], thetas.max(axis=0))

    def test_a_column_holding_nan_reads_nan_as_np_quantile_does(self):
        thetas = _draws(101).copy()
        thetas[40, 2] = math.nan
        lo, hi = np.quantile(thetas, [0.025, 0.975], axis=0)
        assert math.isnan(lo[2]) and math.isnan(hi[2])
        ivs = hb_marginal_intervals(_as_chain(thetas), 0.05)
        npt.assert_array_equal(ivs.center, 0.5 * (lo + hi))
        npt.assert_array_equal(ivs.half_width, 0.5 * (hi - lo))
        assert np.isnan(ivs.center).sum() == 1

    @pytest.mark.parametrize("layout", ["plain", "ties", "strided"])
    @pytest.mark.parametrize("N, alpha", CASES)
    def test_ball_equals_the_linalg_norm_form_bit_for_bit(self, N, alpha, layout):
        thetas = _draws(N, layout=layout)
        center = thetas.mean(axis=0)
        dist = np.linalg.norm(thetas - center[None, :], axis=1)
        ball = hb_ball(_as_chain(thetas), alpha, L=1.1)
        assert ball.radius == 1.1 * float(np.quantile(dist, 1.0 - alpha))
        assert ball.mc_se == 1.1 * mcse_quantile(dist, 1.0 - alpha)
        npt.assert_array_equal(ball.center, center)

    @pytest.mark.parametrize("layout", ["ties", "strided"])
    @pytest.mark.parametrize("m", [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1])
    def test_column_tiles_equal_np_quantile_bit_for_bit(self, m, layout):
        # column counts on either side of one and two tiles; the last
        # column, in the last tile, holds a NaN
        thetas = _draws(101, m, layout=layout).copy()
        thetas[17, m - 1] = math.nan
        q = [0.025, 0.3, 0.5, 0.975]
        out = _column_quantiles(thetas, q)
        npt.assert_array_equal(out, np.quantile(thetas, q, axis=0))
        assert np.isnan(out[:, -1]).all() and not np.isnan(out[:, :-1]).any()

    @pytest.mark.parametrize("N", [2 * _ROWS, 2 * _ROWS + 1, 3 * _ROWS - 1])
    def test_ball_chunks_equal_the_linalg_norm_form_bit_for_bit(self, N):
        # draw counts at and off a multiple of the row chunk
        thetas = _draws(N, 2 * _TILE + 1, layout="strided")
        center = thetas.mean(axis=0)
        dist = np.linalg.norm(thetas - center[None, :], axis=1)
        ball = hb_ball(_as_chain(thetas), 0.05)
        assert ball.radius == float(np.quantile(dist, 0.95))
        assert ball.mc_se == mcse_quantile(dist, 0.95)

    @pytest.mark.parametrize("summary", [hb_marginal_intervals, hb_ball])
    def test_summary_peak_memory_is_a_fraction_of_the_draws(self, summary):
        # a (_TILE, draws) sorted tile or a (_ROWS, n) centred chunk, reused:
        # no copy of the whole chain, which alone would read 1.0
        chain = _as_chain(np.random.default_rng(5).standard_normal((2500, 400)))
        peak = traced_peak(summary, chain, 0.05)[1]
        assert peak <= 0.3 * chain.thetas.nbytes


class TestStationarity:
    def test_split_half_tau_means_agree(self):
        n = 400
        theta = np.zeros(n)
        theta[:20] = 2.0 * math.sqrt(2.0 * math.log(n))
        Y = theta + np.random.default_rng(3).standard_normal(n)
        chain = run_chain(Y, HyperPrior.truncated_half_cauchy(),
                          iters=8000, burn_in=2000, seed=7)
        half = chain.n_draws // 2
        first, second = chain.taus[:half], chain.taus[half:]
        se = math.hypot(mcse_mean(first), mcse_mean(second))
        assert abs(first.mean() - second.mean()) <= 4.0 * se


class TestTauLaw:
    @pytest.mark.parametrize("prior", [
        HyperPrior.truncated_half_cauchy(),
        HyperPrior.truncated_uniform(),
    ])
    @pytest.mark.parametrize("signals", [10, 0, 200])
    def test_independent_chain_tau_means_match_the_exact_posterior_mean(self, prior,
                                                                       signals):
        # E[tau | Y] from the exact marginal likelihood on a fine grid in
        # log tau over the support, weighted by the hyperprior density
        # (times tau, the Jacobian of log tau), by Simpson's rule. The
        # untruncated half-Cauchy is left out: GlobalScale refuses the
        # grid's tau > 1. On null data the posterior reaches down to 1/n.
        # With every coordinate a signal it piles against tau = 1, where
        # the tau^2 draw falls back to the inverse CDF on nearly every sweep.
        from scipy.integrate import simpson

        n = 200
        theta = np.zeros(n)
        theta[:signals] = 1.5 * zeta(1.0 / n)
        Y = theta + np.random.default_rng(9).standard_normal(n)
        lo, hi = prior.support(n)
        s = np.linspace(math.log(lo), math.log(hi), 4001)
        taus = np.exp(s)
        _, loglik = _tau_sweep(Y, taus)
        logpost = loglik + s + np.log([prior.density(t, n) for t in taus])
        post = np.exp(logpost - logpost.max())
        exact = simpson(taus * post, x=s) / simpson(post, x=s)
        means = np.array([run_chain(Y, prior, iters=4500, burn_in=1500, seed=k).taus.mean()
                          for k in range(12)])
        se = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(means.mean() - exact) <= 4.0 * se


class TestChainExport:
    def test_csv_roundtrip(self, tmp_path):
        Y = _mixed_data(n=5, seed=12)
        chain = run_chain(Y, HyperPrior.point_mass(0.2), iters=300, burn_in=100, thin=2, seed=9)
        path = tmp_path / "chain.csv"
        chain.to_csv(path, coords=[0, 3])
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert list(rows.dtype.names) == ["iter", "tau", "theta_1", "theta_4"]
        assert rows["iter"][0] == 100
        assert rows["iter"][1] == 102
        npt.assert_allclose(rows["tau"], chain.taus, rtol=1e-10)
        npt.assert_allclose(rows["theta_1"], chain.thetas[:, 0], rtol=1e-10)
        npt.assert_allclose(rows["theta_4"], chain.thetas[:, 3], rtol=1e-10)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_csv_rejects_a_coordinate_out_of_range(self, tmp_path, bad):
        # -1 would index the last coordinate under the header theta_0, and 5
        # would fail only after the header is written
        chain = run_chain(_mixed_data(n=5, seed=12), HyperPrior.point_mass(0.2),
                          iters=20, burn_in=10, seed=9)
        path = tmp_path / "chain.csv"
        with pytest.raises(ValueError, match=f"coordinate {bad} "):
            chain.to_csv(path, coords=[0, bad])
        assert not path.exists()


class TestMcse:
    def test_iid_mean_se_is_calibrated(self):
        x = np.random.default_rng(31).standard_normal(10_000)
        se = mcse_mean(x)
        assert se == pytest.approx(1.0 / math.sqrt(10_000), rel=0.35)

    def test_requires_enough_draws(self):
        with pytest.raises(ValueError):
            mcse_mean(np.zeros(30))
        with pytest.raises(ValueError):
            mcse_quantile(np.zeros(30), 0.5)


class TestVerifyHyperprior:
    def test_truncated_uniform_mass_is_the_length_fraction(self):
        rate = SparsityRate(400, 60)
        out = verify_hyperprior(HyperPrior.truncated_uniform(), rate, Cu=1.0)
        t_n = out["t_n"]
        lo, hi = max(t_n / 2.0, 1.0 / 400), min(t_n, 1.0)
        expected = (hi - lo) / (1.0 - 1.0 / 400)
        assert out["cond2"]
        assert out["cond3_mass"] == pytest.approx(expected, rel=1e-10)

    def test_truncated_cauchy_mass_matches_arctan_form(self):
        rate = SparsityRate(400, 60)
        out = verify_hyperprior(HyperPrior.truncated_half_cauchy(), rate, Cu=1.0)
        t_n = out["t_n"]
        lo, hi = max(t_n / 2.0, 1.0 / 400), min(t_n, 1.0)
        expected = (math.atan(hi) - math.atan(lo)) / (math.atan(1.0) - math.atan(1.0 / 400))
        assert out["cond2"]
        assert out["cond3_mass"] == pytest.approx(expected, rel=1e-10)
        assert out["cond4_mass"] == out["cond3_mass"]

    def test_dense_regime_clears_the_strong_threshold(self):
        # Once the signal count is a decent multiple of log n, the
        # truncated Cauchy keeps enough mass near t_n to clear exp(-c*p).
        rate = SparsityRate(400, 60)
        out = verify_hyperprior(HyperPrior.truncated_half_cauchy(), rate, Cu=1.0)
        assert out["cond3_mass"] >= out["cond3_threshold"]
        assert out["cond4_mass"] >= 0.0

    def test_untruncated_cauchy_fails_support_check(self):
        out = verify_hyperprior(HyperPrior.half_cauchy(), SparsityRate(400, 60), Cu=1.0)
        assert not out["cond2"]

    def test_point_mass_is_an_indicator(self):
        rate = SparsityRate(400, 60)
        t_n = verify_hyperprior(HyperPrior.point_mass(0.5), rate, Cu=1.0)["t_n"]
        inside = verify_hyperprior(HyperPrior.point_mass(0.75 * t_n), rate, Cu=1.0)
        outside = verify_hyperprior(HyperPrior.point_mass(0.25 * t_n), rate, Cu=1.0)
        assert inside["cond3_mass"] == 1.0
        assert outside["cond3_mass"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_hyperprior(HyperPrior.half_cauchy(), SparsityRate(400, 60), Cu=0.0)
        with pytest.raises(TypeError):
            verify_hyperprior(HyperPrior.half_cauchy(), (400, 60), Cu=1.0)

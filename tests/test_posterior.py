"""Tests for the per-coordinate posterior law and its batch machinery."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from hsuq import kernels
from hsuq.credible import covers, interval_batch
from hsuq.experiments import NormalAround, ScenarioConfig, generate
from hsuq.kernels import marginal_density, posterior_mean, posterior_variance
from hsuq.posterior import _BLOCK, _STREAM, _SUB_BLOCK, PosteriorBatch, _node_law
from hsuq.tau import mmle

from _oracles import (ThetaPosterior, direct_theta_law, marginal_cdf_quad, newton_quantile,
                      newton_radius, traced_peak, whole_block_draws)

# one (y, tau) pair per regime: observation far below, near, and far
# above the threshold scale sqrt(2 log(1/tau))
REGIME_GRID = [
    (0.2, 0.05),
    (2.5, 0.05),
    (8.0, 0.05),
    (0.3, 0.4),
    (1.3, 0.4),
    (6.0, 0.4),
]


def eb_study_data(seed):
    """(Y, tau) of one benchmark eb_study replication: n = 400, 20 signals
    around twice the universal threshold, tau the MMLE."""
    signal = NormalAround(2.0 * math.sqrt(2.0 * math.log(400)), 1.0)
    cfg = ScenarioConfig(n=400, p=20, signal=signal, reps=1, seed=seed, methods=("eb-mmle",))
    Y = generate(cfg, 0)[0]
    return Y, mmle(Y).tau


def one(y, tau):
    """The posterior of a single coordinate: a one-row batch."""
    return PosteriorBatch([y], tau)


def cdf1(post, t):
    return float(post.cdf_rows(t)[0])


def draws1(post, size, rng):
    return post.draw_matrix(size, rng)[:, 0]


def z_nodes(post):
    """The z node values u_j^2 of a batch's sampler layout."""
    return post._z_layout[0] ** 2


def node_law(post):
    """The (n, nodes) z node law of a batch's rows, built for a test."""
    return _node_law(post.Y, *post._z_layout)


class TestShrinkWeightLaw:
    def test_normalizes(self):
        # the discretized weight law of a one-row batch reproduces the
        # kernel moments; Var(z) is taken from w = 1 - z to avoid cancellation
        for y, tau in REGIME_GRID + [(0.0, 1.0), (30.0, 0.01)]:
            post = one(y, tau)
            W = node_law(post)[0]
            z = z_nodes(post)
            ez = float(W @ z)
            m1 = float(W @ (1.0 - z))
            m2 = float(W @ (1.0 - z) ** 2)
            assert_allclose(y * ez, posterior_mean(y, tau), rtol=1e-10)
            assert_allclose(y * y * (m2 - m1 * m1) + ez, posterior_variance(y, tau), rtol=1e-10)

    def test_sample_mean_matches_nodes(self):
        post = one(2.0, 0.1)
        expect = float(node_law(post)[0] @ z_nodes(post))
        draws = post.draw_weights(400_000, np.random.default_rng(11))[:, 0]
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - expect) < 4 * se

    def test_draws_take_node_values(self):
        # the sampler draws the node law itself: each z is some u_j^2 with W_j > 0
        post = one(2.0, 0.1)
        z = post.draw_weights(100_000, np.random.default_rng(7))[:, 0]
        assert np.all(np.isin(z, z_nodes(post)[node_law(post)[0] > 0.0]))

    def test_draws_follow_node_cdf(self):
        # a panel law between the nodes would miss by half a node weight (~1%)
        post = one(0.3, 0.4)
        z = post.draw_weights(400_000, np.random.default_rng(13))[:, 0]
        nodes, cum = z_nodes(post), np.cumsum(node_law(post)[0])
        for k in np.searchsorted(cum, [0.1, 0.5, 0.9]):
            se = math.sqrt(cum[k] * (1.0 - cum[k]) / z.size)
            assert abs(np.mean(z <= nodes[k]) - cum[k]) < 4 * se

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            one(math.inf, 0.1)


class TestCdf:
    def test_symmetry_at_origin(self):
        assert_allclose(cdf1(one(0.0, 0.1), 0.0), 0.5, atol=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(2)
        post = one(1.7, 0.2)
        for _ in range(50):
            a, b = np.sort(rng.uniform(-6, 6, size=2))
            assert cdf1(post, a) <= cdf1(post, b) + 1e-15

    def test_nondecreasing_across_panel_edges(self):
        # F is clipped to its panel's edge masses: without that, the rounding
        # of a panel's integral put cdf(-8.5e-286) above cdf(0) at y = 0
        for y, tau in [(0.0, 0.25), (3.3, 0.05), (-7.6, 0.9)]:
            edges = np.r_[one(y, tau)._law["edges"], np.arange(-20.0, 21.0)]
            batch = PosteriorBatch(np.full(edges.size, y), tau)
            at = batch.cdf_rows(edges)
            assert np.all(batch.cdf_rows(np.nextafter(edges, -np.inf)) <= at)
            assert np.all(at <= batch.cdf_rows(np.nextafter(edges, np.inf)))

    def test_limits(self):
        post = one(3.0, 0.1)
        assert cdf1(post, -40.0) < 1e-12
        assert cdf1(post, 43.0) > 1.0 - 1e-12
        assert cdf1(post, -math.inf) == 0.0
        assert cdf1(post, math.inf) == cdf1(post, 43.0)

    def test_against_quadrature_oracle(self):
        for y, tau in [(0.0, 0.1), (3.0, 0.1), (-2.5, 0.5)]:
            post = one(y, tau)
            for t in [-1.0, 0.3, y + 0.7]:
                assert_allclose(cdf1(post, t), marginal_cdf_quad(t, y, tau), atol=1e-6)

    def test_vectorized(self):
        # one evaluation point per row of a batch of identical rows
        batch = PosteriorBatch(np.full(7, 1.0), 0.3)
        t = np.linspace(-3, 3, 7)
        vals = batch.cdf_rows(t)
        assert vals.shape == (7,)
        assert_allclose(vals[3], cdf1(one(1.0, 0.3), 0.0), rtol=1e-14)


class TestQuantile:
    def test_median_at_origin(self):
        assert one(0.0, 0.2).quantile_rows(0.5)[0] == 0.0

    def test_roundtrip(self):
        for y, tau in REGIME_GRID:
            post = one(y, tau)
            for p in [0.025, 0.5, 0.975]:
                t = post.quantile_rows(p)[0]
                assert abs(cdf1(post, t) - p) < 1e-8

    def test_multi_row_roundtrip(self):
        # each tau of the regime grid as one batch, one call per level
        for tau in sorted({t for _, t in REGIME_GRID}):
            batch = PosteriorBatch([y for y, t in REGIME_GRID if t == tau], tau)
            for p in [0.025, 0.5, 0.975]:
                q = batch.quantile_rows(p)
                assert np.all(np.abs(batch.cdf_rows(q) - p) < 1e-8)

    def test_against_mc_quantile(self):
        post = one(4.0, 0.05)
        p = 0.975
        q = post.quantile_rows(p)[0]
        draws = draws1(post, 2_000_000, np.random.default_rng(17))
        mc = float(np.quantile(draws, p))
        # order-statistic standard error via the density at the quantile
        dens = (cdf1(post, q + 1e-4) - cdf1(post, q - 1e-4)) / 2e-4
        se = math.sqrt(p * (1 - p) / draws.size) / dens
        assert abs(mc - q) < 4 * se

    def test_rejects_bad_levels(self):
        post = one(1.0, 0.2)
        for p in [0.0, 1.0, -0.1, 1.7]:
            with pytest.raises(ValueError):
                post.quantile_rows(p)


class TestRandDraw:
    def test_deterministic_given_seed(self):
        post = one(1.2, 0.15)
        a = draws1(post, 100, np.random.default_rng(5))
        b = draws1(post, 100, np.random.default_rng(5))
        assert np.array_equal(a, b)
        single = post.draw_matrix(1, np.random.default_rng(5))
        assert single.shape == (1, 1)
        assert np.array_equal(single, post.draw_matrix(1, np.random.default_rng(5)))

    def test_symmetric_at_origin(self):
        post = one(0.0, 0.1)
        th = draws1(post, 1_000_000, np.random.default_rng(23))
        n = th.size
        # sample skewness of a symmetric law: n Var(g1) ~ mu6/mu2^3 - 6 mu4/mu2^2 + 9,
        # with mu2 = E z, mu4 = 3 E z^2 and mu6 = 15 E z^3 under the node law
        W, z = node_law(post)[0], z_nodes(post)
        ez, ez2, ez3 = (float(W @ z**k) for k in (1, 2, 3))
        sd = math.sqrt((15.0 * ez3 / ez**3 - 18.0 * ez2 / ez**2 + 9.0) / n)
        c = th - th.mean()
        skew = np.mean(c**3) / np.mean(c**2) ** 1.5
        assert abs(skew) < 4 * sd
        # equal tails: P(theta <= -t) - P(theta >= t) within 4 binomial SEs
        for t in (0.05, 0.2, 0.5):
            lo, hi = np.mean(th <= -t), np.mean(th >= t)
            se = math.sqrt((lo + hi - (lo - hi) ** 2) / n)
            assert abs(lo - hi) < 4 * se

    def test_moments_match_kernels(self):
        th = draws1(one(2.0, 0.1), 1_000_000, np.random.default_rng(42))
        se_mean = th.std() / math.sqrt(th.size)
        assert abs(th.mean() - posterior_mean(2.0, 0.1)) < 4 * se_mean
        v = th.var()
        mu4 = np.mean((th - th.mean()) ** 4)
        se_var = math.sqrt(max(mu4 - v * v, 0.0) / th.size)
        assert abs(v - posterior_variance(2.0, 0.1)) < 4 * se_var


class TestIntervalRadius:
    def test_mass_residual_across_regimes(self):
        for y, tau in REGIME_GRID:
            post = one(y, tau)
            r = post.radius_batch(0.05)[0]
            c = post.means[0]
            assert abs(cdf1(post, c + r) - cdf1(post, c - r) - 0.95) < 1e-8

    def test_monotone_in_alpha(self):
        post = one(1.5, 0.1)
        radii = [post.radius_batch(a)[0] for a in [0.01, 0.05, 0.2]]
        assert radii[0] > radii[1] > radii[2]

    def test_symmetric_case(self):
        post = one(0.0, 0.1)
        r = post.radius_batch(0.05)[0]
        assert_allclose(cdf1(post, r) - cdf1(post, -r), 0.95, atol=1e-8)

    def test_small_tau_lower_bound(self):
        # the radius cannot fall below half a z-quantile of the scale
        tau = 1e-4
        r = one(0.0, tau).radius_batch(0.05)[0]
        assert r >= 0.9 * ndtri(0.95) * tau / 2.0

    def test_rejects_bad_alpha(self):
        post = one(1.0, 0.2)
        for a in [0.0, 1.0, math.nan]:
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                post.radius_batch(a)

    def test_unreachable_mass_raises(self):
        # 1 - 1e-17 rounds to 1, a mass no finite radius reaches
        with pytest.raises(ArithmeticError):
            one(1.0, 0.2).radius_batch(1e-17)


class TestMarginalInterval:
    # the marginal interval of one coordinate is a one-coordinate batch
    def test_symmetric_at_origin(self):
        ivs = interval_batch([0.0], 0.1, 0.05, L=1.0)
        (iv,) = ivs
        assert iv.center == 0.0
        assert covers(ivs, 0.0)[0]
        assert covers(ivs, iv.half_width)[0]
        assert not covers(ivs, iv.half_width * 1.0001)[0]

    def test_blowup_scales_half_width(self):
        (iv1,) = interval_batch([2.0], 0.1, 0.05, L=1.0)
        (iv2,) = interval_batch([2.0], 0.1, 0.05, L=2.0)
        assert_allclose(iv2.half_width, 2.0 * iv1.half_width, rtol=1e-13)

    def test_rejects_nonpositive_blowup(self):
        with pytest.raises(ValueError):
            interval_batch([1.0], 0.2, 0.05, L=0.0)


class TestPosteriorBatch:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.Y = np.concatenate([np.zeros(2), rng.normal(0, 3, 6), [7.0, -6.2]])
        self.batch = PosteriorBatch(self.Y, 0.11)

    def test_moments_match_kernels(self):
        assert_allclose(self.batch.means, posterior_mean(self.Y, 0.11), rtol=1e-12)
        assert_allclose(self.batch.variances, posterior_variance(self.Y, 0.11), rtol=1e-12)

    def test_mixture_mean_consistency(self):
        # The discretized weight law must reproduce the analytic mean.
        z = z_nodes(self.batch)
        mix = (node_law(self.batch) * z[None, :]).sum(axis=1) * self.Y
        assert np.max(np.abs(mix - self.batch.means)) < 1e-6

    # the "scalar" reference of the two tests below is a one-row batch
    # per coordinate, so they check that rows do not depend on the layout
    def test_cdf_rows_match_scalar(self):
        t = self.batch.means + 0.7
        got = self.batch.cdf_rows(t)
        want = [cdf1(one(v, 0.11), ti) for v, ti in zip(self.Y, t)]
        assert_allclose(got, want, atol=1e-12)

    def test_radius_batch_matches_scalar(self):
        r = self.batch.radius_batch(0.05)
        want = [one(v, 0.11).radius_batch(0.05)[0] for v in self.Y]
        assert_allclose(r, want, atol=1e-7)

    def test_quantile_rows_match_scalar(self):
        for p in [0.025, 0.975]:
            want = [one(v, 0.11).quantile_rows(p)[0] for v in self.Y]
            assert_allclose(self.batch.quantile_rows(p), want, atol=1e-7)

    def test_draws_deterministic(self):
        a = self.batch.draw_matrix(64, np.random.default_rng(9))
        b = self.batch.draw_matrix(64, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_draw_moments(self):
        M = self.batch.draw_matrix(20_000, np.random.default_rng(31))
        se = M.std(axis=0) / math.sqrt(M.shape[0])
        assert np.all(np.abs(M.mean(axis=0) - self.batch.means) < 4.5 * se)

    def test_draws_match_cdf(self):
        # joint draws must be statistically indistinguishable from the
        # law whose CDF cdf_rows integrates
        M = self.batch.draw_matrix(1_000_000, np.random.default_rng(9))
        for i in [0, 4, 8, 9]:
            post = one(self.Y[i], 0.11)
            m = post.means[0]
            for t in [m - 1.0, m, m + 1.0]:
                F = cdf1(post, t)
                se = max(math.sqrt(F * (1 - F) / M.shape[0]), 1e-9)
                assert abs(np.mean(M[:, i] <= t) - F) < 5 * se

    def test_construction_holds_one_node_matrix(self):
        # a sampler block's node law is damped, weighted and normalised in
        # place: no second or third (rows, nodes) temporary while it is built.
        # Each broadcast in-place step takes numpy's one iterator buffer,
        # 8 * getbufsize() bytes, which at 256 nodes is not inside 25% of W
        batch = PosteriorBatch(np.random.default_rng(12).standard_normal(5000), 0.01)
        y = batch.Y[:_STREAM]
        u, w = batch._z_layout
        W, peak = traced_peak(_node_law, y, u, w)
        assert W.shape == (_STREAM, len(u))
        assert peak <= 1.25 * W.nbytes + 8 * np.getbufsize()

    def test_draws_hold_one_output_matrix(self):
        # each block's node law is built, and its node counts expanded and
        # shuffled in place, block by block
        batch = PosteriorBatch(np.random.default_rng(12).standard_normal(5000), 0.01)
        z, peak = traced_peak(batch.draw_weights, 2000, np.random.default_rng(1))
        assert peak <= 1.25 * z.nbytes

    def test_draw_matrix_holds_three_output_matrices(self):
        # the weights, the noise and the normal draws; z * Y + sqrt(z) * N
        # is formed in place on the weights
        batch = PosteriorBatch(np.random.default_rng(12).standard_normal(5000), 0.01)
        M, peak = traced_peak(batch.draw_matrix, 2000, np.random.default_rng(1))
        assert peak <= 3.25 * M.nbytes

    def test_draw_matrix_is_weighted_data_plus_scaled_noise(self):
        # 300 rows are five sampler blocks, each with its own child stream
        batch = PosteriorBatch(np.random.default_rng(13).standard_normal(300), 0.05)
        z, noise = whole_block_draws(batch, 1000, 2, slice(None))
        assert np.array_equal(batch.draw_weights(1000, np.random.default_rng(2)), z)
        want = z * batch.Y[None, :] + np.sqrt(z) * noise
        got = batch.draw_matrix(1000, np.random.default_rng(2))
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous

    def test_row_slice_is_weighted_data_plus_scaled_noise(self):
        # rows 40..299 span five sampler blocks of the slice, counted from row 40
        batch = PosteriorBatch(np.random.default_rng(13).standard_normal(300), 0.05)
        rows = slice(40, 300)
        z, noise = whole_block_draws(batch, 1000, 2, rows)
        assert np.array_equal(batch.draw_weights(1000, np.random.default_rng(2), rows), z)
        want = z * batch.Y[None, rows] + np.sqrt(z) * noise
        got = batch.draw_matrix(1000, np.random.default_rng(2), rows)
        assert got.shape == (1000, 260)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, _SUB_BLOCK - 1, _SUB_BLOCK + 1, _STREAM - 1,
                                   2 * _STREAM + 1, 700])
    def test_sub_blocks_draw_what_whole_blocks_draw(self, n):
        # a sampler block expands its counts and adds its noise _SUB_BLOCK
        # rows at a time; on either side of both edges, and with a short last
        # sub-block (700 rows), the draws equal whole-block draws bit for bit
        batch = PosteriorBatch(np.random.default_rng([n, 3]).standard_normal(n) * 2.0, 0.05)
        z, noise = whole_block_draws(batch, 1000, 5, slice(None))
        assert np.array_equal(batch.draw_weights(1000, np.random.default_rng(5)), z)
        got = batch.draw_matrix(1000, np.random.default_rng(5))
        assert np.array_equal(got, z * batch.Y[None, :] + np.sqrt(z) * noise)

    def test_leading_block_slice_draws_the_first_block_of_all_rows(self):
        # the sampler's first block takes the same draws from the same seed
        batch = PosteriorBatch(np.random.default_rng(13).standard_normal(300), 0.05)
        part = batch.draw_weights(500, np.random.default_rng(4), slice(0, _BLOCK))
        full = batch.draw_weights(500, np.random.default_rng(4))
        assert full.shape == (500, 300)
        assert np.array_equal(part, full[:, :_BLOCK])

    def test_blocks_with_identical_rows_draw_different_weights(self):
        y = np.random.default_rng(14).standard_normal(_STREAM)
        batch = PosteriorBatch(np.tile(y, 2), 0.05)
        z = batch.draw_weights(1000, np.random.default_rng(5))
        assert not np.array_equal(z[:, :_STREAM], z[:, _STREAM:])
        # the same block drawn twice from one seed takes two child streams
        rng = np.random.default_rng(5)
        first = batch.draw_weights(1000, rng, slice(0, _STREAM))
        assert not np.array_equal(first, batch.draw_weights(1000, rng, slice(0, _STREAM)))

    def test_row_slice_draws_match_cdf(self):
        rows = slice(4, 10)
        M = self.batch.draw_matrix(200_000, np.random.default_rng(17), rows)
        for shift in (-1.0, 0.0, 1.0):
            t = self.batch.means + shift
            F = self.batch.cdf_rows(t)[rows]
            se = np.maximum(np.sqrt(F * (1.0 - F) / M.shape[0]), 1e-9)
            assert np.all(np.abs(np.mean(M <= t[rows], axis=0) - F) < 5.0 * se)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            PosteriorBatch(np.array([]), 0.1)
        with pytest.raises(ValueError):
            PosteriorBatch(np.array([1.0, math.nan]), 0.1)


class TestThetaLaw:
    """The solvers' theta law against independent references, and its costs."""

    @pytest.mark.parametrize("tau", [0.9, 0.5])
    def test_radii_and_cdf_match_theta_quadrature(self, tau):
        # the z node law missed these radii by up to 9.9e-6 (tau 0.9, y -3.0)
        ys = np.array([-8.0, -3.0, -1.2, 0.0, 0.4, 2.2, 3.23, 5.0, 8.0])
        batch = PosteriorBatch(ys, tau)
        refs = [ThetaPosterior(y, tau) for y in ys]
        want = np.array([ref.radius(0.05) for ref in refs])
        assert_allclose(batch.radius_batch(0.05), want, atol=1e-8, rtol=0)
        for side in (-1.0, 1.0):
            t = np.array([ref.mean for ref in refs]) + side * want
            assert_allclose(batch.cdf_rows(t), [ref.cdf(x) for ref, x in zip(refs, t)],
                            atol=1e-8, rtol=0)

    def test_normaliser_is_the_marginal_density(self):
        Y = np.array([-30.0, -4.0, 0.0, 0.3, 2.5, 9.0, 37.0])
        for tau in (1.0, 0.3, 0.01, 1e-4):
            scale = PosteriorBatch(Y, tau)._law["scale"]
            assert_allclose(np.exp(scale) / math.sqrt(2.0 * math.pi), marginal_density(Y, tau),
                            rtol=5e-14)

    def test_sampler_law_stays_near_the_solver_law(self):
        # one posterior law, two discretisations: the z node law that the
        # sampler draws, on the kernels' own nodes, misses the theta law by
        # at most 6.0e-5, next to theta = 0, where its nodes resolve the
        # prior's log singularity only to their spacing, and by at most
        # 8.4e-8 for |t| >= 0.05 (measured)
        near = np.geomspace(1e-7, 1.0, 1000)
        worst = worst_away = 0.0
        for y, tau in REGIME_GRID + [(y, 0.9) for y, _ in REGIME_GRID]:
            t = np.concatenate([-near, near, np.linspace(min(y, 0.0) - 6, max(y, 0.0) + 6, 2401)])
            post = one(y, tau)
            u, W = post._z_layout[0], node_law(post)[0]
            F = post._evaluate(np.zeros(1, dtype=int), t[None, :])[0, 0]
            gap = np.abs(F - ndtr((t[:, None] - y * u * u) / u) @ W)
            worst = max(worst, gap.max())
            worst_away = max(worst_away, gap[np.abs(t) >= 0.05].max())
        assert worst <= 1.5e-4
        assert worst_away <= 5e-7

    def test_each_discretisation_is_built_on_first_use(self):
        # the theta law and the moments are cached on first use and the z
        # layout on first draw; the z node law never is, so a batch that only
        # draws holds its nodes alone, and one that only solves holds none
        Y = np.linspace(-3.0, 3.0, 50)
        assert set(vars(PosteriorBatch(Y, 0.1))) == {"Y", "tau"}
        solved = PosteriorBatch(Y, 0.1)
        solved.radius_batch(0.05), solved.quantile_rows(0.5), solved.cdf_rows(0.0)
        assert set(vars(solved)) == {"Y", "tau", "_law", "_moments", "diagnostics"}
        drawn = PosteriorBatch(Y, 0.1)
        drawn.draw_matrix(100, np.random.default_rng(0))
        assert set(vars(drawn)) == {"Y", "tau", "_z_layout"}

    def test_work_per_row_does_not_grow_with_the_spread_of_y(self):
        # a row holds the core panels and the unit panels within 10 of its
        # own y, never the span of Y: a far row costs what a near one does
        peaks = []
        for far in (50.0, 1e4):
            batch = PosteriorBatch([0.0] * 19 + [far], 0.05)
            batch.means, batch.variances
            peaks.append(traced_peak(batch.radius_batch, 0.05)[1])
        assert peaks[1] <= peaks[0]
        # far out the posterior is N(y, 1) to O(1 / y^2)
        r = PosteriorBatch([0.0] * 19 + [1e6], 0.05).radius_batch(0.05)
        assert abs(r[-1] - ndtri(0.975)) < 1e-9

    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.1, 0.01, 1e-4, 1e-8])
    def test_build_matches_one_exp_per_node(self, tau):
        # the factored build (a shared table for the unit window, the y theta
        # series on the deep core panels) against one exp per node; beyond
        # |y| = 1e3 the oracle's own nodes k + x_h carry the rounding of
        # ulp(y), so the far rows keep their ndtri check above
        ys = [y for y, _ in REGIME_GRID] + [20.0, 40.0, 1e3]
        Y = np.array(ys + [-y for y in ys])
        batch = PosteriorBatch(Y, tau)
        law = batch._law
        U, C, scale = direct_theta_law(Y, tau)
        assert_allclose(law["C"], C, rtol=0, atol=1e-14)
        assert_allclose(law["U"], U, rtol=0, atol=1e-14)
        assert_allclose(law["scale"], scale, rtol=1e-14, atol=1e-14)
        r = batch.radius_batch(0.05)
        law.update(U=U, C=C, scale=scale, mass=U[:, -1] + C[:, -1])
        assert_allclose(r, batch.radius_batch(0.05), rtol=0, atol=1e-9)

    def test_rows_are_bit_identical_in_any_batch(self):
        # a row's masses and scale depend on its own y only: not on its
        # position, the other rows or the build's row blocks
        rng = np.random.default_rng(19)
        for n, tau, spread in [(600, 0.05, 1.0), (300, 1e-6, 30.0), (257, 0.7, 5.0)]:
            Y = spread * rng.standard_normal(n)
            law = PosteriorBatch(Y, tau)._law
            perm = rng.permutation(n)
            shuffled = PosteriorBatch(Y[perm], tau)._law
            for key in ("C", "U", "scale"):
                assert np.array_equal(shuffled[key], law[key][perm])
            for i in rng.choice(n, 4, replace=False):
                single = PosteriorBatch(Y[i:i + 1], tau)._law
                for key in ("C", "U", "scale"):
                    assert np.array_equal(single[key][0], law[key][i])

    def test_tiny_tau_keeps_the_slab(self):
        # past |theta| / tau = 1.34e154, x = theta^2 / (2 tau^2) overflowed,
        # log p was -inf on every unit panel and the row fell onto the spike
        # at 0 (radius 43.995 and 99999). The slab outweighs the spike by
        # e^440 or more; it is 2 tau / (theta^2 sqrt(2 pi^3)) there, so the
        # row's law is phi(y - theta) / theta^2, whose curvature still
        # widens the interval at y = 40 by 1.2e-3 over ndtri(0.975)
        def slab(a, b):
            return quad(lambda t: math.exp(-0.5 * (40.0 - t) ** 2) / (t * t), a, b,
                        epsabs=0.0, epsrel=1e-13)[0]

        total = slab(25.0, 55.0)
        mean = quad(lambda t: math.exp(-0.5 * (40.0 - t) ** 2) / t, 25.0, 55.0,
                    epsabs=0.0, epsrel=1e-13)[0] / total
        r = PosteriorBatch([0.3, 40.0], 1e-153).radius_batch(0.05)[1]
        assert abs(slab(mean - r, mean + r) / total - 0.95) < 1e-10
        r = PosteriorBatch([0.3, 1e5], 1e-150).radius_batch(0.05)[1]
        assert abs(r - ndtri(0.975)) < 1e-9

    def test_rows_beyond_2_to_the_52_raise(self):
        # there the keys floor(y) - 10 + i and the nodes k + x_h stop being
        # distinct: one-row radii read 1.03 at 2^53, 6.18 at 1e17 and 5e39 at
        # 1e40, for 1.96
        for y in (1e17, -1e40):
            batch = PosteriorBatch([0.5, y], 0.05)
            for solve in (lambda: batch.radius_batch(0.05), lambda: batch.quantile_rows(0.5),
                          lambda: batch.cdf_rows(y)):
                with pytest.raises(ValueError, match=r"\|y\| = .* out of range"):
                    solve()
            assert np.all(np.isfinite(batch.draw_matrix(10, np.random.default_rng(0))))
        # below the limit the answer is right to ulp(y) (0.125 at 1e15)
        batch = PosteriorBatch([1e15], 0.05)
        ulp = np.spacing(1e15)
        assert abs(batch.radius_batch(0.05)[0] - ndtri(0.975)) <= ulp
        assert abs(batch.quantile_rows(0.975)[0] - batch.means[0] - ndtri(0.975)) <= ulp


class TestCdfImpliedMean:
    def test_integrated_mean_matches_kernels(self):
        # E[theta] = int_0^inf (1 - F) - int_{-inf}^0 F, everything from cdf
        for y, tau in [(1.5, 0.1), (0.0, 0.5), (4.0, 0.05)]:
            post = one(y, tau)
            upper = quad(lambda t: 1.0 - cdf1(post, t), 0.0, np.inf,
                         epsabs=1e-10, epsrel=1e-9, limit=400)[0]
            lower = quad(lambda t: cdf1(post, t), -np.inf, 0.0,
                         epsabs=1e-10, epsrel=1e-9, limit=400)[0]
            assert_allclose(upper - lower, posterior_mean(y, tau), atol=1e-6)


def eb_batch(seed, n=400):
    """An EB study's batch: 5% of n signals near 2 sqrt(2 log n), tau by MMLE."""
    rng = np.random.default_rng([seed, n])
    y = rng.standard_normal(n)
    y[: n // 20] += rng.normal(2.0 * math.sqrt(2.0 * math.log(n)), 1.0, n // 20)
    return PosteriorBatch(y, mmle(y).value)


def mass_residual(batch, r, alpha):
    c = batch.means
    return np.abs(batch.cdf_rows(c + r) - batch.cdf_rows(c - r) - (1.0 - alpha))


def evaluated_rows(batch, solve):
    """Row evaluations made by the batch's evaluator during ``solve()``."""
    rows = []
    evaluate = PosteriorBatch._evaluate

    def counting(self, idx, t):
        rows.append(idx.size)
        return evaluate(self, idx, t)

    batch._evaluate = counting.__get__(batch)
    try:
        solve()
    finally:
        del batch._evaluate
    return sum(rows)


class TestSolver:
    """The fused Halley solver against the two-pass Newton it replaced."""

    def batches(self):
        grid = [PosteriorBatch([y for y, t in REGIME_GRID if t == tau], tau)
                for tau in sorted({t for _, t in REGIME_GRID})]
        return grid + [eb_batch(1), eb_batch(2)]

    @pytest.mark.parametrize("alpha", [0.2, 0.05, 0.01])
    def test_radius_matches_newton_oracle(self, alpha):
        for batch in self.batches():
            assert_allclose(batch.radius_batch(alpha), newton_radius(batch, alpha), atol=1e-7)
            assert batch.diagnostics["capped"] == batch.diagnostics["at_resolution"] == 0

    @pytest.mark.parametrize("alpha", [0.2, 0.05, 0.01])
    def test_quantiles_match_newton_oracle(self, alpha):
        for batch in self.batches():
            for p in (alpha / 2.0, 1.0 - alpha / 2.0):
                assert_allclose(batch.quantile_rows(p), newton_quantile(batch, p), atol=1e-7)
                assert batch.diagnostics["capped"] == batch.diagnostics["at_resolution"] == 0

    def test_extreme_level_reaches_target_mass(self):
        # at alpha = 1e-4 two valid roots can differ by 2e-5, so check the
        # mass each radius encloses instead of the oracle's radius
        for batch in self.batches():
            r = batch.radius_batch(1e-4)
            assert np.all(mass_residual(batch, r, 1e-4) <= 1e-9)

    @pytest.mark.parametrize("alpha", [0.7, 0.9, 0.999])
    def test_levels_above_half_reach_target_mass(self, alpha):
        # the level rule is 0 < alpha < 1 for every credible set
        for batch in self.batches():
            r = batch.radius_batch(alpha)
            assert np.all(mass_residual(batch, r, alpha) < 1e-9)
            assert batch.diagnostics["capped"] == batch.diagnostics["at_resolution"] == 0

    def test_eb_data_reports_no_capped_rows(self):
        batch = eb_batch(3)
        r = batch.radius_batch(0.05)
        d = batch.diagnostics
        assert d["capped"] == 0 and d["at_resolution"] == 0
        assert d["max_residual"] == np.max(mass_residual(batch, r, 0.05)) < 1e-9

    def test_stops_at_float_resolution(self):
        # the quadrature cdf jumps by ~0.8 within ~1e-12 in r here, so a
        # mass residual of 1e-9 is out of float64's reach: the rows stop at
        # a one-ulp bracket, flagged, at the best float radius
        batch = PosteriorBatch([6.5, -6.5], 1e-8)
        r = batch.radius_batch(0.5)
        d = batch.diagnostics
        assert d["capped"] == 0 and d["at_resolution"] == 2
        res = mass_residual(batch, r, 0.5)
        assert d["max_residual"] == np.max(res) and np.all(res > 1e-9)
        for step in (-1, 1):
            assert np.all(mass_residual(batch, r + step * np.spacing(r), 0.5) >= res)

    def test_stops_at_float_resolution_in_both_stages(self):
        # 12 such rows: 3 pilots, and 9 rows started at the pilots' best radius
        batch = PosteriorBatch([6.5, -6.5] * 6, 1e-8)
        r = batch.radius_batch(0.5)
        d = batch.diagnostics
        assert d["capped"] == 0 and d["at_resolution"] == 12
        assert d["max_residual"] == np.max(mass_residual(batch, r, 0.5))

    def test_work_count(self):
        # deterministic guard on the evaluator work: row evaluations per
        # solve; the two-pass Newton took about 6 n on this input, the
        # normal-approximation start for every row 2.96 n
        batch = eb_batch(4)
        assert evaluated_rows(batch, lambda: batch.radius_batch(0.05)) <= 2.4 * batch.n

    @pytest.mark.parametrize("p", [0.025, 0.975])
    def test_quantile_work_count(self, p):
        # the posterior-mean start for every row took 5.96 n and 6.06 n
        # here; pilot-interpolated starts take 2.58 n
        batch = eb_batch(4)
        assert evaluated_rows(batch, lambda: batch.quantile_rows(p)) <= 3.0 * batch.n

    def test_memory_stays_in_row_blocks(self):
        batch = eb_batch(5, n=5000)
        batch.means, batch.variances
        peak = traced_peak(batch.radius_batch, 0.05)[1]
        # 25% over one (5000, 960)-double matrix, a bound fixed in bytes: the
        # radius solve never touches the sampler's z nodes
        assert peak <= 1.25 * 5000 * 960 * 8


# layouts where the pilot stage (every 8th order statistic of the key and
# the largest) meets ties, sign pairs, few rows or one far row
PILOT_LAYOUTS = {
    "one row": [1.3],
    "under eight rows": [0.2, 2.5, -4.0, 1.1, -0.7, 6.0, 3.3],
    "all equal": [1.7] * 20,
    "sign pairs and ties": [2.5, -2.5, 2.5, 0.3, -0.3, 0.3, 2.5, -2.5, 1.0, 1.0,
                            -1.0, 0.0, 0.0, 4.0, -4.0, 4.0, -4.0, 4.0, 0.3, -0.3],
    "zeros and one far row": [0.0] * 19 + [50.0],
}


class TestPilotStage:
    """Rows solved from pilot-interpolated starts against one-row batches."""

    @pytest.mark.parametrize("tau", [1e-3, 0.05, 0.4])
    @pytest.mark.parametrize("layout", PILOT_LAYOUTS)
    def test_radii_match_one_row_batches(self, layout, tau):
        batch = PosteriorBatch(PILOT_LAYOUTS[layout], tau)
        r = batch.radius_batch(0.05)
        d = batch.diagnostics
        assert d["capped"] == d["at_resolution"] == 0
        assert d["max_residual"] == np.max(mass_residual(batch, r, 0.05))
        assert_allclose(r, [one(y, tau).radius_batch(0.05)[0] for y in batch.Y], atol=1e-7)

    @pytest.mark.parametrize("tau", [1e-3, 0.05, 0.4])
    @pytest.mark.parametrize("layout", PILOT_LAYOUTS)
    def test_quantiles_match_one_row_batches(self, layout, tau):
        batch = PosteriorBatch(PILOT_LAYOUTS[layout], tau)
        for p in (0.025, 0.975):
            q = batch.quantile_rows(p)
            d = batch.diagnostics
            assert d["capped"] == d["at_resolution"] == 0
            assert d["max_residual"] == np.max(np.abs(batch.cdf_rows(q) - p))
            assert_allclose(q, [one(y, tau).quantile_rows(p)[0] for y in batch.Y], atol=1e-7)


class TestBatchMoments:
    """Means and variances come from one five-power moment pass."""

    def test_radius_batch_makes_one_moment_pass(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return moments(*args, **kwargs)

        moments = kernels._mixture_moments
        monkeypatch.setattr(kernels, "_mixture_moments", counted)
        batch = PosteriorBatch(np.linspace(-5.0, 5.0, 40), 0.05)
        batch.radius_batch(0.05)
        batch.quantile_rows(0.5)
        assert calls == [kernels._MOMENT_POWERS]

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_match_the_public_moments_on_eb_study_data(self, seed):
        Y, tau = eb_study_data(seed)
        batch = PosteriorBatch(Y, tau)
        assert batch.means.tobytes() == posterior_mean(Y, tau).tobytes()
        assert batch.variances.tobytes() == posterior_variance(Y, tau).tobytes()

    def test_match_the_public_moments_on_the_regime_grid(self):
        for y, tau in REGIME_GRID:
            post = one(y, tau)
            assert post.means[0].hex() == posterior_mean(y, tau).hex()
            assert post.variances[0].hex() == posterior_variance(y, tau).hex()


class TestBatchIndependence:
    def test_one_row_batch_matches_its_row(self):
        # the cdf of a row is the same float alone or among 400 rows; its
        # radius solves the same equation from another start, so it agrees
        # to the solver's tolerance
        Y, tau = eb_study_data(1)
        whole = PosteriorBatch(Y, tau)
        t = whole.means + 0.3
        cdf = whole.cdf_rows(t)
        r = whole.radius_batch(0.05)
        for i in (0, 3, 19, 20, 200, 399):
            row = PosteriorBatch(Y[i:i + 1], tau)
            assert row.cdf_rows(t[i:i + 1])[0] == cdf[i]
            assert abs(row.radius_batch(0.05)[0] - r[i]) < 1e-8


class TestConstructionChecks:
    """A batch checks the range of its z layout when built, not on first draw."""

    def test_rejects_a_square_that_overflows(self):
        with pytest.raises(ValueError, match=r"^\|y\| = 1e\+155 is out of range: its square overflows$"):
            PosteriorBatch([0.5, -1e155], 0.1)

    def test_rejects_a_tau_whose_square_underflows(self):
        with pytest.raises(ValueError, match=r"^tau = 1e-160 is out of range: its square underflows$"):
            PosteriorBatch([0.0, 3.0], 1e-160)

    def test_layout_waits_for_the_first_draw(self):
        batch = PosteriorBatch([0.0, 3.0], 0.1)
        assert "_z_layout" not in vars(batch)
        batch.draw_weights(10, np.random.default_rng(0))
        assert "_z_layout" in vars(batch)

    def test_first_draws_racing_on_threads_match_serial_draws(self):
        # ball_radius makes a batch's first draws on its worker threads, so
        # they may build the layout at once: 8 threads on 2 CPUs, switching
        # often, must draw what one thread draws
        import sys
        from concurrent.futures import ThreadPoolExecutor

        Y = np.random.default_rng(4).standard_normal(8 * _STREAM)
        want = PosteriorBatch(Y, 0.05).draw_weights(200, np.random.default_rng(5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                batch = PosteriorBatch(Y, 0.05)
                streams = np.random.default_rng(5).spawn(8)

                def block(b):
                    rows = slice(b * _STREAM, (b + 1) * _STREAM)
                    return batch.draw_weights(200, None, rows, _streams=streams[b:b + 1])

                with ThreadPoolExecutor(8) as pool:
                    got = np.hstack(list(pool.map(block, range(8), timeout=60)))
                assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

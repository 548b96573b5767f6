"""Tests for credible intervals, L2 balls, and the sparsity diagnostics."""

import concurrent.futures
import math
import os
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import traced_peak
from hsuq.credible import (
    CredibleBall,
    ExcessiveBiasReport,
    RegionLabel,
    ball_radius,
    classify_regions,
    classify_regions_adaptive,
    covers,
    credible_ball,
    excessive_bias_diagnostic,
    interval_batch,
    region_blowups,
    self_similar_check,
)
from hsuq.kernels import GlobalScale, zeta
from hsuq.experiments import verify_theory
from hsuq.posterior import _BLOCK, PosteriorBatch


def _serial_ball(Y, tau, alpha, draws, rng):
    """ball_radius's (radius, mc_se) from its chunks drawn in turn on this thread."""
    batch = PosteriorBatch(Y, tau)
    sq = np.zeros(draws)
    for lo in range(0, batch.n, _BLOCK):
        M = batch.draw_matrix(draws, rng, slice(lo, lo + _BLOCK))
        M -= batch.means[lo:lo + _BLOCK]
        sq += np.einsum("ij,ij->i", M, M)
    dist, p = np.sqrt(sq), 1.0 - alpha
    h = min(alpha / 2.0, p / 2.0, 0.02)
    dens = float(np.quantile(dist, p + h) - np.quantile(dist, p - h)) / (2.0 * h)
    return float(np.quantile(dist, p)), math.sqrt(p * (1.0 - p) / draws) * dens


class TestCredibleInterval:
    def test_contains_is_closed_at_the_boundary(self):
        ivs = np.rec.fromarrays([[1.0, -2.0], [0.5, 0.25]], names="center,half_width")
        npt.assert_array_equal(covers(ivs, [1.5, -2.25]), [True, True])
        npt.assert_array_equal(covers(ivs, [0.5, -1.75]), [True, True])
        npt.assert_array_equal(covers(ivs, [1.5 + 1e-9, -2.25 - 1e-9]), [False, False])
        npt.assert_array_equal(covers(ivs, 1.0), [True, False])


class TestCredibleBallType:
    def test_contains_uses_euclidean_norm(self):
        ball = CredibleBall(
            center=np.zeros(4), radius=1.0, alpha=0.05, blowup_L=1.0,
            mc_draws=1000, mc_se=0.01,
        )
        assert ball.contains(np.full(4, 0.49))
        assert not ball.contains(np.full(4, 0.51))

    def test_contains_rejects_a_point_of_another_shape(self):
        # a scalar or a short point would broadcast against the centre
        ball = CredibleBall(
            center=np.zeros(5), radius=1.0, alpha=0.05, blowup_L=1.0,
            mc_draws=1000, mc_se=0.01,
        )
        for point, shape in (([0.1], r"\(1,\)"), (0.1, r"\(\)"), (np.zeros((1, 5)), r"\(1, 5\)")):
            with pytest.raises(ValueError, match=rf"point of shape {shape} does not match "
                                                 r"the centre's shape \(5,\)"):
                ball.contains(point)
        assert ball.contains(np.full(5, 0.1))

    def test_rejects_zero_radius(self):
        # NaN fails too, and so does an empty center
        for center, radius in ((np.zeros(3), 0.0), (np.zeros(3), math.nan), (np.zeros(0), 0.0)):
            with pytest.raises(ValueError, match="radius must be positive"):
                CredibleBall(
                    center=center, radius=radius, alpha=0.05, blowup_L=1.0,
                    mc_draws=1000, mc_se=0.0,
                )

    def test_rejects_missing_draws(self):
        with pytest.raises(ValueError):
            CredibleBall(
                center=np.zeros(3), radius=1.0, alpha=0.05, blowup_L=1.0,
                mc_draws=0, mc_se=0.0,
            )


class TestIntervalBatch:
    def test_identical_inputs_give_identical_symmetric_intervals(self):
        ivs = interval_batch([0.0, 0.0], GlobalScale(0.1), alpha=0.05)
        assert isinstance(ivs, np.recarray)
        assert ivs.dtype.names == ("center", "half_width")
        assert len(ivs) == 2
        assert ivs[0].center == 0.0
        assert ivs[0].center == ivs[1].center
        assert ivs[0].half_width == ivs[1].half_width
        assert ivs[0].half_width > 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(42)
        Y = rng.standard_normal(12)
        perm = rng.permutation(12)
        tau = GlobalScale(0.2)
        base = interval_batch(Y, tau, alpha=0.1)
        shuffled = interval_batch(Y[perm], tau, alpha=0.1)
        for i, j in enumerate(perm):
            assert shuffled[i].center == base[j].center
            assert shuffled[i].half_width == base[j].half_width

    def test_blowup_scales_half_width_exactly(self):
        Y = np.array([1.0, -2.0, 0.3])
        tau = GlobalScale(0.15)
        plain = interval_batch(Y, tau, alpha=0.05, L=1.0)
        wide = interval_batch(Y, tau, alpha=0.05, L=2.5)
        for a, b in zip(plain, wide):
            assert b.half_width == pytest.approx(2.5 * a.half_width, rel=1e-12)

    def test_nonfinite_coordinate_is_attributed_by_index(self):
        Y = np.array([0.0, 1.0, 2.0, np.nan, 4.0])
        with pytest.raises(ValueError, match="coordinate 3"):
            interval_batch(Y, GlobalScale(0.1), alpha=0.05)

    def test_rejects_nonpositive_blowup(self):
        for L in (0.0, math.nan):
            with pytest.raises(ValueError, match="blow-up"):
                interval_batch([0.0], GlobalScale(0.1), alpha=0.05, L=L)

    def test_sparse_mixture_coverage_pattern(self):
        # 5 strong means, 5 borderline means, 190 nulls. Strong means and
        # nulls should essentially always be covered; the borderline group
        # should lose at least one interval almost every time.
        theta = np.concatenate([np.full(5, 7.0), np.full(5, 1.5), np.zeros(190)])
        tau = GlobalScale(0.11)
        reps = 25
        all_strong = all_null = borderline_missed = 0
        for seed in range(reps):
            rng = np.random.default_rng([11, seed])
            Y = theta + rng.standard_normal(200)
            ivs = interval_batch(Y, tau, alpha=0.05)
            cov = covers(ivs, theta)
            all_strong += cov[:5].all()
            borderline_missed += cov[5:10].sum() <= 4
            all_null += cov[10:].all()
        assert all_strong >= 0.75 * reps
        assert all_null >= 0.9 * reps
        assert borderline_missed >= 0.9 * reps


@pytest.mark.slow
class TestBallRadius:
    def test_single_coordinate_matches_interval_radius(self):
        # With one coordinate the ball is an interval around the same
        # center, so the Monte Carlo radius must agree with the exact one.
        exact = PosteriorBatch([2.5], GlobalScale(0.05)).radius_batch(0.05)[0]
        r, se = ball_radius(
            np.array([2.5]), GlobalScale(0.05), alpha=0.05,
            draws=200_000, rng=np.random.default_rng(3),
        )
        assert se > 0.0
        assert abs(r - exact) <= 4.0 * se

    def test_deterministic_given_seed(self):
        Y = np.linspace(-2.0, 3.0, 40)
        tau = GlobalScale(0.2)
        r1, se1 = ball_radius(Y, tau, alpha=0.05, draws=2000, rng=np.random.default_rng(9))
        r2, se2 = ball_radius(Y, tau, alpha=0.05, draws=2000, rng=np.random.default_rng(9))
        assert r1 == r2
        assert se1 == se2

    def test_rejects_too_few_draws(self):
        with pytest.raises(ValueError, match="1000"):
            ball_radius(np.zeros(5), GlobalScale(0.1), alpha=0.05,
                        draws=999, rng=np.random.default_rng(0))

    def test_rejects_levels_outside_the_unit_interval(self):
        for alpha in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                ball_radius(np.zeros(5), 0.1, alpha, 1000, np.random.default_rng(0))
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                credible_ball(np.zeros(5), 0.1, alpha, 1.0, 1000, np.random.default_rng(0))
        with pytest.raises(ValueError, match="blow-up"):
            credible_ball(np.zeros(5), 0.1, 0.05, math.nan, 1000, np.random.default_rng(0))

    def test_high_level_has_finite_mc_se(self):
        # the density step stays inside (0, 1) when 1 - alpha is small
        r, se = ball_radius(np.linspace(-2.0, 3.0, 40), 0.2, 0.99, 2000,
                            np.random.default_rng(1))
        assert 0.0 < r and 0.0 < se < math.inf

    def test_one_block_radius_is_the_full_matrix_radius(self):
        # at n <= _BLOCK the stream is one draw_matrix call on all rows
        Y = np.random.default_rng(40).standard_normal(100)
        r, _ = ball_radius(Y, 0.05, 0.05, 2000, np.random.default_rng(6))
        batch = PosteriorBatch(Y, 0.05)
        M = batch.draw_matrix(2000, np.random.default_rng(6))
        want = np.quantile(np.linalg.norm(M - batch.means, axis=1), 0.95)
        assert r == pytest.approx(want, rel=1e-12)

    def test_radius_is_bit_identical_on_any_pool(self, monkeypatch):
        # n = 300 is three draw calls of two and one sampler blocks; the
        # serial stream is the same calls with no pool
        Y = np.random.default_rng(42).standard_normal(300)
        batch = PosteriorBatch(Y, 0.05)
        rng, sq = np.random.default_rng(8), np.zeros(2000)
        for lo in range(0, Y.size, _BLOCK):
            M = batch.draw_matrix(2000, rng, slice(lo, lo + _BLOCK))
            M -= batch.means[lo:lo + _BLOCK]
            sq += np.einsum("ij,ij->i", M, M)
        want = float(np.quantile(np.sqrt(sq), 0.95))
        sizes = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                sizes.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)),
                                raising=False)
            r, _ = ball_radius(Y, 0.05, 0.05, 2000, np.random.default_rng(8))
            assert r == want
        # one worker per sampler block of a draw call, up to the CPUs
        assert sizes == [1, 2, 2]

    @pytest.mark.parametrize("n", [1, 64, 129, 5000])
    def test_ball_equals_the_serial_chunk_loop(self, n):
        # partial sampler blocks (1, 129) and partial chunks (1, 64, 129, 5000)
        Y = np.random.default_rng([43, n]).standard_normal(n)
        want = _serial_ball(Y, 0.01, 0.05, 2000, np.random.default_rng(n))
        assert ball_radius(Y, 0.01, 0.05, 2000, np.random.default_rng(n)) == want
        ball = credible_ball(Y, 0.01, 0.05, 1.0, 2000, np.random.default_rng(n))
        assert (ball.radius, ball.mc_se) == want

    def test_radius_is_bit_identical_on_forced_pool_sizes(self, monkeypatch):
        # each chunk draws from its own child streams into its own buffer,
        # so threads cannot change it; 5 workers on 6 chunks and a short
        # switch interval would show a chunk drawn twice or summed out of turn
        Y = np.random.default_rng(13).standard_normal(700)
        want = _serial_ball(Y, 0.05, 0.05, 1000, np.random.default_rng(3))
        real = concurrent.futures.ThreadPoolExecutor
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                                    lambda _, k=workers: real(k))
                assert ball_radius(Y, 0.05, 0.05, 1000, np.random.default_rng(3)) == want
        finally:
            sys.setswitchinterval(interval)

    def test_partial_norms_are_summed_in_chunk_order(self, monkeypatch):
        # a pool that runs the chunks last to first, returning them in order
        class Reversed(concurrent.futures.ThreadPoolExecutor):
            def map(self, fn, *columns):
                return reversed([fn(*args) for args in reversed(list(zip(*columns)))])

        # summed in reverse, 605 of the 1000 squared norms move by an ulp
        Y = np.random.default_rng(44).standard_normal(2000)
        want = ball_radius(Y, 0.05, 0.05, 1000, np.random.default_rng(7))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Reversed)
        assert ball_radius(Y, 0.05, 0.05, 1000, np.random.default_rng(7)) == want

    def test_streamed_radius_follows_the_draw_matrix_law(self):
        # the streamed radius against the full (draws, n) matrix of the
        # public joint sampler, on an independent stream of the same law
        Y = np.random.default_rng(41).standard_normal(300)
        draws = 20_000
        r, se = ball_radius(Y, 0.05, 0.05, draws, np.random.default_rng(42))
        batch = PosteriorBatch(Y, 0.05)
        M = batch.draw_matrix(draws, np.random.default_rng(43))
        dist = np.linalg.norm(M - batch.means, axis=1)
        want = float(np.quantile(dist, 0.95))
        dens = float(np.quantile(dist, 0.97) - np.quantile(dist, 0.93)) / 0.04
        want_se = math.sqrt(0.95 * 0.05 / draws) * dens
        assert abs(r - want) <= 4.0 * math.hypot(se, want_se)

    def test_streamed_ball_holds_no_draw_matrix(self):
        # the ball holds a few (_BLOCK, draws) buffers and no (n, nodes)
        # node matrix; the full (draws, n) draw matrix alone would be 80 MB
        Y = np.random.default_rng(12).standard_normal(5000)
        draws = 2000
        peak = traced_peak(ball_radius, Y, 0.01, 0.05, draws, np.random.default_rng(1))[1]
        assert peak <= 6 * _BLOCK * draws * 8

    def test_credible_ball_holds_one_chunk_per_worker(self):
        # center pass included: the posterior mean in 512-row damping blocks
        # (about 1 MB), then at most two workers, each with its (draws, _BLOCK)
        # chunk (2 MB) and (_SUB_BLOCK, draws) temporaries; whole-block
        # expansion and noise, or 4,096-row damping blocks, exceed the bound
        Y = np.random.default_rng(12).standard_normal(5000)
        draws = 2000
        peak = traced_peak(credible_ball, Y, 0.01, 0.05, 1.0, draws, np.random.default_rng(1))[1]
        assert peak <= 3.25 * _BLOCK * draws * 8

    def test_radius_grows_with_dimension_on_null_data(self):
        tau = GlobalScale(0.1)
        medians = {}
        for n in (1000, 4000):
            vals = []
            for seed in range(20):
                rng = np.random.default_rng([31, seed])
                Y = rng.standard_normal(n)
                r, _ = ball_radius(Y, tau, alpha=0.05, draws=1200, rng=rng)
                vals.append(r)
            medians[n] = float(np.median(vals))
        assert medians[4000] > medians[1000]

    def test_null_data_radius_clears_scale_lower_bound(self):
        # One replication of the small-scale floor: the radius should be
        # at least half of sqrt(n * tau * zeta_tau) for null data.
        n, t = 5000, 0.01
        rng = np.random.default_rng(77)
        Y = rng.standard_normal(n)
        r, _ = ball_radius(Y, GlobalScale(t), alpha=0.05, draws=1200, rng=rng)
        assert r >= 0.5 * math.sqrt(n * t * zeta(t))


@pytest.mark.slow
class TestCredibleBallOp:
    def test_center_is_posterior_mean_vector(self):
        rng = np.random.default_rng(15)
        Y = rng.standard_normal(60)
        tau = GlobalScale(0.3)
        ball = credible_ball(Y, tau, alpha=0.05, L=1.0, draws=1500, rng=rng)
        npt.assert_allclose(ball.center, PosteriorBatch(Y, tau).means, rtol=0, atol=0)

    def test_ball_leaves_no_thread_running(self, monkeypatch):
        import hsuq.posterior

        Y = np.random.default_rng(17).standard_normal(300)
        before = threading.active_count()
        credible_ball(Y, 0.05, 0.05, 1.0, 1000, np.random.default_rng(1))
        assert threading.active_count() == before
        # a failing block is raised on the caller's thread, after the pool is joined
        real, calls = hsuq.posterior._draw_block, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("block failed")
            real(*args, **kwargs)

        monkeypatch.setattr(hsuq.posterior, "_draw_block", failing)
        with pytest.raises(RuntimeError, match="block failed"):
            credible_ball(Y, 0.05, 0.05, 1.0, 1000, np.random.default_rng(1))
        assert threading.active_count() == before

    def test_one_posterior_mean_per_ball(self, monkeypatch):
        import hsuq.credible
        import hsuq.posterior

        Y = np.random.default_rng(16).standard_normal(80)
        want = ball_radius(Y, 0.1, 0.05, 1200, np.random.default_rng(4))
        calls = []
        # the ball's own mean, and a batch's moment pass
        for mod, name in ((hsuq.credible, "posterior_mean"), (hsuq.posterior, "_posterior_moments")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda y, t, real=real: calls.append(1) or real(y, t))
        ball = credible_ball(Y, 0.1, 0.05, 1.0, 1200, np.random.default_rng(4))
        assert len(calls) == 1
        assert (ball.radius, ball.mc_se) == want

    def test_too_few_draws_are_rejected_before_the_mean(self, monkeypatch):
        import hsuq.credible

        calls = []
        monkeypatch.setattr(hsuq.credible, "posterior_mean", lambda *args: calls.append(1))
        with pytest.raises(ValueError, match="1000"):
            credible_ball(np.zeros(5), 0.1, 0.05, 1.0, 999, np.random.default_rng(0))
        assert calls == []

    def test_blowup_scales_radius_exactly(self):
        Y = np.linspace(-1.0, 2.0, 30)
        tau = GlobalScale(0.2)
        b1 = credible_ball(Y, tau, alpha=0.05, L=1.0, draws=1500,
                           rng=np.random.default_rng(8))
        b2 = credible_ball(Y, tau, alpha=0.05, L=2.0, draws=1500,
                           rng=np.random.default_rng(8))
        assert b2.radius == pytest.approx(2.0 * b1.radius, rel=1e-12)
        assert b2.mc_se == pytest.approx(2.0 * b1.mc_se, rel=1e-12)

    def test_independent_seeds_agree_within_mc_error(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal(3000)
        tau = GlobalScale(0.1)
        b1 = credible_ball(Y, tau, alpha=0.05, L=1.0, draws=4096,
                           rng=np.random.default_rng(101))
        b2 = credible_ball(Y, tau, alpha=0.05, L=1.0, draws=4096,
                           rng=np.random.default_rng(202))
        joint = math.hypot(b1.mc_se, b2.mc_se)
        assert abs(b1.radius - b2.radius) <= 3.0 * joint

    def test_sparse_truth_contained_at_modest_blowup(self):
        # Self-similar truth, scale pinned to the sparsity rate. The
        # doubled ball should contain the truth in nearly every replication;
        # the study is the shipped `hsuq verify ball-coverage` check.
        n, p = 2000, 40
        theta = np.concatenate([np.full(p, 2.0 * math.sqrt(2.0 * math.log(n / p))),
                                np.zeros(n - p)])
        assert self_similar_check(theta, p, A=2.0, Cs=1.0)
        result = verify_theory("ball-coverage")
        assert result.measured["L"] == 2.0
        assert result.measured["coverage"] >= 0.9


class TestRegionCoverage:
    def test_blown_up_intervals_sort_coordinates_as_expected(self):
        # Small and large coordinates reach high coverage once their
        # blow-ups are applied; medium coordinates stay poorly covered
        # at the plain radius. Desk-scale version with one seed.
        t = 0.01
        zt = zeta(t)
        L_small, L_large = region_blowups(alpha=0.05, gamma=0.1)
        n = 3000
        third = n // 3
        theta = np.concatenate([
            np.zeros(third), np.full(third, 0.5 * zt), np.full(third, 1.5 * zt),
        ])
        rng = np.random.default_rng(0)
        Y = theta + rng.standard_normal(n)
        batch = PosteriorBatch(Y, t)
        r = batch.radius_batch(0.05)
        d = np.abs(theta - batch.means)
        small = (d[:third] <= L_small * r[:third]).mean()
        medium = (d[third:2 * third] <= r[third:2 * third]).mean()
        large = (d[2 * third:] <= L_large * r[2 * third:]).mean()
        assert small >= 0.95
        assert medium <= 0.12
        assert large >= 0.85


class TestClassifyRegions:
    def test_zero_is_small(self):
        labels = classify_regions([0.0], GlobalScale(0.1))
        assert labels == [RegionLabel.SMALL]

    def test_twice_zeta_is_large(self):
        t = 0.1
        labels = classify_regions([2.0 * zeta(t)], GlobalScale(t), kL=1.5)
        assert labels == [RegionLabel.LARGE]

    def test_half_zeta_is_medium(self):
        t = 0.1
        labels = classify_regions([0.5 * zeta(t)], GlobalScale(t), kM=0.9)
        assert labels == [RegionLabel.MEDIUM]

    def test_gap_between_small_and_medium_is_unclassified(self):
        # kS*tau = 0.1 < 0.15 < f*tau = 0.2
        labels = classify_regions([0.15], GlobalScale(0.1))
        assert labels == [RegionLabel.UNCLASSIFIED]

    def test_negative_values_classified_by_magnitude(self):
        t = 0.1
        labels = classify_regions([-2.0 * zeta(t), -0.05], GlobalScale(t))
        assert labels == [RegionLabel.LARGE, RegionLabel.SMALL]

    def test_overlapping_configuration_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            classify_regions([0.0], GlobalScale(0.1), kS=1.0, f=1.0)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            classify_regions([0.0], GlobalScale(0.1), kM=1.0)
        with pytest.raises(ValueError):
            classify_regions([0.0], GlobalScale(0.1), kL=1.0)
        with pytest.raises(ValueError):
            classify_regions([0.0], GlobalScale(0.1), kS=0.0)


class TestClassifyRegionsAdaptive:
    def test_boundary_cases(self):
        n, p = 400, 20
        labels = classify_regions_adaptive([0.0, 1.0, 4.0, 0.05], n, p)
        assert labels == [
            RegionLabel.SMALL,
            RegionLabel.MEDIUM,
            RegionLabel.LARGE,
            RegionLabel.UNCLASSIFIED,
        ]

    def test_dense_case_rejected(self):
        # p = n drives the sparsity rate to zero, so the medium floor
        # cannot exceed the small ceiling.
        with pytest.raises(ValueError, match="overlap"):
            classify_regions_adaptive([0.0], 400, 400)


class TestSelfSimilar:
    def test_strong_signals_pass(self):
        n, p = 200, 10
        thr = math.sqrt(2.0 * math.log(n / p))
        theta = np.concatenate([np.full(p, 10.0 * thr), np.zeros(n - p)])
        assert self_similar_check(theta, p, A=1.1, Cs=1.0)

    def test_all_zeros_fail(self):
        assert not self_similar_check(np.zeros(50), p=1)

    def test_boundary_count_is_inclusive(self):
        n, p, Cs = 100, 10, 3.0
        thr = 2.0 * math.sqrt(2.0 * math.log(n / p))
        need = math.ceil(p / Cs)
        enough = np.concatenate([np.full(need, thr + 1.0), np.zeros(n - need)])
        short = np.concatenate([np.full(need - 1, thr + 1.0), np.zeros(n - need + 1)])
        assert self_similar_check(enough, p, A=2.0, Cs=Cs)
        assert not self_similar_check(short, p, A=2.0, Cs=Cs)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self_similar_check(np.ones(10), p=1, A=1.0)
        with pytest.raises(ValueError):
            self_similar_check(np.ones(10), p=1, Cs=0.5)
        with pytest.raises(ValueError):
            self_similar_check(np.ones(10), p=11)


class TestExcessiveBias:
    def test_marginal_signals_need_the_full_budget(self):
        # Signals sitting exactly at the p-th threshold fail every count
        # test below q = p, so the scan stops precisely at q = p.
        n, p = 200, 10
        sig = 2.0 * math.sqrt(2.0 * math.log(n / p))
        theta = np.concatenate([np.full(p, sig), np.zeros(n - p)])
        rep = excessive_bias_diagnostic(theta, A=2.0, Cs=1.0)
        assert rep.satisfied
        assert rep.q == p
        assert rep.p_tilde == p

    def test_strong_signals_satisfy_at_q_one(self):
        n, p = 200, 10
        sig = 20.0 * math.sqrt(2.0 * math.log(n / p))
        theta = np.concatenate([np.full(p, sig), np.zeros(n - p)])
        rep = excessive_bias_diagnostic(theta, A=2.0, Cs=1.0)
        assert rep.satisfied
        assert rep.q == 1
        assert rep.p_tilde == p

    def test_all_zeros_unsatisfied(self):
        rep = excessive_bias_diagnostic(np.zeros(100))
        assert not rep.satisfied
        assert rep.q is None
        assert rep.p_tilde == 0

    def test_single_spike_documented_case(self):
        # n=100 with one coordinate at 10: the first threshold is about
        # 4.55, cleared by the spike, and nothing contributes bias below it.
        theta = np.zeros(100)
        theta[0] = 10.0
        rep = excessive_bias_diagnostic(theta, A=1.5, Cs=1.0, C=4.0)
        assert rep.satisfied
        assert rep.q == 1
        assert rep.p_tilde == 1
        assert rep.constants == {"A": 1.5, "Cs": 1.0, "C": 4.0}

    def test_default_constants_recorded(self):
        rep = excessive_bias_diagnostic(np.zeros(10))
        assert rep.constants == {"A": 2.0, "Cs": 1.0, "C": 8.0}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            excessive_bias_diagnostic(np.ones(10), A=1.0)
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="Cs > 0"):
                excessive_bias_diagnostic(np.ones(10), Cs=bad)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="C > 0"):
                excessive_bias_diagnostic(np.ones(10), C=bad)


class TestRegionBlowups:
    def test_reference_values(self):
        L_small, L_large = region_blowups(alpha=0.05, gamma=0.1)
        assert L_small == pytest.approx(63.7779345041316, rel=1e-12)
        assert L_large == pytest.approx(1.6369368493530612, rel=1e-12)

    def test_tighter_gamma_needs_larger_blowups(self):
        ls1, ll1 = region_blowups(alpha=0.05, gamma=0.1)
        ls2, ll2 = region_blowups(alpha=0.05, gamma=0.01)
        assert ls2 > ls1
        assert ll2 > ll1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            region_blowups(alpha=0.0, gamma=0.1)
        with pytest.raises(ValueError):
            region_blowups(alpha=0.05, gamma=1.0)
        # both factors divide by ndtri(1 - alpha): 0 at 1/2, negative above
        for alpha in (0.5, 0.7):
            with pytest.raises(ValueError, match=r"\(0, 1/2\).*ndtri"):
                region_blowups(alpha=alpha, gamma=0.1)

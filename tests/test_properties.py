"""Property tests for the symmetry, bounds, monotonicity and permutation
equivariance that the kernel and posterior docstrings claim, on y in
[-50, 50] and tau in [1e-4, 1]."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hsuq import PosteriorBatch, posterior_mean, posterior_variance, score_m

ys = st.floats(-50.0, 50.0)
taus = st.floats(1e-4, 1.0)
samples = st.lists(ys, min_size=1, max_size=6)
# the same examples on every run, with no database of earlier failures
few = settings(deadline=None, max_examples=25, derandomize=True, database=None)


@few
@given(ys, taus)
def test_posterior_mean_is_odd_and_shrinks(y, tau):
    m = posterior_mean(y, tau)
    assert posterior_mean(-y, tau) == -m
    assert 0.0 <= m * y <= y * y


@few
@given(ys, taus)
def test_posterior_variance_is_positive(y, tau):
    assert posterior_variance(y, tau) > 0.0


@few
@given(samples, taus, st.lists(st.floats(-60.0, 60.0), min_size=2, max_size=8))
@example([0.0], 0.25, [-8.5e-286, 0.0])
def test_cdf_rows_is_nondecreasing_in_t(Y, tau, points):
    # in the example both points fall next to the panel edge at 0, where
    # the cdf once read 0.5000000000000002 and then 0.5000000000000001
    batch = PosteriorBatch(Y, tau)
    F = np.array([batch.cdf_rows(t) for t in sorted(points)])
    assert np.all(np.diff(F, axis=0) >= 0.0)


@few
@given(samples, taus)
def test_radius_batch_is_even_in_y(Y, tau):
    # the solver stops at a mass residual of 1e-9, not at an exact root
    r = PosteriorBatch(Y, tau).radius_batch(0.05)
    assert_allclose(PosteriorBatch(-np.array(Y), tau).radius_batch(0.05), r,
                    rtol=1e-9, atol=0.0)


@few
@given(st.data(), samples, taus)
def test_batch_means_and_radii_are_permutation_equivariant(data, Y, tau):
    perm = np.array(data.draw(st.permutations(range(len(Y)))))
    base, shuffled = PosteriorBatch(Y, tau), PosteriorBatch(np.array(Y)[perm], tau)
    # the kernel pass contracts each row on its own, so means are bit-exact
    assert np.array_equal(shuffled.means, base.means[perm])
    assert_allclose(shuffled.radius_batch(0.05), base.radius_batch(0.05)[perm],
                    rtol=1e-9, atol=0.0)


@few
@given(samples, taus)
@example([0.60345985, 30.41887075, 1.53898077, 10.97557172, -24.22666366, -3.80064031,
          -4.6609015], 0.0006552329416699141)
def test_rows_match_their_one_row_batches(Y, tau):
    # a row's radius and quantile must not depend on whether it was a pilot:
    # each matches its one-row batch to 1e-8. The solver stops only once
    # the Newton step |g| / g' is below 1e-9 too, so a row whose cdf is
    # flat at the root is pinned as well: in the example, y = -3.80 has
    # slope 0.004 at its radius, and a stop on the mass residual alone
    # left it 2.2e-7 from its one-row batch.
    batch = PosteriorBatch(Y, tau)
    r = batch.radius_batch(0.05)
    r1 = [PosteriorBatch([y], tau).radius_batch(0.05)[0] for y in Y]
    assert_allclose(r, r1, rtol=0.0, atol=1e-8)
    q = batch.quantile_rows(0.975)
    q1 = [PosteriorBatch([y], tau).quantile_rows(0.975)[0] for y in Y]
    assert_allclose(q, q1, rtol=0.0, atol=1e-8)


@pytest.mark.xfail(strict=True, reason="the layer 1 - u ~ 1/y^2 is below float "
                   "resolution in u for |y| > ~1e8, so score_m(1e8, 0.1) is -0.101")
def test_score_tends_to_one_far_in_the_tail():
    assert score_m(1e8, 0.1) == pytest.approx(1.0, abs=1e-3)

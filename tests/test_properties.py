"""Property tests for the symmetry, bounds, monotonicity and permutation
equivariance that the kernel and posterior docstrings claim, on y in
[-50, 50] and tau in [1e-4, 1]."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hsuq import PosteriorBatch, posterior_mean, posterior_variance, score_m

ys = st.floats(-50.0, 50.0)
taus = st.floats(1e-4, 1.0)
samples = st.lists(ys, min_size=1, max_size=6)
few = settings(deadline=None, max_examples=25)


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
def test_cdf_rows_is_nondecreasing_in_t(Y, tau, points):
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
    # the kernel pass is a matrix product, so a row's last bits can depend on
    # its position, and the radius solves then stop at different points
    assert_allclose(shuffled.means, base.means[perm], rtol=1e-12, atol=0.0)
    assert_allclose(shuffled.radius_batch(0.05), base.radius_batch(0.05)[perm],
                    rtol=1e-9, atol=0.0)


@pytest.mark.xfail(strict=True, reason="the layer 1 - u ~ 1/y^2 is below float "
                   "resolution in u for |y| > ~1e8, so score_m(1e8, 0.1) is -0.101")
def test_score_tends_to_one_far_in_the_tail():
    assert score_m(1e8, 0.1) == pytest.approx(1.0, abs=1e-3)

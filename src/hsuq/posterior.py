"""Exact per-coordinate posterior law: CDF, quantiles, draws, interval radius.

Given one observation y and a global scale tau, the posterior of the
coordinate mean is a scale mixture of normals. Conditional on the
shrinkage weight z = lam^2 tau^2 / (1 + lam^2 tau^2) the law is
Normal(z*y, z), and z itself lives on (0, 1) with density proportional
to z^(-1/2) (tau^2 + (1 - tau^2) z)^(-1) exp(y^2 z / 2). Everything in
this module, draws included, uses one discrete law for z: the node value
u_j^2 with the row's normalized quadrature weight W_ij. The nodes, their
prior weights and the damping by exp(-y^2 / 2) (so nothing overflows)
come from the one quadrature layout of the kernels module
(``kernels._layout``), with the batch's panel halvings ``_BATCH_SPLITS``.

`PosteriorBatch` is the one posterior type; a single coordinate is a
one-row batch, `PosteriorBatch([y], tau)`.
"""

import math
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .kernels import (
    _BATCH_SPLITS,
    GlobalScale,
    _as_obs,
    _check_level,
    _damp,
    _layout,
    _tau_value,
    posterior_mean,
    posterior_variance,
)

__all__ = ["PosteriorBatch"]
_BLOCK = 128  # rows per sampler block
_EVAL_BLOCK = 32  # rows per evaluator block: its temporaries stay near L2


class PosteriorBatch:
    """Vectorized posterior machinery for a whole observation vector.

    All coordinates share one global scale and one set of quadrature
    nodes in u = sqrt(z); only the mixture weights differ per row.
    """

    def __init__(self, Y, tau):
        self.Y = np.ascontiguousarray(_as_obs(Y, 1))
        self.tau = GlobalScale(_tau_value(tau))
        ymax = float(np.max(np.abs(self.Y)))
        self._u, w = _layout(self.tau.tau, ymax, _BATCH_SPLITS)
        # one (n, nodes) matrix, built in place: damp, weight, normalise
        W = _damp(self.Y * self.Y, self._u)
        W *= w
        W /= W.sum(axis=1, keepdims=True)
        self._W = W

    @property
    def n(self):
        return self.Y.size

    @cached_property
    def means(self):
        return posterior_mean(self.Y, self.tau.tau)

    @cached_property
    def variances(self):
        return posterior_variance(self.Y, self.tau.tau)

    def _evaluate(self, rows, t):
        """(F, f, f') stacked, of the listed rows at points t (rows x points).

        One pass over the node matrix, in blocks of _EVAL_BLOCK rows so the
        temporaries stay near L2: per block W/(u sqrt(2 pi)) and W/(u^2 sqrt(2 pi))
        are formed once, and per point a = t/u - y u (= (t - y u^2)/u) gives
        F = sum W ndtr(a) and, from one exp(-a^2/2), f = sum W phi and
        f' = -sum W phi a/u, with phi = exp(-a^2/2) / (u sqrt(2 pi)).
        """
        iu = 1.0 / self._u
        out = np.empty((3,) + t.shape)
        for lo in range(0, rows.size, _EVAL_BLOCK):
            blk = slice(lo, lo + _EVAL_BLOCK)
            W = self._W[rows[blk]]
            Wf = W * (iu / math.sqrt(2.0 * math.pi))
            Wd = Wf * iu
            yu = np.multiply.outer(self.Y[rows[blk]], self._u)
            a, e = np.empty_like(W), np.empty_like(W)
            for j in range(t.shape[1]):
                np.multiply.outer(t[blk, j], iu, out=a)
                a -= yu
                out[0, blk, j] = np.einsum("ij,ij->i", ndtr(a, out=e), W)
                np.multiply(a, a, out=e)
                e *= -0.5
                np.exp(e, out=e)
                out[1, blk, j] = np.einsum("ij,ij->i", e, Wf)
                e *= a
                out[2, blk, j] = -np.einsum("ij,ij->i", e, Wd)
        return out

    def cdf_rows(self, t):
        """Per-row CDF values; t may be scalar or one value per row."""
        tt = np.broadcast_to(np.asarray(t, dtype=float), (self.n,))
        return self._evaluate(np.arange(self.n), tt[:, None])[0, :, 0]

    def _solve(self, key, base, signs, target, x, lo, hi):
        """Per-row root of the increasing g(x) = sum_j signs_j F(base_j + signs_j x) - target.

        g < 0 at lo and > 0 at hi, so each row's node mass must exceed the
        target (ArithmeticError if not). The pilot rows (every 8th order
        statistic of ``key`` and the largest) are solved first from ``x``;
        every other row then starts at the pilot roots interpolated in
        ``key`` and clipped into its bracket, and pilot rows are final. One
        evaluator pass per iteration gives g, g' and g''. Halley steps fall
        back to Newton when their denominator is not positive, and bisect
        when they leave the bracket or |g| did not halve since the last
        step. A row stops once |g| < 1e-9 and its Newton step |g| / g' < 1e-9,
        or, at float resolution, at a one-ulp bracket, and returns its point
        of least |g|.
        ``diagnostics`` counts the rows ``capped`` at 80 iterations and those
        stopped ``at_resolution``, with the largest least |g| (``max_residual``),
        over all rows.
        """
        if np.any(self._W.sum(axis=1) - target <= 0.0):
            raise ArithmeticError("no finite root reaches the target mass")
        order = np.argsort(key, kind="stable")
        pilot = order[np.unique(np.r_[0:self.n:8, self.n - 1])]
        rest = np.setdiff1d(order, pilot)
        best, resid, prev = x.copy(), np.full(self.n, np.inf), np.full(self.n, np.inf)
        capped = stalled = 0
        for idx in (pilot, rest):
            if idx is rest:
                x[rest] = np.clip(np.interp(key[rest], key[pilot], best[pilot]), lo[rest], hi[rest])
            for it in range(80):
                xi = x[idx]
                F, f, fp = self._evaluate(idx, base[idx] + signs * xi[:, None])
                g = F @ signs - target
                better = np.abs(g) < resid[idx]
                best[idx[better]], resid[idx[better]] = xi[better], np.abs(g[better])
                lo[idx] = lo_i = np.where(g < 0.0, xi, lo[idx])
                hi[idx] = hi_i = np.where(g > 0.0, xi, hi[idx])
                d1 = f.sum(1)
                live = np.abs(g) >= 1e-9 * np.minimum(d1, 1.0)
                flat = hi_i - lo_i <= np.spacing(np.maximum(np.abs(lo_i), np.abs(hi_i)))
                stalled += int(np.count_nonzero(live & flat))
                live &= ~flat
                idx, xi, g, d1, d2 = idx[live], xi[live], g[live], d1[live], fp[live] @ signs
                if idx.size == 0 or it == 79:
                    break
                den = 2.0 * d1 * d1 - g * d2
                with np.errstate(all="ignore"):  # a non-finite step bisects
                    x_new = xi - np.where(den > 0.0, 2.0 * g * d1 / den, g / d1)
                bisect = ((x_new <= lo[idx]) | (x_new >= hi[idx]) | ~np.isfinite(x_new)
                          | (np.abs(g) > 0.5 * prev[idx]))
                prev[idx] = np.abs(g)
                x[idx] = np.where(bisect, 0.5 * (lo[idx] + hi[idx]), x_new)
            capped += idx.size
        self.diagnostics = dict(capped=capped, at_resolution=stalled, max_residual=resid.max())
        return best

    def radius_batch(self, alpha):
        """Per-row radius r with posterior mass 1 - alpha on [mean - r, mean + r],
        for 0 < alpha < 1."""
        alpha = float(alpha)
        _check_level(alpha)
        target = 1.0 - alpha
        # at r = |y| + 10 every ndtr argument lies beyond +-10, where ndtr is
        # 1.0 or below 1e-23, so the gap there is the node mass minus the target
        hi = np.abs(self.Y) + 10.0
        # pilots start at the normal approximation; the radius is even in y: key |y|
        r = np.clip(ndtri(1.0 - alpha / 2.0) * np.sqrt(self.variances), 1e-6, hi)
        c = np.repeat(self.means[:, None], 2, axis=1)
        return self._solve(np.abs(self.Y), c, np.array([1.0, -1.0]), target, r,
                           np.zeros(self.n), hi)

    def quantile_rows(self, p):
        """Per-row p-quantile of the posterior; pilot rows start at the posterior mean."""
        p = float(p)
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {p}")
        # 40 beyond both 0 and y every ndtr argument lies beyond +-40, where
        # ndtr is exactly 0 or 1, so F is 0 at lo and the node mass at hi
        lo = np.minimum(self.Y, 0.0) - 40.0
        hi = np.maximum(self.Y, 0.0) + 40.0
        return self._solve(self.Y, np.zeros((self.n, 1)), np.ones(1), p, self.means.copy(), lo, hi)

    def draw_weights(self, draws, rng, rows=slice(None)):
        """(draws, len(rows)) shrinkage weights z of the basic slice ``rows``, one row per draw.

        Exact draws from the node law that ``cdf_rows`` integrates: each z is
        u_j^2 with probability W_ij, independently across draws and rows. Per
        block of _BLOCK rows, multinomial node counts are expanded into the
        block's rows of one (rows, draws) buffer and each row is shuffled in
        place, so memory stays near the output's own bytes.
        """
        draws = int(draws)
        z = self._u * self._u
        W = self._W[rows]  # a view: rows is a basic slice
        out = np.empty((len(W), draws))
        for lo in range(0, len(W), _BLOCK):
            blk = out[lo:lo + _BLOCK]
            counts = rng.multinomial(draws, W[lo:lo + _BLOCK])
            blk[:] = np.repeat(np.tile(z, len(blk)), counts.ravel()).reshape(blk.shape)
            rng.permuted(blk, axis=1, out=blk)
        return out.T

    def draw_matrix(self, draws, rng, rows=slice(None)):
        """(draws, len(rows)) posterior draws of the means of the basic slice ``rows``."""
        z = self.draw_weights(draws, rng, rows)
        # in place on z: z * Y + sqrt(z) * N with one temporary
        noise = np.sqrt(z)
        noise *= rng.standard_normal(z.shape)
        z *= self.Y[rows]
        z += noise
        return z

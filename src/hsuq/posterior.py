"""Exact per-coordinate posterior law: CDF, quantiles, draws, interval radius.

Given one observation y and a global scale tau, the posterior of the
coordinate mean is a scale mixture of normals. Conditional on the
shrinkage weight z = lam^2 tau^2 / (1 + lam^2 tau^2) the law is
Normal(z*y, z), and z itself lives on (0, 1) with density proportional
to z^(-1/2) (tau^2 + (1 - tau^2) z)^(-1) exp(y^2 z / 2). Everything in
this module reduces to quadrature against that weight distribution. The
nodes, their prior weights and the damping by exp(-y^2 / 2) (so nothing
overflows) come from the one quadrature layout of the kernels module
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
    _damp,
    _layout,
    _prior,
    posterior_mean,
    posterior_variance,
)

__all__ = ["PosteriorBatch"]
_BLOCK = 128  # rows per evaluator block: ~1 MB temporaries at 1000 nodes


def _linear_density_invert(a, b, width, rho):
    """Offset s in [0, width] with integral of the linear density a->b equal to rho."""
    slope = (b - a) / width
    flat = np.abs(b - a) <= 1e-12 * np.maximum(np.maximum(a, b), 1e-300)
    dead = (a + b) <= 0.0
    disc = np.maximum(a * a + 2.0 * slope * rho, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = rho / np.where(a > 0.0, a, 1.0)
        s = np.where(flat, lin, (np.sqrt(disc) - a) / np.where(flat, 1.0, slope))
    # zero density at both endpoints: fall back to midpoint placement
    s = np.where(dead, 0.5 * width, s)
    return np.clip(s, 0.0, width)


class PosteriorBatch:
    """Vectorized posterior machinery for a whole observation vector.

    All coordinates share one global scale and one set of quadrature
    nodes in u = sqrt(z); only the mixture weights differ per row.
    """

    def __init__(self, Y, tau):
        self.Y = np.ascontiguousarray(_as_obs(Y, 1))
        self.tau = tau if isinstance(tau, GlobalScale) else GlobalScale(float(tau))
        ymax = float(np.max(np.abs(self.Y)))
        self._edges, self._u, w = _layout(self.tau.tau, ymax, _BATCH_SPLITS)
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

        One pass over the node matrix, in blocks of _BLOCK rows so every
        temporary is O(_BLOCK x nodes): a = (t - y u^2)/u gives F = sum W ndtr(a)
        and, with phi = exp(-a^2/2) / (u sqrt(2 pi)), f = sum W phi, f' = -sum W phi a/u.
        """
        u = self._u
        out = np.empty((3,) + t.shape)
        for lo in range(0, rows.size, _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            W = self._W[rows[blk]]
            yz = np.multiply.outer(self.Y[rows[blk]], u * u)
            for j in range(t.shape[1]):
                a = (t[blk, j, None] - yz) / u
                out[0, blk, j] = np.einsum("ij,ij->i", ndtr(a), W)
                phi = np.exp(-0.5 * a * a) / (u * math.sqrt(2.0 * math.pi))
                out[1, blk, j] = np.einsum("ij,ij->i", phi, W)
                phi *= a / u
                out[2, blk, j] = -np.einsum("ij,ij->i", phi, W)
        return out

    def cdf_rows(self, t):
        """Per-row CDF values; t may be scalar or one value per row."""
        tt = np.broadcast_to(np.asarray(t, dtype=float), (self.n,))
        return self._evaluate(np.arange(self.n), tt[:, None])[0, :, 0]

    def _bracket(self, p, anchor, edge, sign):
        """Double each edge's distance from its anchor until sign * (F - p) > 0."""
        idx = np.arange(self.n)
        for _ in range(60):
            bad = sign * (self._evaluate(idx, edge[idx, None])[0, :, 0] - p) <= 0.0
            if not np.any(bad):
                return edge
            idx = idx[bad]
            edge[idx] = anchor[idx] + 2.0 * (edge[idx] - anchor[idx])
        raise ArithmeticError("bracket expansion failed: target beyond the quadrature CDF's reach")

    def _solve(self, base, signs, target, x, lo, hi):
        """Per-row root of the increasing g(x) = sum_j signs_j F(base_j + signs_j x) - target.

        g < 0 at lo and > 0 at hi. One evaluator pass per iteration gives g,
        g' and g''. Halley steps fall back to Newton when their denominator
        is not positive, and bisect when they leave the bracket or |g| did
        not halve since the last step. A row stops at |g| < 1e-9 or, at float
        resolution, at a one-ulp bracket, and returns its point of least |g|.
        ``diagnostics`` counts the rows ``capped`` at 80 iterations and those
        stopped ``at_resolution``, with the largest least |g| (``max_residual``).
        """
        idx = np.arange(self.n)
        best, resid, prev = x.copy(), np.full(self.n, np.inf), np.full(self.n, np.inf)
        stalled = 0
        for it in range(80):
            xi = x[idx]
            F, f, fp = self._evaluate(idx, base[idx] + signs * xi[:, None])
            g = F @ signs - target
            better = np.abs(g) < resid[idx]
            best[idx[better]], resid[idx[better]] = xi[better], np.abs(g[better])
            lo[idx] = np.where(g < 0.0, xi, lo[idx])
            hi[idx] = np.where(g > 0.0, xi, hi[idx])
            live = np.abs(g) >= 1e-9
            flat = hi[idx] - lo[idx] <= np.spacing(np.maximum(np.abs(lo[idx]), np.abs(hi[idx])))
            stalled += int(np.count_nonzero(live & flat))
            live &= ~flat
            idx, xi, g, d1, d2 = idx[live], xi[live], g[live], f[live].sum(1), fp[live] @ signs
            if idx.size == 0 or it == 79:
                break
            den = 2.0 * d1 * d1 - g * d2
            with np.errstate(divide="ignore", invalid="ignore"):
                x_new = xi - np.where(den > 0.0, 2.0 * g * d1 / den, g / d1)
            bisect = ((x_new <= lo[idx]) | (x_new >= hi[idx]) | ~np.isfinite(x_new)
                      | (np.abs(g) > 0.5 * prev[idx]))
            prev[idx] = np.abs(g)
            x[idx] = np.where(bisect, 0.5 * (lo[idx] + hi[idx]), x_new)
        self.diagnostics = dict(capped=idx.size, at_resolution=stalled, max_residual=resid.max())
        return best

    def radius_batch(self, alpha):
        """Per-row radius r with posterior mass 1 - alpha on [mean - r, mean + r]."""
        alpha = float(alpha)
        if not 0.0 < alpha <= 0.5:
            raise ValueError(f"alpha must be in (0, 1/2], got {alpha}")
        target = 1.0 - alpha
        # at r = |y| + 10 every ndtr argument lies beyond +-10, where ndtr is
        # 1.0 or below 1e-23, so the gap there is the node mass minus the target
        hi = np.abs(self.Y) + 10.0
        if np.any(self._W.sum(axis=1) - target <= 0.0):
            raise ArithmeticError("no finite radius reaches the target mass")
        # normal-approximation start
        r = np.clip(ndtri(1.0 - alpha / 2.0) * np.sqrt(self.variances), 1e-6, hi)
        c = np.repeat(self.means[:, None], 2, axis=1)
        return self._solve(c, np.array([1.0, -1.0]), target, r, np.zeros(self.n), hi)

    def quantile_rows(self, p):
        """Per-row p-quantile of the posterior, started at the posterior mean."""
        p = float(p)
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {p}")
        c = self.means
        half = np.maximum(1.0, np.sqrt(self.variances))
        lo = self._bracket(p, c, c - half, -1.0)
        hi = self._bracket(p, c, c + half, 1.0)
        return self._solve(np.zeros((self.n, 1)), np.ones(1), p, c.copy(), lo, hi)

    @cached_property
    def _cells(self):
        # Panel-level masses and normalized edge densities for fast draws.
        n_panels = len(self._edges) - 1
        mass = self._W.reshape(self.n, n_panels, -1).sum(axis=2)
        mass = np.maximum(mass, 0.0)
        mass /= mass.sum(axis=1, keepdims=True)
        cum = np.cumsum(mass, axis=1)
        cum[:, -1] = 1.0
        dens = _damp(self.Y * self.Y, self._edges)
        dens *= _prior(self.tau.tau, self._edges)
        return mass, cum, dens

    def _invert_flat(self, v, rows):
        """u-quantiles at probabilities v for the given row indices (flat arrays)."""
        mass, cum, dens = self._cells
        n, P = mass.shape
        flat = (cum + np.arange(n, dtype=float)[:, None]).ravel()
        widths = np.diff(self._edges)
        idx = np.searchsorted(flat, v + rows, side="left")
        cell = np.clip(idx - rows * P, 0, P - 1)
        prev = np.where(cell > 0, cum[rows, np.maximum(cell - 1, 0)], 0.0)
        rho = v - prev
        m = mass[rows, cell]
        a = dens[rows, cell]
        b = dens[rows, cell + 1]
        w = widths[cell]
        trap = 0.5 * (a + b) * w
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(m > 0.0, trap / m, 1.0)
        return self._edges[cell] + _linear_density_invert(a, b, w, np.clip(rho * scale, 0.0, trap))

    _TABLE_LEVELS = 512

    @cached_property
    def _quantile_table(self):
        # Dense per-row quantile lookup; one searchsorted pass amortized
        # over every subsequent draw.
        q = self._TABLE_LEVELS
        levels = np.linspace(0.0, 1.0, q + 1)[1:-1]
        T = np.empty((self.n, q + 1))
        T[:, 0] = 0.0
        T[:, -1] = 1.0
        rows = np.tile(np.arange(self.n, dtype=np.int64), q - 1)
        T[:, 1:-1] = self._invert_flat(np.repeat(levels, self.n), rows).reshape(q - 1, self.n).T
        return T

    def draw_weights(self, draws, rng):
        """(draws, n) matrix of shrinkage weights z, one row per joint draw.

        Draws go through the per-row quantile table with linear
        interpolation, which is what makes million-draw credible-ball runs
        affordable; the outermost table segments are inverted exactly.
        """
        draws = int(draws)
        out = np.empty((draws, self.n))
        chunk = max(1, int(5_000_000 // self.n))
        q = self._TABLE_LEVELS
        T = self._quantile_table.ravel()
        row_base = np.arange(self.n, dtype=np.int64) * (q + 1)
        for start in range(0, draws, chunk):
            stop = min(draws, start + chunk)
            v = rng.random((stop - start, self.n))
            pos = v * q
            j = pos.astype(np.int64)
            frac = pos - j
            g = row_base[None, :] + j
            u = T[g] * (1.0 - frac) + T[g + 1] * frac
            # the outermost segments cover the distribution tails where
            # linear interpolation is poor; invert those draws exactly
            tail = (j == 0) | (j == q - 1)
            if np.any(tail):
                rows = np.broadcast_to(np.arange(self.n, dtype=np.int64), v.shape)
                u[tail] = self._invert_flat(
                    np.clip(v[tail], 2e-17, 1.0 - 1e-16), rows[tail]
                )
            out[start:stop] = u * u
        return out

    def draw_matrix(self, draws, rng):
        """(draws, n) posterior draws of the coordinate means."""
        z = self.draw_weights(draws, rng)
        return z * self.Y[None, :] + np.sqrt(z) * rng.standard_normal(z.shape)

"""Exact per-coordinate posterior law: CDF, quantiles, draws, interval radius.

Given one observation y and a global scale tau, the posterior of the
coordinate mean has density phi(y - theta) p(theta) / m(y), with p the
marginal horseshoe prior in closed form (``kernels._log_prior``). It is
also a scale mixture of normals: conditional on the shrinkage weight
z = lam^2 tau^2 / (1 + lam^2 tau^2) the law is Normal(z*y, z), and z
lives on (0, 1) with density proportional to
z^(-1/2) (tau^2 + (1 - tau^2) z)^(-1) exp(y^2 z / 2).

One posterior law, two discretisations. The solvers (``cdf_rows``,
``quantile_rows``, ``radius_batch``) integrate the theta density on panels
graded into theta = 0 (``kernels._theta_panels``) plus unit panels near
each row's y. The sampler draws the z node law: each z is the node value
u_j^2 with the row's normalized quadrature weight W_ij, on the one layout
of the kernels (``kernels._layout``). Their cdfs differ by at most 6.0e-5,
next to theta = 0 where the z nodes resolve the prior's log singularity
only to their spacing, and by at most 8.4e-8 for |t| >= 0.05 (tested):
far below Monte Carlo error. The theta law, the moments (one pass for
means and variances) and the sampler's z layout are built on first use; no
batch holds a node matrix, since each sampler block builds its own rows'
node law where it draws (``_node_law``).

`PosteriorBatch` is the one posterior type; a single coordinate is a
one-row batch, `PosteriorBatch([y], tau)`.
"""

from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .kernels import (
    GlobalScale,
    _as_obs,
    _check_level,
    _check_range,
    _damp,
    _layout,
    _log_prior,
    _panel_interp,
    _posterior_moments,
    _tau_value,
    _theta_panels,
)

__all__ = ["PosteriorBatch"]
_BLOCK = 128  # rows per chunk of the streamed ball: one draw call on one worker
_STREAM = 64  # rows per sampler block, each with its own child generator
_SUB_BLOCK = 16  # rows per expansion and noise step of a block: (16, draws) temporaries
_BUILD_BLOCK = 256  # rows per theta-law build block: under 1,000 doubles a row, near L2
# unit panels [k, k+1] per row, for k from floor(y) - 10: they cover [y - 10, y + 10]
_WINDOW = 21
# Gauss nodes x_h and weights of the unit panel [0, 1], and the table
# w_h exp(-(g_i - x_h)^2 / 2) for the offsets g_i = 10 - i of the window's panels
_UNIT_X, _UNIT_W = _layout(None, edges=np.array([0.0, 1.0]))
_UNIT_OFFSET = 10.0 - np.arange(_WINDOW)
_UNIT_TABLE = _UNIT_W * np.exp(-0.5 * np.square(_UNIT_OFFSET[:, None] - _UNIT_X))
# core panels within _DEEP of 0 take exp(y theta) as _SERIES terms of its series
_DEEP = 2.0**-8
_SERIES = 10
# above 2^52 neither the keys floor(y) - 10 + i nor the nodes k + x_h are distinct
_Y_LIMIT = 2.0**52


class PosteriorBatch:
    """Vectorized posterior machinery for a whole observation vector.

    All coordinates share one global scale, one set of theta panels near 0
    and one set of z nodes; only the per-row masses and weights differ.
    """

    def __init__(self, Y, tau):
        self.Y = np.ascontiguousarray(_as_obs(Y, 1))
        self.tau = GlobalScale(_tau_value(tau))
        # the range of the sampler's z layout, checked here, built on first draw
        _check_range(self.tau.tau, float(np.max(np.abs(self.Y))))

    @property
    def n(self):
        return self.Y.size

    @cached_property
    def _z_layout(self):
        """The sampler's z nodes and weights ``(u, w)``: the kernels' own layout."""
        return _layout(self.tau.tau, float(np.max(np.abs(self.Y))))

    @cached_property
    def _moments(self):
        return _posterior_moments(self.Y, self.tau.tau)

    @property
    def means(self):
        return self._moments[0]

    @property
    def variances(self):
        return self._moments[1]

    @cached_property
    def _law(self):
        """The theta law: per row a log scale, a window start and cumulative masses.

        A row's panels are the core panels on [-1, 1] and its _WINDOW unit
        panels [k, k + 1], k = floor(y) - 10, ..., floor(y) + 10, less the two
        inside the core. Whatever the spread of Y a row costs
        O(core + _WINDOW) panels. The skipped theta have |theta| > 1 and
        |theta - y| > 10, where phi(y - theta) < phi(10) = 7.7e-23, while
        m(y) >= 0.68 p(|y| + 1) and, by the prior's bounds (Carvalho, Polson
        & Scott 2010), p(theta) <= 5 p(|y| + 1) for |theta| >= |y| / 2, so
        the skipped mass is below 1e-19 of m(y) (at most 3e-22 measured,
        for y up to 1e3 and tau from 1e-4 to 1).

        Masses are Gauss sums of p(theta_j) exp(-(y - theta_j)^2 / 2 - c), with
        c within a few units of the row's largest log term, so nothing over-
        or underflows; the row's log scale is c + log(sum), so the masses
        are normalised. p(theta_j) is shared by all rows, and a row spends
        about 290 exp, not one per node:

        - Unit panels: with f = y - floor(y) and g_i = 10 - i, the node
          theta = k_i + x_h has y - theta = g_i + f - x_h, so
          exp(-(y - theta)^2 / 2) = exp(-(g_i - x_h)^2 / 2)
          exp(-f g_i - f^2 / 2) exp(f x_h). The first factor times the Gauss
          weights is the constant _UNIT_TABLE, p(k + x_h) is held per key
          against the panel's largest, and a row takes 16 + _WINDOW exp.
        - Core panels within _DEEP = 2^-8 of 0: exp(-(y - theta)^2 / 2) =
          exp(-y^2 / 2) exp(-theta^2 / 2) sum_t (y theta)^t / t!, with the
          shared moments M[t, p] = sum_j w_j p(theta_j) exp(-theta_j^2 / 2)
          theta_j^t / t! for t < _SERIES = 10. For |y| <= 10, |y theta| <=
          0.04 and the series' relative remainder is below 2.3e-21; beyond,
          these panels' remainder times their share of the row's mass stays
          below 1e-16 for every tau the package accepts. Where
          exp(-y^2 / 2 - c) underflows the series is summed at y = 0, so no
          0 * inf appears.
        - The other 16 core panels take one exp per node.

        |y| above 2^52 raises ValueError: there neither the keys nor the
        nodes k + x_h are distinct. Below it accuracy is set by ulp(y), the
        rounding of the evaluator's nodes k + x_h: radii and quantiles
        minus the mean are within 3.1e-6 of ndtri(1 - alpha / 2) and
        ndtri(p) up to |y| = 3e12 (measured).
        """
        y_max = float(np.max(np.abs(self.Y)))
        if y_max > _Y_LIMIT:
            raise ValueError(f"|y| = {y_max:g} is out of range: above 2^52 its theta panels "
                             "are not distinct")
        tau = self.tau.tau
        edges, nodes, wt = _theta_panels(tau)
        start = np.floor(self.Y) - 10.0
        keys = np.unique(start[:, None] + np.arange(_WINDOW))
        keys = keys[(keys < -1.0) | (keys > 0.0)]
        core_lp = _log_prior(nodes, tau)
        unit_lp = _log_prior(keys[:, None] + _UNIT_X, tau)
        lref = unit_lp.max(axis=1)
        unit_p = np.exp(unit_lp - lref[:, None])
        n, kc = self.n, len(wt)
        ns = int(np.count_nonzero(edges < -_DEEP))  # shallow core panels on each side
        deep = slice(ns, kc - ns)
        shallow = np.r_[0:ns, kc - ns:kc]
        sh_nodes, sh_lp, sh_wt = nodes[shallow], core_lp[shallow], wt[shallow]
        th = nodes[deep]
        ref = core_lp[deep].max()
        term = wt[deep] * np.exp(core_lp[deep] - ref - 0.5 * th * th)
        M = np.empty((_SERIES, len(th)))
        for t in range(_SERIES):
            M[t] = term.sum(axis=1)
            term *= th / (t + 1)
        U, C, scale = np.zeros((n, _WINDOW + 1)), np.zeros((n, kc + 1)), np.empty(n)
        for lo in range(0, n, _BUILD_BLOCK):
            blk = slice(lo, lo + _BUILD_BLOCK)
            y = self.Y[blk]
            f = y - np.floor(y)
            k = start[blk, None] + np.arange(_WINDOW)
            inside = (k >= -1.0) & (k <= 0.0)  # the core covers [-1, 1]
            q = np.searchsorted(keys, np.where(inside, keys[0], k))
            lr = np.where(inside, -np.inf, lref[q])
            # a unit panel's log terms are at most lr - d^2 / 2, d its distance to y
            d = np.maximum(np.abs(_UNIT_OFFSET + (f[:, None] - 0.5)) - 0.5, 0.0)
            ec = np.subtract(y[:, None, None], sh_nodes)
            np.square(ec, out=ec)
            ec *= -0.5
            ec += sh_lp
            dy = ref - 0.5 * y * y
            c = np.maximum(np.maximum(ec.max(axis=(1, 2)), (lr - 0.5 * d * d).max(axis=1)), dy)
            ec -= c[:, None, None]
            mc = np.empty((len(y), kc))
            mc[:, shallow] = np.einsum("ikj,kj->ik", np.exp(ec, out=ec), sh_wt)
            s = np.exp(dy - c)
            powers = np.vander(np.where(s > 0.0, y, 0.0), _SERIES, increasing=True)
            mc[:, deep] = s[:, None] * np.einsum("it,tp->ip", powers, M)
            # exp(lref - c - f g_i - f^2 / 2) sum_h table_ih p_h exp(f x_h), per panel i
            mu = np.einsum("ikh,kh,ih->ik", np.take(unit_p, q, axis=0), _UNIT_TABLE,
                           np.exp(np.multiply.outer(f, _UNIT_X)))
            mu *= np.exp(lr - c[:, None] - np.multiply.outer(f, _UNIT_OFFSET)
                         - 0.5 * (f * f)[:, None])
            total = mc.sum(axis=1) + mu.sum(axis=1)
            scale[blk] = c + np.log(total)
            np.cumsum(mc / total[:, None], axis=1, out=C[blk, 1:])
            np.cumsum(mu / total[:, None], axis=1, out=U[blk, 1:])
        # per panel, the kc core panels and then one unit panel per key: left
        # edge, half width, nodes and log p(theta) at the nodes
        return dict(edges=edges, keys=keys, start=start, U=U, C=C, scale=scale,
                    mass=U[:, -1] + C[:, -1], left=np.concatenate([edges[:-1], keys]),
                    half=np.concatenate([0.5 * np.diff(edges), np.full(keys.size, 0.5)]),
                    nodes=np.concatenate([nodes, keys[:, None] + _UNIT_X]),
                    lp=np.concatenate([core_lp, unit_lp]))

    def _evaluate(self, rows, t, clip=False):
        """(F, f, f') stacked, of the listed rows at points t (rows x points).

        F is the row's mass at the left edge of the panel that holds t plus
        the integral of the polynomial through the panel's 16 node values
        up to t; f and f' are that polynomial's value and slope. The node
        values cost 16 exp per point, from the shared log p(theta_j). A
        point outside the row's panels has F at the mass below it and
        f = f' = 0. With ``clip`` F is clipped to the masses at its panel's
        edges, so the rounding of the polynomial's integral cannot make F
        decrease across an edge (``cdf_rows``; the solvers stop at a
        residual of 1e-9 and skip it).
        """
        L = self._law
        edges = L["edges"]
        kc = edges.size - 1
        shape = (3,) + t.shape
        r = np.repeat(rows, t.shape[1])
        t = t.ravel()
        k = np.floor(t)
        core = (k == -1.0) | (k == 0.0)
        j = k - L["start"][r]
        unit = ~core & (j >= 0.0) & (j < _WINDOW)
        p = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, kc - 1)
        ju = np.clip(j, 0, _WINDOW).astype(np.intp)
        F = L["U"][r, ju]
        below = np.where(core, L["C"][r, p], np.where(k >= 1.0, L["C"][r, kc], 0.0))
        F += below
        if clip:  # the mass at the panel's right edge: one more core or unit panel
            F_hi = L["U"][r, ju + unit]
            F_hi += np.where(core, L["C"][r, np.minimum(p + 1, kc)], below)
        # the panel of t: core panel p, or the unit panel of the key k
        pan = np.where(core, p, kc + np.searchsorted(L["keys"], np.where(unit, k, L["keys"][0])))
        e = L["lp"][pan]
        half = L["half"][pan]
        # points outside the row's panels, up to +-inf, get f = 0 at s = -1
        with np.errstate(over="ignore", invalid="ignore"):
            e -= 0.5 * np.square(self.Y[r][:, None] - L["nodes"][pan])
            s = (t - L["left"][pan]) / half - 1.0
        e -= L["scale"][r][:, None]
        outside = ~(core | unit)
        e[outside] = -np.inf
        s[outside] = -1.0
        out = _panel_interp(np.exp(e, out=e), s)
        out[0] *= half
        out[0] += F
        if clip:
            np.clip(out[0], F, F_hi, out=out[0])
        out[2] /= half
        return out.reshape(shape)

    def cdf_rows(self, t):
        """Per-row CDF values; t may be scalar or one value per row."""
        tt = np.broadcast_to(np.asarray(t, dtype=float), (self.n,))
        return self._evaluate(np.arange(self.n), tt[:, None], clip=True)[0, :, 0]

    def _solve(self, key, base, signs, target, x, lo, hi):
        """Per-row root of the increasing g(x) = sum_j signs_j F(base_j + signs_j x) - target.

        g < 0 at lo and > 0 at hi, so each row's mass must exceed the
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
        if np.any(self._law["mass"] - target <= 0.0):
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
        # at r = |y| + 10 the interval holds all of the row's panels but the end
        # of its last unit panel, beyond y + 10 (under 1e-22 of the mass), so
        # the gap there is the row's mass minus the target
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
        # every panel of a row lies within 11 of 0 or y, so F is 0 at lo and
        # the row's mass at hi
        lo = np.minimum(self.Y, 0.0) - 40.0
        hi = np.maximum(self.Y, 0.0) + 40.0
        return self._solve(self.Y, np.zeros((self.n, 1)), np.ones(1), p, self.means.copy(), lo, hi)

    def draw_weights(self, draws, rng, rows=slice(None), *, _streams=None):
        """(draws, len(rows)) shrinkage weights z of the basic slice ``rows``, one row per draw.

        Exact draws from the z node law, the sampler's discretisation of the
        law that ``cdf_rows`` integrates in theta: each z is u_j^2 with
        probability W_ij, independently across draws and rows. The rows fall
        into blocks of _STREAM, counted from the slice's start, and block b
        builds its rows' W (``_node_law``) and draws from ``rng.spawn(blocks)[b]``:
        its multinomial node counts are expanded into its rows of one (rows,
        draws) buffer and each row is shuffled in place, so memory is the
        output plus one (_STREAM, nodes) law, with no (n, nodes) matrix. The
        blocks run in turn on the calling thread. The children depend on the
        seed, the number of earlier spawns and the block index only, not on
        ``rng``'s state, so a caller may spawn them ahead and draw on another
        thread: ``_streams`` are the block generators, if already spawned.
        """
        y = self.Y[rows]  # a view: rows is a basic slice
        out = np.empty((len(y), int(draws)))
        blocks = _blocks(y)
        if _streams is None:
            _streams = rng.spawn(len(blocks))
        for args in zip(blocks, _streams, _blocks(out)):
            _draw_block(*self._z_layout, *args)
        return out.T

    def draw_matrix(self, draws, rng, rows=slice(None), *, _streams=None):
        """(draws, len(rows)) posterior draws of the means of the basic slice ``rows``.

        Each sampler block takes its weights and then its normal noise from
        its own child generator (see ``draw_weights``, also for ``_streams``).
        """
        y = _blocks(self.Y[rows])
        if _streams is None:
            _streams = rng.spawn(len(y))
        z = self.draw_weights(draws, rng, rows, _streams=_streams)
        for args in zip(y, _streams, _blocks(z.T)):
            _noise_block(*args)
        return z


def _blocks(a):
    """The leading-axis blocks of _STREAM rows of ``a``, as views."""
    return [a[lo:lo + _STREAM] for lo in range(0, len(a), _STREAM)]


def _node_law(y, u, w):
    """The (rows, nodes) z node law W of the rows y, damped, weighted and normalised in place."""
    W = _damp(y * y, u)
    W *= w
    W /= W.sum(axis=1, keepdims=True)
    return W


def _draw_block(u, w, y, rng, out):
    """One block's weights into ``out`` (rows, draws): node law, counts, expanded, shuffled.

    The counts are drawn for the whole block and then expanded and shuffled
    _SUB_BLOCK rows at a time; ``permuted`` shuffles row after row, so the
    generator is read in the same order as by one whole-block shuffle.
    """
    counts = rng.multinomial(out.shape[1], _node_law(y, u, w))
    z = np.tile(u * u, _SUB_BLOCK)
    for lo in range(0, len(out), _SUB_BLOCK):
        part, c = out[lo:lo + _SUB_BLOCK], counts[lo:lo + _SUB_BLOCK]
        part[:] = np.repeat(z[:c.size], c.ravel()).reshape(part.shape)
        rng.permuted(part, axis=1, out=part)


def _noise_block(y, rng, out):
    """One block's weights ``out`` to draws in place: z * y + sqrt(z) * N.

    The normals are drawn _SUB_BLOCK rows at a time, in the order of one
    whole-block draw.
    """
    for lo in range(0, len(out), _SUB_BLOCK):
        part = out[lo:lo + _SUB_BLOCK]
        noise = np.sqrt(part)
        noise *= rng.standard_normal(part.shape)
        part *= y[lo:lo + _SUB_BLOCK, None]
        part += noise

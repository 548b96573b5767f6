"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: plain midpoint sums, nested 1-D
adaptive quadrature, bisection. Slow and simple on purpose so the main
package can be checked against code that shares none of its structure.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, ndtri


def midpoint_Ik(y, tau, k, n=1_000_000):
    """Composite-midpoint value of the shrinkage kernel integral.

    Uses the z = u**2 substitution so the k = -1/2 member stays bounded
    at the origin.
    """
    u = (np.arange(n) + 0.5) / n
    w = u ** (2 * k + 1) / (tau * tau + (1.0 - tau * tau) * u * u)
    return 2.0 * float(np.mean(w * np.exp(y * y * u * u / 2.0)))


def _inner_theta_moment(y, lam, tau, j):
    # int theta^j N(y; theta, 1) N(theta; 0, (lam*tau)^2) dtheta
    s2 = (lam * tau) ** 2
    w = s2 / (1.0 + s2)
    mu, sd = w * y, math.sqrt(w)

    def f(th):
        a = np.exp(-0.5 * (y - th) ** 2) / np.sqrt(2 * np.pi)
        b = np.exp(-0.5 * th * th / s2) / np.sqrt(2 * np.pi * s2)
        return th**j * a * b

    lo = mu - 10.0 * sd - 1e-3
    hi = mu + 10.0 * sd + 1e-3
    return quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]


def _lambda_mixture_moment(y, tau, j):
    # Outer integral over the half-Cauchy local scale, mapped to a
    # finite interval with lam = tan(psi) so quad sees smooth endpoints.
    def g(psi):
        return _inner_theta_moment(y, math.tan(psi), tau, j) * (2.0 / math.pi)

    return quad(g, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-12, limit=200)[0]


def nested_posterior_moments(y, tau):
    """(mean, variance) by brute-force double quadrature over (theta, lam)."""
    n0 = _lambda_mixture_moment(y, tau, 0)
    n1 = _lambda_mixture_moment(y, tau, 1)
    n2 = _lambda_mixture_moment(y, tau, 2)
    mean = n1 / n0
    return mean, n2 / n0 - mean * mean


def mp_posterior_variance(y, tau, dps=40):
    """Posterior variance of theta, in mpmath.

    Raw moments E z^k are mp.quad integrals in u = sqrt(z) with breakpoints
    doubling from tau / 16, at ``dps`` digits, so the central moment can be
    formed naively without losing the float64 digits.
    """
    with mp.workdps(dps):
        y, t = mp.mpf(y), mp.mpf(tau)
        pts = [0] + [t * 2**j for j in range(-4, 200) if t * 2**j < 1] + [1]

        def raw(k):
            return mp.quad(lambda u: 2 * u ** (2 * k) / (t * t + (1 - t * t) * u * u)
                           * mp.exp(-y * y * (1 - u * u) / 2), pts)

        j0 = raw(0)
        e1, e2 = (raw(k) / j0 for k in (1, 2))
        return float(y * y * (e2 - e1**2) + e1)


def theta_prior(theta, tau):
    """Marginal horseshoe prior density at theta != 0 by quad over the local scale.

    p(theta) = int_0^inf N(theta; 0, lam^2 tau^2) 2 / (pi (1 + lam^2)) dlam,
    in v = log(lam), with breakpoints at v = 0 and where lam tau = |theta|.
    """
    def g(v):
        s = math.exp(v) * tau
        return math.exp(-0.5 * (theta / s) ** 2) / (tau * math.sqrt(2.0 * math.pi)) * (
            2.0 / (math.pi * (1.0 + math.exp(2.0 * v))))

    v0 = math.log(abs(theta) / tau)
    return quad(g, min(v0, 0.0) - 10.0, max(v0, 0.0) + 40.0, points=sorted({v0, 0.0}),
                epsabs=0.0, epsrel=1e-13, limit=400)[0]


def _ex_e1(x):
    # e^x E1(x): scipy below x = 700, 30-digit mpmath above (exp1 underflows)
    if x < 700.0:
        from scipy.special import exp1
        return math.exp(x) * float(exp1(x))
    with mp.workdps(30):
        return float(mp.exp(x) * mp.e1(x))


class ThetaPosterior:
    """One coordinate's posterior in theta by scipy quad, for reference.

    The density phi(y - theta) p(theta) uses e^x E1(x) directly, and every
    integral is a quad with a breakpoint at the log singularity theta = 0,
    over [min(y, 0) - 15, max(y, 0) + 15] (outside it the mass is below
    1e-40). cdf, mean and the radius of the interval around the mean.
    """

    def __init__(self, y, tau):
        self.y, self.tau = float(y), float(tau)
        self.lo, self.hi = min(self.y, 0.0) - 15.0, max(self.y, 0.0) + 15.0
        self.norm = self._integral(self.lo, self.hi)
        self.mean = self._integral(self.lo, self.hi, power=1) / self.norm

    def _density(self, th):
        return math.exp(-0.5 * (self.y - th) ** 2) * _ex_e1(0.5 * (th / self.tau) ** 2)

    def _integral(self, a, b, power=0):
        pts = [0.0] if a < 0.0 < b else None
        return quad(lambda th: th**power * self._density(th), a, b, points=pts,
                    epsabs=1e-15, epsrel=1e-13, limit=400)[0]

    def cdf(self, t):
        return self._integral(self.lo, min(max(t, self.lo), self.hi)) / self.norm

    def radius(self, alpha):
        from scipy.optimize import brentq

        c = self.mean

        def gap(r):
            return self._integral(c - r, c + r) / self.norm - (1.0 - alpha)

        return brentq(gap, 1e-6, abs(self.y) + 12.0, xtol=1e-13, rtol=1e-15)


def kappa_bisect(tau, lo=math.sqrt(2.0), hi=10.0, iters=200):
    """Bisection solve of exp(k^2/2)/(k^2/2) = 1/tau on the upper branch."""

    def f(x):
        return math.exp(x * x / 2.0) / (x * x / 2.0) - 1.0 / tau

    if f(lo) > 0 or f(hi) < 0:
        raise ValueError("bracket does not contain the root")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def series_H_half(x, terms=60):
    """Power series for the k = 1/2 exponential-moment ratio at y^2/2 = x."""
    return sum(x**m / (math.factorial(m) * (m + 0.5)) for m in range(terms))


def quad_H(y, k):
    """Direct adaptive quadrature for the incomplete exponential ratio."""
    x = y * y / 2.0
    c = 0.0 if k > 0 else 1.0
    val = quad(
        lambda v: v ** (k - 1) * np.exp(v), c, x, epsabs=1e-14, epsrel=1e-13, limit=400
    )[0]
    return x ** (-k) * val


def mp_H(y, k, dps=30):
    """The incomplete exponential ratio by mp.quad at ``dps`` digits."""
    with mp.workdps(dps):
        x = mp.mpf(y) ** 2 / 2
        c = 0 if k > 0 else 1
        return float(x ** -k * mp.quad(lambda v: v ** (k - 1) * mp.exp(v), [c, x]))


def grid_mmle(y, n_grid=10_000):
    """Exhaustive-grid maximizer of the marginal likelihood in tau.

    Returns (tau_hat, grid) so callers can check against grid spacing.
    """
    from hsuq.kernels import log_marginal_lik

    n = len(y)
    grid = np.geomspace(1.0 / n, 1.0, n_grid)
    vals = np.array([log_marginal_lik(y, t) for t in grid])
    return float(grid[int(np.argmax(vals))]), grid


def crit09_data(i):
    """Data set i (0..19) of acceptance criterion 09: n in [50, 300), p signals
    of one amplitude in [1, 8) plus standard normal noise."""
    rng = np.random.default_rng([41, i])
    n = int(rng.integers(50, 300))
    p = int(rng.integers(1, max(2, n // 8)))
    amp = float(rng.uniform(1.0, 8.0))
    theta = np.zeros(n)
    theta[:p] = amp
    return theta + rng.standard_normal(n)


def marginal_cdf_quad(t, y, tau):
    """P(theta <= t | y) by quadrature over the shrinkage weight.

    Integrates Phi((t - z*y)/sqrt(z)) against the conditional law of
    z = lam^2 tau^2 / (1 + lam^2 tau^2) on (0, 1), normalized by the
    same midpoint kernel value used elsewhere in this module.
    """
    from scipy.special import ndtr

    def f(u):
        z = u * u
        d = 1.0 / (tau * tau + (1.0 - tau * tau) * z)
        return 2.0 * d * np.exp(y * y * z / 2.0 - y * y / 2.0) * ndtr((t - z * y) / u)

    num = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400)[0]
    den = quad(
        lambda u: 2.0
        / (tau * tau + (1.0 - tau * tau) * u * u)
        * np.exp(y * y * u * u / 2.0 - y * y / 2.0),
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-11,
        limit=400,
    )[0]
    return num / den


def loop_mmle(y):
    """MMLE of tau by one pair of exact kernel calls per grid point.

    Score sums and log likelihoods on a 200-point log grid, every sign
    change refined by ``brentq`` to float resolution and compared with
    both endpoints. Returns (tau_hat, grid, scores, objective).
    """
    from scipy.optimize import brentq

    from hsuq.kernels import log_marginal_lik, score_m

    y = np.asarray(y, dtype=float)
    lo = 1.0 / y.size
    grid = np.geomspace(lo, 1.0, 200)
    scores = np.array([float(np.sum(score_m(y, float(t)))) for t in grid])
    objective = np.array([log_marginal_lik(y, float(t)) for t in grid])
    candidates = [lo, 1.0]
    for i in range(len(grid) - 1):
        if scores[i] == 0.0:
            candidates.append(float(grid[i]))
        if scores[i] * scores[i + 1] < 0.0:
            candidates.append(float(brentq(
                lambda t: float(np.sum(score_m(y, t))), grid[i], grid[i + 1],
                xtol=1e-16, rtol=1e-15,
            )))
    values = [log_marginal_lik(y, t) for t in candidates]
    tau_hat = min(max(candidates[int(np.argmax(values))], lo), 1.0)
    return tau_hat, grid, scores, objective


def _newton_solve(batch, gap, slope, x, lo, hi):
    # safeguarded Newton: a step that leaves the bracket is replaced by
    # bisection; rows drop out once |gap| < 1e-9 or after 80 iterations
    idx = np.arange(batch.n)
    for _ in range(80):
        g = gap(idx, x[idx])
        done = np.abs(g) < 1e-9
        lo[idx] = np.where(g < 0.0, np.maximum(lo[idx], x[idx]), lo[idx])
        hi[idx] = np.where(g > 0.0, np.minimum(hi[idx], x[idx]), hi[idx])
        idx = idx[~done]
        if idx.size == 0:
            break
        g = g[~done]
        s = slope(idx, x[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x[idx] - np.where(s > 0.0, g / s, 0.0)
        outside = (x_new <= lo[idx]) | (x_new >= hi[idx]) | ~np.isfinite(x_new)
        x[idx] = np.where(outside, 0.5 * (lo[idx] + hi[idx]), x_new)
    return x


def _bracket_edge(gap, anchor, edge, sign):
    idx = np.arange(edge.size)
    for _ in range(60):
        bad = sign * gap(idx, edge[idx]) <= 0.0
        if not np.any(bad):
            return edge
        idx = idx[bad]
        edge[idx] = anchor[idx] + 2.0 * (edge[idx] - anchor[idx])
    raise ArithmeticError("bracket expansion failed")


def z_reference(batch, splits=4):
    """A batch's posterior as a finer z node law of its own: ``(u, W)``.

    The kernels' layout for the batch's (Y, tau) halved ``splits`` times
    (the batch's sampler uses 2, its solvers no z nodes at all), with each
    row's weights damped and normalised. Its cdf is sum_j W_ij
    ndtr((t - y u_j^2) / u_j). On the solver tests' batches 3, 4 and 5
    splits give the same largest gap to the batch's roots (4.5e-8 in
    radii, 8.4e-8 in quantiles), set by the Newton oracle's own stop at
    |g| < 1e-9 where the density is 0.012.
    """
    from hsuq.kernels import _damp, _layout

    u, w = _layout(batch.tau.tau, float(np.max(np.abs(batch.Y))), splits)
    W = _damp(batch.Y * batch.Y, u) * w
    W /= W.sum(axis=1, keepdims=True)
    return u, W


def direct_theta_law(Y, tau):
    """The theta law of ``PosteriorBatch._law`` with one exp per node: ``(U, C, scale)``.

    Every core node and every node of the row's 21 unit panels
    [k, k + 1], k = floor(y) - 10, ..., floor(y) + 10 (less the two inside
    the core), gets exp(log p(theta) - (y - theta)^2 / 2 - c) with c the
    row's largest exponent; the Gauss sums per panel, normalised by their
    total, give the cumulative masses U (unit) and C (core), and
    scale = c + log(total). All rows at once, no blocks and no factoring.
    """
    from hsuq.kernels import _layout, _log_prior, _theta_panels

    Y = np.asarray(Y, dtype=float)
    _, nodes, wt = _theta_panels(tau)
    xh, wh = _layout(None, edges=np.array([0.0, 1.0]))
    y = Y[:, None, None]
    k = (np.floor(Y) - 10.0)[:, None] + np.arange(21)
    inside = (k >= -1.0) & (k <= 0.0)
    ec = _log_prior(nodes, tau) - 0.5 * np.square(y - nodes)
    th = k[..., None] + xh
    eu = np.where(inside[..., None], -np.inf, _log_prior(th, tau) - 0.5 * np.square(y - th))
    c = np.maximum(ec.max(axis=(1, 2)), eu.max(axis=(1, 2)))
    mc = (np.exp(ec - c[:, None, None]) * wt).sum(axis=2)
    mu = (np.exp(eu - c[:, None, None]) * wh).sum(axis=2)
    total = mc.sum(axis=1) + mu.sum(axis=1)
    zero = np.zeros((len(Y), 1))
    U = np.hstack([zero, np.cumsum(mu / total[:, None], axis=1)])
    C = np.hstack([zero, np.cumsum(mc / total[:, None], axis=1)])
    return U, C, c + np.log(total)


def _z_cdf(u, W, Y, t):
    from scipy.special import ndtr

    return np.einsum("ij,ij->i", ndtr((t[:, None] - np.outer(Y, u * u)) / u), W)


def _z_pdf(u, W, Y, t):
    x = (t[:, None] - np.outer(Y, u * u)) / u
    return np.einsum("ij,ij->i", np.exp(-0.5 * x * x) / (u * math.sqrt(2.0 * math.pi)), W)


def newton_radius(batch, alpha):
    """Per-row radius of a PosteriorBatch's posterior by separate gap and slope passes.

    The two-pass Newton solve that the fused Halley solver in
    ``PosteriorBatch.radius_batch`` replaced: every iteration evaluates
    the mass gap (two cdf passes) and then its slope (two density passes),
    after a doubling bracket check. It integrates its own law,
    :func:`z_reference`, not the batch's.
    """
    u, W = z_reference(batch)
    target = 1.0 - float(alpha)
    c = batch.means

    def gap(idx, r):
        Y = batch.Y[idx]
        return _z_cdf(u, W[idx], Y, c[idx] + r) - _z_cdf(u, W[idx], Y, c[idx] - r) - target

    def slope(idx, r):
        Y = batch.Y[idx]
        return _z_pdf(u, W[idx], Y, c[idx] + r) + _z_pdf(u, W[idx], Y, c[idx] - r)

    lo = np.zeros(batch.n)
    hi = _bracket_edge(gap, lo, np.abs(batch.Y) + 10.0, 1.0)
    r = np.clip(ndtri(1.0 - float(alpha) / 2.0) * np.sqrt(batch.variances), 1e-6, hi)
    return _newton_solve(batch, gap, slope, r, lo, hi)


def newton_quantile(batch, p):
    """Per-row p-quantile of a PosteriorBatch's posterior by the same two-pass Newton."""
    u, W = z_reference(batch)
    c = batch.means

    def gap(idx, q):
        return _z_cdf(u, W[idx], batch.Y[idx], q) - p

    def slope(idx, q):
        return _z_pdf(u, W[idx], batch.Y[idx], q)

    half = np.maximum(1.0, np.sqrt(batch.variances))
    lo = _bracket_edge(gap, c, c - half, -1.0)
    hi = _bracket_edge(gap, c, c + half, 1.0)
    return _newton_solve(batch, gap, slope, c.copy(), lo, hi)


def trunc_invgamma_oracle(rng, shape, scale, lo, hi):
    """InvGamma(shape, scale) restricted to [lo, hi], stated plainly.

    The untruncated draw scale / Gamma(shape) is kept when it lands in
    the range; otherwise the truncated law is inverted through whichever
    regularized gamma function, Q (upper) or P (lower), leaves a positive
    span between the bounds. The underflow clamp is left out.
    """
    x = scale / rng.standard_gamma(shape)
    if lo <= x <= hi and 0.0 < x < math.inf:
        return x
    with np.errstate(divide="ignore"):
        z = np.divide(scale, [lo, hi])          # CDF arguments; lo = 0 gives inf
    Q = gammaincc(shape, z)
    if Q[1] > Q[0]:
        t = gammainccinv(shape, Q[0] + rng.random() * (Q[1] - Q[0]))
    else:
        P = gammainc(shape, z)
        t = gammaincinv(shape, P[1] + rng.random() * (P[0] - P[1]))
    return min(max(scale / t, lo), hi)


def gamma_gibbs_step(state, Y, prior, rng):
    """One Gibbs sweep written as plain array expressions of its laws.

    Every shape-1 inverse gamma is scale / Exp(1), and tau^2 is drawn by
    ``trunc_invgamma_oracle`` on the square of the prior's support (the
    half-Cauchy's is (0, inf)). run_chain driven by it must give the same
    chain as ``hierarchical.gibbs_step`` bit for bit.
    """
    from hsuq.hierarchical import GibbsState, HyperPriorKind

    Y = np.asarray(Y, dtype=float)
    n = Y.size
    tau2 = state.tau2
    s2 = state.lambda2 * tau2
    w = s2 / (1.0 + s2)
    theta = w * Y + np.sqrt(w) * rng.standard_normal(n)
    lam2 = (1.0 / state.nu + theta * theta / (2.0 * tau2)) / rng.standard_exponential(n)
    nu = (1.0 + 1.0 / lam2) / rng.standard_exponential(n)
    xi = state.xi
    if prior.kind is not HyperPriorKind.POINT_MASS:
        S = float(np.sum(theta * theta / (2.0 * lam2)))
        lo, hi = prior.support(n)
        if prior.kind is HyperPriorKind.TRUNCATED_UNIFORM:
            # flat hyperprior: exact conditional, no auxiliary
            tau2 = trunc_invgamma_oracle(rng, 0.5 * (n - 1), S, lo * lo, hi * hi)
        else:
            tau2 = trunc_invgamma_oracle(rng, 0.5 * (n + 1), 1.0 / xi + S, lo * lo, hi * hi)
            xi = (1.0 + 1.0 / tau2) / rng.standard_exponential()
    return GibbsState(theta=theta, lambda2=lam2, nu=nu, tau2=tau2, xi=xi)


def traced_peak(f, *args, **kwargs):
    """``(f(*args, **kwargs), peak)``: the result and the peak bytes that
    tracemalloc traced during the call."""
    tracemalloc.start()
    try:
        out = f(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_block_draws(batch, draws, seed, rows):
    """(weights, noise) of a PosteriorBatch's slice ``rows``, each sampler
    block drawn whole from its own child of the seed's generator: its node
    counts in one multinomial call, expanded into one (rows, draws) array
    and shuffled per row, then its normal draws in one call."""
    from hsuq.posterior import _STREAM, _node_law

    W, z = _node_law(batch.Y[rows], batch._u, batch._w), batch._u * batch._u
    starts = range(0, len(W), _STREAM)
    weights, noise = [], []
    for lo, child in zip(starts, np.random.default_rng(seed).spawn(len(starts))):
        counts = child.multinomial(draws, W[lo:lo + _STREAM])
        zb = np.repeat(np.tile(z, len(counts)), counts.ravel()).reshape(len(counts), draws)
        child.permuted(zb, axis=1, out=zb)
        weights.append(zb)
        noise.append(child.standard_normal(zb.shape))
    return np.vstack(weights).T, np.vstack(noise).T

"""Full-Bayes inference with a hyperprior on the global scale.

The sampler is a blocked Gibbs sweep in the auxiliary-variable
parameterization of the half-Cauchy local scales: each half-Cauchy
squared scale is a scale mixture of two inverse-gamma draws, so every
conditional is available in closed form. One sweep updates, in order,
the means theta, the local scales lambda^2, their auxiliaries nu, the
global scale tau^2, and its auxiliary xi.

Conditional laws used by the sweep, writing w_i = lambda_i^2 tau^2 /
(1 + lambda_i^2 tau^2) and S = sum theta_i^2 / (2 lambda_i^2):

    theta_i   ~ Normal(w_i Y_i, w_i)
    lambda_i^2 ~ InvGamma(1, 1/nu_i + theta_i^2 / (2 tau^2))
    nu_i      ~ InvGamma(1, 1 + 1/lambda_i^2)
    tau^2     ~ InvGamma((n+1)/2, 1/xi + S)        half-Cauchy hyperprior
    xi        ~ InvGamma(1, 1 + 1/tau^2)

Every shape-1 inverse gamma (lambda^2, nu, xi) is drawn as b / Exp(1)
from rng.standard_exponential. The tau^2 draw is restricted to the
square of the prior's support ([1/n^2, 1] when truncated, (0, inf) for
the half-Cauchy): the untruncated draw is kept when it lands there,
else the truncated law is inverted, so one exact step serves every
hyperprior. The flat hyperprior on [1/n, 1] is not a half-Cauchy, so
its exact conditional is InvGamma((n-1)/2, S) truncated to the same
range, with no xi auxiliary involved.

A sweep does not check the draws it returns, which saves an O(n) pass
per sweep; run_chain checks the kept theta and tau once per chain. An
infinite lambda^2 (a zero exponential) makes the next theta NaN and
fails that check; an infinite nu enters the next sweep as 1/nu = 0.
"""

import csv
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv

from .credible import CredibleBall, _intervals
from .kernels import SparsityRate, _as_obs, _check_level
from .tau import simple_estimator

__all__ = [
    "HyperPrior",
    "HyperPriorKind",
    "GibbsState",
    "Chain",
    "gibbs_step",
    "run_chain",
    "hb_marginal_intervals",
    "hb_ball",
    "verify_hyperprior",
    "mcse_mean",
    "mcse_quantile",
]

logger = logging.getLogger(__name__)


class HyperPriorKind(Enum):
    HALF_CAUCHY = "half_cauchy"
    TRUNCATED_HALF_CAUCHY = "truncated_half_cauchy"
    TRUNCATED_UNIFORM = "truncated_uniform"
    POINT_MASS = "point_mass"


@dataclass(frozen=True)
class HyperPrior:
    """Hyperprior on tau. Truncated variants live on [1/n, 1]."""

    kind: HyperPriorKind
    tau0: float | None = None

    def __post_init__(self):
        if self.kind is HyperPriorKind.POINT_MASS:
            if self.tau0 is None or not self.tau0 > 0.0:
                raise ValueError("point mass needs a positive tau0")
        elif self.tau0 is not None:
            raise ValueError(f"tau0 only applies to a point mass, got kind {self.kind}")

    @staticmethod
    def half_cauchy():
        return HyperPrior(HyperPriorKind.HALF_CAUCHY)

    @staticmethod
    def truncated_half_cauchy():
        return HyperPrior(HyperPriorKind.TRUNCATED_HALF_CAUCHY)

    @staticmethod
    def truncated_uniform():
        return HyperPrior(HyperPriorKind.TRUNCATED_UNIFORM)

    @staticmethod
    def point_mass(tau0):
        return HyperPrior(HyperPriorKind.POINT_MASS, tau0=float(tau0))

    def support(self, n):
        """Support of tau as (lo, hi) for data of length n."""
        if self.kind is HyperPriorKind.POINT_MASS:
            return self.tau0, self.tau0
        if self.kind is HyperPriorKind.HALF_CAUCHY:
            return 0.0, math.inf
        return 1.0 / n, 1.0

    def density(self, t, n):
        """Normalized density of tau at t for data of length n."""
        t = float(t)
        if self.kind is HyperPriorKind.POINT_MASS:
            raise ValueError("point mass has no density")
        if self.kind is HyperPriorKind.HALF_CAUCHY:
            return 2.0 / (math.pi * (1.0 + t * t)) if t > 0.0 else 0.0
        lo, hi = self.support(n)
        if not lo <= t <= hi:
            return 0.0
        if self.kind is HyperPriorKind.TRUNCATED_UNIFORM:
            return 1.0 / (hi - lo)
        norm = math.atan(hi) - math.atan(lo)
        return 1.0 / ((1.0 + t * t) * norm)


@dataclass
class GibbsState:
    """One full state of the sampler; arrays are per coordinate."""

    theta: np.ndarray
    lambda2: np.ndarray
    nu: np.ndarray
    tau2: float
    xi: float

    def __post_init__(self):
        shape = self.theta.shape
        if len(shape) != 1 or self.lambda2.shape != shape or self.nu.shape != shape:
            raise ValueError(
                f"theta, lambda2 and nu must be 1-D of one length, got shapes "
                f"{shape}, {self.lambda2.shape} and {self.nu.shape}"
            )
        # min/max comparisons are False on NaN, so NaN fails too
        for x in (self.lambda2, self.nu):
            if not (np.minimum.reduce(x) > 0.0 and np.maximum.reduce(x) < math.inf):
                raise ValueError("local scales and auxiliaries must be positive and finite")
        if not (0.0 < self.tau2 < math.inf and 0.0 < self.xi < math.inf):
            raise ValueError("tau2 and xi must be positive and finite")

    @classmethod
    def _unchecked(cls, theta, lambda2, nu, tau2, xi):
        """A state the sweep built itself, without the checks above."""
        state = object.__new__(cls)
        state.__dict__.update(theta=theta, lambda2=lambda2, nu=nu, tau2=tau2, xi=xi)
        return state


@dataclass(frozen=True)
class Chain:
    """Kept draws of a Gibbs run: theta snapshots and the tau path."""

    thetas: np.ndarray
    taus: np.ndarray
    burn_in: int
    thin: int
    seed: int

    def __post_init__(self):
        if self.thetas.ndim != 2 or self.taus.shape != (self.thetas.shape[0],):
            raise ValueError("thetas must be (draws, n) with one tau per draw")

    @property
    def n_draws(self):
        return self.thetas.shape[0]

    @property
    def n_coords(self):
        return self.thetas.shape[1]

    @property
    def theta_mean(self):
        return self.thetas.mean(axis=0)

    def to_csv(self, path, coords=None):
        """Write iter, tau, and the chosen theta columns (all by default).

        The iter column is the absolute sweep index the snapshot was
        taken at, so thinning and burn-in stay visible in the export. A
        coordinate outside [0, n_coords) raises ValueError before the file
        is opened.
        """
        if coords is None:
            coords = range(self.n_coords)
        coords = [int(i) for i in coords]
        bad = [i for i in coords if not 0 <= i < self.n_coords]
        if bad:
            raise ValueError(f"coordinate {bad[0]} is outside [0, {self.n_coords})")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "tau"] + [f"theta_{i + 1}" for i in coords])
            for k in range(self.n_draws):
                row = [self.burn_in + k * self.thin, f"{self.taus[k]:.12g}"]
                row += [f"{self.thetas[k, i]:.12g}" for i in coords]
                writer.writerow(row)


def _trunc_invgamma(rng, shape, scale, lo, hi):
    """Draw from InvGamma(shape, scale) restricted to [lo, hi].

    The first try is the untruncated draw scale / Gamma(shape), kept when
    it is positive, finite and inside the range. Otherwise the draw comes
    from the inverse CDF of the truncated law, so both branches return
    that law exactly. The CDF at x is the regularized upper gamma function
    Q(shape, scale/x). When the bulk lies below lo, Q rounds to 1 at both
    ends although the mass between them is representable, so the span and
    the inversion use the lower function P = 1 - Q, which falls as x
    grows. Only when that span underflows too is the draw clamped to the
    boundary nearest the bulk, with a warning.
    """
    g = rng.standard_gamma(shape)
    x = scale / g if g > 0.0 else math.inf
    if lo <= x <= hi and 0.0 < x < math.inf:
        return x
    z_lo = scale / lo if lo > 0.0 else math.inf
    F_lo = float(gammaincc(shape, z_lo))
    F_hi = float(gammaincc(shape, scale / hi))
    span = F_hi - F_lo
    if span > 0.0:
        t = float(gammainccinv(shape, F_lo + rng.random() * span))
    else:
        P_lo = float(gammainc(shape, z_lo))
        P_hi = float(gammainc(shape, scale / hi))
        span = P_lo - P_hi
        if not span > 0.0:
            x = lo if F_lo >= 0.5 else hi
            logger.warning(
                "truncated inverse-gamma mass underflowed (shape=%.3g, scale=%.3g); "
                "clamping draw to %.3g", shape, scale, x,
            )
            return x
        t = float(gammaincinv(shape, P_hi + rng.random() * span))
    if t <= 0.0 or not math.isfinite(t):
        return hi if t <= 0.0 else lo
    return min(max(scale / t, lo), hi)


def gibbs_step(state, Y, prior, rng):
    """One full sweep; returns a new state, the input is untouched.

    The arithmetic runs in place on arrays the sweep allocates, with the
    operands of the conditional laws above in their order, so the draws
    equal those of the plain array expressions bit for bit. The returned
    state is not value-checked: run_chain checks its kept draws once.
    """
    Y = np.asarray(Y, dtype=float)
    n = Y.size
    if state.theta.size != n:
        raise ValueError(f"state has {state.theta.size} coordinates but Y has {n}")
    tau2 = state.tau2
    w = state.lambda2 * tau2
    b = w + 1.0
    w /= b                                      # s2 / (1 + s2)
    theta = w * Y
    np.sqrt(w, out=w)
    w *= rng.standard_normal(out=b)
    theta += w                                  # w Y + sqrt(w) z
    t2 = np.multiply(theta, theta, out=w)       # theta^2, read twice
    lam2 = 1.0 / state.nu
    lam2 += np.divide(t2, 2.0 * tau2, out=b)
    lam2 /= rng.standard_exponential(out=b)
    nu = 1.0 / lam2
    nu += 1.0
    nu /= rng.standard_exponential(out=b)
    xi = state.xi
    if prior.kind is not HyperPriorKind.POINT_MASS:
        np.multiply(lam2, 2.0, out=b)
        S = float(np.add.reduce(np.divide(t2, b, out=b)))
        lo, hi = prior.support(n)
        if prior.kind is HyperPriorKind.TRUNCATED_UNIFORM:
            # flat hyperprior: exact conditional, no auxiliary
            tau2 = _trunc_invgamma(rng, 0.5 * (n - 1), S, lo * lo, hi * hi)
        else:
            tau2 = _trunc_invgamma(rng, 0.5 * (n + 1), 1.0 / xi + S, lo * lo, hi * hi)
            xi = (1.0 + 1.0 / tau2) / rng.standard_exponential()
    return GibbsState._unchecked(theta, lam2, nu, tau2, xi)


def run_chain(Y, prior, iters=12000, burn_in=2000, thin=1, seed=0):
    """Run the Gibbs sampler and keep every thin-th post-burn-in state.

    Initialization: theta starts at the data, all local scales and
    auxiliaries at one, and tau at the threshold-count estimator clamped
    into the prior support. The kept draws are checked once at the end:
    a theta that is not finite or a tau that is not positive and finite
    raises ValueError.
    """
    Y = _as_obs(Y, 2)
    n = Y.size
    if not isinstance(prior, HyperPrior):
        raise TypeError(f"prior must be a HyperPrior, got {type(prior).__name__}")
    if burn_in < 0 or iters <= burn_in:
        raise ValueError(f"need iters > burn_in >= 0, got iters={iters}, burn_in={burn_in}")
    if thin < 1:
        raise ValueError(f"thin must be at least 1, got {thin}")
    rng = np.random.default_rng(seed)
    lo, hi = prior.support(n)
    t0 = min(max(simple_estimator(Y).tau, lo), hi)
    state = GibbsState(theta=Y.copy(), lambda2=np.ones(n), nu=np.ones(n), tau2=t0 * t0, xi=1.0)
    kept = len(range(burn_in, iters, thin))
    thetas = np.empty((kept, n))
    taus = np.empty(kept)
    j = 0
    for i in range(iters):
        state = gibbs_step(state, Y, prior, rng)
        if i >= burn_in and (i - burn_in) % thin == 0:
            thetas[j] = state.theta
            taus[j] = math.sqrt(state.tau2)
            j += 1
    # min and max propagate NaN, so one pair of reductions checks every draw
    if not (math.isfinite(thetas.min()) and math.isfinite(thetas.max())
            and taus.min() > 0.0 and taus.max() < math.inf):
        raise ValueError("the chain drew a non-finite theta or a tau that is not positive "
                         "and finite")
    return Chain(thetas=thetas, taus=taus, burn_in=burn_in, thin=thin, seed=seed)


def _check_chain(chain, alpha, L):
    if chain.n_draws < 100:
        raise ValueError(f"need at least 100 kept draws, got {chain.n_draws}")
    _check_level(alpha, L)


_TILE = 32  # chain columns per sorted tile: one reused (_TILE, draws) buffer
_ROWS = 64  # draws per chunk of the ball's distances: one reused (_ROWS, n) buffer


def _column_quantiles(x, q):
    """np.quantile(x, q, axis=0) for a 2-D x and 1-D q, bit for bit.

    The columns are taken _TILE at a time: each tile is copied, transposed,
    into one reused buffer and sorted in place along its rows, so each
    column's order statistics sit in contiguous memory and no copy of the
    whole of x is made. Every level is then read by numpy's "linear" rule:
    virtual index (N-1) q, and the interpolation of numpy's _lerp,
    including its second form for weights of 1/2 or more. A column holding
    NaN sorts it last and reads NaN at every level, as np.quantile does.
    """
    N, m = x.shape
    v = (N - 1) * np.asarray(q, dtype=float)
    prev = np.floor(v)
    nxt = prev + 1.0
    top = v >= N - 1
    prev[top] = nxt[top] = -1.0
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    t = (v - prev)[:, None]
    out = np.empty((v.size, m))
    buf = np.empty((min(_TILE, m), N))
    for lo in range(0, m, _TILE):
        o = out[:, lo:lo + _TILE]
        s = buf[:o.shape[1]]
        s[:] = x[:, lo:lo + _TILE].T
        s.sort(axis=1)
        a, b = s[:, prev].T, s[:, nxt].T
        diff = b - a
        np.add(a, diff * t, out=o)
        np.subtract(b, diff * (1 - t), out=o, where=t >= 0.5)
        last = s[:, -1]
        np.copyto(o, last, where=np.isnan(last))
    return out


def hb_marginal_intervals(chain, alpha, L=1.0):
    """Per-coordinate credible intervals from the kept draws, as the
    record array of interval_batch: the equal-tail alpha/2 and
    1-alpha/2 empirical quantiles, reported as midpoint plus half-range.
    The quantiles are exact order statistics of the draws, sorted a tile
    of columns at a time, equal bit for bit to np.quantile's default method.
    """
    _check_chain(chain, alpha, L)
    lo, hi = _column_quantiles(chain.thetas, [alpha / 2.0, 1.0 - alpha / 2.0])
    return _intervals(0.5 * (lo + hi), 0.5 * (hi - lo) * L)


def hb_ball(chain, alpha, L=1.0):
    """L2 credible ball around the chain mean vector.

    The distances are np.linalg.norm's sqrt(add.reduce(d * d, axis=1)),
    each row's sum on its own, so they are formed _ROWS draws at a time:
    centred and squared in place in one reused buffer, with no centred copy
    of the whole chain.
    """
    _check_chain(chain, alpha, L)
    center = chain.theta_mean
    x = chain.thetas
    dist = np.empty(len(x))
    buf = np.empty((min(_ROWS, len(x)), x.shape[1]))
    for lo in range(0, len(x), _ROWS):
        hi = min(lo + _ROWS, len(x))
        d = np.subtract(x[lo:hi], center, out=buf[:hi - lo])
        np.add.reduce(np.multiply(d, d, out=d), axis=1, out=dist[lo:hi])
    np.sqrt(dist, out=dist)
    r = float(np.quantile(dist, 1.0 - alpha))
    se = mcse_quantile(dist, 1.0 - alpha)
    return CredibleBall(
        center=center, radius=L * r, alpha=float(alpha), blowup_L=float(L),
        mc_draws=chain.n_draws, mc_se=L * se,
    )


def _batch_se(x, batches, stat):
    """Standard error of a chain statistic from its values on equal batches."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2 * batches:
        raise ValueError(f"need at least {2 * batches} draws for {batches} batches")
    m = x.size // batches
    b = stat(x[: m * batches].reshape(batches, m))
    return float(np.std(b, ddof=1) / math.sqrt(batches))


def mcse_mean(x, batches=50):
    """Batch-means Monte Carlo standard error of the mean of a chain."""
    return _batch_se(x, batches, lambda b: b.mean(axis=1))


def mcse_quantile(x, p, batches=50):
    """Batch-wise standard error of an empirical quantile of a chain."""
    return _batch_se(x, batches, lambda b: np.quantile(b, p, axis=1))


def verify_hyperprior(prior, rate, Cu, c=None):
    """Numeric check of the hyperprior conditions at a given sparsity rate.

    Reports whether the support stays inside [1/n, 1] and the prior mass
    on [t_n/2, t_n] for t_n = Cu * pi^(3/2) * tau_n, the one mass that
    both conditions bound: by exp(-c*p) for the strong one (c defaults to
    Cu/4) and by t_n for the weak one. Thresholds are reported, not
    enforced; the asymptotic statements hide constants, so pass/fail is
    the caller's judgment.
    """
    from scipy.integrate import quad

    if not Cu > 0.0:
        raise ValueError(f"Cu must be positive, got {Cu}")
    if not isinstance(rate, SparsityRate):
        raise TypeError(f"rate must be a SparsityRate, got {type(rate).__name__}")
    n = rate.n
    t_n = Cu * math.pi**1.5 * rate.tau_n
    if c is None:
        c = Cu / 4.0
    a, b = t_n / 2.0, t_n
    if prior.kind is HyperPriorKind.POINT_MASS:
        lo = hi = prior.tau0
        mass = 1.0 if a <= prior.tau0 <= b else 0.0
    else:
        lo, hi = prior.support(n)
        aa, bb = max(a, lo), min(b, hi)
        mass = quad(lambda t: prior.density(t, n), aa, bb)[0] if bb > aa else 0.0
    return {
        "cond2": bool(lo >= 1.0 / n and hi <= 1.0),
        "mass": float(mass),
        "t_n": float(t_n),
        "cond3_threshold": float(math.exp(-c * rate.p)),
        "cond4_threshold": float(t_n),
    }

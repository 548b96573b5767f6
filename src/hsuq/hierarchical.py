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
from rng.standard_exponential: numpy's gamma(1, 1/b) draws the same
stream, bit for bit, but broadcasts an array scale element by element.
Truncated hyperpriors restrict the tau^2 draw to [1/n^2, 1] by inverse
CDF. The flat hyperprior on [1/n, 1] is not a half-Cauchy, so its exact
conditional is InvGamma((n-1)/2, S) truncated to the same range, with
no xi auxiliary involved.
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


def _invgamma(rng, shape, scale):
    return 1.0 / rng.gamma(shape, 1.0 / scale)


def _invexp(rng, scale):
    """InvGamma(1, scale), bit-identical to _invgamma(rng, 1.0, scale).

    numpy's shape-1 gamma is the ziggurat exponential times the scale,
    so this draws the same stream without gamma's per-element
    broadcasting of an array scale.
    """
    return 1.0 / (rng.standard_exponential() * (1.0 / scale))


def _invexp_into(rng, scale, buf):
    """_invexp over an array scale, written over it; buf is scratch."""
    np.divide(1.0, scale, out=scale)
    scale *= rng.standard_exponential(out=buf)
    np.divide(1.0, scale, out=scale)


def _trunc_invgamma(rng, shape, scale, lo, hi):
    """Inverse-CDF draw from InvGamma(shape, scale) restricted to [lo, hi].

    The CDF at x is the regularized upper gamma function Q(shape, scale/x).
    When the bulk lies below lo, Q rounds to 1 at both ends although the
    mass between them is representable, so the span and the inversion
    use the lower function P = 1 - Q, which falls as x grows. Only when
    that span underflows too is the draw clamped to the boundary nearest
    the bulk, with a warning.
    """
    F_lo = float(gammaincc(shape, scale / lo))
    F_hi = float(gammaincc(shape, scale / hi))
    span = F_hi - F_lo
    if span > 0.0:
        t = float(gammainccinv(shape, F_lo + rng.random() * span))
    else:
        P_lo = float(gammainc(shape, scale / lo))
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
    equal those of the plain array expressions bit for bit.
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
    _invexp_into(rng, lam2, b)
    nu = 1.0 / lam2
    nu += 1.0
    _invexp_into(rng, nu, b)
    xi = state.xi
    if prior.kind is not HyperPriorKind.POINT_MASS:
        np.multiply(lam2, 2.0, out=b)
        S = float(np.add.reduce(np.divide(t2, b, out=b)))
        if prior.kind is HyperPriorKind.HALF_CAUCHY:
            tau2 = _invgamma(rng, 0.5 * (n + 1), 1.0 / xi + S)
            xi = _invexp(rng, 1.0 + 1.0 / tau2)
        elif prior.kind is HyperPriorKind.TRUNCATED_HALF_CAUCHY:
            tau2 = _trunc_invgamma(rng, 0.5 * (n + 1), 1.0 / xi + S, 1.0 / n**2, 1.0)
            xi = _invexp(rng, 1.0 + 1.0 / tau2)
        else:
            # flat hyperprior: exact conditional, no auxiliary
            tau2 = _trunc_invgamma(rng, 0.5 * (n - 1), S, 1.0 / n**2, 1.0)
    return GibbsState(theta=theta, lambda2=lam2, nu=nu, tau2=tau2, xi=xi)


def run_chain(Y, prior, iters=12000, burn_in=2000, thin=1, seed=0):
    """Run the Gibbs sampler and keep every thin-th post-burn-in state.

    Initialization: theta starts at the data, all local scales and
    auxiliaries at one, and tau at the threshold-count estimator clamped
    into the prior support.
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
    if prior.kind is HyperPriorKind.POINT_MASS:
        t0 = prior.tau0
    else:
        lo, hi = prior.support(n)
        t0 = min(max(simple_estimator(Y).tau, lo), hi)
    state = GibbsState(
        theta=Y.copy(),
        lambda2=np.ones(n),
        nu=np.ones(n),
        tau2=t0 * t0,
        xi=1.0,
    )
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
    return Chain(thetas=thetas, taus=taus, burn_in=burn_in, thin=thin, seed=seed)


def _check_chain(chain, alpha, L):
    if chain.n_draws < 100:
        raise ValueError(f"need at least 100 kept draws, got {chain.n_draws}")
    _check_level(alpha, L)


def _column_quantiles(x, q):
    """np.quantile(x, q, axis=0) for a 2-D x and 1-D q, bit for bit.

    One transposed copy is sorted in place along its rows, so each
    column's order statistics sit in contiguous memory. Every level is
    then read by numpy's "linear" rule: virtual index (N-1) q, and the
    interpolation of numpy's _lerp, including its second form for
    weights of 1/2 or more. A column holding NaN sorts it last and reads
    NaN at every level, as np.quantile does.
    """
    s = x.T.copy()
    s.sort(axis=1)
    N = s.shape[1]
    v = (N - 1) * np.asarray(q, dtype=float)
    prev = np.floor(v)
    nxt = prev + 1.0
    top = v >= N - 1
    prev[top] = nxt[top] = -1.0
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    t = (v - prev)[:, None]
    a, b = s[:, prev].T, s[:, nxt].T
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    last = s[:, -1]
    np.copyto(out, last, where=np.isnan(last))
    return out


def hb_marginal_intervals(chain, alpha, L=1.0):
    """Per-coordinate credible intervals from the kept draws, as the
    record array of interval_batch: the equal-tail alpha/2 and
    1-alpha/2 empirical quantiles, reported as midpoint plus half-range.
    The quantiles are exact order statistics of one sorted copy of the
    draws, equal bit for bit to np.quantile's default method.
    """
    _check_chain(chain, alpha, L)
    lo, hi = _column_quantiles(chain.thetas, [alpha / 2.0, 1.0 - alpha / 2.0])
    return _intervals(0.5 * (lo + hi), 0.5 * (hi - lo) * L)


def hb_ball(chain, alpha, L=1.0):
    """L2 credible ball around the chain mean vector.

    The distances are np.linalg.norm's sqrt(add.reduce(d * d, axis=1)),
    squared in place on the one centred copy of the draws.
    """
    _check_chain(chain, alpha, L)
    center = chain.theta_mean
    d = chain.thetas - center[None, :]
    dist = np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=1))
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
    on [t_n/2, t_n] for t_n = Cu * pi^(3/2) * tau_n. The same mass is
    compared against two thresholds: exp(-c*p) for the strong condition
    (c defaults to Cu/4) and t_n itself for the weak one. Thresholds are
    reported, not enforced; the asymptotic statements hide constants, so
    pass/fail is the caller's judgment.
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
        "cond3_mass": float(mass),
        "cond4_mass": float(mass),
        "t_n": float(t_n),
        "cond3_threshold": float(math.exp(-c * rate.p)),
        "cond4_threshold": float(t_n),
    }

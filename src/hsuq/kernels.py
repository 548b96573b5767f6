"""Shrinkage-kernel special functions for horseshoe inference on normal means.

Every posterior summary in this package reduces to weighted moments of the
shrinkage weight z = lam^2 tau^2 / (1 + lam^2 tau^2) in (0, 1), whose
conditional law given an observation y has unnormalized density

    z^(-1/2) * (tau^2 + (1 - tau^2) z)^(-1) * exp(y^2 z / 2),   0 < z < 1.

The normalizing constant is the order -1/2 member of the kernel family

    I_k(y) = int_0^1 z^k (tau^2 + (1 - tau^2) z)^(-1) exp(y^2 z / 2) dz,

and the same family yields the marginal density of y, the score of the
marginal likelihood in tau, and the posterior cumulants of the mean.

The integrand spans a huge dynamic range (exp(y^2/2) alone exceeds 1e217
at y = 31.6), so all internal work happens on the rescaled integrals
J_k = exp(-y^2/2) I_k in the substituted variable u = sqrt(z):

    J_k(y) = 2 int_0^1 u^(2k+1) (tau^2 + (1 - tau^2) u^2)^(-1)
                 exp(-y^2 (1 - u^2) / 2) du.

J_k stays bounded for every y and the substitution removes the z^(-1/2)
endpoint singularity. Quadrature is composite Gauss-Legendre on panels
graded geometrically into the rational knee at u ~ tau and into the
exponential boundary layer at u = 1 (width ~ 1/y^2 in 1 - u). Ratios such
as I_{1/2}/I_{-1/2} are formed directly from the J values, never from
exponentiated I values, so they cannot overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, hyp1f1, lambertw

__all__ = [
    "GlobalScale",
    "SparsityRate",
    "KernelOrder",
    "KERNEL_ORDERS",
    "SCORE_UPPER_BOUND",
    "zeta",
    "integral_Ik",
    "log_integral_Ik",
    "marginal_density",
    "log_marginal_density",
    "log_marginal_lik",
    "score_m",
    "posterior_mean",
    "posterior_variance",
    "kappa_threshold",
    "expansion_Hk",
]

#: Admissible half-integer orders of the kernel family.
KERNEL_ORDERS = (-0.5, 0.5, 1.5, 2.5, 3.5)

#: Largest value of the score function observed on a fine (y, tau) scan
#: (y in [0, 60], tau in [1e-8, 1]; see tests). The score approaches 1 from
#: below as |y| grows, and the scan maximum stays below 1. This is a
#: measured constant with a small safety margin, not a proven bound.
SCORE_UPPER_BOUND = 1.0 + 1e-9


def zeta(tau: "float | GlobalScale") -> float:
    """Detection threshold sqrt(2 log(1/tau)) associated with a global scale.

    Equals 0 at tau = 1 and grows as tau decreases; sqrt(2 log n) is the
    universal threshold, recovered at tau = 1/n.
    """
    return math.sqrt(2.0 * math.log(1.0 / _tau_value(tau)))


@dataclass(frozen=True)
class GlobalScale:
    """Global shrinkage scale tau, restricted to (0, 1].

    Attributes
    ----------
    tau : float
        The scale value. Must satisfy 0 < tau <= 1.
    """

    tau: float

    def __post_init__(self):
        t = float(self.tau)
        if not 0.0 < t <= 1.0:  # NaN and inf fail too
            raise ValueError(f"tau must lie in (0, 1], got {self.tau!r}")
        object.__setattr__(self, "tau", t)

    @property
    def zeta(self) -> float:
        """sqrt(2 log(1/tau)); zero at tau = 1."""
        return zeta(self)


@dataclass(frozen=True)
class SparsityRate:
    """Problem dimension n with an assumed number of signals p <= n.

    The derived quantity ``tau_n`` = (p/n) sqrt(log(n/p)) is the
    theoretically optimal order for the global scale; it is positive for
    p < n and zero at p = n.
    """

    n: int
    p: int

    def __post_init__(self):
        if int(self.n) != self.n or int(self.p) != self.p:
            raise ValueError("n and p must be integers")
        if not (1 <= self.p <= self.n):
            raise ValueError(f"need 1 <= p <= n, got n={self.n}, p={self.p}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", int(self.p))

    @property
    def tau_n(self) -> float:
        """(p/n) sqrt(log(n/p)), the optimal global-scale order."""
        return (self.p / self.n) * math.sqrt(math.log(self.n / self.p))


@dataclass(frozen=True)
class KernelOrder:
    """One of the admissible half-integer kernel orders."""

    k: float

    def __post_init__(self):
        if float(self.k) not in KERNEL_ORDERS:
            raise ValueError(f"kernel order must be one of {KERNEL_ORDERS}, got {self.k!r}")
        object.__setattr__(self, "k", float(self.k))


def _tau_value(tau) -> float:
    return (tau if isinstance(tau, GlobalScale) else GlobalScale(tau)).tau


def _order_value(k) -> float:
    return (k if isinstance(k, KernelOrder) else KernelOrder(k)).k


def _check_level(alpha, L=1.0):
    """Check a credible level 1 - alpha and a finite blow-up factor L; NaN fails both."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < L < math.inf:
        raise ValueError(f"blow-up factor must be positive and finite, got {L}")


# ---------------------------------------------------------------------------
# Quadrature engine
# ---------------------------------------------------------------------------

_CHUNK = 512  # rows of y per exp() block: a (rows, 256-400 nodes) matrix is 1-1.6 MB
# rows of y per tau-sweep block: the product has 3 rows per swept tau, 96 at 32
# Chebyshev taus (under 1 MB a block), beside a 2-3 MB damping matrix
_SWEEP_CHUNK = 1024

#: Gauss-Legendre nodes per panel, in every quadrature of the package.
_GAUSS_ORDER = 16
_GAUSS_RULE = np.polynomial.legendre.leggauss(_GAUSS_ORDER)


def _check_square(y_abs):
    """Reject |y| whose square overflows, |y| >= 1.34e154."""
    if not math.isfinite(y_abs * y_abs):
        raise ValueError(f"|y| = {y_abs:g} is out of range: its square overflows")


def _check_range(tau: float, y_abs_max: float):
    """Reject a tau whose square underflows or a |y| whose square overflows."""
    _check_square(y_abs_max)
    if tau * tau < sys.float_info.min:
        raise ValueError(f"tau = {tau:g} is out of range: its square underflows")


def _panel_edges(tau: float, y_abs_max: float) -> np.ndarray:
    """Panel breakpoints on [0, 1] for the J-integrals.

    Geometric gradation toward u = 0 at the scale of the rational knee
    (u ~ tau), from tau / 8 up, at every tau, and toward u = 1 at the
    scale of the exponential layer (1 - u ~ 1/y^2). The layer needs y^2
    finite, which holds for |y| < 1.34e154, and the knee needs tau^2
    normal, which holds for tau >= 1.49e-154; outside either range it
    raises ValueError (``_check_range``).
    """
    _check_range(tau, y_abs_max)
    pts = [0.0, 0.5, 1.0]
    e = tau / 8.0
    while e < 0.4:
        pts.append(e)
        e *= 2.0
    t = min(0.25, 1.0 / (1.0 + y_abs_max * y_abs_max)) / 4.0
    while t < 0.5:
        pts.append(1.0 - t)
        t *= 2.0
    return np.unique(np.asarray(pts, dtype=float))


def _damp(y2, u):
    """exp(-y^2 (1 - u^2) / 2), one row per y^2, built in place in one array."""
    d = np.einsum("i,j->ij", y2, 1.0 - u * u)  # an outer product with no ufunc buffers
    d *= -0.5
    return np.exp(d, out=d)


def _layout(tau, y_abs_max: float = 0.0, edges=None):
    """The one quadrature layout of the package: ``(nodes, weights)``.

    Panels graded for min(tau) and y_abs_max carry _GAUSS_ORDER nodes
    each; the weights are Gauss weights times the prior factor
    2 / (tau^2 + (1 - tau^2) u^2), one row per tau for an array of taus.
    A row y of the integrand is then ``weights * _damp(y^2, u)``. Given
    ``edges`` instead, with tau None, the plain rule is mapped onto those
    panels (the theta panels). No other code maps _GAUSS_RULE onto panels.
    """
    if edges is None:
        edges = _panel_edges(float(np.min(tau)), y_abs_max)
    x, w = _GAUSS_RULE
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    half = 0.5 * (b - a)
    u = (0.5 * (a + b) + half * x[None, :]).ravel()
    wt = (half * w[None, :]).ravel()
    if tau is None:
        return u, wt
    t2 = np.square(tau)[..., None]
    return u, 2.0 * wt / (t2 + (1.0 - t2) * u * u)


# ---------------------------------------------------------------------------
# Theta-space panels and the closed-form marginal prior
# ---------------------------------------------------------------------------

#: e^x E1(x) comes from exp1 up to x = 700, where exp1 is still a normal
#: float, and from its asymptotic series above (DLMF 6.12.1): 9 terms
#: sum_k (-1)^k k! / x^k, whose remainder is below 9! / 700^9 < 1e-20.
_E1_SERIES_FROM = 700.0
_LOG_SQRT_2PI3 = 0.5 * math.log(2.0 * math.pi**3)


def _log_prior(theta, tau: float) -> np.ndarray:
    """log p(theta) of the marginal horseshoe prior, elementwise.

    p(theta) = e^x E1(x) / (tau sqrt(2 pi^3)) with x = theta^2 / (2 tau^2)
    (Carvalho, Polson & Scott, Biometrika 2010). Finite at every theta != 0;
    log p(0) = inf, the prior's log singularity. On the series branch log x
    is 2 (log|theta| - log tau) - log 2, so it stays finite where x itself
    overflows (|theta| / tau > 1.34e154).
    """
    theta = np.abs(np.asarray(theta, dtype=float))
    with np.errstate(over="ignore"):
        x = 0.5 * np.square(theta / tau)
    g = np.empty_like(x)
    near = x <= _E1_SERIES_FROM
    g[near] = np.log(np.exp(x[near]) * exp1(x[near]))
    far = theta[~near]
    inv = 2.0 * np.square(tau / far)  # 1 / x, which underflows to 0 harmlessly
    h = np.ones_like(far)
    for k in range(8, 0, -1):  # Horner form of the 9-term series
        h = 1.0 - k * inv * h
    g[~near] = np.log(h) - (2.0 * (np.log(far) - math.log(tau)) - math.log(2.0))
    return g - math.log(tau) - _LOG_SQRT_2PI3


def _theta_panels(tau: float):
    """Core theta panels on [-1, 1]: ``(edges, nodes, weights)``.

    Edges halve from |theta| = 1 down to the first power of 2 at or below
    tau * 1e-17, on both sides of 0, plus 0 itself; nodes and weights are
    (panels, _GAUSS_ORDER). The prior's log singularity at 0 is the same
    point for every y, so these panels serve every row: a halving panel
    [a, 2a] stays a panel width away from 0, where 16 nodes resolve
    log(theta) to near float precision (cdfs within 1e-14 of quad,
    measured; factor-4 panels gave 3e-10). Below tau * 1e-17 a row holds
    under 1e-15 of its mass.
    """
    m = math.ceil(math.log2(1e17 / tau))
    pos = np.ldexp(1.0, -np.arange(m, -1, -1))
    edges = np.concatenate([-pos[::-1], [0.0], pos])
    nodes, wt = _layout(None, edges=edges)
    return edges, nodes.reshape(-1, _GAUSS_ORDER), wt.reshape(-1, _GAUSS_ORDER)


# the reference rule on [-1, 1], and the matrix that takes a panel's node
# values to the Legendre coefficients c_k = (k + 1/2) sum_j w_j P_k(x_j) f_j
# of the polynomial through them
_REF_X, _REF_W = _layout(None, edges=np.array([-1.0, 1.0]))
_TO_LEGENDRE = ((np.arange(_GAUSS_ORDER) + 0.5)[:, None]
                * np.polynomial.legendre.legvander(_REF_X, _GAUSS_ORDER - 1).T * _REF_W)


def _interp_matrix():
    """(_GAUSS_ORDER, 3 * _GAUSS_ORDER): the Legendre values P_0..P_15 at s to
    the node weights of q, of the value and of the slope at s, where the
    integral from -1 to s of the polynomial p = sum_k c_k P_k is (s + 1) q(s).

    Exact Legendre algebra on the coefficients c = _TO_LEGENDRE f. The slope
    is P'_k = sum_{l < k, k - l odd} (2l + 1) P_l. Integrating Legendre's
    equation (d/ds)((1 - s^2) P'_k) = -k (k + 1) P_k from -1 gives
    int_{-1}^s P_k = (s + 1) Q_k with Q_0 = 1 and, for k >= 1,
    Q_k = (s - 1) P'_k / (k (k + 1)), where each (2l + 1)(s - 1) P_l is
    (l + 1) P_{l+1} + l P_{l-1} - (2l + 1) P_l. So every slope entry is an
    integer and every Q entry an integer over k (k + 1).
    """
    n = _GAUSS_ORDER
    slope, q = np.zeros((n, n)), np.zeros((n, n))  # row k: P'_k and Q_k in P_0..P_15
    q[0, 0] = 1.0
    for k in range(1, n):
        num = np.zeros(n + 1, dtype=np.int64)
        for ll in range(k - 1, -1, -2):
            slope[k, ll] = 2 * ll + 1
            num[ll + 1] += ll + 1
            num[ll] -= 2 * ll + 1
            if ll:
                num[ll - 1] += ll
        q[k] = num[:n] / (k * (k + 1))  # num[n] is 0: Q_k has degree k
    return np.concatenate([q.T @ _TO_LEGENDRE, _TO_LEGENDRE, slope.T @ _TO_LEGENDRE], axis=1)


_INTERP = _interp_matrix()


def _panel_interp(f, s):
    """(3, m): integral from -1 to s, value and slope at s of the degree-15
    polynomial through each row of node values f (m, _GAUSS_ORDER), at the
    local coordinate s in [-1, 1] of the panel (derivatives in s).

    One Bonnet recurrence gives P_0..P_15 at s, _INTERP takes them to node
    weights, and each row's weights meet its own f: no product mixes rows.
    The integral is (s + 1) q(s), so it is exactly 0 at s = -1.
    """
    n = _GAUSS_ORDER
    P = np.empty((n,) + s.shape)
    P[0], P[1] = 1.0, s
    a = np.multiply.outer((2.0 * np.arange(n) + 1.0) / (np.arange(n) + 1.0), s)
    for k in range(1, n - 1):  # (k + 1) P_{k+1} = (2k + 1) s P_k - k P_{k-1}
        np.multiply(a[k], P[k], out=P[k + 1])
        P[k + 1] -= k / (k + 1) * P[k - 1]
    wts = np.matmul(P.T[:, None, :], _INTERP).reshape(s.size, 3, n)  # a (1, n) product per row
    out = np.einsum("mcj,mj->cm", wts, f)
    out[0] *= s + 1.0
    return out


def _mixture_moments(y: np.ndarray, tau: float, powers) -> np.ndarray:
    """Rescaled kernel moments 2 * int u^a (1-u^2)^b D(u) exp(-y^2(1-u^2)/2) du.

    Parameters
    ----------
    y : ndarray
        Observations, flat.
    tau : float
        Global scale in (0, 1].
    powers : sequence of (int, int)
        Exponent pairs (a, b) for the weight u^a (1 - u^2)^b.

    Returns
    -------
    ndarray of shape (len(powers), len(y))
        The value equals exp(-y^2/2) times the corresponding I-type
        integral; it never overflows.
    """
    u, w = _layout(tau, float(np.abs(y).max()) if y.size else 0.0)
    y2 = y * y
    om = 1.0 - u * u
    fs = np.stack([w * u**a * om**b for a, b in powers])
    out = np.empty((len(powers), y2.size))
    for lo in range(0, y2.size, _CHUNK):  # row by row: no BLAS product mixing rows
        out[:, lo:lo + _CHUNK] = np.einsum("kj,ij->ki", fs, _damp(y2[lo:lo + _CHUNK], u))
    return out


def _tau_sweep(y: np.ndarray, taus: np.ndarray):
    """Summed score and log marginal likelihood at every tau of a grid, in one pass.

    All taus share one panel layout, graded into the knee of the smallest
    (which resolves every larger one), and one damping matrix per block of
    rows, so memory is O(len(taus) * _SWEEP_CHUNK) whatever len(y). Returns
    ``(scores, loglik)``: ``sum(score_m(y, tau))`` and
    ``log_marginal_lik(y, tau)`` per tau.
    """
    g = taus.size
    u, w = _layout(taus, float(np.abs(y).max()))
    u2 = u * u
    fs = np.concatenate([w, w * u2, w * u2 * (1.0 - u2)])
    scores = np.zeros(g)
    logj = np.zeros(g)
    for lo in range(0, y.size, _SWEEP_CHUNK):
        yc = np.square(y[lo:lo + _SWEEP_CHUNK])
        j0, jz, jd = (fs @ _damp(yc, u).T).reshape(3, g, yc.size)
        scores += np.sum(yc * jd / j0 - jz / j0, axis=1)
        logj += np.sum(np.log(j0), axis=1)
        del j0, jz, jd  # this block's product, freed before the next block's damping
    const = np.log(taus) - math.log(math.pi) - _LOG_SQRT_2PI
    return scores, y.size * const + logj


def _as_obs(Y, min_size):
    """Observation vector as a flat float array of at least min_size finite values."""
    arr = np.asarray(Y, dtype=float).ravel()
    if arr.size < min_size:
        raise ValueError(f"need at least {min_size} values, got {arr.size}")
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"coordinate {int(np.argmax(bad))}: value not finite")
    return arr


def _elementwise(formula, y, tau):
    """formula(flat y, tau) after the checks of tau and then y.

    Gives a float for a scalar or 0-d y and an array of y's shape otherwise.
    """
    t = _tau_value(tau)
    arr = np.asarray(y, dtype=float)
    vals = formula(_as_obs(arr, 0), t)
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Kernel integrals
# ---------------------------------------------------------------------------

def log_integral_Ik(y, tau, k) -> "float | np.ndarray":
    """Natural log of the kernel integral I_k(y); safe for any |y|.

    Parameters
    ----------
    y : float or array_like
    tau : float or GlobalScale
    k : float or KernelOrder

    Returns
    -------
    float or ndarray
        log I_k(y). Use this instead of :func:`integral_Ik` when
        exp(y^2/2) would overflow (|y| > 37 or so).
    """
    t = _tau_value(tau)  # the checks run in order: tau, k, y
    a = int(2.0 * _order_value(k) + 1.0)

    def formula(y, t):
        return np.log(_mixture_moments(y, t, [(a, 0)])[0]) + 0.5 * y * y

    return _elementwise(formula, y, t)


def integral_Ik(y: float, tau, k) -> float:
    """Kernel integral I_k(y) at one observation, from one moment pass.

    Equals exp(:func:`log_integral_Ik`) on the same one layout, with
    exp(y^2/2) taken as exp(y^2/4) twice so that no rounded log is
    exponentiated. Within 1e-12 relative of a 25-digit mpmath quadrature
    for tau in [1.5e-154, 1], |y| <= 37 and every order (tested; worst
    1.05e-14). It overflows to inf above |y| = 37.86; use the log form there.
    """
    t = _tau_value(tau)  # the checks run in order: tau, k, y
    a = int(2.0 * _order_value(k) + 1.0)
    y = _as_obs(y, 1)
    (half,) = np.exp(0.25 * y * y)
    return float(half * _mixture_moments(y, t, [(a, 0)])[0, 0] * half)


# ---------------------------------------------------------------------------
# Marginal density and likelihood
# ---------------------------------------------------------------------------

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def marginal_density(y, tau) -> "float | np.ndarray":
    """Marginal density of one observation under the horseshoe prior.

    Equals (tau/pi) I_{-1/2}(y) phi(y) where phi is the standard normal
    density. Strictly positive and symmetric in y, with tails decaying
    like tau/y^2.
    """
    def formula(y, t):
        return t / math.pi * _mixture_moments(y, t, [(0, 0)])[0] / math.sqrt(2.0 * math.pi)

    return _elementwise(formula, y, tau)


def _log_marginal(y: np.ndarray, t: float) -> np.ndarray:
    j = _mixture_moments(y, t, [(0, 0)])[0]
    return math.log(t) - math.log(math.pi) - _LOG_SQRT_2PI + np.log(j)


def log_marginal_density(y, tau) -> "float | np.ndarray":
    """log of :func:`marginal_density`; finite for every finite y."""
    return _elementwise(_log_marginal, y, tau)


def log_marginal_lik(Y, tau) -> float:
    """Sum of log marginal densities over a non-empty observation vector."""
    return float(np.sum(_log_marginal(_as_obs(Y, 1), _tau_value(tau))))


# ---------------------------------------------------------------------------
# Score and posterior cumulants
# ---------------------------------------------------------------------------

def score_m(y, tau) -> "float | np.ndarray":
    """Per-observation score of the marginal log likelihood in tau.

    Defined as y^2 (I_{1/2} - I_{3/2})/I_{-1/2} - I_{1/2}/I_{-1/2}; the
    derivative of the log marginal likelihood in tau is the sum of these
    over observations, divided by tau. Symmetric in y, bounded below by
    -1, bounded above by :data:`SCORE_UPPER_BOUND` on the scanned range,
    and nondecreasing in |y| on [0, 60] (tested). Above |y| ~ 1e3 it loses
    digits: at tau = 0.1 it exceeds the bound from |y| ~ 1.3e4 and reads
    -0.101 at 1e8 (``test_score_tends_to_one_far_in_the_tail``, xfail).

    The difference I_{1/2} - I_{3/2} is computed as a single integral with
    nonnegative weight u^2 (1 - u^2) rather than by subtraction, so there
    is no cancellation at large |y|.
    """
    def formula(y, t):
        j0, jz, jd = _mixture_moments(y, t, [(0, 0), (2, 0), (2, 1)])
        return y * y * jd / j0 - jz / j0

    return _elementwise(formula, y, tau)


#: Exponent pairs of one moment pass: 1, z, z^2, w = 1 - z and w^2.
_MOMENT_POWERS = [(0, 0), (2, 0), (4, 0), (0, 1), (0, 2)]


def _mean_from(y, j0, jz):
    """Posterior mean y E(z | y) from the first two moments of a moment pass."""
    return y * jz / j0


def _variance_from(y, j0, jz, jz2, jw, jw2):
    """Posterior variance y^2 Var(z | y) + E(z | y) from the five moments of a moment pass."""
    ez = jz / j0
    low = ez < 0.5
    m1 = np.where(low, ez, jw / j0)
    m2 = np.where(low, jz2, jw2) / j0
    return y * y * (m2 - m1 * m1) + ez


def _posterior_moments(y: np.ndarray, t: float):
    """(means, variances) of flat y from one five-power moment pass."""
    j = _mixture_moments(y, t, _MOMENT_POWERS)
    return _mean_from(y, *j[:2]), _variance_from(y, *j)


def posterior_mean(y, tau) -> "float | np.ndarray":
    """Posterior mean of the parameter given one observation.

    Equals y I_{1/2}(y) / I_{-1/2}(y), i.e. y times the posterior
    expectation of the shrinkage weight z. Odd in y and bounded in
    magnitude by |y|.
    """
    def formula(y, t):
        return _mean_from(y, *_mixture_moments(y, t, _MOMENT_POWERS[:2]))

    return _elementwise(formula, y, tau)


def posterior_variance(y, tau) -> "float | np.ndarray":
    """Posterior variance of the parameter given one observation.

    In terms of the shrinkage weight z, equals y^2 Var(z | y) + E(z | y),
    with Var(z | y) from whichever of z and w = 1 - z has the smaller mean,
    so the subtraction keeps full precision at tiny tau and at large |y|.
    """
    def formula(y, t):
        return _variance_from(y, *_mixture_moments(y, t, _MOMENT_POWERS))

    return _elementwise(formula, y, tau)


# ---------------------------------------------------------------------------
# Detection threshold and incomplete-gamma expansion
# ---------------------------------------------------------------------------

def kappa_threshold(tau) -> float:
    """Solution kappa >= sqrt(2) of exp(kappa^2/2) / (kappa^2/2) = 1/tau.

    The left side is increasing in kappa on [sqrt(2), inf) with minimum e,
    so a solution on that branch exists exactly when tau <= 1/e. With
    s = kappa^2/2 the equation reads (-s) exp(-s) = -tau, so s >= 1 is
    -W_{-1}(-tau) on the lower branch of the Lambert W function.

    Raises
    ------
    ValueError
        If tau > 1/e, where no solution with kappa >= sqrt(2) exists.
    """
    t = _tau_value(tau)
    target = math.log(1.0 / t)
    if target < 1.0:
        raise ValueError(
            f"no solution with kappa >= sqrt(2) for tau = {t} (need tau <= 1/e)"
        )
    if target == 1.0:  # the branch point, where lambertw returns NaN
        return math.sqrt(2.0)
    return math.sqrt(-2.0 * lambertw(-t, -1).real)


def expansion_Hk(y: float, k) -> float:
    """Normalized incomplete exponential integral used in tail expansions.

    Computes H_k(y) = x^(-k) int_c^x v^(k-1) e^v dv at x = y^2/2, with c = 0
    for k > 0 and c = 1 otherwise. For large y^2 the value approaches
    exp(x) / x with relative deviation O(1/y^2).

    Closed form through Kummer's function M(a, b, x) = 1F1(a; b; x): the
    antiderivative of v^(k-1) e^v is x^k M(k, k+1, x) / k (DLMF 8.5, 13.2),
    so H_k = M(k, k+1, x) / k for k > 0 and
    H_k = (M(k, k+1, x) - x^(-k) M(k, k+1, 1)) / k for k < 0. Within 1e-14
    relative of a 30-digit quadrature on |y| in [1e-3, 37] (tested).

    Parameters
    ----------
    y : float
        Must be nonzero when k < 0 (the lower limit is c = 1 there and the
        prefactor is singular at 0).
    k : float or KernelOrder

    Raises
    ------
    ValueError
        If y = 0 for k < 0, or if y^2 overflows.
    OverflowError
        If H_k(y) overflows float64, for |y| above about 37.8.
    """
    kk = _order_value(k)
    (yv,) = _as_obs(y, 1).tolist()
    _check_square(abs(yv))
    x = 0.5 * yv * yv
    if kk < 0.0 and yv == 0.0:
        raise ValueError("y must be nonzero for negative orders")
    h = math.inf  # beyond x = 720, H_k > 1e309 at every order, and hyp1f1 can stall
    if x <= 720.0:
        m = float(hyp1f1(kk, kk + 1.0, x))
        if kk < 0.0:  # the antiderivative taken from 1, not from 0
            m -= x ** -kk * float(hyp1f1(kk, kk + 1.0, 1.0))
        h = m / kk
    if not math.isfinite(h):
        raise OverflowError(f"H_{kk:g}(y) overflows float64 at |y| = {abs(yv):g}")
    return h

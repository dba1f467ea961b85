"""Closed-form moments, regime rates, and bound evaluators.

The exact variance of the triangle count factors as

    Var T = C(n,3) p^3 (1-p) (1 + p + p^2 + 3(n-3) p^2),

equivalently C(n,3)(Var X + 3(n-3) Cov2) with Var X = p^3(1-p^3) (Bernoulli
variance of a single triangle indicator) and Cov2 = p^5(1-p) for two triples
sharing one edge.  The unfactored form is sometimes quoted with (1-p)^3 in
place of (1-p^3); that variant is inconsistent with the factored form and
with brute-force enumeration, so this module uses (1-p^3) throughout (the
exact-oracle test suite pins this choice to 1e-10).

All rate evaluators use the C = 1 convention for unspecified universal
constants; acceptance-style checks therefore compare slopes and ratios,
never absolute levels.  Logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

from .errors import InputError, NumericError

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_np(n: int, p: float) -> None:
    if n < 3:
        raise InputError(f"need n >= 3, got {n}")
    if not (0.0 < p < 1.0):
        raise InputError(f"p must be strictly inside (0,1), got {p}")


# ---------------------------------------------------------------------------
# Exact moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    n: int
    p: float
    mean_t: float
    var_t: float
    sigma: float
    var_x: float          # Var X_v for a single triple
    cov_overlap2: float   # Cov(X_v, X_w) when |v & w| = 2


def exact_moments(n: int, p: float) -> MomentReport:
    """Exact mean and variance of the triangle count of G(n,p)."""
    _check_np(n, p)
    c3 = math.comb(n, 3)
    var_x = p**3 * (1.0 - p**3)
    cov2 = p**5 * (1.0 - p)
    var_t = c3 * p**3 * (1.0 - p) * (1.0 + p + p * p + 3.0 * (n - 3) * p * p)
    return MomentReport(
        n=n,
        p=p,
        mean_t=c3 * p**3,
        var_t=var_t,
        sigma=math.sqrt(var_t),
        var_x=var_x,
        cov_overlap2=cov2,
    )


# ---------------------------------------------------------------------------
# Regime rates (C = 1 convention)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeRates:
    regime: str              # "dense" | "middle" | "sparse"
    s2: float                # variance scale n^4(1-p) / n^4 p^5 / n^3 p^3
    thm1_rate: float         # Kolmogorov rate with C = 1
    wasserstein_rate: float  # same shape for the Wasserstein metric


def regime_rates(n: int, p: float) -> RegimeRates:
    """Regime label plus the piecewise rates; boundaries are exactly
    p > 1/2 (dense), n^{-1/2} < p <= 1/2 (middle), p <= n^{-1/2} (sparse)."""
    _check_np(n, p)
    if p > 0.5:
        regime = "dense"
        rate = 1.0 / (n * math.sqrt(1.0 - p))
        s2 = n**4 * (1.0 - p)
    elif p > n ** (-0.5):
        regime = "middle"
        rate = 1.0 / (n * math.sqrt(p))
        s2 = n**4 * p**5
    else:
        regime = "sparse"
        rate = 1.0 / (n**1.5 * p**1.5)
        s2 = n**3 * p**3
    return RegimeRates(regime=regime, s2=s2, thm1_rate=rate, wasserstein_rate=rate)


def dk_from_dw(dw: float) -> float:
    """Kolmogorov distance from a Wasserstein bound: d_K <= sqrt(d_W)."""
    if dw < 0:
        raise InputError("Wasserstein distance must be >= 0")
    return math.sqrt(dw)


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def dawson(x: float) -> float:
    """Dawson's function F(x) = exp(-x^2) * int_0^x exp(u^2) du.

    Delegates to scipy's implementation (relative error ~1e-15); the test
    suite checks it against an independent Gauss-Legendre quadrature.
    """
    if not math.isfinite(x):
        raise InputError("dawson requires finite input")
    return float(_sp.dawsn(x))


def log_plus(x: float) -> float:
    """max(ln x, 0); defined for x > 0 only."""
    if x <= 0:
        raise InputError(f"log_plus requires x > 0, got {x}")
    return max(math.log(x), 0.0)


def normal_cdf(x):
    """Standard normal CDF, erfc-based, vectorised; accurate to ~1e-16."""
    return _sp.ndtr(x)


def kolmogorov_distance(x, cdf) -> float:
    """sup |F - Phi| for a distribution function F that jumps only at the
    ascending atoms x, with F(x) = cdf there: the sup is attained at an
    atom, from the left (the previous cdf value) or from the right."""
    phi = normal_cdf(np.asarray(x, dtype=np.float64))
    left = np.concatenate(([0.0], cdf[:-1]))
    return float(np.max(np.maximum(np.abs(cdf - phi), np.abs(left - phi))))


# ---------------------------------------------------------------------------
# Smoothing-lemma and characteristic-function bound evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma2Params:
    """Coefficients bounding |a(t)| <= A0 + A1|t| and
    |b(t)| <= B0 + B1|t| + B2 t^2, plus the evaluation point t."""

    a0: float
    a1: float
    b0: float
    b1: float
    b2: float
    t: float

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "b0", "b1", "b2"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")
        if self.a0 >= 0.5:
            raise InputError(f"need A0 < 1/2, got {self.a0}")
        if self.t <= 0:
            raise InputError("t must be positive")
        if self.t < 2.0 * self.a1 / (1.0 - 2.0 * self.a0):
            raise InputError(
                f"t={self.t} below the admissible threshold "
                f"{2.0 * self.a1 / (1.0 - 2.0 * self.a0)}"
            )


def lemma2_bound(params: Lemma2Params) -> float:
    """Kolmogorov bound from the characteristic-function ODE coefficients:

        (2/pi) A0 + (4/(3 sqrt(pi))) A1 + (sqrt(pi)/2) B0
        + (2/pi) B1 (1 + 2 log_+ 1/(2t)) + (4/pi) B2/t + 24 t/(pi sqrt(2 pi))
    """
    q = params
    return (
        (2.0 / math.pi) * q.a0
        + (4.0 / (3.0 * math.sqrt(math.pi))) * q.a1
        + (math.sqrt(math.pi) / 2.0) * q.b0
        + (2.0 / math.pi) * q.b1 * (1.0 + 2.0 * log_plus(1.0 / (2.0 * q.t)))
        + (4.0 / math.pi) * q.b2 / q.t
        + 24.0 * q.t / (math.pi * SQRT_2PI)
    )


@dataclass(frozen=True)
class BoundInputs:
    """r-terms feeding the coupling bounds; the tilde values are the free
    upper parameters and must dominate their plain counterparts."""

    r1: float = 0.0
    r1_tilde: float = 0.0
    r2: float = 0.0
    r3: float = 0.0
    r3_tilde: float = 0.0
    r4: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InputError(f"{f.name} must be >= 0")


def theorem2_bound(inputs: BoundInputs, form: str) -> float:
    """Evaluate the coupling Kolmogorov bound.

    simple form:    0.38 r1 + 3.05 r1~ + 0.64 r2 (1 + 2 log_+ 1/(2 r1~))
    extended form:  0.76 r3 + 6.10 r3~ + 0.64 r4 / r3~
    """
    q = inputs
    if form == "simple":
        if q.r1_tilde < q.r1:
            raise InputError("need r1_tilde >= r1")
        if q.r1_tilde <= 0:
            raise InputError("need r1_tilde > 0")
        log_term = log_plus(1.0 / (2.0 * q.r1_tilde))
        return 0.38 * q.r1 + 3.05 * q.r1_tilde + 0.64 * q.r2 * (1.0 + 2.0 * log_term)
    if form == "extended":
        if q.r3_tilde < q.r3:
            raise InputError("need r3_tilde >= r3")
        if q.r3_tilde <= 0:
            raise InputError("need r3_tilde > 0")
        return 0.76 * q.r3 + 6.10 * q.r3_tilde + 0.64 * q.r4 / q.r3_tilde
    raise InputError(f"unknown form {form!r}")


def esseen_rhs(
    chf: Callable[[np.ndarray], np.ndarray], t_max: float, quadrature_points: int = 2048
) -> float:
    """Numeric right-hand side of the Esseen smoothing inequality:

        (1/pi) int_{-T}^{T} |phi(t) - exp(-t^2/2)| / |t| dt
            + 24 / (pi sqrt(2 pi) T).

    The integrand has a removable singularity at t = 0 (both terms equal 1
    there, and the first-order terms match whenever E W = 0), so a symmetric
    1e-6 window around 0 is excluded; its contribution is O(1e-6).
    Composite Gauss-Legendre with `quadrature_points` nodes per side.
    """
    if t_max <= 0:
        raise InputError("T must be positive")
    if quadrature_points < 8:
        raise InputError("need at least 8 quadrature points")
    eps = 1e-6
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_points)
    total = 0.0
    for lo, hi in ((eps, t_max), (-t_max, -eps)):
        half = 0.5 * (hi - lo)
        t = lo + half * (nodes + 1.0)
        vals = np.asarray(chf(t), dtype=np.complex128)
        if not np.all(np.isfinite(vals)):
            raise NumericError("characteristic function returned non-finite values")
        integrand = np.abs(vals - np.exp(-0.5 * t * t)) / np.abs(t)
        total += half * float(np.sum(weights * integrand))
    return total / math.pi + 24.0 / (math.pi * SQRT_2PI * t_max)


# ---------------------------------------------------------------------------
# Complex variance / covariance (conjugate-linear in the second slot)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexStats:
    var_u: float
    var_v: float
    cov_uv: complex


def complex_stats(u: Sequence[complex], v: Sequence[complex]) -> ComplexStats:
    """Sample Var/Cov with the conventions Var X = E|X - EX|^2 and
    Cov(X, Y) = E{(X - EX)(Y - EY)*}; population normalisation (1/m)."""
    ua = np.asarray(u, dtype=np.complex128)
    va = np.asarray(v, dtype=np.complex128)
    if ua.size == 0 or va.size != ua.size:
        raise InputError("need equally many (and at least one) U, V samples")
    du = ua - ua.mean()
    dv = va - va.mean()
    return ComplexStats(
        var_u=float(np.mean(np.abs(du) ** 2)),
        var_v=float(np.mean(np.abs(dv) ** 2)),
        cov_uv=complex(np.mean(du * np.conj(dv))),
    )


# ---------------------------------------------------------------------------
# Proxy model of the Remark (independent edge/triple indicators)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProxyReport:
    n: int
    p: float
    mean_y: float
    var_y: float          # exact, by pair counting over the literal model
    var_y_display: float  # the order-level formula C(n,3)(VarX + (n-3) Cov2)
    gamma: float          # E|I_12 sum_k I_12k - (n-2) p^3|^3
    be_bound: float       # n^2 gamma / s^3 with C = 1, s^2 = var_y


def binom_pmf(m: int, q: float) -> np.ndarray:
    """Binomial(m, q) pmf as a length-(m+1) float64 array, for 0 < q < 1.

    Log space, outward from the mode: log(pmf[j+1]/pmf[j]) is
    log((m-j)/(j+1)) + log(q/(1-q)), so cumulative sums of these ratios
    give every log-atom relative to the mode's.  They are exponentiated
    (the mode's atom is 1, so nothing overflows) and normalised.  No
    binomial coefficient is formed, so any m works.
    """
    if m < 0 or not 0.0 < q < 1.0:
        raise InputError(f"need m >= 0 and 0 < q < 1, got m={m}, q={q}")
    mode = int((m + 1) * q)
    j = np.arange(m)
    step = np.log((m - j) / (j + 1.0)) + (math.log(q) - math.log1p(-q))
    log_pmf = np.zeros(m + 1)
    log_pmf[mode + 1 :] = np.cumsum(step[mode:])
    log_pmf[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


def proxy_exact(n: int, p: float) -> ProxyReport:
    """Exact moments of the proxy statistic Y = sum_{i<j<k} I_ij I_ijk.

    With pair ownership by the two smallest labels, two summands covary iff
    they share their owning pair, giving sum_j j (n-1-j)(n-2-j) ordered
    covarying pairs (0-based j); this differs from the C(n,3)(n-3) count of
    the display formula, which is only order-correct and is reported
    separately for comparison.  gamma sums |I B - (n-2) p^3|^3 against the
    Binomial(n-2, p^2) pmf of `binom_pmf`, so any n >= 4 works.
    """
    mom = exact_moments(n, p)
    if n < 4:
        raise InputError("proxy moments need n >= 4")
    c3 = math.comb(n, 3)
    var_x, cov2 = mom.var_x, mom.cov_overlap2
    ordered_pairs = sum(j * (n - 1 - j) * (n - 2 - j) for j in range(1, n - 1))
    var_y = c3 * var_x + ordered_pairs * cov2
    var_display = c3 * (var_x + (n - 3) * cov2)

    m = n - 2
    center = m * p**3
    tail = (1.0 - p) * center**3
    body = p * math.fsum(binom_pmf(m, p * p) * np.abs(np.arange(m + 1) - center) ** 3)
    gamma = tail + body
    s = math.sqrt(var_y)
    return ProxyReport(
        n=n,
        p=p,
        mean_y=mom.mean_t,
        var_y=var_y,
        var_y_display=var_display,
        gamma=gamma,
        be_bound=n * n * gamma / s**3,
    )

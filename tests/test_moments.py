from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import proxy_brute_force_pmf, proxy_exact_pmf
from triclt.errors import InputError, NumericError
from triclt.moments import (
    BoundInputs,
    Lemma2Params,
    binom_pmf,
    complex_stats,
    dawson,
    dk_from_dw,
    esseen_rhs,
    exact_moments,
    lemma2_bound,
    log_plus,
    normal_cdf,
    proxy_exact,
    regime_rates,
    theorem2_bound,
)

SQRT_2PI = math.sqrt(2 * math.pi)


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------


def brute_force_mean_var(n: int, p: float) -> tuple[float, float]:
    """Independent oracle: enumerate every graph by its edge set."""
    edges = list(combinations(range(n), 2))
    tris = list(combinations(range(n), 3))
    m1 = m2 = 0.0
    for state in product((0, 1), repeat=len(edges)):
        present = {e for e, b in zip(edges, state) if b}
        t = sum(
            1
            for v in tris
            if all(tuple(sorted(e)) in present for e in combinations(v, 2))
        )
        w = math.prod(p if b else 1 - p for b in state)
        m1 += w * t
        m2 += w * t * t
    return m1, m2 - m1 * m1


def test_exact_moments_n3_is_bernoulli():
    for p in (0.2, 0.5, 0.9):
        mom = exact_moments(3, p)
        assert mom.var_t == pytest.approx(p**3 * (1 - p**3), rel=1e-14)


def test_exact_moments_n4_half():
    mom = exact_moments(4, 0.5)
    assert mom.mean_t == pytest.approx(0.5, abs=1e-15)
    assert mom.var_t == pytest.approx(0.625, abs=1e-14)
    mean, var = brute_force_mean_var(4, 0.5)
    assert mom.mean_t == pytest.approx(mean, abs=1e-12)
    assert mom.var_t == pytest.approx(var, abs=1e-12)


def test_exact_moments_vs_brute_force_n5():
    for p in (0.15, 0.6):
        mom = exact_moments(5, p)
        mean, var = brute_force_mean_var(5, p)
        assert mom.mean_t == pytest.approx(mean, abs=1e-11)
        assert mom.var_t == pytest.approx(var, abs=1e-11)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(3, 40), p=st.floats(0.01, 0.99))
def test_variance_factorisation(n, p):
    mom = exact_moments(n, p)
    unfactored = math.comb(n, 3) * (mom.var_x + 3 * (n - 3) * mom.cov_overlap2)
    assert mom.var_t == pytest.approx(unfactored, rel=1e-12)
    assert mom.var_t > 0
    assert mom.sigma == pytest.approx(math.sqrt(mom.var_t))


def test_exact_moments_rejects_degenerate_p():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InputError):
            exact_moments(5, p)


# ---------------------------------------------------------------------------
# regime rates
# ---------------------------------------------------------------------------


def test_regime_examples():
    r = regime_rates(100, 0.05)
    assert r.regime == "sparse"
    assert r.thm1_rate == pytest.approx(100**-1.5 * 0.05**-1.5, rel=1e-12)
    r = regime_rates(100, 0.7)
    assert r.regime == "dense"
    assert r.thm1_rate == pytest.approx(1 / (100 * math.sqrt(0.3)), rel=1e-12)
    assert regime_rates(100, 0.2).regime == "middle"


def test_regime_boundaries_exact():
    assert regime_rates(100, 0.5).regime == "middle"          # p <= 1/2
    assert regime_rates(100, 0.5 + 1e-12).regime == "dense"
    assert regime_rates(100, 0.1).regime == "sparse"          # p = n^{-1/2}
    assert regime_rates(100, 0.1 + 1e-12).regime == "middle"


def test_regime_s2_and_wasserstein_shapes():
    r = regime_rates(50, 0.8)
    assert r.s2 == pytest.approx(50**4 * 0.2)
    r = regime_rates(50, 0.3)
    assert r.s2 == pytest.approx(50**4 * 0.3**5)
    r = regime_rates(400, 0.01)
    assert r.s2 == pytest.approx(400**3 * 0.01**3)
    for n, p in ((50, 0.8), (50, 0.3), (400, 0.01)):
        rr = regime_rates(n, p)
        assert rr.wasserstein_rate == rr.thm1_rate


def test_rate_blows_up_where_normality_fails():
    # dense: p -> 1 at fixed n
    rates = [regime_rates(30, p).thm1_rate for p in (0.9, 0.99, 0.999)]
    assert rates[0] < rates[1] < rates[2]
    # sparse along np = 2: rate stays bounded away from zero
    for n in (100, 10_000, 1_000_000):
        assert regime_rates(n, 2.0 / n).thm1_rate == pytest.approx(
            2.0**-1.5, rel=1e-9
        )


def test_rate_continuous_inside_regimes():
    for p0, p1 in ((0.2, 0.200001), (0.7, 0.700001)):
        a = regime_rates(100, p0).thm1_rate
        b = regime_rates(100, p1).thm1_rate
        assert abs(a - b) / a < 1e-4


def test_dk_from_dw():
    assert dk_from_dw(0.0) == 0.0
    assert dk_from_dw(0.04) == pytest.approx(0.2)
    assert dk_from_dw(1.0) == 1.0
    with pytest.raises(InputError):
        dk_from_dw(-0.1)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def dawson_quadrature(x: float, nodes: int = 400) -> float:
    """Independent oracle: F(x) = int_0^x exp(u^2 - x^2) du, Gauss-Legendre."""
    if x == 0.0:
        return 0.0
    t, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * x * (t + 1.0)
    return float(0.5 * x * np.sum(w * np.exp(u * u - x * x)))


def test_dawson_against_quadrature_grid():
    for x in np.linspace(0.0, 5.0, 101):
        assert abs(dawson(float(x)) - dawson_quadrature(float(x))) < 1e-10


def test_dawson_known_values():
    assert dawson(0.0) == 0.0
    assert dawson(1.0) == pytest.approx(0.5380795069127684, abs=1e-12)
    # value at the global maximum location (quadrature-derived)
    assert dawson(0.9241388730) == pytest.approx(0.5410442246351817, abs=1e-11)


def test_dawson_odd_function():
    for x in (0.3, 1.7, 4.2):
        assert dawson(-x) == pytest.approx(-dawson(x), rel=1e-14)


def test_dawson_ode_identity():
    # F'(x) = 1 - 2 x F(x), central differences
    h = 1e-6
    for x in np.linspace(0.0, 5.0, 26):
        x = float(x)
        deriv = (dawson(x + h) - dawson(x - h)) / (2 * h)
        assert deriv == pytest.approx(1 - 2 * x * dawson(x), abs=1e-6)


def test_dawson_rejects_nonfinite():
    with pytest.raises(InputError):
        dawson(float("nan"))


def test_scalar_kernels():
    assert log_plus(1.0) == 0.0
    assert log_plus(50.0) == pytest.approx(math.log(50.0), abs=1e-15)
    assert log_plus(0.5) == 0.0
    with pytest.raises(InputError):
        log_plus(0.0)
    with pytest.raises(InputError):
        log_plus(-3.0)
    assert float(normal_cdf(1.0)) == pytest.approx(
        0.8413447460685429, abs=1e-12
    )
    assert float(normal_cdf(0.0)) == 0.5


def test_normal_cdf_against_erfc():
    xs = np.linspace(-8, 8, 101)
    ref = np.array([0.5 * math.erfc(-x / math.sqrt(2)) for x in xs])
    assert np.max(np.abs(np.asarray(normal_cdf(xs)) - ref)) < 1e-14


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------


def test_lemma2_bound_substitutions():
    base = lemma2_bound(Lemma2Params(a0=0, a1=0, b0=0, b1=0, b2=0, t=1.0))
    assert base == pytest.approx(24 / (math.pi * SQRT_2PI), abs=1e-15)
    with_b0 = lemma2_bound(Lemma2Params(a0=0, a1=0, b0=1, b1=0, b2=0, t=1.0))
    assert with_b0 == pytest.approx(math.sqrt(math.pi) / 2 + base, abs=1e-14)


def test_lemma2_bound_threshold():
    with pytest.raises(InputError):
        Lemma2Params(a0=0.25, a1=0.1, b0=0, b1=0, b2=0, t=0.39)
    Lemma2Params(a0=0.25, a1=0.1, b0=0, b1=0, b2=0, t=0.41)
    with pytest.raises(InputError):
        Lemma2Params(a0=0.5, a1=0.0, b0=0, b1=0, b2=0, t=1.0)


def test_lemma2_log_term_active_below_half():
    # log_+(1/(2t)) kicks in only for t < 1/2
    lo = lemma2_bound(Lemma2Params(a0=0, a1=0, b0=0, b1=1, b2=0, t=0.25))
    assert lo == pytest.approx(
        (2 / math.pi) * (1 + 2 * math.log(2.0)) + 24 * 0.25 / (math.pi * SQRT_2PI),
        abs=1e-14,
    )


def test_theorem2_simple_example():
    val = theorem2_bound(BoundInputs(r1=0.01, r1_tilde=0.01, r2=0.001), "simple")
    hand = 0.38 * 0.01 + 3.05 * 0.01 + 0.64 * 0.001 * (1 + 2 * math.log(50.0))
    assert val == pytest.approx(hand, abs=1e-15)
    assert val == pytest.approx(0.03994738944694803, abs=1e-12)


def test_theorem2_extended_example():
    val = theorem2_bound(BoundInputs(r3=0.01, r3_tilde=0.01, r4=1e-4), "extended")
    assert val == pytest.approx(0.075, abs=1e-12)


def test_theorem2_simple_r2_zero_drops_log_term():
    val = theorem2_bound(BoundInputs(r1=0.01, r1_tilde=0.02, r2=0.0), "simple")
    assert val == pytest.approx(0.38 * 0.01 + 3.05 * 0.02, abs=1e-15)


def test_theorem2_monotone_in_each_argument():
    base = BoundInputs(r1=0.01, r1_tilde=0.02, r2=0.003)
    b0 = theorem2_bound(base, "simple")
    assert theorem2_bound(BoundInputs(r1=0.02, r1_tilde=0.02, r2=0.003), "simple") > b0
    assert theorem2_bound(BoundInputs(r1=0.01, r1_tilde=0.03, r2=0.003), "simple") > b0
    assert theorem2_bound(BoundInputs(r1=0.01, r1_tilde=0.02, r2=0.004), "simple") > b0


def test_theorem2_rejects_bad_tilde():
    with pytest.raises(InputError):
        theorem2_bound(BoundInputs(r1=0.02, r1_tilde=0.01, r2=0.0), "simple")
    with pytest.raises(InputError):
        theorem2_bound(BoundInputs(r3=0.02, r3_tilde=0.01, r4=0.0), "extended")
    with pytest.raises(InputError):
        theorem2_bound(BoundInputs(), "quadratic")


# ---------------------------------------------------------------------------
# Esseen smoothing RHS
# ---------------------------------------------------------------------------


def test_esseen_normal_chf_leaves_only_tail():
    val = esseen_rhs(lambda t: np.exp(-0.5 * t * t), 4.0)
    assert val == pytest.approx(24 / (math.pi * SQRT_2PI * 4.0), abs=1e-12)


def test_esseen_point_mass_example():
    # chf == 1; the integral term has the series value
    # (1/pi) * int_0^{1/2} (1 - e^-u)/u du  (after substituting u = t^2/2)
    series = sum(
        (-1) ** (k + 1) * 0.5**k / (k * math.factorial(k)) for k in range(1, 25)
    )
    expect = series / math.pi + 24 / (math.pi * SQRT_2PI)
    val = esseen_rhs(lambda t: np.ones_like(t, dtype=complex), 1.0)
    assert val == pytest.approx(expect, abs=1e-9)


def test_esseen_tail_vanishes_with_t():
    chf = lambda t: np.exp(-0.5 * t * t)
    assert esseen_rhs(chf, 100.0) < esseen_rhs(chf, 10.0) < esseen_rhs(chf, 1.0)
    assert esseen_rhs(chf, 1e6) < 1e-5


def test_esseen_rejects_nonfinite_chf():
    with pytest.raises(NumericError):
        esseen_rhs(lambda t: np.full_like(t, np.nan, dtype=complex), 1.0)


# ---------------------------------------------------------------------------
# complex variance / covariance
# ---------------------------------------------------------------------------


def test_complex_stats_constants():
    stats = complex_stats([2 + 1j] * 5, [3 - 2j] * 5)
    assert stats.var_u == 0.0
    assert stats.cov_uv == 0.0


def test_complex_stats_unit_imaginary():
    stats = complex_stats([1j, -1j], [1j, -1j])
    assert stats.var_u == pytest.approx(1.0)


def test_complex_stats_scaling_identities():
    rng = np.random.default_rng(3)
    u = rng.normal(size=40) + 1j * rng.normal(size=40)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    a, b = 1.5 - 2j, -0.25 + 1j
    base = complex_stats(u, v)
    scaled = complex_stats(a * u, b * v)
    assert scaled.var_u == pytest.approx(abs(a) ** 2 * base.var_u, rel=1e-12)
    assert scaled.cov_uv == pytest.approx(a * np.conj(b) * base.cov_uv, rel=1e-12)
    # conjugate symmetry
    swapped = complex_stats(v, u)
    assert swapped.cov_uv == pytest.approx(np.conj(base.cov_uv), rel=1e-12)


def test_complex_stats_rejects_empty_or_ragged():
    with pytest.raises(InputError):
        complex_stats([], [])
    with pytest.raises(InputError):
        complex_stats([1.0], [1.0, 2.0])


def test_conditional_covariance_formula():
    # four-point uniform space, F generated by the split {0,1} | {2,3}
    u = np.array([1 + 2j, -1j, 3.0, 2 - 1j])
    v = np.array([-2 + 1j, 4.0, 1j, 0.5])
    w = np.full(4, 0.25)

    def cov(x, y, wts):
        mx = (wts * x).sum() / wts.sum()
        my = (wts * y).sum() / wts.sum()
        return (wts * (x - mx) * np.conj(y - my)).sum() / wts.sum()

    total = cov(u, v, w)
    blocks = [np.array([0, 1]), np.array([2, 3])]
    cond_cov = sum(0.5 * cov(u[b], v[b], np.ones(2)) for b in blocks)
    cond_means_u = np.array([u[b].mean() for b in blocks])
    cond_means_v = np.array([v[b].mean() for b in blocks])
    between = cov(cond_means_u, cond_means_v, np.ones(2))
    assert total == pytest.approx(cond_cov + between, abs=1e-12)


def test_covariance_splitting_inequality():
    # |Cov(UV, U'V')| <= |Cov(UV~, U'V~')| + R on a finite space
    rng = np.random.default_rng(11)
    m = 64
    u, v, vt, up, vp, vpt = (
        rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(6)
    )

    def cov(x, y):
        return np.mean((x - x.mean()) * np.conj(y - y.mean()))

    lhs = abs(cov(u * v, up * vp))
    main = abs(cov(u * vt, up * vpt))
    r = (
        np.mean(np.abs(u * (v - vt) * up * vp))
        + np.mean(np.abs(u * (v - vt))) * np.mean(np.abs(up * vp))
        + np.mean(np.abs(u * vt * up * (vp - vpt)))
        + np.mean(np.abs(u * vt)) * np.mean(np.abs(up * (vp - vpt)))
    )
    assert lhs <= main + r + 1e-12


# ---------------------------------------------------------------------------
# proxy model
# ---------------------------------------------------------------------------


def test_proxy_gamma_n4_half():
    rep = proxy_exact(4, 0.5)
    assert rep.gamma == pytest.approx(0.2587890625, abs=1e-12)


def test_proxy_mean_and_summand_variance():
    for p in (0.2, 0.5, 0.8):
        rep = proxy_exact(4, p)
        assert rep.mean_y == pytest.approx(4 * p**3, rel=1e-14)
    # variance of one summand is Bernoulli(p^3)
    mom = exact_moments(5, 0.3)
    assert mom.var_x == pytest.approx(0.3**3 * (1 - 0.3**3), rel=1e-14)


def test_proxy_var_matches_brute_force_n4():
    p = 0.45
    pmf = proxy_brute_force_pmf(4, p)
    mean = sum(y * q for y, q in pmf.items())
    var = sum((y - mean) ** 2 * q for y, q in pmf.items())
    rep = proxy_exact(4, p)
    assert rep.mean_y == pytest.approx(mean, abs=1e-12)
    assert rep.var_y == pytest.approx(var, abs=1e-12)
    # the display formula is order-correct but not the exact pair count
    assert rep.var_y_display != pytest.approx(rep.var_y, rel=1e-6)


def test_proxy_exact_pmf_matches_brute_force():
    for n, p in ((4, 0.3), (4, 0.5), (5, 0.3)):
        pmf = proxy_exact_pmf(n, p)
        brute = np.zeros_like(pmf)
        for y, q in proxy_brute_force_pmf(n, p).items():
            brute[y] = q
        assert np.max(np.abs(pmf - brute)) <= 1e-12, (n, p)


def test_proxy_exact_pmf_mass_and_moments():
    # moments are summed over |y - EY| <= 40 sd: the ~1e-16 FFT floor,
    # weighted by (y - EY)^2 over all C(n,3) bins, would shift the variance
    # by ~1e-6 at n = 128, while Bernstein's inequality (groups bounded by
    # n - 2) leaves below 1e-18 of the true mass outside at p = 1/2
    for n in (16, 32, 64, 128):
        rep = proxy_exact(n, 0.5)
        pmf = proxy_exact_pmf(n, 0.5)
        assert abs(pmf.sum() - 1.0) <= 1e-10
        assert pmf.min() >= -1e-14
        y = np.arange(pmf.size)
        bulk = np.abs(y - rep.mean_y) <= 40 * math.sqrt(rep.var_y)
        q, yb = pmf[bulk], y[bulk]
        assert abs(q.sum() - 1.0) <= 1e-10
        mean = float(yb @ q)
        assert mean == pytest.approx(rep.mean_y, rel=1e-9)
        assert float((yb - mean) ** 2 @ q) == pytest.approx(rep.var_y, rel=1e-8)


def test_proxy_var_group_decomposition_n6():
    # independent oracle: Var Y = sum over pairs of Var(I * Binom(m_j, p^2))
    n, p = 6, 0.35
    q = p * p
    var = 0.0
    for j in range(1, n):
        m = n - 1 - j
        if m == 0:
            continue
        eb = m * q
        eb2 = m * q * (1 - q) + eb * eb
        group_var = p * eb2 - (p * eb) ** 2
        var += j * group_var
    rep = proxy_exact(n, p)
    assert rep.var_y == pytest.approx(var, rel=1e-12)


def test_proxy_gamma_matches_direct_expectation():
    # gamma = E|I * B - c|^3 via direct enumeration of (I, B)
    n, p = 6, 0.4
    q = p * p
    m = n - 2
    center = m * p**3
    direct = (1 - p) * center**3
    for j in range(m + 1):
        pj = math.comb(m, j) * q**j * (1 - q) ** (m - j)
        direct += p * pj * abs(j - center) ** 3
    rep = proxy_exact(n, p)
    assert rep.gamma == pytest.approx(direct, rel=1e-14)
    assert rep.be_bound == pytest.approx(
        n * n * rep.gamma / rep.var_y**1.5, rel=1e-14
    )


def exact_binom_pmf(m: int, q: Fraction) -> tuple[list[int], int]:
    """Binomial(m, q) pmf in exact rationals, as integer numerators over one
    denominator, by the integer recurrence
    C(m, j+1) a^(j+1) b^(m-j-1) = C(m, j) a^j b^(m-j) (m-j) a / ((j+1) b)
    for q = a / (a + b); the division is exact."""
    a, d = q.numerator, q.denominator
    b = d - a
    term = b**m
    terms = []
    for j in range(m + 1):
        terms.append(term)
        term = term * (m - j) * a // ((j + 1) * b)
    return terms, d**m


@pytest.mark.parametrize("q", [0.04, 0.25, 0.81])
@pytest.mark.parametrize("m", [4, 126, 1029, 2046])
def test_binom_pmf_matches_exact_rationals(m, q):
    # m = 1029 was the last m whose math.comb(m, j) converted to float;
    # int / int is the correctly rounded quotient
    terms, den = exact_binom_pmf(m, Fraction(q))
    want = np.array([t / den for t in terms])
    got = binom_pmf(m, q)
    assert got.shape == (m + 1,)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_binom_pmf_rejects_bad_arguments():
    for m, q in ((-1, 0.5), (4, 0.0), (4, 1.0), (4, float("nan"))):
        with pytest.raises(InputError):
            binom_pmf(m, q)


def test_proxy_exact_past_the_sampler_cap():
    # n = 2000, p = 1/2: EY = C(n,3) p^3 and, with one covarying ordered pair
    # per (4-set, order of its top two labels),
    # Var Y = C(n,3) p^3 (1 - p^3) + 2 C(n,4) (p^5 - p^6)
    n, p = 2000, Fraction(1, 2)
    rep = proxy_exact(n, float(p))
    var = math.comb(n, 3) * p**3 * (1 - p**3) + 2 * math.comb(n, 4) * (p**5 - p**6)
    assert rep.mean_y == pytest.approx(float(math.comb(n, 3) * p**3), rel=1e-14)
    assert rep.var_y == pytest.approx(float(var), rel=1e-14)
    # gamma = (1-p) c^3 + p sum_j P[B = j] |j - c|^3, B ~ Binomial(n-2, p^2)
    m = n - 2
    center = m * p**3
    terms, den = exact_binom_pmf(m, p * p)
    body = sum(t * abs(j - center) ** 3 for j, t in enumerate(terms)) / den
    gamma = (1 - p) * center**3 + p * body
    assert rep.gamma == pytest.approx(float(gamma), rel=1e-14)


def test_proxy_requires_n4():
    with pytest.raises(InputError):
        proxy_exact(3, 0.5)


def test_proxy_be_bound_slope_is_minus_one():
    # the Berry-Esseen bound n^2 gamma / s^3 itself follows the n^-1 rate at
    # fixed p; the Eq. (4) bound promises no more.  The exact law
    # (proxy_exact_pmf) gives d_K = 0.02737, 0.00776, 0.00212, 0.00056 at
    # p = 1/2 for these n, slope -1.87: there the skewness of Y heads for
    # an n^-2 rate (slope -1.77 over these n).  Away from p = 1/2 these n
    # are still pre-asymptotic (exact-law slopes -1.60 at p = 0.3, -1.57 at
    # p = 0.2), so no choice of p puts the d_K slope in [-1.2, -0.8]; only
    # the bound's slope is checked here
    pts = [(n, proxy_exact(n, 0.5).be_bound) for n in (16, 32, 64, 128)]
    x = np.log([a for a, _ in pts])
    y = np.log([b for _, b in pts])
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    assert -1.2 <= slope <= -0.8

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from triclt.errors import CapacityError, InputError
from triclt.graphs import (
    Graph,
    batch_triangle_counts,
    centered_indicator,
    has_triangle,
    local_sum,
    neighborhood,
    num_edges,
    num_triples,
    triangle_count,
)
from triclt.moments import exact_moments, normal_cdf
from triclt.oracle import (
    _per_graph_terms,
    class_counts,
    enumerate_distribution,
    exact_chf_ode,
    exact_dk,
    exact_expectation,
    exact_r_terms,
    fsum_complex,
    graph_weights,
    oracle_arrays,
    verify_couplings,
)


# ---------------------------------------------------------------------------
# class table
# ---------------------------------------------------------------------------


def brute_force_class_counts(n: int) -> np.ndarray:
    """M[k, T, b, K] counted over every (graph, triple) with the scalar
    Graph / has_triangle / neighborhood functions."""
    triples = list(combinations(range(n), 3))
    nbhd = {v: neighborhood(v, n) for v in triples}
    out = np.zeros((num_edges(n) + 1, len(triples) + 1, 2, 3 * (n - 3) + 2), dtype=np.int64)
    for mask in range(1 << num_edges(n)):
        g = Graph(n, mask)
        tri = {v: has_triangle(g, v) for v in triples}
        t = sum(tri.values())
        for v in triples:
            out[g.edge_count(), t, int(tri[v]), sum(tri[u] for u in nbhd[v])] += 1
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_class_counts_match_brute_force(n):
    assert np.array_equal(class_counts(n), brute_force_class_counts(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_class_counts_total(n):
    assert class_counts(n).sum() == num_triples(n) * 2 ** num_edges(n)


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------


def test_distribution_n3():
    for p in (0.2, 0.7):
        d = enumerate_distribution(3, p)
        assert d.atoms == ((0, pytest.approx(1 - p**3)), (1, pytest.approx(p**3)))


def test_distribution_n4_half():
    d = enumerate_distribution(4, 0.5)
    probs = dict(d.atoms)
    assert probs[4] == pytest.approx(2.0**-6, abs=1e-15)  # only K4
    assert d.var() == pytest.approx(0.625, abs=1e-12)
    assert d.total_prob() == pytest.approx(1.0, abs=1e-12)


def test_distribution_atoms_sorted_positive():
    d = enumerate_distribution(5, 0.3)
    ts = [t for t, _ in d.atoms]
    assert ts == sorted(ts)
    assert all(q > 0 for _, q in d.atoms)
    assert d.total_prob() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_oracle_moments_match_closed_form(n, p):
    d = enumerate_distribution(n, p)
    mom = exact_moments(n, p)
    assert d.mean() == pytest.approx(mom.mean_t, abs=1e-10)
    assert d.var() == pytest.approx(mom.var_t, abs=1e-10)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("p", [0.3, 0.7, 1e-3, 1e-9, 0.999])
def test_atoms_equal_per_graph_fsum(n, p):
    # each atom is the exactly rounded sum of its graphs' weights, with T
    # from the BLAS triangle count of every enumerated graph
    masks = np.arange(1 << num_edges(n))
    bits = ((masks[:, None] >> np.arange(num_edges(n))) & 1).astype(np.float32)
    t_all = batch_triangle_counts(bits, n)
    w = graph_weights(n, p, np.bitwise_count(masks))
    want = tuple((t, math.fsum(w[t_all == t].tolist())) for t in np.unique(t_all).tolist())
    assert enumerate_distribution(n, p).atoms == want


def test_capacity_ceiling():
    with pytest.raises(CapacityError):
        enumerate_distribution(8, 0.5)
    with pytest.raises(InputError):
        enumerate_distribution(2, 0.5)


def test_graph_weights_positive_and_normalised():
    arr = oracle_arrays(4)
    for p in (1e-6, 0.5, 1 - 1e-6):
        w = graph_weights(4, p, arr.popcount)
        assert np.all(w > 0)
        assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# generic expectation
# ---------------------------------------------------------------------------


def test_exact_expectation_basics():
    val = exact_expectation(4, 0.3, lambda g: triangle_count(g))
    assert val.real == pytest.approx(num_triples(4) * 0.3**3, abs=1e-12)
    assert exact_expectation(4, 0.3, lambda g: 1.0) == pytest.approx(1.0, abs=1e-13)


def test_exact_expectation_xy_closed_form():
    # E[X_v Y_v] = Var X + 3(n-3) Cov2
    n, p = 5, 0.3
    mom = exact_moments(n, p)
    val = exact_expectation(
        n, p, lambda g: centered_indicator(g, p, (0, 1, 2)) * local_sum(g, p, (0, 1, 2))
    )
    assert val.real == pytest.approx(mom.var_x + 6 * mom.cov_overlap2, abs=1e-12)


def test_w_standardisation_exact():
    # E W = 0 and E W^2 = 1 under the oracle for n <= 5
    from triclt.graphs import w_statistic

    for n in (4, 5):
        for p in (0.25, 0.6):
            sigma = exact_moments(n, p).sigma
            ew = exact_expectation(n, p, lambda g: w_statistic(g, p, sigma))
            ew2 = exact_expectation(n, p, lambda g: w_statistic(g, p, sigma) ** 2)
            assert abs(ew) < 1e-12
            assert ew2.real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------


def test_exact_dk_n3_closed_form():
    # two atoms: hand evaluation straight from Phi
    p = 0.5
    mom = exact_moments(3, p)
    w0 = (0 - mom.mean_t) / mom.sigma
    w1 = (1 - mom.mean_t) / mom.sigma
    phi0, phi1 = float(normal_cdf(w0)), float(normal_cdf(w1))
    hand = max(abs((1 - p**3) - phi0), phi0, abs(1 - phi1), abs((1 - p**3) - phi1))
    assert exact_dk(3, p) == pytest.approx(hand, abs=1e-12)


def test_exact_dk_regression_pins_half():
    # frozen after first computation; also the monotone n=4 -> 6 trend
    assert exact_dk(4, 0.5) == pytest.approx(0.3770803715672313, abs=1e-11)
    assert exact_dk(5, 0.5) == pytest.approx(0.23173126330813199, abs=1e-11)
    assert exact_dk(6, 0.5) == pytest.approx(0.18902378304281447, abs=1e-11)
    assert exact_dk(4, 0.5) > exact_dk(5, 0.5) > exact_dk(6, 0.5)


def test_exact_dk_bounded():
    # d_K <= 1 always; < 0.5 needs the law to be spread out, which fails for
    # near-degenerate laws (n=3 above is 0.522, and n=4 at p=0.8 is 0.538)
    for n in (4, 5, 6):
        for p in (0.2, 0.5, 0.8):
            val = exact_dk(n, p)
            assert 0.0 < val < 1.0
    for n in (4, 5, 6):
        assert exact_dk(n, 0.5) < 0.5


def test_atoms_live_on_the_w_lattice():
    n, p = 5, 0.35
    d = enumerate_distribution(n, p)
    mom = exact_moments(n, p)
    for t, _ in d.atoms:
        w = (t - mom.mean_t) / mom.sigma
        k = round(w * mom.sigma + mom.mean_t)
        assert 0 <= k <= num_triples(n)
        assert w == pytest.approx((k - mom.mean_t) / mom.sigma, abs=1e-12)


# ---------------------------------------------------------------------------
# characteristic-function ODE
# ---------------------------------------------------------------------------


def test_ode_identity_t0():
    chk = exact_chf_ode(5, 0.3, 0.0)
    assert chk.residual == 0.0
    assert chk.phi == 1.0 + 0j


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
def test_ode_identity_n5(t):
    chk = exact_chf_ode(5, 0.3, t)
    assert chk.residual < 1e-9
    assert abs(chk.phi) <= 1.0 + 1e-12


def test_ode_identity_n4_t2():
    assert exact_chf_ode(4, 0.5, 2.0).residual < 1e-9


@pytest.mark.parametrize("p", [0.5, 0.2])
@pytest.mark.parametrize("t", [0.5, 4.0])
def test_ode_identity_n7(p, t):
    assert exact_chf_ode(7, p, t).residual < 1e-9


def per_graph_ode(n: int, p: float, t: float) -> tuple:
    """phi, phi', a(t), b(t) as weighted sums over every enumerated graph,
    with the inner means over V from coupling.inner_terms."""
    arr = oracle_arrays(n)
    w = graph_weights(n, p, arr.popcount)
    w_stat = (arr.tri_bits.sum(axis=1) - num_triples(n) * p**3) / exact_moments(n, p).sigma
    e_itw = np.exp(1j * t * w_stat)
    inner = _per_graph_terms(n, p, [t], ("r2", "r41"))
    lin, full = inner["r2"][:, 0], inner["r41"][:, 0]
    mean_lin = fsum_complex(w * lin)
    return (
        fsum_complex(w * e_itw),
        1j * fsum_complex(w * w_stat * e_itw),
        fsum_complex(w * full) / (1j * t),
        1j * fsum_complex(w * (lin - mean_lin) * e_itw),
    )


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("p", [0.3, 0.7])
@pytest.mark.parametrize("t", [0.5, 4.0])
def test_ode_terms_match_per_graph_reduction(n, p, t):
    chk = exact_chf_ode(n, p, t)
    for got, want in zip((chk.phi, chk.phi_prime, chk.a_t, chk.b_t), per_graph_ode(n, p, t)):
        assert abs(got - want) <= 1e-13 * abs(want)


def test_ode_residual_definition_consistent():
    chk = exact_chf_ode(4, 0.4, 1.3)
    recomputed = abs(chk.phi_prime + 1.3 * (1 + chk.a_t) * chk.phi - chk.b_t)
    assert chk.residual == pytest.approx(recomputed, rel=1e-12)


# ---------------------------------------------------------------------------
# coupling identities
# ---------------------------------------------------------------------------


def test_couplings_n4_n5():
    for n, p in ((4, 0.5), (5, 0.3)):
        rep = verify_couplings(n, p, ("1", "x", "x2", "sin", "exp:0.7"))
        assert max(rep.eq5_residuals.values()) < 1e-9
        assert rep.per_graph_gd_residual < 1e-9
        assert abs(rep.e_s_enumerated - 1.0) < 1e-10
        assert abs(rep.e_s_analytic - 1.0) < 1e-12
        assert max(rep.weak_extended_residuals.values()) < 1e-9
        # summed with (iv)'s pair weights, E[G D~] = Var T / s^2 = 1
        assert abs(rep.e_gd_enumerated - 1.0) <= 1e-12


def test_coupling_f_equals_x_is_egd():
    # residual of Eq. (5) with f(x)=x is |E[GD] - E W^2| = |E[GD] - 1|
    rep = verify_couplings(5, 0.3, ("x",))
    assert rep.eq5_residuals["x"] < 1e-10


def test_couplings_capacity():
    with pytest.raises(CapacityError):
        verify_couplings(7, 0.5)


# ---------------------------------------------------------------------------
# exact r-terms
# ---------------------------------------------------------------------------


def brute_force_r1(n: int, p: float) -> float:
    """Independent oracle: loop over graphs in reversed enumeration order
    using only scalar graph functions."""
    sig = exact_moments(n, p).sigma
    c3 = num_triples(n)
    total = []
    ne = n * (n - 1) // 2
    for mask in reversed(range(1 << ne)):
        g = Graph(n, mask)
        w = p ** bin(mask).count("1") * (1 - p) ** (ne - bin(mask).count("1"))
        inner = math.fsum(
            c3
            * abs(centered_indicator(g, p, v))
            * local_sum(g, p, v) ** 2
            / sig**3
            for v in combinations(range(n), 3)
        )
        total.append(w * inner / c3)
    return math.fsum(total)


def test_r1_matches_reversed_order_brute_force():
    val = exact_r_terms(4, 0.5, [1.0]).r1
    assert val == pytest.approx(brute_force_r1(4, 0.5), abs=1e-12)
    assert val == pytest.approx(2.5298221281347044, abs=1e-11)  # regression pin


def test_r2_finite_small_t_limit():
    rt = exact_r_terms(5, 0.3, [1e-3, 1e-2])
    a, b = rt.r2_by_t[1e-3], rt.r2_by_t[1e-2]
    assert a == pytest.approx(b, rel=1e-3)


def test_r3_composition():
    rt = exact_r_terms(5, 0.3, [1.0])
    assert rt.r3 == pytest.approx(0.5 * rt.r31 + rt.r32 + rt.r33, rel=1e-14)
    assert rt.r31 == rt.r1
    # r4: the sups over the grid of sqrt(r41)/t^2, sqrt(r42)/|t| and sqrt(r43)/|t|
    ts = [0.5, 1.0, 2.0]
    rt = exact_r_terms(5, 0.3, ts)
    assert rt.r4 == (
        max(math.sqrt(rt.r41_by_t[t]) / t**2 for t in ts)
        + max(math.sqrt(rt.r42_by_t[t]) / abs(t) for t in ts)
        + max(math.sqrt(rt.r43_by_t[t]) / abs(t) for t in ts)
    )


def test_r33_uses_covariance_constants():
    # sigma_{v,w} weights: all-pairs sum with w = v uses Var X, else Cov2;
    # on the empty-graph conditional the weights are what distinguish r33.
    n, p = 4, 0.5
    mom = exact_moments(n, p)
    rt = exact_r_terms(n, p, [1.0])
    # crude sanity: r33 <= (VarX + 3(n-3)Cov2)/sigma^3 * max|Y| * n_tri
    cap = (mom.var_x + 3 * (n - 3) * mom.cov_overlap2) / mom.sigma**3
    assert 0 < rt.r33 < cap * num_triples(n) * (3 * (n - 3) + 1) * 2
    assert rt.r4 > 0


def test_r_terms_validation():
    with pytest.raises(InputError):
        exact_r_terms(5, 0.3, [])
    with pytest.raises(InputError):
        exact_r_terms(5, 0.3, [0.0])
    with pytest.raises(CapacityError):
        exact_r_terms(7, 0.3, [1.0])

from __future__ import annotations

import math

import numpy as np
import pytest

from triclt.coupling import (
    BLOCK,
    COMPONENTS,
    DEFAULT_T_GRID,
    RTermEstimate,
    T_POWERS,
    assemble_bound,
    batch_edges,
    estimate_r,
    inner_terms,
    phi_kernel,
    psi_kernel,
    r3_theoretical,
    site_counts,
)
from triclt.errors import InputError
from triclt.graphs import (
    Graph,
    all_triples,
    centered_indicator,
    has_triangle,
    local_sum,
    neighborhood,
    num_edges,
    num_triples,
    triple_basis,
)
from triclt.moments import exact_moments, regime_rates
from triclt.oracle import exact_r_terms
from triclt.sampler import SamplerConfig, gnp_edge_bits, sample_gnp


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_values():
    assert phi_kernel(0.0) == 0.0
    assert complex(psi_kernel(math.pi)) == pytest.approx(-2.0 + 0j, abs=1e-12)


def test_phi_kernel_series_matches_direct_at_crossover():
    # continuity of the small-|x| series against the direct quotient
    for x in (9e-5, 1.1e-4, -9e-5, -1.1e-4):
        direct = (np.exp(1j * x) - 1 - 1j * x) / x
        assert complex(phi_kernel(x)) == pytest.approx(complex(direct), abs=1e-12)


def test_phi_kernel_lipschitz_half():
    rng = np.random.default_rng(0)
    x = rng.uniform(-30, 30, size=10_000)
    y = rng.uniform(-30, 30, size=10_000)
    lhs = np.abs(phi_kernel(x) - phi_kernel(y))
    assert np.all(lhs <= np.abs(x - y) / 2 + 1e-12)


def test_psi_kernel_lipschitz_one():
    rng = np.random.default_rng(1)
    x = rng.uniform(-30, 30, size=10_000)
    y = rng.uniform(-30, 30, size=10_000)
    lhs = np.abs(psi_kernel(x) - psi_kernel(y))
    assert np.all(lhs <= np.abs(x - y) + 1e-12)


# ---------------------------------------------------------------------------
# graph conditionals (inner expectations given the graph)
# ---------------------------------------------------------------------------


def _bit_rows(cfg: SamplerConfig, start: int, count: int):
    return triple_basis(cfg.n).triangle_bits(gnp_edge_bits(cfg, start, count))


def test_graph_conditional_empty_graph_closed_form():
    n, p, t = 5, 0.3, 1.0
    mom = exact_moments(n, p)
    tb = triple_basis(n)
    bits = tb.triangle_bits(np.zeros((1, num_edges(n)), dtype=np.uint8))
    kappa = 3 * (n - 3) + 1
    # all X_v = -p^3 and Y_v = -kappa p^3
    phase = np.exp(1j * t * kappa * p**3 / mom.sigma) - 1.0
    expect = -(num_triples(n) * -(p**3) * phase) / mom.sigma
    got = inner_terms(bits, n, p, [t], ("r2",))["r2"][0, 0]
    assert got == pytest.approx(complex(expect), abs=1e-13)


def test_graph_conditional_r41_is_second_order_in_t():
    bits = _bit_rows(SamplerConfig(n=6, p=0.4, seed=2), 0, 1)
    v2, v3 = np.abs(inner_terms(bits, 6, 0.4, [1e-2, 1e-3], ("r41",))["r41"][0])
    assert v2 / v3 == pytest.approx(100.0, rel=0.05)


def _scalar_components(g, p, ts) -> dict:
    """Every component of inner_terms for graph g, one value per t for the
    per-t ones, recomputed from scalar primitives: set-based neighbourhoods,
    no TripleBasis."""
    from itertools import combinations

    n = g.n
    mom = exact_moments(n, p)
    sigma = mom.sigma
    ts = np.asarray(ts, dtype=np.float64)
    direct = {name: np.zeros(len(ts), dtype=np.complex128) for name in COMPONENTS}
    for v in combinations(range(n), 3):
        x_v = centered_indicator(g, p, v)
        y_v = local_sum(g, p, v)
        phase = np.exp(-1j * ts * y_v / sigma)
        direct["r1"] += abs(x_v) * y_v**2 / sigma**3
        direct["r2"] += -x_v * (phase - 1.0) / sigma
        direct["r41"] += -x_v * (phase - 1.0 + 1j * ts * y_v / sigma) / sigma
        for w in neighborhood(v, n):
            x_w = centered_indicator(g, p, w)
            y_vw = local_sum(g, p, v, None if w == v else w)
            s_vw = mom.var_x if w == v else mom.cov_overlap2
            ph = np.exp(-1j * ts * y_vw / sigma) - 1.0
            direct["r32"] += abs(x_v * x_w) * abs(y_vw) / sigma**3
            direct["r33"] += s_vw * abs(y_vw) / sigma**3
            direct["r42"] += x_v * x_w * ph / sigma**2
            direct["r43"] += s_vw * ph / sigma**2
    return direct


def test_graph_conditional_matches_scalar_recomputation():
    cases = [
        (5, 0.3, [1.3], [4]),
        # p^3 = 0.343 is not dyadic; the empty and complete graphs put every
        # neighbourhood count in the lowest and the highest bin; at t = 10
        # the phase wraps several times
        (6, 0.7, [0.01, 1.3, 10.0], ["empty", "complete", 0, 1]),
    ]
    for n, p, ts, draws in cases:
        cfg = SamplerConfig(n=n, p=p, seed=8)
        named = {"empty": Graph.empty(n), "complete": Graph.complete(n)}
        graphs = [named[d] if d in named else sample_gnp(cfg, d) for d in draws]
        bits = np.array(
            [[has_triangle(g, v) for v in all_triples(n)] for g in graphs], dtype=np.uint8
        )
        got = inner_terms(bits, n, p, ts, COMPONENTS)
        for row, g in enumerate(graphs):
            direct = _scalar_components(g, p, ts)
            for name in COMPONENTS:
                want = direct[name] if name in T_POWERS else direct[name][0].real
                assert np.max(np.abs(got[name][row] - want)) <= 1e-12, (n, row, name)


def test_graph_conditional_over_several_pair_blocks():
    # n = 8 on 2050 rows: BLOCK // 2050 = 127 of the 420 pairs per block, so
    # four blocks, the last one partial.  The empty and complete graphs put
    # K_{v,w} at both ends of its range, 0 and 2nu - n.
    n, p, ts = 8, 0.7, [0.01, 1.3, 10.0]
    tb = triple_basis(n)
    step = BLOCK // 2050
    assert tb.n_pairs // step >= 2 and tb.n_pairs % step
    edges = gnp_edge_bits(SamplerConfig(n=n, p=0.5, seed=21), 0, 2050)
    edges[0] = 0
    edges[-1] = 1
    bits = tb.triangle_bits(edges)
    got = inner_terms(bits, n, p, ts, COMPONENTS)
    # rows in one block of pairs: the same counts, so the same values
    few = [0, 1, 1025, 2049]
    alone = inner_terms(bits[few], n, p, ts, COMPONENTS)
    for name in COMPONENTS:
        assert np.max(np.abs(got[name][few] - alone[name])) <= 1e-12, name
    for row in few[:1] + few[-2:]:
        g = Graph(n, sum(int(bit) << r for r, bit in enumerate(edges[row])))
        direct = _scalar_components(g, p, ts)
        for name in COMPONENTS:
            want = direct[name] if name in T_POWERS else direct[name][0].real
            assert np.max(np.abs(got[name][row] - want)) <= 1e-12, (row, name)


def test_graph_conditional_rejects_non_indicator_rows():
    # only 2-D uint8 rows of 0/1 triangle bits, C(n,3) to a row, are taken
    n, p = 5, 0.3
    bits = _bit_rows(SamplerConfig(n=n, p=p, seed=8), 0, 3)
    assert inner_terms(bits, n, p, [1.3], ("r2",))["r2"].shape == (3, 1)
    not_a_bit = bits.copy()
    not_a_bit[1, 4] = 2
    centred = bits - p**3
    for bad in (
        not_a_bit,
        centred,
        bits.astype(np.float64),
        bits.astype(np.int16),
        bits.astype(bool),
        bits[0],
        bits[None],
        bits[:, :9],
    ):
        with pytest.raises(InputError):
            inner_terms(bad, n, p, [1.3], ("r2",))
        for pairs in (False, True):
            with pytest.raises(InputError):
                site_counts(bad, n, pairs)


def test_graph_conditional_variance_matches_exact_r2():
    # Var over graphs of the r2 conditional reproduces the exact r2 numerator
    n, p, t = 5, 0.3, 1.0
    vals = inner_terms(_bit_rows(SamplerConfig(n=n, p=p, seed=13), 0, 800), n, p, [t], ("r2",))
    vals = vals["r2"][:, 0]
    exact_num = exact_r_terms(n, p, [t]).r2_by_t[t] * abs(t)  # sqrt of the variance
    # crude MC check on 800 graphs: sd of |centered| values within 25%
    sd = math.sqrt(np.mean(np.abs(vals - vals.mean()) ** 2))
    assert sd == pytest.approx(exact_num, rel=0.25)


def test_graph_conditional_requires_nonzero_t():
    with pytest.raises(InputError):
        estimate_r(5, 0.3, 2000, [0.0], "r2", seed=1)
    with pytest.raises(InputError):
        estimate_r(5, 0.3, 2000, [1.0], ("r3", "r99"), seed=1)
    with pytest.raises(InputError):
        inner_terms(np.zeros((1, 10)), 5, 0.3, [1.0], ("r99",))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_estimate_r_validation():
    with pytest.raises(InputError):
        estimate_r(5, 0.3, 0, [1.0], "r1", seed=1)
    with pytest.raises(InputError):
        estimate_r(5, 0.3, 999, [1.0], "r1", seed=1)
    with pytest.raises(InputError):
        estimate_r(5, 0.3, 2000, [], "r2", seed=1)
    with pytest.raises(InputError):
        estimate_r(5, 0.3, 2000, [1.0], "r9", seed=1)


def test_estimates_match_oracle_within_5_se():
    n, p, m, seed = 5, 0.3, 20_000, 3
    ex = exact_r_terms(n, p, [1.0])
    r1 = estimate_r(n, p, m, [1.0], "r1", seed)["r1"]
    assert abs(r1.value - ex.r1) < 5 * r1.std_error
    r2 = estimate_r(n, p, m, [1.0], "r2", seed)["r2"]
    assert abs(r2.value - ex.r2_by_t[1.0]) < 5 * r2.std_error
    est3 = estimate_r(n, p, m, [1.0], "r3", seed)
    for key, exact_val in (("r31", ex.r31), ("r32", ex.r32), ("r33", ex.r33)):
        assert abs(est3[key].value - exact_val) < 5 * est3[key].std_error


def test_estimator_determinism():
    a = estimate_r(5, 0.3, 4000, [0.5, 1.0], "r4", seed=11)
    b = estimate_r(5, 0.3, 4000, [0.5, 1.0], "r4", seed=11)
    assert a["r4"].value == b["r4"].value
    assert a["r4"].std_error == b["r4"].std_error
    c = estimate_r(5, 0.3, 4000, [0.5, 1.0], "r4", seed=12)
    assert c["r4"].value != a["r4"].value


def test_r2_scale_stable_under_doubling():
    a = estimate_r(5, 0.3, 10_000, [1.0], "r2", seed=4)["r2"].value
    b = estimate_r(5, 0.3, 20_000, [1.0], "r2", seed=4)["r2"].value
    assert a > 0 and b > 0
    assert 0.8 < a / b < 1.2


def test_r4_location_invariance_of_variance():
    # the r4 statistic is a variance, so per-t values are nonnegative and
    # the sup assembly adds the three component sups
    est = estimate_r(5, 0.3, 4000, [0.5, 2.0], "r4", seed=9)
    for key in ("r41", "r42", "r43"):
        assert est[key].value >= 0
        assert all(e.value >= 0 for e in est[f"{key}_by_t"])
    assert est["r4"].value == pytest.approx(
        est["r41"].value + est["r42"].value + est["r43"].value, rel=1e-12
    )


def test_family_se_from_batch_values():
    # a family's SE is the batch SE of its own per-batch values: the graphs
    # are redrawn here and cut into the estimator's batches
    n, p, m, seed, ts = 6, 0.5, 3200, 5, [0.5, 2.0]
    est = estimate_r(n, p, m, ts, ("r3", "r4"), seed)
    tb = triple_basis(n)
    tri = tb.triangle_bits(gnp_edge_bits(SamplerConfig(n=n, p=p, seed=seed), 0, m))
    g = inner_terms(tri, n, p, ts, ("r1", "r32", "r33", "r41", "r42", "r43"))
    edges = batch_edges(m)
    batches = [{c: z[lo:hi] for c, z in g.items()} for lo, hi in zip(edges[:-1], edges[1:])]

    def sup_sd(z, c):
        # max over t of the batch's population sd, over |t|^power
        sd = np.sqrt(np.mean(np.abs(z - z.mean(axis=0)) ** 2, axis=0))
        return max(sd / np.abs(ts) ** T_POWERS[c])

    r3_b = [0.5 * b["r1"].mean() + b["r32"].mean() + b["r33"].mean() for b in batches]
    r4_b = [sum(sup_sd(b[c], c) for c in ("r41", "r42", "r43")) for b in batches]
    for name, per_batch in (("r3", r3_b), ("r4", r4_b)):
        se = np.std(per_batch, ddof=1) / math.sqrt(len(per_batch))
        assert est[name].std_error == pytest.approx(se, rel=1e-9)


# ---------------------------------------------------------------------------
# bound assembly
# ---------------------------------------------------------------------------


def _est(value: float) -> RTermEstimate:
    return RTermEstimate(value=value, std_error=0.0, samples=1000)


def test_assemble_extended_zero_estimates():
    rep = assemble_bound(
        16, 0.5, {"r3": _est(0.0), "r4": _est(0.0)}, r_tilde_policy="theoretical"
    )
    assert rep.bound == pytest.approx(6.10 * rep.r_tilde, rel=1e-12)
    assert rep.r_tilde == pytest.approx(r3_theoretical(16, 0.5), rel=1e-12)
    assert not rep.r_tilde_adjusted


def test_assemble_flags_r_tilde_violation():
    big = r3_theoretical(16, 0.5) * 10
    rep = assemble_bound(
        16, 0.5, {"r3": _est(big), "r4": _est(0.0)}, r_tilde_policy="theoretical"
    )
    assert rep.r_tilde_adjusted
    assert rep.r_tilde == pytest.approx(big)
    assert rep.bound == pytest.approx(0.76 * big + 6.10 * big, rel=1e-12)


def test_assemble_flags_r_tilde_violation_simple():
    big = r3_theoretical(16, 0.5) * 10
    rep = assemble_bound(
        16, 0.5, {"r1": _est(big), "r2": _est(0.0)}, r_tilde_policy="theoretical",
        form="simple",
    )
    assert rep.r_tilde_adjusted
    assert rep.r_tilde == big
    assert rep.bound == pytest.approx(3.43 * big, rel=1e-12)


def test_assemble_simple_passthrough():
    rep = assemble_bound(
        16,
        0.5,
        {"r1": _est(0.01), "r2": _est(0.001)},
        r_tilde_policy="estimate",
        form="simple",
    )
    hand = 0.38 * 0.01 + 3.05 * 0.01 + 0.64 * 0.001 * (1 + 2 * math.log(50.0))
    assert rep.bound == pytest.approx(hand, rel=1e-12)


def test_assemble_validation():
    with pytest.raises(InputError):
        assemble_bound(16, 0.5, {"r3": _est(0.0)}, form="extended")
    with pytest.raises(InputError):
        assemble_bound(16, 0.5, {}, form="circular")
    with pytest.raises(InputError):
        assemble_bound(16, 0.5, {}, r_tilde_policy="vibes")


def test_r3_theoretical_regimes():
    # dense / middle / sparse shapes against a direct evaluation; p = 1/2 and
    # p = n^-1/2 lie on the boundaries and belong to the middle and sparse regimes
    assert regime_rates(20, 0.5).regime == "middle"
    assert regime_rates(100, 0.1).regime == "sparse"
    for n, p in ((20, 0.8), (20, 0.3), (100, 0.05), (20, 0.5), (100, 0.1)):
        sig3 = exact_moments(n, p).sigma ** 3
        if p > 0.5:
            expect = n**5 * (1 - p) / sig3
        elif p > n**-0.5:
            expect = n**5 * p**7 / sig3
        else:
            expect = n**3 * p**3 / sig3
        assert r3_theoretical(n, p) == pytest.approx(expect, rel=1e-12)


def test_default_t_grid_shape():
    assert len(DEFAULT_T_GRID) == 24
    assert DEFAULT_T_GRID[0] == pytest.approx(1e-2)
    assert DEFAULT_T_GRID[-1] == pytest.approx(10.0)


def test_r3_order_agreement_with_theory_n16():
    # C = 1 convention: estimate within a factor of 10 of the closed form
    est = estimate_r(16, 0.5, 2000, [1.0], "r3", seed=6)["r3"].value
    theory = r3_theoretical(16, 0.5)
    assert 0.0 < est / theory < 10.0

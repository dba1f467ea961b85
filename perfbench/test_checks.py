"""Tests of the benchmark's own checkers: each recomputation against brute
force at n = 4 or 5, and each check on good and on corrupted output.

    python3 -m pytest perfbench/test_checks.py -q
"""

import cmath
import math
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from triclt import cli, graphs, oracle, sampler  # noqa: E402


def all_graphs(n):
    """Every graph on n vertices, as an edge-bit row and as an edge set."""
    edges = checks.colex_edges(n)
    for bits in product((0, 1), repeat=len(edges)):
        yield np.array(bits, dtype=np.uint8), {e for e, b in zip(edges, bits) if b}


def brute_triangles(present, n):
    return sum(
        {(a, b), (a, c), (b, c)} <= present for a, b, c in combinations(range(n), 3)
    )


@pytest.mark.parametrize("n", [4, 5])
def test_count_triangles_matches_brute_force(n):
    rows, counts = [], []
    for row, present in all_graphs(n):
        assert checks.count_triangles(row, n) == brute_triangles(present, n)
        rows.append(row)
        counts.append(brute_triangles(present, n))
    assert list(graphs.batch_triangle_counts(np.array(rows), n)) == counts


@pytest.mark.parametrize("n,p", [(4, 0.3), (5, 0.5)])
def test_triangle_moments_match_enumeration(n, p):
    law = {}
    for _, present in all_graphs(n):
        w = p ** len(present) * (1 - p) ** (math.comb(n, 2) - len(present))
        t = brute_triangles(present, n)
        law[t] = law.get(t, 0.0) + w
    total = math.fsum(law.values())
    mean = math.fsum(t * q for t, q in law.items())
    var = math.fsum((t - mean) ** 2 * q for t, q in law.items())
    e_t, v_t = checks.triangle_moments(n, p)
    assert total == pytest.approx(1.0, abs=1e-14)
    assert mean == pytest.approx(e_t, rel=1e-13)
    assert var == pytest.approx(v_t, rel=1e-12)


def test_gnp_check_passes_and_catches_faults():
    n, p, m, seed = 12, 0.4, 600, 3
    w = cli.sample_w(n, p, m, seed)
    dk = cli.empirical_dk(w)
    assert checks.check_gnp_leg(n, p, seed, w, dk) == []
    sigma = math.sqrt(checks.triangle_moments(n, p)[1])
    assert checks.check_gnp_leg(n, p, seed, w + 0.5 / sigma, dk)   # not whole counts
    assert checks.check_gnp_leg(n, p, seed, w[::-1].copy(), dk)    # rows do not match
    assert checks.check_gnp_leg(n, p, seed + 1, w, dk)             # another sample
    assert checks.check_gnp_leg(n, p, seed, w, {"dk": dk["dk"] + 1e-9})


def brute_proxy_law(n, p):
    """Enumerate every pair and triple indicator of the proxy model."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    triples = list(combinations(range(n), 3))
    law = np.zeros(len(triples) + 1)
    for pb in product((0, 1), repeat=len(pairs)):
        wp = math.prod(p if b else 1 - p for b in pb)
        on = dict(zip(pairs, pb))
        for tb in product((0, 1), repeat=len(triples)):
            w = wp * math.prod(p * p if b else 1 - p * p for b in tb)
            law[sum(on[a, b] * c for (a, b, _), c in zip(triples, tb))] += w
    return law


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_proxy_law_and_moments_match_brute_force(p):
    law = checks.proxy_law(4, p)
    brute = brute_proxy_law(4, p)
    np.testing.assert_allclose(law, brute, atol=1e-14)
    y = np.arange(law.size)
    mean, var = checks.proxy_moments(4, p)
    assert np.sum(y * brute) == pytest.approx(mean, rel=1e-13)
    assert np.sum((y - mean) ** 2 * brute) == pytest.approx(var, rel=1e-12)


@pytest.mark.parametrize("n,p", [(5, 0.3), (6, 0.5)])
def test_lattice_dk_matches_oracle_exact_dk(n, p):
    dist = oracle.enumerate_distribution(n, p)
    pmf = np.zeros(math.comb(n, 3) + 1)
    for t, q in dist.atoms:
        pmf[t] = q
    mean, var = checks.triangle_moments(n, p)
    assert checks.lattice_dk(pmf, mean, math.sqrt(var)) == pytest.approx(
        oracle.exact_dk(n, p), abs=1e-14)


def test_proxy_check_passes_and_catches_faults():
    exact = checks.ProxyExact()
    w = cli.sample_proxy_w(16, 0.5, 4000, 5)
    dk = cli.empirical_dk(w)
    assert checks.check_proxy_leg(16, 0.5, w, dk, exact) == []
    shifted = w + 1.0
    assert checks.check_proxy_leg(16, 0.5, shifted, cli.empirical_dk(shifted), exact)


def brute_r_terms(n, p, ts):
    """r1, r32, r33 and the r4x variances by a plain loop over graphs."""
    triples = list(combinations(range(n), 3))
    nbhd = {v: {u for u in triples if len(set(u) & set(v)) >= 2} for v in triples}
    sig = math.sqrt(checks.triangle_moments(n, p)[1])
    var_x, cov2 = p**3 * (1 - p**3), p**5 * (1 - p)
    weights, r1, r32, r33 = [], [], [], []
    inner = {(k, t): [] for k in ("r41", "r42", "r43") for t in ts}
    for _, present in all_graphs(n):
        weights.append(p ** len(present) * (1 - p) ** (math.comb(n, 2) - len(present)))
        x = {v: float({(v[0], v[1]), (v[0], v[2]), (v[1], v[2])} <= present) - p**3
             for v in triples}
        y = {v: sum(x[u] for u in nbhd[v]) for v in triples}
        r1.append(sum(abs(x[v]) * y[v] ** 2 for v in triples) / sig**3)
        pairs = [(v, w, sum(x[u] for u in nbhd[v] | nbhd[w])) for v in triples for w in nbhd[v]]
        r32.append(sum(abs(x[v] * x[w]) * abs(yvw) for v, w, yvw in pairs) / sig**3)
        r33.append(sum((var_x if v == w else cov2) * abs(yvw) for v, w, yvw in pairs) / sig**3)
        for t in ts:
            inner["r41", t].append(-sum(
                x[v] * (cmath.exp(-1j * t * y[v] / sig) - 1 + 1j * t * y[v] / sig)
                for v in triples) / sig)
            inner["r42", t].append(sum(
                x[v] * x[w] * (cmath.exp(-1j * t * yvw / sig) - 1) for v, w, yvw in pairs) / sig**2)
            inner["r43", t].append(sum(
                (var_x if v == w else cov2) * (cmath.exp(-1j * t * yvw / sig) - 1)
                for v, w, yvw in pairs) / sig**2)
    wts = np.array(weights)

    def var(z):
        z = np.array(z)
        return float(np.sum(wts * np.abs(z - np.sum(wts * z)) ** 2))

    out = {"r1": float(wts @ r1), "r32": float(wts @ r32), "r33": float(wts @ r33)}
    for k in ("r41", "r42", "r43"):
        out[k] = {t: var(inner[k, t]) for t in ts}
    return out


@pytest.mark.parametrize("n,p", [(4, 0.5), (5, 0.3)])
def test_r_terms_by_sets_matches_plain_loop(n, p):
    ts = (0.3, 2.0)
    own = checks.r_terms_by_sets(n, p, ts)
    brute = brute_r_terms(n, p, ts)
    for k in ("r1", "r32", "r33"):
        assert own[k] == pytest.approx(brute[k], rel=1e-12)
    for k in ("r41", "r42", "r43"):
        for t in ts:
            assert own[k][t] == pytest.approx(brute[k][t], rel=1e-10)


def test_exact_r_terms_check_passes_and_catches_faults():
    ts = (0.3, 2.0)
    res = oracle.exact_r_terms(5, 0.3, ts)
    assert checks.check_exact_r_terms(res, ts) == []
    res.r42_by_t[2.0] *= 1 + 1e-8
    assert checks.check_exact_r_terms(res, ts)


def test_oracle_checks_pass():
    assert checks.check_couplings_report(oracle.verify_couplings(5, 0.3)) == []
    assert checks.check_ode(oracle.exact_chf_ode(5, 0.3, 1.5)) == []
    dist = oracle.enumerate_distribution(5, 0.3)
    dk = oracle.exact_dk(5, 0.3)
    assert checks.check_law_and_dk(dist, dk) == []
    assert checks.check_law_and_dk(dist, dk + 1e-9)


def test_estimator_consistency_check_passes():
    assert checks.check_estimator_consistency(5, 0.3, 20_000, 11) == []


def test_coupling_record_and_draw_count():
    cfg = cli.ExperimentConfig(subcommand="coupling", n_list=(5,),
                               p_rule={"kind": "fixed", "value": 0.5}, samples=1000, seed=2)
    tracer = tracing.Tracer()
    originals = (cli.sample_w, sampler.gnp_edge_bits, graphs.TripleBasis.y_matrix)
    with tracer.installed("coupling", 1):
        code, records = cli.run(cfg)
    assert (cli.sample_w, sampler.gnp_edge_bits, graphs.TripleBasis.y_matrix) == originals
    assert code == 0 and checks.check_coupling_record(records[0]) == []
    metrics = tracing.layer_metrics(tracer.spans, {"coupling": 1000}, 1, [0.0])
    assert list(metrics) == list(tracing.PER_LAYER)
    assert metrics["coupling.draws_per_sample"] == 3.0
    assert metrics["coupling.estimate_r.r4.ms_per_sample"] > 0
    assert metrics["sampler.gnp_edge_bits.us_per_sample.dense_n64"] == 0.0

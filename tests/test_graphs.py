from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triclt import graphs
from triclt.errors import InputError
from triclt.graphs import (
    Graph,
    batch_triangle_counts,
    centered_indicator,
    edge_rank,
    edge_union_size,
    edge_unrank,
    local_sum,
    neighborhood,
    num_edges,
    num_triples,
    triangle_count,
    triple_basis,
    triple_rank,
    w_statistic,
)
from triclt.sampler import SamplerConfig, gnp_edge_bits, sample_gnp


def naive_triangle_count(g: Graph) -> int:
    """Independent oracle: loop over all vertex triples."""
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def random_graph(n: int, p: float, seed: int) -> Graph:
    return sample_gnp(SamplerConfig(n=n, p=p, seed=seed), 0)


# ---------------------------------------------------------------------------
# edge / triple ranking
# ---------------------------------------------------------------------------


def test_edge_rank_examples():
    assert edge_rank((0, 1), 4) == 0
    assert edge_rank((0, 3), 4) == 3
    assert edge_rank((2, 3), 4) == 5


def test_edge_rank_is_bijection():
    for n in (3, 5, 9):
        ranks = sorted(edge_rank(e, n) for e in combinations(range(n), 2))
        assert ranks == list(range(num_edges(n)))
        for e in combinations(range(n), 2):
            assert edge_unrank(edge_rank(e, n)) == e


def test_edge_rank_stable_under_growing_n():
    # colex ranking: adding vertices extends ranks without remapping
    for e in combinations(range(5), 2):
        assert edge_rank(e, 5) == edge_rank(e, 11)


def test_edge_rank_rejects_out_of_range():
    with pytest.raises(InputError):
        edge_rank((1, 4), 4)
    with pytest.raises(InputError):
        edge_rank((2, 2), 4)


# ---------------------------------------------------------------------------
# triangle counting
# ---------------------------------------------------------------------------


def test_triangle_count_complete_graphs():
    assert triangle_count(Graph.complete(4)) == 4
    assert triangle_count(Graph.complete(5)) == 10


def test_triangle_count_single_triangle():
    g = Graph.from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert triangle_count(g) == 1


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 20), p=st.floats(0.1, 0.9), seed=st.integers(0, 10**6))
def test_triangle_count_matches_naive_loop(n, p, seed):
    g = random_graph(n, p, seed)
    assert triangle_count(g) == naive_triangle_count(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_triangle_count_matches_naive_loop_n64(seed):
    g = random_graph(64, 0.1 * seed, seed)
    assert triangle_count(g) == naive_triangle_count(g)


def test_batch_triangle_counts_match_singles():
    cfg = SamplerConfig(n=12, p=0.35, seed=5)
    bits = gnp_edge_bits(cfg, 0, 64)
    batch = batch_triangle_counts(bits, 12)
    for i in range(64):
        assert batch[i] == triangle_count(sample_gnp(cfg, i))


@pytest.mark.parametrize("n", range(3, 21))
def test_batch_triangle_counts_every_small_n(n):
    ne = num_edges(n)
    rows = [np.zeros(ne, np.uint8), np.ones(ne, np.uint8)]
    for k, p in enumerate((0.2, 0.5, 0.8)):
        rows.extend(gnp_edge_bits(SamplerConfig(n=n, p=p, seed=n, stream=k), 0, 4))
    counts = batch_triangle_counts(np.array(rows), n)
    assert counts.dtype == np.int64
    assert counts[0] == 0
    assert counts[1] == math.comb(n, 3)
    for row, t in zip(rows, counts):
        g = Graph(n, sum(1 << int(r) for r in np.flatnonzero(row)))
        assert t == naive_triangle_count(g)


@pytest.mark.parametrize("n", [256, 300])
def test_batch_triangle_counts_complete_graph(n):
    full = np.ones((2, num_edges(n)), dtype=np.uint8)
    assert list(batch_triangle_counts(full, n)) == [math.comb(n, 3)] * 2


@pytest.mark.parametrize("n", [3, 4, 16, 63, 64, 65, 127, 128, 129])
def test_batch_triangle_counts_kernels_agree(n):
    # 64 and 65 (and 128, 129) sit on the uint64 word boundaries of the
    # popcount kernel; p runs across its density threshold
    ne = num_edges(n)
    rows = [np.zeros(ne, np.uint8), np.ones(ne, np.uint8)]
    for k, p in enumerate((0.02, 0.09, 0.1, 0.11, 0.5)):
        rows.extend(gnp_edge_bits(SamplerConfig(n=n, p=p, seed=n, stream=k), 0, 3))
    bits = np.array(rows)
    expected = [
        triangle_count(Graph(n, sum(1 << int(r) for r in np.flatnonzero(row)))) for row in rows
    ]
    for dtype in (bool, np.uint8, np.int64):
        typed = bits.astype(dtype)
        for kernel in (graphs._popcount_counts, graphs._dense_counts):
            counts = kernel(typed, n)
            assert counts.dtype == np.int64
            assert list(counts) == expected, (kernel.__name__, dtype)
        sparse = gnp_edge_bits(SamplerConfig(n=n, p=0.05, seed=1), 0, 4).astype(dtype)
        assert list(batch_triangle_counts(sparse, n)) == list(graphs._dense_counts(sparse, n))


def test_batch_triangle_counts_rejects_bad_shape():
    bits = gnp_edge_bits(SamplerConfig(n=10, p=0.5, seed=1), 0, 3)
    assert bits.shape == (3, 45)
    for n in (8, 12):
        with pytest.raises(InputError):
            batch_triangle_counts(bits, n)
    with pytest.raises(InputError):
        batch_triangle_counts(bits[0], 10)
    with pytest.raises(InputError):
        batch_triangle_counts(bits[:, :, None], 10)
    # the dense kernel's float32 row sums, at most C(n-1, 2), stay below 2^24
    top = graphs.MAX_COUNT_N
    assert math.comb(top - 1, 2) < 2**24 <= math.comb(top, 2)
    assert batch_triangle_counts(np.zeros((0, num_edges(top)), np.uint8), top).shape == (0,)
    with pytest.raises(InputError):
        batch_triangle_counts(np.zeros((0, num_edges(top + 1)), np.uint8), top + 1)


# ---------------------------------------------------------------------------
# centred indicators and local sums
# ---------------------------------------------------------------------------


def test_centered_indicator_examples():
    assert centered_indicator(Graph.complete(4), 0.5, (0, 1, 2)) == 0.875
    assert centered_indicator(Graph.empty(4), 0.5, (0, 1, 2)) == -0.125
    g = Graph.from_edge_list(4, [(0, 2), (1, 2)])  # edge (0,1) missing
    assert centered_indicator(g, 0.3, (0, 1, 2)) == pytest.approx(-0.027, abs=1e-15)


def test_centered_indicator_rejects_bad_p():
    with pytest.raises(InputError):
        centered_indicator(Graph.empty(4), 0.0, (0, 1, 2))
    with pytest.raises(InputError):
        centered_indicator(Graph.empty(4), 1.0, (0, 1, 2))


def test_neighborhood_sizes():
    assert len(neighborhood((0, 1, 2), 10)) == 22  # 3(n-3)+1
    assert neighborhood((0, 1, 2), 4) == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}


def test_neighborhood_union_size_n5():
    # brute-force oracle: triples sharing >= 2 vertices with either triple
    v, w = (0, 1, 2), (0, 1, 3)
    expect = {
        u
        for u in combinations(range(5), 3)
        if len(set(u) & set(v)) >= 2 or len(set(u) & set(w)) >= 2
    }
    got = neighborhood(v, 5, w)
    assert got == expect
    assert len(got) == 9  # two size-7 sets overlapping in 5 triples


def test_neighborhood_symmetry():
    n = 7
    for v in combinations(range(n), 3):
        for u in neighborhood(v, n):
            assert v in neighborhood(u, n)


def test_neighborhood_requires_member_w():
    with pytest.raises(InputError):
        neighborhood((0, 1, 2), 7, (3, 4, 5))


def test_local_sum_examples():
    assert local_sum(Graph.empty(5), 0.5, (0, 1, 2)) == pytest.approx(-0.875)
    assert local_sum(Graph.complete(4), 0.5, (0, 1, 2)) == pytest.approx(3.5)


def test_local_sum_zero_mean_under_oracle():
    from triclt.oracle import exact_expectation

    val = exact_expectation(5, 0.4, lambda g: local_sum(g, 0.4, (0, 1, 2)))
    assert abs(val) < 1e-12


# ---------------------------------------------------------------------------
# edge unions, W statistic
# ---------------------------------------------------------------------------


def test_edge_union_size_examples():
    assert edge_union_size([(0, 1, 2)]) == 3
    assert edge_union_size([(0, 1, 2), (0, 1, 3)]) == 5
    assert edge_union_size([(0, 1, 2), (3, 4, 5)]) == 6


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=5))
def test_edge_union_size_invariants(raw):
    triples = [tuple(sorted(set(t))) for t in raw if len(set(t)) == 3]
    if not triples:
        return
    base = edge_union_size(triples)
    assert edge_union_size(list(reversed(triples))) == base
    assert edge_union_size(triples + [triples[0]]) == base
    extended = edge_union_size(triples + [(0, 1, 2)])
    assert extended >= base


def test_w_statistic():
    sigma3 = math.sqrt(0.5**3 * (1 - 0.5**3))
    assert w_statistic(Graph.complete(3), 0.5, sigma3) == pytest.approx(
        (1 - 0.125) / sigma3
    )
    # empty graph, n=4, p=0.5: T=0, ET=0.5, sigma=sqrt(0.625)
    assert w_statistic(Graph.empty(4), 0.5, math.sqrt(0.625)) == pytest.approx(
        -0.5 / 0.7905694150420949
    )
    with pytest.raises(InputError):
        w_statistic(Graph.empty(4), 0.5, 0.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 9), p=st.floats(0.05, 0.95), seed=st.integers(0, 1000))
def test_sum_of_centered_indicators_is_centred_count(n, p, seed):
    g = random_graph(n, 0.5, seed)
    total = math.fsum(
        centered_indicator(g, p, v) for v in combinations(range(n), 3)
    )
    assert total == pytest.approx(triangle_count(g) - num_triples(n) * p**3, abs=1e-10)


# ---------------------------------------------------------------------------
# TripleBasis consistency with the scalar definitions
# ---------------------------------------------------------------------------


def test_triple_basis_matches_scalar_functions():
    n, p = 6, 0.35
    tb = triple_basis(n)
    g = random_graph(n, 0.4, 99)
    bits = np.array(
        [[(g.edges >> r) & 1 for r in range(num_edges(n))]], dtype=np.uint8
    )
    tri = tb.triangle_bits(bits)
    x = tb.x_matrix(tri, p)
    s, y = tb.y_matrix(x)
    for k, v in enumerate(tb.triples):
        assert x[0, k] == pytest.approx(centered_indicator(g, p, v), abs=1e-14)
        assert y[0, k] == pytest.approx(local_sum(g, p, v), abs=1e-12)
    y_pair = tb.ypair_columns(x, s, y, np.arange(tb.n_pairs))
    for m in range(tb.n_pairs):
        v = tb.triples[tb.pair_v[m]]
        w = tb.triples[tb.pair_w[m]]
        ref = local_sum(g, p, v, w)
        assert y_pair[0, m] == pytest.approx(ref, abs=1e-12)


def _set_route_pair(v, w, n):
    """(shared-edge rank, bridging triple ranks) of neighbours v, w from
    vertex sets alone."""
    a, b = sorted(set(v) & set(w))
    (c,) = set(v) - {a, b}
    (d,) = set(w) - {a, b}
    return (
        edge_rank((a, b), n),
        triple_rank(tuple(sorted((a, c, d)))),
        triple_rank(tuple(sorted((b, c, d)))),
    )


def _pair_rows(tb, idx):
    cols = (tb.pair_v, tb.pair_w, tb.pair_shared, tb.pair_u1, tb.pair_u2)
    return [tuple(row) for row in np.stack([c[idx] for c in cols], axis=1).tolist()]


@pytest.mark.parametrize("n", range(3, 10))
def test_pair_list_holds_each_neighbour_pair_once(n):
    # the set route: w in neighborhood(v), which includes v itself
    tb = triple_basis(n)
    assert [triple_rank(v) for v in tb.triples] == list(range(tb.n_triples))
    relation = {
        (triple_rank(v), triple_rank(w))
        for v in combinations(range(n), 3)
        for w in neighborhood(v, n)
    }
    pairs = list(zip(tb.pair_v.tolist(), tb.pair_w.tolist()))
    diagonal = {(k, k) for k in range(tb.n_triples)}
    assert set(pairs) | {(w, v) for v, w in pairs} | diagonal == relation
    # once each, v < w, v-major then w in colex order
    assert pairs == sorted((v, w) for v, w in relation if v < w)
    assert tb.n_pairs == tb.n_triples * 3 * (n - 3) // 2
    for v, w, shared, u1, u2 in _pair_rows(tb, slice(None)):
        assert (shared, u1, u2) == _set_route_pair(tb.triples[v], tb.triples[w], n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_ypair_columns_match_set_based_local_sums(n):
    # Y_{v,w} from the pair list equals the set-based sum over nu_v u nu_w
    # taken either way round: on centred float64 rows, and as the count
    # K_{v,w} on float64 bits and int16 bits
    p = 0.3
    tb = triple_basis(n)
    nu2 = 2 * tb.nu_size - n
    edges = np.vstack([
        np.zeros((1, num_edges(n)), dtype=np.uint8),
        np.ones((1, num_edges(n)), dtype=np.uint8),
        gnp_edge_bits(SamplerConfig(n=n, p=0.6, seed=n), 0, 4),
    ])
    want = np.empty((len(edges), tb.n_pairs))
    for row, bits in enumerate(edges):
        g = Graph(n, sum(int(bit) << r for r, bit in enumerate(bits)))
        for m, (v, w) in enumerate(zip(tb.pair_v.tolist(), tb.pair_w.tolist())):
            v, w = tb.triples[v], tb.triples[w]
            want[row, m] = local_sum(g, p, v, w)
            assert local_sum(g, p, w, v) == want[row, m]
    counts = np.rint(want + nu2 * p**3)
    tri = tb.triangle_bits(edges)
    for rows, dtype in ((tb.x_matrix(tri, p), np.float64), (tri, np.float64), (tri, np.int16)):
        s, y = tb.y_matrix(rows.astype(np.float64))
        x, s, y = (a.astype(dtype) for a in (rows, s, y))
        y_pair = tb.ypair_columns(x, s, y, np.arange(tb.n_pairs))
        assert y_pair.dtype == dtype
        if rows is tri:
            assert np.array_equal(y_pair, counts)
        else:
            assert np.max(np.abs(y_pair - want)) <= 1e-12


def test_pair_list_at_n32_matches_set_route():
    n = 32
    tb = triple_basis(n)
    assert tb.n_pairs == 215_760
    assert np.all(np.diff(tb.pair_v * tb.n_triples + tb.pair_w) > 0)
    picks = np.random.default_rng(32).choice(tb.n_pairs, size=200, replace=False)
    for v, w, shared, u1, u2 in _pair_rows(tb, picks):
        v, w = tb.triples[v], tb.triples[w]
        assert triple_rank(v) < triple_rank(w) and w in neighborhood(v, n)
        assert (shared, u1, u2) == _set_route_pair(v, w, n)


def test_graph_immutable_and_validated():
    g = Graph.complete(4)
    with pytest.raises(Exception):
        g.n = 5  # frozen dataclass
    with pytest.raises(InputError):
        Graph(4, 1 << num_edges(4))  # bit beyond the bitset
    with pytest.raises(InputError):
        Graph(2, 0)

"""Canonical indexing of vertices, edges and triples of labelled graphs.

Everything downstream (exact enumeration, coupling simulation, pattern
checks) speaks in terms of the structures defined here:

* vertices are 0-based labels ``0..n-1``;
* edges are ascending pairs ``(i, j)``, ranked colexicographically, so a
  graph is a bitset of length ``n(n-1)/2`` (stored as a Python int --
  growing n extends ranks without remapping);
* triples are ascending ``(v1, v2, v3)``, also in colex order.

The centred triangle indicator of a triple v is ``X_v = [triangle at v] - p^3``
and the local neighbourhood of v is the set of triples sharing at least one
edge with v, i.e. sharing >= 2 vertices.  ``local_sum`` gives the sums of
centred indicators over those neighbourhoods, from vertex sets alone; the
batched ``TripleBasis``, which the coupling construction consumes, gets
them and its list of neighbour pairs by index arithmetic instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError

EdgeId = tuple[int, int]
TripleId = tuple[int, int, int]


def edge_rank(e: EdgeId, n: int) -> int:
    """Colex rank of edge (i, j), i < j: rank = j(j-1)/2 + i."""
    i, j = e
    if not (0 <= i < j < n):
        raise InputError(f"edge {e} invalid for n={n}")
    return j * (j - 1) // 2 + i


def edge_unrank(rank: int) -> EdgeId:
    """Inverse of edge_rank (independent of n)."""
    j = int((1 + math.isqrt(1 + 8 * rank)) // 2)
    while j * (j - 1) // 2 > rank:
        j -= 1
    i = rank - j * (j - 1) // 2
    return (i, j)


def triple_rank(v: TripleId) -> int:
    """Colex rank of an ascending triple; stable as n grows."""
    a, b, c = v
    return c * (c - 1) * (c - 2) // 6 + b * (b - 1) // 2 + a


def num_edges(n: int) -> int:
    return n * (n - 1) // 2


def num_triples(n: int) -> int:
    return math.comb(n, 3)


def validate_triple(v: TripleId, n: int) -> None:
    if len(v) != 3 or not (0 <= v[0] < v[1] < v[2] < n):
        raise InputError(f"triple {v} must be strictly ascending in [0, {n})")


def all_triples(n: int) -> list[TripleId]:
    """All ascending triples in colex order (matches triple_rank)."""
    return sorted(combinations(range(n), 3), key=triple_rank)


def triple_edges(v: TripleId) -> list[EdgeId]:
    a, b, c = v
    return [(a, b), (a, c), (b, c)]


@dataclass(frozen=True)
class Graph:
    """Immutable labelled graph: vertex count plus packed edge-indicator bitset.

    ``edges`` has bit ``edge_rank((i,j))`` set iff the edge is present.
    """

    n: int
    edges: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InputError(f"need n >= 3, got {self.n}")
        if self.edges < 0 or self.edges >> num_edges(self.n):
            raise InputError("edge bits set beyond n(n-1)/2")

    @classmethod
    def from_edge_list(cls, n: int, edge_list: Iterable[EdgeId]) -> "Graph":
        bits = 0
        for i, j in edge_list:
            if i == j:
                raise InputError(f"self-loop ({i},{j})")
            if i > j:
                i, j = j, i
            bits |= 1 << edge_rank((i, j), n)
        return cls(n, bits)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, 0)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, (1 << num_edges(n)) - 1)

    def has_edge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return bool(self.edges >> edge_rank((i, j), self.n) & 1)

    def edge_count(self) -> int:
        return self.edges.bit_count()

    def edge_list(self) -> list[EdgeId]:
        return [edge_unrank(r) for r in range(num_edges(self.n)) if self.edges >> r & 1]

    def adjacency_rows(self) -> list[int]:
        """Row i as an int bitmask over neighbour labels."""
        rows = [0] * self.n
        for i, j in self.edge_list():
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return rows


def triangle_count(g: Graph) -> int:
    """Exact number of triples whose three induced edges are all present.

    Counts common neighbours over present edges; each triangle is hit once
    per edge, hence the division by 3.
    """
    rows = g.adjacency_rows()
    total = 0
    for i, j in g.edge_list():
        total += (rows[i] & rows[j]).bit_count()
    return total // 3


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise InputError(f"p must be in (0,1), got {p}")


def has_triangle(g: Graph, v: TripleId) -> bool:
    validate_triple(v, g.n)
    mask = 0
    for e in triple_edges(v):
        mask |= 1 << edge_rank(e, g.n)
    return (g.edges & mask) == mask


def centered_indicator(g: Graph, p: float, v: TripleId) -> float:
    """X_v = I[triangle at v] - p^3.

    Both branch values are exact in binary64 for the products of up to four
    indicators taken downstream.
    """
    _check_p(p)
    return (1.0 - p**3) if has_triangle(g, v) else -(p**3)


def neighborhood(
    v: TripleId, n: int, w_opt: Optional[TripleId] = None
) -> set[TripleId]:
    """Triples sharing >= 2 vertices with v (hence >= 1 edge); union with
    the neighbourhood of w when w_opt is given.

    Includes v itself, so the size is exactly 3(n-3)+1.
    """
    validate_triple(v, n)
    out = {u for u in combinations(range(n), 3) if len(set(u) & set(v)) >= 2}
    if w_opt is not None:
        validate_triple(w_opt, n)
        if w_opt not in out:
            raise InputError(f"{w_opt} is not in the neighborhood of {v}")
        out |= {u for u in combinations(range(n), 3) if len(set(u) & set(w_opt)) >= 2}
    return out


def local_sum(
    g: Graph, p: float, v: TripleId, w_opt: Optional[TripleId] = None
) -> float:
    """Y_v (or Y_{v,w}): sum of centred indicators over the neighbourhood."""
    return float(
        math.fsum(centered_indicator(g, p, u) for u in sorted(neighborhood(v, g.n, w_opt)))
    )


def edge_union_size(triples: Sequence[TripleId]) -> int:
    """Number of distinct edges induced by a list of triples."""
    if not triples:
        raise InputError("need at least one triple")
    edges: set[EdgeId] = set()
    for v in triples:
        edges.update(triple_edges(v))
    return len(edges)


def w_statistic(g: Graph, p: float, sigma: float) -> float:
    """W = (T - C(n,3) p^3) / sigma, the standardised triangle count."""
    _check_p(p)
    if not sigma > 0:
        raise InputError(f"sigma must be positive, got {sigma}")
    return (triangle_count(g) - num_triples(g.n) * p**3) / sigma


# ---------------------------------------------------------------------------
# Vectorised triple machinery shared by the oracle and the coupling simulator.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripleBasis:
    """Precomputed index structures for all triples of an n-vertex graph.

    Arrays are aligned with the colex order of all_triples(n).  The
    neighbourhood sums are evaluated through edge cofactors rather than a
    dense triple-by-triple matrix:

        S_e  = sum_{u >= e} X_u          (X @ e2t)
        Y_v  = sum_{e in v} S_e - 2 X_v

    (the three per-edge families partition nu_v minus v, each containing v
    itself).  For w in nu_v with shared edge {a,b}, v = {a,b,c}, w = {a,b,d},
    the neighbourhood intersection is exactly the {a,b} family plus the two
    bridging triples {a,c,d}, {b,c,d}, so

        Y_{v,w} = Y_v + Y_w - S_{ab} - X_{acd} - X_{bcd}.

    Both identities keep the batched paths at O(n_tri * n_edges) memory.
    They are linear in X, so on triangle-bit rows they give integer counts:
    Y_v is the number K_v of triangles in nu_v less nu p^3 (nu = 3(n-3)+1),
    and Y_{v,w} for w != v is the number of triangles in nu_v u nu_w, a set
    of 2nu - n triples, less (2nu - n) p^3.

    w in nu_v iff v in nu_w, and Y_{v,w} = Y_{w,v} (the union nu_v u nu_w
    is symmetric), so the pair list holds each neighbour pair {v, w} once,
    as v < w: v-major, then w in colex order, C(n,3) * 3(n-3) / 2 pairs.  It
    has no w = v rows; Y_{v,v} is Y_v.  `ypair_columns` computes in the
    dtype it is given: float64 for centred rows, int16 bits, S and K for
    those counts.
    """

    n: int
    triples: tuple[TripleId, ...]
    edge_ranks: np.ndarray    # (n_tri, 3) int64
    e2t: np.ndarray           # (n_tri, n_edges) float64 0/1, triple >= edge
    pair_v: np.ndarray        # (n_pair,) int64 triple index, v < w
    pair_w: np.ndarray        # (n_pair,) int64 triple index
    pair_shared: np.ndarray   # (n_pair,) int64 shared-edge rank {a, b}
    pair_u1: np.ndarray       # (n_pair,) int64 bridging triple {a, c, d}
    pair_u2: np.ndarray       # (n_pair,) int64 bridging triple {b, c, d}

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_v)

    @property
    def nu_size(self) -> int:
        return 3 * (self.n - 3) + 1

    def triangle_bits(self, edge_bits: np.ndarray) -> np.ndarray:
        """Map edge-indicator rows (m, n_edges) to triangle-indicator rows
        (m, n_tri); uint8 output."""
        e = edge_bits
        r = self.edge_ranks
        return (e[:, r[:, 0]] & e[:, r[:, 1]] & e[:, r[:, 2]]).astype(np.uint8)

    def x_matrix(self, tri_bits: np.ndarray, p: float) -> np.ndarray:
        """Centred indicators X for triangle-bit rows."""
        return tri_bits.astype(np.float64) - p**3

    def y_matrix(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S, Y): edge cofactor sums and neighbourhood sums, rows = graphs."""
        s = x @ self.e2t
        r = self.edge_ranks
        y = s[:, r[:, 0]] + s[:, r[:, 1]] + s[:, r[:, 2]] - 2.0 * x
        return s, y

    def ypair_columns(
        self, x: np.ndarray, s: np.ndarray, y: np.ndarray, pair_idx: np.ndarray | slice
    ) -> np.ndarray:
        """Y_{v,w} for the selected pairs (an index array or a slice of the
        pair list), in the dtype of x, s and y: on integer bits, S and K it
        gives K_{v,w}."""
        corr = (
            s[:, self.pair_shared[pair_idx]]
            + x[:, self.pair_u1[pair_idx]]
            + x[:, self.pair_u2[pair_idx]]
        )
        return y[:, self.pair_v[pair_idx]] + y[:, self.pair_w[pair_idx]] - corr


@lru_cache(maxsize=4)
def triple_basis(n: int) -> TripleBasis:
    triples = tuple(all_triples(n))
    n_tri = len(triples)

    edge_ranks = np.array(
        [[edge_rank(e, n) for e in triple_edges(v)] for v in triples], dtype=np.int64
    )
    e2t = np.zeros((n_tri, num_edges(n)), dtype=np.float64)
    e2t[np.arange(n_tri)[:, None], edge_ranks] = 1.0

    # every w in nu_v other than v is v with one vertex z swapped for a d
    # outside v, once each: over v, the three z and the n candidate d, with
    # x < y the shared edge v - z
    t = np.array(triples, dtype=np.int64).reshape(n_tri, 3, 1)
    x, y, z, d = np.broadcast_arrays(
        t[:, [0, 0, 1]], t[:, [1, 2, 2]], t[:, [2, 1, 0]], np.arange(n)
    )
    v = np.broadcast_to(np.arange(n_tri)[:, None, None], d.shape)

    def rank(*u):  # triple_rank, elementwise, of vertices in any order
        return triple_rank(np.sort(np.stack(u), axis=0))

    w = rank(x, y, d)
    keep = (d != x) & (d != y) & (d != z) & (w > v)
    order = np.lexsort((w[keep], v[keep]))
    v, w, x, y, z, d = (arr[keep][order] for arr in (v, w, x, y, z, d))

    return TripleBasis(
        n=n,
        triples=triples,
        edge_ranks=edge_ranks,
        e2t=e2t,
        pair_v=v,
        pair_w=w,
        pair_shared=y * (y - 1) // 2 + x,
        pair_u1=rank(x, z, d),
        pair_u2=rank(y, z, d),
    )


# Below this share of present edges a batch is counted over its edges (the
# popcount kernel), above it by one sgemm per graph (the dense kernel): their
# costs cross between 0.125 and 0.175 for n = 32..384.
SPARSE_DENSITY = 0.125
# The dense kernel's float32 row sums are at most C(n-1, 2), exact while
# that is < 2^24.
MAX_COUNT_N = 5794


def batch_triangle_counts(edge_bits: np.ndarray, n: int) -> np.ndarray:
    """Triangle counts, int64, for a batch of graphs given as 0/1 edge-bit
    rows of shape (graphs, n(n-1)/2).

    Colex rank j(j-1)/2 + i makes the edges (i, j), i < j, of vertex j the
    contiguous slice edge_bits[:, j(j-1)/2 : j(j-1)/2 + j], i.e. row L_j of
    the strictly lower-triangular adjacency L.  A triangle k < i < j is
    counted once, at its edge (i, j), as a k in L_j & L_i.  Two exact kernels
    return the same integers; the batch's share of present edges picks one:
    below SPARSE_DENSITY the popcount kernel sums over the present edges,
    above it the dense kernel runs one float32 sgemm per graph.  n is capped
    at MAX_COUNT_N, where the dense kernel stops being exact.
    """
    if n < 0 or n > MAX_COUNT_N:
        raise InputError(f"batch_triangle_counts needs 0 <= n <= {MAX_COUNT_N}, got {n}")
    edge_bits = np.asarray(edge_bits)
    if edge_bits.ndim != 2 or edge_bits.shape[1] != num_edges(n):
        raise InputError(
            f"edge_bits must have shape (graphs, {num_edges(n)}) for n={n}, "
            f"got {edge_bits.shape}"
        )
    if np.count_nonzero(edge_bits) < SPARSE_DENSITY * edge_bits.size:
        return _popcount_counts(edge_bits, n)
    return _dense_counts(edge_bits, n)


def _lower(edge_bits: np.ndarray, n: int, dtype) -> np.ndarray:
    """The (graphs, n, n) lower-triangular adjacencies L, one slice copy per
    row."""
    low = np.zeros((edge_bits.shape[0], n, n), dtype=dtype)
    for j in range(1, n):
        lo = j * (j - 1) // 2
        low[:, j, :j] = edge_bits[:, lo : lo + j]
    return low


@lru_cache(maxsize=8)
def _edge_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every edge, i < j, in colex rank order."""
    j = np.repeat(np.arange(n), np.arange(n))
    return np.arange(num_edges(n)) - j * (j - 1) // 2, j


def _popcount_counts(edge_bits: np.ndarray, n: int) -> np.ndarray:
    """T = sum over present edges (i, j) of popcount(L_j & L_i), with each
    L_j packed little-endian into uint64 words; all integer, exact at any n."""
    m = edge_bits.shape[0]
    packed = np.packbits(_lower(edge_bits, n, np.uint8), axis=-1, bitorder="little")
    words = -(-n // 64)
    rows = np.zeros((m, n, 8 * words), dtype=np.uint8)
    rows[..., : packed.shape[-1]] = packed
    rows = rows.view(np.uint64).reshape(m * n, words)
    edges = np.flatnonzero(edge_bits.astype(bool, copy=False))
    graph, rank = np.divmod(edges, edge_bits.shape[1])
    ei, ej = _edge_ends(n)
    first = rows.take(graph * n + ej[rank], axis=0)
    common = np.bitwise_count(first & rows.take(graph * n + ei[rank], axis=0))
    # einsum adds each edge's few words about twice as fast as .sum(axis=1)
    per_edge = np.einsum("ew->e", common, dtype=np.int64)
    return np.bincount(graph, per_edge, minlength=m).astype(np.int64)


def _dense_counts(edge_bits: np.ndarray, n: int) -> np.ndarray:
    """T = sum L .* (L @ L): (L @ L)[j, i] counts the k with i < k < j and
    edges ik, kj.  Its entries are integers <= n - 2 and the row dots of L
    with it are at most C(n-1, 2) < 2^24, so the batched float32 sgemm and
    the float32 row dots are exact; the rows are summed in int64."""
    low = _lower(edge_bits, n, np.float32)
    paths = low @ low
    return np.vecdot(low, paths).sum(axis=1, dtype=np.int64)

"""Brute-force enumeration oracle for small G(n,p).

Every graph on n <= 7 vertices is visited with its exact probability
p^k (1-p)^(E-k); any expectation over G(n,p) becomes a finite weighted sum.
This is the ground truth against which closed forms, coupling identities
and Monte Carlo estimators are verified.

Weights are computed per edge-count class in log space (no underflow at
extreme p), and final reductions use exact compensated summation
(math.fsum), so accumulated error is O(eps) independent of the 2^E term
count.

The law of T and the characteristic-function ODE need no pass over the
graphs: they reduce one p-independent integer table, `class_counts(n)`.
M[k, T, b, K] counts the (graph, triple v) pairs with k edges, T triangles,
triangle bit b at v and K triangles in nu_v.  A relabelling of the vertices
maps triples to triples transitively and keeps k and T, so every triple
sees the same counts and M is C(n,3) times those of triple 0 alone.  Every
summand these routines need depends on the graph only through (k, T) and on
V only through (b_V, K_V):

* `enumerate_distribution` (hence `exact_dk`) sums the weight p^k(1-p)^(E-k)
  against N[k, T] = M[k, T].sum() / C(n,3), the number of graphs in each
  (k, T) class, exactly rounded;
* `exact_chf_ode` takes phi and phi' from the same sums, and a(t), b(t) from
  the per-T rows (sum_k w_k M[k, T]) @ the `coupling.term_tables` summands.

The r-terms and the coupling identities also need neighbour pairs: for
n <= MAX_PER_GRAPH_N one pass over the graphs gives each graph's integer
`coupling.site_counts`, against which every summand is a table.
`exact_r_terms` reduces them to their weighted mean and covariance (a per-t
variance is table^H cov table), `verify_couplings` to weighted sums per T;
these float sums are accurate to a few ulp, not exactly rounded.

The coupling quantities follow the construction used throughout the
toolkit: V uniform on triples, V' uniform on the neighbourhood nu_V,

    W  = sum_v X_v / sigma          G  = -C(n,3) X_V / sigma
    D  = -Y_V / sigma               D~ = -(3(n-3)+1) X_{V'} / sigma
    D' = -Y_{V,V'} / sigma          S  = C(n,3)(3(n-3)+1)/sigma^2 *
                                         (Var X if V'=V else Cov2)

and the inner conditional expectations in the r-terms are taken given the
full edge configuration (which upper-bounds the W-conditional variances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .coupling import COMPONENTS, FAMILIES, T_POWERS, compose, graph_chunk, outer_rows
from .coupling import site_counts, site_values, term_tables
from .errors import CapacityError, InputError
from .graphs import Graph, num_edges, num_triples, triple_basis
from .moments import exact_moments, kolmogorov_distance

MAX_ORACLE_N = 7
# the routines that pass over every graph's site counts: 2^15 graphs at n = 6
MAX_PER_GRAPH_N = 6
FSUM_SLICE = 1 << 16  # values per list handed to math.fsum

_FUNCTION_FAMILY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "1": lambda x: np.ones_like(x, dtype=np.complex128),
    "x": lambda x: x.astype(np.complex128),
    "x2": lambda x: (x * x).astype(np.complex128),
    "sin": lambda x: np.sin(x).astype(np.complex128),
}


def resolve_test_function(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Named test functions: '1', 'x', 'x2', 'sin', or 'exp:<t>' for e^{itx}."""
    if name in _FUNCTION_FAMILY:
        return _FUNCTION_FAMILY[name]
    if name.startswith("exp:"):
        t = float(name.split(":", 1)[1])
        return lambda x: np.exp(1j * t * x)
    raise InputError(f"unknown test function {name!r}")


def fsum_array(a: np.ndarray) -> float:
    """Compensated sum of a float array (exact rounding via math.fsum).

    fsum is correctly rounded whatever the order, so feeding it slices of
    FSUM_SLICE values keeps the result and never builds a whole-array list.
    """
    a = np.ravel(a)
    return math.fsum(
        chain.from_iterable(
            a[lo : lo + FSUM_SLICE].tolist() for lo in range(0, a.size, FSUM_SLICE)
        )
    )


def fsum_complex(a: np.ndarray) -> complex:
    return complex(fsum_array(a.real), fsum_array(a.imag))


def check_capacity(n: int, limit: int = MAX_ORACLE_N) -> None:
    if n < 3:
        raise InputError(f"need n >= 3, got {n}")
    if n > limit:
        raise CapacityError(f"exact enumeration supports n <= {limit}, got {n}")


@dataclass(frozen=True)
class OracleArrays:
    """Edge counts and triangle bits of the graphs g = 0..2^E - 1 (bit r: edge r)."""

    popcount: np.ndarray  # (G,) uint8, G = 2^{n(n-1)/2}
    tri_bits: np.ndarray  # (G, n_tri) uint8


@lru_cache(maxsize=2)
def oracle_arrays(n: int) -> OracleArrays:
    check_capacity(n)
    ne = num_edges(n)
    masks = np.arange(1 << ne, dtype=np.uint32)
    pop = np.bitwise_count(masks).astype(np.uint8)
    tb = triple_basis(n)
    r = tb.edge_ranks
    tri = np.empty((masks.size, tb.n_triples), dtype=np.uint8)
    for k in range(tb.n_triples):
        want = np.uint32((1 << r[k, 0]) | (1 << r[k, 1]) | (1 << r[k, 2]))
        tri[:, k] = (masks & want) == want
    return OracleArrays(popcount=pop, tri_bits=tri)


def graph_weights(n: int, p: float, popcount: np.ndarray) -> np.ndarray:
    """G(n,p) weight of each graph, computed per popcount class in log space."""
    if not (0.0 < p < 1.0):
        raise InputError(f"p must be in (0,1), got {p}")
    ne = num_edges(n)
    k = np.arange(ne + 1, dtype=np.float64)
    class_w = np.exp(k * math.log(p) + (ne - k) * math.log1p(-p))
    return class_w[popcount]


@lru_cache(maxsize=None)  # one table per n <= MAX_ORACLE_N, 177 KB at n = 7
def class_counts(n: int) -> np.ndarray:
    """M[k, T, b, K]: the number of (graph, triple v) pairs with k edges, T
    triangles, triangle bit b at v and K triangles in nu_v (v included).

    Shape (E + 1, C(n,3) + 1, 2, 3(n-3) + 2), int64, read-only.  Built from
    triple 0 alone and scaled by C(n,3); see the module docstring.
    """
    check_capacity(n)
    tb = triple_basis(n)
    arr = oracle_arrays(n)
    tri = arr.tri_bits
    t_all = tri.sum(axis=1, dtype=np.uint8)  # at most C(7,3) = 35
    k_0 = tri[:, 0].copy()
    for w in tb.pair_w[tb.pair_v == 0]:
        k_0 += tri[:, w]
    shape = (num_edges(n) + 1, tb.n_triples + 1, 2, tb.nu_size + 1)
    # the C-order flat index of (popcount, t_all, bit 0, k_0), in place
    flat = arr.popcount.astype(np.intp)
    for extent, column in zip(shape[1:], (t_all, tri[:, 0], k_0)):
        flat *= extent
        flat += column
    counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
    counts *= tb.n_triples
    counts.flags.writeable = False
    return counts


def _prob_t(n: int, w: np.ndarray) -> np.ndarray:
    """P(T = t) for t = 0..C(n,3), given the weight w[k] of a graph with k
    edges: each the exactly rounded sum of its graphs' weights.

    N[k, t] graphs have k edges and t triangles.  Each w[k] is exactly
    num_k / 2^e_k, so with 2^e the largest denominator the sum over graphs
    is the integer sum_k N[k, t] num_k 2^(e - e_k) over 2^e, and Python's
    int division rounds it once, as math.fsum over the graphs' weights does.
    """
    graphs_kt = class_counts(n).sum(axis=(2, 3)) // num_triples(n)
    ratios = [wk.as_integer_ratio() for wk in w.tolist()]
    den = max(d for _, d in ratios)
    nums = [num * (den // d) for num, d in ratios]
    return np.array([sum(c * m for c, m in zip(col, nums)) / den for col in graphs_kt.T.tolist()])


# ---------------------------------------------------------------------------
# Exact distribution of T and Kolmogorov distance of W
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactDistribution:
    n: int
    p: float
    atoms: tuple[tuple[int, float], ...]  # (t, prob), sorted by t, probs > 0

    def mean(self) -> float:
        return math.fsum(t * q for t, q in self.atoms)

    def var(self) -> float:
        m = self.mean()
        return math.fsum((t - m) ** 2 * q for t, q in self.atoms)

    def total_prob(self) -> float:
        return math.fsum(q for _, q in self.atoms)


def enumerate_distribution(n: int, p: float) -> ExactDistribution:
    """Exact law of the triangle count T under G(n,p), each atom the exactly
    rounded sum of its graphs' weights."""
    prob = _prob_t(n, graph_weights(n, p, np.arange(num_edges(n) + 1)))
    atoms = tuple((t, q) for t, q in enumerate(prob.tolist()) if q > 0.0)
    return ExactDistribution(n=n, p=p, atoms=atoms)


def exact_dk(n: int, p: float) -> float:
    """Exact Kolmogorov distance between the law of W = (T - ET)/sd(T) and
    the standard normal."""
    dist = enumerate_distribution(n, p)
    mom = exact_moments(n, p)
    ts = np.array([t for t, _ in dist.atoms], dtype=np.float64)
    qs = np.array([q for _, q in dist.atoms], dtype=np.float64)
    return kolmogorov_distance((ts - mom.mean_t) / mom.sigma, np.cumsum(qs))


# ---------------------------------------------------------------------------
# Generic exact expectation
# ---------------------------------------------------------------------------


def exact_expectation(
    n: int, p: float, functional: Callable[[Graph], complex]
) -> complex:
    """Exact E[h(G)] for an arbitrary graph functional (slow generic path;
    the structured routines below are vectorised)."""
    w = graph_weights(n, p, oracle_arrays(n).popcount)
    vals = np.fromiter(
        (complex(functional(Graph(n, m))) for m in range(w.size)),
        dtype=np.complex128,
        count=w.size,
    )
    return fsum_complex(w * vals)


# ---------------------------------------------------------------------------
# Per-graph site counts
# ---------------------------------------------------------------------------


def _site_count_chunks(n: int):
    """(rows, counts) over chunks of coupling.graph_chunk enumerated graphs:
    each graph's coupling.site_counts, pairs included, as float64."""
    arr = oracle_arrays(n)
    step = graph_chunk(num_triples(n))
    for lo in range(0, arr.popcount.size, step):
        rows = slice(lo, lo + step)
        yield rows, site_counts(arr.tri_bits[rows], n, pairs=True).astype(np.float64)


# ---------------------------------------------------------------------------
# Characteristic-function ODE check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeCheck:
    t: float
    phi: complex
    phi_prime: complex
    a_t: complex
    b_t: complex
    residual: float


def exact_chf_ode(n: int, p: float, t: float) -> OdeCheck:
    """Exact check of phi'(t) = -t (1 + a(t)) phi(t) + b(t) with

        a(t) = E{G (e^{itD} - 1 - itD)} / (it)
        b(t) = i E{(G(e^{itD} - 1) - E G(e^{itD} - 1)) e^{itW}}.

    All expectations are finite sums over (graph, V); the identity is exact,
    so any residual beyond float accumulation is an implementation bug.
    They are taken over the (k, T, b_V, K_V) classes of `class_counts`.
    At t = 0 the limiting convention a = b = 0, residual 0 applies.
    """
    check_capacity(n)
    if t == 0.0:
        return OdeCheck(t=0.0, phi=1.0 + 0j, phi_prime=0j, a_t=0j, b_t=0j, residual=0.0)
    counts = class_counts(n)
    c3 = num_triples(n)
    w = graph_weights(n, p, np.arange(num_edges(n) + 1))
    prob_t = _prob_t(n, w)
    w_stat = (np.arange(c3 + 1) - c3 * p**3) / exact_moments(n, p).sigma
    e_itw = np.exp(1j * t * w_stat)

    phi = fsum_complex(prob_t * e_itw)
    phi_prime = 1j * fsum_complex(prob_t * w_stat * e_itw)

    # E[inner mean over V; T = t] of G(e^{itD}-1) and G(e^{itD}-1-itD):
    # per-t weighted (b, K) counts @ the summand tables
    by_t = np.tensordot(w, counts, axes=1).reshape(c3 + 1, -1)
    tables = term_tables(n, p, [t])
    inner_lin = by_t @ tables["r2"][:, 0]
    inner_full = by_t @ tables["r41"][:, 0]

    a_t = fsum_complex(inner_full) / (1j * t)
    mean_lin = fsum_complex(inner_lin)
    b_t = 1j * fsum_complex((inner_lin - prob_t * mean_lin) * e_itw)
    residual = abs(phi_prime + t * (1.0 + a_t) * phi - b_t)
    return OdeCheck(t=t, phi=phi, phi_prime=phi_prime, a_t=a_t, b_t=b_t, residual=residual)


# ---------------------------------------------------------------------------
# Coupling identity verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingReport:
    n: int
    p: float
    eq5_residuals: dict
    per_graph_gd_residual: float   # max_g |E[G D~ | g] - E[G D | g]|
    e_s_enumerated: float
    e_s_analytic: float
    weak_extended_residuals: dict  # h name -> |E[(G D~ - S) h(W'')]|
    e_gd_enumerated: float         # E[G D~] = Var T / s^2 = 1, pair-weighted as (iv)


def verify_couplings(
    n: int, p: float, f_family: Iterable[str] = ("1", "x", "x2", "sin")
) -> CouplingReport:
    """Exact residuals of the coupling identities at desk scale (n <= 6).

    (i)   E{G f(W')} - E{G f(W)} = E{W f(W)} for each named f;
    (ii)  E[G D~ | graph] = E[G D | graph] for every graph (average over V, V');
    (iii) E S = 1, enumerated over (V, V') and in closed form;
    (iv)  E[(G D~ - S) h(W'')] = 0 for each named h (the testable surrogate
          of the matching W''-conditional expectations).

    A summand of (i) or (iv) depends on T and one site-count column (V' = V
    gives W'' = W'), so each is a table over (column, T) against the site
    counts summed per T with the graphs' weights.  (ii) checks each graph's
    pair counts against its (b_v, K_v) counts.  Each summand of (iv) has
    mean zero on its own, so a wrong pair count would not show there;
    E[G D~] over the same counts should be Var T / s^2 = 1 and is reported
    as e_gd_enumerated.
    """
    check_capacity(n, limit=MAX_PER_GRAPH_N)
    arr = oracle_arrays(n)
    tb = triple_basis(n)
    mom = exact_moments(n, p)
    sigma = mom.sigma
    c3, kappa = tb.n_triples, tb.nu_size
    family = {name: resolve_test_function(name) for name in f_family}
    w = graph_weights(n, p, arr.popcount)
    x_b, xx_c, y1, y2 = site_values(n, p)
    # S on the c3 pairs with V' = V, and on the 2 n_pairs others
    scale = c3 * kappa / sigma**2
    s_same, s_other = scale * mom.var_x, scale * mom.cov_overlap2

    # (ii)'s two sides: sum_{v, w in nu_v} X_v X_w and sum_v X_v Y_v
    xx = outer_rows((x_b * x_b, np.ones_like(y1)), (xx_c, np.ones_like(y2)))
    xy = outer_rows((x_b, y1))  # over the (b_v, K_v) columns
    width = len(xy)
    # per T, the weighted counts of its graphs (columns x T); per graph, (ii)
    by_t = np.zeros((len(xx), c3 + 1))
    gd_gap = np.empty(w.size)
    for rows, h in _site_count_chunks(n):
        t_g = arr.tri_bits[rows].sum(axis=1)
        by_t += (w[rows, None] * h).T @ (t_g[:, None] == np.arange(c3 + 1))
        gd_gap[rows] = (h @ xx - h[:, :width] @ xy) / sigma**2

    w_t = (np.arange(c3 + 1) - c3 * p**3) / sigma  # W as function of T
    prob_t = by_t[:width].sum(axis=0) / c3
    w_prime = w_t - y1[:, None] / sigma  # W' by (K_V, T)
    w_pair = w_t - y2[:, None] / sigma  # W'' by (K_{V,V'}, T), V' != V
    eq5, weak = {}, {}
    for name, f in family.items():
        # G (f(W') - f(W)) with G = -c3 X_V / sigma
        eq5_table = outer_rows((-c3 / sigma * x_b, f(w_prime) - f(w_t)))
        eq5[name] = float(abs(np.sum(by_t[:width] * eq5_table) / c3 - np.sum(prob_t * w_t * f(w_t))))
        weak_table = outer_rows(
            (scale * x_b * x_b - s_same, f(w_prime)), (scale * xx_c - s_other, f(w_pair))
        )
        weak[name] = float(abs(np.sum(by_t * weak_table))) / (c3 * kappa)
    return CouplingReport(
        n=n,
        p=p,
        eq5_residuals=eq5,
        per_graph_gd_residual=float(np.max(np.abs(gd_gap))),
        e_s_enumerated=(c3 * s_same + 2 * tb.n_pairs * s_other) / (c3 + 2 * tb.n_pairs),
        e_s_analytic=c3 * (mom.var_x + 3.0 * (n - 3) * mom.cov_overlap2) / mom.var_t,
        weak_extended_residuals=weak,
        e_gd_enumerated=float(by_t.sum(axis=1) @ xx) / sigma**2,
    )


# ---------------------------------------------------------------------------
# Exact r-terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RTermsExact:
    n: int
    p: float
    r1: float
    r2_by_t: dict          # t -> r2(t) = sqrt(Var_g inner)/|t|
    r2: float              # sup over the grid
    r31: float
    r32: float
    r33: float
    r3: float
    r41_by_t: dict         # t -> raw variance of the graph-conditional mean
    r42_by_t: dict
    r43_by_t: dict
    r4: float              # sum of the sups of sqrt(r4k)/|t|^power (coupling.FAMILIES)


def exact_r_terms(n: int, p: float, t_grid: Sequence[float]) -> RTermsExact:
    """Exact coupling r-terms: inner expectations averaged exactly over
    (V, V'), outer means and variances over all graphs from the weighted
    mean and covariance of their site counts."""
    t_grid = [float(t) for t in t_grid]
    if not t_grid or any(t == 0.0 for t in t_grid):
        raise InputError("t_grid must be nonempty with t != 0")
    check_capacity(n, limit=MAX_PER_GRAPH_N)
    w = graph_weights(n, p, oracle_arrays(n).popcount)
    # each chunk's weighted mean and centred second moment, merged into the
    # running ones (Chan et al.): no cancellation at any p
    total, mean, cov = 0.0, 0.0, 0.0
    for rows, h in _site_count_chunks(n):
        wc = w[rows]
        part = wc.sum()
        delta = wc @ h / part - mean
        d = h - (mean + delta)
        cov = cov + (wc[:, None] * d).T @ d + np.outer(delta, delta) * (total * part / (total + part))
        total += part
        mean = mean + delta * (part / total)

    tables = term_tables(n, p, t_grid)
    means = {c: float(mean[: len(tables[c])] @ tables[c]) for c in COMPONENTS if c not in T_POWERS}
    var_by_t = {}
    for c in T_POWERS:
        table = tables[c]
        var = np.sum(table.conj() * (cov[: len(table), : len(table)] @ table), axis=0).real
        var_by_t[c] = dict(zip(t_grid, var.tolist()))
    sd_by_t = {
        c: {t: math.sqrt(v) / abs(t) ** power for t, v in var_by_t[c].items()}
        for c, power in T_POWERS.items()
    }
    parts = {**means, **{c: list(sd.values()) for c, sd in sd_by_t.items()}}
    value = {name: float(compose(name, parts)) for name in FAMILIES}
    return RTermsExact(
        n=n,
        p=p,
        r1=value["r1"],
        r2_by_t=sd_by_t["r2"],
        r2=value["r2"],
        r31=means["r1"],
        r32=means["r32"],
        r33=means["r33"],
        r3=value["r3"],
        r41_by_t=var_by_t["r41"],
        r42_by_t=var_by_t["r42"],
        r43_by_t=var_by_t["r43"],
        r4=value["r4"],
    )

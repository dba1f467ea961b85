"""Output checks that recompute the program's results by routes of their own.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output passed.  The recomputations use plain Python integers,
vertex sets and closed forms written out here, never triclt's TripleBasis,
oracle tables or moment functions, so a fault in those shows as a failure
instead of being reproduced.

Statistical checks are set so that correct code fails them with probability
below 1e-6 per check:

* sample means against exact moments: SE_LIMIT standard errors;
* estimate_r against exact values: BATCH_SE_LIMIT batch standard errors
  (a 16-batch SE is t-distributed with 15 degrees of freedom, and
  P(|t_15| > 8) < 1e-6);
* an MC d_K against an exact d_K: the DKW band at DKW_DELTA, which bounds
  the chance that the whole ECDF leaves it.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy import stats

from triclt import coupling, graphs, oracle, sampler

SE_LIMIT = 6.0
BATCH_SE_LIMIT = 8.0
DKW_DELTA = 1e-9
EXACT_RTOL = 1e-9
RESIDUAL_LIMIT = 1e-9
E_S_LIMIT = 1e-10
KS_TOL = 1e-12
RECOUNT_ROWS = 4


# ---------------------------------------------------------------------------
# G(n,p) triangle counts
# ---------------------------------------------------------------------------


def triangle_moments(n: int, p: float) -> tuple[float, float]:
    """E T and Var T of the triangle count of G(n,p)."""
    c3 = math.comb(n, 3)
    return c3 * p**3, c3 * p**3 * (1 - p) * (1 + p + p * p + 3 * (n - 3) * p * p)


def colex_edges(n: int) -> list[tuple[int, int]]:
    """Edges (i, j), i < j, in the order of an edge-bit row: j-major."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def count_triangles(row: np.ndarray, n: int) -> int:
    """Triangle count of one edge-bit row, by integer bitsets: for each
    present edge (i, j), the common neighbours k > j."""
    edges = colex_edges(n)
    present = [edges[r] for r in np.flatnonzero(row)]
    nbr = [0] * n
    for i, j in present:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return sum(((nbr[i] & nbr[j]) >> (j + 1)).bit_count() for i, j in present)


def recount_indices(samples: int) -> list[int]:
    return sorted({(samples - 1) * k // (RECOUNT_ROWS - 1) for k in range(RECOUNT_ROWS)})


def check_ks(w: np.ndarray, dk: dict) -> list[str]:
    ks = stats.kstest(w, "norm", method="asymp").statistic
    if abs(ks - dk["dk"]) > KS_TOL:
        return [f"empirical_dk {dk['dk']!r} != kstest {ks!r}"]
    return []


def check_gnp_leg(n: int, p: float, seed: int, w: np.ndarray, dk: dict) -> list[str]:
    """Outputs of sample_w(n, p, len(w), seed) and empirical_dk(w)."""
    fails = []
    m = w.size
    mean_t, var_t = triangle_moments(n, p)
    t = w * math.sqrt(var_t) + mean_t
    t_int = np.rint(t)
    if np.max(np.abs(t - t_int)) > 1e-6:
        fails.append("W does not map back to whole triangle counts")
    if t_int.min() < 0 or t_int.max() > math.comb(n, 3):
        fails.append("triangle count outside [0, C(n,3)]")
    if abs(t.mean() - mean_t) > SE_LIMIT * math.sqrt(var_t / m):
        fails.append(f"mean T {t.mean():.6g} far from E T {mean_t:.6g}")
    s2 = t.var(ddof=1)
    m4 = float(np.mean((t - mean_t) ** 4))
    se_var = math.sqrt(max(m4 - var_t**2, var_t**2) / m)
    if abs(s2 - var_t) > SE_LIMIT * se_var:
        fails.append(f"variance of T {s2:.6g} far from Var T {var_t:.6g}")

    cfg = sampler.SamplerConfig(n=n, p=p, seed=seed, stream=0)
    idx = recount_indices(m)
    rows = np.concatenate([sampler.gnp_edge_bits(cfg, i, 1) for i in idx])
    own = [count_triangles(row, n) for row in rows]
    blas = [int(x) for x in graphs.batch_triangle_counts(rows, n)]
    from_w = [int(t_int[i]) for i in idx]
    if not (own == blas == from_w):
        fails.append(f"recount {own} != batch_triangle_counts {blas} / W {from_w}")
    return fails + check_ks(w, dk)


# ---------------------------------------------------------------------------
# Proxy model
# ---------------------------------------------------------------------------


def proxy_moments(n: int, p: float) -> tuple[float, float]:
    """E Y and Var Y of the proxy statistic.  The pair (i, j) with larger
    label j contributes I * Bin(s, q), s = n-1-j, q = p^2, whose variance is
    p s q (1-q) + p (1-p) s^2 q^2."""
    q = p * p
    var = 0.0
    for j in range(1, n):
        s = n - 1 - j
        var += j * (p * s * q * (1 - q) + p * (1 - p) * s * s * q * q)
    return math.comb(n, 3) * p**3, var


def proxy_law(n: int, p: float) -> np.ndarray:
    """P[Y = y] for y = 0..C(n,3), from the generating function
    prod_j [(1-p) + p (1-q+qz)^(n-1-j)]^j evaluated at C(n,3)+1 roots of
    unity (more than its degree, so nothing aliases) and inverted by FFT.
    The product is summed in logs: exp(j log b) = b^j on any branch, and no
    factor vanishes off z = 1, since |1-q+qz| >= 1-2q > 0 and
    |(1-q+qz)^s| < 1 there."""
    size = math.comb(n, 3) + 1
    q = p * p
    z = np.exp(-2j * np.pi * np.arange(size // 2 + 1) / size)
    group = 1.0 - q + q * z
    power = group.copy()             # (1-q+qz)^s, for s = n-1-j
    log_abs = np.zeros(z.size)       # real and imaginary parts of the log,
    arg = np.zeros(z.size)           # kept apart: faster than complex log
    for s in range(1, n - 1):
        b = (1.0 - p) + p * power
        log_abs += (n - 1 - s) * 0.5 * np.log(b.real**2 + b.imag**2)
        arg += (n - 1 - s) * np.arctan2(b.imag, b.real)
        power *= group
    return np.fft.irfft(np.exp(log_abs + 1j * arg), size)


def lattice_dk(pmf: np.ndarray, mean: float, sd: float) -> float:
    """sup_x |F(x) - Phi((x - mean)/sd)| for a law on 0..len(pmf)-1, taken
    at each atom from the left and from the right."""
    phi = stats.norm.cdf((np.arange(pmf.size) - mean) / sd)
    cdf = np.cumsum(pmf)
    return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(cdf - pmf - phi))))


def dkw_band(m: int, delta: float = DKW_DELTA) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))


class ProxyExact:
    """Exact proxy d_K per (n, p), computed once per run."""

    def __init__(self):
        self._dk: dict = {}

    def dk(self, n: int, p: float) -> float:
        if (n, p) not in self._dk:
            mean, var = proxy_moments(n, p)
            self._dk[n, p] = lattice_dk(proxy_law(n, p), mean, math.sqrt(var))
        return self._dk[n, p]


def check_proxy_leg(
    n: int, p: float, w: np.ndarray, dk: dict, exact: ProxyExact
) -> list[str]:
    """Outputs of sample_proxy_w(n, p, len(w), seed) and empirical_dk(w)."""
    fails = check_ks(w, dk)
    exact_dk = exact.dk(n, p)
    band = dkw_band(w.size)
    if abs(dk["dk"] - exact_dk) > band:
        fails.append(
            f"MC d_K {dk['dk']:.5f} outside the DKW band {band:.5f} "
            f"of the exact d_K {exact_dk:.5f}"
        )
    return fails


# ---------------------------------------------------------------------------
# Exact r-terms, recomputed with vertex-set neighbourhoods
# ---------------------------------------------------------------------------


def neighbourhood(v: tuple, triples: list) -> list[int]:
    """Indices of the triples sharing at least two vertices with v."""
    return [k for k, u in enumerate(triples) if len(set(u) & set(v)) >= 2]


def r_terms_by_sets(n: int, p: float, ts) -> dict:
    """r1 (= r31), r32, r33 and, per t, the variances r41/r42/r43 of the
    graph-conditional means, summed over all graphs on n vertices.

    Loops over triples and over pairs (v, w in nu_v); each step is
    vectorised over the 2^C(n,2) graphs.  Y_{v,w} is the sum over the
    union of the two neighbourhoods, taken as sets.
    """
    edges = list(combinations(range(n), 2))
    eid = {e: k for k, e in enumerate(edges)}
    triples = list(combinations(range(n), 3))
    masks = np.arange(1 << len(edges), dtype=np.int64)
    bits = [(masks >> k) & 1 for k in range(len(edges))]
    k_on = sum(bits)
    weight = p**k_on * (1 - p) ** (len(edges) - k_on)
    p3 = p**3
    x = np.stack(
        [bits[eid[a, b]] * bits[eid[a, c]] * bits[eid[b, c]] for a, b, c in triples],
        axis=1,
    ) - p3
    _, var_t = triangle_moments(n, p)
    sig = math.sqrt(var_t)
    var_x, cov2 = p3 * (1 - p3), p**5 * (1 - p)

    nu = [neighbourhood(v, triples) for v in triples]
    y = np.stack([x[:, nu[k]].sum(axis=1) for k in range(len(triples))], axis=1)
    r1_g = (np.abs(x) * y * y).sum(axis=1) / sig**3
    inner41 = {
        t: -(x * (np.exp(-1j * t / sig * y) - 1.0 + 1j * t / sig * y)).sum(axis=1) / sig
        for t in ts
    }
    r32_g = np.zeros(masks.size)
    r33_g = np.zeros(masks.size)
    inner42 = {t: np.zeros(masks.size, dtype=complex) for t in ts}
    inner43 = {t: np.zeros(masks.size, dtype=complex) for t in ts}
    for v in range(len(triples)):
        for w in nu[v]:
            union = sorted(set(nu[v]) | set(nu[w]))
            y_vw = x[:, union].sum(axis=1)
            xvxw = x[:, v] * x[:, w]
            s_vw = var_x if v == w else cov2
            r32_g += np.abs(xvxw) * np.abs(y_vw)
            r33_g += s_vw * np.abs(y_vw)
            for t in ts:
                phase = np.exp(-1j * t / sig * y_vw) - 1.0
                inner42[t] += xvxw * phase
                inner43[t] += s_vw * phase

    def mean(z):
        return np.sum(weight * z)

    def var(z):
        return float(np.sum(weight * np.abs(z - mean(z)) ** 2))

    return {
        "r1": float(mean(r1_g)),
        "r32": float(mean(r32_g)) / sig**3,
        "r33": float(mean(r33_g)) / sig**3,
        "r41": {t: var(inner41[t]) for t in ts},
        "r42": {t: var(inner42[t] / sig**2) for t in ts},
        "r43": {t: var(inner43[t] / sig**2) for t in ts},
    }


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_exact_r_terms(res, ts) -> list[str]:
    """Output of oracle.exact_r_terms(n, p, grid) at two points of its grid."""
    own = r_terms_by_sets(res.n, res.p, ts)
    pairs = [("r1", res.r1, own["r1"]), ("r31", res.r31, own["r1"]),
             ("r32", res.r32, own["r32"]), ("r33", res.r33, own["r33"])]
    for t in ts:
        for name in ("r41", "r42", "r43"):
            pairs.append((f"{name}({t:.4g})", getattr(res, f"{name}_by_t")[t], own[name][t]))
    return [
        f"{name}: oracle {a!r} vs recomputed {b!r}"
        for name, a, b in pairs
        if _rel_diff(a, b) > EXACT_RTOL
    ]


# ---------------------------------------------------------------------------
# Oracle identities and the enumerated law
# ---------------------------------------------------------------------------


def check_couplings_report(rep) -> list[str]:
    fails = []
    residuals = dict(rep.eq5_residuals)
    residuals.update({f"weak_{k}": v for k, v in rep.weak_extended_residuals.items()})
    residuals["per_graph_gd"] = rep.per_graph_gd_residual
    for name, r in residuals.items():
        if not r <= RESIDUAL_LIMIT:
            fails.append(f"coupling residual {name} = {r!r}")
    for name, e_s in (("enumerated", rep.e_s_enumerated), ("analytic", rep.e_s_analytic)):
        if not abs(e_s - 1.0) <= E_S_LIMIT:
            fails.append(f"E S ({name}) = {e_s!r}")
    return fails


def check_ode(chk) -> list[str]:
    if not chk.residual <= RESIDUAL_LIMIT:
        return [f"ODE residual {chk.residual!r} at t = {chk.t}"]
    return []


def check_law_and_dk(dist, dk: float) -> list[str]:
    """The enumerated law of T, and exact_dk recomputed from its atoms."""
    fails = []
    t = np.array([a for a, _ in dist.atoms], dtype=np.float64)
    q = np.array([b for _, b in dist.atoms])
    mean_t, var_t = triangle_moments(dist.n, dist.p)
    mass = math.fsum(q)
    mean = math.fsum(t * q)
    var = math.fsum((t - mean) ** 2 * q)
    if abs(mass - 1.0) > 1e-12:
        fails.append(f"law mass {mass!r}")
    if _rel_diff(mean, mean_t) > 1e-12 or _rel_diff(var, var_t) > 1e-10:
        fails.append(f"law mean/var {mean!r}/{var!r} vs {mean_t!r}/{var_t!r}")
    x = (t - mean_t) / math.sqrt(var_t)
    phi = stats.norm.cdf(x)
    cdf = np.cumsum(q)
    own_dk = float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(cdf - q - phi))))
    if abs(own_dk - dk) > 1e-12:
        fails.append(f"exact_dk {dk!r} vs {own_dk!r} from the atoms")
    return fails


# ---------------------------------------------------------------------------
# Coupling record and estimator consistency
# ---------------------------------------------------------------------------


def check_coupling_record(rec) -> list[str]:
    fails = []
    ex = rec.extra
    numbers = {f"r_values.{k}": v for k, v in ex["r_values"].items()}
    numbers.update({f"std_errors.{k}": v for k, v in ex["std_errors"].items()})
    for name, v in numbers.items():
        if not (math.isfinite(v) and v > 0):
            fails.append(f"coupling record {name} = {v!r}")
    if set(ex["r_values"]) != {"r3", "r4"}:
        fails.append(f"coupling record r-terms {sorted(ex['r_values'])}")
    if not (math.isfinite(rec.value) and rec.value >= ex["empirical_dk"]):
        fails.append(f"bound {rec.value!r} below empirical d_K {ex['empirical_dk']!r}")
    return fails


def check_estimator_consistency(n: int, p: float, samples: int, seed: int) -> list[str]:
    """estimate_r against exact_r_terms on the components of acceptance
    criterion 5: r1, r2 at t = 1, r31, r32, r33."""
    ex = oracle.exact_r_terms(n, p, [1.0])
    est3 = coupling.estimate_r(n, p, samples, [1.0], "r3", seed)
    pairs = [
        ("r1", coupling.estimate_r(n, p, samples, [1.0], "r1", seed)["r1"], ex.r1),
        ("r2(1)", coupling.estimate_r(n, p, samples, [1.0], "r2", seed)["r2"], ex.r2_by_t[1.0]),
        ("r31", est3["r31"], ex.r31),
        ("r32", est3["r32"], ex.r32),
        ("r33", est3["r33"], ex.r33),
    ]
    return [
        f"estimate_r {name} = {e.value:.6g} +- {e.std_error:.2g}, exact {x:.6g}"
        for name, e, x in pairs
        if not abs(e.value - x) <= BATCH_SE_LIMIT * e.std_error
    ]

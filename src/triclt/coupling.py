"""Inner expectations of the coupling given the graph, and r-term estimators.

For a graph, the inner conditional expectations over (V, V') are computed
exactly by `inner_terms` (sums over all triples / neighbour pairs); the
exact oracle reduces the same per-graph `site_counts` over all graphs with
their weights, so Monte Carlo randomness enters only through the graph.

The sums are taken in histogram form.  With nu = 3(n-3)+1, the local sums
are integer triangle counts less fixed multiples of p^3:

    Y_v     = K_v     - nu p^3          (K_v: triangles in nu_v)
    Y_{v,w} = K_{v,w} - (2nu - n) p^3   (K_{v,w}: triangles in nu_v u nu_w, w != v)

so a sum over triples or pairs of c * f(Y), with a weight c fixed by the
triangle bits of v (and w), equals sum_k H_k c f(k - offset) over integer
counts H that do not depend on t.  Since Y_{v,w} = Y_{w,v} and the weight is
symmetric in (v, w), each unordered pair is listed once, its counts doubled.
The counts are formed in int16, exact below n = 2048.  Each graph
costs one bincount over its pairs and a small matmul with tables over k,
not a complex exp per pair and t.  Estimators:

* r1, r3 components: exact per-graph averages, then a plain MC mean;
* r2, r4 components: a complex graph functional per sample, whose variance
  across graphs (divided by |t| or t^2) is the estimate; the sup over t is
  taken on a recorded grid.

`estimate_r` draws each graph once for all the families it is asked for,
over the same counter-based streams as `cli.sample_w`, and also returns the
graphs' W, so a coupling record's r-terms and empirical d_K come from the
same graphs.  Each standard error is the batch SE of the statistic's own
values on 16 contiguous batches, so a family and a sup over t have their own.
Everything is a pure function of (seed, streams, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError
from .graphs import triple_basis
from .moments import BoundInputs, exact_moments, regime_rates, theorem2_bound
from .sampler import gnp_edge_bits, stream_chunks

N_BATCHES = 16
DEFAULT_T_GRID = tuple(np.geomspace(1e-2, 10.0, 24).tolist())


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def phi_kernel(x):
    """phi(x) = (e^{ix} - 1 - ix)/x, phi(0) = 0; 1/2-Lipschitz.

    Below |x| = 1e-4 the direct form loses ~8 digits to cancellation, so a
    degree-3 series (error < |x|^4/120) takes over.
    """
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.exp(1j * xs) - 1.0 - 1j * xs) / np.where(xs == 0.0, 1.0, xs)
    series = -x / 2.0 - 1j * x * x / 6.0 + x**3 / 24.0
    return np.where(small, series, direct)


def psi_kernel(x):
    """psi(x) = e^{ix} - 1; 1-Lipschitz."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(1j * x) - 1.0


# ---------------------------------------------------------------------------
# Inner expectations given the graph
# ---------------------------------------------------------------------------

# per-graph components of the r-terms.  A per-t component reduces at each t
# to sqrt(Var over graphs)/|t|^power, with its power here; the others reduce
# to means over graphs.
COMPONENTS = ("r1", "r2", "r32", "r33", "r41", "r42", "r43")
T_POWERS = {"r2": 1, "r41": 2, "r42": 1, "r43": 1}
# each r-term family as weights on its components, a per-t component
# entering by its sup over the t-grid: r3 = r1/2 + r32 + r33 and r4 is the
# sum of the sups of r41, r42 and r43
FAMILIES = {
    "r1": {"r1": 1.0},
    "r2": {"r2": 1.0},
    "r3": {"r1": 0.5, "r32": 1.0, "r33": 1.0},
    "r4": {"r41": 1.0, "r42": 1.0, "r43": 1.0},
}
# elements per (graphs x pairs) block in site_counts, and per (graphs x
# triples) chunk of graph_chunk: every temporary stays near 4 MiB
BLOCK = 1 << 18


def graph_chunk(n_triples: int) -> int:
    """Graphs per chunk in estimate_r, the exact oracle and the mc pattern check."""
    return max(1, min(4096, BLOCK // n_triples))


def compose(family: str, parts: dict):
    """The FAMILIES-weighted sum of a family's component values, a per-t
    component (last axis over the t-grid) entering by its max over the grid.
    Values may carry a leading batch axis: then so does the sum."""
    return sum(
        wt * (np.max(parts[c], axis=-1) if c in T_POWERS else parts[c])
        for c, wt in FAMILIES[family].items()
    )


def batch_se(values) -> np.ndarray:
    """Standard error of the mean of per-batch values (leading axis)."""
    return np.std(values, axis=0, ddof=1) / math.sqrt(len(values))


def _code_histogram(
    code: np.ndarray, width: int, flat: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-row counts of the integer codes 0..width-1 in block `code` (rows =
    graphs), as an (m, width) int64 array: one bincount over the codes
    offset by row * width.  The offset codes are written to `flat` when it
    is given, an intp buffer of at least code.size entries; reusing one
    buffer across blocks spares a fresh allocation per block, which cost as
    much as the bincount itself."""
    m = code.shape[0]
    flat = np.empty(code.size, dtype=np.intp) if flat is None else flat[: code.size]
    np.add(code, np.arange(0, m * width, width)[:, None], out=flat.reshape(code.shape))
    return np.bincount(flat, minlength=m * width).reshape(m, width)


def outer_rows(*parts: tuple) -> np.ndarray:
    """Stack of class-weight x K-table outer products, one row per histogram
    column: parts are (weights per class, values per K [x t or T]) pairs."""
    return np.concatenate(
        [np.multiply.outer(wt, f).reshape(-1, *f.shape[1:]) for wt, f in parts]
    )


def _count_matmul(h: np.ndarray, table: np.ndarray) -> np.ndarray:
    """h @ table for real counts h as one real matmul: a complex table is
    viewed as interleaved real and imaginary columns, so h is never cast."""
    if not np.iscomplexobj(table):
        return h @ table
    return (h @ table.view(np.float64)).view(np.complex128)


def site_values(n: int, p: float) -> tuple:
    """What a `site_counts` column stands for: X_v by b_v, X_v X_w by
    b_v + b_w, Y_v by K_v and Y_{v,w} by K_{v,w}, as four arrays."""
    p3, nu = p**3, 3 * (n - 3) + 1
    x_b = np.array([-p3, 1.0 - p3])
    xx_c = np.array([x_b[0] * x_b[0], x_b[0] * x_b[1], x_b[1] * x_b[1]])
    return x_b, xx_c, *(np.arange(k + 1) - k * p3 for k in (nu, 2 * nu - n))


def term_tables(n: int, p: float, t_grid: Sequence[float]) -> dict:
    """The summand of each inner_terms component, tabled over the histogram
    columns: one row per (b_v, K_v), b_v-major, and for the pair components
    r32, r33, r42 and r43 then one row per (b_v + b_w, K_{v,w}).  Counts @
    table gives the component; a per-t component's table holds a complex
    column per t, the others are real vectors.
    """
    mom = exact_moments(n, p)
    sig = mom.sigma
    t = np.asarray(t_grid, dtype=np.float64)

    # tables over K, and the class weights: X_v by b_v, X_v X_w by b_v + b_w
    x_b, xx_c, y1, y2 = site_values(n, p)
    ph1 = np.exp(-1j * t / sig * y1[:, None]) - 1.0
    ph2 = np.exp(-1j * t / sig * y2[:, None]) - 1.0
    xx_b = x_b * x_b
    var_b = np.full(2, mom.var_x)
    cov_c = np.full(3, mom.cov_overlap2)
    return {
        "r1": outer_rows((np.abs(x_b), y1 * y1)) / sig**3,
        "r2": -outer_rows((x_b, ph1)) / sig,
        "r41": -outer_rows((x_b, ph1 + 1j * t / sig * y1[:, None])) / sig,
        "r32": outer_rows((xx_b, np.abs(y1)), (np.abs(xx_c), np.abs(y2))) / sig**3,
        "r33": outer_rows((var_b, np.abs(y1)), (cov_c, np.abs(y2))) / sig**3,
        "r42": outer_rows((xx_b, ph1), (xx_c, ph2)) / sig**2,
        "r43": outer_rows((var_b, ph1), (cov_c, ph2)) / sig**2,
    }


def site_counts(bits: np.ndarray, n: int, pairs: bool) -> np.ndarray:
    """Each graph's integer site counts, one row per row of the triangle-bit
    block `bits` (graphs x triples, uint8 0/1, as from
    `TripleBasis.triangle_bits`): the triples v by (b_v, K_v), b_v-major,
    then if `pairs` is set the ordered neighbour pairs v != w by
    (b_v + b_w, K_{v,w}), each unordered pair of the list counted twice;
    int64, one column per row of `term_tables`.  Pairs run in blocks, so
    memory is O(m * n_triples + BLOCK).  Raises InputError unless bits is
    a 2-D uint8 array of 0s and 1s with C(n, 3) columns.
    """
    tb = triple_basis(n)
    if bits.dtype != np.uint8 or bits.ndim != 2 or bits.shape[1] != tb.n_triples:
        raise InputError(f"bits must be 2-D uint8 with {tb.n_triples} columns for n={n}")
    if np.any(bits > 1):
        raise InputError("bits must hold triangle bits: 0 or 1")
    m = bits.shape[0]
    nu = tb.nu_size
    nu2 = 2 * nu - n

    s_count, k_v = tb.y_matrix(bits)
    # every count and code below, intermediates included, is at most
    # 2 (nu + nu2 + 1) = 16n - 46, so int16 is exact for n < 2048, past any
    # n whose TripleBasis fits in memory (C(2048, 3) = 1.4e9 triples)
    b, s_count, k_v = (a.astype(np.int16) for a in (bits, s_count, k_v))
    h1 = _code_histogram(b * (nu + 1) + k_v, 2 * (nu + 1))
    if not pairs:
        return h1
    # given K + b (nu2 + 1) in place of K, ypair_columns adds
    # (b_v + b_w)(nu2 + 1) to K_{v,w}: it returns the histogram code
    width = 3 * (nu2 + 1)
    z = k_v + b * (nu2 + 1)
    step = max(1, BLOCK // m)
    flat = np.empty(m * step, dtype=np.intp)
    h2 = np.zeros((m, width), dtype=np.int64)
    for lo in range(0, tb.n_pairs, step):
        code = tb.ypair_columns(b, s_count, z, slice(lo, lo + step))
        h2 += _code_histogram(code, width, flat)
    return np.hstack([h1, 2 * h2])


def inner_terms(
    bits: np.ndarray, n: int, p: float, t_grid: Sequence[float], terms: Iterable[str]
) -> dict:
    """Inner expectations over (V, V') given the graph, one per row of the
    triangle-bit block `bits` (graphs x triples, uint8 0/1, as from
    `TripleBasis.triangle_bits`), with X_v = b_v - p^3 and s = sd(T):

        r1  -> E^g[|G| D^2]             = (1/s^3) sum_v |X_v| Y_v^2
        r2  -> E^g[G (e^{itD} - 1)]     = -(1/s) sum_v X_v (e^{-itY_v/s} - 1)
        r41 -> E^g[G (e^{itD} - 1 - itD)]
        r32 -> E^g[|G D~| |D'|]         = (1/s^3) sum_{v, w in nu_v} |X_v X_w| |Y_{v,w}|
        r33 -> E^g[S |D'|]              = (1/s^3) sum sigma_{v,w} |Y_{v,w}|
        r42 -> E^g[G D~ (e^{itD'} - 1)] = (1/s^2) sum X_v X_w (e^{-itY_{v,w}/s} - 1)
        r43 -> E^g[S (e^{itD'} - 1)]    = (1/s^2) sum sigma_{v,w} (...)

    Histogram form (module docstring): a summand depends only on
    (b_v, K_v), or for w != v on (b_v + b_w, K_{v,w}), and w = v reuses
    (b_v, K_v).  A component is the graph's `site_counts` @ its
    `term_tables` table, the same bit for bit as with float64 counts over
    every ordered pair.

    `terms` names the components wanted.  Each comes back as a real (m,)
    array, or for the per-t components a complex (m, len(t_grid)) array;
    pairs are counted only for a pair component.  Raises InputError as
    `site_counts` does.
    """
    terms = set(terms)
    if not terms <= set(COMPONENTS):
        raise InputError(f"unknown components {sorted(terms - set(COMPONENTS))}")
    tables = term_tables(n, p, t_grid)
    # a table with rows past the (b_v, K_v) block also sums over pairs
    width = len(tables["r1"])
    pair_terms = {name for name in terms if len(tables[name]) > width}
    h = site_counts(bits, n, bool(pair_terms)).astype(np.float64)
    return {name: _count_matmul(h if name in pair_terms else h[:, :width], tables[name])
            for name in terms}


# ---------------------------------------------------------------------------
# Monte Carlo r-term estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RTermEstimate:
    value: float
    std_error: float
    samples: int
    t: Optional[float] = None


def batch_edges(samples: int) -> np.ndarray:
    """Boundaries of N_BATCHES contiguous batches covering `samples` draws;
    the first samples % N_BATCHES batches take one draw more."""
    share, extra = divmod(samples, N_BATCHES)
    return np.array([b * share + min(b, extra) for b in range(N_BATCHES + 1)])


class _BatchMoments:
    """Per-batch sums of a per-graph statistic (real, or complex per t) and
    of its squared modulus.  Graphs arrive in chunks, each at its position
    in the merged sample order; the state is O(batches x |t-grid|)."""

    def __init__(self, edges: np.ndarray, shape: tuple = ()):
        self.edges = edges
        self.sum = np.zeros((len(edges) - 1, *shape), dtype=np.complex128)
        self.sumsq = np.zeros((len(edges) - 1, *shape))

    def add(self, pos: int, values: np.ndarray) -> None:
        for b in range(len(self.edges) - 1):
            lo = max(self.edges[b], pos) - pos
            hi = min(self.edges[b + 1], pos + len(values)) - pos
            if lo < hi:
                self.sum[b] += values[lo:hi].sum(axis=0)
                self.sumsq[b] += (np.abs(values[lo:hi]) ** 2).sum(axis=0)

    def mean(self) -> tuple[float, np.ndarray]:
        """Mean of a real statistic, and its per-batch means."""
        return self.sum.real.sum() / self.edges[-1], self.sum.real / np.diff(self.edges)

    def sd(self, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(Var across graphs)/scale per t, and the same statistic per
        batch (leading axis)."""
        counts = np.diff(self.edges)[:, None]
        mean = self.sum.sum(axis=0) / self.edges[-1]
        var = np.maximum(self.sumsq.sum(axis=0) / self.edges[-1] - np.abs(mean) ** 2, 0.0)
        batch_var = np.maximum(
            self.sumsq / counts - np.abs(self.sum / counts) ** 2, 0.0
        )
        return np.sqrt(var) / scale, np.sqrt(batch_var) / scale


def estimate_r(
    n: int,
    p: float,
    samples: int,
    t_grid: Sequence[float],
    which: str | Sequence[str],
    seed: int,
    streams: int = 1,
) -> dict:
    """MC estimates of the requested r-term families.

    which = 'r1' | 'r2' | 'r3' | 'r4', or a tuple of these, all estimated
    from one pass over the same graphs.  The graphs follow sample_w's split
    over `streams` counter-based streams.  Returns a dict of RTermEstimate
    values (per-t lists for r2/r4) keyed by component name, plus under 'w'
    the standardised triangle counts W of the graphs drawn, in sample_w's
    order.
    """
    names = (which,) if isinstance(which, str) else tuple(which)
    if not names or any(name not in FAMILIES for name in names):
        raise InputError(f"unknown r-term {which!r}")
    if samples < 1000:
        raise InputError("need at least 1000 samples")
    t_grid = [float(t) for t in t_grid]
    if {"r2", "r4"} & set(names) and (not t_grid or any(t == 0.0 for t in t_grid)):
        raise InputError("r2/r4 need a nonempty t_grid without 0")

    tb = triple_basis(n)
    mom = exact_moments(n, p)
    chunks = stream_chunks(n, p, seed, samples, streams, graph_chunk(tb.n_triples))
    terms = {c for name in names for c in FAMILIES[name]}
    edges = batch_edges(samples)
    accs = {
        c: _BatchMoments(edges, (len(t_grid),) if c in T_POWERS else ())
        for c in terms
    }
    w = np.empty(samples, dtype=np.float64)
    for cfg, start, count, pos in chunks:
        tri = tb.triangle_bits(gnp_edge_bits(cfg, start, count))
        w[pos : pos + count] = (tri.sum(axis=1, dtype=np.int64) - mom.mean_t) / mom.sigma
        for c, values in inner_terms(tri, n, p, t_grid, terms).items():
            accs[c].add(pos, values)

    def est(value, se, t=None) -> RTermEstimate:
        return RTermEstimate(value=float(value), std_error=float(se), samples=samples, t=t)

    # each component's full-sample and per-batch values: every SE is the
    # batch SE of the per-batch values of the statistic it belongs to
    out: dict = {"w": w}
    full, batches, parts = {}, {}, {}
    for c in terms - set(T_POWERS):
        full[c], batches[c] = accs[c].mean()
        parts[c] = est(full[c], batch_se(batches[c]))
    for c, power in T_POWERS.items():
        if c in terms:
            full[c], batches[c] = accs[c].sd(np.abs(t_grid) ** power)
            ses = batch_se(batches[c])
            out[f"{c}_by_t"] = [est(v, se, t) for v, se, t in zip(full[c], ses, t_grid)]
            # the sup over t, with the SE of the per-batch sups
            k = int(np.argmax(full[c]))
            parts[c] = out[c] = est(full[c][k], batch_se(batches[c].max(axis=-1)), t_grid[k])
    for name, weights in FAMILIES.items():
        if name in names and len(weights) == 1:
            out[name] = parts[name]  # a bare family keeps its component's t
        elif name in names:
            # r3's r1 component is reported under its paper name, r31
            out.update(("r31" if c == "r1" else c, parts[c]) for c in weights)
            out[name] = est(compose(name, full), batch_se(compose(name, batches)))
    return out

# ---------------------------------------------------------------------------
# Bound assembly
# ---------------------------------------------------------------------------


def r3_theoretical(n: int, p: float) -> float:
    """Regime-wise closed form for the r3 scale (C = 1):
    n^5(1-p)/sigma^3 dense, n^5 p^7/sigma^3 middle, n^3 p^3/sigma^3 sparse."""
    scale = {"dense": n**5 * (1.0 - p), "middle": n**5 * p**7, "sparse": n**3 * p**3}
    return scale[regime_rates(n, p).regime] / exact_moments(n, p).sigma**3


@dataclass(frozen=True)
class BoundReport:
    n: int
    p: float
    form: str
    regime: str
    thm1_rate: float
    r3_theory: float
    r_values: dict
    r_tilde: float
    r_tilde_policy: str
    r_tilde_adjusted: bool
    bound: float


# the plain r-term paired with the free parameter r~, and the tail term
_FORM_TERMS = {"simple": ("r1", "r2"), "extended": ("r3", "r4")}


def assemble_bound(
    n: int,
    p: float,
    estimates: dict,
    r_tilde_policy: str = "theoretical",
    form: str = "extended",
) -> BoundReport:
    """Assemble the coupling Kolmogorov bound from r-term estimates.

    estimates maps component names ('r1', 'r2', 'r3', 'r4') to
    RTermEstimate.  The free parameter r~ (r1~ in the simple form, r3~ in
    the extended one) is the closed-form r3 rate under the theoretical
    policy, or the estimate of its plain r-term under the estimate policy.
    If r~ falls below that estimate, the report flags the violation and
    uses the estimate, so the bound stays valid.
    """
    if form not in _FORM_TERMS:
        raise InputError(f"unknown form {form!r}")
    if r_tilde_policy not in ("estimate", "theoretical"):
        raise InputError(f"unknown policy {r_tilde_policy!r}")
    plain, tail = _FORM_TERMS[form]
    for key in (plain, tail):
        if key not in estimates:
            raise InputError(f"{form} form needs {key!r} estimate")
    rates = regime_rates(n, p)
    r3_th = r3_theoretical(n, p)
    r = estimates[plain].value
    r_tilde = r3_th if r_tilde_policy == "theoretical" else r
    adjusted = r_tilde < r
    r_tilde = max(r_tilde, r)
    inputs = BoundInputs(**{plain: r, f"{plain}_tilde": r_tilde, tail: estimates[tail].value})
    return BoundReport(
        n=n,
        p=p,
        form=form,
        regime=rates.regime,
        thm1_rate=rates.thm1_rate,
        r3_theory=r3_th,
        r_values={k: v.value for k, v in estimates.items()},
        r_tilde=r_tilde,
        r_tilde_policy=r_tilde_policy,
        r_tilde_adjusted=adjusted,
        bound=theorem2_bound(inputs, form),
    )

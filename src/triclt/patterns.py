"""Four-triangle overlap patterns: classification, enumeration, bound checks.

A pattern is an unordered pair of (base, satellite) triples
{(v, w), (v', w')} with w in nu_v and w' in nu_{v'}.  Its covariance bound
family is selected by the overlap structure:

    L10:  |v & v'| = 1 and (w & w') \\ (v & v') = empty
    L11:  (v + w) & (v' + w') = empty
    L12:  |v & v'| = 0 and |(v + w) & (v' + w')| = 1
    L9:   everything else

with bound families (C = 1 convention, prefactor ||f'|| ||g'||)

    min{n^a (1-p), sum_{i <= a} n^i p^{m + offset + 2i}}

where m is the number of distinct edges induced by the four triples and
`LEMMA_FAMILY` gives (a, offset) per tag: (2, 0) for L9, (1, 1) for L10 and
L12, (0, 3) for L11.  The "small-p leading exponent" of a class is m + offset.

Isomorphism classes are computed over all relabelings; the canonical search
is pruned by vertex role signatures (which isomorphisms must preserve), so
the worst case stays tiny on the <= 8 vertex universe of an anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product
from typing import Sequence

import numpy as np

from .errors import CapacityError, InputError
from .graphs import (
    TripleId,
    edge_union_size,
    neighborhood,
    triple_basis,
    triple_edges,
    triple_rank,
)
from .moments import exact_moments
from .coupling import batch_edges, batch_se, graph_chunk, phi_kernel, psi_kernel
from .sampler import gnp_edge_bits, stream_chunks
from . import oracle as _oracle

MAX_PATTERN_VERTICES = 9

ANCHORS: dict[str, tuple[TripleId, TripleId]] = {
    "r411": ((0, 1, 2), (0, 1, 2)),
    "r412": ((0, 1, 2), (0, 1, 3)),
    "r413": ((0, 1, 2), (0, 3, 4)),
    "r414": ((0, 1, 2), (3, 4, 5)),
}
# the r_{4,2,x} expansions produce the same pattern sets
for _k in ("r421", "r422", "r423", "r424"):
    ANCHORS[_k] = ANCHORS["r41" + _k[-1]]

# lemma tag -> (a, offset) of its bound family (module docstring)
LEMMA_FAMILY = {"L9": (2, 0), "L10": (1, 1), "L11": (0, 3), "L12": (1, 1)}


def _n_power(i: int) -> str:
    """The factor n^i of a bound string, with its trailing space."""
    return ("", "n ")[i] if i < 2 else f"n^{i} "


@dataclass(frozen=True)
class PatternConfig:
    v: TripleId
    w: TripleId
    vp: TripleId
    wp: TripleId

    def __post_init__(self) -> None:
        span = set(self.v) | set(self.w) | set(self.vp) | set(self.wp)
        if max(span) >= MAX_PATTERN_VERTICES:
            raise CapacityError(
                f"pattern labels must fit in [0, {MAX_PATTERN_VERTICES})"
            )
        for t in (self.v, self.w, self.vp, self.wp):
            if not (t[0] < t[1] < t[2]):
                raise InputError(f"triple {t} must be strictly ascending")
        if len(set(self.w) & set(self.v)) < 2:
            raise InputError("w must share >= 2 vertices with v")
        if len(set(self.wp) & set(self.vp)) < 2:
            raise InputError("w' must share >= 2 vertices with v'")

    def triples(self) -> tuple[TripleId, TripleId, TripleId, TripleId]:
        return (self.v, self.w, self.vp, self.wp)


@dataclass(frozen=True)
class PatternClass:
    canonical: tuple
    m: int
    multiplicity_order: int
    lemma_tag: str
    representative: PatternConfig

    @property
    def small_p_exponent(self) -> int:
        return self.m + LEMMA_FAMILY[self.lemma_tag][1]

    @property
    def bound_small_p(self) -> str:
        a, e = LEMMA_FAMILY[self.lemma_tag][0], self.small_p_exponent
        return " + ".join(f"{_n_power(i)}p^{e + 2 * i}" for i in range(a + 1))

    @property
    def bound_large_p(self) -> str:
        a = LEMMA_FAMILY[self.lemma_tag][0]
        return f"{_n_power(a)}(1-p)" if a else "1-p"


def _lemma_tag(cfg: PatternConfig) -> str:
    v, w, vp, wp = (set(t) for t in cfg.triples())
    base_overlap = v & vp
    hull_overlap = (v | w) & (vp | wp)
    if len(base_overlap) == 1 and not ((w & wp) - base_overlap):
        return "L10"
    if not hull_overlap:
        return "L11"
    if not base_overlap and len(hull_overlap) == 1:
        return "L12"
    return "L9"


def _signatures(cfg: PatternConfig) -> dict[int, tuple]:
    """Vertex role signature: multiset over the two (base, satellite) pairs
    of the membership bit-pairs.  Invariant under isomorphism."""
    sig = {}
    verts = set(cfg.v) | set(cfg.w) | set(cfg.vp) | set(cfg.wp)
    for x in verts:
        roles = sorted(
            [
                (x in cfg.v, x in cfg.w),
                (x in cfg.vp, x in cfg.wp),
            ]
        )
        sig[x] = tuple(roles)
    return sig


def _pattern_key(cfg: PatternConfig, relabel: dict[int, int]) -> tuple:
    def t(tr: TripleId) -> tuple:
        return tuple(sorted(relabel[x] for x in tr))

    return tuple(sorted([(t(cfg.v), t(cfg.w)), (t(cfg.vp), t(cfg.wp))]))


def canonical_form(cfg: PatternConfig) -> tuple:
    """Minimum structure key over all signature-respecting relabelings.

    Any isomorphism preserves vertex signatures, so restricting candidate
    bijections to map signature classes onto each other is lossless: each
    class, in signature order, takes the next block of labels in every order.
    """
    classes: dict[tuple, list[int]] = {}
    for x, s in _signatures(cfg).items():
        classes.setdefault(s, []).append(x)
    blocks = [members for _, members in sorted(classes.items())]
    return min(
        _pattern_key(cfg, {x: lab for lab, x in enumerate(chain.from_iterable(order))})
        for order in product(*map(permutations, blocks))
    )


def classify_pattern(cfg: PatternConfig) -> PatternClass:
    """Lemma tag, edge-union exponent m, and the generic-vertex multiplicity
    order n^k (vertices of w, w' outside the anchor pair v, v')."""
    generic = (set(cfg.w) | set(cfg.wp)) - (set(cfg.v) | set(cfg.vp))
    return PatternClass(
        canonical=canonical_form(cfg),
        m=edge_union_size(cfg.triples()),
        multiplicity_order=len(generic),
        lemma_tag=_lemma_tag(cfg),
        representative=cfg,
    )


def enumerate_classes(anchor: str) -> list[PatternClass]:
    """All isomorphism classes of (w, w') completions of the anchor base
    pair, with two spare generic vertices available to each satellite."""
    if anchor not in ANCHORS:
        raise InputError(f"unknown anchor {anchor!r}; choose from {sorted(ANCHORS)}")
    v, vp = ANCHORS[anchor]
    # the anchors' labels are 0..max, so the two spare vertices come next
    n_univ = max(v + vp) + 3
    completions = {base: sorted(neighborhood(base, n_univ), key=triple_rank) for base in (v, vp)}
    groups: dict[tuple, PatternClass] = {}
    for w in completions[v]:
        for wp in completions[vp]:
            cls = classify_pattern(PatternConfig(v=v, w=w, vp=vp, wp=wp))
            # the first class found stays the representative
            groups.setdefault(cls.canonical, cls)
    return sorted(groups.values(), key=lambda c: (c.small_p_exponent, c.lemma_tag, c.canonical))


# ---------------------------------------------------------------------------
# Lemma 8 moment bound check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentBoundRow:
    p: float
    exact: float
    bound: float
    ok: bool


def exact_abs_product_moment(triples: Sequence[TripleId], p: float) -> float:
    """Exact E|X_{v_1} ... X_{v_k}| by expanding the 2^m joint edge states
    of the induced edge union (edges outside it integrate out)."""
    if not triples:
        raise InputError("need at least one triple")
    edges = sorted({e for t in triples for e in triple_edges(t)})
    m = len(edges)
    if m > 20:
        raise CapacityError(f"edge union too large ({m} > 20)")
    rank = {e: i for i, e in enumerate(edges)}
    tri_masks = []
    for t in triples:
        mask = 0
        for e in triple_edges(t):
            mask |= 1 << rank[e]
        tri_masks.append(mask)

    states = np.arange(1 << m, dtype=np.uint32)
    pop = np.bitwise_count(states).astype(np.int64)
    weights = p ** pop.astype(np.float64) * (1.0 - p) ** (m - pop).astype(np.float64)
    value = np.ones(states.size, dtype=np.float64)
    for mask in tri_masks:
        present = (states & np.uint32(mask)) == np.uint32(mask)
        value *= np.where(present, 1.0 - p**3, -(p**3))
    return float(np.abs(value) @ weights)


def moment_bound_check(
    triples: Sequence[TripleId], p_grid: Sequence[float]
) -> list[MomentBoundRow]:
    """Check E|prod X| <= min{6(1-p), 2^k p^m} over a p grid (the explicit
    constants from the one-triple computation and the 2^k expansion)."""
    k = len(triples)
    if k == 0:
        raise InputError("need at least one triple")
    if k > 6:
        raise CapacityError("at most 6 triples supported")
    span = {x for t in triples for x in t}
    if max(span) >= MAX_PATTERN_VERTICES:
        raise CapacityError("vertex span exceeds 9")
    m = edge_union_size(triples)
    rows = []
    for p in p_grid:
        exact = exact_abs_product_moment(triples, p)
        bound = min(6.0 * (1.0 - p), 2.0**k * p**m)
        rows.append(MomentBoundRow(p=p, exact=exact, bound=bound, ok=exact <= bound + 1e-12))
    return rows


# ---------------------------------------------------------------------------
# Covariance bound checks (Lemmas 9-12 shape)
# ---------------------------------------------------------------------------


def lemma_bound_family(tag: str, n: int, p: float, m: int) -> float:
    """min{n^a (1-p), sum_{i <= a} n^i p^{m + offset + 2i}} for the tag's
    (a, offset) in LEMMA_FAMILY."""
    if tag not in LEMMA_FAMILY:
        raise InputError(f"unknown lemma tag {tag!r}")
    a, offset = LEMMA_FAMILY[tag]
    return min(n**a * (1 - p), sum(n**i * p ** (m + offset + 2 * i) for i in range(a + 1)))


@dataclass(frozen=True)
class CovCheckReport:
    n: int
    p: float
    t: float
    kernel: str
    mode: str
    cov_abs: float
    std_error: float
    bound_family: float
    lipschitz_product: float
    ratio: float          # cov_abs / (lipschitz_product * bound_family)
    samples: int = 0


def _pattern_arrays(cfg: PatternConfig, n: int, tri_bits: np.ndarray, p: float, f):
    """The two kernel products a = X_v X_w f(Y_{v,w}) and
    b = X_{v'} X_{w'} f(Y_{v',w'}) for a batch of graphs."""
    idx = {u: triple_rank(u) for u in (cfg.v, cfg.w, cfg.vp, cfg.wp)}
    x_of = {
        u: tri_bits[:, r].astype(np.float64) - p**3 for u, r in idx.items()
    }
    nu1 = sorted(neighborhood(cfg.v, n, cfg.w), key=triple_rank)
    nu2 = sorted(neighborhood(cfg.vp, n, cfg.wp), key=triple_rank)
    y1 = tri_bits[:, [triple_rank(u) for u in nu1]].sum(axis=1, dtype=np.float64)
    y1 -= len(nu1) * p**3
    y2 = tri_bits[:, [triple_rank(u) for u in nu2]].sum(axis=1, dtype=np.float64)
    y2 -= len(nu2) * p**3
    return x_of[cfg.v] * x_of[cfg.w] * f(y1), x_of[cfg.vp] * x_of[cfg.wp] * f(y2)


def pattern_cov_check(
    cls: PatternClass,
    n: int,
    p: float,
    t: float,
    mode: str = "exact",
    samples: int = 0,
    kernel: str = "phi",
    seed: int = 0,
) -> CovCheckReport:
    """Measure |Cov(X_v X_w f(Y_{v,w}), X_{v'} X_{w'} g(Y_{v',w'}))| with
    f = g the phi (or psi) kernel evaluated at t x / sigma, and report the
    ratio against the class's lemma bound family.

    exact mode enumerates all graphs (n <= 7); mc mode draws `samples`
    graphs from one counter-based stream of `seed`, with 16-batch standard
    errors.
    """
    cfg = cls.representative
    span = {x for tr in cfg.triples() for x in tr}
    if max(span) >= n:
        raise InputError(f"pattern needs n > {max(span)}")
    mom = exact_moments(n, p)
    sigma = mom.sigma
    if kernel == "phi":
        kern, lip = phi_kernel, abs(t) / (2.0 * sigma)
    elif kernel == "psi":
        kern, lip = psi_kernel, abs(t) / sigma
    else:
        raise InputError(f"unknown kernel {kernel!r}")
    lip_prod = lip * lip
    fam = lemma_bound_family(cls.lemma_tag, n, p, cls.m)

    def f(y):
        return kern(t * y / sigma)

    if mode == "exact":
        arr = _oracle.oracle_arrays(n)
        w = _oracle.graph_weights(n, p, arr.popcount)
        a, b = _pattern_arrays(cfg, n, arr.tri_bits, p, f)
        mean_a = _oracle.fsum_complex(w * a)
        mean_b = _oracle.fsum_complex(w * b)
        cov = _oracle.fsum_complex(w * (a - mean_a) * np.conj(b - mean_b))
        cov_abs = abs(cov)
        se = 0.0
        nsamp = 0
    elif mode == "mc":
        if samples < 10_000:
            raise InputError("mc mode needs samples >= 10^4")
        tb = triple_basis(n)
        a = np.empty(samples, dtype=np.complex128)
        b = np.empty_like(a)
        chunks = stream_chunks(n, p, seed, samples, 1, graph_chunk(tb.n_triples))
        for cfg_s, start, count, pos in chunks:
            tri = tb.triangle_bits(gnp_edge_bits(cfg_s, start, count))
            a[pos : pos + count], b[pos : pos + count] = _pattern_arrays(cfg, n, tri, p, f)
        edges = batch_edges(samples)
        covs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            da = a[lo:hi] - a[lo:hi].mean()
            db = b[lo:hi] - b[lo:hi].mean()
            covs.append(np.mean(da * np.conj(db)))
        # |mean| of the batch covariances, with the SE of that complex mean
        cov_abs = float(abs(np.mean(covs)))
        se = float(batch_se(covs))
        nsamp = samples
    else:
        raise InputError(f"unknown mode {mode!r}")

    return CovCheckReport(
        n=n,
        p=p,
        t=t,
        kernel=kernel,
        mode=mode,
        cov_abs=cov_abs,
        std_error=se,
        bound_family=fam,
        lipschitz_product=lip_prod,
        ratio=cov_abs / (lip_prod * fam),
        samples=nsamp,
    )

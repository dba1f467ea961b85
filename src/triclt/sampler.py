"""Deterministic, stream-splittable sampling of G(n,p) and the proxy model.

All randomness comes from a counter-based construction: the 64-bit value of
any draw is ``finalize(key + GOLDEN * counter)`` where ``finalize`` is the
splitmix64 output mix, ``key`` is derived from (seed, stream, purpose) and
``counter`` encodes (sample index, within-sample offset).  This makes every
sample a pure function of (config, index) -- workers can generate disjoint
index ranges in any order and reproduce any single draw in isolation.

Every counter stream is mixed in blocks of 2^16 counters (``_BLOCK``): the
uint64 block and its shift temporary, 512 KiB each, stay in L2, so a chunk
of millions of counters costs about 5 ns a counter instead of the 22-26 ns
of one pass over 16-33 MiB.  Each word depends on its counter alone, so the
block size never shows in any output; it is a constant, not a parameter.

Edge bits are uniform 64-bit values thresholded against floor(p * 2^64); the
resulting Bernoulli bias is below 2^-64, negligible against Monte Carlo
error at any attainable sample count.

The proxy model replaces each triangle indicator with I_{ij} * I_{ijk} where
I_{ij} ~ Be(p) is owned by the two smallest labels of the triple and
I_{ijk} ~ Be(p^2), all independent.  Given the pair (i, j), the inner sum
over k is Binomial(n-1-j, p^2) (0-based labels), so one 53-bit key per
(pair, sample) drives an exact inverse-CDF draw of the whole group.  The
pairs are drawn group by group: the j pairs with larger label j mix only
their own (j, samples) grid of counters, from a column and a row ramp, and
look their keys up in a guide table cached per (group size, p^2).  The
table compares integer keys with the thresholds ceil(cdf * 2^53), so each
count equals the float search searchsorted(cdf, key / 2^53) bit for bit;
the few keys in far-tail buckets take that search directly.  n is capped at
MAX_PROXY_N = 1031, where the Binomial pmf's math.comb stops converting to
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InputError
from .graphs import MAX_PROXY_N, Graph, num_edges

U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)

# purpose tags keep independent uses of the same (seed, stream) decorrelated
PURPOSE_GNP_EDGE = 0
PURPOSE_PROXY_EDGE = 1
PURPOSE_PROXY_GROUP = 2

# counters per mixing block; see the module docstring
_BLOCK = 1 << 16


def _finalize(z: np.uint64) -> np.uint64:
    """splitmix64 output mix (bijective, full avalanche); scalar form.
    uint64 arithmetic wraps mod 2^64 by design."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> U64(30))) * _MIX1
        z = (z ^ (z >> U64(27))) * _MIX2
        return z ^ (z >> U64(31))


def derive_key(seed: int, stream: int, purpose: int = 0) -> np.uint64:
    """64-bit subkey for (seed, stream, purpose); each level is one
    splitmix64 step, so nearby seeds/streams give unrelated keys."""
    with np.errstate(over="ignore"):
        k = _finalize(U64(seed & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + _GOLDEN)
        k = _finalize(k + U64(stream & 0xFFFFFFFFFFFFFFFF) * _GOLDEN)
        return _finalize(k + U64(purpose) * _GOLDEN)


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """splitmix64 output mix of every word of z, in place; t is a work array of
    z's shape.  uint64 arithmetic wraps mod 2^64 by design."""
    np.right_shift(z, U64(30), out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, U64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, U64(31), out=t)
    z ^= t


def _mixed_blocks(key: np.uint64, counters: range):
    """splitmix64 words of (key + GOLDEN * counter), one block at a time.

    `counters` is a contiguous ``range``, never materialised: a block is
    GOLDEN * ramp plus one offset.  Yields (lo, hi, z) where z holds the
    words of counters[lo:hi]; z is one buffer reused for every block, so
    each block must be consumed before the next is drawn.  uint64
    arithmetic wraps mod 2^64 by design.
    """
    size = len(counters)
    z = np.empty(min(size, _BLOCK), dtype=np.uint64)
    t = np.empty_like(z)
    g_ramp = np.arange(z.size, dtype=np.uint64) * _GOLDEN
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        zb, tb = z[: hi - lo], t[: hi - lo]
        offset = (int(key) + int(_GOLDEN) * (counters.start + lo)) & _MASK64
        np.add(g_ramp[: hi - lo], U64(offset), out=zb)
        _mix(zb, tb)
        yield lo, hi, zb


@dataclass(frozen=True)
class SamplerConfig:
    """Fully determines a sample sequence: (n, p, seed, stream)."""

    n: int
    p: float
    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InputError(f"need n >= 3, got {self.n}")
        if not (0.0 < self.p < 1.0):
            raise InputError(f"p must be in (0,1), got {self.p}")
        if self.stream < 0:
            raise InputError("stream index must be >= 0")


def _threshold(p: float) -> np.uint64:
    return U64(min(int(p * 2.0**64), 2**64 - 1))


def gnp_edge_bits(cfg: SamplerConfig, start: int, count: int) -> np.ndarray:
    """Edge-indicator rows for samples start..start+count-1; shape
    (count, n(n-1)/2), dtype uint8.  Row k is a pure function of
    (cfg, start + k)."""
    if start < 0 or count < 0:
        raise InputError("start and count must be >= 0")
    ne = num_edges(cfg.n)
    key = derive_key(cfg.seed, cfg.stream, PURPOSE_GNP_EDGE)
    thresh = _threshold(cfg.p)
    bits = np.empty(count * ne, dtype=bool)
    for lo, hi, z in _mixed_blocks(key, range(start * ne, (start + count) * ne)):
        np.less(z, thresh, out=bits[lo:hi])
    return bits.view(np.uint8).reshape(count, ne)


def stream_chunks(
    n: int, p: float, seed: int, samples: int, streams: int, step: int
) -> list[tuple[SamplerConfig, int, int, int]]:
    """Split `samples` draws over `streams` counter-based streams, each cut
    into index ranges of at most `step`: a list of (cfg, start, count, pos),
    where pos is the range's offset in the merged output.  Stream s takes
    samples // streams draws, plus one for s < samples % streams; merging in
    fixed stream order makes the output independent of how the ranges would
    be scheduled."""
    if samples < 1 or streams < 1:
        raise ConfigError("samples and streams must be >= 1")
    share, extra = divmod(samples, streams)
    chunks = []
    pos = 0
    for s in range(streams):
        cfg = SamplerConfig(n=n, p=p, seed=seed, stream=s)
        size = share + (1 if s < extra else 0)
        for start in range(0, size, step):
            count = min(step, size - start)
            chunks.append((cfg, start, count, pos))
            pos += count
    return chunks


def sample_gnp(cfg: SamplerConfig, index: int) -> Graph:
    """One G(n,p) draw; bit-for-bit reproducible from (cfg, index)."""
    if index < 0:
        raise InputError("index must be >= 0")
    row = gnp_edge_bits(cfg, index, 1)[0]
    bits = 0
    for r in np.flatnonzero(row):
        bits |= 1 << int(r)
    return Graph(cfg.n, bits)


# ---------------------------------------------------------------------------
# Proxy model of the Remark: Y = sum_{i<j<k} I_{ij} I_{ijk}
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _binom_cdf(m: int, q: float) -> np.ndarray:
    """CDF of Binomial(m, q) as a length-(m+1) array (exact comb-based pmf).
    math.comb(m, j) converts to float only for m < 1030; see MAX_PROXY_N."""
    pmf = [math.comb(m, j) * q**j * (1.0 - q) ** (m - j) for j in range(m + 1)]
    cdf = np.cumsum(np.array(pmf))
    cdf[-1] = 1.0  # guard so inverse-CDF lookups never land past m
    cdf.setflags(write=False)  # the cached array is shared by every caller
    return cdf


@lru_cache(maxsize=None)
def _guide_table(m: int, q: float) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Guide table (Chen & Asau 1974) of the Binomial(m, q) inverse CDF over
    53-bit keys k: the draw of key k is searchsorted(cdf, k / 2^53, "right").

    With the integer thresholds t_i = ceil(cdf_i * 2^53), cdf_i <= k / 2^53
    exactly when t_i <= k, so the draw is the number of t_i <= k.  Keys fall
    in 2^(bit_length(m) + 3) buckets by their top bits, 8 to 16 per outcome.
    A bucket with at most one threshold answers base[b] + (k >= first[b]):
    base is the draw at its lowest key and first the next threshold.  Where
    a bucket holds two or more (the far tails), base is -2, so the sum stays
    negative and flags the key for np.searchsorted(t, k, "right").  Returns
    (shift, base, first, t), with bucket b = k >> shift.
    """
    t = np.ceil(_binom_cdf(m, q) * 2.0**53).astype(np.int64)
    shift = 53 - (m.bit_length() + 3)
    low = np.arange(1 << (53 - shift), dtype=np.int64) << shift
    below = np.searchsorted(t, low, side="right")  # t_m = 2^53 > k, so <= m
    within = np.searchsorted(t, low + ((1 << shift) - 1), side="right") - below
    base = np.where(within >= 2, -2, below).astype(np.int32)
    first = t[below]
    for table in (base, first, t):
        table.setflags(write=False)  # shared by every caller, like the cdf
    return shift, base, first, t


def _inverse_cdf(table: tuple, keys: np.ndarray) -> np.ndarray:
    """Draws, int32, of the 53-bit int64 `keys` from a _guide_table."""
    shift, base, first, t = table
    bucket = keys >> shift
    draws = base[bucket]
    draws += keys >= first[bucket]
    tails = np.flatnonzero(draws < 0)
    if tails.size:
        draws.flat[tails] = np.searchsorted(t, keys.flat[tails], side="right")
    return draws


def proxy_samples(cfg: SamplerConfig, start: int, count: int) -> np.ndarray:
    """Draws of the proxy statistic Y for samples start..start+count-1.

    Pair (i, j), i < j, owns the triples {i, j, k} with k > j, so its group
    is I_{ij} * Binomial(n-1-j, p^2); groups are independent across pairs.
    Pair (i, j) of sample s has counter s * C(n,2) + j(j-1)/2 + i, for its
    edge bit and its group's key alike.  The j pairs of larger label j are
    drawn together, as a (j, samples) grid of at most _BLOCK counters built
    from a column and a row ramp, and looked up in one guide table.
    """
    if start < 0 or count < 0:
        raise InputError("start and count must be >= 0")
    n, p = cfg.n, cfg.p
    if n > MAX_PROXY_N:
        raise InputError(f"the proxy sampler needs n <= {MAX_PROXY_N}, got {n}")
    npairs = num_edges(n)
    edge_key = int(derive_key(cfg.seed, cfg.stream, PURPOSE_PROXY_EDGE))
    group_key = int(derive_key(cfg.seed, cfg.stream, PURPOSE_PROXY_GROUP))
    thresh = _threshold(p)

    # GOLDEN * (counter - the grid's first counter) = column + row ramp
    col_ramp = np.arange(n - 1, dtype=np.uint64)[:, None] * _GOLDEN
    row_ramp = np.arange(0, count * npairs, npairs, dtype=np.uint64) * _GOLDEN
    y = np.zeros(count, dtype=np.int64)
    for j in range(1, n - 1):  # the pairs of label n-1 own no triples
        table = _guide_table(n - 1 - j, p * p)
        rows = max(1, _BLOCK // j)
        for r0 in range(0, count, rows):
            r1 = min(r0 + rows, count)
            ramp = col_ramp[:j] + row_ramp[: r1 - r0]
            origin = int(_GOLDEN) * ((start + r0) * npairs + j * (j - 1) // 2)
            z = ramp + U64((edge_key + origin) & _MASK64)
            work = np.empty_like(z)
            _mix(z, work)
            edge_on = z < thresh
            np.add(ramp, U64((group_key + origin) & _MASK64), out=z)
            _mix(z, work)
            np.right_shift(z, U64(11), out=z)  # 53-bit keys
            draws = _inverse_cdf(table, z.view(np.int64))
            draws *= edge_on
            y[r0:r1] += draws.sum(axis=0)
    return y

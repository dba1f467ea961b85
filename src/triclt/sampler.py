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
over k is Binomial(m, p^2) with m = n-1-j (0-based labels), so the j pairs
of larger label j form a group whose sum has the PGF
[(1-p) + p (1-p^2+p^2 z)^m]^j, and Y is the sum of the independent groups
j = 1..n-2.  Each group is drawn whole from one 53-bit key, by an inverse
CDF over integer thresholds ceil(cdf * 2^53): n-2 keys a draw.  The group
laws are raised from the one-pair pmf by FFT once per (n, p), each on a
window that leaves out at most 2^-60 of either tail, far below what a
53-bit key resolves; the one-pair pmf is p * `moments.binom_pmf`(m, p^2)
plus the 1 - p of an absent pair at 0.  n is capped at MAX_PROXY_N = 1031
by the tables' memory (see there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InputError
from .graphs import Graph, num_edges
from .moments import binom_pmf

U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)

# purpose tags keep independent uses of the same (seed, stream) decorrelated
PURPOSE_GNP_EDGE = 0
PURPOSE_PROXY_GROUP = 2

# counters per mixing block; see the module docstring
_BLOCK = 1 << 16

# tail mass that a proxy group table may leave out on each side, and the
# exponents t > 0 of its Chernoff bound
_TAIL = 2.0**-60
_CHERNOFF_T = np.geomspace(1e-4, 64.0, 128)

# largest n the proxy sampler accepts: its group tables hold 154 MiB of
# thresholds at n = 1031, and their size grows about as n^2.5
MAX_PROXY_N = 1031


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


def _group_law(j: int, m: int, p: float) -> tuple[int, np.ndarray]:
    """Law of one label group, S = sum of j independent I * Binomial(m, p^2)
    with I ~ Be(p), on the window [lo, hi] of outcomes that holds all but
    at most 2^-60 of each tail: returns (lo, pmf), pmf normalised to 1.

    The window comes from the Chernoff bound P[S >= a] <= E[e^(tS)] e^(-ta)
    (and its mirror for the lower tail) minimised over a grid of t: the
    FFT's rounding floor, ~1e-17 an atom, is far above 2^-60, so the tails
    cannot be read off the computed pmf.  The pmf is the j-th power of the
    one-pair pmf's DFT on the first power of 2 above hi.  What this drops
    carries at most 2^-60: the group's outcomes above hi, which wrap onto
    lower ones, and the one-pair atoms cropped above the DFT length, since a
    pair never exceeds its group.
    """
    t = _CHERNOFF_T
    q = p * p

    def cgf(s):  # log E[e^(sS)]
        return j * np.logaddexp(math.log1p(-p), math.log(p) + m * np.log1p(q * np.expm1(s)))

    tail = math.log(_TAIL)
    lo = max(0, math.ceil(np.max((tail - cgf(-t)) / t)))
    hi = min(j * m, math.floor(np.min((cgf(t) - tail) / t)))
    size = 1 << hi.bit_length()  # a power of 2 above the window
    one = p * binom_pmf(m, q)
    one[0] += 1.0 - p
    pmf = np.fft.irfft(np.fft.rfft(one, size) ** j, size)[lo : hi + 1]
    np.clip(pmf, 0.0, None, out=pmf)
    return lo, pmf / pmf.sum()


@lru_cache(maxsize=2)
def _group_tables(n: int, p: float) -> tuple[tuple[int, np.ndarray], ...]:
    """Inverse-CDF tables of the label groups j = 1..n-2, one (lo, t) each.

    The draw of a 53-bit key k is lo + searchsorted(t, k, "right"), with the
    integer thresholds t = ceil(cdf * 2^53) of the group's window, its last
    outcome left out: cdf_i <= k / 2^53 exactly when t_i <= k.  Two (n, p)
    are cached, so a run that alternates two sizes rebuilds neither; the
    thresholds take 0.11 MiB at n = 64, 0.71 MiB at 128, 26 MiB at 512 and
    154 MiB at 1031.
    """
    tables = []
    for j in range(1, n - 1):
        lo, pmf = _group_law(j, n - 1 - j, p)
        t = np.ceil(np.cumsum(pmf)[:-1] * 2.0**53).astype(np.int64)
        t.setflags(write=False)  # shared by every caller
        tables.append((lo, t))
    return tuple(tables)


def proxy_samples(cfg: SamplerConfig, start: int, count: int) -> np.ndarray:
    """Draws of the proxy statistic Y for samples start..start+count-1.

    Y is the sum of the independent label groups j = 1..n-2; group j of
    sample s is drawn from one 53-bit key, at counter s * (n-2) + j - 1, by
    the group's inverse-CDF table.  Row k is a pure function of
    (cfg, start + k).
    """
    if start < 0 or count < 0:
        raise InputError("start and count must be >= 0")
    n = cfg.n
    if n > MAX_PROXY_N:
        raise InputError(f"the proxy sampler needs n <= {MAX_PROXY_N}, got {n}")
    tables = _group_tables(n, cfg.p)
    key = derive_key(cfg.seed, cfg.stream, PURPOSE_PROXY_GROUP)
    groups = n - 2
    keys = np.empty(count * groups, dtype=np.uint64)
    for lo, hi, z in _mixed_blocks(key, range(start * groups, (start + count) * groups)):
        np.right_shift(z, U64(11), out=keys[lo:hi])
    keys = keys.view(np.int64).reshape(count, groups).T
    y = np.full(count, sum(lo for lo, _ in tables), dtype=np.int64)
    for (_, t), k in zip(tables, keys):
        y += np.searchsorted(t, k, side="right")
    return y

from __future__ import annotations

import bisect
import hashlib
import math
from itertools import product

import numpy as np
import pytest

from triclt.cli import sample_proxy_w, sample_w
from triclt.errors import ConfigError, InputError
from conftest import proxy_brute_force_pmf, proxy_exact_pmf
from triclt.graphs import num_edges
from triclt.moments import proxy_exact
from triclt.sampler import (
    MAX_PROXY_N,
    PURPOSE_GNP_EDGE,
    PURPOSE_PROXY_GROUP,
    SamplerConfig,
    _BLOCK,
    _finalize,
    _group_law,
    _group_tables,
    _threshold,
    derive_key,
    gnp_edge_bits,
    proxy_samples,
    sample_gnp,
    stream_chunks,
)


def splitmix_one_shot(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """splitmix64 of key + GOLDEN * counter over the whole array at once: the
    unblocked expression form, with its constants written out here."""
    u = np.uint64
    with np.errstate(over="ignore"):
        z = counters.astype(np.uint64) * u(0x9E3779B97F4A7C15) + key
        z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
        return z ^ (z >> u(31))


def test_config_validation():
    with pytest.raises(InputError):
        SamplerConfig(n=2, p=0.5, seed=1)
    with pytest.raises(InputError):
        SamplerConfig(n=5, p=0.0, seed=1)
    with pytest.raises(InputError):
        SamplerConfig(n=5, p=0.5, seed=1, stream=-1)


def test_same_config_index_is_bit_identical():
    cfg = SamplerConfig(n=9, p=0.4, seed=123, stream=2)
    assert sample_gnp(cfg, 17) == sample_gnp(cfg, 17)
    a = gnp_edge_bits(cfg, 5, 10)
    b = gnp_edge_bits(cfg, 5, 10)
    assert np.array_equal(a, b)


def test_batch_rows_equal_single_draws():
    cfg = SamplerConfig(n=8, p=0.3, seed=77)
    batch = gnp_edge_bits(cfg, 3, 6)
    for k in range(6):
        g = sample_gnp(cfg, 3 + k)
        row = np.array([(g.edges >> r) & 1 for r in range(batch.shape[1])])
        assert np.array_equal(batch[k], row)


def test_batching_is_irrelevant():
    cfg = SamplerConfig(n=10, p=0.5, seed=9)
    whole = gnp_edge_bits(cfg, 0, 50)
    parts = np.concatenate([gnp_edge_bits(cfg, s, 10) for s in range(0, 50, 10)])
    assert np.array_equal(whole, parts)


def test_edge_density_matches_p():
    # binomial standard error oracle: 3 sigma band around p
    n, p, m = 16, 0.3, 100_000
    cfg = SamplerConfig(n=n, p=p, seed=2024)
    bits = gnp_edge_bits(cfg, 0, m)
    ne = n * (n - 1) // 2
    density = bits.mean()
    band = 3 * math.sqrt(p * (1 - p) / (ne * m))
    assert abs(density - p) < band


def test_streams_look_independent():
    # chi-square on the 2x2 table of paired edge bits from two streams
    n, p, m = 16, 0.5, 20_000
    a = gnp_edge_bits(SamplerConfig(n=n, p=p, seed=5, stream=0), 0, m).ravel()
    b = gnp_edge_bits(SamplerConfig(n=n, p=p, seed=5, stream=1), 0, m).ravel()
    total = a.size
    counts = np.zeros((2, 2))
    for i, j in product((0, 1), repeat=2):
        counts[i, j] = np.count_nonzero((a == i) & (b == j))
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row * col / total
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 10.83  # df=1 critical value at 0.001


def test_stream_partition_invariance():
    cfg = [SamplerConfig(n=7, p=0.4, seed=31, stream=s) for s in range(3)]
    draws_fwd = [sample_gnp(c, i).edges for c in cfg for i in range(4)]
    draws_rev = [sample_gnp(c, i).edges for c in reversed(cfg) for i in range(4)]
    assert sorted(draws_fwd) == sorted(draws_rev)


def test_stream_chunks_split():
    chunks = stream_chunks(7, 0.4, 31, 10, 3, 2)
    assert [(c.stream, start, count, pos) for c, start, count, pos in chunks] == [
        (0, 0, 2, 0), (0, 2, 2, 2),
        (1, 0, 2, 4), (1, 2, 1, 6),
        (2, 0, 2, 7), (2, 2, 1, 9),
    ]
    assert all(c.seed == 31 and c.n == 7 for c, *_ in chunks)
    with pytest.raises(ConfigError):
        stream_chunks(7, 0.4, 31, 0, 1, 2)
    with pytest.raises(ConfigError):
        stream_chunks(7, 0.4, 31, 10, 0, 2)


@pytest.mark.parametrize("p", [0.5, 0.054])
@pytest.mark.parametrize("n, start, count", [(128, 3, 9), (16, 0, 1000)])
def test_blocked_edge_bits_equal_one_shot(n, start, count, p):
    # both ranges straddle mixing-block boundaries
    ne = num_edges(n)
    assert (start * ne) // _BLOCK != ((start + count) * ne - 1) // _BLOCK
    cfg = SamplerConfig(n=n, p=p, seed=21, stream=1)
    key = derive_key(cfg.seed, cfg.stream, PURPOSE_GNP_EDGE)
    ctr = np.arange(start * ne, (start + count) * ne, dtype=np.uint64)
    want = (splitmix_one_shot(key, ctr) < _threshold(p)).view(np.uint8)
    got = gnp_edge_bits(cfg, start, count)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want.reshape(count, ne))


# sha256 of the W bytes (w64 and w256_streams2 from before the mixing was
# blocked, proxy128 from the one-key-per-group draw): a change to any sample
# stream must update these deliberately
STREAM_PINS = [
    (lambda: sample_w(64, 0.5, 3000, 7),
     "ac154838d5a43a06be663221ea9f28696b23ca4d1ab8e4f6ece285bcc5b00401"),
    (lambda: sample_w(256, 256**-0.6, 70, 7, streams=2),
     "9add02b21e8c79ca8c48893b44bf1e8de4d957c14d56bb8433141d0140795049"),
    (lambda: sample_proxy_w(128, 0.5, 600, 7),
     "83b6928c72cb745633c0cdc311a11487ee2a0fae4032df54c71931dc043531c0"),
]


@pytest.mark.parametrize("draw, digest", STREAM_PINS, ids=["w64", "w256_streams2", "proxy128"])
def test_sample_streams_pinned(draw, digest):
    assert hashlib.sha256(draw().tobytes()).hexdigest() == digest


def test_negative_index_rejected():
    cfg = SamplerConfig(n=5, p=0.5, seed=1)
    with pytest.raises(InputError):
        sample_gnp(cfg, -1)
    with pytest.raises(InputError):
        gnp_edge_bits(cfg, -1, 2)


# ---------------------------------------------------------------------------
# proxy model
# ---------------------------------------------------------------------------


def test_proxy_n3_law():
    # Y in {0,1} with P[Y=1] = p^3
    p = 0.37
    cfg = SamplerConfig(n=3, p=p, seed=4)
    ys = proxy_samples(cfg, 0, 40_000)
    assert set(np.unique(ys)) <= {0, 1}
    freq = ys.mean()
    band = 3 * math.sqrt(p**3 * (1 - p**3) / ys.size)
    assert abs(freq - p**3) < band


def test_proxy_mean_n10():
    n, p, m = 10, 0.4, 100_000
    ys = proxy_samples(SamplerConfig(n=n, p=p, seed=8), 0, m)
    mean = ys.mean()
    band = 3 * ys.std(ddof=1) / math.sqrt(m)
    assert abs(mean - math.comb(n, 3) * p**3) < band


def test_proxy_high_p_full_count():
    # literal model at n=4: P[Y=4] = p^3 (p^2)^4 (three distinct pair
    # variables own the four triples)
    p = 0.99
    target = p**3 * (p * p) ** 4
    pmf = proxy_brute_force_pmf(4, p)
    assert pmf[4] == pytest.approx(target, rel=1e-12)
    m = 100_000
    ys = proxy_samples(SamplerConfig(n=4, p=p, seed=6), 0, m)
    freq = np.count_nonzero(ys == 4) / m
    band = 3 * math.sqrt(target * (1 - target) / m)
    assert abs(freq - target) < band


def test_proxy_sample_matches_brute_force_law():
    # the groupwise inverse-CDF construction has exactly the product law
    n, p, m = 4, 0.45, 200_000
    pmf = proxy_brute_force_pmf(n, p)
    ys = proxy_samples(SamplerConfig(n=n, p=p, seed=10), 0, m)
    for y, prob in pmf.items():
        if prob < 1e-4:
            continue
        freq = np.count_nonzero(ys == y) / m
        band = 4 * math.sqrt(prob * (1 - prob) / m)
        assert abs(freq - prob) < band, (y, freq, prob)


def test_proxy_binomial_cdfs_stay_cached():
    # n = 128 needs 126 group tables; a second call rebuilds none of them
    cfg = SamplerConfig(n=128, p=0.5, seed=3)
    _group_tables.cache_clear()
    proxy_samples(cfg, 0, 2)
    misses = _group_tables.cache_info().misses
    proxy_samples(cfg, 2, 2)
    assert _group_tables.cache_info().misses == misses


def test_proxy_single_draw_determinism():
    cfg = SamplerConfig(n=6, p=0.5, seed=3)
    assert proxy_samples(cfg, 11, 1)[0] == proxy_samples(cfg, 11, 1)[0]
    assert proxy_samples(cfg, 11, 1)[0] == proxy_samples(cfg, 0, 12)[11]


def mixture_group_pmf(j: int, m: int, p: float) -> np.ndarray:
    """Law of the sum of j pairs, each I * Binomial(m, p^2) with I ~ Be(p),
    as a mixture over the number N of pairs present:
    sum_N C(j, N) p^N (1-p)^(j-N) Binomial(N m, p^2)."""
    q = p * p
    pmf = [0.0] * (j * m + 1)
    for big_n in range(j + 1):
        w = math.comb(j, big_n) * p**big_n * (1 - p) ** (j - big_n)
        trials = big_n * m
        for k in range(trials + 1):
            pmf[k] += w * math.comb(trials, k) * q**k * (1 - q) ** (trials - k)
    return np.array(pmf)


def table_law(lo: int, t: np.ndarray) -> np.ndarray:
    """The law that a group table draws from uniform 53-bit keys, from
    outcome 0 up: outcome lo + i takes the keys t_(i-1) <= k < t_i."""
    edges = np.concatenate([[0], t, [2**53]]).astype(np.float64)
    return np.concatenate([np.zeros(lo), np.diff(edges) / 2**53])


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_group_tables_match_mixture_law(p):
    for n in range(3, 10):
        for j, (lo, t) in enumerate(_group_tables(n, p), start=1):
            want = mixture_group_pmf(j, n - 1 - j, p)
            got = table_law(lo, t)
            assert got.size <= want.size
            got = np.pad(got, (0, want.size - got.size))
            assert np.abs(got - want).max() < 1e-12, (n, j)


@pytest.mark.parametrize("n", [16, 32])
def test_group_tables_convolve_to_exact_proxy_law(n):
    p = 0.5
    law = np.ones(1)
    for lo, t in _group_tables(n, p):
        law = np.convolve(law, table_law(lo, t))
    want = proxy_exact_pmf(n, p)
    assert law.size <= want.size
    assert np.abs(np.pad(law, (0, want.size - law.size)) - want).max() < 1e-12


def test_group_laws_at_n512_keep_mass_and_moments():
    n, p = 512, 0.5
    q = p * p
    for j in range(1, n - 1):
        m = n - 1 - j
        lo, pmf = _group_law(j, m, p)
        k = np.arange(lo, lo + pmf.size, dtype=np.float64)
        mean = j * p * m * q
        var = j * (p * m * q * (1 - q) + p * (1 - p) * (m * q) ** 2)
        assert abs(math.fsum(pmf) - 1.0) <= 2.0**-52, j
        assert math.fsum(k * pmf) == pytest.approx(mean, rel=1e-9), j
        assert math.fsum((k - mean) ** 2 * pmf) == pytest.approx(var, rel=1e-9), j


def reference_proxy_samples(cfg: SamplerConfig, start: int, count: int) -> np.ndarray:
    """Proxy draws one group at a time in pure Python: each group's counter
    s(n-2) + j-1 is mixed by the scalar splitmix64, and its 53-bit key
    drawn by bisect on the group's thresholds."""
    n, golden = cfg.n, 0x9E3779B97F4A7C15
    key = int(derive_key(cfg.seed, cfg.stream, PURPOSE_PROXY_GROUP))
    tables = [(lo, t.tolist()) for lo, t in _group_tables(n, cfg.p)]
    ys = []
    for s in range(start, start + count):
        y = 0
        for j, (lo, t) in enumerate(tables, start=1):
            counter = s * (n - 2) + j - 1
            word = int(_finalize(np.uint64((key + golden * counter) % 2**64)))
            y += lo + bisect.bisect_right(t, word >> 11)
        ys.append(y)
    return np.array(ys)


@pytest.mark.parametrize("n, p, seed, stream, start, count", [
    (3, 0.37, 4, 0, 0, 40),
    (5, 0.999, 8, 1, 0, 20),
    (6, 0.5, 3, 1, 1000, 20),
    (9, 0.2, 77, 2, 5, 10),
    (13, 0.9, 1, 0, 1000, 4),
])
def test_proxy_samples_equal_pure_python_reference(n, p, seed, stream, start, count):
    cfg = SamplerConfig(n=n, p=p, seed=seed, stream=stream)
    want = reference_proxy_samples(cfg, start, count)
    assert np.array_equal(proxy_samples(cfg, start, count), want)


def test_proxy_rows_do_not_depend_on_the_batch():
    # rows 500..539 at n = 128 straddle a mixing-block boundary
    cfg = SamplerConfig(n=128, p=0.5, seed=11, stream=1)
    assert 500 * 126 // _BLOCK != (540 * 126 - 1) // _BLOCK
    whole = proxy_samples(cfg, 0, 600)
    assert np.array_equal(proxy_samples(cfg, 500, 40), whole[500:540])
    assert np.array_equal(proxy_samples(cfg, 537, 1), whole[537:538])


def test_proxy_size_bound():
    # the sampler refuses n > 1031, where its tables would pass 154 MiB; the
    # exact moments need no tables and take any n
    assert MAX_PROXY_N == 1031
    cfg = SamplerConfig(n=MAX_PROXY_N + 1, p=0.5, seed=1)
    with pytest.raises(InputError):
        proxy_samples(cfg, 0, 1)
    assert math.isfinite(proxy_exact(MAX_PROXY_N + 1, 0.5).be_bound)

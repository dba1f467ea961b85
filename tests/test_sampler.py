from __future__ import annotations

import bisect
import hashlib
import math
from itertools import product

import numpy as np
import pytest

from triclt.cli import sample_proxy_w, sample_w
from triclt.errors import ConfigError, InputError
from conftest import proxy_brute_force_pmf
from triclt.graphs import MAX_PROXY_N, num_edges
from triclt.moments import proxy_exact
from triclt.sampler import (
    PURPOSE_GNP_EDGE,
    PURPOSE_PROXY_EDGE,
    PURPOSE_PROXY_GROUP,
    SamplerConfig,
    _BLOCK,
    _binom_cdf,
    _finalize,
    _guide_table,
    _inverse_cdf,
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


# sha256 of the W bytes, computed before the mixing was blocked: a change to
# any sample stream must update these deliberately
STREAM_PINS = [
    (lambda: sample_w(64, 0.5, 3000, 7),
     "ac154838d5a43a06be663221ea9f28696b23ca4d1ab8e4f6ece285bcc5b00401"),
    (lambda: sample_w(256, 256**-0.6, 70, 7, streams=2),
     "9add02b21e8c79ca8c48893b44bf1e8de4d957c14d56bb8433141d0140795049"),
    (lambda: sample_proxy_w(128, 0.5, 600, 7),
     "8aa248daf4bc5a37ddc958e35fc601a225dee4dc7c5118065a80ba535aa9495a"),
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
    # n = 128 needs 126 group sizes; a second call rebuilds none of them
    cfg = SamplerConfig(n=128, p=0.5, seed=3)
    _binom_cdf.cache_clear()
    proxy_samples(cfg, 0, 2)
    misses = _binom_cdf.cache_info().misses
    proxy_samples(cfg, 2, 2)
    assert _binom_cdf.cache_info().misses == misses


def test_proxy_single_draw_determinism():
    cfg = SamplerConfig(n=6, p=0.5, seed=3)
    assert proxy_samples(cfg, 11, 1)[0] == proxy_samples(cfg, 11, 1)[0]
    assert proxy_samples(cfg, 11, 1)[0] == proxy_samples(cfg, 0, 12)[11]


def reference_proxy_samples(cfg: SamplerConfig, start: int, count: int) -> np.ndarray:
    """Proxy draws one pair at a time in pure Python: each counter is mixed
    by the scalar splitmix64 and each group drawn by bisect on its cdf."""
    n, golden = cfg.n, 0x9E3779B97F4A7C15
    npairs = num_edges(n)
    edge_key = int(derive_key(cfg.seed, cfg.stream, PURPOSE_PROXY_EDGE))
    group_key = int(derive_key(cfg.seed, cfg.stream, PURPOSE_PROXY_GROUP))
    thresh = int(_threshold(cfg.p))

    def word(key, counter):
        return int(_finalize(np.uint64((key + golden * counter) % 2**64)))

    ys = []
    for s in range(start, start + count):
        y = 0
        for j in range(1, n - 1):
            cdf = list(_binom_cdf(n - 1 - j, cfg.p * cfg.p))
            for i in range(j):
                counter = s * npairs + j * (j - 1) // 2 + i
                if word(edge_key, counter) < thresh:
                    u = (word(group_key, counter) >> 11) / 2**53
                    y += bisect.bisect_right(cdf, u)
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


def test_guide_table_equals_searchsorted():
    # keys at and beside every threshold t_i = ceil(cdf_i 2^53), the ends of
    # the key range, and random keys
    rng = np.random.default_rng(12)
    tail_keys = 0
    for q in (1e-12, 1e-4, 0.01, 0.25, 0.49, 0.81, 0.999999):
        for m in range(1, 201):
            table = _guide_table(m, q)
            shift, base, _, t = table
            keys = np.concatenate([[0, 2**53 - 1], t - 1, t, t + 1,
                                   rng.integers(0, 2**53, 500)])
            keys = keys[(keys >= 0) & (keys < 2**53)]
            want = np.searchsorted(_binom_cdf(m, q), keys / 2**53, side="right")
            assert np.array_equal(_inverse_cdf(table, keys), want), (m, q)
            tail_keys += np.count_nonzero(base[keys >> shift] < 0)
    assert tail_keys > 0  # the np.searchsorted fallback was taken


def test_proxy_size_bound():
    # the pmf's math.comb(m, j) must convert to float: m = n - 2 <= 1029
    assert MAX_PROXY_N == 1031
    assert math.isfinite(float(math.comb(1029, 514)))
    with pytest.raises(OverflowError):
        float(math.comb(1030, 515))
    assert _binom_cdf(MAX_PROXY_N - 2, 0.25)[-1] == 1.0
    cfg = SamplerConfig(n=MAX_PROXY_N + 1, p=0.5, seed=1)
    with pytest.raises(InputError):
        proxy_samples(cfg, 0, 1)
    with pytest.raises(InputError):
        proxy_exact(MAX_PROXY_N + 1, 0.5)

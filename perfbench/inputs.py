"""Make-up of each workload's inputs, and the program set-up each one needs.

This module imports triclt and nothing of the benchmark's own checks, so the
set-up probe (``setup_probe.py``) times the program's imports and one-time
tables alone.
"""

from __future__ import annotations

from triclt import cli, graphs, oracle
from triclt.coupling import DEFAULT_T_GRID

# gnp_dk: the `triclt sample-dk` pipeline, dense (p = 1/2) beside sparse
# (p = n^-0.6).  Sample counts are chosen so that each leg takes about the
# same time (~0.13 s on a 2-core Xeon), so no single n dominates wall_s.
GNP_SIZES = ((64, 1024), (128, 256), (256, 64))
GNP_LEGS = tuple(
    (f"{kind}_n{n}", n, p, samples)
    for kind in ("dense", "sparse")
    for n, samples in GNP_SIZES
    for p in [0.5 if kind == "dense" else n**-0.6]
)

# proxy_dk: the Monte Carlo part of `triclt proxy` at p = 1/2.
PROXY_P = 0.5
PROXY_LEGS = (("n64", 64, PROXY_P, 1024), ("n128", 128, PROXY_P, 256))

# r_terms: the README's `triclt coupling` run at the smallest sample count
# estimate_r accepts, then the exact oracle at n = 6 and n = 7.
COUPLING_N = 16
COUPLING_P = 0.5
COUPLING_SAMPLES = 1000
T_GRID = tuple(DEFAULT_T_GRID)
ORACLE_P = 0.5
# exact_r_terms costs the same per t-value; a third of the default grid
# (0.01 to 5.5) keeps the leg's make-up at a third of its time.
ORACLE_T_GRID = T_GRID[::3]
R_TERMS_N = 6
LAW_N = 7
# Output check only: estimate_r against exact_r_terms, as acceptance
# criterion 5 does it.
CONSISTENCY_N, CONSISTENCY_P, CONSISTENCY_SAMPLES = 5, 0.3, 100_000


def round_seed(seed: int, r: int) -> int:
    """Sampler seed of round r (round 0 is the untimed warm-up)."""
    return seed * 1000 + r


def ode_t(seed: int) -> float:
    """The one t at which exact_chf_ode runs; its cost does not depend on t."""
    return T_GRID[seed % len(T_GRID)]


def check_ts(seed: int) -> tuple[float, float]:
    """Two distinct grid points at which the exact r-terms are recomputed."""
    grid = ORACLE_T_GRID
    i = seed % len(grid)
    return grid[i], grid[(i + len(grid) // 2) % len(grid)]


def setup_gnp_dk() -> None:
    for _, n, p, _ in GNP_LEGS:
        cli.empirical_dk(cli.sample_w(n, p, 2, 0))


def setup_proxy_dk() -> None:
    for _, n, p, _ in PROXY_LEGS:
        cli.empirical_dk(cli.sample_proxy_w(n, p, 2, 0))


def setup_r_terms() -> None:
    graphs.triple_basis(COUPLING_N)
    for n in (R_TERMS_N, LAW_N):
        oracle.oracle_arrays(n)


SETUP = {
    "gnp_dk": setup_gnp_dk,
    "proxy_dk": setup_proxy_dk,
    "r_terms": setup_r_terms,
}

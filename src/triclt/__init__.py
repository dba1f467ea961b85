"""triclt: exact and Monte Carlo verification of the normal approximation
of triangle counts in the Erdos-Renyi random graph G(n,p).

Submodules
----------
graphs    canonical edge/triple indexing, triangle counting, local sums
sampler   counter-based reproducible G(n,p) and proxy-model sampling
moments   exact moments, regime rates, special functions, bound evaluators
oracle    exhaustive small-n enumeration: distributions, identities, r-terms
coupling  exact inner expectations of the coupling and r-term estimators
patterns  four-triangle overlap classes and covariance bound checks
cli       experiment runner (``triclt`` entry point)
"""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Graph,
    centered_indicator,
    edge_rank,
    edge_union_size,
    local_sum,
    neighborhood,
    triangle_count,
    w_statistic,
)
from .moments import (  # noqa: F401
    BoundInputs,
    Lemma2Params,
    MomentReport,
    RegimeRates,
    complex_stats,
    dawson,
    dk_from_dw,
    esseen_rhs,
    exact_moments,
    lemma2_bound,
    proxy_exact,
    regime_rates,
    theorem2_bound,
)
from .sampler import SamplerConfig, sample_gnp  # noqa: F401

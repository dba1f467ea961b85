"""The three workloads: the program calls one round makes (its legs), and the
output check of each leg.

Every program call goes through a module attribute (``cli.sample_w``,
``oracle.exact_dk``, ...) looked up when the leg runs, so the tracer's
wrappers see it in a traced round.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from triclt import cli, oracle

import checks
import inputs


@dataclass(frozen=True)
class Leg:
    name: str
    samples: int                        # MC samples requested; 0 for exact legs
    run: Callable[[], object]           # the timed program calls
    check: Callable[[object], list]     # failure messages for the output
    # equal for equal outputs; needed on legs that a traced round repeats
    digest: Optional[Callable[[object], object]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: bool                        # run one untimed round first
    legs: Callable[[int], list]         # the legs of a round, given its seed
    # legs run again untraced in a traced round, to measure the tracing
    # overhead; None means all of them
    repeat_legs: Optional[tuple] = None


def _w_digest(out) -> str:
    w, dk = out
    return hashlib.sha256(w.tobytes() + repr(dk).encode()).hexdigest()


def _gnp_legs(seed: int) -> list:
    def leg(name, n, p, samples):
        def run():
            w = cli.sample_w(n, p, samples, seed)
            return w, cli.empirical_dk(w)

        return Leg(name, samples, run,
                   lambda out: checks.check_gnp_leg(n, p, seed, *out), _w_digest)

    return [leg(*spec) for spec in inputs.GNP_LEGS]


def _proxy_legs(seed: int, exact: checks.ProxyExact) -> list:
    def leg(name, n, p, samples):
        def run():
            w = cli.sample_proxy_w(n, p, samples, seed)
            return w, cli.empirical_dk(w)

        return Leg(name, samples, run,
                   lambda out: checks.check_proxy_leg(n, p, *out, exact), _w_digest)

    return [leg(*spec) for spec in inputs.PROXY_LEGS]


def _r_terms_legs(seed: int) -> list:
    cfg = cli.ExperimentConfig(
        subcommand="coupling",
        n_list=(inputs.COUPLING_N,),
        p_rule={"kind": "fixed", "value": inputs.COUPLING_P},
        samples=inputs.COUPLING_SAMPLES,
        seed=seed,
        form="extended",
    )
    ts = inputs.check_ts(seed)
    t_ode = inputs.ode_t(seed)

    def check_coupling(out):
        code, records = out
        if code != 0 or len(records) != 1:
            return [f"cli.run returned {code} with {len(records)} records"]
        return checks.check_coupling_record(records[0]) + checks.check_estimator_consistency(
            inputs.CONSISTENCY_N, inputs.CONSISTENCY_P, inputs.CONSISTENCY_SAMPLES, seed)

    def check_dk(dk):
        dist = oracle.enumerate_distribution(inputs.LAW_N, inputs.ORACLE_P)
        return checks.check_law_and_dk(dist, dk)

    n6, n7, p = inputs.R_TERMS_N, inputs.LAW_N, inputs.ORACLE_P
    return [
        Leg("coupling", inputs.COUPLING_SAMPLES, lambda: cli.run(cfg), check_coupling,
            lambda out: tuple(r.content_hash() for r in out[1])),
        Leg("exact_r_terms", 0, lambda: oracle.exact_r_terms(n6, p, inputs.ORACLE_T_GRID),
            lambda res: checks.check_exact_r_terms(res, ts)),
        Leg("verify_couplings", 0, lambda: oracle.verify_couplings(n6, p),
            checks.check_couplings_report),
        Leg("exact_dk", 0, lambda: oracle.exact_dk(n7, p), check_dk),
        Leg("exact_chf_ode", 0, lambda: oracle.exact_chf_ode(n7, p, t_ode),
            checks.check_ode),
    ]


def make(name: str) -> Workload:
    if name == "gnp_dk":
        return Workload(name, True, _gnp_legs)
    if name == "proxy_dk":
        exact = checks.ProxyExact()
        return Workload(name, True, lambda seed: _proxy_legs(seed, exact))
    if name == "r_terms":
        # one round takes about a minute; only the coupling leg, which holds
        # nearly all of its spans, is repeated to measure tracing overhead
        return Workload(name, False, _r_terms_legs, repeat_legs=("coupling",))
    raise ValueError(f"unknown workload {name!r}")

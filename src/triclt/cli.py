"""Batch CLI: experiment orchestration, empirical d_K, rate fits, records.

Subcommands
-----------
moments    exact MomentReport per (n, p)
bound      regime rates and Theorem-style bound evaluation from given r-terms
sample-dk  Monte Carlo W samples -> empirical Kolmogorov distance per n
oracle     exact-oracle reports (distribution, exact d_K, ODE residuals)
coupling   MC r-term estimates and assembled coupling bound
patterns   pattern-class tables, moment-bound checks (CSV mirror)
rate-fit   log-log slope fit over previously written records
proxy      independent-indicator proxy model: exact moments + MC d_K

Every record echoes its configuration and carries a content hash over all
deterministic fields (timestamp, timing and provenance excluded), so
identical (seed, config) reruns are bit-identical and hashable as such.
Monte Carlo records (sample-dk, proxy, coupling) carry a ``timing`` dict:
seconds and samples/s; oracle records carry the seconds their exact routine
took.  Every record carries a ``provenance`` dict: the Python,
numpy, scipy and BLAS versions, the BLAS thread variables and the usable
CPUs.  Output is JSON lines; the patterns subcommand also writes a CSV
mirror.

A ``--config`` file holds ``key = value`` lines whose keys are the full flag
names (``_`` or ``-``); only a switch takes ``true`` or ``false``.  The file
is read as those flags placed before the command line's, so flags win.  An
unknown or abbreviated key, a bad value or a missing file is a config error.

Exit codes: 0 ok, 1 usage, 2 config, 3 capacity, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .errors import CapacityError, ConfigError, InputError, NumericError
from .graphs import batch_triangle_counts
from .moments import (
    BoundInputs,
    exact_moments,
    kolmogorov_distance,
    proxy_exact,
    regime_rates,
    theorem2_bound,
)
from .oracle import enumerate_distribution, exact_chf_ode, exact_dk, verify_couplings
from .coupling import assemble_bound, estimate_r, r3_theoretical, DEFAULT_T_GRID
from .patterns import enumerate_classes, moment_bound_check, pattern_cov_check
from .sampler import gnp_edge_bits, proxy_samples, stream_chunks

OUTPUT_DIR_ENV = "TRICLT_OUT"
DEFAULT_DKW_DELTA = 0.01


# ---------------------------------------------------------------------------
# Empirical Kolmogorov distance and rate fitting
# ---------------------------------------------------------------------------


def empirical_dk(w_samples: Sequence[float], delta: float = DEFAULT_DKW_DELTA) -> dict:
    """sup_x |ECDF(x) - Phi(x)| evaluated at the sample points (left and
    right limits), plus the DKW band sqrt(ln(2/delta) / (2m))."""
    w = np.sort(np.asarray(w_samples, dtype=np.float64))
    m = w.size
    if m < 2:
        raise InputError("need at least two samples")
    if not (0.0 < delta < 1.0):
        raise InputError("delta must be in (0,1)")
    dk = kolmogorov_distance(w, np.arange(1, m + 1) / m)
    return {"dk": dk, "dkw_band": math.sqrt(math.log(2.0 / delta) / (2.0 * m))}


def rate_fit(points: Sequence[tuple[float, float]]) -> dict:
    """Least squares of ln(dk) on ln(n): slope, intercept, r_squared."""
    if len(points) < 3:
        raise InputError("need at least 3 points")
    ns = np.array([q[0] for q in points], dtype=np.float64)
    ds = np.array([q[1] for q in points], dtype=np.float64)
    if np.any(ns <= 0) or np.any(ds <= 0):
        raise InputError("rate_fit needs positive values")
    x = np.log(ns)
    y = np.log(ds)
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return {"slope": slope, "intercept": intercept, "r_squared": r2}


# ---------------------------------------------------------------------------
# Monte Carlo W samples (stream-partitioned, deterministic merge)
# ---------------------------------------------------------------------------


def sample_w(n: int, p: float, samples: int, seed: int, streams: int = 1) -> np.ndarray:
    """W = (T - ET)/sd(T) for `samples` G(n,p) draws, standardised with the
    exact moments.  Work is split across `streams` counter-based streams and
    merged in fixed stream order, so the result is independent of how the
    streams would be scheduled.  Chunks hold at most 2^22 / n^2 graphs, so
    the (graphs, n, n) adjacency of batch_triangle_counts stays within
    16 MiB as float32 (dense kernel) and 4 MiB as uint8 (popcount kernel)."""
    step = max(1, (1 << 22) // (n * n))
    chunks = stream_chunks(n, p, seed, samples, streams, step)
    mom = exact_moments(n, p)
    out = np.empty(samples, dtype=np.float64)
    for cfg, start, count, pos in chunks:
        t_counts = batch_triangle_counts(gnp_edge_bits(cfg, start, count), n)
        out[pos : pos + count] = (t_counts - mom.mean_t) / mom.sigma
    return out


def sample_proxy_w(
    n: int, p: float, samples: int, seed: int, streams: int = 1
) -> np.ndarray:
    """Standardised proxy draws (Y - EY)/sd(Y), exact proxy moments.

    A draw takes one 53-bit key per label group, n - 2 in all (see
    `sampler.proxy_samples`).  Chunks hold at most 2^19 keys, so their
    int64 keys and searchsorted temporaries stay within a few MiB.
    The sampler refuses n > sampler.MAX_PROXY_N = 1031, where its group
    tables would pass 154 MiB; `proxy_exact` takes any n >= 4."""
    step = max(1, (1 << 19) // (n - 2))
    chunks = stream_chunks(n, p, seed, samples, streams, step)
    rep = proxy_exact(n, p)
    out = np.empty(samples, dtype=np.float64)
    for cfg, start, count, pos in chunks:
        y = proxy_samples(cfg, start, count)
        out[pos : pos + count] = (y - rep.mean_y) / math.sqrt(rep.var_y)
    return out


# ---------------------------------------------------------------------------
# Experiment configuration and records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    n_list: tuple[int, ...] = ()
    p_rule: dict = field(default_factory=dict)   # {"kind": "fixed"|"power", ...}
    samples: int = 10_000
    seed: int = 1
    streams: int = 1
    t_grid: tuple[float, ...] = ()
    out: Optional[str] = None
    delta: float = DEFAULT_DKW_DELTA
    form: str = "extended"
    r_tilde_policy: str = "theoretical"
    anchors: tuple[str, ...] = ("r411", "r414")
    cov_check: bool = False
    couplings: bool = False
    quantity: str = "empirical_dk"
    input_path: Optional[str] = None
    r_inputs: dict = field(default_factory=dict)

    def resolve_p(self, n: int) -> float:
        rule = self.p_rule
        if not rule:
            raise ConfigError("no p rule given (use --p)")
        if rule["kind"] == "fixed":
            p = float(rule["value"])
        elif rule["kind"] == "power":
            p = float(rule["c"]) * float(n) ** (-float(rule["alpha"]))
            p = min(max(p, 1e-12), 1.0 - 1e-12)  # clamp into (0,1)
            if n * p < 4.0:
                raise ConfigError(
                    f"power rule gives n*p = {n * p:.3f} < 4 at n={n}; "
                    "outside the sparse-regime sanity range"
                )
        else:
            raise ConfigError(f"unknown p rule {rule!r}")
        if not (0.0 < p < 1.0):
            raise ConfigError(f"p={p} outside (0,1)")
        return p


@dataclass(frozen=True)
class ResultRecord:
    config: dict
    quantity: str
    n: Optional[int] = None
    p: Optional[float] = None
    value: Optional[float] = None
    std_error: Optional[float] = None
    regime: Optional[str] = None
    extra: dict = field(default_factory=dict)
    tool_version: str = __version__
    timestamp: float = 0.0
    # where the run's time went and what produced it; like the timestamp,
    # outside content_hash
    timing: dict = field(default_factory=dict, compare=False)
    provenance: dict = field(default_factory=dict, compare=False)

    def content_hash(self) -> str:
        """sha256 over every field but the timestamp, timing and provenance."""
        payload = dataclasses.asdict(self)
        del payload["timestamp"], payload["timing"], payload["provenance"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def to_json(self) -> str:
        body = dataclasses.asdict(self)
        body["content_hash"] = self.content_hash()
        return json.dumps(body, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ResultRecord":
        body = json.loads(line)
        body.pop("content_hash", None)
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in body.items() if k in known})


@lru_cache(maxsize=1)
def _provenance() -> dict:
    """Interpreter, library and BLAS versions, BLAS thread variables and
    usable CPUs; read once per process, at the first record."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)),
    }


def _mkrecord(cfg: ExperimentConfig, quantity: str, **kw) -> ResultRecord:
    echo = {k: v for k, v in dataclasses.asdict(cfg).items() if k not in ("out", "input_path")}
    return ResultRecord(
        config=echo, quantity=quantity, timestamp=time.time(), provenance=dict(_provenance()), **kw
    )


def _timing(samples: int, t0: float) -> dict:
    """Wall seconds since perf_counter() read t0, and MC throughput."""
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "samples_per_s": samples / seconds}


def _timed(fn, *args):
    """fn(*args) and the record timing of the call: its wall seconds."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, {"seconds": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _run_moments(cfg: ExperimentConfig) -> list[ResultRecord]:
    records = []
    for n in cfg.n_list:
        p = cfg.resolve_p(n)
        mom = exact_moments(n, p)
        rates = regime_rates(n, p)
        records.append(
            _mkrecord(
                cfg,
                "var_T",
                n=n,
                p=p,
                value=mom.var_t,
                regime=rates.regime,
                extra={
                    "mean_T": mom.mean_t,
                    "sigma": mom.sigma,
                    "var_X": mom.var_x,
                    "cov_overlap2": mom.cov_overlap2,
                },
            )
        )
    return records


def _run_bound(cfg: ExperimentConfig) -> list[ResultRecord]:
    records = []
    for n in cfg.n_list:
        p = cfg.resolve_p(n)
        rates = regime_rates(n, p)
        extra = {
            "thm1_rate": rates.thm1_rate,
            "wasserstein_rate": rates.wasserstein_rate,
            "s2": rates.s2,
            "r3_theoretical": r3_theoretical(n, p),
        }
        value = None
        r = cfg.r_inputs
        if r:
            # an r~ not given defaults to its plain r-term
            tildes = {"r1_tilde": r.get("r1", 0.0), "r3_tilde": r.get("r3", 0.0)}
            value = theorem2_bound(BoundInputs(**{**tildes, **r}), cfg.form)
            extra["form"] = cfg.form
            extra["r_inputs"] = dict(r)
        records.append(
            _mkrecord(cfg, "bound", n=n, p=p, value=value, regime=rates.regime, extra=extra)
        )
    return records


def _run_sample_dk(cfg: ExperimentConfig) -> list[ResultRecord]:
    records = []
    for n in cfg.n_list:
        p = cfg.resolve_p(n)
        t0 = time.perf_counter()
        w = sample_w(n, p, cfg.samples, cfg.seed, cfg.streams)
        res = empirical_dk(w, cfg.delta)
        timing = _timing(cfg.samples, t0)
        records.append(
            _mkrecord(
                cfg,
                "empirical_dk",
                n=n,
                p=p,
                value=res["dk"],
                std_error=res["dkw_band"],
                regime=regime_rates(n, p).regime,
                extra={"samples": cfg.samples, "delta": cfg.delta},
                timing=timing,
            )
        )
    return records


def _run_oracle(cfg: ExperimentConfig) -> list[ResultRecord]:
    records = []
    t_grid = cfg.t_grid or (0.5, 1.0, 2.0, 4.0)
    for n in cfg.n_list:
        p = cfg.resolve_p(n)
        dist, timing = _timed(enumerate_distribution, n, p)
        records.append(
            _mkrecord(
                cfg,
                "exact_distribution",
                n=n,
                p=p,
                value=dist.mean(),
                extra={
                    "atoms": [[t, q] for t, q in dist.atoms],
                    "variance": dist.var(),
                },
                timing=timing,
            )
        )
        dk, timing = _timed(exact_dk, n, p)
        records.append(_mkrecord(cfg, "exact_dk", n=n, p=p, value=dk, timing=timing))
        for t in t_grid:
            chk, timing = _timed(exact_chf_ode, n, p, t)
            records.append(
                _mkrecord(
                    cfg,
                    "ode_residual",
                    n=n,
                    p=p,
                    value=chk.residual,
                    extra={"t": t, "phi": [chk.phi.real, chk.phi.imag]},
                    timing=timing,
                )
            )
        if cfg.couplings:
            rep, timing = _timed(verify_couplings, n, p)
            records.append(
                _mkrecord(
                    cfg,
                    "coupling_residuals",
                    n=n,
                    p=p,
                    value=max(
                        max(rep.eq5_residuals.values()),
                        rep.per_graph_gd_residual,
                        abs(rep.e_s_enumerated - 1.0),
                        max(rep.weak_extended_residuals.values()),
                        abs(rep.e_gd_enumerated - 1.0),
                    ),
                    extra={
                        "eq5": {k: v for k, v in rep.eq5_residuals.items()},
                        "per_graph_gd": rep.per_graph_gd_residual,
                        "e_s": rep.e_s_enumerated,
                        "weak": {k: v for k, v in rep.weak_extended_residuals.items()},
                        "e_gd": rep.e_gd_enumerated,
                    },
                    timing=timing,
                )
            )
    return records


def _run_coupling(cfg: ExperimentConfig) -> list[ResultRecord]:
    records = []
    t_grid = cfg.t_grid or DEFAULT_T_GRID
    for n in cfg.n_list:
        p = cfg.resolve_p(n)
        if cfg.form == "extended":
            names, parts = ("r3", "r4"), ("r31", "r32", "r33", "r41", "r42", "r43")
        else:
            names = parts = ("r1", "r2")
        t0 = time.perf_counter()
        est = estimate_r(n, p, cfg.samples, t_grid, names, cfg.seed, cfg.streams)
        estimates = {k: est[k] for k in names}
        detail = {k: est[k].value for k in parts}
        dk_res = empirical_dk(est["w"], cfg.delta)
        report = assemble_bound(n, p, estimates, cfg.r_tilde_policy, cfg.form)
        timing = _timing(cfg.samples, t0)
        records.append(
            _mkrecord(
                cfg,
                "coupling_bound",
                n=n,
                p=p,
                value=report.bound,
                regime=report.regime,
                extra={
                    "r_values": report.r_values,
                    "components": detail,
                    "r_tilde": report.r_tilde,
                    "r_tilde_policy": report.r_tilde_policy,
                    "r_tilde_adjusted": report.r_tilde_adjusted,
                    "thm1_rate": report.thm1_rate,
                    "r3_theoretical": report.r3_theory,
                    "empirical_dk": dk_res["dk"],
                    "dk_band": dk_res["dkw_band"],
                    "std_errors": {k: v.std_error for k, v in estimates.items()},
                },
                timing=timing,
            )
        )
    return records


def _run_patterns(cfg: ExperimentConfig) -> list[ResultRecord]:
    if cfg.cov_check and len(cfg.n_list) != 1:
        raise ConfigError("--cov-check needs exactly one n (use --n)")
    # each class with the number of vertices its representative spans
    tables = [
        (anchor, [(c, 1 + max(max(t) for t in c.representative.triples()))
                  for c in enumerate_classes(anchor)])
        for anchor in cfg.anchors
    ]
    if cfg.cov_check:
        n = cfg.n_list[0]
        p = cfg.resolve_p(n)
        for anchor, classes in tables:
            need = min(size for _, size in classes)
            if need > n:
                raise ConfigError(f"--cov-check: no class of {anchor} fits in n = {n}; "
                                  f"it needs n >= {need}")
    records = []
    p_grid = [round(0.05 * k, 2) for k in range(1, 20)]
    for anchor, classes in tables:
        rows = []
        for idx, (cls, size) in enumerate(classes):
            measured = None
            ratio = None
            se = None
            # exact mode: n > 7 is a CapacityError from the oracle
            if cfg.cov_check and size <= n:
                rep = pattern_cov_check(cls, n, p, t=1.0, mode="exact")
                measured, ratio, se = rep.cov_abs, rep.ratio, 0.0
            mb = moment_bound_check(list(cls.representative.triples()), p_grid)
            rows.append(
                {
                    "class_id": idx,
                    "lemma": cls.lemma_tag,
                    "m": cls.m,
                    "multiplicity_order": cls.multiplicity_order,
                    "small_p_exponent": cls.small_p_exponent,
                    "bound_small_p": cls.bound_small_p,
                    "bound_large_p": cls.bound_large_p,
                    "representative": [list(t) for t in cls.representative.triples()],
                    "moment_bound_ok": all(r.ok for r in mb),
                    "measured": measured,
                    "ratio": ratio,
                    "std_error": se,
                }
            )
        records.append(
            _mkrecord(
                cfg,
                f"pattern_classes_{anchor}",
                value=float(len(classes)),
                extra={"rows": rows},
            )
        )
    return records


def _run_rate_fit(cfg: ExperimentConfig) -> list[ResultRecord]:
    if not cfg.input_path:
        raise ConfigError("rate-fit needs --input pointing at a records file")
    points = []
    configs = []
    for lineno, line in enumerate(_read_text(cfg.input_path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            body = json.loads(line)
            if body.get("quantity") == cfg.quantity and body.get("value") is not None:
                points.append((float(body["n"]), float(body["value"])))
                config = body.get("config", {})
                configs.append({k: v for k, v in config.items() if k != "n_list"})
        except (ValueError, TypeError, AttributeError, KeyError) as exc:
            raise ConfigError(f"{cfg.input_path} line {lineno}: bad record: {exc}") from exc
    if len(points) < 3:
        raise ConfigError(
            f"found {len(points)} usable records for quantity {cfg.quantity!r}"
        )
    ns = [n for n, _ in points]
    if len(set(ns)) < len(ns):
        raise ConfigError(f"records for quantity {cfg.quantity!r} repeat an n: {ns}")
    if any(c != configs[0] for c in configs):
        raise ConfigError(
            f"records for quantity {cfg.quantity!r} come from different configurations"
        )
    fit = rate_fit(points)
    return [
        _mkrecord(
            cfg,
            "rate_fit",
            value=fit["slope"],
            extra={
                "intercept": fit["intercept"],
                "r_squared": fit["r_squared"],
                "points": [[a, b] for a, b in points],
                "fit_quantity": cfg.quantity,
            },
        )
    ]


def _run_proxy(cfg: ExperimentConfig) -> list[ResultRecord]:
    records = []
    for n in cfg.n_list:
        p = cfg.resolve_p(n)
        rep = proxy_exact(n, p)
        records.append(
            _mkrecord(
                cfg,
                "proxy_exact",
                n=n,
                p=p,
                value=rep.var_y,
                extra={
                    "mean_Y": rep.mean_y,
                    "var_Y_display": rep.var_y_display,
                    "gamma": rep.gamma,
                    "be_bound": rep.be_bound,
                },
            )
        )
        if cfg.samples:
            t0 = time.perf_counter()
            w = sample_proxy_w(n, p, cfg.samples, cfg.seed, cfg.streams)
            res = empirical_dk(w, cfg.delta)
            timing = _timing(cfg.samples, t0)
            records.append(
                _mkrecord(
                    cfg,
                    "proxy_dk",
                    n=n,
                    p=p,
                    value=res["dk"],
                    std_error=res["dkw_band"],
                    extra={"samples": cfg.samples},
                    timing=timing,
                )
            )
    return records


_SUBCOMMANDS = {
    "moments": _run_moments,
    "bound": _run_bound,
    "sample-dk": _run_sample_dk,
    "oracle": _run_oracle,
    "coupling": _run_coupling,
    "patterns": _run_patterns,
    "rate-fit": _run_rate_fit,
    "proxy": _run_proxy,
}


def run(config: ExperimentConfig) -> tuple[int, list[ResultRecord]]:
    """Dispatch one experiment; returns (exit_code, records)."""
    if config.subcommand not in _SUBCOMMANDS:
        raise InputError(f"unknown subcommand {config.subcommand!r}")
    if config.subcommand not in ("rate-fit", "patterns") and not config.n_list:
        raise ConfigError("need at least one n (use --n)")
    records = _SUBCOMMANDS[config.subcommand](config)
    if not all(_finite([r.value, r.std_error, r.extra]) for r in records):
        raise NumericError("non-finite number in emitted records")
    return 0, records


def _finite(obj) -> bool:
    """True when every number inside obj (nested dicts, lists) is finite."""
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


# ---------------------------------------------------------------------------
# Argument / config-file parsing
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def parse_p_rule(text: str) -> dict:
    if text.startswith("fixed:"):
        return {"kind": "fixed", "value": float(text.split(":", 1)[1])}
    if text.startswith("power:"):
        c, alpha = text.split(":", 1)[1].split(",")
        return {"kind": "power", "c": float(c), "alpha": float(alpha)}
    try:
        return {"kind": "fixed", "value": float(text)}
    except ValueError as exc:
        raise ConfigError(f"cannot parse p rule {text!r}") from exc


def _parse_list(text: str, cast) -> tuple:
    return tuple(cast(tok) for tok in text.split(",") if tok.strip())


# options that argparse keeps as strings: parsed afterwards, a bad value is
# a config error (exit 2) rather than a usage error
_PARSED_AFTER = {
    "n_list": lambda s: _parse_list(s, int),
    "p_rule": parse_p_rule,
    "t_grid": lambda s: _parse_list(s, float),
    "anchors": lambda s: _parse_list(s, str),
}
_R_INPUTS = tuple(f.name for f in dataclasses.fields(BoundInputs))
# ExperimentConfig's bool fields: the only keys a config file sets to true/false
_SWITCHES = {f.name for f in dataclasses.fields(ExperimentConfig) if isinstance(f.default, bool)}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


def _config_flags(path: str) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags, `_`
    read as `-`; for a switch, `true` gives the bare flag and `false` omits
    it.  Any other value, or any value of another key, passes through."""
    flags = []
    for raw in _read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: bad config line {raw!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if key.replace("-", "_") not in _SWITCHES or value not in ("true", "false"):
            flags.append(f"{flag}={value}")
        elif value == "true":
            flags.append(flag)
    return flags


def build_config(argv: Sequence[str]) -> ExperimentConfig:
    """Flags, and a --config file read as the same flags placed before them
    (argparse keeps the last value, so flags win).  The file is first
    parsed alone, so its errors are config errors that name it.  Options
    take their dests from ExperimentConfig's fields; one left unset is
    absent from the namespace, so the field's default holds."""
    parser = _Parser(prog="triclt", description=__doc__, allow_abbrev=False,
                     argument_default=argparse.SUPPRESS)
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--n", dest="n_list", help="comma-separated vertex counts")
    parser.add_argument("--p", dest="p_rule", help="p rule: fixed:VALUE or power:C,ALPHA")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--streams", type=int)
    parser.add_argument("--t-grid", help="comma-separated t values")
    parser.add_argument("--out")
    parser.add_argument("--config", help="key = value config file (flags win)")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--form", choices=["simple", "extended"])
    parser.add_argument("--r-tilde-policy", choices=["estimate", "theoretical"])
    parser.add_argument("--anchors", help="pattern anchors, e.g. r411,r414")
    parser.add_argument("--cov-check", action="store_true")
    parser.add_argument("--couplings", action="store_true")
    parser.add_argument("--quantity")
    parser.add_argument("--input", dest="input_path")
    for key in _R_INPUTS:
        parser.add_argument("--" + key.replace("_", "-"), type=float)
    ns = parser.parse_args(list(argv))
    path = getattr(ns, "config", None)
    if path:
        file_flags = _config_flags(path)
        try:
            parser.parse_args([ns.subcommand, *file_flags])
        except _UsageError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        ns = parser.parse_args([*file_flags, *argv])
    args = vars(ns)
    args.pop("config", None)
    r_inputs = {key: args.pop(key) for key in _R_INPUTS if key in args}
    try:
        args.update((key, parse(args[key])) for key, parse in _PARSED_AFTER.items() if key in args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(r_inputs=r_inputs, **args)


def _output_path(cfg: ExperimentConfig) -> Optional[str]:
    if cfg.out:
        return cfg.out
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        return os.path.join(env_dir, f"{cfg.subcommand}.jsonl")
    return None


def _write_records(cfg: ExperimentConfig, records: list[ResultRecord]) -> None:
    path = _output_path(cfg)
    lines = [r.to_json() for r in records]
    if path is None:
        for line in lines:
            print(line)
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    if cfg.subcommand == "patterns":
        csv_path = os.path.splitext(path)[0] + ".csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(
                "anchor,class_id,lemma,m,multiplicity_order,bound_family,"
                "measured,ratio\n"
            )
            for rec in records:
                anchor = rec.quantity.replace("pattern_classes_", "")
                for row in rec.extra["rows"]:
                    fh.write(
                        f"{anchor},{row['class_id']},{row['lemma']},{row['m']},"
                        f"{row['multiplicity_order']},{row['bound_small_p']},"
                        f"{'' if row['measured'] is None else row['measured']},"
                        f"{'' if row['ratio'] is None else row['ratio']}\n"
                    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = build_config(argv)
        code, records = run(cfg)
        _write_records(cfg, records)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans around triclt's public functions, and the per-layer metrics made
from them.

The benchmark never edits the program: ``Tracer.installed()`` replaces each
traced function by a timing wrapper for the duration of a ``with`` block and
then puts the original back.  ``cli``, ``coupling`` and ``patterns`` bind
``gnp_edge_bits`` by ``from ... import``, so the wrapper replaces that name in
each of those modules; ``TripleBasis`` methods are wrapped on the class.
Spans are kept in memory (name, start, end, parent span, leg, count) and
written out when the run ends.  A span's self time is its duration minus
that of its direct children (calls are sequential, so children never
overlap).
"""

from __future__ import annotations

import contextlib
import statistics
import time
from functools import wraps

from triclt import cli, coupling, graphs, oracle, patterns, sampler

import inputs


def _count(pos: int, key: str):
    """Count taken from an argument: positional index pos, or keyword key."""
    return lambda *a, **k: {"count": k[key] if key in k else a[pos]}


def _rows(*a, **k):
    return {"count": a[1].shape[0]}


def _triangle_flop(edge_bits, n):
    return {"count": 2 * n**3 * edge_bits.shape[0]}


def _which(*a, **k):
    return {"which": k["which"] if "which" in k else a[4]}


# (owners, attribute, span name, attrs).  attrs gives what a span records
# besides its times: the count its per-unit metrics divide by (graphs drawn,
# rows processed, flop, points sorted, samples requested), or which r-term.
# x_matrix has no metric of its own; it is traced so that estimate_r's self
# time leaves out all of its graphs children.
def _traced_names():
    tb = graphs.TripleBasis
    return [
        ((sampler, cli, coupling, patterns), "gnp_edge_bits", "sampler.gnp_edge_bits", _count(2, "count")),
        ((sampler, cli), "proxy_samples", "sampler.proxy_samples", _count(2, "count")),
        ((graphs, cli), "batch_triangle_counts", "graphs.batch_triangle_counts", _triangle_flop),
        ((tb,), "triangle_bits", "graphs.TripleBasis.triangle_bits", _rows),
        ((tb,), "x_matrix", "graphs.TripleBasis.x_matrix", _rows),
        ((tb,), "y_matrix", "graphs.TripleBasis.y_matrix", _rows),
        ((tb,), "ypair_columns", "graphs.TripleBasis.ypair_columns", _rows),
        ((graphs, coupling, oracle), "triple_basis", "graphs.triple_basis", None),
        ((oracle,), "oracle_arrays", "oracle.oracle_arrays", None),
        ((cli,), "sample_w", "cli.sample_w", _count(2, "samples")),
        ((cli,), "sample_proxy_w", "cli.sample_proxy_w", _count(2, "samples")),
        ((cli,), "empirical_dk", "cli.empirical_dk", lambda *a, **k: {"count": len(a[0])}),
        ((cli,), "run", "cli.run", None),
        ((coupling, cli), "estimate_r", "coupling.estimate_r", _which),
        ((oracle,), "exact_r_terms", "oracle.exact_r_terms", None),
        ((oracle, cli), "verify_couplings", "oracle.verify_couplings", None),
        ((oracle, cli), "exact_chf_ode", "oracle.exact_chf_ode", None),
        ((oracle, cli), "exact_dk", "oracle.exact_dk", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.leg: str | None = None
        self.round: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, attrs):
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {
                "name": name,
                "leg": self.leg,
                "round": self.round,
                "parent": self._stack[-1] if self._stack else -1,
            }
            if attrs:
                span.update(attrs(*args, **kwargs))
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, leg: str, rnd: int | None = None):
        """Trace every listed function while the block runs, labelling the
        spans with `leg` and round `rnd`; restore the originals afterwards."""
        saved = []
        try:
            for owners, attr, name, attrs in _traced_names():
                original = owners[0].__dict__[attr]
                traced = self._wrap(name, original, attrs)
                for owner in owners:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, traced)
            self.leg, self.round = leg, rnd
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self.leg = self.round = None


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

GNP_LEG_NAMES = [leg for leg, *_ in inputs.GNP_LEGS]
PROXY_LEG_NAMES = [leg for leg, *_ in inputs.PROXY_LEGS]

# name -> (unit, better)
PER_LAYER = {}
for _leg in GNP_LEG_NAMES:
    PER_LAYER[f"sampler.gnp_edge_bits.us_per_sample.{_leg}"] = ("us", "lower")
    PER_LAYER[f"graphs.batch_triangle_counts.us_per_sample.{_leg}"] = ("us", "lower")
PER_LAYER.update({
    "graphs.batch_triangle_counts.gflop_per_s": ("GFLOP/s", "higher"),
    "cli.sample_w.self_us_per_sample": ("us", "lower"),
})
for _leg in PROXY_LEG_NAMES:
    PER_LAYER[f"sampler.proxy_samples.us_per_sample.{_leg}"] = ("us", "lower")
PER_LAYER.update({
    "cli.sample_proxy_w.self_us_per_sample": ("us", "lower"),
    "cli.empirical_dk.ms_per_100k_points": ("ms", "lower"),
    "sampler.gnp_edge_bits.us_per_sample.coupling": ("us", "lower"),
    "graphs.TripleBasis.triangle_bits.us_per_sample": ("us", "lower"),
    "graphs.TripleBasis.y_matrix.us_per_sample": ("us", "lower"),
    "graphs.TripleBasis.ypair_columns.us_per_sample": ("us", "lower"),
    "coupling.estimate_r.r3.ms_per_sample": ("ms", "lower"),
    "coupling.estimate_r.r4.ms_per_sample": ("ms", "lower"),
    "coupling.estimate_r.self_ms_per_sample": ("ms", "lower"),
    "coupling.draws_per_sample": ("graphs/sample", "lower"),
    "oracle.exact_r_terms.s": ("s", "lower"),
    "oracle.verify_couplings.s": ("s", "lower"),
    "oracle.exact_chf_ode.s": ("s", "lower"),
    "oracle.exact_dk.s": ("s", "lower"),
    "oracle.oracle_arrays.s": ("s", "lower"),
    "graphs.triple_basis.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class _Spans:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                self.child_time[s["parent"]] += s["end"] - s["start"]

    def select(self, name, leg=None, which=None):
        """Spans of `name` in leg `leg`; with no leg given, in every leg but
        the set-up."""
        return [
            (k, s) for k, s in enumerate(self.spans)
            if s["name"] == name
            and (s["leg"] == leg if leg is not None else s["leg"] != "setup")
            and (which is None or s.get("which") == which)
        ]

    def time(self, name, leg=None, which=None) -> float:
        return sum((s["end"] - s["start"] for _, s in self.select(name, leg, which)), 0.0)

    def self_time(self, name, leg=None) -> float:
        return sum(
            s["end"] - s["start"] - self.child_time[k] for k, s in self.select(name, leg)
        )

    def count(self, name, leg=None) -> int:
        return sum(s["count"] for _, s in self.select(name, leg))


def _per(total: float, units: float) -> float:
    """total / units, or 0.0 when the workload does not run this layer."""
    return total / units if units else 0.0


def layer_metrics(
    spans: list[dict], leg_samples: dict, rounds: int, overheads: list[float]
) -> dict:
    """Every per-layer metric.  `leg_samples` maps each leg name to the MC
    samples its traced runs requested, over all rounds.  Per-call oracle
    times are per round; layers a workload does not run read 0.0."""
    sp = _Spans(spans)
    out = {}
    for leg in GNP_LEG_NAMES:
        m = leg_samples.get(leg, 0)
        out[f"sampler.gnp_edge_bits.us_per_sample.{leg}"] = _per(
            1e6 * sp.time("sampler.gnp_edge_bits", leg), m)
        out[f"graphs.batch_triangle_counts.us_per_sample.{leg}"] = _per(
            1e6 * sp.time("graphs.batch_triangle_counts", leg), m)
    flop = sp.count("graphs.batch_triangle_counts")
    out["graphs.batch_triangle_counts.gflop_per_s"] = _per(
        flop / 1e9, sp.time("graphs.batch_triangle_counts"))
    out["cli.sample_w.self_us_per_sample"] = _per(
        1e6 * sp.self_time("cli.sample_w"), sp.count("cli.sample_w"))
    for leg in PROXY_LEG_NAMES:
        out[f"sampler.proxy_samples.us_per_sample.{leg}"] = _per(
            1e6 * sp.time("sampler.proxy_samples", leg), leg_samples.get(leg, 0))
    out["cli.sample_proxy_w.self_us_per_sample"] = _per(
        1e6 * sp.self_time("cli.sample_proxy_w"), sp.count("cli.sample_proxy_w"))
    out["cli.empirical_dk.ms_per_100k_points"] = _per(
        1e3 * 1e5 * sp.time("cli.empirical_dk"), sp.count("cli.empirical_dk"))

    m = leg_samples.get("coupling", 0)
    out["sampler.gnp_edge_bits.us_per_sample.coupling"] = _per(
        1e6 * sp.time("sampler.gnp_edge_bits", "coupling"), m)
    for method in ("triangle_bits", "y_matrix", "ypair_columns"):
        out[f"graphs.TripleBasis.{method}.us_per_sample"] = _per(
            1e6 * sp.time(f"graphs.TripleBasis.{method}", "coupling"), m)
    for which in ("r3", "r4"):
        out[f"coupling.estimate_r.{which}.ms_per_sample"] = _per(
            1e3 * sp.time("coupling.estimate_r", "coupling", which), m)
    out["coupling.estimate_r.self_ms_per_sample"] = _per(
        1e3 * sp.self_time("coupling.estimate_r", "coupling"), m)
    out["coupling.draws_per_sample"] = _per(sp.count("sampler.gnp_edge_bits", "coupling"), m)

    for name in ("exact_r_terms", "verify_couplings", "exact_chf_ode", "exact_dk"):
        out[f"oracle.{name}.s"] = sp.time(f"oracle.{name}") / rounds
    out["oracle.oracle_arrays.s"] = sp.time("oracle.oracle_arrays", "setup")
    out["graphs.triple_basis.s"] = sp.time("graphs.triple_basis", "setup")
    out["trace.overhead_s"] = statistics.median(overheads)
    assert list(out) == list(PER_LAYER)
    return out

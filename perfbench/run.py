"""Benchmark of triclt: run one workload and print its metrics.

    python3 perfbench/run.py --workload gnp_dk --seed 1 --seconds 6 --trace 0

Run from the root of a checkout; triclt is imported from its ``src/``.  Whole
rounds of the workload's legs run until their timed sections add up to
``--seconds`` (at least one round).  Every leg's output is checked outside
the timed section.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` every round runs
traced and the object holds the per-layer metrics.  Both also go, with
provenance, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gnp_dk", "proxy_dk", "r_terms")
SETUP_PROBES = 3

END_TO_END = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _limit_blas_threads() -> None:
    """At most one BLAS thread per usable core; set before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        cur = os.environ.get(var, "")
        os.environ[var] = cur if cur.isdigit() and 0 < int(cur) <= nproc else str(nproc)


def _setup_seconds(workload: str) -> list[float]:
    """Cold set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


@dataclasses.dataclass
class LegRun:
    leg: object          # workloads.Leg
    label: str           # "<round>/<leg name>"
    seconds: float       # timed section
    output: object
    error: Optional[str]  # traceback, if the leg raised


def _run_legs(legs, tracer, traced: bool, rnd: int) -> list[LegRun]:
    runs = []
    for leg in legs:
        label = f"{rnd}/{leg.name}"
        with tracer.installed(leg.name, rnd) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out, err = leg.run(), None
            except Exception:  # the benchmark counts it and carries on
                out, err = None, traceback.format_exc()
            seconds = time.perf_counter() - t0
        if err:
            print(f"{label} raised:\n{err}", file=sys.stderr)
        runs.append(LegRun(leg, label, seconds, out, err))
    return runs


class Tally:
    """Operations attempted and failed, and the checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def record(self, run: LegRun, fails: list[str]) -> None:
        self.attempted += 1
        if run.error or fails:
            self.failed += 1
        for msg in fails:
            self.wrong.append(f"{run.label}: {msg}")
            print(f"CHECK FAILED {run.label}: {msg}", file=sys.stderr)


def _check(runs: list[LegRun], repeats: list[LegRun], tally: Tally) -> None:
    by_name = {r.leg.name: r for r in runs}
    for run in runs:
        tally.record(run, [] if run.error else run.leg.check(run.output))
    for rep in repeats:
        first = by_name[rep.leg.name]
        same = rep.error or first.error or rep.leg.digest(rep.output) == rep.leg.digest(first.output)
        tally.record(rep, [] if same else ["output differs between traced and untraced runs"])


def _mc_rate(runs: list[LegRun]) -> float:
    mc = [r for r in runs if r.leg.samples]
    return sum(r.leg.samples for r in mc) / sum(r.seconds for r in mc)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "triclt" / "__init__.py").is_file():
        print(f"no triclt source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import triclt

    if Path(triclt.__file__).resolve().parent != ROOT / "src" / "triclt":
        print(f"triclt imported from {triclt.__file__}, not from the checkout", file=sys.stderr)
        return 2

    import inputs
    import provenance
    import tracing
    import workloads

    wl = workloads.make(args.workload)
    setup_times = _setup_seconds(wl.name)
    tracer = tracing.Tracer()
    with tracer.installed("setup") if args.trace else contextlib.nullcontext():
        inputs.SETUP[wl.name]()
    if wl.warmup:
        _run_legs(wl.legs(inputs.round_seed(args.seed, 0)), tracer, False, 0)

    tally = Tally()
    rounds: list[list[LegRun]] = []
    overheads: list[float] = []
    measured = 0.0
    while not rounds or measured < args.seconds:
        rnd = len(rounds) + 1
        legs = wl.legs(inputs.round_seed(args.seed, rnd))
        repeats: list[LegRun] = []
        if args.trace:
            again = [leg for leg in legs if wl.repeat_legs is None or leg.name in wl.repeat_legs]
            if rnd % 2:  # alternate the order, so warm-up favours neither side
                runs = _run_legs(legs, tracer, True, rnd)
                repeats = _run_legs(again, tracer, False, rnd)
            else:
                repeats = _run_legs(again, tracer, False, rnd)
                runs = _run_legs(legs, tracer, True, rnd)
            names = {leg.name for leg in again}
            traced = sum(r.seconds for r in runs if r.leg.name in names)
            overheads.append(traced - sum(r.seconds for r in repeats))
        else:
            runs = _run_legs(legs, tracer, False, rnd)
        measured += sum(r.seconds for r in runs + repeats)
        rounds.append(runs)
        _check(runs, repeats, tally)
        inputs.SETUP[wl.name]()  # re-warm program caches the checks evicted

    round_wall = [sum(r.seconds for r in runs) for runs in rounds]
    end_to_end = {
        "wall_s": statistics.median(round_wall),
        "samples_per_s": statistics.median(_mc_rate(runs) for runs in rounds),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        leg_samples = collections.Counter()
        for runs in rounds:
            for r in runs:
                leg_samples[r.leg.name] += r.leg.samples
        per_layer = tracing.layer_metrics(tracer.spans, leg_samples, len(rounds), overheads)
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance.collect(ROOT, args.seed),
        "result": result,
        "end_to_end": end_to_end,
        "setup_probe_s": setup_times,
        "rounds": [{r.leg.name: r.seconds for r in runs} for runs in rounds],
        "trace_overhead_s": overheads,
        "failed_checks": tally.wrong,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(tracer.spans) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(rounds)}, attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from triclt import cli
from triclt.cli import (
    ExperimentConfig,
    ResultRecord,
    build_config,
    empirical_dk,
    main,
    parse_p_rule,
    rate_fit,
    run,
    sample_w,
)
from triclt.coupling import DEFAULT_T_GRID, estimate_r
from triclt.errors import ConfigError, InputError, NumericError
from triclt.oracle import exact_dk


# ---------------------------------------------------------------------------
# empirical d_K
# ---------------------------------------------------------------------------


def test_empirical_dk_point_mass_at_zero():
    res = empirical_dk([0.0, 0.0, 0.0])
    assert res["dk"] == pytest.approx(0.5, abs=1e-14)


def test_empirical_dk_two_points():
    res = empirical_dk([-1.0, 1.0])
    assert res["dk"] == pytest.approx(0.3413447460685429, abs=1e-12)


def test_empirical_dk_on_normal_quantile_grid():
    m = 1_000_000
    xs = ndtri((np.arange(1, m + 1) - 0.5) / m)
    res = empirical_dk(xs)
    assert res["dk"] <= 1e-6  # grid effect only: 0.5/m
    assert res["dk"] == pytest.approx(0.5 / m, rel=1e-6)


def test_empirical_dk_range_and_duplicate_shift():
    rng = np.random.default_rng(0)
    w = rng.normal(size=500)
    base = empirical_dk(w)["dk"]
    assert 0.0 <= base <= 1.0
    shifted = empirical_dk(np.concatenate([w, [w[0]]]))["dk"]
    assert abs(shifted - base) <= 1.0 / 500 + 1e-12


def test_empirical_dk_band():
    res = empirical_dk(np.zeros(10_000), delta=0.01)
    assert res["dkw_band"] == pytest.approx(math.sqrt(math.log(200.0) / 20_000))
    with pytest.raises(InputError):
        empirical_dk([1.0])
    with pytest.raises(InputError):
        empirical_dk([1.0, 2.0], delta=0.0)


def test_empirical_vs_exact_dk_coverage():
    # DKW coverage at 0.99: at most 3 violations in 100 seeded repetitions
    n, p, m = 5, 0.3, 10_000
    truth = exact_dk(n, p)
    violations = 0
    for rep in range(100):
        w = sample_w(n, p, m, seed=1000 + rep)
        res = empirical_dk(w)
        if abs(res["dk"] - truth) > res["dkw_band"]:
            violations += 1
    assert violations <= 3


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_rate_fit_exact_powers():
    pts = [(n, 5.0 / n) for n in (16, 32, 64)]
    fit = rate_fit(pts)
    assert fit["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    fit = rate_fit([(n, 3.0 * n**-0.6) for n in (16, 32, 64, 128)])
    assert fit["slope"] == pytest.approx(-0.6, abs=1e-12)


def test_rate_fit_noisy_slope():
    rng = np.random.default_rng(5)
    pts = [(n, (1.0 / n) * float(np.exp(0.05 * rng.normal()))) for n in (8, 16, 32, 64, 128)]
    fit = rate_fit(pts)
    assert -1.1 < fit["slope"] < -0.9


def test_rate_fit_scale_invariance():
    pts = [(n, 0.7 * n**-0.8) for n in (10, 20, 40)]
    scaled = [(n, 100 * d) for n, d in pts]
    assert rate_fit(pts)["slope"] == pytest.approx(rate_fit(scaled)["slope"], abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(InputError):
        rate_fit([(16, 0.1), (32, 0.05)])
    with pytest.raises(InputError):
        rate_fit([(16, 0.1), (32, -0.05), (64, 0.01)])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_p_rules():
    assert parse_p_rule("fixed:0.5") == {"kind": "fixed", "value": 0.5}
    assert parse_p_rule("0.25") == {"kind": "fixed", "value": 0.25}
    assert parse_p_rule("power:1.0,0.6") == {"kind": "power", "c": 1.0, "alpha": 0.6}
    with pytest.raises(ConfigError):
        parse_p_rule("banana")


def test_power_rule_guard():
    cfg = ExperimentConfig(
        subcommand="moments", n_list=(32,), p_rule={"kind": "power", "c": 1.0, "alpha": 0.6}
    )
    # n = 32: p = 32^-0.6 = 0.125, np = 4.0 exactly -> admitted
    assert cfg.resolve_p(32) == pytest.approx(0.125)
    with pytest.raises(ConfigError):
        cfg.resolve_p(16)  # np = 16^0.4 = 3.03 < 4


def test_build_config_flags_and_file(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "n = 4,5\np = fixed:0.25\nsamples = 1234\nseed = 9\n"
        "t_grid = 1,2\ncov_check = true\ncouplings = false\n"
    )
    cfg = build_config(["moments", "--config", str(conf)])
    assert cfg.n_list == (4, 5)
    assert cfg.p_rule == {"kind": "fixed", "value": 0.25}
    assert cfg.samples == 1234
    assert cfg.t_grid == (1.0, 2.0)
    assert cfg.cov_check is True
    assert cfg.couplings is False
    # a switch takes only true or false
    bad = tmp_path / "bad.conf"
    bad.write_text("couplings = yes\n")
    with pytest.raises(ConfigError, match="bad.conf"):
        build_config(["moments", "--config", str(bad)])
    # flags win over the file
    cfg = build_config(["moments", "--config", str(conf), "--p", "fixed:0.5", "--seed", "3"])
    assert cfg.p_rule["value"] == 0.5
    assert cfg.seed == 3
    assert cfg.samples == 1234


# ---------------------------------------------------------------------------
# run() and records
# ---------------------------------------------------------------------------


def _cfg(**kw) -> ExperimentConfig:
    defaults = dict(
        subcommand="moments",
        n_list=(4,),
        p_rule={"kind": "fixed", "value": 0.5},
        samples=2000,
        seed=1,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_moments_record():
    code, records = run(_cfg())
    assert code == 0
    rec = records[0]
    assert rec.quantity == "var_T"
    assert rec.value == pytest.approx(0.625, abs=1e-12)
    assert rec.extra["mean_T"] == pytest.approx(0.5)
    assert rec.regime == "sparse"  # p = n^{-1/2} exactly at n=4, p=0.5


def test_record_round_trip_and_hash_determinism():
    _, records = run(_cfg())
    rec = records[0]
    clone = ResultRecord.from_json(rec.to_json())
    assert clone.content_hash() == rec.content_hash()
    assert clone.value == rec.value
    # rerun: identical hash despite fresh timestamps
    _, records2 = run(_cfg())
    assert records2[0].content_hash() == rec.content_hash()
    assert records2[0].timestamp != 0.0


@pytest.mark.parametrize("subcommand", ["sample-dk", "proxy", "coupling", "oracle"])
def test_timing_stays_outside_content_hash(subcommand):
    n = 5 if subcommand == "oracle" else 8
    cfg = _cfg(subcommand=subcommand, n_list=(n,), samples=3000, seed=5, t_grid=(1.0,),
               couplings=True)
    _, records = run(cfg)
    rec = records[-1]
    assert rec.timing["seconds"] > 0
    if subcommand == "oracle":
        # one exact routine per record, no samples
        assert [r.quantity for r in records] == [
            "exact_distribution", "exact_dk", "ode_residual", "coupling_residuals"
        ]
        assert all(set(r.timing) == {"seconds"} and r.timing["seconds"] > 0 for r in records)
    else:
        assert set(rec.timing) == {"seconds", "samples_per_s"}
        assert rec.timing["samples_per_s"] == pytest.approx(3000 / rec.timing["seconds"])
    assert set(rec.provenance) == {
        "python", "numpy", "scipy", "blas", "openblas_num_threads", "omp_num_threads", "cpus"
    }
    assert rec.provenance["numpy"] == np.__version__
    assert rec.provenance["cpus"] >= 1
    assert all(r.provenance == rec.provenance for r in records)
    bare = dataclasses.replace(rec, timing={}, provenance={})
    assert bare.content_hash() == rec.content_hash()
    for r in (rec, bare):
        clone = ResultRecord.from_json(r.to_json())
        assert clone.timing == r.timing
        assert clone.provenance == r.provenance
        assert clone.content_hash() == rec.content_hash()
    # a record written before the fields existed still loads, without them
    body = json.loads(rec.to_json())
    del body["timing"], body["provenance"]
    old = ResultRecord.from_json(json.dumps(body))
    assert old.timing == {}
    assert old.provenance == {}
    assert old.content_hash() == rec.content_hash()


def test_run_sample_dk_deterministic():
    cfg = _cfg(subcommand="sample-dk", n_list=(8,), samples=3000, seed=5)
    _, a = run(cfg)
    _, b = run(cfg)
    assert a[0].content_hash() == b[0].content_hash()
    assert 0.0 < a[0].value < 1.0
    assert a[0].extra["samples"] == 3000


def test_run_oracle_records():
    cfg = _cfg(subcommand="oracle", n_list=(4,), couplings=True)
    _, records = run(cfg)
    by_q = {}
    for r in records:
        by_q.setdefault(r.quantity, []).append(r)
    assert by_q["exact_dk"][0].value == pytest.approx(0.3770803715672313, abs=1e-10)
    assert all(r.value < 1e-9 for r in by_q["ode_residual"])
    assert by_q["coupling_residuals"][0].value < 1e-9
    dist = by_q["exact_distribution"][0]
    assert dist.extra["variance"] == pytest.approx(0.625, abs=1e-11)


def test_run_coupling_bound_record():
    cfg = _cfg(subcommand="coupling", n_list=(5,), p_rule={"kind": "fixed", "value": 0.3},
               samples=2000, t_grid=(1.0,))
    _, records = run(cfg)
    rec = records[0]
    assert rec.quantity == "coupling_bound"
    assert rec.value > 0
    assert set(rec.extra["components"]) == {"r31", "r32", "r33", "r41", "r42", "r43"}
    assert rec.extra["r_tilde_policy"] == "theoretical"
    assert 0.0 < rec.extra["empirical_dk"] < 1.0
    assert rec.extra["dk_band"] > 0


def test_coupling_record_r_terms_and_dk_share_graphs():
    cfg = _cfg(subcommand="coupling", n_list=(8,), samples=1000, seed=7, streams=2)
    rec = run(cfg)[1][0]
    w = sample_w(8, 0.5, 1000, seed=7, streams=2)
    assert rec.extra["empirical_dk"] == empirical_dk(w)["dk"]
    est = estimate_r(8, 0.5, 1000, DEFAULT_T_GRID, ("r3", "r4"), 7, streams=2)
    assert np.array_equal(est["w"], w)
    assert rec.extra["r_values"] == {"r3": est["r3"].value, "r4": est["r4"].value}
    single = run(_cfg(subcommand="coupling", n_list=(8,), samples=1000, seed=7))[1][0]
    assert single.extra["r_values"]["r3"] != rec.extra["r_values"]["r3"]
    assert single.extra["r_values"]["r4"] != rec.extra["r_values"]["r4"]


def test_run_rejects_non_finite_numbers(monkeypatch):
    def emit(**kw):
        return lambda cfg: [cli._mkrecord(cfg, "x", value=1.0, **kw)]

    monkeypatch.setitem(cli._SUBCOMMANDS, "moments", emit(std_error=float("nan")))
    with pytest.raises(NumericError):
        run(_cfg())
    monkeypatch.setitem(
        cli._SUBCOMMANDS, "moments", emit(extra={"a": {"b": [1.0, float("inf")]}})
    )
    with pytest.raises(NumericError):
        run(_cfg())
    monkeypatch.setitem(cli._SUBCOMMANDS, "moments", emit(extra={"a": [1.0, "x", None]}))
    assert run(_cfg())[0] == 0


def test_run_bound_record():
    cfg = _cfg(
        subcommand="bound",
        n_list=(100,),
        p_rule={"kind": "fixed", "value": 0.7},
        r_inputs={"r3": 0.01, "r3_tilde": 0.01, "r4": 1e-4},
    )
    _, records = run(cfg)
    rec = records[0]
    assert rec.regime == "dense"
    assert rec.extra["thm1_rate"] == pytest.approx(1 / (100 * math.sqrt(0.3)))
    assert rec.value == pytest.approx(0.075, abs=1e-12)
    # rates-only mode when no r inputs are given
    _, records = run(_cfg(subcommand="bound", n_list=(100,),
                          p_rule={"kind": "fixed", "value": 0.7}))
    assert records[0].value is None
    assert records[0].extra["r3_theoretical"] > 0


def test_run_proxy_records():
    cfg = _cfg(subcommand="proxy", n_list=(8,), samples=4000)
    _, records = run(cfg)
    quantities = [r.quantity for r in records]
    assert quantities == ["proxy_exact", "proxy_dk"]
    assert records[0].extra["gamma"] > 0
    assert 0.0 < records[1].value < 1.0


def test_run_patterns_and_rate_fit_pipeline(tmp_path):
    out = tmp_path / "records.jsonl"
    rc = main([
        "sample-dk", "--n", "6,8,10", "--p", "fixed:0.5", "--samples", "2000",
        "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    rc = main(["rate-fit", "--input", str(out), "--out", str(tmp_path / "fit.jsonl")])
    assert rc == 0
    fit = json.loads((tmp_path / "fit.jsonl").read_text().splitlines()[0])
    assert fit["quantity"] == "rate_fit"
    assert len(fit["extra"]["points"]) == 3

    rc = main(["patterns", "--anchors", "r411", "--out", str(tmp_path / "pat.jsonl")])
    assert rc == 0
    csv_text = (tmp_path / "pat.csv").read_text().splitlines()
    assert csv_text[0].startswith("anchor,class_id,lemma,m,")
    assert len(csv_text) == 1 + 6  # header + six classes


def _sample_dk(out, n, seed=2):
    return main([
        "sample-dk", "--n", n, "--p", "fixed:0.5", "--samples", "2000",
        "--seed", str(seed), "--out", str(out),
    ])


def test_rate_fit_refuses_repeated_n(tmp_path):
    out = tmp_path / "records.jsonl"
    assert _sample_dk(out, "6,8,10") == 0
    assert _sample_dk(out, "6,8,10") == 0  # the same run appended again
    assert main(["rate-fit", "--input", str(out)]) == 2


def test_rate_fit_refuses_mixed_configs(tmp_path):
    out = tmp_path / "records.jsonl"
    assert _sample_dk(out, "6,8") == 0
    assert _sample_dk(out, "12", seed=3) == 0
    assert main(["rate-fit", "--input", str(out)]) == 2
    # runs that differ only in n_list are one experiment
    same = tmp_path / "same.jsonl"
    assert _sample_dk(same, "6,8") == 0
    assert _sample_dk(same, "12") == 0
    assert main(["rate-fit", "--input", str(same), "--out", str(tmp_path / "f")]) == 0


def test_rate_fit_keeps_zero_values(tmp_path):
    out = tmp_path / "records.jsonl"
    assert _sample_dk(out, "6,8,10") == 0
    _, records = run(_cfg(subcommand="sample-dk", n_list=(12,), seed=2))
    body = json.loads(records[0].to_json())
    body["value"] = 0.0
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(body) + "\n")
    cfg = _cfg(subcommand="rate-fit", input_path=str(out))
    with pytest.raises(InputError, match="positive"):
        run(cfg)  # the 0.0 point is fitted, not silently dropped


def test_main_exit_codes(tmp_path):
    assert main(["frobnicate"]) == 1                       # usage
    assert main(["moments", "--p", "fixed:0.5"]) == 2      # config: no n
    assert main(["moments", "--n", "4"]) == 2              # config: no p rule
    assert main(["oracle", "--n", "9", "--p", "fixed:0.5"]) == 3   # capacity
    assert main(["sample-dk", "--n", "16", "--p", "power:1.0,0.6"]) == 2  # np < 4
    assert main(["proxy", "--n", "1032", "--p", "fixed:0.5"]) == 1  # n > MAX_PROXY_N
    ok = tmp_path / "ok.jsonl"
    assert main(["moments", "--n", "4", "--p", "fixed:0.5", "--out", str(ok)]) == 0
    # config files: a misspelled, unknown or abbreviated key, a bad choice
    # and `false` for a key that is not a switch are config errors before
    # any work, as is a missing --config or --input file
    for name, line in (("typo", "sampels = 5000"), ("unknown", "foo = 1"),
                       ("choice", "form = banana"), ("prefix", "sample = 5000"),
                       ("abbrev", "sam = 5"), ("false", "seed = false")):
        conf = tmp_path / f"{name}.conf"
        conf.write_text(f"n = 4\np = fixed:0.5\n{line}\n")
        assert main(["moments", "--config", str(conf), "--out", str(ok)]) == 2
    assert main(["moments", "--config", str(tmp_path / "missing.conf")]) == 2
    assert main(["rate-fit", "--input", str(tmp_path / "missing.jsonl")]) == 2
    # an input line that is not JSON, a record without an n, or not a record
    for name, line in (("text", "not json"),
                       ("null_n", '{"quantity": "empirical_dk", "n": null, "value": 0.1}'),
                       ("list", "[1,2]")):
        records = tmp_path / f"{name}.jsonl"
        records.write_text(line + "\n")
        assert main(["rate-fit", "--input", str(records)]) == 2


def test_every_n_is_checked_before_any_work(monkeypatch, tmp_path):
    # a bad n late in the list fails the run before the first n is worked on
    def never(*args, **kwargs):
        raise AssertionError("work began before every n was checked")

    for name in ("sample_w", "sample_proxy_w", "enumerate_distribution"):
        monkeypatch.setattr(cli, name, never)
    assert main(["sample-dk", "--n", "128,8", "--p", "power:1,0.6",
                 "--samples", "100000"]) == 2          # n p < 4 at n = 8
    assert main(["proxy", "--n", "128,1032", "--p", "fixed:0.5",
                 "--samples", "200000"]) == 1          # past the sampler's cap
    assert main(["proxy", "--n", "16,3", "--p", "fixed:0.5"]) == 1
    assert main(["oracle", "--n", "7,8", "--p", "fixed:0.5"]) == 3
    assert main(["oracle", "--n", "7", "--p", "fixed:0.5", "--couplings"]) == 3
    # without sampling, the proxy model's exact part takes any n >= 4
    out = tmp_path / "proxy.jsonl"
    assert main(["proxy", "--n", "2000", "--p", "fixed:0.5", "--samples", "0",
                 "--out", str(out)]) == 0
    assert [json.loads(line)["quantity"] for line in out.read_text().splitlines()] == [
        "proxy_exact"
    ]


def test_patterns_csv_mirrors_the_appended_jsonl(tmp_path):
    out = tmp_path / "f.jsonl"
    for _ in range(2):
        assert main(["patterns", "--anchors", "r411", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    csv_lines = (tmp_path / "f.csv").read_text().splitlines()
    assert csv_lines[0].startswith("anchor,class_id,")
    assert sum(line.startswith("anchor,") for line in csv_lines) == 1
    assert len(records) == 2
    assert len(csv_lines) - 1 == sum(len(r["extra"]["rows"]) for r in records) == 12


def test_python_m_triclt_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "triclt", "moments", "--n", "4", "--p", "fixed:0.5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[0])["quantity"] == "var_T"


def test_patterns_cov_check_takes_one_n_up_to_7(tmp_path):
    base = ["patterns", "--anchors", "r411", "--cov-check", "--p", "fixed:0.5"]
    assert main(base + ["--n", "8"]) == 3    # capacity: exact enumeration
    assert main(base + ["--n", "7,6"]) == 2  # config: one n only
    assert main(base) == 2                   # config: no n
    # config: every r414 class spans 6 vertices or more
    assert main(["patterns", "--anchors", "r414", "--cov-check", "--n", "5",
                 "--p", "fixed:0.5"]) == 2
    part = tmp_path / "part.jsonl"
    assert main(["patterns", "--anchors", "r414", "--cov-check", "--n", "6",
                 "--p", "fixed:0.5", "--out", str(part)]) == 0
    rows = json.loads(part.read_text())["extra"]["rows"]
    assert sum(row["measured"] is not None for row in rows) == 5
    out = tmp_path / "pat.jsonl"
    assert main(base + ["--n", "6", "--out", str(out)]) == 0
    rows = json.loads(out.read_text().splitlines()[0])["extra"]["rows"]
    assert all(row["measured"] is not None for row in rows)


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TRICLT_OUT", str(tmp_path))
    rc = main(["moments", "--n", "4", "--p", "fixed:0.5"])
    assert rc == 0
    lines = (tmp_path / "moments.jsonl").read_text().splitlines()
    body = json.loads(lines[0])
    assert body["quantity"] == "var_T"
    assert "content_hash" in body


def test_proxy_dk_below_berry_esseen_bound():
    # measured proxy distance sits below the C=1 Eq.-style bound n^2 gamma/s^3
    from triclt.cli import sample_proxy_w
    from triclt.moments import proxy_exact

    for n in (16, 64):
        w = sample_proxy_w(n, 0.5, 20_000, seed=3)
        res = empirical_dk(w)
        assert res["dk"] + res["dkw_band"] < proxy_exact(n, 0.5).be_bound


def test_stream_partition_of_sample_w():
    # merged multiset is a pure function of (seed, stream count)
    a = np.sort(sample_w(6, 0.4, 999, seed=4, streams=3))
    b = np.sort(sample_w(6, 0.4, 999, seed=4, streams=3))
    assert np.array_equal(a, b)
    single = np.sort(sample_w(6, 0.4, 999, seed=4, streams=1))
    assert not np.array_equal(a, single)  # different stream split, same law

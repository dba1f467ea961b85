from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from triclt.errors import CapacityError, InputError
from triclt.patterns import (
    PatternConfig,
    canonical_form,
    classify_pattern,
    enumerate_classes,
    exact_abs_product_moment,
    lemma_bound_family,
    moment_bound_check,
    pattern_cov_check,
)

PINS = json.loads((Path(__file__).parent / "data" / "covariance_pins.json").read_text())


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_all_equal_is_l9_m3():
    cfg = PatternConfig(v=(0, 1, 2), w=(0, 1, 2), vp=(0, 1, 2), wp=(0, 1, 2))
    cls = classify_pattern(cfg)
    assert cls.lemma_tag == "L9"
    assert cls.m == 3
    assert cls.multiplicity_order == 0


def test_classify_disjoint_hulls_is_l11():
    cfg = PatternConfig(v=(0, 1, 2), w=(0, 1, 6), vp=(3, 4, 5), wp=(3, 4, 7))
    cls = classify_pattern(cfg)
    assert cls.lemma_tag == "L11"
    # satellites share an edge with their base by construction, so the edge
    # union is 3+2+3+2 = 10 (matching the p^13 = p^{m+3} table bound)
    assert cls.m == 10
    assert cls.small_p_exponent == 13
    assert cls.multiplicity_order == 2


def test_classify_l10_and_l12_conditions():
    # |v & v'| = 1 with satellite overlap inside the base intersection
    cfg = PatternConfig(v=(0, 1, 2), w=(0, 1, 2), vp=(0, 3, 4), wp=(0, 3, 4))
    assert classify_pattern(cfg).lemma_tag == "L10"
    # disjoint bases with a single hull contact
    cfg = PatternConfig(v=(0, 1, 2), w=(0, 1, 2), vp=(3, 4, 5), wp=(0, 3, 4))
    assert classify_pattern(cfg).lemma_tag == "L12"


def test_classify_mixed_overlap_falls_back_to_l9():
    cfg = PatternConfig(v=(0, 1, 2), w=(0, 1, 3), vp=(0, 1, 4), wp=(0, 1, 5))
    assert classify_pattern(cfg).lemma_tag == "L9"


def test_classify_validates_membership():
    with pytest.raises(InputError):
        PatternConfig(v=(0, 1, 2), w=(3, 4, 5), vp=(0, 1, 2), wp=(0, 1, 2))
    with pytest.raises(CapacityError):
        PatternConfig(v=(0, 1, 9), w=(0, 1, 9), vp=(0, 1, 9), wp=(0, 1, 9))


def test_classification_is_isomorphism_invariant():
    rng = random.Random(7)
    base = PatternConfig(v=(0, 1, 2), w=(0, 1, 3), vp=(3, 4, 5), wp=(3, 4, 6))
    ref = classify_pattern(base)
    labels = sorted({x for t in base.triples() for x in t})
    for _ in range(12):
        perm_to = rng.sample(range(9), len(labels))
        mapping = dict(zip(labels, perm_to))
        relabeled = PatternConfig(
            *(tuple(sorted(mapping[x] for x in t)) for t in base.triples())
        )
        cls = classify_pattern(relabeled)
        assert (cls.lemma_tag, cls.m, cls.multiplicity_order) == (
            ref.lemma_tag,
            ref.m,
            ref.multiplicity_order,
        )
        assert canonical_form(relabeled) == canonical_form(base)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_r411_classes():
    classes = enumerate_classes("r411")
    assert len(classes) == 6
    orders = sorted(c.multiplicity_order for c in classes)
    assert orders == [0, 1, 1, 1, 2, 2]
    # honest edge-union sizes; the published table's row-6 bound (p^5 family)
    # is valid but not tight for its own picture, whose edge union is 7
    assert sorted(c.m for c in classes) == [3, 5, 5, 6, 7, 7]
    assert all(c.lemma_tag == "L9" for c in classes)
    assert all(c.small_p_exponent == c.m for c in classes)


def test_enumerate_r414_classes():
    classes = enumerate_classes("r414")
    # the published table prints 11 rows, but its rows 5 and 6 are the same
    # isomorphism class (in the table's 1-based labels (1 4)(2 5 3 6) maps
    # row 6 onto row 5), so the honest enumeration yields 10
    assert len(classes) == 10
    assert sorted(c.small_p_exponent for c in classes) == [
        9, 9, 9, 10, 10, 11, 11, 11, 11, 13,
    ]
    tags = sorted(c.lemma_tag for c in classes)
    assert tags == ["L11"] * 3 + ["L12"] * 4 + ["L9"] * 3
    assert sorted(c.multiplicity_order for c in classes) == [0] * 5 + [1] * 4 + [2]
    # published rows 1, 3, 11 (L11): exponents 9, 11, 13
    l11 = sorted(c.small_p_exponent for c in classes if c.lemma_tag == "L11")
    assert l11 == [9, 11, 13]
    # published rows 2, 8-10 (L12): exponents 9, 11, 11, 11
    l12 = sorted(c.small_p_exponent for c in classes if c.lemma_tag == "L12")
    assert l12 == [9, 11, 11, 11]


def test_enumerate_table4_rows_5_and_6_collapse():
    # the two printed orientations are one unordered class
    row5 = PatternConfig(v=(0, 1, 2), w=(0, 2, 5), vp=(3, 4, 5), wp=(1, 3, 5))
    row6 = PatternConfig(v=(0, 1, 2), w=(0, 2, 5), vp=(3, 4, 5), wp=(2, 3, 4))
    assert canonical_form(row5) == canonical_form(row6)
    assert classify_pattern(row5).m == classify_pattern(row6).m == 10
    # the explicit isomorphism, without canonical_form: the 0-based
    # relabelling (0 3)(1 5 2 4) takes row 5 onto row 6 (the inverse of the
    # 1-based (1 4)(2 5 3 6), which takes row 6 onto row 5); the image swaps
    # the two (base, satellite) pairs, which a pattern does not order
    sigma = {0: 3, 3: 0, 1: 5, 5: 2, 2: 4, 4: 1}

    def pairs(cfg: PatternConfig, relabel: dict[int, int]) -> set:
        v, w, vp, wp = (frozenset(relabel[x] for x in t) for t in cfg.triples())
        return {(v, w), (vp, wp)}

    identity = {x: x for x in range(6)}
    assert pairs(row5, sigma) == pairs(row6, identity)
    assert pairs(row5, identity) != pairs(row6, identity)


def test_enumerate_r42x_aliases():
    assert [c.canonical for c in enumerate_classes("r421")] == [
        c.canonical for c in enumerate_classes("r411")
    ]


def test_enumerate_r412_r413_reports():
    # no printed ground truth for these tables; pin the computed shapes
    r412 = enumerate_classes("r412")
    r413 = enumerate_classes("r413")
    assert len(r412) == 22
    assert len(r413) == 23
    for cls in r412 + r413:
        offset = {"L9": 0, "L10": 1, "L12": 1, "L11": 3}[cls.lemma_tag]
        assert cls.small_p_exponent == cls.m + offset
        assert 3 <= cls.m <= 12
        assert cls.multiplicity_order in (0, 1, 2)


def test_section31_fifteenth_row_example():
    # bases (123, 145) with u = 234, u' = 456 (0-based below): Lemma 9 with
    # edge union 10; the quoted p^9 + n p^11 + n^2 p^13 family dominates the
    # tight one at every p
    cfg = PatternConfig(v=(0, 1, 2), w=(1, 2, 3), vp=(0, 3, 4), wp=(3, 4, 5))
    cls = classify_pattern(cfg)
    assert cls.lemma_tag == "L9"
    assert cls.m == 10
    for n in (10, 100):
        for p in (0.05, 0.3, 0.7):
            quoted = min(n * n * (1 - p), p**9 + n * p**11 + n * n * p**13)
            tight = lemma_bound_family("L9", n, p, cls.m)
            assert tight <= quoted + 1e-15


def test_enumerate_unknown_anchor():
    with pytest.raises(InputError):
        enumerate_classes("r999")


# ---------------------------------------------------------------------------
# Lemma 8 moment bounds
# ---------------------------------------------------------------------------


def test_single_indicator_moment_closed_form():
    for p in (0.1, 0.5, 0.9):
        rows = moment_bound_check([(0, 1, 2)], [p])
        expect = 2 * (1 - p) * p**3 * (1 + p + p * p)
        assert rows[0].exact == pytest.approx(expect, rel=1e-12)
        assert rows[0].ok


def test_pair_moment_example():
    rows = moment_bound_check([(0, 1, 2), (0, 1, 3)], [0.5])
    assert rows[0].exact <= 4 * 0.5**5 + 1e-15
    assert rows[0].exact == pytest.approx(0.056640625, abs=1e-12)


def test_moment_bound_near_one():
    # p -> 1: both the moment and the 6(1-p) bound vanish, ratio bounded
    rows = moment_bound_check([(0, 1, 2), (1, 2, 3)], [0.95, 0.99])
    for r in rows:
        assert r.ok
        assert r.exact / (6 * (1 - r.p)) < 1.0


def test_moment_bound_all_enumerated_classes():
    p_grid = [0.05 * k for k in range(1, 20)]
    for anchor in ("r411", "r414"):
        for cls in enumerate_classes(anchor):
            rows = moment_bound_check(list(cls.representative.triples()), p_grid)
            assert all(r.ok for r in rows)


def test_moment_bound_capacity():
    with pytest.raises(InputError):
        moment_bound_check([], [0.5])
    with pytest.raises(CapacityError):
        moment_bound_check([(0, 1, 2)] * 7, [0.5])


def test_abs_product_moment_matches_independent_evaluation():
    # independent oracle: expectation over explicit edge states via dict
    import itertools

    triples = [(0, 1, 2), (0, 1, 3)]
    p = 0.35
    edges = sorted({tuple(sorted(e)) for t in triples for e in itertools.combinations(t, 2)})
    total = 0.0
    for state in itertools.product((0, 1), repeat=len(edges)):
        on = dict(zip(edges, state))
        w = math.prod(p if b else 1 - p for b in state)
        val = 1.0
        for t in triples:
            tri = all(on[tuple(sorted(e))] for e in itertools.combinations(t, 2))
            val *= (1.0 - p**3) if tri else -(p**3)
        total += w * abs(val)
    assert exact_abs_product_moment(triples, p) == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# covariance checks
# ---------------------------------------------------------------------------


def _class_from_pin(key: str):
    triples = [tuple(t) for t in PINS[key]]
    cfg = PatternConfig(*triples)
    return classify_pattern(cfg)


def test_cov_check_exact_n6_runs_and_scales():
    cls = _class_from_pin("l11_representative")
    rep6 = pattern_cov_check(cls, 6, 0.5, t=1.0, mode="exact")
    rep7 = pattern_cov_check(cls, 7, 0.5, t=1.0, mode="exact")
    assert math.isfinite(rep6.cov_abs) and rep6.cov_abs > 0
    # polynomial-in-n family: no super-polynomial jump between n=6 and 7
    assert rep7.cov_abs / rep6.cov_abs < 10.0


def test_cov_check_small_t_vanishes():
    cls = _class_from_pin("l11_representative")
    rep = pattern_cov_check(cls, 6, 0.5, t=1e-8, mode="exact")
    assert rep.cov_abs < 1e-12  # f = phi(t ./sigma) ~ 0 as t -> 0


def test_cov_check_regression_pins():
    for tag in ("L11", "L9"):
        cls = _class_from_pin("l11_representative" if tag == "L11" else "l9_representative")
        for p in (0.3, 0.7):
            pin = PINS[f"{tag}_p{p}"]
            rep = pattern_cov_check(cls, 7, p, t=1.0, mode="exact")
            assert rep.cov_abs == pytest.approx(pin["cov_abs"], rel=1e-9)
            assert rep.ratio == pytest.approx(pin["ratio"], rel=1e-9)
            assert rep.bound_family == pytest.approx(pin["bound_family"], rel=1e-12)


def test_cov_check_mc_agrees_with_exact():
    cls = _class_from_pin("l9_representative")
    exact = pattern_cov_check(cls, 7, 0.7, t=1.0, mode="exact")
    mc = pattern_cov_check(cls, 7, 0.7, t=1.0, mode="mc", samples=160_000, seed=2)
    assert abs(mc.cov_abs - exact.cov_abs) < 5 * mc.std_error


def test_cov_check_mc_uses_every_sample():
    cls = _class_from_pin("l9_representative")
    mc = pattern_cov_check(cls, 7, 0.7, t=1.0, mode="mc", samples=10_007, seed=2)
    assert mc.samples == 10_007
    # computed when each of the 16 batches drew its own graphs: the report
    # depends only on the sample stream, not on how it is chunked
    assert mc.cov_abs == 0.0011312808139327907
    assert mc.std_error == 0.00014705417326626893


def test_cov_check_validation():
    cls = _class_from_pin("l9_representative")
    with pytest.raises(InputError):
        pattern_cov_check(cls, 5, 0.5, t=1.0, mode="exact")  # needs n > max label
    with pytest.raises(InputError):
        pattern_cov_check(cls, 7, 0.5, t=1.0, mode="mc", samples=100)
    with pytest.raises(InputError):
        pattern_cov_check(cls, 7, 0.5, t=1.0, mode="bogus")
    with pytest.raises(InputError, match="kernel"):
        pattern_cov_check(cls, 7, 0.5, t=1.0, mode="exact", kernel="Phi")


def test_lemma_bound_family_shapes():
    assert lemma_bound_family("L9", 10, 0.1, 3) == pytest.approx(
        min(100 * 0.9, 0.1**3 + 10 * 0.1**5 + 100 * 0.1**7)
    )
    assert lemma_bound_family("L10", 10, 0.1, 3) == lemma_bound_family("L12", 10, 0.1, 3)
    assert lemma_bound_family("L11", 10, 0.1, 3) == pytest.approx(0.1**6)
    with pytest.raises(InputError):
        lemma_bound_family("L13", 10, 0.1, 3)
    # one class of each tag (L10 occurs only in r413, L11 and L12 only in
    # r414): m, the small-p exponent, the strings written to records and the
    # CSV, and the family at n = 10 on the small-p and the large-p side
    pins = (
        ("r411", "L9", 3, 3, "p^3 + n p^5 + n^2 p^7", "n^2 (1-p)",
         0.07316999999999999, 9.999999999999998),
        ("r413", "L10", 6, 7, "p^7 + n p^9", "n (1-p)",
         0.0004155299999999999, 0.9999999999999998),
        ("r414", "L11", 6, 9, "p^9", "1-p",
         1.9682999999999994e-05, 0.09999999999999998),
        ("r414", "L12", 8, 9, "p^9 + n p^11", "n (1-p)",
         3.739769999999999e-05, 0.9999999999999998),
    )
    for anchor, tag, m, exponent, small_p, large_p, at_03, at_09 in pins:
        cls = next(c for c in enumerate_classes(anchor) if c.lemma_tag == tag)
        assert (cls.m, cls.small_p_exponent) == (m, exponent)
        assert (cls.bound_small_p, cls.bound_large_p) == (small_p, large_p)
        assert lemma_bound_family(tag, 10, 0.3, m) == at_03
        assert lemma_bound_family(tag, 10, 0.9, m) == at_09

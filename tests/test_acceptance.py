"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact (integer equality or identical
polynomials), nothing is approximate.
"""

import random
import time

import pytest
from fractions import Fraction

from curveint.algebra import homogenize, local_pair
from curveint.cli import EXIT_BUDGET, EXIT_OK, Job, parse_field, parse_poly, \
    run_job
from curveint.corpus import affine_instances, corpus_manifest
from curveint.deformation import deformation_count
from curveint.errors import (GeneralPositionError, GenericityFailureError,
                             InfiniteMultiplicityError, SharedComponentError)
from curveint.fields import QQ, PrimeField
from curveint.infinitesimal import (left_right_factoring_check,
                                    staged_specialization_check)
from curveint.intersect import (Curve, ProjectivePoint,
                                bilinearity_expand, mult_length,
                                mult_resultant_order,
                                transversality_check)
from curveint.lifting import hensel_lift, weierstrass_prepare
from curveint.poly import MultiPoly
from curveint.series import TruncatedSeries, eval_poly_at_series

V = ("x", "y")


def _affine_pair(entry_f, entry_g, fieldname):
    field, _ = parse_field(fieldname)
    f = parse_poly(entry_f, field, V)
    g = parse_poly(entry_g, field, V)
    return f, g, field


def _three_engines(f, g, seed=0):
    pair = local_pair(f, g)
    m1 = mult_length(pair)
    m3 = deformation_count(pair, seed=seed).count
    m2 = mult_resultant_order(pair)
    return m1, m2, m3


def test_criterion_1_triple_agreement_and_runtime():
    """Every corpus instance: the three engines agree exactly, within 60 s
    for the whole corpus."""
    start = time.monotonic()
    checked = 0
    for name, ftext, gtext, fieldname in affine_instances():
        f, g, _ = _affine_pair(ftext, gtext, fieldname)
        m1, m2, m3 = _three_engines(f, g)
        assert m1 == m2 == m3, (name, m1, m2, m3)
        checked += 1
    for entry in corpus_manifest():
        if entry["kind"] != "bezout":
            continue
        report, code = run_job(Job.from_dict(entry["job"]))
        assert code == EXIT_OK, (entry["name"], report)
        for line in report["results"]:
            assert line["mult_length"] == line["mult_resultant"] == \
                line["mult_deformation"], (entry["name"], line)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 25
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS triple-engine agreement on {checked} "
          f"instances in {elapsed:.1f}s (< 60s)")


def test_criterion_2_bezout_totals():
    """Every corpus pair sums to degree*degree exactly, including points at
    infinity and irrational clusters."""
    names = []
    for entry in corpus_manifest():
        if entry["kind"] != "bezout":
            continue
        report, code = run_job(Job.from_dict(entry["job"]))
        assert code == EXIT_OK, (entry["name"], report)
        assert report["total"] == report["expected_total"], entry["name"]
        names.append(entry["name"])
    assert "cusp-vs-infinity-line" in names   # 2 + 1 at infinity
    assert "conic-vs-far-line" in names       # degree-2 cluster bookkeeping
    print(f"\nACCEPTANCE 2: PASS Bezout totals equal d*e on "
          f"{len(names)} projective pairs")


def test_criterion_3_classical_local_values():
    """The classical multiplicities, each confirmed by all three engines."""
    x = MultiPoly.var(QQ, V, "x")
    y = MultiPoly.var(QQ, V, "y")
    table = [
        (x * x - y ** 3, y, 2),
        (x * x - y ** 3, x, 3),
        (x * x - y, x * x - 2 * y, 2),
        (x, y, 1),
        ((y - x * x) ** 2, x, 2),
    ]
    for f, g, expected in table:
        m1, m2, m3 = _three_engines(f, g, seed=1)
        assert m1 == m2 == m3 == expected, (str(f), str(g), m1, m2, m3)
    print("\nACCEPTANCE 3: PASS classical values "
          "(cusp:2, cusp:3, conics:2, lines:1, doubled:2) by all engines")


def test_criterion_4_transversality_law():
    """100 seeded random transverse instances over F_101: every engine
    returns exactly 1."""
    F = PrimeField(101)
    rng = random.Random(40104)
    found = 0
    while found < 100:
        terms_f = {}
        terms_g = {}
        for i in range(3):
            for j in range(3 - i):
                if i == j == 0:
                    continue
                cf = rng.randint(0, 100)
                cg = rng.randint(0, 100)
                if cf:
                    terms_f[(i, j)] = F.of(cf)
                if cg:
                    terms_g[(i, j)] = F.of(cg)
        f = MultiPoly(F, V, terms_f)
        g = MultiPoly(F, V, terms_g)
        if f.is_zero() or g.is_zero():
            continue
        try:
            if not transversality_check(f, g):
                continue
        except Exception:
            continue
        try:
            m1, m2, m3 = _three_engines(f, g, seed=found)
        except (SharedComponentError, InfiniteMultiplicityError):
            continue
        assert m1 == m2 == m3 == 1, (str(f), str(g), m1, m2, m3)
        found += 1
    print("\nACCEPTANCE 4: PASS 100 random transverse F_101 instances "
          "all have multiplicity 1 in every engine")


def test_criterion_5_bilinearity():
    """On every non-reduced corpus instance the engine value equals the
    expanded weighted component sum exactly."""
    x = MultiPoly.var(QQ, V, "x")
    y = MultiPoly.var(QQ, V, "y")
    origin = ProjectivePoint((0, 0, 1), QQ)
    nonreduced = [
        ((y - x * x) ** 2, x),
        ((x - y) ** 2, x),
        (x * x * y, x + y),
    ]
    for f, g in nonreduced:
        C1 = Curve(homogenize(f, f.total_degree()))
        C2 = Curve(homogenize(g, g.total_degree()))
        expanded, table = bilinearity_expand(C1, C2, origin)
        # a component of multiplicity above 1 passes through the origin
        assert any(ni > 1 or ej > 1 for ni, ej, _ in table), str(f)
        m1, m2, m3 = _three_engines(f, g, seed=3)
        assert expanded == m1 == m2 == m3, (str(f), str(g), expanded, m1)
    # reduced x reduced degenerates to the plain length engine
    f, g = x * x - y ** 3, y - x
    C1 = Curve(homogenize(f, 3))
    C2 = Curve(homogenize(g, 1))
    expanded, _ = bilinearity_expand(C1, C2, origin)
    assert expanded == mult_length(local_pair(f, g))
    print("\nACCEPTANCE 5: PASS bilinearity expansion equals engine values "
          "on all non-reduced instances")


def test_criterion_6_staged_and_left_right():
    """Summability over specialization and left/right factoring hold on
    every corpus instance."""
    checked = 0
    for name, ftext, gtext, fieldname in affine_instances():
        f, g, _ = _affine_pair(ftext, gtext, fieldname)
        assert staged_specialization_check(f, g, seed=6) is True, name
        assert left_right_factoring_check(f, g, seed=6) is True, name
        checked += 1
    print(f"\nACCEPTANCE 6: PASS staged-specialization and left/right "
          f"factoring hold on all {checked} corpus instances")


def test_criterion_7_weierstrass_preparation():
    """50 seeded random regular-in-x polynomials of bidegree <= (4,4) over
    each of Q, F_7 and F_101: F - U*G vanishes identically to y-precision
    10, G is monic in x of degree ord_x F(x, 0) with a_i(0) = 0, and
    U(0,0) != 0."""
    for field in (QQ, PrimeField(7), PrimeField(101)):
        rng = random.Random(70707)
        zero = field.zero
        done = 0
        while done < 50:
            terms = {}
            for i in range(5):
                for j in range(5):
                    c = rng.randint(-5, 5)
                    if c and (i, j) != (0, 0):
                        terms[(i, j)] = field.of(c)
            F = MultiPoly(field, V, terms)
            if F.is_zero() or F.subs_values({"y": zero}).is_zero():
                continue
            m = min(i for (i, j) in F.subs_values({"y": zero}).terms)
            data = weierstrass_prepare(F, 10)
            resid = F - data.unit * data.weierstrass
            assert all(e[1] >= 10 for e in resid.terms), str(F)
            G = data.weierstrass
            assert data.degree == G.degree_in("x") == m, str(F)
            assert G.leading_coeff_in("x") == MultiPoly.const(field, V, 1)
            assert G.subs_values({"y": zero}) == \
                MultiPoly.var(field, V, "x", m), str(F)
            assert data.unit.subs_values({"x": zero, "y": zero}), str(F)
            done += 1
    print("\nACCEPTANCE 7: PASS 50 random Weierstrass preparations each over "
          "Q, F_7 and F_101 satisfy F = U*G to y-precision 10 with G monic "
          "of degree ord_x F(x, 0), a_i(0)=0 and U(0,0) != 0")


def test_criterion_8_hensel_lifting():
    """50 seeded random simple-root instances lift to f(root) = 0 mod t^16;
    the not-simple-root error fires exactly when the residual derivative
    vanishes."""
    from curveint.errors import NotSimpleRootError

    XT = ("x", "t")
    rng = random.Random(80808)
    done = 0
    t16 = Fraction(16)
    while done < 50:
        a0 = Fraction(rng.randint(-3, 3))
        coeffs = {}
        for i in range(4):
            for j in range(3):
                c = rng.randint(-4, 4)
                if c:
                    coeffs[(i, j)] = QQ.of(c)
        base = MultiPoly(QQ, XT, coeffs)
        if base.is_zero():
            continue
        shift = base.subs_values({"x": QQ.of(a0), "t": QQ.zero})
        f = base - MultiPoly.const(QQ, XT, shift.constant_value())
        deriv0 = f.derivative("x").subs_values(
            {"x": QQ.of(a0), "t": QQ.zero}).constant_value()
        if deriv0:
            root = hensel_lift(f, a0, 16)
            tser = TruncatedSeries.variable(QQ).truncate(t16)
            val = eval_poly_at_series(f, {"x": root, "t": tser})
            assert val.valuation() is None, str(f)  # zero mod t^16
        else:
            with pytest.raises(NotSimpleRootError):
                hensel_lift(f, a0, 16)
        done += 1
    print("\nACCEPTANCE 8: PASS 50 random Hensel instances vanish mod t^16; "
          "the not-simple-root error fires exactly on vanishing derivative")


def test_criterion_9_f7_genericity_robustness():
    """Over F_7 the deformation engine either certifies genericity within 8
    reseeds or the run ends with exit code 3; successful runs agree with the
    length engine (no silent wrong answers)."""
    F7 = PrimeField(7)
    succeeded = 0
    budgeted = 0
    for name, ftext, gtext, _ in affine_instances():
        try:
            f = parse_poly(ftext, F7, V)
            g = parse_poly(gtext, F7, V)
            if f.is_zero() or g.is_zero():
                continue
            pair = local_pair(f, g)
            outcome = deformation_count(pair, seed=9, max_retries=8)
            assert outcome.count == mult_length(pair), name
            succeeded += 1
        except (GenericityFailureError, GeneralPositionError):
            job = Job(command="mult", curves=(ftext, gtext), field="F7",
                      point="0,0", seed=9)
            report, code = run_job(job)
            assert code == EXIT_BUDGET, (name, report)
            budgeted += 1
        except (SharedComponentError, InfiniteMultiplicityError):
            continue  # the instance degenerates mod 7; not a genericity case
    assert succeeded > 0
    print(f"\nACCEPTANCE 9: PASS F_7 genericity certified on {succeeded} "
          f"instances ({budgeted} honest budget failures, none silent)")

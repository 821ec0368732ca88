import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from curveint.algebra import lift_to_field, local_pair
from curveint.cli import parse_field, parse_poly
from curveint.deformation import VARS3, default_precision
from curveint import lifting
from curveint.errors import (InfiniteMultiplicityError, InvalidInputError,
                             NotSpecializableError, UnsupportedExtensionError)
from curveint.fields import QQ, PrimeField
from curveint.infinitesimal import (NearbyPoint, deform,
                                    left_right_factoring_check,
                                    nearby_intersections, specialize,
                                    staged_specialization_check)
from curveint.intersect import mult_length
from curveint.poly import MultiPoly
from curveint.series import (TruncatedSeries, eval_poly_at_series,
                             shift_exponents)

from oracles import (fulton_intersection_number, series_from_terms,
                     valuation_certificate)

V = ("x", "y")


def xy(field=QQ):
    return (MultiPoly.var(field, V, "x"), MultiPoly.var(field, V, "y"))


# ------------------------------------------------------------------ deform

def test_deform_constant_direction():
    x, y = xy()
    d = deform(x * x - y, MultiPoly.const(QQ, V, 1))
    assert str(d.result) == "x^2 - y + t"


def test_deform_all_ones_direction():
    x, y = xy()
    ones = MultiPoly(QQ, V, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    d = deform(x, ones)
    expect = "x*t + y*t + x + t"
    assert str(d.result) == expect


def test_deform_specialize_roundtrip_random():
    import random
    from oracles import random_poly
    rng = random.Random(11)
    for _ in range(10):
        base = random_poly(rng, QQ, V, 2, 5)
        direction = random_poly(rng, QQ, V, 2, 5)
        if base.is_zero() or direction.is_zero():
            continue
        d = deform(base, direction)
        assert specialize(d) == base


def test_deform_rejects_zero_direction():
    x, y = xy()
    with pytest.raises(InvalidInputError):
        deform(x, MultiPoly.zero(QQ, V))


# -------------------------------------------------------------- specialize

def test_specialize_series():
    t = TruncatedSeries.variable(QQ).truncate(4)
    s = TruncatedSeries.constant(QQ, 1) + t * Fraction(1, 2) \
        - (t * t) * Fraction(1, 8)
    assert specialize(s) == 1


def test_specialize_nearby_point():
    half = series_from_terms(QQ, [(Fraction(1, 2), 1)], prec=3)
    t = TruncatedSeries.variable(QQ).truncate(3)
    np_ = NearbyPoint(half, t, (QQ.zero, QQ.zero))
    assert specialize(np_) == (0, 0)
    vx, vy = valuation_certificate(np_)
    assert vx > 0 and vy > 0


def test_specialize_negative_valuation():
    s = shift_exponents(TruncatedSeries.constant(QQ, 1).truncate(2), -1)
    with pytest.raises(NotSpecializableError):
        specialize(s)


# ---------------------------------------------------- nearby_intersections

def test_nearby_tangent_conics_plus_t():
    x, y = xy()
    f = x * x - y
    gt = deform(x * x - 2 * y, MultiPoly.const(QQ, V, 1))
    pts = nearby_intersections(f, gt)
    series = sorted(str(p.x) for p in pts)
    assert len(pts) == 2
    assert series[0].startswith("-t^(1/2)") and series[1].startswith("t^(1/2)")
    for p in pts:
        assert str(p.y).startswith("t")
        assert specialize(p) == (0, 0)


def test_nearby_transverse_pair_trivial():
    x, y = xy()
    pts = nearby_intersections(x, y)
    assert len(pts) == 1
    assert pts[0].x.is_zero_to_precision()
    assert pts[0].y.is_zero_to_precision()


def test_nearby_count_matches_length_engine():
    import random
    from curveint.deformation import random_direction
    x, y = xy()
    rng = random.Random(6)
    direction = random_direction(rng, QQ, 1)
    lt = deform(y - x, direction)
    pts = nearby_intersections(x * x - y ** 3, lt)
    assert sum(p.count for p in pts) == \
        mult_length(local_pair(x * x - y ** 3, y - x))


def _distinct_nearby_points(ft: str) -> int:
    """Test-only count of the distinct nearby points of f_t = 0 and y = 0
    at the origin: ord_x at t = 0 of the squarefree part of
    Res_y(f_t, y), by sympy."""
    import sympy
    x, y, t = sympy.symbols("x y t")
    r = sympy.resultant(sympy.sympify(ft.replace("^", "**")), y, y)
    at0 = sympy.Poly(sympy.sqf_part(r).subs(t, 0), x)
    return min(m[0] for m in at0.monoms())


@pytest.mark.parametrize("direction,counts", [
    ("x^2", [2]),                                     # a restricted family
    ("3*x^2 - 2*x*y + y^2 + 5*x - 7*y + 4", [1, 1]),  # every monomial
], ids=["x^2-alone", "full-family"])
def test_the_full_family_is_needed(direction, counts):
    """y - x^2 meets y with I = 2 at the origin.  Moved along x^2 alone the
    two intersections stay one double point; along a direction with every
    monomial of degree <= 2 they separate into two simple points."""
    x, y = xy()
    f = y - x * x
    pts = nearby_intersections(deform(f, parse_poly(direction, QQ, V)), y)
    assert sorted(p.count for p in pts) == counts
    assert sum(counts) == fulton_intersection_number(f, y) == 2
    assert _distinct_nearby_points(f"y - x^2 + t*({direction})") == \
        len(counts)


def _on_both(point, f, g):
    """The nearby point satisfies both deformed equations to its
    precision."""
    field = point.x.field
    t = TruncatedSeries.variable(field)
    return all(eval_poly_at_series(lift_to_field(h, field),
                                   {"x": point.x, "y": point.y, "t": t})
               .is_zero_to_precision() for h in (f, g))


# Nearby points with conjugates over an extension field: the first pair's
# 2 points are one cycle over Q(sqrt 2), and 4 of the second pair's 6 lie
# on one ramified cycle over Q(i).
CONJUGATE_PAIRS = [
    (lambda x, y, t: (x + y, x * x - 2 * t * t), 2),
    (lambda x, y, t: (x * x - y ** 3, x * x - 2 * y ** 3 + t * y), 6),
]


@pytest.mark.parametrize("make,expected", CONJUGATE_PAIRS)
def test_nearby_recovers_conjugate_points(make, expected):
    x, y, t = (MultiPoly.var(QQ, ("x", "y", "t"), v) for v in "xyt")
    f, g = make(x, y, t)
    pts = nearby_intersections(f, g)
    assert sum(p.count for p in pts) == expected
    for p in pts:
        assert _on_both(p, f, g)
        assert all(not c for c in specialize(p))


def test_nearby_coordinates_reach_the_requested_precision():
    # x = -S10/S11 loses the valuation of S11 along the branch: read once at
    # precision 24, x came back as t^(2/5) + O(t^(117/5))
    x, y, t = (MultiPoly.var(QQ, ("x", "y", "t"), v) for v in "xyt")
    f, g = (y - x * x) ** 2 - x ** 5, y - x * x + t
    pts = nearby_intersections(f, g, prec=24)
    assert sum(p.count for p in pts) == 5
    for p in pts:
        assert p.x.prec == p.y.prec == 24
        assert p.x.valuation() == Fraction(2, 5)
        assert _on_both(p, f, g)


def test_nearby_count_stable_under_doubled_precision():
    x, y = xy()
    f = x * x - y
    gt = deform(x * x - 2 * y, MultiPoly.const(QQ, V, 1))
    base = nearby_intersections(f, gt)
    doubled = nearby_intersections(f, gt, prec=24)
    assert sum(p.count for p in base) == sum(p.count for p in doubled)


NEARBY_PINS = json.loads(
    (Path(__file__).parent / "data" / "nearby_points.json").read_text())


@pytest.mark.parametrize("pin", NEARBY_PINS,
                         ids=[str(k) for k in range(len(NEARBY_PINS))])
def test_nearby_points_match_pins(pin):
    """Every (f_t, g_t, precision) that the tests of this file hand to
    nearby_intersections, and f_t = x or x - y against curves with one
    cycle whose ramified first level (slope 1/2 or 1/3, compressed root a
    b-th power) is followed by a level whose edge root adjoins sqrt 2,
    sqrt 3 or cbrt 2, over Q, F101 and F7.  The points are as printed when
    each ramified y-branch was expanded over the b-th root of its
    compressed root: the branches, now expanded without that root and read
    in t afterwards, print the same."""
    field, _ = parse_field(pin["field"])
    f, g = (parse_poly(pin[k], field, VARS3) for k in "fg")
    pts = nearby_intersections(f, g, prec=pin["prec"])
    assert [[str(p.x), str(p.y), p.count] for p in pts] == pin["points"]


def test_second_extension_is_refused_before_any_lift(monkeypatch):
    """The one eliminant branch has a slope-1/5 level over the compressed
    root -1/2, whose fifth root is irrational, and then a slope-1/2
    level: reading it in t needs a second extension.  The refusal comes
    from the levels alone, before a series is lifted (lifting the branch
    at the default precision took seconds)."""
    lifts = []
    monkeypatch.setattr(lifting, "hensel_lift",
                        lambda *args: lifts.append(args))
    f = parse_poly("(x^3 + 4*y^4)*(x + y) + 2*t", QQ, VARS3)
    g = parse_poly("x^2 - 4*y^3 - 4*t*x", QQ, VARS3)
    start = time.perf_counter()
    with pytest.raises(UnsupportedExtensionError, match="second step"):
        nearby_intersections(f, g)
    assert time.perf_counter() - start < 2 and not lifts


# --------------------------------------------------------- property checks

STAGED_CASES = [
    lambda x, y: (x * x - y, x * x - 2 * y),
    lambda x, y: (x, y),
    lambda x, y: ((y - x * x) ** 2, x),
]


@pytest.mark.parametrize("make", STAGED_CASES)
def test_staged_specialization(make):
    x, y = xy()
    f, g = make(x, y)
    assert staged_specialization_check(f, g, seed=2) is True


LEFT_RIGHT_CASES = [
    lambda x, y: (x, y),
    lambda x, y: (x * x - y, y),
    lambda x, y: (x * x - y ** 3, y),
]


@pytest.mark.parametrize("make", LEFT_RIGHT_CASES)
def test_left_right_factoring(make):
    x, y = xy()
    f, g = make(x, y)
    assert left_right_factoring_check(f, g, seed=2) is True


def test_checks_over_f7():
    F = PrimeField(7)
    x, y = xy(F)
    assert staged_specialization_check(x * x - y, x * x - 2 * y, seed=2)
    assert left_right_factoring_check(x * x - y, x * x - 2 * y, seed=2)


# ------------------------------------------------ nearby points, property

@st.composite
def deformed_pairs(draw):
    """(f_t, g_t, f, g): two curves of degree <= 3 through the origin, each
    moved along a direction of the full family of its degree."""
    field = draw(st.sampled_from([QQ, PrimeField(101)]))

    def poly(degree, through_origin):
        monomials = [(i, j) for i in range(degree + 1)
                     for j in range(degree + 1 - i)
                     if i + j or not through_origin]
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monomials),
                               max_size=len(monomials)))
        return MultiPoly(field, V, {m: field.of(c)
                                    for m, c in zip(monomials, coeffs) if c})

    f = poly(draw(st.integers(1, 3)), True)
    g = poly(draw(st.integers(1, 3)), True)
    assume(not f.is_zero() and not g.is_zero())
    df = poly(f.total_degree(), False)
    dg = poly(g.total_degree(), False)
    assume(not df.is_zero() and not dg.is_zero())
    return deform(f, df).result, deform(g, dg).result, f, g


@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(deformed_pairs())
def test_nearby_points_account_for_the_multiplicity(pair):
    ft, gt, f, g = pair
    try:
        expected = mult_length(local_pair(f, g))
    except (InvalidInputError, InfiniteMultiplicityError):
        assume(False)  # no finite multiplicity at the origin to split
    pts = nearby_intersections(ft, gt)
    assert sum(p.count for p in pts) == expected
    prec = default_precision(ft, gt) + 2  # the default of nearby_intersections
    for p in pts:
        assert p.x.prec == p.y.prec == prec
        assert p.x.field == p.y.field
        assert _on_both(p, ft, gt)
        assert all(not c for c in specialize(p))

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from curveint import deformation, infinitesimal
from curveint.algebra import local_pair
from curveint.cli import parse_field, parse_poly
from curveint.deformation import (VARS3, default_precision, deformation_count,
                                  two_scale_analysis)
from curveint.errors import (InfiniteMultiplicityError, InvalidInputError,
                             NotSpecializableError, SharedComponentError)
from curveint.fields import QQ, PrimeField
from curveint.infinitesimal import (NearbyPoint, deform,
                                    left_right_factoring_check,
                                    nearby_intersections, specialize,
                                    staged_specialization_check)
from curveint.intersect import mult_length
from curveint.lifting import hensel_lift, newton_puiseux
from curveint.poly import MultiPoly
from curveint.series import INF, TruncatedSeries

from oracles import (branch_residual, fulton_intersection_number,
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
    # x = t^(1/2), y = t in T with t = T^2
    T = TruncatedSeries.variable(QQ).truncate(6)
    np_ = NearbyPoint(T, T * T, (QQ.zero, QQ.zero), span=2, B=2)
    assert specialize(np_) == (0, 0)
    vx, vy = valuation_certificate(np_)
    assert vx > 0 and vy > 0
    assert str(np_) == "(t^(1/2) + O(t^3), t + O(t^(7/2))) -> (0, 0)"


def test_specialize_negative_valuation():
    s = TruncatedSeries.constant(QQ, 1).truncate(2) \
        / TruncatedSeries.variable(QQ)
    with pytest.raises(NotSpecializableError):
        specialize(s)


# ---------------------------------------------------- nearby_intersections

def test_nearby_tangent_conics_plus_t():
    """x^2 = t and y = t: the two points are one ramified cycle, x = T
    with t = T^2, of span 2."""
    x, y = xy()
    f = x * x - y
    gt = deform(x * x - 2 * y, MultiPoly.const(QQ, V, 1))
    [p] = nearby_intersections(f, gt)
    assert (p.span, p.multiplicity, p.count, p.scale, p.B) == (2, 1, 2, 1, 2)
    assert str(p.x).startswith("-t") and str(p.y).startswith("t^2")
    assert str(p).startswith("(-t^(1/2)")
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
    direction = random_direction(rng, QQ)
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


@pytest.mark.parametrize("direction,cycles", [
    ("x^2", [(1, 2)]),                                     # restricted
    ("3*x^2 - 2*x*y + y^2 + 5*x - 7*y + 4", [(2, 1)]),     # every monomial
    ("5*x - 7*y + 4", [(2, 1)]),                           # a line
], ids=["x^2-alone", "full-family", "line"])
def test_the_full_family_is_needed(direction, cycles):
    """y - x^2 meets y with I = 2 at the origin.  Moved along x^2 alone the
    two intersections stay one double point; along a direction with every
    monomial of degree <= 2, or along a line of the family (the engine's
    draw), they separate into two simple points, one cycle of span 2.
    (span, multiplicity) per cycle."""
    x, y = xy()
    f = y - x * x
    pts = nearby_intersections(deform(f, parse_poly(direction, QQ, V)), y)
    assert sorted((p.span, p.multiplicity) for p in pts) == cycles
    assert sum(p.count for p in pts) == fulton_intersection_number(f, y) == 2
    assert _distinct_nearby_points(f"y - x^2 + t*({direction})") == \
        sum(p.span for p in pts)


def _on_both(point, f, g):
    """The nearby point satisfies both deformed equations to its precision,
    its coordinates substituted with t = scale * T^B (``branch_residual``).
    The coordinates are centred at the target, as are f and g here."""
    known = min(point.x.prec, point.y.prec)
    for h in (f, g):
        residual = branch_residual(h, {"x": point.x, "y": point.y},
                                   point.scale, point.B)
        if residual.valuation() is not None or residual.prec < known:
            return False
    return True


# Nearby points with conjugates: the first pair's 2 points are one cycle
# over Q(sqrt 2), and 4 of the second pair's 6 lie on one ramified cycle
# over Q, x = -T^3 and y = T^2 with t = T^4.
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
    # precision 24, x came back as t^(2/5) + O(t^(117/5)); precisions and
    # valuations read in T, with t = T^5
    x, y, t = (MultiPoly.var(QQ, ("x", "y", "t"), v) for v in "xyt")
    f, g = (y - x * x) ** 2 - x ** 5, y - x * x + t
    pts = nearby_intersections(f, g, prec=24)
    assert sum(p.count for p in pts) == 5
    for p in pts:
        assert p.B == 5
        assert p.x.prec == p.y.prec == 24 * p.B
        assert p.x.valuation() == 2
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
    nearby_intersections; f_t = x or x - y against curves with one cycle
    whose ramified first level (slope 1/2 or 1/3, compressed root a b-th
    power) is followed by a level whose edge root adjoins sqrt 2, sqrt 3
    or cbrt 2, over Q, F101 and F7; and three pairs whose branches nest a
    ramified level in another or over an edge root's extension.  Each
    point is pinned as printed, with its span and multiplicity; each
    satisfies both equations and specializes to the origin, and the
    counts add up to Fulton's intersection number of the base pair.  A
    pin's ``seconds`` bounds the time it takes."""
    field, _ = parse_field(pin["field"])
    f, g = (parse_poly(pin[k], field, VARS3) for k in "fg")
    start = time.perf_counter()
    pts = nearby_intersections(f, g, prec=pin["prec"])
    took = time.perf_counter() - start
    assert [[str(p), p.span, p.multiplicity] for p in pts] == pin["points"]
    for p in pts:
        assert _on_both(p, f, g)
        assert specialize(p) == (0, 0)
    base = [h.subs_values({"t": field.zero}).drop_vars(["t"]) for h in (f, g)]
    assert sum(p.count for p in pts) == fulton_intersection_number(*base)
    assert took < pin.get("seconds", INF)


def test_a_point_prints_its_coordinates_and_target():
    """Scale 1 and no ramification: (x, y) -> target, each coordinate
    printed as a field element."""
    x, y, t = (MultiPoly.var(QQ, VARS3, v) for v in "xyt")
    [p] = nearby_intersections(x - 1 + t, y - 2, target=(1, 2), prec=4)
    assert str(p) == "(-t + O(t^4), O(t^4)) -> (1, 2)"


def test_a_scaled_point_prints_in_its_T():
    """y^2 = 2t: the cycle y = 2T with t = 2T^2 prints in T, with t stated,
    so that no printed power of t stands for a power of T."""
    x, y, t = (MultiPoly.var(QQ, VARS3, v) for v in "xyt")
    [p] = nearby_intersections(x, y * y - 2 * t, prec=4)
    assert (p.scale, p.span) == (2, 2)
    assert str(p) == "(O(T^8), 2*T + O(T^8)) -> (0, 0), t = 2*T^2"


def _bad_inputs():
    x, y = xy()
    pair = local_pair(x * x - y, x * x - 2 * y)
    xt, tt = (MultiPoly.var(QQ, ("x", "t"), v) for v in "xt")
    return {
        "deformation_count-prec-0": lambda: deformation_count(pair, prec=0),
        "deformation_count-prec-neg": lambda: deformation_count(pair,
                                                                prec=-2),
        "two_scale_analysis-prec-0": lambda: two_scale_analysis(pair,
                                                                prec=0),
        "hensel_lift-prec-0": lambda: hensel_lift(xt - tt, 0, 0),
        "newton_puiseux-prec-0": lambda: newton_puiseux(xt * xt - tt, "x", 0),
        "nearby-prec-0": lambda: nearby_intersections(x, y, prec=0),
        "nearby-target-(0,)": lambda: nearby_intersections(x, y,
                                                           target=(0,)),
    }


@pytest.mark.parametrize("case", list(_bad_inputs()))
def test_bad_precision_and_targets_are_input_errors(monkeypatch, case):
    """A precision that is not positive, or a target that is not a point,
    is refused before any subresultant chain is built."""
    def no_chain(*args):
        raise AssertionError("a chain was built")
    monkeypatch.setattr(deformation, "resultant_and_s1", no_chain)
    monkeypatch.setattr(infinitesimal, "resultant_and_s1", no_chain)
    with pytest.raises(InvalidInputError):
        _bad_inputs()[case]()


def test_nearby_points_of_curves_sharing_a_component_are_bad_input():
    """``nearby_intersections`` takes curves from the user, so an
    eliminant that vanishes at t = 0 is their shared component (exit 2),
    where the deformation engine, on curves proved coprime, calls it a
    defect.  Two curves that are 0 at t = 0 share the whole plane, over
    F2 too, where no shear separates the points; a curve that is 0 there
    meets a nonzero constant nowhere."""
    x, y = xy()
    x2, y2 = xy(PrimeField(2))
    t = MultiPoly.var(QQ, VARS3, "t")
    for pair in ((x * y, x * (x + y)), (x2 * y2, x2 * (x2 + y2)),
                 (t * x.extend_vars(VARS3), t * y.extend_vars(VARS3))):
        with pytest.raises(SharedComponentError, match="vanishes at t = 0"):
            nearby_intersections(*pair)
    assert nearby_intersections(t * x.extend_vars(VARS3), t + 1) == []


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
        assert p.x.prec == p.y.prec == prec * p.B
        assert p.x.field == p.y.field
        assert _on_both(p, ft, gt)
        assert all(not c for c in specialize(p))

import pytest
from fractions import Fraction

from curveint.errors import (InvalidInputError, NotSpecializableError,
                             VerificationFailureError)
from curveint.fields import QQ, PrimeField
from curveint.infinitesimal import (NearbyPoint, deform,
                                    left_right_factoring_check,
                                    nearby_intersections, specialize,
                                    staged_specialization_check)
from curveint.intersect import mult_length
from curveint.poly import MultiPoly
from curveint.series import TruncatedSeries, shift_exponents

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
    half = TruncatedSeries.from_terms(QQ, [(Fraction(1, 2), 1)], prec=3)
    t = TruncatedSeries.variable(QQ).truncate(3)
    np_ = NearbyPoint(half, t, (QQ.zero, QQ.zero))
    assert specialize(np_) == (0, 0)
    vx, vy = np_.valuation_certificate()
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
    direction = random_direction(rng, QQ, 1, V, "x", "y")
    lt = deform(y - x, direction)
    pts = nearby_intersections(x * x - y ** 3, lt)
    assert sum(p.count for p in pts) == mult_length(x * x - y ** 3, y - x)


# Pairing one representative of each x-cycle with one of each y-cycle
# misses the conjugate partners over extension fields: it finds 0 of the 2
# nearby points of the first pair and a total count of 4 of the 6 of the
# second.
LOSSY_PAIRS = [
    (lambda x, y, t: (x + y, x * x - 2 * t * t), 0, 2),
    (lambda x, y, t: (x * x - y ** 3, x * x - 2 * y ** 3 + t * y), 4, 6),
]


@pytest.mark.parametrize("make,found,expected", LOSSY_PAIRS)
def test_nearby_lost_points_raise(make, found, expected):
    x, y, t = (MultiPoly.var(QQ, ("x", "y", "t"), v) for v in "xyt")
    f, g = make(x, y, t)
    with pytest.raises(VerificationFailureError,
                       match=f"account for {found} of the multiplicity "
                             f"{expected}$"):
        nearby_intersections(f, g)


def test_nearby_count_stable_under_doubled_precision():
    x, y = xy()
    f = x * x - y
    gt = deform(x * x - 2 * y, MultiPoly.const(QQ, V, 1))
    base = nearby_intersections(f, gt)
    doubled = nearby_intersections(f, gt, prec=24)
    assert sum(p.count for p in base) == sum(p.count for p in doubled)


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

"""Polynomial and series products, and exact division, against the
term-pair references in ``oracles``.

The production products encode each operand as Python ints once
(``Field.product_codec``), sum plain int products per output coefficient
and normalise each sum once; the references multiply and add field
elements one term pair at a time.  Operands are seeded and random, over Q,
F_7, F_32003, Q[w]/(w^3-2w+5) and a degree-6 extension of F_32003.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from curveint.errors import InvalidInputError
from curveint.fields import (QQ, ExtElement, ExtensionField, FpElement,
                             PrimeField)
from curveint.poly import MultiPoly
from curveint.series import INF, TruncatedSeries

from oracles import (poly_exact_divide_pairwise, poly_mul_pairwise,
                     series_mul_pairwise)

V = ("x", "y", "t")
P = 32003
F7 = PrimeField(7)
FP = PrimeField(P)
QW = ExtensionField(QQ, [5, -2, 0, 1], "w")               # w^3 - 2w + 5
FPW = ExtensionField(FP, [3, 1, 0, 0, 0, 0, 1], "w")      # w^6 + w + 3
# monic over Q only after dividing by 3: the codec's decode meets scale 3
QS = ExtensionField(QQ, [5, -2, 0, 3], "s")               # 3s^3 - 2s + 5


def _rational(rng):
    if rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 40))


def _residue(rng, p, high=False):
    return rng.randint(p - 3, p - 1) if high else rng.randrange(p)


def _scalar(rng, field, high=False):
    """A random element; ``high`` draws residues near p - 1."""
    if field == QQ:
        return _rational(rng)
    if field.characteristic and not isinstance(field, ExtensionField):
        return field.of(_residue(rng, field.p, high))
    if field.characteristic:
        return ExtElement([_residue(rng, field.characteristic, high)
                           for _ in range(field.degree)], field)
    # non-monic numerators with mixed signs over mixed denominators
    return ExtElement([_rational(rng) for _ in range(field.degree)], field)


def _poly(rng, field, nterms, variables=V, degree=4, high=False):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, degree) for _ in variables)
        terms[exps] = _scalar(rng, field, high)
    return MultiPoly(field, variables, terms)


def _assert_canonical(poly_or_series):
    coeffs = getattr(poly_or_series, "terms", None)
    if coeffs is None:
        coeffs = poly_or_series.coeffs
    field = poly_or_series.field
    for c in coeffs.values():
        assert c, "a zero coefficient was stored"
        assert field.is_element(c)
        if field == QQ:
            assert type(c) is Fraction and c.denominator > 0
            assert gcd(c.numerator, c.denominator) == 1
        elif isinstance(c, FpElement):
            assert 0 < c.val < field.p
        else:
            again = ExtElement(c.coeffs, field)
            assert (c.num, c.den) == (again.num, again.den)
            assert c.num[-1] and len(c.num) <= field.degree
            if field.characteristic:
                assert c.den == 1
                assert all(0 <= x < field.characteristic for x in c.num)
            else:
                assert c.den > 0 and gcd(c.den, *c.num) == 1


FIELDS = [QQ, F7, FP, QW, QS, FPW]
IDS = ["Q", "F7", "F32003", "Q[w]/(w^3-2w+5)", "Q[s]/(3s^3-2s+5)",
       "F32003[w]/(w^6+w+3)"]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_poly_product_matches_pairwise_reference(field):
    rng = random.Random(7001)
    for _ in range(25):
        a = _poly(rng, field, rng.randint(1, 12))
        b = _poly(rng, field, rng.randint(1, 12))
        got = a * b
        assert got.terms == poly_mul_pairwise(a, b).terms
        assert (b * a).terms == got.terms
        _assert_canonical(got)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_poly_product_sums_that_cancel(field):
    rng = random.Random(7002)
    x, y = (MultiPoly.var(field, V, v) for v in "xy")
    for _ in range(10):
        u, v = _scalar(rng, field), _scalar(rng, field)
        # the x*y sums cancel to zero: u*(-v) + v*u
        got = (x.scale(u) + y.scale(v)) * (x.scale(u) - y.scale(v))
        assert got.terms == poly_mul_pairwise(
            x.scale(u) + y.scale(v), x.scale(u) - y.scale(v)).terms
        assert set(got.terms) <= {(2, 0, 0), (0, 2, 0)}
        _assert_canonical(got)
        a = _poly(rng, field, 8)
        assert (a * (x - x)).is_zero() and ((x - x) * a).is_zero()
        assert (a * a - a * a).is_zero()


@pytest.mark.parametrize("field", [FP, FPW], ids=["F32003", "F32003[w]"])
def test_poly_product_residues_near_p_in_long_operands(field):
    # every output coefficient sums up to 120 products of (p-1)-sized
    # residues: the packing slots must hold the whole sum
    rng = random.Random(7003)
    xs = ("x",)
    a = MultiPoly(field, xs, {(k,): _scalar(rng, field, high=True)
                              for k in range(120)})
    b = MultiPoly(field, xs, {(k,): _scalar(rng, field, high=True)
                              for k in range(130)})
    got = a * b
    assert got.terms == poly_mul_pairwise(a, b).terms
    assert (b * a).terms == got.terms
    _assert_canonical(got)
    top = field.of(-1)
    a = MultiPoly(field, xs, {(k,): top for k in range(110)})
    assert (a * a).terms == poly_mul_pairwise(a, a).terms


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_poly_product_with_scalars(field):
    rng = random.Random(7004)
    a = _poly(rng, field, 10)
    c = _scalar(rng, field)
    const = MultiPoly.const(field, V, c)
    want = poly_mul_pairwise(a, const).terms
    assert (a * c).terms == want
    assert (c * a).terms == want
    assert a.scale(c).terms == want
    assert (a * 3).terms == poly_mul_pairwise(
        a, MultiPoly.const(field, V, 3)).terms
    assert (a * 0).is_zero() and (0 * a).is_zero()
    _assert_canonical(a * c)


def test_poly_product_keeps_its_variables():
    rng = random.Random(7005)
    a = _poly(rng, QQ, 5)
    b = _poly(rng, QQ, 5, variables=("x", "y", "s"))
    with pytest.raises(InvalidInputError):
        a * b
    with pytest.raises(InvalidInputError):
        b * a
    with pytest.raises(InvalidInputError):
        a * MultiPoly.zero(QQ, ("x", "y"))
    k = MultiPoly.const(QQ, (), 3)
    assert (k * k).terms == {(): Fraction(9)}


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_exact_divide_matches_pairwise_reference(field):
    rng = random.Random(7006)
    for _ in range(12):
        q = _poly(rng, field, rng.randint(1, 8))
        d = _poly(rng, field, rng.randint(1, 6)) + MultiPoly.var(field, V, "y")
        prod = poly_mul_pairwise(q, d)
        got = prod.exact_divide(d)
        assert got.terms == q.terms
        assert got.terms == poly_exact_divide_pairwise(prod, d).terms
        _assert_canonical(got)
        with pytest.raises(InvalidInputError):
            (prod + 1).exact_divide(d)


def _series(rng, field, nterms=8):
    ram = rng.choice([1, 2, 3])
    prec = INF if rng.random() < 0.3 else Fraction(rng.randint(-2, 14),
                                                   rng.choice([1, 2, 3, 5]))
    coeffs = {rng.randint(-3, 12 * ram): _scalar(rng, field)
              for _ in range(rng.randint(0, nterms))}
    return TruncatedSeries(field, coeffs, prec, ram)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_series_product_matches_pairwise_reference(field):
    rng = random.Random(7007)
    for _ in range(40):
        a, b = _series(rng, field), _series(rng, field)
        got, want = a * b, series_mul_pairwise(a, b)
        assert (got.coeffs, got.prec, got.ram) == \
            (want.coeffs, want.prec, want.ram)
        back = b * a
        assert (back.coeffs, back.prec, back.ram) == \
            (got.coeffs, got.prec, got.ram)
        _assert_canonical(got)
    # exact series with mixed ramification, and a scalar operand
    a = TruncatedSeries(field, {0: _scalar(rng, field), 1: field.one}, INF, 2)
    b = TruncatedSeries(field, {1: _scalar(rng, field)}, INF, 3)
    got, want = a * b, series_mul_pairwise(a, b)
    assert (got.coeffs, got.prec, got.ram) == (want.coeffs, INF, 6)
    c = _scalar(rng, field)
    assert (a * c).coeffs == series_mul_pairwise(
        a, TruncatedSeries.constant(field, c)).coeffs


def test_poly_arithmetic_keeps_its_field():
    a = MultiPoly.var(QQ, V, "x")
    b = MultiPoly.var(QW, V, "x").scale(QW.gen)
    for op in (lambda u, v: u * v, lambda u, v: u + v):
        with pytest.raises(InvalidInputError):
            op(a, b)
        with pytest.raises(InvalidInputError):
            op(b, a)

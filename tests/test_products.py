"""Polynomial and series products, and exact division, against the
term-pair references in ``oracles``.

The production products encode each operand as Python ints once
(``Field.product_codec``), sum plain int products per output coefficient
and normalise each sum once; the references multiply and add field
elements one term pair at a time.  Operands are seeded and random, over Q,
F_7, F_32003, Q[w]/(w^3-2w+5) and a degree-6 extension of F_32003.

Exact division (one sparse lex-order pass on ``Field.division_codec``
encodings) is checked against graded-lex long division on field elements,
over Q, F_2, F_7, F_32003, F_7[w]/(w^2-3) and Q[w]/(w^3-2), with each of
the ways a division can fail to be exact.  Products and division are also
checked where the exponent slots widen, and a pseudo-remainder step where
its one codec call holds the most products it can.
"""

import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from curveint.algebra import pseudo_rem
from curveint.errors import InvalidInputError
from curveint.fields import (QQ, ExtElement, ExtensionField, FpElement,
                             PrimeField)
from curveint.poly import MultiPoly
from curveint.series import INF, TruncatedSeries

from oracles import (poly_exact_divide_pairwise, poly_mul_pairwise,
                     pseudo_rem_by_products, series_mul_pairwise)

V = ("x", "y", "t")
P = 32003
F7 = PrimeField(7)
FP = PrimeField(P)
QW = ExtensionField(QQ, [5, -2, 0, 1], "w")               # w^3 - 2w + 5
FPW = ExtensionField(FP, [3, 1, 0, 0, 0, 0, 1], "w")      # w^6 + w + 3
# monic over Q only after dividing by 3: the codec's decode meets scale 3
QS = ExtensionField(QQ, [5, -2, 0, 3], "s")               # 3s^3 - 2s + 5
F2 = PrimeField(2)
F7W = ExtensionField(F7, [-3, 0, 1], "w")                 # 3 is no square mod 7
QC = ExtensionField(QQ, [-2, 0, 0, 1], "w")               # w^3 - 2


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
DIV_FIELDS = FIELDS + [F2, F7W, QC]
DIV_IDS = IDS + ["F2", "F7[w]/(w^2-3)", "Q[w]/(w^3-2)"]


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


@pytest.mark.parametrize("field", [QQ, PrimeField(101), QW, F7W],
                         ids=["Q", "F101", "Q[w]/(w^3-2w+5)", "F7[w]/(w^2-3)"])
def test_poly_product_by_one_term(field):
    """A one-term operand, on either side, shifts the other's keys and
    scales its coefficients: the pairwise product, canonical."""
    rng = random.Random(7004)
    for _ in range(25):
        a = _poly(rng, field, rng.randint(1, 12))
        c = _scalar(rng, field)
        while not c:
            c = _scalar(rng, field)
        m = MultiPoly(field, V, {tuple(rng.randint(0, 4) for _ in V): c})
        for got, want in ((a * m, poly_mul_pairwise(a, m)),
                          (m * a, poly_mul_pairwise(m, a))):
            assert got.terms == want.terms
            _assert_canonical(got)


def test_poly_product_by_one_term_drops_zero_divisor_products():
    """Over F7[w]/(w^2 - 1), reducible, (w - 1)(w + 1) = 0: that product is
    dropped, not stored as a zero coefficient."""
    R = ExtensionField(F7, [-1, 0, 1], "w")
    w = R.gen
    x, y = (MultiPoly.var(R, V, v) for v in "xy")
    a = x.scale(w + 1) + y.scale(w + 2)
    m = x.scale(w - 1)
    for got in (a * m, m * a):
        assert got.terms == poly_mul_pairwise(a, m).terms \
            == {(1, 1, 0): (w + 2) * (w - 1)}
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


@pytest.mark.parametrize("field", DIV_FIELDS, ids=DIV_IDS)
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


def _xyt(field):
    return (MultiPoly.var(field, V, v) for v in V)


def _divides(q, d):
    """q * d (the term-pair product) divided by d gives q back, as the
    oracle's long division does, in canonical form."""
    prod = poly_mul_pairwise(q, d)
    got = prod.exact_divide(d)
    assert got.terms == q.terms
    assert got.terms == poly_exact_divide_pairwise(prod, d).terms
    _assert_canonical(got)


def test_exact_divide_by_non_integral_divisors_over_q():
    """Non-monic divisors with non-integral leads (6/5, -7/12, 1/9, and
    -6/5 with content 6/5) and mixed denominators: the pass divides
    integer encodings and scales each quotient term once."""
    x, y, t = _xyt(QQ)
    rng = random.Random(2502)
    divisors = [
        x * x * y * Fraction(6, 5) + y * t * Fraction(1, 3)
        - Fraction(2, 7) + t ** 3 * Fraction(5, 4),
        x * t * Fraction(-7, 12) + y ** 2 * Fraction(11, 18) + 1,
        y * Fraction(1, 9) - t * Fraction(3, 8),
        (x * t * 5 - y * 2 + 3) * Fraction(-6, 5),
    ]
    for d in divisors:
        for _ in range(8):
            _divides(_poly(rng, QQ, rng.randint(1, 8)), d)


def test_exact_divide_quotient_with_powers_of_three():
    """Quotient coefficients 1/3^i (i < 20) by integral and non-integral
    divisors, and x^20 - 3^-20 by x - 1/3."""
    x, y, t = _xyt(QQ)
    q = MultiPoly(QQ, V, {(i, i % 3, i % 2): Fraction(1, 3 ** i)
                          for i in range(20)})
    for d in (x * 3 - 1, x * y * 3 + t - 2, x * Fraction(1, 3) - y):
        _divides(q, d)
    third = x - Fraction(1, 3)
    got = (x ** 20 - Fraction(1, 3 ** 20)).exact_divide(third)
    assert got.terms == {(19 - i, 0, 0): Fraction(1, 3 ** i)
                         for i in range(20)}


@pytest.mark.parametrize("field", DIV_FIELDS, ids=DIV_IDS)
def test_exact_divide_rejects_every_kind_of_inexact(field):
    x, y, t = _xyt(field)
    cases = [
        # a low-order remainder left below the divisor's lead
        ((x + 1) * (x * y + t) + 1, x + 1),
        # x^2 / (x*y) would need y^-1: a quotient exponent below 0
        (x * x + y * y, x * y + 1),
        # y^2 + x has a higher degree in y than x*y + 1
        (x * y + 1, y * y + x),
        # and x^2 + y a higher degree in x
        (x * y + 1, x * x + y),
    ]
    if field.characteristic != 2:
        # over Q a quotient term that is not integral: 1/2 * x^0
        cases.append((x + 1, x * 2 + 1))
    for a, d in cases:
        with pytest.raises(ValueError):
            poly_exact_divide_pairwise(a, d)
        with pytest.raises(InvalidInputError, match="not exact"):
            a.exact_divide(d)


def _corner_poly(rng, field, degs, nterms=5):
    """A random polynomial of degree exactly ``degs[i]`` in variable i."""
    terms = {tuple(rng.randint(0, d) for d in degs): _scalar(rng, field)
             for _ in range(nterms)}
    for i, d in enumerate(degs):
        terms[tuple(d if j == i else 0 for j in range(len(degs)))] = \
            _scalar(rng, field) or field.one
    return MultiPoly(field, V, terms)


@pytest.mark.parametrize("top", [7, 8, 127, 128])
@pytest.mark.parametrize("field", [QQ, F7, F7W], ids=["Q", "F7", "F7[w]"])
def test_products_and_division_at_slot_boundaries(field, top):
    """Exponents packed one slot of top.bit_length() bits per variable,
    at tops 2^k - 1 and 2^k (k = 3, 7), where the slot widens: in every
    variable, and in one variable far above the others (the lowest slot
    and the highest)."""
    rng = random.Random(top)
    half = top // 2
    splits = [((half,) * 3, (top - half,) * 3),
              ((half, 1, 0), (top - half, 0, 1)),
              ((0, 1, half), (1, 0, top - half))]
    for qdegs, ddegs in splits:
        for _ in range(3):
            q = _corner_poly(rng, field, qdegs)
            d = _corner_poly(rng, field, ddegs)
            prod = q * d
            assert prod.terms == poly_mul_pairwise(q, d).terms
            assert max(prod.degree_in(v) for v in V) == top
            _divides(q, d)
            with pytest.raises(InvalidInputError, match="not exact"):
                (prod + 1).exact_divide(d)
    # y - x*y leaves x^-1 in the lowest slot, whose 2^width - 1 is the
    # first value past the quotient's box when top = 2^k - 1
    x, y, _ = _xyt(field)
    with pytest.raises(InvalidInputError, match="not exact"):
        (x ** top + y).exact_divide(x * y + 1)


@pytest.mark.parametrize("top", [7, 8, 127, 128])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("field", [FPW, QW],
                         ids=["F32003[w]/(w^6+w+3)", "Q[w]/(w^3-2w+5)"])
def test_pseudo_rem_step_fills_the_codec_bound(field, sign, top):
    """One pseudo-remainder step whose key y^2 t^top collects m products
    from low*lead and m from top*rest, the full
    min(|low|, |lead|) + min(|top|, |rest|) = 2m that its one
    ``product_codec`` call must hold, with every slot product at the
    codec's largest (residues p - 1, or numerators 2^40 + 1 of one sign)
    and the exponent reaching its slot's top.  The step forms
    low*lead - top*rest; ``sign`` puts -1 on g's rest (sign 1) or on f's
    top terms (sign -1), so the encoded operands are at their largest
    whichever of the two the step negates."""
    m, k = 3, top // 2
    if field.characteristic:
        big = ExtElement([P - 1] * field.degree, field)
    else:
        big = ExtElement([2 ** 40 + 1] * field.degree, field)
    x, y, t = _xyt(field)
    lead = sum((big * y ** j * t ** k for j in range(m)),
               MultiPoly.zero(field, V))
    rest = lead.scale(-sign)
    f = sum(((1 + sign * x).scale(big) * y ** (m - 1 - j) * t ** (top - k)
             for j in range(m)), MultiPoly.zero(field, V))
    g = x * lead + rest
    r = pseudo_rem(f, g, "x")
    assert r.terms == pseudo_rem_by_products(f, g, "x").terms
    assert r.degree_in("t") == top and (0, m - 1, top) in r.terms
    _assert_canonical(r)


def test_exact_divide_stays_sparse_at_high_degree():
    """A quotient of 1000 terms in a degree box of 1001^3 monomials: the
    pass must not touch the box, in time or in memory."""
    x, y, t = _xyt(QQ)
    a = MultiPoly(QQ, V, {(1000, 1000, 1000): 1, (0, 0, 0): -1})
    want = {(i, i, i): Fraction(1) for i in range(1000)}
    began = time.perf_counter()
    assert a.exact_divide(x * y * t - 1).terms == want
    assert time.perf_counter() - began < 2
    tracemalloc.start()
    try:
        a.exact_divide(x * y * t - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _series(rng, field, nterms=8):
    prec = INF if rng.random() < 0.3 else Fraction(rng.randint(-2, 14),
                                                   rng.choice([1, 2, 3, 5]))
    coeffs = {rng.randint(-3, 24): _scalar(rng, field)
              for _ in range(rng.randint(0, nterms))}
    return TruncatedSeries(field, coeffs, prec)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_series_product_matches_pairwise_reference(field):
    rng = random.Random(7007)
    for _ in range(40):
        a, b = _series(rng, field), _series(rng, field)
        got, want = a * b, series_mul_pairwise(a, b)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
        back = b * a
        assert (back.coeffs, back.prec) == (got.coeffs, got.prec)
        _assert_canonical(got)
    # exact series, and a scalar operand
    a = TruncatedSeries(field, {0: _scalar(rng, field), 1: field.one}, INF)
    b = TruncatedSeries(field, {1: _scalar(rng, field)}, INF)
    got, want = a * b, series_mul_pairwise(a, b)
    assert (got.coeffs, got.prec) == (want.coeffs, INF)
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

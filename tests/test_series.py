import math
import random

import pytest
import sympy
from fractions import Fraction

from curveint.errors import (InvalidInputError, NotAUnitError,
                             NotSpecializableError)
from curveint.fields import QQ, ExtElement, ExtensionField, PrimeField
from curveint.lifting import hensel_lift
from curveint.poly import MultiPoly
from curveint.series import (INF, TruncatedSeries, eval_poly_at_series,
                             horner)

from oracles import (RefSeries, _cutoff, agrees_with, eval_reference,
                     horner_reference)


def t_var(prec=INF):
    return TruncatedSeries.variable(QQ).truncate(prec)


def one(prec=INF):
    return TruncatedSeries.constant(QQ, 1).truncate(prec)


def test_invert_identity():
    assert one().invert_unit() == one()


def test_invert_geometric():
    s = (one() + t_var()).truncate(3)
    inv = s.invert_unit()
    assert inv.coeff_at(0) == 1
    assert inv.coeff_at(1) == -1
    assert inv.coeff_at(2) == 1
    assert inv.prec == 3


def test_invert_two_plus_t():
    s = (TruncatedSeries.constant(QQ, 2) + t_var()).truncate(2)
    inv = s.invert_unit()
    assert inv.coeff_at(0) == Fraction(1, 2)
    assert inv.coeff_at(1) == Fraction(-1, 4)
    prod = s * inv
    assert prod.coeff_at(0) == 1 and prod.coeff_at(1) == 0


def test_invert_requires_unit():
    with pytest.raises(NotAUnitError):
        t_var(4).invert_unit()
    with pytest.raises(NotAUnitError):
        TruncatedSeries.zero(QQ, 3).invert_unit()


def test_precision_never_inflated_by_multiplication():
    a = t_var(3)          # t + O(t^3)
    b = t_var(5)          # t + O(t^5)
    p = a * b             # t^2 + O(t^4): min(3+1, 5+1)
    assert p.prec == 4
    assert p.coeff_at(2) == 1


def test_zero_to_precision_valuation_is_none():
    z = TruncatedSeries.zero(QQ, 5)
    assert z.is_zero_to_precision()
    assert z.valuation() is None


def test_coefficient_beyond_precision_rejected():
    s = t_var(3)
    with pytest.raises(InvalidInputError):
        s.coeff_at(3)


def test_division_with_valuation_shift():
    num = t_var() * one(4)                # t + O(t^5)
    den = (t_var() * t_var()).truncate(6)  # t^2 + O(t^6)
    q = num / den
    assert q.valuation() == -1


def test_ramified_square():
    # t^(1/2) + O(t^(3/2)) in T with t = T^2: T + O(T^3)
    r = t_var(3)
    sq = r * r
    assert sq.valuation() == 2 and sq.prec == 4
    assert sq.coeff_at(2) == 1
    assert sq.format("t", 2) == "t + O(t^2)"


def test_specialize_constant_term():
    s = one() + t_var(5).truncate(5) * Fraction(1, 2)
    assert s.specialize() == 1


def test_specialize_negative_valuation_rejected():
    s = one(3) / t_var()                  # t^-1 + O(t^2)
    with pytest.raises(NotSpecializableError):
        s.specialize()


def test_agrees_with():
    a = one(6) + t_var(6)
    b = one(6) + t_var(6) + (t_var() ** 3 * one(6)).truncate(6)
    assert agrees_with(a, b, 3)
    assert not agrees_with(a, b, 4)


def test_eval_poly_at_series():
    V = ("x", "y")
    x = MultiPoly.var(QQ, V, "x")
    y = MultiPoly.var(QQ, V, "y")
    f = x * x - y
    # x = t^(1/2), y = t in T with t = T^2: y is read off the exponents
    T = TruncatedSeries(QQ, {1: 1}, 8)
    val = eval_poly_at_series(f, {"x": T, "y": TruncatedSeries(QQ, {2: 1},
                                                               8)})
    assert val.is_zero_to_precision() and val.prec == 8


def test_fp_series():
    F = PrimeField(7)
    s = (TruncatedSeries.constant(F, 3)
         + TruncatedSeries.variable(F)).truncate(3)
    inv = s.invert_unit()
    assert (s * inv).coeff_at(0) == 1
    assert (s * inv).coeff_at(1) == 0


def test_printable_form():
    s = one(3) + t_var(3) * Fraction(1, 2)
    assert str(s) == "1 + 1/2*t + O(t^3)"
    r = TruncatedSeries(QQ, {1: 1}, 4)   # in T, t = T^2
    assert str(r) == "t + O(t^4)"
    assert r.format("T") == "T + O(T^4)"
    assert r.format("t", 2) == "t^(1/2) + O(t^2)"
    assert str(TruncatedSeries.zero(QQ, 2)) == "O(t^2)"


# ------------------------------------------- products against a naive oracle
#
# The oracle keeps coefficients as plain values (Fraction over Q, int mod p
# over F_p, a sympy polynomial in w over Q[w]/(m)), exponents as Fractions,
# and multiplies with a full double loop, dropping exponents at or past
# min(prec_a + val_b, prec_b + val_a).  Nothing in it calls curveint
# arithmetic; the codecs below only move values in and out.

_W = sympy.Symbol("w")
_M = sympy.Poly(_W ** 3 - 2 * _W + 5, _W, domain="QQ")
_EXT = ExtensionField(QQ, [5, -2, 0, 1])


def _codec_q():
    rand = lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return (QQ, rand, lambda v: QQ.of(v), lambda c: c,
            lambda v: v, lambda v: v != 0)


def _codec_fp():
    p = 101
    F = PrimeField(p)
    return (F, lambda rng: rng.randrange(p), lambda v: F.of(v),
            lambda c: c.val, lambda v: v % p, lambda v: v % p != 0)


def _codec_ext():
    def rand(rng):
        return sympy.Poly([rng.randint(-3, 3) for _ in range(3)], _W,
                          domain="QQ")

    def to_field(v):
        return ExtElement([Fraction(int(c.p), int(c.q))
                           for c in reversed(v.all_coeffs())], _EXT)

    def from_field(c):
        asc = tuple(Fraction(x) for x in c.coeffs)
        while asc and not asc[-1]:
            asc = asc[:-1]
        return asc

    def normal(v):
        asc = tuple(Fraction(int(c.p), int(c.q))
                    for c in reversed(v.rem(_M).all_coeffs()))
        while asc and not asc[-1]:
            asc = asc[:-1]
        return asc

    return (_EXT, rand, to_field, from_field, normal, lambda v: bool(normal(v)))


def _random_operand(rng, codec):
    """(terms by exponent, prec) with every term below prec."""
    _, rand, _, _, _, nonzero = codec
    # a precision need not be an integer
    prec = INF if rng.random() < 0.3 else Fraction(rng.randint(-2, 14),
                                                   rng.choice([1, 2, 3, 5]))
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = rng.randint(-3, 12)
        v = rand(rng)
        if e < prec and nonzero(v):
            terms[e] = v
    return terms, prec


def _naive_product(a, b, codec):
    normal, nonzero = codec[4], codec[5]
    (ta, pa), (tb, pb) = a, b
    va = min(ta) if ta else pa
    vb = min(tb) if tb else pb
    prec = min(pa + vb, pb + va)
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = ea + eb
            if e < prec:
                out[e] = out[e] + ca * cb if e in out else ca * cb
    return {e: normal(c) for e, c in out.items() if nonzero(c)}, prec


@pytest.mark.parametrize("codec", [_codec_q, _codec_fp, _codec_ext],
                         ids=["Q", "F101", "Q[w]/(w^3-2w+5)"])
def test_series_product_matches_naive_oracle(codec):
    codec = codec()
    field, _, to_field, from_field, _, _ = codec
    rng = random.Random(4242)
    for _ in range(60):
        a, b = _random_operand(rng, codec), _random_operand(rng, codec)
        sa, sb = (TruncatedSeries(field, {e: to_field(v)
                                          for e, v in terms.items()}, prec)
                  for terms, prec in (a, b))
        want, want_prec = _naive_product(a, b, codec)
        got = sa * sb
        assert got.prec == _cutoff(want_prec)
        assert {k: from_field(c) for k, c in got.coeffs.items()} == want
        assert all(k < got.prec for k in got.coeffs)


# --------------------------------- the int kernel against dict arithmetic
#
# ``oracles.RefSeries`` is the series arithmetic on dicts of field elements
# with Fraction precisions, one term pair at a time.  Every operation of
# the int-coded kernel must give the same coefficients and precision, on
# seeded random operands: exact series, series zero to precision, negative
# exponents, and precisions between integers (5/2 and 5/4 among them).

F7 = PrimeField(7)
F101 = PrimeField(101)
DIFF_FIELDS = [QQ, F7, F101, _EXT, ExtensionField(F7, [-3, 0, 1], "w")]
DIFF_IDS = ["Q", "F7", "F101", "Q[w]/(w^3-2w+5)", "F7[w]/(w^2-3)"]
OFF_GRID = [Fraction(5, 2), Fraction(5, 4)]


def _diff_element(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if isinstance(field, ExtensionField):
        base = field.base
        return ExtElement([_diff_element(rng, base)
                           for _ in range(field.degree)], field)
    return field.of(rng.randint(0, field.p - 1))


def _diff_series(rng, field, low=-3):
    """A random series: exact, zero to precision, or truncated, with an
    integer or a fractional precision."""
    kind = rng.random()
    if kind < 0.25:
        prec = INF
    elif kind < 0.45:
        prec = rng.choice(OFF_GRID)
    else:
        prec = Fraction(rng.randint(low + 1, 12), rng.choice([1, 2, 3, 5]))
    terms = {} if rng.random() < 0.1 else {
        rng.randint(low, 10): _diff_element(rng, field)
        for _ in range(rng.randint(1, 6))}
    return TruncatedSeries(field, terms, prec)


def _unit(rng, field):
    """A random series of valuation 0, known to a finite precision."""
    while True:
        s = _diff_series(rng, field, low=1)
        s = s.truncate(rng.choice([Fraction(rng.randint(1, 9),
                                            rng.choice([1, 2, 4]))]
                                  + OFF_GRID))
        if s.prec != INF and s.prec > 0:
            c0 = _diff_element(rng, field)
            if c0:
                return s + c0


def _same(got, want):
    """The kernel's series equals the reference's, part by part, and as a
    series built from the reference's coefficients (equal codes, equal
    hashes)."""
    assert (got.coeffs, got.prec) == (want.coeffs, _cutoff(want.prec)), \
        f"{got} != {want.series()}"
    assert got == want.series() and hash(got) == hash(want.series())


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=DIFF_IDS)
def test_ring_operations_match_dict_arithmetic(field):
    rng = random.Random(3232)
    for _ in range(60):
        a, b = _diff_series(rng, field), _diff_series(rng, field)
        ra, rb = RefSeries.of(a), RefSeries.of(b)
        c = _diff_element(rng, field)
        _same(a * b, ra * rb)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(-a, -ra)
        _same(a * c, ra * c)
        _same(a + c, ra + c)
        _same(c - a, -ra + c)
        p = rng.choice([Fraction(rng.randint(-2, 9), rng.choice([1, 2, 3]))]
                       + OFF_GRID)
        _same(a.truncate(p), ra.truncate(p))
        d = rng.randint(-5, 5)
        _same(a._shifted(d), ra.shift(d))


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=DIFF_IDS)
def test_inverse_and_division_match_dict_arithmetic(field):
    rng = random.Random(3233)
    for _ in range(40):
        u = _unit(rng, field)
        _same(u.invert_unit(), RefSeries.of(u).invert_unit())
        a = _diff_series(rng, field)
        b = _unit(rng, field)._shifted(rng.randint(-3, 3))
        _same(a / b, RefSeries.of(a) / RefSeries.of(b))
    c = _diff_element(rng, field) or field.one
    exact = TruncatedSeries.constant(field, c)
    _same(exact.invert_unit(), RefSeries.of(exact).invert_unit())


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=DIFF_IDS)
def test_horner_and_evaluation_match_dict_arithmetic(field):
    rng = random.Random(3234)
    V3 = ("x", "y", "t")
    for _ in range(30):
        point = _diff_series(rng, field, low=0)
        coeffs = [_diff_series(rng, field) if rng.random() < 0.5
                  else _diff_element(rng, field)
                  for _ in range(rng.randint(1, 5))]
        _same(horner(coeffs, point),
              horner_reference([RefSeries.of(c) for c in coeffs],
                               RefSeries.of(point)))
        f = MultiPoly(field, V3, {
            tuple(rng.randint(0, 3) for _ in V3): _diff_element(rng, field)
            for _ in range(rng.randint(1, 8))})
        # t bound to c T^B + O(T^P) is read off the exponents; else Horner
        t = TruncatedSeries(field, {rng.randint(1, 3):
                                    _diff_element(rng, field)},
                            rng.choice([INF, Fraction(3), Fraction(7, 2)])) \
            if rng.random() < 0.5 else _diff_series(rng, field, low=0)
        assignment = {"x": _diff_series(rng, field, low=0),
                      "y": _diff_series(rng, field, low=-1)
                      if rng.random() < 0.8 else _diff_element(rng, field),
                      "t": t}
        _same(eval_poly_at_series(f, assignment),
              eval_reference(f, assignment))


# ------------------------------------------ a precision is its cutoff
#
# Every exponent is an integer, so a precision p between integers knows
# exactly the coefficients of its ceiling: the series built at p is the
# series built at ceil(p), and so is every result computed from it.

@pytest.mark.parametrize("field", [QQ, F7, _EXT],
                         ids=["Q", "F7", "Q[w]/(w^3-2w+5)"])
def test_a_precision_between_integers_is_its_cutoff(field):
    rng = random.Random(3838)
    for _ in range(60):
        d = rng.choice([2, 3, 4, 5])
        p = rng.randint(-3, 10) + Fraction(rng.randint(1, d - 1), d)
        cut = math.ceil(p)
        terms = {rng.randint(-3, 12): _diff_element(rng, field)
                 for _ in range(rng.randint(0, 6))}
        at_p, at_cut = (TruncatedSeries(field, terms, q) for q in (p, cut))
        wide = TruncatedSeries(field, terms, cut + rng.randint(0, 3))
        exact = TruncatedSeries(field, {rng.randint(-3, 12):
                                        _diff_element(rng, field)}, INF)
        unit = exact._shifted(-exact.valuation()) if exact.valuation() \
            is not None else TruncatedSeries.constant(field, 1)
        for got, want in [(at_p, at_cut),
                          (wide.truncate(p), wide.truncate(cut)),
                          (at_p + exact, at_cut + exact),
                          (at_p * unit, at_cut * unit)]:
            assert got == want and hash(got) == hash(want)
            assert got.prec == want.prec == cut


@pytest.mark.parametrize("field", [QQ, F7, _EXT],
                         ids=["Q", "F7", "Q[w]/(w^3-2w+5)"])
def test_hensel_at_a_precision_between_integers_is_at_its_cutoff(field):
    # x^2 - (1 + t): the binomial series of (1 + t)^(1/2)
    f = [-TruncatedSeries(field, {0: 1, 1: 1}, INF),
         TruncatedSeries.zero(field),
         TruncatedSeries.constant(field, 1)]
    for p in [Fraction(1, 2), Fraction(5, 2), Fraction(7, 3),
              Fraction(31, 4), Fraction(33, 8)]:
        root = hensel_lift(f, 1, p)
        assert root == hensel_lift(f, 1, math.ceil(p))
        assert root.prec == math.ceil(p)

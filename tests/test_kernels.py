"""Powers, division by a constant, substitution, the shear and evaluation
at series, against references that do not call them.

Powers of polynomials, extension elements and series are checked against
repeated multiplication, division by a constant against term-pair long
division, the shear against a sympy expansion, and
``eval_poly_at_series`` against a term-by-term expansion of the bound
series read as polynomials, and its reading of t against Horner's rule
through term-pair series products.  Operands are seeded and random, over
Q, F_101 and F_101[w]/(w^2 - 2) (2 is not a square mod 101), and for the
shear also over Q[w]/(w^2 - 2).
"""

import random
from fractions import Fraction

import pytest

from curveint.algebra import apply_shear
from curveint.fields import QQ, ExtElement, ExtensionField, PrimeField
from curveint.poly import MultiPoly
from curveint.series import INF, TruncatedSeries, eval_poly_at_series

from oracles import (eval_by_expansion, poly_exact_divide_pairwise,
                     poly_mul_pairwise, series_mul_pairwise, sympy_compose)

V = ("x", "y", "t")
F101 = PrimeField(101)
F101W = ExtensionField(F101, [-2, 0, 1], "w")
QW = ExtensionField(QQ, [-2, 0, 1], "w")
FIELDS = [QQ, F101, F101W]
IDS = ["Q", "F101", "F101w"]


def _element(rng, field):
    """A random nonzero element; over the extension, a full one."""
    while True:
        if isinstance(field, ExtensionField):
            c = ExtElement([rng.randint(-9, 9) for _ in range(field.degree)],
                           field)
        else:
            c = field.of(rng.randint(-9, 9))
        if c:
            return c


def _poly(rng, field, nterms, degree=2, variables=V):
    return MultiPoly(field, variables,
                     {tuple(rng.randint(0, degree) for _ in variables):
                      _element(rng, field) for _ in range(nterms)})


def _const(field, c):
    return MultiPoly.const(field, V, c)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_power_is_repeated_multiplication(field, n):
    rng = random.Random(n)
    for nterms in (0, 1, 2, 4):
        p = _poly(rng, field, nterms)
        expected = _const(field, 1)
        for _ in range(n):
            expected = poly_mul_pairwise(expected, p)
        assert p ** n == expected


@pytest.mark.parametrize("field", [QW, F101W], ids=["Qw", "F101w"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_extension_power_is_repeated_multiplication(field, n):
    rng = random.Random(n)
    for _ in range(4):
        c = _element(rng, field)
        expected = field.one
        for _ in range(n):
            expected = expected * c
        assert c ** n == expected
        assert c ** -n == expected.inverse()


def _series(rng, field, low=0):
    """A random series from t^low on, exact or truncated at an integer or
    a fractional precision."""
    coeffs = {k: _element(rng, field) for k in range(low, low + 4)
              if rng.random() < 0.6}
    prec = INF if rng.random() < 0.3 \
        else Fraction(rng.randint(low + 1, low + 6), rng.randint(1, 3))
    return TruncatedSeries(field, coeffs, prec)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_series_power_is_repeated_multiplication(field, n):
    rng = random.Random(n)
    one = TruncatedSeries.constant(field, 1)
    for low in (-1, 0, 1):
        s = _series(rng, field, low)
        expected = one
        for _ in range(n):
            expected = series_mul_pairwise(expected, s)
        assert s ** n == expected
    # a unit known to a finite precision: the negative power inverts
    u = _series(rng, field) + one
    u = u.truncate(min(u.prec, 4))
    expected = one
    for _ in range(n):
        expected = series_mul_pairwise(expected, u)
    assert u ** -n == one / expected


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_eval_poly_at_series_matches_expansion(field):
    rng = random.Random(14)
    for _ in range(40):
        f = _poly(rng, field, rng.randint(0, 8), degree=3)
        assignment = {v: _element(rng, field) if rng.random() < 0.2
                      else _series(rng, field, rng.choice([-1, 0, 0, 1]))
                      for v in V}
        val = eval_poly_at_series(f, assignment)
        expected = eval_by_expansion(f, assignment)
        assert val.coeffs == \
            {k: c for k, c in expected.items() if k < val.prec}
        bound = [s for s in assignment.values()
                 if isinstance(s, TruncatedSeries)]
        if all(s.effective_valuation() >= 0 for s in bound):
            assert val.prec >= min((s.prec for s in bound), default=INF)


def _horner_pairwise(coeffs, point):
    """Horner's rule on scalars [c_0, c_1, ...]: each step a term-pair
    product, then c added at t^0 through the checking constructor."""
    total = TruncatedSeries.zero(point.field)
    for c in reversed(coeffs):
        total = series_mul_pairwise(total, point)
        out = dict(total.coeffs)
        out[0] = out.get(0, point.field.zero) + c
        total = TruncatedSeries(point.field, out, total.prec)
    return total


T_PRECS = [Fraction(2), Fraction(3), Fraction(7), INF,  # integer, exact
           Fraction(3, 2), Fraction(7, 3), Fraction(9, 2),  # fractional
           Fraction(1), Fraction(1, 2), Fraction(0)]  # t zero to precision


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("prec", T_PRECS, ids=str)
def test_reading_t_is_horner_in_t(field, prec):
    """Bound to a monomial c T^B + O(T^prec), the innermost level is read
    off the exponents; it must carry the coefficients and the precision of
    Horner's rule in T.  Sparse polynomials with gaps below and between
    their exponents, in t alone and in (x, y, t) with x and y at 0; each
    at t + O(t^prec) and at c T^B with a random nonzero c and B = 1, 2, 3
    in turn."""
    for seed in range(30):
        rng = random.Random(seed)
        degree = rng.randint(0, 9)
        coeffs = [_element(rng, field) if rng.random() < 0.4
                  else field.zero for _ in range(degree)]
        coeffs.append(_element(rng, field))
        c = _element(rng, field) or field.one
        for B, scale in ((1, field.one), (1 + seed % 3, c)):
            t = TruncatedSeries(field, {B: scale}, prec)
            expected = _horner_pairwise(coeffs, t)
            for names in (("t",), V):
                f = MultiPoly(field, names, {
                    (0,) * (len(names) - 1) + (e,): ce
                    for e, ce in enumerate(coeffs) if ce})
                val = eval_poly_at_series(
                    f, {"x": field.zero, "y": field.zero, "t": t})
                assert (val.coeffs, val.prec) == \
                    (expected.coeffs, expected.prec), \
                    f"seed {seed}: {f} at {t}"


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_exact_divide_by_a_constant(field):
    rng = random.Random(13)
    for nterms in (0, 1, 5):
        p = _poly(rng, field, nterms)
        c = _const(field, _element(rng, field))
        q = p.exact_divide(c)
        assert q == poly_exact_divide_pairwise(p, c)
        assert poly_mul_pairwise(q, c) == p
        assert p.exact_divide(_const(field, 1)) == p
        assert p.exact_divide(1) == p
        for zero in (0, _const(field, 0)):
            with pytest.raises(ZeroDivisionError):
                p.exact_divide(zero)


@pytest.mark.parametrize("field", FIELDS + [QW], ids=IDS + ["Qw"])
def test_shear_agrees_with_sympy_and_the_identity_keeps_f(field):
    """f(x, (y - lam*x)/mu) against a sympy expansion, in (x, y) and in
    (x, y, t), where t passes through: a full shear, a scaling alone
    (lam = 0, mu != 1) and a shift alone (lam != 0, mu = 1).  The
    identity (0, 1) returns f."""
    rng = random.Random(5)
    for names in (("x", "y"), V):
        x, y = (MultiPoly.var(field, names, v) for v in ("x", "y"))
        for _ in range(4):
            f = _poly(rng, field, 6, degree=3, variables=names)
            assert apply_shear(f, 0, 1) == f
            for lam, mu in ((3, -2), (0, 5), (-4, 1)):
                lam, mu = field.of(lam), field.of(mu)
                repl = (y - x * lam) * (1 / mu)
                assert apply_shear(f, lam, mu) == \
                    sympy_compose(f, {"y": repl})

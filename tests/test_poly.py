import random

import pytest
from fractions import Fraction

from curveint.errors import InvalidInputError
from curveint.fields import QQ, PrimeField
from curveint.poly import MultiPoly

from oracles import evaluate, random_poly

V = ("x", "y")


def xy(field=QQ):
    return (MultiPoly.var(field, V, "x"), MultiPoly.var(field, V, "y"))


def test_zero_polynomial_has_empty_terms():
    z = MultiPoly.zero(QQ, V)
    assert z.is_zero() and not z.terms
    x, y = xy()
    assert (x - x).terms == {}


def test_no_zero_coefficients_stored():
    F = PrimeField(5)
    x, y = xy(F)
    p = (x + y) ** 5  # binomials vanish mod 5
    assert set(p.terms) == {(5, 0), (0, 5)}


def test_degree_and_leading():
    x, y = xy()
    f = x * x * y - y + 3
    assert f.total_degree() == 3
    assert f.degree_in("x") == 2
    assert f.degree_in("y") == 1
    assert f.leading_coeff_in("x") == MultiPoly.var(QQ, V, "y")
    assert f.coeff_of("x", 0) == -MultiPoly.var(QQ, V, "y") + 3


def test_evaluate_total():
    x, y = xy()
    f = x * x - y ** 3 + 1
    assert evaluate(f, {"x": 2, "y": 1}) == Fraction(4)


def test_partial_substitution():
    x, y = xy()
    f = x * x - y ** 3
    assert f.subs_values({"y": QQ.zero}) == x * x
    assert f.subs_values({"x": QQ.of(1)}) == -(y ** 3) + 1


def test_exact_divide_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        a = random_poly(rng, QQ, V, 3, 4)
        b = random_poly(rng, QQ, V, 2, 4)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).exact_divide(b) == a


def test_exact_divide_rejects_inexact():
    x, y = xy()
    with pytest.raises(InvalidInputError):
        (x * x + 1).exact_divide(y)


def test_pow_and_scale():
    x, y = xy()
    assert (x + y) ** 0 == MultiPoly.const(QQ, V, 1)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert x.scale(Fraction(1, 2)) * 2 == x


def test_exponent_vector_length_enforced():
    with pytest.raises(InvalidInputError):
        MultiPoly(QQ, V, {(1, 2, 3): QQ.one})


def test_extend_and_drop_vars():
    x, y = xy()
    f = x * y + 1
    g = f.extend_vars(("x", "y", "t"))
    assert g.vars == ("x", "y", "t")
    assert g.degree_in("t") == 0
    assert g.drop_vars(["t"]) == f


def test_canonical_printing_graded_lex():
    x, y = xy()
    f = y ** 3 - x * x + x - 5
    assert str(f) == "y^3 - x^2 + x - 5"
    assert str(MultiPoly.zero(QQ, V)) == "0"
    assert str(x.scale(Fraction(1, 2))) == "1/2*x"


def test_hash_and_equality():
    x, y = xy()
    assert hash(x * y + 1) == hash(y * x + 1)
    assert x * y == y * x
    d = {x + y: 1}
    assert (y + x) in d

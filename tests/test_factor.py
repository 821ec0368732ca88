"""Univariate factorization over Q and F_p against sympy's ``factor_list``
(``oracles.sympy_factor_list``): seeded planted products, and fixed hard
cases that split mod every prime, have a 60-digit coefficient or reach
sympy's edge behaviour (zero, constants, two variables, extensions).  The
extended Euclid mod p, which also inverts in extensions of F_p, is checked
against ``oracles.poly_gcd``."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curveint import algebra, factor
from curveint.algebra import factor_univariate
from curveint.cli import parse_poly
from curveint.errors import InvalidInputError, UnsupportedExtensionError
from curveint.factor import _mul, _rem, _sub, _xgcd
from curveint.fields import QQ, ExtensionField, PrimeField
from curveint.poly import MultiPoly

from oracles import poly_gcd, sympy_factor_list

PRIMES = (2, 3, 5, 7, 101, 32003, 2147483647)
FIELDS = (QQ,) + tuple(PrimeField(p) for p in PRIMES)


@st.composite
def planted_products(draw):
    """A product of one to three factors of degree 1-3, each to a power
    1-3, or p or p + 1 in characteristic p <= 7; over Q the coefficients
    are fractions and the top ones need not be 1."""
    field = draw(st.sampled_from(FIELDS))
    p = field.characteristic
    mults = [1, 2, 3] + ([p, p + 1] if 0 < p <= 7 else [])
    den = st.integers(1, 6) if p == 0 else st.just(1)
    f = MultiPoly.const(field, ("x",), 1)
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 3))
        coeffs = [Fraction(draw(st.integers(-9, 9)), draw(den))
                  for _ in range(deg)] + [draw(st.integers(1, 9))]
        fac = MultiPoly(field, ("x",), {(k,): field.of(c)
                                        for k, c in enumerate(coeffs)})
        if fac.degree_in("x") > 0:
            f = f * fac ** draw(st.sampled_from(mults))
    return f


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(planted_products())
def test_factor_univariate_agrees_with_sympy(f):
    assert factor_univariate(f, "x") == sympy_factor_list(f, "x")


PHI15 = "x^8 - x^7 + x^5 - x^4 + x^3 - x + 1"
HARD = {
    # Swinnerton-Dyer: irreducible over Q, a product of factors of
    # degree <= 2 mod every prime
    "sd4": (QQ, "x^4 - 10*x^2 + 1", [4]),
    "sd8": (QQ, "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576", [8]),
    # Artin-Schreier: x^p - x - 1 is irreducible over F_p
    "as2": (PrimeField(2), "x^2 - x - 1", [2]),
    "as3": (PrimeField(3), "x^3 - x - 1", [3]),
    "as5": (PrimeField(5), "x^5 - x - 1", [5]),
    "as7": (PrimeField(7), "x^7 - x - 1", [7]),
    # the 15th cyclotomic polynomial: 2 and 7 have order 4 mod 15
    "phi15-Q": (QQ, PHI15, [8]),
    "phi15-F2": (PrimeField(2), PHI15, [4, 4]),
    "phi15-F7": (PrimeField(7), PHI15, [4, 4]),
    "rational": (QQ, "(2/3*x^2 - 1/5)*(7/2*x^3 + x - 3/4)^2", [2, 3]),
    "60-digit": (QQ, "(x - 123456789012345678901234567890123456789012345678901"
                     "234567890)*(x^2 + 3)", [1, 2]),
    "big-prime": (PrimeField(2147483647), "(x^2 + 1)*(x^3 + 2)*(x - 5)^3",
                  [1, 1, 1, 1, 2]),
}


@pytest.mark.parametrize("name", HARD)
def test_factor_univariate_hard_cases(name):
    field, text, degrees = HARD[name]
    f = parse_poly(text, field, ("x",))
    got = factor_univariate(f, "x")
    assert got == sympy_factor_list(f, "x")
    assert [fac.degree_in("x") for fac, _ in got] == degrees


Q31 = 2 ** 31 - 1  # factor.PRIME_Q, spelled out
# (field, text, whether the image mod p proves it squarefree): over Q the
# image is mod 2^31 - 1, over F_p the polynomial itself
SQUAREFREE_PATHS = {
    # squarefree over Q, but not mod 2^31 - 1, or of lower degree there
    "double-mod-q": (QQ, f"x*(x - {Q31})*(x^2 + 1)", False),
    "close-roots": (QQ, f"(x - 1)*(x - 1 - {Q31})", False),
    "top-mod-q": (QQ, f"{Q31}*x^3 + x + 1", False),
    "rational-mod-q": (QQ, f"1/{2 * Q31}*x^2 - 1/3", False),
    # repeated factors
    "repeated-Q": (QQ, "(x^2 + 1)^2*(3/2*x - 5)^3*(x - 2)", False),
    "repeated-F7": (PrimeField(7), "(x^2 + 1)^2*(x + 3)^3*x", False),
    "repeated-F101": (PrimeField(101), "(x^3 + x + 1)^2*(x - 7)", False),
    # p-th powers, whose derivative is 0 mod p
    "pth-power-F2": (PrimeField(2), "(y^2 + y + 1)^2", False),
    "pth-power-F2-mixed": (PrimeField(2), "(y^2 + y + 1)^2*(y^3 + y + 1)",
                           False),
    "pth-power-F3": (PrimeField(3), "(y^2 + 1)^3*(y + 1)^4", False),
    # squarefree, proved by the image
    "squarefree-Q": (QQ, "(2/3*x^2 - 1/5)*(7/2*x^3 + x - 3/4)", True),
    "squarefree-F101": (PrimeField(101), "(x^3 + x + 1)*(x - 7)", True),
}


@pytest.mark.parametrize("name", SQUAREFREE_PATHS)
def test_factor_univariate_takes_the_exact_path_where_the_image_fails(
        monkeypatch, name):
    """One image mod p proves f squarefree before any exact work; where it
    does not (a square mod 2^31 - 1 that is none over Q, a top coefficient
    that p divides, a repeated factor, a p-th power), the exact
    ``squarefree_decompose`` runs.  Both paths agree with sympy."""
    field, text, proved = SQUAREFREE_PATHS[name]
    var = "y" if "y" in text else "x"
    f = parse_poly(text, field, (var,))
    calls = []
    real = algebra.squarefree_decompose
    monkeypatch.setattr(algebra, "squarefree_decompose",
                        lambda g: calls.append(g) or real(g))
    assert factor_univariate(f, var) == sympy_factor_list(f, var)
    assert calls == ([] if proved else [f])


QW = ExtensionField(QQ, [-2, 0, 1], "w")


@pytest.mark.parametrize("f", [
    MultiPoly(QQ, ("x",), {}),
    MultiPoly.const(PrimeField(7), ("x",), 3),
    MultiPoly.const(QQ, ("x", "y"), 5),
    parse_poly("x*y + 1", QQ, ("x", "y")),
    MultiPoly.var(QW, ("x",), "x"),
    MultiPoly.const(QW, ("x",), 3),
], ids=["zero", "constant", "constant-xy", "bivariate", "extension",
        "extension-constant"])
def test_factor_univariate_edge_inputs_match_sympy(f):
    try:
        expected = sympy_factor_list(f, "x")
    except (InvalidInputError, UnsupportedExtensionError) as err:
        with pytest.raises(type(err), match=str(err)):
            factor_univariate(f, "x")
    else:
        assert factor_univariate(f, "x") == expected


@pytest.mark.parametrize("p", (2, 3, 7, 101))
def test_xgcd_contract(p):
    """(g, s) = _xgcd(a, b, p): g is the monic gcd, s*a = g mod b, and s is
    reduced with deg s < deg b - deg g.  Seeded pairs, a zero a among them,
    and every other pair with a common factor multiplied in: a non-unit g
    is how an extension of F_p detects a zero divisor."""
    F = PrimeField(p)
    rng = random.Random(f"xgcd-{p}")

    def rand(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    for i in range(60):
        a = rand(rng.randint(0, 6)) if i else []
        b = rand(rng.randint(0, 6))
        if i % 2:
            c = rand(rng.randint(1, 3))
            a, b = _mul(a, c, p), _mul(b, c, p)
        g, s = _xgcd(a, b, p)
        want = poly_gcd([F.of(x) for x in a], [F.of(x) for x in b], F.zero)
        assert tuple(F.of(x) for x in g) == want and g[-1] == 1, (a, b)
        assert not _rem(_sub(_mul(s, a, p), g, p), b, p), (a, b)
        assert len(s) - 1 < len(b) - len(g), (a, b)  # in degrees
        assert all(0 <= x < p for x in s) and (not s or s[-1]), (a, b)


def test_image_primes():
    """The prime of the images of Q is 2^31 - 1; the primes of the images
    of Q[w]/(m) are the eight largest primes below 2^15, largest first."""
    assert factor.PRIME_Q == 2 ** 31 - 1 and factor.is_prime(factor.PRIME_Q)
    below = [q for q in range(2 ** 15 - 1, 32600, -1) if factor.is_prime(q)]
    assert list(factor.PRIMES_QW) == below[:8]


@pytest.mark.parametrize("q", (3, 13, 32749))
def test_root_mod_p_finds_a_root_exactly_when_there_is_one(q):
    """Seeded monic squarefree f mod q of degree 1-6: a root when one
    exists (f(r) = 0 mod q), None when none does (checked by trying every
    residue for the small q, and by gcd(x^q - x, f) for the large one)."""
    rng = random.Random(f"root-{q}")
    seen = set()
    for _ in range(80):
        f = [rng.randrange(q) for _ in range(rng.randint(1, 6))] + [1]
        df = [k * c % q for k, c in enumerate(f)][1:]
        if len(factor._gcd(f, factor._trim(df), q)) != 1:
            continue
        r = factor.root_mod_p(f, q, rng)
        if q < 100:
            has = any(sum(c * pow(x, k, q) for k, c in enumerate(f)) % q == 0
                      for x in range(q))
        else:
            has = len(factor._gcd(f, factor._sub(
                factor._powmod([0, 1], q, f, q), [0, 1], q), q)) > 1
        assert (r is not None) == has, f
        if r is not None:
            assert sum(c * pow(r, k, q) for k, c in enumerate(f)) % q == 0
        seen.add(has)
    assert seen == {True, False}

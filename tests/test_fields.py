import math
import random

import pytest
import sympy
from fractions import Fraction

from curveint import fields
from curveint.errors import InvalidInputError, UnsupportedExtensionError
from curveint.fields import (QQ, ExtElement, ExtensionField, PrimeField,
                             is_prime, pth_root_scalar)
from oracles import (ext_inverse, ext_mul, poly_add, poly_gcd, poly_mul,
                     poly_neg, poly_trim)


def test_rational_field_basics():
    assert QQ.of(3) == Fraction(3)
    assert QQ.of(Fraction(2, 4)) == Fraction(1, 2)
    a = QQ.of(Fraction(-6, 4))
    assert a.denominator > 0 and abs(Fraction(a).numerator) == 3


def test_prime_field_requires_prime():
    with pytest.raises(InvalidInputError):
        PrimeField(10)
    PrimeField(2)
    PrimeField(32003)


def test_fp_arithmetic_and_inverse():
    F = PrimeField(7)
    a = F.of(3)
    b = F.of(5)
    assert a + b == 1
    assert a * b == 1
    assert a - b == 5
    assert (a / b).val == (3 * pow(5, -1, 7)) % 7
    assert a ** -1 == 5
    for raw in range(1, 7):
        e = F.of(raw)
        assert e * (1 / e) == 1


def test_fp_division_by_zero_detected():
    F = PrimeField(11)
    with pytest.raises(ZeroDivisionError):
        F.of(1) / F.of(0)
    with pytest.raises(ZeroDivisionError):
        F.of(0) ** -1


def test_fp_residues_reduced():
    F = PrimeField(13)
    assert F.of(40).val == 1
    assert F.of(-1).val == 12
    assert F.of(Fraction(1, 2)) == F.of(7)


def test_extension_field_over_q():
    E = ExtensionField(QQ, [-2, 0, 1])  # z^2 - 2
    z = E.gen
    assert z * z == 2
    inv = 1 / z
    assert inv * z == 1
    assert (z + 1) * (z - 1) == 1  # (z+1)(z-1) = z^2 - 1 = 1


def test_extension_field_modulus_must_be_squarefree():
    for base, modulus in (
            (QQ, [1, 2, 1]),                # (z + 1)^2
            (PrimeField(2), [1, 0, 1]),     # z^2 + 1 = (z + 1)^2, m' = 0
            (PrimeField(3), [1, 0, 0, 1])):  # z^3 + 1 = (z + 1)^3, m' = 0
        with pytest.raises(InvalidInputError):
            ExtensionField(base, modulus)


def test_extension_of_extension_rejected():
    E = ExtensionField(QQ, [-2, 0, 1])
    with pytest.raises(UnsupportedExtensionError):
        ExtensionField(E, [E.of(-3), E.zero, E.one])


def test_extension_zero_division_detected():
    E = ExtensionField(QQ, [-2, 0, 1])
    with pytest.raises(ZeroDivisionError):
        E.one / E.zero


def test_extension_over_fp_and_frobenius_root():
    F = PrimeField(7)
    E = ExtensionField(F, [F.of(3), F.of(0), F.of(1)])  # z^2 + 3 irreducible
    z = E.gen
    c = (z + 2) ** 7  # Frobenius image
    root = pth_root_scalar(c, E)
    assert root == z + 2
    assert pth_root_scalar(F.of(4), F) == 4  # identity on the prime field


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# ------------------------------------ products against sympy's Poly.rem
#
# Moduli of degree 1 to 4 over Q and F_p, irreducible and reducible
# squarefree, given monic or not; a product must equal the remainder of the
# plain polynomial product on division by the modulus.

_W = sympy.Symbol("w")

_MODULI = [
    ("Q", [3, 2]),                     # 2w + 3
    ("Q", [-2, 0, 1]),                 # w^2 - 2
    ("Q", [-2, 1, 1]),                 # (w - 1)(w + 2), reducible
    ("Q", [5, -2, 0, 1]),              # w^3 - 2w + 5
    ("Q", [1, 0, 0, 0, 3]),            # 3w^4 + 1
    ("F7", [3, 0, 1]),                 # w^2 + 3, irreducible mod 7
    ("F7", [-1, 0, 1]),                # (w - 1)(w + 1), reducible
    ("F101", [2, 1, 0, 1]),            # w^3 + w + 2
    ("F101", [1, 4, 0, 2, 5]),         # degree 4
]


@pytest.mark.parametrize("spec,modulus", _MODULI,
                         ids=[f"{s}:{m}" for s, m in _MODULI])
def test_extension_product_matches_sympy_rem(spec, modulus):
    p = 0 if spec == "Q" else int(spec[1:])
    base = QQ if not p else PrimeField(p)
    E = ExtensionField(base, modulus)
    n = len(modulus) - 1
    dom = {"domain": "QQ"} if not p else {"modulus": p}
    m = sympy.Poly(list(reversed(modulus)), _W, **dom)
    rng = random.Random(1000 + 17 * n + p)

    def rand_coeffs():
        if p:
            return [rng.randrange(p) for _ in range(rng.randint(0, n))]
        return [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                for _ in range(rng.randint(0, n))]

    def plain(coeffs):  # sympy's ascending coefficients, as Fraction or int
        asc = list(reversed(coeffs.all_coeffs())) if not coeffs.is_zero else []
        out = [Fraction(int(c.p), int(c.q)) if not p else int(c) % p
               for c in asc]
        while out and not out[-1]:
            out.pop()
        return out

    def ours(el):
        return [c if not p else c.val for c in el.coeffs]

    for _ in range(40):
        a, b = rand_coeffs(), rand_coeffs()
        pa = sympy.Poly(list(reversed(a)) or [0], _W, **dom)
        pb = sympy.Poly(list(reversed(b)) or [0], _W, **dom)
        ea = ExtElement([base.of(c) for c in a], E)
        eb = ExtElement([base.of(c) for c in b], E)
        assert ours(ea * eb) == plain((pa * pb).rem(m)), (a, b)
        k = rng.randint(-3, 3)
        assert ours(ea * k) == plain((pa * k).rem(m))


# ------------------------------------ integer kernels against the oracle
#
# ExtElement computes on integer vectors; tests/oracles.py computes on
# tuples of base-field elements.  Seeded random elements, including sparse
# ones, zero and constants, are run through both.  Q coefficients have
# denominators up to 2^20.

def assert_canonical(e):
    """The stored form: reduced ints, no trailing zero, den > 0 with
    gcd(den, *num) == 1 over Q, residues over den 1 over F_p."""
    field, p = e.field, e.field.characteristic
    assert type(e.num) is tuple and all(type(x) is int for x in e.num)
    assert len(e.num) <= field.degree
    assert not e.num or e.num[-1] != 0
    if p:
        assert e.den == 1 and all(0 <= x < p for x in e.num)
    else:
        assert e.den > 0 and math.gcd(e.den, *e.num) == 1


def _base(spec):
    return QQ if spec == "Q" else PrimeField(int(spec[1:]))


def _rand_coeff(rng, base, big=2 ** 20):
    if rng.random() < 0.2:
        return base.zero
    if base is QQ:
        return Fraction(rng.randint(-big, big), rng.randint(1, big))
    return base.of(rng.randrange(base.p))


def _rand_elem(rng, base, n):
    """Ascending base-field tuple of length at most n."""
    return poly_trim(_rand_coeff(rng, base) for _ in range(rng.randint(0, n)))


def _squarefree(base, m):
    deriv = poly_trim(c * k for k, c in enumerate(m))[1:]
    return len(poly_gcd(m, deriv, base.zero)) == 1


def _rand_den(rng, base):
    """A denominator from 1 to 4 that is a unit in base."""
    while True:
        den = rng.randint(1, 4)
        if base is QQ or den % base.p:
            return den


def _rand_modulus(rng, base, n):
    """A squarefree modulus of degree n, not monic over Q."""
    while True:
        lead = base.of(rng.choice([1, 3, 7]) if base is QQ else
                       rng.randrange(1, base.p))
        m = tuple(base.of(Fraction(rng.randint(-9, 9), _rand_den(rng, base)))
                  for _ in range(n)) + (lead,)
        if _squarefree(base, m):
            return m


# F2 and F3 have the fewest units and moduli; 2^31 - 1 is the largest
# prime the command line accepts.
_SPECS = ("Q", "F7", "F101", "F32003", "F2", "F3", "F2147483647")
_DIFF_FIELDS = [(spec, n) for spec in _SPECS for n in (*range(1, 7), 8, 12)]


def _check_against_oracle(E, rng, pairs=25):
    base = E.base
    zero, one, m = base.zero, base.one, E.modulus
    n = E.degree

    def ref_inverse(a):
        try:
            return ext_inverse(a, m, zero, one)
        except ZeroDivisionError:
            return None

    def ref_pow(a, k):
        if k < 0:
            a, k = ref_inverse(a), -k
        out = (one,)
        for _ in range(k):
            out = ext_mul(out, a, m, zero)
        return out

    for _ in range(pairs):
        a, b = _rand_elem(rng, base, n), _rand_elem(rng, base, n)
        ea, eb = ExtElement(a, E), ExtElement(b, E)
        for got in (ea, eb):
            assert_canonical(got)
        assert ea.coeffs == a and eb.coeffs == b
        results = [
            (ea + eb, poly_add(a, b, zero)),
            (ea - eb, poly_add(a, poly_neg(b), zero)),
            (eb - ea, poly_add(b, poly_neg(a), zero)),
            (ea * eb, ext_mul(a, b, m, zero)),
            (-ea, poly_neg(a)),
        ]
        for k in range(5):
            results.append((ea ** k, ref_pow(a, k)))
        inv = ref_inverse(b)
        if inv is None:
            for op in (eb.inverse, lambda: ea / eb, lambda: eb ** -1):
                with pytest.raises(ZeroDivisionError):
                    op()
        else:
            results += [(eb.inverse(), inv), (ea / eb, ext_mul(a, inv, m, zero)),
                        (eb ** -2, ref_pow(b, -2))]
        for got, want in results:
            assert_canonical(got)
            assert got.coeffs == want, (a, b, want)
        # equality and hashing: the same residue given unreduced
        q = _rand_elem(rng, base, n + 2)
        longer = poly_add(a, poly_mul(q, m, zero), zero)
        ea2 = ExtElement(longer, E)
        assert_canonical(ea2)
        assert ea2 == ea and hash(ea2) == hash(ea)
        assert (ea == eb) == (a == b)
        assert bool(ea) == bool(a)


@pytest.mark.parametrize("spec,n", _DIFF_FIELDS,
                         ids=[f"{s}-deg{n}" for s, n in _DIFF_FIELDS])
def test_extension_kernels_match_oracle(spec, n):
    base = _base(spec)
    rng = random.Random(f"{spec}-{n}")
    E = ExtensionField(base, _rand_modulus(rng, base, n))
    _check_against_oracle(E, rng)


# Reducible squarefree moduli, each given with one factor: that factor is
# a zero divisor, and inverting it must still raise.
_REDUCIBLE = [
    ("Q", [-1, 1], [2, 1, 0, 2, 1]),          # (w-1)(w^4 + 2w^3 + w + 2)
    ("F2", [1, 1], [1, 1, 1]),                # (w+1)(w^2 + w + 1) = w^3 + 1
    ("F3", [1, 0, 1], [-1, 1]),               # (w^2 + 1)(w - 1)
    ("F7", [-1, 1], [1, 1, 0, 1]),            # (w-1)(w^3 + w + 1)
    ("F101", [3, 0, 1], [-5, 1]),             # (w^2 + 3)(w - 5)
    ("F32003", [1, 1, 1], [7, 0, 0, 1]),      # (w^2 + w + 1)(w^3 + 7)
]


@pytest.mark.parametrize("spec,f,g", _REDUCIBLE,
                         ids=[s for s, _, _ in _REDUCIBLE])
def test_reducible_modulus_zero_divisors(spec, f, g):
    base = _base(spec)
    f = tuple(base.of(c) for c in f)
    g = tuple(base.of(c) for c in g)
    m = poly_mul(f, g, base.zero)
    assert _squarefree(base, m)
    E = ExtensionField(base, m)
    e = ExtElement(f, E)
    assert e and e * ExtElement(g, E) == 0
    for op in (e.inverse, lambda: 1 / e, lambda: E.one / e, lambda: e ** -1):
        with pytest.raises(ZeroDivisionError):
            op()
    _check_against_oracle(E, random.Random(f"reducible-{spec}"))


@pytest.mark.parametrize("base,modulus", [
    (QQ, [-2, 0, 1]), (PrimeField(7), [-3, 0, 1]),
    (PrimeField(101), [1, 1, 0, 1])],
    ids=["Q[w]/(w^2-2)", "F7[w]/(w^2-3)", "F101[w]/(w^3+w+1)"])
def test_the_one_is_its_own_inverse_with_no_gcd(monkeypatch, base, modulus):
    """Inverting the field's one (``1 / field.one``, ``inverse``, ``** -1``
    and dividing by it) runs no extended gcd and gives the one back; any
    other element still runs one."""
    E = ExtensionField(base, modulus, "w")
    calls = []
    for name in ("_xgcd", "_ext_gcd"):
        real = getattr(fields, name)
        monkeypatch.setattr(fields, name, lambda *a, real=real:
                            calls.append(a) or real(*a))
    one = E.one
    assert 1 / one == one.inverse() == one ** -1 == one
    assert E.gen / one == E.gen
    assert calls == []
    assert (E.gen + 1) * (1 / (E.gen + 1)) == one and len(calls) == 1


def test_modulus_squarefree_check_matches_oracle():
    rng = random.Random(7)
    for spec in _SPECS:
        base = _base(spec)
        for _ in range(20):
            a = _rand_modulus(rng, base, rng.randint(1, 3))
            b = _rand_modulus(rng, base, rng.randint(1, 3))
            m = poly_mul(poly_mul(a, b, base.zero), b, base.zero)
            with pytest.raises(InvalidInputError):
                ExtensionField(base, m)       # b^2 divides m
            if _squarefree(base, poly_mul(a, b, base.zero)):
                ExtensionField(base, poly_mul(a, b, base.zero))


# ----------------------------------------------------- mixed operands

def test_mixed_operands_over_q():
    E = ExtensionField(QQ, [-2, 0, 3])               # 3w^2 - 2
    e = ExtElement([Fraction(1, 2), Fraction(-5, 7)], E)
    w = E.gen
    assert (3 - e).coeffs == (Fraction(5, 2), Fraction(5, 7))
    assert (e - 3).coeffs == (Fraction(-5, 2), Fraction(-5, 7))
    assert 3 - e == -(e - 3)
    assert (Fraction(1, 3) / e) * e == Fraction(1, 3)
    assert (e / Fraction(1, 3)).coeffs == (Fraction(3, 2), Fraction(-15, 7))
    assert 2 * e == e * 2 == e + e
    assert Fraction(1, 2) + w == w + Fraction(1, 2)
    assert w * w == Fraction(2, 3)
    assert not (e == 0) and not (0 == e) and e != 0
    assert E.zero == 0 and 0 == E.zero and not E.zero
    assert E.one == 1 and 1 == E.one and E.one != 2
    assert ExtElement([Fraction(1, 2)], E) == Fraction(1, 2)
    assert hash(ExtElement([4, 6], E)) == hash(ExtElement([Fraction(8, 2), 6], E))


def test_mixed_operands_over_fp():
    F = PrimeField(101)
    E = ExtensionField(F, [2, 1, 0, 1])               # w^3 + w + 2
    e = ExtElement([F.of(3), F.of(100), F.of(7)], E)
    five = F.of(5)
    assert (e * five).coeffs == (F.of(15), F.of(96), F.of(35))
    assert five * e == e * five == e * 5 == 5 * e
    assert (five - e).coeffs == (F.of(2), F.of(1), F.of(94))
    assert (e - five) == -(five - e)
    assert (five / e) * e == five and (1 / e) * e == 1
    assert e / five * five == e
    assert not (e == F.of(0)) and E.zero == F.of(0) and F.of(0) == E.zero
    assert ExtElement([F.of(9)], E) == 9 == ExtElement([9 + 101], E)
    with pytest.raises(TypeError):
        e * PrimeField(7).of(3)                       # another prime field
    with pytest.raises(TypeError):
        e + Fraction(1, 2)                            # Q scalar over F_p


def test_mixing_extension_fields_raises():
    E1 = ExtensionField(QQ, [-2, 0, 1])
    E2 = ExtensionField(QQ, [-3, 0, 1])
    a, b = E1.gen, E2.gen
    for op in (lambda: a + b, lambda: a * b, lambda: a - b, lambda: a / b,
               lambda: a == b):
        with pytest.raises(InvalidInputError):
            op()
    # an equal field built twice is the same field
    E3 = ExtensionField(QQ, [-2, 0, 1])
    assert E3.gen * a == 2 and E3.gen == a and hash(E3.gen) == hash(a)


@pytest.mark.parametrize("base,modulus", [
    (QQ, [-3, 2]),                    # 2z - 3
    (QQ, [-2, 0, 3, 5]),              # 5z^3 + 3z^2 - 2
    (PrimeField(7), [3, 1]),          # z + 3
    (PrimeField(101), [2, 1, 0, 1]),  # z^3 + z + 2
])
def test_of_a_base_value_is_canonical(base, modulus):
    """``of`` builds a base-field value's element directly: equal to the
    element ``ExtElement`` reduces from it, with the same parts, which
    are ((v,), 1) over F_p, ((numerator,), denominator) over Q and
    ((), 1) for zero."""
    field = ExtensionField(base, modulus)
    p = base.characteristic
    values = ([0, 1, p - 1, Fraction(1, 2)] if p
              else [0, 1, -7, Fraction(-5, 6), Fraction(9, 4)])
    for value in values:
        v = base.of(value)
        got = field.of(v)
        want = ExtElement((v,), field)
        assert got == want and (got.num, got.den) == (want.num, want.den)
        assert got.field is field
        if isinstance(value, int):
            assert field.of(value) == got
        if not v:
            parts = ((), 1)
        elif p:
            parts = ((v.val,), 1)
        else:
            parts = ((v.numerator,), v.denominator)
        assert (got.num, got.den) == parts


@pytest.mark.parametrize("p", [7, 101, 32003])
def test_frobenius_table_matches_power(p):
    """c.frobenius() is c ** p, by repeated squaring, on random elements
    of extensions of degree 2 to 6 (random squarefree moduli)."""
    rng = random.Random(p)
    base = PrimeField(p)
    for n in range(2, 7):
        while True:
            modulus = [rng.randrange(p) for _ in range(n)] + [1]
            try:
                field = ExtensionField(base, modulus, "w")
                break
            except InvalidInputError:
                continue
        for _ in range(10):
            c = ExtElement([rng.randrange(p) for _ in range(n)], field)
            assert c.frobenius() == c ** p
        assert field.zero.frobenius() == field.zero


def test_frobenius_needs_a_prime_characteristic():
    field = ExtensionField(QQ, [-2, 0, 1], "w")
    with pytest.raises(InvalidInputError):
        field.gen.frobenius()

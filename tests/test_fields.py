import random

import pytest
import sympy
from fractions import Fraction

from curveint.errors import InvalidInputError, UnsupportedExtensionError
from curveint.fields import (QQ, ExtElement, ExtensionField, PrimeField,
                             is_prime, pth_root_scalar)


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
    with pytest.raises(InvalidInputError):
        ExtensionField(QQ, [1, 2, 1])  # (z+1)^2


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

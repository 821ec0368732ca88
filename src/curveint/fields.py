"""Exact coefficient fields: Q, prime fields F_p, and one-step extensions.

Rationals are plain ``fractions.Fraction`` (always in lowest terms with
positive denominator).  F_p elements and extension elements are small
immutable wrappers with full operator overloading, so polynomial code is
generic over the coefficient domain.

An extension K[z]/(m) is built over Q or over F_p; m must be squarefree.
Its elements compute on Python ints: a vector of numerators over one
common denominator (Q) or of residues (F_p), normalised once per result.
One function reduces an int vector mod m, for the constructor, products
and the product codec alike.  Over F_p, reduction, inverses and the
squarefree check of m run on ``factor``'s dense arithmetic mod p; over Q
they are long division and a cross-multiplying extended Euclid here.
All arithmetic is exact; division by zero raises ZeroDivisionError.

Every field also encodes whole lists of elements as Python ints for
polynomial products (``Field.product_codec``): a product sums plain int
products per output coefficient and normalises each sum once.  A truncated
series (``curveint.series``) keeps its coefficients in the same int
encodings between operations, residues over F_p and numerators over one
common denominator over Q, and builds an ``FpElement`` or a ``Fraction``
only when a caller reads a coefficient; over K[z]/(m) its coefficients are
the elements, and its products go through ``product_codec``.
Exact polynomial division reads its remainder through
``Field.division_codec`` the same way: plain ints over Q and F_p, one
normalisation per remainder coefficient it reads (extension elements go
in as they are).  An extension of Q built from an irreducible factor
(``algebra.roots_univariate``) finds once a prime q and a root of m mod q
(``root_mod_q``), the map onto F_q of the separability proof mod q;
other extensions of Q have no such map.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import InvalidInputError, UnsupportedExtensionError
from .factor import (PRIMES_QW, _gcd, _monic, _over_lcm, _rem, _xgcd,
                     is_prime, root_mod_p)


def binary_power(base, n: int):
    """base ** n for n >= 1 by repeated squaring, with no square past the
    top bit of n: the one loop behind the powers of polynomials, series
    and extension elements."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


class Field:
    """Common interface: element construction and a few structural queries."""

    characteristic = 0

    def of(self, value):
        """Coerce an int, Fraction, or own element into this field."""
        raise NotImplementedError

    # Elements are immutable, so one zero and one one serve the whole field.
    @cached_property
    def zero(self):
        return self.of(0)

    @cached_property
    def one(self):
        return self.of(1)

    def is_element(self, value) -> bool:
        raise NotImplementedError

    def product_codec(self, a, b):
        """Integer encodings of two nonempty lists of nonzero elements, for
        products with delayed reduction: ``(ai, bi, decode)``.

        ``ai[i] * bi[j]`` encodes ``a[i] * b[j]``, and any sum of at most
        ``min(len(a), len(b))`` such products is exact.  ``decode`` maps a
        dict of such sums to the field elements they encode, normalising
        once per entry and dropping the entries that are zero."""
        raise NotImplementedError

    def division_codec(self, a, d):
        """Encodings for the exact division of a polynomial with the
        nonzero coefficients ``a`` by one with the nonzero coefficients
        ``d``, leading coefficient first: ``(ai, di, take, decode)``.

        The remainder starts as ``ai``; a quotient term ``q`` adds
        ``q * di[j]`` (the negated ``d[j + 1]``) to its entries, as plain
        sums.  ``take`` reads one such sum: the quotient term that cancels
        it, falsy when the sum encodes zero.  ``decode`` maps a dict of
        quotient terms to the field elements they encode."""
        raise NotImplementedError


class RationalField(Field):
    characteristic = 0
    name = "Q"

    def of(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise InvalidInputError(f"cannot coerce {value!r} into Q")

    def is_element(self, value):
        return isinstance(value, (Fraction, int)) and not isinstance(value, bool)

    def product_codec(self, a, b):
        # numerators over one common denominator per operand
        (ai, da), (bi, db) = _over_lcm(a), _over_lcm(b)
        den = da * db

        def decode(sums):
            if den == 1:
                return {k: Fraction(v) for k, v in sums.items() if v}
            return {k: Fraction(v, den) for k, v in sums.items() if v}
        return ai, bi, decode

    def division_codec(self, a, d):
        # The dividend as integers A = da * a and the divisor as a
        # primitive integer polynomial D = (dd / g) * d.  By Gauss's lemma
        # an exact quotient A / D has integer coefficients, so each of its
        # terms is one exact integer division by D's lead; one that leaves
        # a remainder proves the division inexact.  The quotient a / d is
        # (A / D) * dd / (da * g).
        (ai, da), (dn, dd) = _over_lcm(a), _over_lcm(d)
        g = gcd(*dn)
        lead = dn[0] // g

        def take(v):
            q, r = divmod(v, lead)
            if r:
                raise InvalidInputError("division is not exact")
            return q
        scale = Fraction(dd, da * g)
        num, den = scale.numerator, scale.denominator

        def decode(quotient):
            if den == 1:
                return {k: Fraction(v * num) for k, v in quotient.items()}
            return {k: Fraction(v * num, den) for k, v in quotient.items()}
        return ai, [-x // g for x in dn[1:]], take, decode

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class FpElement:
    """Residue in [0, p).  Supports mixed arithmetic with ints."""

    __slots__ = ("val", "field")

    def __init__(self, val: int, field: "PrimeField"):
        self.val = val % field.p
        self.field = field

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise InvalidInputError("mixed prime fields")
            return other.val
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val + v, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val - v, self.field)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.val, self.field)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val * v, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.val * pow(v, -1, self.field.p), self.field)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(v * pow(self.val, -1, self.field.p), self.field)

    def __pow__(self, n: int):
        if n < 0:
            if self.val == 0:
                raise ZeroDivisionError("inverse of zero in F_p")
            return FpElement(pow(pow(self.val, -1, self.field.p), -n, self.field.p), self.field)
        return FpElement(pow(self.val, n, self.field.p), self.field)

    def __neg__(self):
        return FpElement(-self.val, self.field)

    def __eq__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self.val == v

    def __hash__(self):
        return hash((self.field.p, self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"

    def of(self, value):
        if isinstance(value, FpElement):
            if value.field.p != self.p:
                raise InvalidInputError("mixed prime fields")
            return value
        if isinstance(value, int):
            return FpElement(value, self)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return FpElement(value.numerator, self) / value.denominator
        raise InvalidInputError(f"cannot coerce {value!r} into F_{self.p}")

    def is_element(self, value):
        return isinstance(value, FpElement) and value.field.p == self.p

    def product_codec(self, a, b):
        p = self.p

        def decode(sums):
            out = {}
            for k, v in sums.items():
                v %= p
                if v:
                    out[k] = FpElement(v, self)
            return out
        return [c.val for c in a], [c.val for c in b], decode

    def division_codec(self, a, d):
        # residues, reduced once per remainder coefficient read
        p = self.p
        inv = pow(d[0].val, -1, p)

        def take(v):
            return v % p * inv % p

        def decode(quotient):
            return {k: FpElement(v, self) for k, v in quotient.items()}
        return [c.val for c in a], [p - c.val for c in d[1:]], take, decode

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


def _ext(num, den, field):
    """An element from its parts, which must already be canonical."""
    el = object.__new__(ExtElement)
    el.num = num
    el.den = den
    el.field = field
    return el


def _base_parts(v, p):
    """(num, den) of the base-field value v, already canonical in every
    extension of its field (``_ext``): ((v,), 1) over F_p, ((numerator,),
    denominator) over Q, and ((), 1) for zero."""
    if p:
        return ((v.val,) if v.val else ()), 1
    return ((v.numerator,) if v else ()), v.denominator


def _canonical(num, den, field):
    """The element num/den, with num a list of ints of length <= degree.

    Over F_p: one ``% p`` per coefficient (den is 1).  Over Q: one gcd of
    den with all numerators (den > 0).  Trailing zeros are dropped."""
    p = field.characteristic
    if p:
        num = [x % p for x in num]
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ext((), 1, field)
    if not p:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _ext(tuple(num), den, field)


class ExtElement:
    """Residue class in base[z]/(m), stored as integers: the reduced
    coefficients of 1, z, ..., z^(n-1) are ``num[k] / den``.

    Over F_p, ``num`` holds residues in [0, p) and ``den`` is 1.  Over Q,
    ``den`` > 0 and gcd(den, *num) == 1.  ``num`` has no trailing zeros and
    at most n entries.  The form is canonical: equal elements have equal
    ``num`` and ``den``."""

    __slots__ = ("num", "den", "field")

    def __init__(self, coeffs, field: "ExtensionField"):
        base = field.base
        if field.characteristic:
            num = [base.of(c).val for c in coeffs]
            den = 1
        else:
            num, den = _over_lcm([base.of(c) for c in coeffs])
        el = _reduce(num, den, field)
        self.num, self.den, self.field = el.num, el.den, field

    @property
    def coeffs(self):
        """The reduced coefficients as base-field elements (built per call)."""
        base = self.field.base
        if self.field.characteristic:
            return tuple(FpElement(x, base) for x in self.num)
        return tuple(Fraction(x, self.den) for x in self.num)

    def _lift(self, other):
        """(num, den) of an operand of this field, or None if foreign."""
        if isinstance(other, ExtElement):
            if other.field is not self.field and other.field != self.field:
                raise InvalidInputError("mixed extension fields")
            return other.num, other.den
        base = self.field.base
        if base.is_element(other) or isinstance(other, int):
            return _base_parts(base.of(other), self.field.characteristic)
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return _add(self.num, self.den, v[0], v[1], self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return _add(self.num, self.den, [-y for y in v[0]], v[1], self.field)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return _add([-x for x in self.num], self.den, v[0], v[1], self.field)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        a = self.num
        b, bden = v
        field = self.field
        if not a or not b:
            return _ext((), 1, field)
        den = self.den * bden
        if len(b) == 1:
            c = b[0]
            return _canonical([x * c for x in a], den, field)
        prod = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    prod[i + j] += ca * cb
        return _reduce(prod, den, field)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero in extension field")
        field = self.field
        p = field.characteristic
        mod = field.int_modulus[0]
        g, s = _xgcd(self.num, mod, p) if p else _ext_gcd(self.num, mod)
        if len(g) != 1:
            # m squarefree but reducible: the residue ring has zero divisors
            raise ZeroDivisionError(
                "element is a zero divisor (reducible modulus); cannot invert")
        if p:  # s * num = 1 mod m, s reduced
            return _ext(tuple(s), 1, field)
        # s * num = g mod m, so 1 / (num/den) = s * den / g
        c = g[0]
        if c < 0:
            c, s = -c, [-x for x in s]
        return _canonical([x * self.den for x in s], c, field)

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self * _ext(v[0], v[1], self.field).inverse()

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return _ext(v[0], v[1], self.field) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n) if n else self.field.one

    def frobenius(self):
        """self ** p over F_p[z]/(m): c ** p = sum c_i z^(p*i), since the
        Frobenius fixes F_p and is additive, so it is one pass over the
        field's ``frobenius_table``."""
        field = self.field
        out = [0] * field.degree
        for c, row in zip(self.num, field.frobenius_table):
            if c:
                for k, r in enumerate(row):
                    out[k] += c * r
        return _canonical(out, 1, field)

    def __neg__(self):
        p = self.field.characteristic
        if p:
            return _ext(tuple(-x % p for x in self.num), 1, self.field)
        return _ext(tuple(-x for x in self.num), self.den, self.field)

    def __eq__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self.num == v[0] and self.den == v[1]

    def __hash__(self):
        return hash((self.field.gen_name, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if not self.num:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            z = self.field.gen_name
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{z}")
            else:
                parts.append(f"{c}*{z}^{k}")
        return " + ".join(parts)


def _reduce(num, den, field):
    """The element num/den for an int list num of any length, which it
    consumes.  Over F_p (den 1) it is ``factor._rem`` by m, whose result
    is already canonical.

    Over Q: long division by ``int_modulus``, which is m times its integer
    lead ``scale``, top coefficient first, then one ``_canonical``.  With
    scale > 1, num and den are first multiplied by scale**steps, so each
    step divides its top coefficient by scale exactly."""
    mod, scale = field.int_modulus
    if field.characteristic:
        return _ext(tuple(_rem(num, mod, field.characteristic)), 1, field)
    n = field.degree
    steps = len(num) - n
    if steps > 0 and scale != 1:
        s = scale ** steps
        num = [x * s for x in num]
        den *= s
    for _ in range(steps):
        c = num.pop()
        if scale != 1:
            c //= scale
        if c:
            # the popped top term is c * z^(k-n) * (scale * z^n), with
            # k = len(num); scale * z^n = -(mod[0] + ... z^(n-1)) mod m
            num[-n:] = [x - c * r for x, r in zip(num[-n:], mod)]
    return _canonical(num, den, field)


def _pack(num, width):
    """The integer vector num evaluated at 2^width (Kronecker substitution):
    one slot of ``width`` bits per entry, lowest first; entries may be
    negative."""
    v = 0
    for x in reversed(num):
        v = (v << width) + x
    return v


def _add(a, aden, b, bden, field):
    """a/aden + b/bden for integer coefficient sequences."""
    if aden != bden:
        g = gcd(aden, bden)
        sa, sb = bden // g, aden // g
        a = [x * sa for x in a]
        b = [y * sb for y in b]
        aden *= sa
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _canonical(out, aden, field)


def _ext_gcd(a, m):
    """(g, s) with s*a = g mod m over Q, for integer coefficient lists
    (ascending, no trailing zeros) with len(m) > len(a): g is the last
    nonzero remainder of Euclid's algorithm, up to a scalar factor.

    Each step cancels a top coefficient by cross-multiplication, so no
    division is needed, and every remainder is divided, together with its
    cofactor, by their common content, which keeps the integers small."""
    r0, r1 = list(m), list(a)
    s0, s1 = [], [1]
    while r1:
        lead, n1 = r1[-1], len(r1)
        while len(r0) >= n1:
            c = r0.pop()
            k = len(r0) - n1 + 1
            # r0 <- lead*r0 - c*z^k*r1 and s0 <- lead*s0 - c*z^k*s1
            r0 = [lead * x for x in r0]
            for i, y in enumerate(r1[:-1]):
                r0[k + i] -= c * y
            s0 = [lead * x for x in s0] + [0] * (k + len(s1) - len(s0))
            for i, y in enumerate(s1):
                s0[k + i] -= c * y
            while r0 and not r0[-1]:
                r0.pop()
            while s0 and not s0[-1]:
                s0.pop()
        g = gcd(*r0, *s0)
        if g > 1:
            r0 = [x // g for x in r0]
            s0 = [x // g for x in s0]
        r0, r1, s0, s1 = r1, r0, s1, s0
    return r0, s0


class ExtensionField(Field):
    """K[z]/(m) for K = Q or F_p; m squarefree of degree >= 1.

    Arithmetic is field arithmetic whenever m is irreducible; with a merely
    squarefree reducible m, inversion of a zero divisor raises.
    """

    # True once m is known irreducible: ``algebra.roots_univariate`` sets
    # it on the fields it builds from irreducible factors.
    _irreducible = False

    def __init__(self, base: Field, modulus, gen_name: str = "z"):
        if isinstance(base, ExtensionField):
            raise UnsupportedExtensionError("only one extension step is supported")
        self.base = base
        mod = [base.of(c) for c in modulus]
        while mod and not mod[-1]:
            mod.pop()
        if len(mod) < 2:
            raise InvalidInputError("extension modulus must have degree >= 1")
        lead = mod[-1]
        self.modulus = tuple(c / lead for c in mod)
        self.degree = len(mod) - 1
        self.characteristic = p = base.characteristic
        # squarefreeness: gcd(m, m') = 1 (over Q, m' has no trailing zero)
        ints = self.int_modulus[0]
        deriv = [k * c for k, c in enumerate(ints)][1:]
        if len(_gcd(deriv, ints, p) if p else _ext_gcd(deriv, ints)[0]) != 1:
            raise InvalidInputError("extension modulus must be squarefree")
        self.gen_name = gen_name
        self.name = f"{base.name}[{gen_name}]"

    def of(self, value):
        if isinstance(value, ExtElement) and (value.field is self
                                              or value.field == self):
            return value
        if isinstance(value, int) or self.base.is_element(value):
            return _ext(*_base_parts(self.base.of(value), self.characteristic),
                        self)
        raise InvalidInputError(f"cannot coerce {value!r} into {self.name}")

    def product_codec(self, a, b):
        # Each element's numerator vector is packed into one int, one slot
        # per power of z, wide enough for any sum of min(len(a), len(b))
        # slot products; over Q the numerators share one denominator per
        # operand and the slots are signed.
        p = self.characteristic
        na = max(len(c.num) for c in a)
        nb = max(len(c.num) for c in b)
        pairs = min(len(a), len(b)) * min(na, nb)
        if p:
            width = (pairs * (p - 1) ** 2).bit_length()
            ai = [_pack(c.num, width) for c in a]
            bi = [_pack(c.num, width) for c in b]
            den = 1
        else:
            da = lcm(*(c.den for c in a))
            db = lcm(*(c.den for c in b))
            anum = [[x * (da // c.den) for x in c.num] for c in a]
            bnum = [[x * (db // c.den) for x in c.num] for c in b]
            amax = max(abs(x) for num in anum for x in num)
            bmax = max(abs(x) for num in bnum for x in num)
            width = (pairs * amax * bmax).bit_length() + 1
            ai = [_pack(num, width) for num in anum]
            bi = [_pack(num, width) for num in bnum]
            den = da * db
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        base = 1 << width

        def decode(sums):
            out = {}
            for k, v in sums.items():
                prod = []
                while v:
                    x = v & mask
                    v >>= width
                    if not p and x >= half:
                        x -= base
                        v += 1
                    prod.append(x)
                if prod:
                    el = _reduce(prod, den, self)
                    if el.num:
                        out[k] = el
            return out
        return ai, bi, decode

    def division_codec(self, a, d):
        # Field elements as they are: the divisors met here have two or
        # three terms, so the time goes to making quotient terms, and
        # packing them into ints as product_codec does gained little when
        # measured.
        return list(a), [-c for c in d[1:]], (1 / d[0]).__mul__, dict

    @cached_property
    def int_modulus(self):
        """(coefficients, scale): the monic modulus times the least
        positive integer ``scale`` that clears its denominators, as ints
        (residues in [0, p) over F_p, where ``scale`` is 1); the divisor of
        every reduction mod m."""
        if self.characteristic:
            return tuple(c.val for c in self.modulus), 1
        num, scale = _over_lcm(self.modulus)
        return tuple(num), scale

    @cached_property
    def frobenius_table(self):
        """Rows z^(p*i) mod m for i < deg m, as residue tuples (over F_p
        only): the matrix of the Frobenius, built once per field."""
        p = self.characteristic
        if not p:
            raise InvalidInputError("the Frobenius needs a prime characteristic")
        zp = self.gen ** p
        rows, row = [], self.one
        for _ in range(self.degree):
            rows.append(row.num)
            row = row * zp
        return rows

    @cached_property
    def root_mod_q(self):
        """(q, r) for the first q of ``factor.PRIMES_QW`` with q not
        dividing the lead of ``int_modulus`` and m squarefree mod q, and a
        root r of m mod q: w -> r maps the elements with denominators
        prime to q onto F_q.  None over F_p, when ``_irreducible`` is not
        set (no proof is run: over a reducible m a root mod q sees one
        factor of the ring only) and when no listed prime has a root.
        Built once per field."""
        if self.characteristic or not self._irreducible:
            return None
        rng = random.Random(0)
        mod, scale = self.int_modulus
        for q in PRIMES_QW:
            if scale % q:
                m = _monic([c % q for c in mod], q)
                r = root_mod_p(m, q, rng)
                dm = [k * c % q for k, c in enumerate(m)][1:]
                if r is not None and len(_gcd(m, dm, q)) == 1:
                    return q, r
        return None

    @property
    def gen(self):
        return ExtElement((self.base.zero, self.base.one), self)

    def is_element(self, value):
        return isinstance(value, ExtElement) and value.field == self

    def __repr__(self):
        mod = ", ".join(str(c) for c in self.modulus)
        return f"{self.base!r}[{self.gen_name}]/({mod})"

    def __eq__(self, other):
        return (isinstance(other, ExtensionField)
                and other.base == self.base
                and other.modulus == self.modulus
                and other.gen_name == self.gen_name)

    def __hash__(self):
        return hash(("ext", self.base, self.modulus, self.gen_name))


def pth_root_scalar(c, field):
    """Inverse Frobenius: the unique a with a^p = c.

    In F_p this is c itself; in F_{p^k} it is c^(p^(k-1)).  Requires an
    irreducible modulus (a genuine field).
    """
    p = field.characteristic
    if p == 0:
        raise InvalidInputError("p-th roots only exist in characteristic p")
    if isinstance(field, PrimeField):
        return c
    return c ** (p ** (field.degree - 1))

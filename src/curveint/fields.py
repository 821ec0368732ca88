"""Exact coefficient fields: Q, prime fields F_p, and one-step extensions.

Rationals are plain ``fractions.Fraction`` (always in lowest terms with
positive denominator).  F_p elements and extension elements are small
immutable wrappers with full operator overloading, so polynomial and
series code is generic over the coefficient domain.

An extension K[z]/(m) is built over Q or over F_p; m must be squarefree.
All arithmetic is exact; division by zero raises ZeroDivisionError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import InvalidInputError, UnsupportedExtensionError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


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

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a, b, zero):
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _poly_trim(out)


def _poly_divmod(a, b, zero):
    # coefficient lists over a field, ascending order
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [zero] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        a = list(_poly_trim(a))
        if len(a) < len(b):
            break
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = q[k] + c
        for i, cb in enumerate(b):
            a[k + i] = a[k + i] - c * cb
        a = a[:-1]
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a, b, zero):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        _, r = _poly_divmod(a, b, zero)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def _poly_ext_gcd(a, b, zero, one):
    # returns (g, u, v) with u*a + v*b = g, coefficients ascending
    r0, r1 = _poly_trim(a), _poly_trim(b)
    s0, s1 = (one,), ()
    t0, t1 = (), (one,)
    while r1:
        q, r = _poly_divmod(r0, r1, zero)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x - y for x, y in _zip_pad(s0, _poly_mul(q, s1, zero), zero)])
        t0, t1 = t1, _poly_trim([x - y for x, y in _zip_pad(t0, _poly_mul(q, t1, zero), zero)])
    return r0, s0, t0


def _zip_pad(a, b, zero):
    n = max(len(a), len(b))
    a = list(a) + [zero] * (n - len(a))
    b = list(b) + [zero] * (n - len(b))
    return zip(a, b)


class ExtElement:
    """Residue class in base[z]/(m), stored as a reduced coefficient tuple."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field: "ExtensionField"):
        self.coeffs = _poly_trim(coeffs)
        if len(self.coeffs) > field.degree:
            _, self.coeffs = _poly_divmod(self.coeffs, field.modulus, field.base.zero)
        self.field = field

    def _lift(self, other):
        if isinstance(other, ExtElement):
            if other.field is not self.field and other.field != self.field:
                raise InvalidInputError("mixed extension fields")
            return other.coeffs
        if self.field.base.is_element(other) or isinstance(other, int):
            v = self.field.base.of(other)
            return (v,) if v else ()
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        zero = self.field.base.zero
        return ExtElement([x + y for x, y in _zip_pad(self.coeffs, v, zero)], self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        zero = self.field.base.zero
        return ExtElement([x - y for x, y in _zip_pad(self.coeffs, v, zero)], self.field)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        zero = self.field.base.zero
        return ExtElement([y - x for x, y in _zip_pad(self.coeffs, v, zero)], self.field)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        a = self.coeffs
        field = self.field
        if not a or not v:
            return ExtElement((), field)
        zero = field.base.zero
        prod = [zero] * (len(a) + len(v) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(v):
                if cb:
                    prod[i + j] = prod[i + j] + ca * cb
        n = field.degree
        if len(prod) > n:
            # fold w^k (n <= k <= 2n-2) back in through its reduced row
            low = prod[:n]
            for row, c in zip(field.reduction_table, prod[n:]):
                if not c:
                    continue
                for i, r in enumerate(row):
                    if r:
                        low[i] = low[i] + c * r
            prod = low
        return ExtElement(prod, field)

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero in extension field")
        base = self.field.base
        g, u, _ = _poly_ext_gcd(self.coeffs, self.field.modulus, base.zero, base.one)
        if len(g) != 1:
            # m squarefree but reducible: the residue ring has zero divisors
            raise ZeroDivisionError(
                "element is a zero divisor (reducible modulus); cannot invert")
        c = g[0]
        return ExtElement([x / c for x in u], self.field)

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self * ExtElement(v, self.field).inverse()

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ExtElement(v, self.field) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __neg__(self):
        return ExtElement([-x for x in self.coeffs], self.field)

    def __eq__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return self.coeffs == v

    def __hash__(self):
        return hash((self.field.gen_name, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
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


class ExtensionField(Field):
    """K[z]/(m) for K = Q or F_p; m squarefree of degree >= 1.

    Arithmetic is field arithmetic whenever m is irreducible; with a merely
    squarefree reducible m, inversion of a zero divisor raises.
    """

    def __init__(self, base: Field, modulus, gen_name: str = "z"):
        if isinstance(base, ExtensionField):
            raise UnsupportedExtensionError("only one extension step is supported")
        self.base = base
        mod = _poly_trim([base.of(c) for c in modulus])
        if len(mod) < 2:
            raise InvalidInputError("extension modulus must have degree >= 1")
        lead = mod[-1]
        mod = tuple(c / lead for c in mod)
        # squarefreeness: gcd(m, m') = 1
        deriv = _poly_trim([mod[k] * k for k in range(1, len(mod))])
        g = _poly_gcd(mod, deriv, base.zero)
        if len(g) != 1:
            raise InvalidInputError("extension modulus must be squarefree")
        self.modulus = mod
        self.degree = len(mod) - 1
        self.gen_name = gen_name
        self.characteristic = base.characteristic
        self.name = f"{base.name}[{gen_name}]"

    def of(self, value):
        if isinstance(value, ExtElement) and (value.field is self
                                              or value.field == self):
            return value
        if isinstance(value, int) or self.base.is_element(value):
            v = self.base.of(value)
            return ExtElement((v,) if v else (), self)
        raise InvalidInputError(f"cannot coerce {value!r} into {self.name}")

    @cached_property
    def reduction_table(self):
        """Rows ``w^n, ..., w^(2n-2) mod m`` (n = degree) as length-n tuples.

        A product of two reduced elements has degree at most 2n-2; adding
        c_k times row k-n for each k >= n reduces it.  Built on first use
        and kept for the life of this field."""
        n = self.degree
        zero = self.base.zero
        # w^n = -(m_0 + m_1 w + ... + m_(n-1) w^(n-1)), m monic
        row = [-c for c in self.modulus[:n]]
        table = [tuple(row)]
        for _ in range(n - 2):
            top = row[-1]
            row = [zero] + row[:-1]
            if top:
                row = [x + top * r for x, r in zip(row, table[0])]
            table.append(tuple(row))
        return table

    def embed(self, base_value):
        """Image of a base-field element under the canonical inclusion."""
        return self.of(base_value)

    @property
    def gen(self):
        return ExtElement((self.base.zero, self.base.one), self)

    def is_element(self, value):
        return isinstance(value, ExtElement) and value.field == self

    def frobenius_order(self):
        """k with field size p^k, for extensions of prime fields."""
        if self.characteristic == 0:
            raise InvalidInputError("no Frobenius over characteristic zero")
        return self.degree

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
    k = field.frobenius_order()
    return c ** (p ** (k - 1))

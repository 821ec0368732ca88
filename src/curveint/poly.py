"""Sparse multivariate polynomials over an exact field.

Terms live in a dict from exponent tuples to nonzero coefficients; the
zero polynomial has an empty term map.  Values are immutable once built;
every operation returns a fresh polynomial.  Printing uses graded
lexicographic order on the declared variable list.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import add

from .errors import InvalidInputError
from .fields import Field, _pack, binary_power


def _poly(field, variables, terms):
    """A polynomial from terms that are already clean: exponent tuples of
    ints of the right length, nonzero coefficients of ``field``."""
    p = object.__new__(MultiPoly)
    p.field = field
    p.vars = variables
    p.terms = terms
    p._hash = None
    return p


def _exponent_codec(top, nvars):
    """(pack, unpack, width) for exponent vectors of ``nvars`` entries at
    most ``top``: ``fields._pack`` with one slot of ``width`` =
    top.bit_length() bits per variable, the first variable lowest.  Keys
    compare in lex order from the last variable, a monomial order, and
    while every entry stays at most ``top`` the key of a product of
    monomials is the sum of their keys; ``unpack`` reads the slots back
    with shifts and masks."""
    width = max(1, top.bit_length())
    mask = (1 << width) - 1
    shifts = range(0, width * nvars, width)

    def unpack(key):
        return tuple(key >> s & mask for s in shifts)
    return partial(_pack, width=width), unpack, width


class MultiPoly:
    __slots__ = ("field", "vars", "terms", "_hash")

    def __init__(self, field: Field, variables, terms=None):
        self.field = field
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != len(self.vars):
                    raise InvalidInputError("exponent vector length mismatch")
                c = field.of(c)
                if c:
                    clean[tuple(int(e) for e in exps)] = c
        self.terms = clean
        self._hash = None

    # ---------------------------------------------------------------- build
    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def const(cls, field, variables, value):
        variables = tuple(variables)
        value = field.of(value)
        return _poly(field, variables,
                     {(0,) * len(variables): value} if value else {})

    @classmethod
    def var(cls, field, variables, name, power=1):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = power
        return _poly(field, variables, {tuple(exps): field.one})

    def clone(self, terms):
        return MultiPoly(self.field, self.vars, terms)

    # ------------------------------------------------------------ structure
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        zero_key = (0,) * len(self.vars)
        return self.terms.get(zero_key, self.field.zero)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coeff_of(self, name, power):
        """Coefficient of name**power, as a polynomial in the same variables."""
        i = self.vars.index(name)
        return _poly(self.field, self.vars,
                     {exps[:i] + (0,) + exps[i + 1:]: c
                      for exps, c in self.terms.items() if exps[i] == power})

    def coeffs_in(self, name):
        """Dense ascending coefficient list with respect to one variable."""
        d = self.degree_in(name)
        return [self.coeff_of(name, k) for k in range(d + 1)]

    def leading_coeff_in(self, name):
        d = self.degree_in(name)
        if d < 0:
            return self.clone({})
        return self.coeff_of(name, d)

    def involves(self, name):
        return self.degree_in(name) > 0

    def leading_term_key(self):
        """Graded-lex maximal exponent vector."""
        return max(self.terms, key=lambda e: (sum(e), e))

    def leading_coefficient(self):
        if not self.terms:
            return self.field.zero
        return self.terms[self.leading_term_key()]

    # ------------------------------------------------------------ arithmetic
    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise InvalidInputError("variable lists differ")
            if other.field is not self.field and other.field != self.field:
                raise InvalidInputError("coefficient fields differ")
            return other
        return MultiPoly.const(self.field, self.vars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        zero = self.field.zero
        for exps, c in other.terms.items():
            s = out.get(exps, zero) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return _poly(self.field, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.field, self.vars,
                     {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """Product with delayed reduction: the term pairs add plain int
        products per output exponent (``Field.product_codec``), keyed by
        exponent vectors packed with ``_exponent_codec`` in slots wide
        enough for the sum of any two exponents, so a product's key is the
        sum of its factors' keys; each output coefficient is normalised
        once.  A one-term operand shifts the other's keys and scales its
        coefficients instead, dropping the products that are zero (a
        reducible modulus has zero divisors)."""
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return _poly(self.field, self.vars, {})
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            [(eb, cb)] = b.items()
            return _poly(self.field, self.vars, {
                tuple(map(add, e, eb)): p
                for e, c in a.items() if (p := c * cb)})
        ai, bi, decode = self.field.product_codec(list(a.values()),
                                                  list(b.values()))
        pack, unpack, _ = _exponent_codec(
            max(chain.from_iterable(a), default=0)
            + max(chain.from_iterable(b), default=0), len(self.vars))
        bterms = list(zip(map(pack, b), bi))
        sums = {}
        for ka, x in zip(map(pack, a), ai):
            for kb, y in bterms:
                k = ka + kb
                sums[k] = sums.get(k, 0) + x * y
        return _poly(self.field, self.vars,
                     {unpack(k): c for k, c in decode(sums).items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InvalidInputError("negative polynomial power")
        if n == 0:
            return MultiPoly.const(self.field, self.vars, 1)
        return binary_power(self, n)

    def scale(self, c):
        c = self.field.of(c)
        return _poly(self.field, self.vars,
                     {e: p for e, v in self.terms.items() if (p := v * c)})

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, int):
            return self.is_constant() and self.constant_value() == self.field.of(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # ------------------------------------------------------------- calculus
    def derivative(self, name):
        i = self.vars.index(name)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            nc = c * e
            if not nc:
                continue  # exponent divisible by the characteristic
            # distinct terms keep distinct keys
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = nc
        return _poly(self.field, self.vars, out)

    # ----------------------------------------------------------- evaluation
    def subs_values(self, assignment):
        """Substitute field elements for a subset of variables.  Each value
        keeps one list of its powers, extended as the terms need them."""
        idx = {self.vars.index(v): [self.field.one, self.field.of(val)]
               for v, val in assignment.items()}
        out = {}
        zero = self.field.zero
        for exps, c in self.terms.items():
            term = c
            for i, powers in idx.items():
                e = exps[i]
                if e:
                    while len(powers) <= e:
                        powers.append(powers[-1] * powers[1])
                    term = term * powers[e]
            if not term:
                continue
            key = tuple(0 if i in idx else e for i, e in enumerate(exps))
            s = out.get(key, zero) + term
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _poly(self.field, self.vars, out)

    # -------------------------------------------------------- recoordinate
    def map_coefficients(self, new_field, fn):
        return MultiPoly(new_field, self.vars,
                         {e: fn(c) for e, c in self.terms.items()})

    def rename_vars(self, new_variables):
        if len(new_variables) != len(self.vars):
            raise InvalidInputError("variable count mismatch")
        return MultiPoly(self.field, new_variables, dict(self.terms))

    def extend_vars(self, new_variables):
        """Re-express in a superset variable list (new vars get exponent 0)."""
        new_variables = tuple(new_variables)
        positions = [new_variables.index(v) for v in self.vars]
        out = {}
        for exps, c in self.terms.items():
            key = [0] * len(new_variables)
            for pos, e in zip(positions, exps):
                key[pos] = e
            out[tuple(key)] = c
        return MultiPoly(self.field, new_variables, out)

    def drop_vars(self, names):
        """Remove variables the polynomial does not involve."""
        drop = set(names)
        for n in drop:
            if self.degree_in(n) > 0:
                raise InvalidInputError(f"polynomial involves {n}")
        keep = [i for i, v in enumerate(self.vars) if v not in drop]
        return MultiPoly(self.field, tuple(self.vars[i] for i in keep),
                         {tuple(e[i] for i in keep): c for e, c in self.terms.items()})

    # -------------------------------------------------------------- division
    def exact_divide(self, divisor: "MultiPoly"):
        """Quotient self / divisor; raises ``InvalidInputError`` if the
        division is not exact.

        A constant divisor scales each coefficient by its inverse (by 1 it
        returns self).  Otherwise one sparse pass of long division in the
        monomial order of ``_exponent_codec``'s keys (lex from the last
        variable), with one slot per variable wide enough for self's top
        exponent: within the degree box of self a key's difference is an
        exponent difference.  Any monomial order serves, since the exact
        quotient is unique.  The remainder is a dict of sums
        (``Field.division_codec``: plain ints over Q and F_p) whose keys at
        or above the divisor's lead come off a max-heap, each read once.
        "Not exact" is decided in three places: a divisor degree above
        self's in some variable, before the pass; a quotient term outside
        the quotient's degree box (or, over Q, not integral), when it is
        made; a nonzero remainder below the lead, at the end."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            c = divisor.constant_value()
            return self if c == self.field.one else self.scale(1 / c)
        if self.is_zero():
            return self.clone({})
        a, d = self.terms, divisor.terms
        top = [max(col) for col in zip(*a)]
        room = [t - max(col) for t, col in zip(top, zip(*d))]
        if min(room) < 0:  # nor would the divisor's keys pack into the box
            raise InvalidInputError("division is not exact")
        pack, unpack, _ = _exponent_codec(max(top), len(top))
        dkeys = sorted(d, key=pack, reverse=True)
        ai, di, take, decode = self.field.division_codec(
            list(a.values()), [d[e] for e in dkeys])
        lead = pack(dkeys[0])
        tail = list(zip(map(pack, dkeys[1:]), di))
        rem = dict(zip(map(pack, a), ai))
        heap = [-k for k in rem if k >= lead]
        heapify(heap)
        out = {}
        while heap:
            k = -heappop(heap)
            c = take(rem.pop(k))
            if not c:
                continue
            k -= lead
            # Slots within the quotient's box are the exponent differences
            # themselves: with the lead's exponents added they stay in the
            # box and pack to the key just read.  A difference below 0
            # borrows, and the lowest slot that borrows holds at least
            # 2^width - (the lead's exponent there), past the box.
            exps = unpack(k)
            if any(e > r for e, r in zip(exps, room)):
                raise InvalidInputError("division is not exact")
            out[exps] = c
            for kd, cd in tail:
                kk = k + kd
                if kk in rem:
                    rem[kk] += c * cd
                else:
                    rem[kk] = c * cd
                    if kk >= lead:
                        heappush(heap, -kk)
        if any(take(c) for c in rem.values()):
            raise InvalidInputError("division is not exact")
        return _poly(self.field, self.vars, decode(out))

    # -------------------------------------------------------------- printing
    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        parts = []
        for exps in keys:
            c = self.terms[exps]
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            cs = str(c)
            if not factors:
                body = cs
            elif cs == "1":
                body = "*".join(factors)
            elif cs == "-1":
                body = "-" + "*".join(factors)
            else:
                if ("+" in cs[1:]) or ("-" in cs[1:]) or (" " in cs):
                    cs = f"({cs})"
                body = cs + "*" + "*".join(factors)
            parts.append(body)
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    def __repr__(self):
        return f"MultiPoly({self})"

"""Truncated power series in the one infinitesimal parameter t.

A series holds coefficients indexed by exponents k/r (ramification index r)
strictly below its precision, the first unknown exponent.  Exponents may be
negative (quotients of series produce them); a series with all known
coefficients zero is only "zero to precision" and its valuation is reported
as None, never as a number.  Constants and polynomials embed with infinite
precision.

All values are immutable; operations return fresh series and never claim
coefficients at or beyond the stated precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInputError, NotAUnitError, NotSpecializableError
from .fields import binary_power
from .poly import MultiPoly

INF = math.inf


def _cutoff(prec, ram: int):
    """Least index k with k/ram >= prec: a series keeps exactly the indices
    below it.  A stored precision is a Fraction or the float INF, so the
    type tells them apart, and the ceiling is taken on integers."""
    if prec.__class__ is float:
        return INF
    return -(-prec.numerator * ram // prec.denominator)


def _precision(prec):
    """A precision as a series stores it: a Fraction, or INF."""
    if prec.__class__ is Fraction:
        return prec
    return INF if prec == INF else Fraction(prec)


def _series(field, coeffs, prec, ram):
    """A series from coefficients that are already clean: int indices
    below the cutoff, nonzero elements of ``field``; ``prec`` a stored
    precision (a Fraction, or INF)."""
    s = object.__new__(TruncatedSeries)
    s.field = field
    s.ram = ram
    s.prec = prec
    s.coeffs = coeffs
    return s


def positive_precision(prec) -> Fraction:
    """A requested precision as a Fraction; InvalidInputError unless it is
    positive, since nothing is known below t^0."""
    prec = Fraction(prec)
    if prec <= 0:
        raise InvalidInputError(f"precision {prec} is not positive")
    return prec


def _less(p, q):
    """p < q for stored precisions, without comparing a Fraction to INF."""
    if q.__class__ is float:
        return p.__class__ is not float
    return p.__class__ is not float and p < q


def _below(coeffs, cutoff):
    """The entries of ``coeffs`` with index below ``cutoff``."""
    return {k: c for k, c in coeffs.items() if k < cutoff}


class TruncatedSeries:
    __slots__ = ("field", "ram", "coeffs", "prec")

    def __init__(self, field, coeffs, prec, ram=1):
        self.field = field
        self.ram = int(ram)
        if self.ram < 1:
            raise InvalidInputError("ramification index must be >= 1")
        self.prec = _precision(prec)
        cutoff = _cutoff(self.prec, self.ram)
        clean = {}
        for k, c in coeffs.items():
            c = field.of(c)
            if c and k < cutoff:
                clean[int(k)] = c
        self.coeffs = clean

    # ------------------------------------------------------------- builders
    @classmethod
    def constant(cls, field, value, prec=INF):
        return cls(field, {0: field.of(value)}, prec)

    @classmethod
    def zero(cls, field, prec=INF):
        return cls(field, {}, prec)

    @classmethod
    def variable(cls, field, prec=INF):
        return cls(field, {1: field.one}, prec)

    # ------------------------------------------------------------ structure
    def with_ram(self, new_ram: int) -> "TruncatedSeries":
        if new_ram == self.ram:
            return self
        if new_ram % self.ram:
            raise InvalidInputError("new ramification must be a multiple")
        q = new_ram // self.ram
        return _series(self.field, {k * q: c for k, c in self.coeffs.items()},
                       self.prec, new_ram)

    def reduce_ram(self) -> "TruncatedSeries":
        """Smallest ramification index representing the same exponents."""
        if not self.coeffs:
            return TruncatedSeries(self.field, {}, self.prec)
        g = self.ram
        for k in self.coeffs:
            g = math.gcd(g, abs(k))
            if g == 1:
                return self
        return TruncatedSeries(self.field, {k // g: c for k, c in self.coeffs.items()},
                               self.prec, self.ram // g)

    def valuation(self):
        """Least exponent with a nonzero coefficient, or None if the series
        is zero to its precision."""
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.ram)

    def effective_valuation(self):
        v = self.valuation()
        return self.prec if v is None else v

    def is_zero_to_precision(self):
        return not self.coeffs

    def coeff_at(self, exponent) -> object:
        e = Fraction(exponent)
        if e >= self.prec:
            raise InvalidInputError("coefficient beyond stated precision")
        k = e * self.ram
        if k.denominator != 1:
            return self.field.zero
        return self.coeffs.get(int(k), self.field.zero)

    def constant_term(self):
        return self.coeff_at(0) if self.prec > 0 else self.field.zero

    def truncate(self, new_prec) -> "TruncatedSeries":
        new_prec = _precision(new_prec)
        if not _less(new_prec, self.prec):
            return self
        return _series(self.field,
                       _below(self.coeffs, _cutoff(new_prec, self.ram)),
                       new_prec, self.ram)

    # ----------------------------------------------------------- arithmetic
    def _align(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.field, other)
        r = math.lcm(self.ram, other.ram)
        return self.with_ram(r), other.with_ram(r)

    def __add__(self, other):
        a, b = self._align(other)
        prec = b.prec if _less(b.prec, a.prec) else a.prec
        cutoff = _cutoff(prec, a.ram)
        out = _below(a.coeffs, cutoff)
        zero = self.field.zero
        for k, c in b.coeffs.items():
            if k < cutoff:
                s = out.get(k, zero) + c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _series(self.field, out, prec, a.ram)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.field, {k: -c for k, c in self.coeffs.items()},
                       self.prec, self.ram)

    def __sub__(self, other):
        a, b = self._align(other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._align(other)
        return b + (-a)

    def __mul__(self, other):
        a, b = self._align(other)
        va = a.effective_valuation()
        vb = b.effective_valuation()
        prec = INF if a.prec.__class__ is float and b.prec.__class__ is float \
            else min(a.prec + vb, b.prec + va)
        if not a.coeffs or not b.coeffs:
            return _series(self.field, {}, prec, a.ram)
        cutoff = _cutoff(prec, a.ram)
        bkeys = sorted(b.coeffs)
        # delayed reduction, as in MultiPoly.__mul__
        ai, bi, decode = self.field.product_codec(
            list(a.coeffs.values()), [b.coeffs[k] for k in bkeys])
        bterms = list(zip(bkeys, bi))
        sums = {}
        for k1, x in zip(a.coeffs, ai):
            for k2, y in bterms:
                k = k1 + k2
                if k >= cutoff:
                    break  # every later pair lies past the truncation too
                sums[k] = sums.get(k, 0) + x * y
        return _series(self.field, decode(sums), prec, a.ram)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            inv = TruncatedSeries.constant(self.field, 1) / self
            return inv ** (-n)
        if n == 0:
            return TruncatedSeries.constant(self.field, 1)
        return binary_power(self, n)

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a valuation-zero series, to the same precision."""
        v = self.valuation()
        if v is None or v != 0:
            raise NotAUnitError("series is not a unit (valuation != 0)")
        if self.prec == INF and len(self.coeffs) == 1:
            return TruncatedSeries(self.field, {0: 1 / self.coeffs[0]}, INF)
        if self.prec == INF:
            raise InvalidInputError(
                "cannot invert a non-monomial exact series; truncate first")
        c0 = self.coeffs[0]
        inv0 = 1 / c0
        bound = _cutoff(self.prec, self.ram)
        out = {0: inv0}
        zero = self.field.zero
        for k in range(1, bound):
            acc = zero
            for j, cj in self.coeffs.items():
                if 0 < j <= k and (k - j) in out:
                    acc = acc + cj * out[k - j]
            val = -inv0 * acc
            if val:
                out[k] = val
        return TruncatedSeries(self.field, out, self.prec, self.ram)

    def __truediv__(self, other):
        a, b = self._align(other)
        vb = b.valuation()
        if vb is None:
            raise ZeroDivisionError("division by a series that is zero to precision")
        if vb == 0:
            return a * b.invert_unit()
        unit_part = shift_exponents(b, -vb)
        return shift_exponents(a * unit_part.invert_unit(), -vb)

    def __rtruediv__(self, other):
        a, b = self._align(other)
        return b / a

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            a, b = self._align(other)
            return a.coeffs == b.coeffs and a.prec == b.prec
        return NotImplemented

    def __hash__(self):
        s = self.reduce_ram()  # equal series agree in their reduced form
        return hash((s.ram, s.prec, frozenset(s.coeffs.items())))

    # -------------------------------------------------------------- queries
    def specialize(self):
        """Constant term; the image with the infinitesimal set to zero."""
        v = self.valuation()
        if v is not None and v < 0:
            raise NotSpecializableError(
                "negative valuation: no standard part exists")
        if self.prec <= 0:
            raise NotSpecializableError("precision too small to read t=0")
        return self.constant_term()

    # ------------------------------------------------------------- printing
    def __str__(self):
        return self.format()

    def format(self, name: str = "t", B: int = 1) -> str:
        """The series printed in ``name`` standing for t^(1/B): each
        exponent, the precision's too, prints multiplied by B."""
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            e = Fraction(k * B, self.ram)
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]) or ("*" in cs):
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                es = str(e) if e.denominator == 1 else f"({e})"
                body = f"{name}^{es}" if e != 1 else name
                if cs == "1":
                    parts.append(body)
                elif cs == "-1":
                    parts.append("-" + body)
                else:
                    parts.append(f"{cs}*{body}")
        if self.prec != INF:
            p = self.prec * B
            ps = str(p) if p.denominator == 1 else f"({p})"
            parts.append(f"O({name}^{ps})")
        if not parts:
            return "0"
        text = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return f"TruncatedSeries({self})"


def shift_exponents(s: TruncatedSeries, delta) -> TruncatedSeries:
    """Multiply by t^delta (delta may be a negative Fraction)."""
    delta = Fraction(delta)
    r = math.lcm(s.ram, delta.denominator)
    s2 = s.with_ram(r)
    d = int(delta * r)
    return TruncatedSeries(s.field, {k + d: c for k, c in s2.coeffs.items()},
                           s2.prec + delta if s2.prec != INF else INF, r)


def rescale_exponents(s: TruncatedSeries, b: int) -> TruncatedSeries:
    """Reinterpret a series in s as a series in t with s = t^(1/b)."""
    return TruncatedSeries(s.field, dict(s.coeffs),
                           s.prec / b if s.prec != INF else INF,
                           s.ram * b)


def horner(coeffs, point: TruncatedSeries) -> TruncatedSeries:
    """Horner evaluation of [c_0, c_1, ...] (series or scalars) at a series."""
    total = TruncatedSeries.zero(point.field)
    for c in reversed(coeffs):
        total = total * point + c
    return total


def _read_t(coeffs, t: TruncatedSeries) -> TruncatedSeries:
    """Horner's rule on {e: c_e} (nonzero scalars) at the monomial
    t = c t + O(t^P), P = t.prec > 1, read off the exponents: c_e c^e is
    the coefficient of t^e.

    A step total * t + c keeps min(p + 1, P + v), p and v the running
    precision and valuation.  Read at the exponents' own places, that is
    min(q, P - 1 + u), u the least exponent summed so far, so the cutoff q
    only falls and ends at P - 1 + e1, e1 the least positive exponent: the
    value is sum c_e c^e t^e over the e below it, exact when there is no
    e1."""
    c = t.coeffs[1]
    if c != t.field.one:
        coeffs = {e: ce * c ** e for e, ce in coeffs.items()}
    e1 = min((e for e in coeffs if e), default=None)
    if e1 is None:
        return _series(t.field, coeffs, INF, 1)
    prec = t.prec - 1 + e1
    return _series(t.field, _below(coeffs, _cutoff(prec, 1)), prec, 1)


def eval_poly_at_series(f: MultiPoly, assignment: dict) -> TruncatedSeries:
    """Evaluate a polynomial with every variable bound to a series or
    scalar, by Horner's rule in each variable in turn, the last variable
    innermost.  When that variable is bound to a monomial c t (to a
    precision above 1), its level is read, not evaluated: the coefficients
    in t, times powers of c, already are the series (``_read_t``)."""
    field = f.field
    points = [val if isinstance(val, TruncatedSeries)
              else TruncatedSeries.constant(field, val)
              for val in (assignment[v] for v in f.vars)]
    last = points[-1] if points else None
    read_t = last is not None and last.ram == 1 \
        and len(last.coeffs) == 1 and 1 in last.coeffs

    def nest(terms, i):
        """The terms [(exponents, c)] summed, variables i, ... bound."""
        if i == len(points):
            return terms[0][1]  # the one term with these exponents
        if read_t and i == len(points) - 1:
            return _read_t({exps[i]: c for exps, c in terms}, last)
        groups = {}
        for term in terms:
            groups.setdefault(term[0][i], []).append(term)
        return horner([nest(groups[e], i + 1) if e in groups else field.zero
                       for e in range(max(groups) + 1)], points[i])

    terms = list(f.terms.items())
    if not points or not terms:
        return TruncatedSeries.constant(field, f.constant_value())
    return nest(terms, 0)

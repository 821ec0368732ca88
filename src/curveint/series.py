"""Truncated power series in one variable.

A series holds coefficients indexed by integer exponents strictly below its
precision, the first unknown exponent.  Its variable is t, or the T of a
Puiseux branch in Duval's rational form, where t = scale * T^B
(``lifting.Branch``): a series never meets one in another variable, so it
carries no ramification index.  Exponents may be negative (quotients of
series produce them); a series with all known coefficients zero is only
"zero to precision" and its valuation is reported as None, never as a
number.  Constants and polynomials embed with infinite precision.

A series computes on Python ints.  Its precision is its cutoff, one int
(None for an exact series, read as INF): every exponent is an integer, so
a precision between integers, such as Hensel's 5/2, knows exactly the
coefficients its ceiling knows, and is rounded up where it enters.
Its coefficients are int codes: over F_p residues in [1, p), over Q
integer numerators over one positive series-wide denominator with
gcd(den, *codes) = 1, and over K[z]/(m) the elements themselves.  Each
result is normalised once (one ``% p`` per coefficient, or one gcd per
series); a product of two series over K[z]/(m) goes through
``Field.product_codec``.  Field elements are built only where a caller
reads them (``coeffs``, ``coeff_at``, ``format``).

All values are immutable; operations return fresh series and never claim
coefficients at or beyond the stated precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInputError, NotAUnitError, NotSpecializableError
from .fields import ExtensionField, FpElement, binary_power
from .poly import MultiPoly

INF = math.inf


def positive_precision(prec) -> Fraction:
    """A requested precision as a Fraction; InvalidInputError unless it is
    positive, since nothing is known below t^0."""
    prec = Fraction(prec)
    if prec <= 0:
        raise InvalidInputError(f"precision {prec} is not positive")
    return prec


def _modulus(field):
    """How a series over ``field`` codes its coefficients: None over an
    extension (the elements), p over F_p (residues), 0 over Q (numerators
    over one denominator)."""
    return None if isinstance(field, ExtensionField) else field.characteristic


def _cutoff(prec):
    """The cutoff of a precision (a number or INF): the least index k with
    k >= prec, or None for INF."""
    if prec.__class__ is int:
        return prec
    return None if prec == INF else math.ceil(prec)


def _min_cut(a, b):
    """The lower of two cutoffs, None standing above every int."""
    if a is None:
        return b
    return a if b is None or a <= b else b


def _make(field, mod, codes, den, cut):
    """A series from parts that are already clean: nonzero codes in
    canonical form at int indices below ``cut``."""
    s = object.__new__(TruncatedSeries)
    s.field = field
    s._mod = mod
    s._c = codes
    s._den = den
    s._cut = cut
    return s


def _normal(mod, sums, den):
    """(codes, den) for a dict of unreduced codes over ``den``: the zero
    entries dropped, each residue reduced mod p, or, over Q, numerators
    and den divided by their one gcd."""
    if mod:
        out = {}
        for k, v in sums.items():
            v %= mod
            if v:
                out[k] = v
        return out, 1
    out = {k: v for k, v in sums.items() if v}
    if den != 1:
        if not out:
            return out, 1
        g = math.gcd(den, *out.values())
        if g != 1:
            return {k: v // g for k, v in out.items()}, den // g
    return out, den


def _scalar_code(field, mod, c):
    """(code, den) of a field element (or an int or Fraction) ``c``."""
    c = field.of(c)
    if mod is None:
        return c, 1
    if mod:
        return c.val, 1
    return c.numerator, c.denominator


def _encode(field, mod, elements):
    """(codes, den) of a dict of field elements (or ints or Fractions), the
    zeros (of denominator 1) dropped, over their least common denominator:
    already canonical."""
    parts = {k: _scalar_code(field, mod, c) for k, c in elements.items()}
    den = math.lcm(1, *(d for _, d in parts.values()))
    return {k: n if d == den else n * (den // d)
            for k, (n, d) in parts.items() if n}, den


class TruncatedSeries:
    __slots__ = ("field", "_mod", "_c", "_den", "_cut")

    def __init__(self, field, coeffs, prec):
        cut = _cutoff(prec)
        mod = _modulus(field)
        if cut is not None:
            coeffs = {k: c for k, c in coeffs.items() if k < cut}
        codes, den = _encode(field, mod, coeffs)
        self.field, self._mod = field, mod
        self._c, self._den, self._cut = codes, den, cut

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

    def _like(self, codes, den, cut):
        return _make(self.field, self._mod, codes, den, cut)

    def exact(self) -> "TruncatedSeries":
        """The same coefficients, known exactly: a Laurent polynomial."""
        return self._like(self._c, self._den, None)

    # ------------------------------------------------------------ structure
    @property
    def prec(self):
        """The precision: the cutoff, an int, or INF for an exact series."""
        return INF if self._cut is None else self._cut

    @property
    def coeffs(self) -> dict:
        """{index: coefficient} as field elements, built on every read."""
        return {k: self._element(v) for k, v in self._c.items()}

    def _element(self, code):
        if self._mod is None:
            return code
        if self._mod:
            return FpElement(code, self.field)
        return Fraction(code, self._den)

    def valuation(self):
        """Least exponent with a nonzero coefficient, or None if the series
        is zero to its precision."""
        if not self._c:
            return None
        return min(self._c)

    def effective_valuation(self):
        v = self.valuation()
        return self.prec if v is None else v

    def is_zero_to_precision(self):
        return not self._c

    def coeff_at(self, exponent) -> object:
        if exponent >= self.prec:
            raise InvalidInputError("coefficient beyond stated precision")
        code = self._c.get(exponent)
        return self.field.zero if code is None else self._element(code)

    def constant_term(self):
        return self.coeff_at(0) if self.prec > 0 else self.field.zero

    def truncate(self, new_prec) -> "TruncatedSeries":
        cut = _cutoff(new_prec)
        if _min_cut(cut, self._cut) == self._cut:
            return self
        codes = {k: c for k, c in self._c.items() if k < cut}
        return self._like(*_normal(self._mod, codes, self._den), cut)

    def _shifted(self, d: int) -> "TruncatedSeries":
        """Times t^d."""
        return self._like({k + d: c for k, c in self._c.items()}, self._den,
                          None if self._cut is None else self._cut + d)

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other):
        if other.__class__ is not TruncatedSeries:
            return self._plus_scalar(other)
        a, b = self, other
        if _min_cut(a._cut, b._cut) != a._cut:
            a, b = b, a  # a has the lower precision, which the sum keeps
        out, den = _merge(dict(a._c), a._den, b._c, b._den, a._cut)
        return a._like(*_normal(a._mod, out, den), a._cut)

    __radd__ = __add__

    def _plus_scalar(self, c):
        """self + c, an exact constant: the precision is kept."""
        c, cden = _scalar_code(self.field, self._mod, c)
        if not c or (self._cut is not None and self._cut <= 0):
            return self
        out, den = _merge(dict(self._c), self._den, {0: c}, cden, None)
        return self._like(*_normal(self._mod, out, den), self._cut)

    def __neg__(self):
        mod = self._mod
        if mod:
            codes = {k: mod - c for k, c in self._c.items()}
        else:
            codes = {k: -c for k, c in self._c.items()}
        return self._like(codes, self._den, self._cut)

    def __sub__(self, other):
        if other.__class__ is not TruncatedSeries:
            return self + -self.field.of(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _times_scalar(self, c):
        c, cden = _scalar_code(self.field, self._mod, c)
        if not c:  # times an exact zero: an exact zero
            return self._like({}, 1, None)
        return self._like(*_normal(self._mod,
                                   {k: x * c for k, x in self._c.items()},
                                   self._den * cden),
                          self._cut)

    def __mul__(self, b):
        if b.__class__ is not TruncatedSeries:
            return self._times_scalar(b)
        a = self
        cut = _product_cut(a, b)
        if not a._c or not b._c:
            return a._like({}, 1, cut)
        sums, den = _product_sums(a, b, cut)
        return a._like(*_normal(a._mod, sums, den), cut)

    __rmul__ = __mul__

    def _mul_add(self, b, c):
        """self * b + c (c a series or a scalar), the sums of the product
        and c's codes normalised once: Horner's step."""
        a = self
        if not a._c or not b._c:
            return a * b + c
        cut = _product_cut(a, b)
        if c.__class__ is TruncatedSeries:
            cut = _min_cut(cut, c._cut)
            codes, cden = c._c, c._den
        else:
            code, cden = _scalar_code(a.field, a._mod, c)
            codes = {0: code} if code else {}
        sums, den = _product_sums(a, b, cut)
        if codes:
            sums, den = _merge(sums, den, codes, cden, cut)
        return a._like(*_normal(a._mod, sums, den), cut)

    def __pow__(self, n: int):
        if n < 0:
            inv = TruncatedSeries.constant(self.field, 1) / self
            return inv ** (-n)
        if n == 0:
            return TruncatedSeries.constant(self.field, 1)
        return binary_power(self, n)

    def invert_unit(self) -> "TruncatedSeries":
        """Inverse of a valuation-zero series, to the same precision.

        Newton's iteration u <- u (2 - s u) from u = 1/s_0 doubles the
        indices known each step, on the products above, so no coefficient
        is divided by s_0 more than once: a recurrence that did so over Q
        would put the k-th coefficient over the power s_0^(k+1) of the
        series-wide numerator s_0."""
        c = self._c
        if not c or min(c) != 0:
            raise NotAUnitError("series is not a unit (valuation != 0)")
        code, den = _scalar_code(self.field, self._mod,
                                 1 / self._element(c[0]))
        u = _make(self.field, self._mod, {0: code}, den, None)
        cut = self._cut
        if cut is None:
            if len(c) != 1:
                raise InvalidInputError(
                    "cannot invert a non-monomial exact series; truncate "
                    "first")
            return u
        known = 1  # u is the inverse below index known
        while known < cut:
            known = min(2 * known, cut)
            s = self._like({k: v for k, v in c.items() if k < known},
                           self._den, known)
            u = (u * (2 - s * u)).exact()
        return self._like(u._c, u._den, cut)

    def __truediv__(self, b):
        if b.__class__ is not TruncatedSeries:
            b = TruncatedSeries.constant(self.field, b)
        if not b._c:
            raise ZeroDivisionError("division by a series that is zero to precision")
        vb = min(b._c)
        if vb == 0:
            return self * b.invert_unit()
        return (self * b._shifted(-vb).invert_unit())._shifted(-vb)

    def __rtruediv__(self, other):
        return TruncatedSeries.constant(self.field, other) / self

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self._c == other._c and self._den == other._den \
                and self._cut == other._cut
        return NotImplemented

    def __hash__(self):
        return hash((self._cut, self._den, frozenset(self._c.items())))

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
        """The series, a series in T, printed in ``name`` standing for
        T^B: each exponent, the precision's too, prints divided by B."""
        parts = []
        for k in sorted(self._c):
            c = self._element(self._c[k])
            e = Fraction(k, B)
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
        if self._cut is not None:
            p = Fraction(self._cut, B)
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


def _merge(out, den, codes, cden, cut):
    """out/den + codes/cden at the indices below cut (None for all), as
    unreduced codes over the least common denominator; ``out`` is a dict
    the caller gives up."""
    scale = 1
    if cden != den:
        g = math.gcd(den, cden)
        scale, up = den // g, cden // g
        if up != 1:
            out = {k: v * up for k, v in out.items()}
            den *= up
    for k, y in codes.items():
        if cut is None or k < cut:
            if scale != 1:
                y *= scale
            out[k] = out[k] + y if k in out else y
    return out, den


def _product_cut(a, b):
    """The cutoff of a * b: min(cut_a + val_b, cut_b + val_a), a missing
    valuation (a factor zero to precision) read as the cutoff."""
    ca, cb = a._cut, b._cut
    va = min(a._c) if a._c else ca
    vb = min(b._c) if b._c else cb
    return _min_cut(None if ca is None or vb is None else ca + vb,
                    None if cb is None or va is None else cb + va)


def _product_sums(a, b, cut):
    """(sums, den): the products of a's and b's codes summed per index
    below cut (None for all), unreduced, over the product of the
    denominators; over K[z]/(m) through ``Field.product_codec``, decoded."""
    ac = a._c
    bitems = sorted(b._c.items())
    stop = max(ac) + bitems[-1][0] + 1 if cut is None else cut
    decode = None
    if a._mod is None:
        # delayed reduction, as in MultiPoly.__mul__
        ai, bi, decode = a.field.product_codec(
            list(ac.values()), [c for _, c in bitems])
        aitems = zip(ac, ai)
        bitems = [(k, y) for (k, _), y in zip(bitems, bi)]
    else:
        aitems = ac.items()
    sums = {}
    for k1, x in aitems:
        for k2, y in bitems:
            k = k1 + k2
            if k >= stop:
                break  # every later pair lies past the truncation too
            sums[k] = sums.get(k, 0) + x * y
    if decode is not None:
        return decode(sums), 1
    return sums, a._den * b._den


def horner(coeffs, point: TruncatedSeries) -> TruncatedSeries:
    """Horner evaluation of [c_0, c_1, ...] (series or scalars) at a series:
    from the top coefficient, each step one ``_mul_add``."""
    if not coeffs:
        return TruncatedSeries.zero(point.field)
    total = coeffs[-1]
    if total.__class__ is not TruncatedSeries:
        total = TruncatedSeries.constant(point.field, total)
    for c in reversed(coeffs[:-1]):
        total = total._mul_add(point, c)
    return total


def segment_rows(rows, a: int, b: int, level: int, head, c, field, below=None):
    """A Newton-Puiseux segment (``lifting``): P(x, t) = sum rows[i] x^i,
    rows a dense list of series in t, after Duval's substitution t -> c
    T^b, x -> T^a (head + x) and division by T^level, as the dense list of
    its x-coefficients, exact series in T over ``field``, the field of
    head and c.  Each d x^i t^j adds d c^j T^(a*i + b*j - level) to the
    coefficient of x^i, T nonnegative on the segment's side of the
    polygon, and Ruffini's rule (synthetic division by x - head, repeated
    on each quotient) then substitutes head + x for x.  Terms of
    T-exponent ``below`` or more are dropped before the shift: the shift
    keeps T-exponents, so this is exact below T^below.

    Both steps run on the rows' codes, and each new row is normalised
    once, so no field element is built per coefficient and no series per
    step of the shift.  Over F_p the codes are residues.  Over Q the rows
    are put over one denominator D, and with head = hn/hd row i is scaled
    by hd^(n-i), n the top degree, so the shift is by the int hn and the
    new row k lies over D hd^(n-k).  Over K[z]/(m) the codes are the
    elements, the rows' codes over the base field times c^j / D."""
    kept = []
    for i, row in enumerate(rows):
        terms = [(a * i + b * j - level, j, d) for j, d in row._c.items()]
        if below is not None:
            terms = [term for term in terms if term[0] < below]
        kept.append((row._den, terms))
    while kept and not kept[-1][1]:
        kept.pop()
    n = len(kept) - 1
    top = max((j for _, terms in kept for _, j, _ in terms), default=0)
    mod = _modulus(field)
    c, head = field.of(c), field.of(head)
    if mod:
        h, powers = head.val, [1]
        for _ in range(top):
            powers.append(powers[-1] * c.val % mod)
        scales = dens = [1] * (n + 1)
    else:
        lcd = math.lcm(1, *(den for den, _ in kept))
        if mod == 0:
            cn, cd, h, hd = (c.numerator, c.denominator, head.numerator,
                             head.denominator)
            powers = [cn ** j * cd ** (top - j) for j in range(top + 1)]
            scales = [lcd // den * hd ** (n - i)
                      for i, (den, _) in enumerate(kept)]
            dens = [lcd * cd ** top * hd ** (n - k) for k in range(n + 1)]
        else:
            # 1 / lcd built, not inverted: only rows over Q have an lcd > 1
            h = head
            powers = [field.one if lcd == 1 else field.of(Fraction(1, lcd))]
            for _ in range(top):
                powers.append(powers[-1] * c)
            scales = [lcd // den for den, _ in kept]
            dens = [1] * (n + 1)
    out = [{e: powers[j] * (d if s == 1 else d * s) for e, j, d in terms}
           for s, (_, terms) in zip(scales, kept)]
    if h:
        for k in range(n):
            for i in range(n - 1, k - 1, -1):
                low = out[i]
                for e, v in out[i + 1].items():
                    low[e] = low[e] + h * v if e in low else h * v
    return [_make(field, mod, *_normal(mod, codes, den), None)
            for codes, den in zip(out, dens)]


def _read_t(coeffs, t: TruncatedSeries) -> TruncatedSeries:
    """Horner's rule on {e: c_e} (nonzero scalars) at t bound to the
    monomial c T^B + O(T^P), P = t.prec > B > 0, read off the exponents:
    c_e c^e is the coefficient of T^(B e).

    A step total * t + c keeps min(p + B, P + v), p and v the running
    precision and valuation.  Read at the exponents' own places, that is
    min(q, P + (u - 1) B), u the least exponent summed so far, so the
    cutoff q only falls and ends at P + (e1 - 1) B, e1 the least positive
    exponent: the value is sum c_e c^e T^(B e) over the e with B e below
    it, exact when there is no e1."""
    (B, c), = t._c.items()
    e1 = min((e for e in coeffs if e), default=None)
    cut = None if e1 is None or t._cut is None else t._cut + (e1 - 1) * B
    if cut is not None:
        coeffs = {e: ce for e, ce in coeffs.items() if B * e < cut}
    field, mod, d = t.field, t._mod, t._den
    codes, den = _encode(field, mod, coeffs)
    if d != 1:  # c_e (c/d)^e over den * d^top
        top = max(codes)
        codes = {e: v * d ** (top - e) for e, v in codes.items()}
        den *= d ** top
    if c != 1 or B != 1:
        codes = {B * e: v * c ** e for e, v in codes.items()}
    return _make(field, mod, *_normal(mod, codes, den), cut)


def eval_poly_at_series(f: MultiPoly, assignment: dict) -> TruncatedSeries:
    """Evaluate a polynomial with every variable bound to a series or
    scalar, by Horner's rule in each variable in turn, the last variable
    innermost.  When that variable is bound to a monomial c T^B with
    B > 0 (known past T^B), its level is read, not evaluated: its
    coefficients, times powers of c, already are the series (``_read_t``)."""
    field = f.field
    points = [val if isinstance(val, TruncatedSeries)
              else TruncatedSeries.constant(field, val)
              for val in (assignment[v] for v in f.vars)]
    last = points[-1] if points else None
    read_t = last is not None and len(last._c) == 1 and min(last._c) > 0

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

"""Independent oracles used by the test suite.

These deliberately avoid the production code paths: the resultant oracle
builds the Sylvester matrix (f's rows first, descending coefficients) and
evaluates the determinant by fraction-free (Bareiss) elimination; the
intersection-number oracle runs Fulton's algorithm, derived from the
axioms of intersection multiplicity, where the production length engine
computes the dimension of a local quotient ring; the extension-field
oracle computes on tuples of base-field elements (schoolbook products,
long division by the modulus, the extended Euclidean algorithm) where the
production code computes on integer vectors.  The product references
multiply polynomials and series one term pair at a time through the
element operators, normalising every partial sum, where the production
products sum integer encodings and normalise once per coefficient; the
pseudo-remainder reference forms each step r*lead - t*g as whole
polynomial products, where the production step runs one pass that never
forms the cancelling top terms.  The series reference (``RefSeries``,
``horner_reference``, ``eval_reference``) keeps a series as a dict of
field elements with a Fraction precision and inverts term by term, where
the production series computes on int codes with an int cutoff and
inverts by Newton's iteration.  The Frobenius orbit oracle raises each
coordinate of a point to p**i, where the production code takes p-th
powers step by step.  The substitution
oracle expands with sympy, where the production translation and shear
run Ruffini's rule on rows of scalars.  The evaluation oracle reads each
bound series as a polynomial in s = t^(1/L) and expands term by term
with ``MultiPoly`` products (``expand_substitution``), where the
production ``eval_poly_at_series`` runs Horner's rule on series.  The
shear-candidate oracle lists every (lam, mu) by growing |lam| + mu and
drops the repeated directions lam/mu.  The general-position reference
(``in_general_position``, ``first_general_position_shear``) accepts a
shear by a gcd of the two curves on the line y = 0, where the production
search reads the origin's fiber off the subresultant chain it builds.
The transversality reference proves by evaluation, on Sylvester
resultants and long-division gcds, what the deformation engine reads off
a separable eliminant.  The separability
reference specializes R(y, t) at each tau with ``subs_values`` and takes
an exact ``gcd``, where the production proof reads each tau mod a prime
on ints first.  The segment reference substitutes x -> head + x with
``expand_substitution``, where the production ``lifting`` shifts a list
of series by Ruffini's rule.  The factorization
oracle asks sympy for the irreducible factors of a univariate polynomial,
where the production code lifts factors mod p on dense int lists.

The readouts at the end (``evaluate``, ``agrees_with``, ``branch_count``,
``valuation_certificate``, ``branch_residual``, ``verify_branch`` and
``bilinearity_expand``) are used by tests only, so they live here rather
than in the library, as does ``bench_workloads``, the bench's job lists
loaded from their file.
"""

import importlib.util
from fractions import Fraction
from math import ceil
from pathlib import Path

from curveint.algebra import (SHEAR_BOUND, apply_shear, gcd, lift_to_field,
                              local_pair)
from curveint.errors import InvalidInputError, UnsupportedExtensionError
from curveint.fields import QQ, ExtElement, ExtensionField, PrimeField
from curveint.intersect import _at_origin, mult_length
from curveint.poly import MultiPoly
from curveint.series import INF, TruncatedSeries


def sylvester_matrix(f: MultiPoly, g: MultiPoly, name: str):
    m, n = f.degree_in(name), g.degree_in(name)
    fc = [f.coeff_of(name, m - k) for k in range(m + 1)]  # descending
    gc = [g.coeff_of(name, n - k) for k in range(n + 1)]
    size = m + n
    zero = f.clone({})
    rows = []
    for i in range(n):
        rows.append([zero] * i + fc + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + gc + [zero] * (size - i - n - 1))
    return rows


def bareiss_determinant(rows):
    """Exact determinant of a square matrix of MultiPoly entries."""
    n = len(rows)
    if n == 0:
        first = None
        raise ValueError("empty matrix has determinant 1 by convention")
    a = [row[:] for row in rows]
    field = a[0][0].field
    varset = a[0][0].vars
    one = MultiPoly.const(field, varset, 1)
    sign = 1
    prev = one
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(field, varset)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.exact_divide(prev)
            a[i][k] = MultiPoly.zero(field, varset)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def sylvester_resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    m, n = f.degree_in(name), g.degree_in(name)
    if m + n == 0:
        return MultiPoly.const(f.field, f.vars, 1)
    return bareiss_determinant(sylvester_matrix(f, g, name))


def random_poly(rng, field, variables, max_degree, coeff_range=9,
                force_origin=False):
    """Dense-ish random polynomial with small integer coefficients."""
    terms = {}
    nvars = len(variables)
    from itertools import product
    for exps in product(range(max_degree + 1), repeat=nvars):
        if sum(exps) > max_degree:
            continue
        if force_origin and sum(exps) == 0:
            continue
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[exps] = field.of(c)
    return MultiPoly(field, variables, terms)


def fulton_intersection_number(f: MultiPoly, g: MultiPoly, cap: int = 10_000):
    """I_0(f, g) at the origin by Fulton's algorithm (Algebraic Curves,
    section 3.3), which uses only the axioms of intersection multiplicity.

    Works on exponent dictionaries of f(x, y) and g(x, y).  A curve that
    misses the origin contributes 0.  Otherwise let r <= s be the x-degrees
    of F(x, 0) and G(x, 0).  If F(x, 0) = 0, then F = y * H, and
    I(F, G) = I(y, G) + I(H, G), where I(y, G) = ord_x G(x, 0).  Else
    I(F, G) = I(F, G - c * x^(s - r) * F), with c making the x^s terms
    cancel.  Every reduction of the first kind adds at least 1, and curves
    without a common component meet at the origin at most deg f * deg g
    times (Bezout), so a count past that bound, a zero polynomial or y
    dividing both means a shared component through the origin: ValueError.
    """
    zero = f.field.zero
    bound = f.total_degree() * g.total_degree()
    total = 0
    pending = [(dict(f.terms), dict(g.terms))]
    for _ in range(cap):
        if not pending:
            return total
        F, G = pending.pop()
        if not F or not G or total > bound:
            raise ValueError("the curves share a component")
        if (0, 0) in F or (0, 0) in G:
            continue  # a curve that misses the origin
        fa = {i: c for (i, j), c in F.items() if j == 0}
        ga = {i: c for (i, j), c in G.items() if j == 0}
        r, s = max(fa, default=0), max(ga, default=0)
        if r > s:
            F, G, fa, ga, r, s = G, F, ga, fa, s, r
        if r == 0:  # F(x, 0) = 0: F = y * H
            if not ga:
                raise ValueError("the curves share the component y = 0")
            total += min(ga)
            pending.append(({(i, j - 1): c for (i, j), c in F.items()}, G))
            continue
        scale = ga[s] / fa[r]
        G1 = dict(G)
        for (i, j), c in F.items():
            key = (i + s - r, j)
            value = G1.get(key, zero) - scale * c
            if value:
                G1[key] = value
            else:
                G1.pop(key, None)
        pending.append((F, G1))
    raise RuntimeError("Fulton's algorithm did not finish")


# ------------------------------------------------- extension-field oracle
#
# Residues in K[z]/(m) as ascending tuples of base-field elements (Fraction
# or FpElement) without trailing zeros; m is such a tuple too.

def poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a, b, zero):
    n = max(len(a), len(b))
    a = list(a) + [zero] * (n - len(a))
    b = list(b) + [zero] * (n - len(b))
    return poly_trim(x + y for x, y in zip(a, b))


def poly_neg(a):
    return tuple(-x for x in a)


def poly_mul(a, b, zero):
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return poly_trim(out)


def poly_divmod(a, b, zero):
    """Quotient and remainder over a field, by long division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(poly_trim(a))
    q = [zero] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = c
        for i, cb in enumerate(b):
            a[k + i] = a[k + i] - c * cb
        a = list(poly_trim(a[:-1]))
    return poly_trim(q), tuple(a)


def poly_gcd(a, b, zero):
    """Monic gcd (the empty tuple when both are zero)."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b, zero)[1]
    return tuple(c / a[-1] for c in a) if a else a


def ext_mul(a, b, modulus, zero):
    return poly_divmod(poly_mul(a, b, zero), modulus, zero)[1]


def ext_inverse(a, modulus, zero, one):
    """Inverse of a mod m by the extended Euclidean algorithm; raises
    ZeroDivisionError for zero and for zero divisors."""
    r0, r1 = poly_trim(a), poly_trim(modulus)
    s0, s1 = (one,), ()
    while r1:
        q, r = poly_divmod(r0, r1, zero)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(s0, poly_neg(poly_mul(q, s1, zero)), zero)
    if len(r0) != 1:
        raise ZeroDivisionError("not invertible mod m")
    return poly_divmod(tuple(x / r0[0] for x in s0), modulus, zero)[1]


# ------------------------------------------------ product references
#
# Schoolbook products through the element operators: every term pair is
# multiplied and added as field elements.


def poly_mul_pairwise(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    if b.vars != a.vars:
        raise ValueError("variable lists differ")
    out = {}
    zero = a.field.zero
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(u + v for u, v in zip(e1, e2))
            s = out.get(key, zero) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return MultiPoly(a.field, a.vars, out)


def poly_exact_divide_pairwise(a: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Quotient a / d by graded-lex long division, dividing every quotient
    term by d's leading coefficient; raises ValueError unless exact."""
    rem = dict(a.terms)
    out = {}
    dkey = max(d.terms, key=lambda e: (sum(e), e))
    dc = d.terms[dkey]
    zero = a.field.zero
    while rem:
        rkey = max(rem, key=lambda e: (sum(e), e))
        qkey = tuple(u - v for u, v in zip(rkey, dkey))
        if any(q < 0 for q in qkey):
            raise ValueError("division is not exact")
        qc = rem[rkey] / dc
        out[qkey] = qc
        for e2, c2 in d.terms.items():
            key = tuple(u + v for u, v in zip(qkey, e2))
            s = rem.get(key, zero) - qc * c2
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return MultiPoly(a.field, a.vars, out)


def pseudo_rem_by_products(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """r with lc_g^(df-dg+1) * f = q*g + r and deg_name r < deg_name g, each
    step forming r*lead - t*g as two whole ``MultiPoly`` products and a
    sum, t the top terms of r shifted down by deg_name g."""
    df, dg = f.degree_in(name), g.degree_in(name)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if df < dg:
        return f
    lead = g.leading_coeff_in(name)
    i = f.vars.index(name)
    r = f
    e = df - dg + 1
    while not r.is_zero():
        dr = r.degree_in(name)
        if dr < dg:
            break
        t = r.clone({x[:i] + (dr - dg,) + x[i + 1:]: c
                     for x, c in r.terms.items() if x[i] == dr})
        r = r * lead - t * g
        e -= 1
    return r * lead ** e if e else r


def _cutoff(prec):
    """Least index k with k >= prec, or INF."""
    if prec == INF:
        return INF
    return ceil(Fraction(prec))


class RefSeries:
    """The series arithmetic on dicts of field elements: {index: element}
    below ``prec`` (a Fraction, or INF), every product one term pair at a
    time through the element operators, every precision a Fraction
    computed afresh."""

    def __init__(self, field, coeffs, prec):
        self.field = field
        self.prec = prec if prec == INF else Fraction(prec)
        cutoff = _cutoff(self.prec)
        self.coeffs = {k: field.of(c) for k, c in coeffs.items()
                       if field.of(c) and k < cutoff}

    @classmethod
    def of(cls, s):
        """The reference form of a TruncatedSeries or of a scalar."""
        if isinstance(s, TruncatedSeries):
            return cls(s.field, s.coeffs, s.prec)
        return s

    def series(self) -> TruncatedSeries:
        return TruncatedSeries(self.field, self.coeffs, self.prec)

    def _lift(self, other):
        if isinstance(other, RefSeries):
            return other
        return RefSeries(self.field, {0: other}, INF)

    def effective_valuation(self):
        if not self.coeffs:
            return self.prec
        return min(self.coeffs)

    def truncate(self, prec):
        return RefSeries(self.field, self.coeffs, min(self.prec, prec))

    def __add__(self, other):
        a, b = self, self._lift(other)
        out = dict(a.coeffs)
        for k, c in b.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return RefSeries(a.field, out, min(a.prec, b.prec))

    __radd__ = __add__

    def __neg__(self):
        return RefSeries(self.field, {k: -c for k, c in self.coeffs.items()},
                         self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self, self._lift(other)
        va, vb = a.effective_valuation(), b.effective_valuation()
        prec = min(a.prec + vb, b.prec + va) \
            if (a.prec != INF or b.prec != INF) else INF
        cutoff = _cutoff(prec)
        out = {}
        for k1, c1 in a.coeffs.items():
            for k2, c2 in b.coeffs.items():
                k = k1 + k2
                if k < cutoff:
                    out[k] = out[k] + c1 * c2 if k in out else c1 * c2
        return RefSeries(a.field, out, prec)

    __rmul__ = __mul__

    def invert_unit(self):
        c = self.coeffs
        inv0 = 1 / c[0]
        if self.prec == INF:
            return RefSeries(self.field, {0: inv0}, INF)
        out = {0: inv0}
        for k in range(1, _cutoff(self.prec)):
            acc = self.field.zero
            for j, cj in c.items():
                if 0 < j <= k and k - j in out:
                    acc = acc + cj * out[k - j]
            out[k] = -inv0 * acc
        return RefSeries(self.field, out, self.prec)

    def shift(self, d: int):
        """Times t^d."""
        return RefSeries(self.field,
                         {k + d: c for k, c in self.coeffs.items()},
                         self.prec + d if self.prec != INF else INF)

    def __truediv__(self, other):
        a, b = self, self._lift(other)
        vb = b.effective_valuation()
        return (a * b.shift(-vb).invert_unit()).shift(-vb)


def series_mul_pairwise(a: TruncatedSeries, b: TruncatedSeries):
    """The product, truncated at min(prec_a + val_b, prec_b + val_a),
    through ``RefSeries``."""
    return (RefSeries.of(a) * RefSeries.of(b)).series()


def horner_reference(coeffs, point: RefSeries) -> RefSeries:
    """Horner's rule on ``RefSeries`` (or scalar) coefficients."""
    total = RefSeries(point.field, {}, INF)
    for c in reversed(coeffs):
        total = total * point + c
    return total


def eval_reference(f: MultiPoly, assignment) -> RefSeries:
    """f at bound series or scalars by Horner's rule on ``RefSeries`` in
    each variable in turn, the last innermost, with no readout of t."""
    points = [RefSeries.of(v) if isinstance(v, TruncatedSeries)
              else RefSeries(f.field, {0: v}, INF)
              for v in (assignment[name] for name in f.vars)]

    def nest(terms, i):
        if i == len(points):
            return terms[0][1]
        groups = {}
        for term in terms:
            groups.setdefault(term[0][i], []).append(term)
        return horner_reference(
            [nest(groups[e], i + 1) if e in groups else f.field.zero
             for e in range(max(groups) + 1)], points[i])

    if not f.terms:
        return RefSeries(f.field, {}, INF)
    return RefSeries.of(nest(list(f.terms.items()), 0)) if points else \
        RefSeries(f.field, {0: f.constant_value()}, INF)


def expand_substitution(f: MultiPoly, images) -> MultiPoly:
    """f with the polynomials of ``images`` (same field and variables) put
    in for their variables, expanded term by term: each term is the
    product of its coefficient and the powers of the images (and of the
    other variables), taken by ``MultiPoly`` products and cached per
    variable, and the terms are summed."""
    one = MultiPoly.const(f.field, f.vars, 1)
    powers = [[one, images[v] if v in images
               else MultiPoly.var(f.field, f.vars, v)] for v in f.vars]
    out = MultiPoly.zero(f.field, f.vars)
    for exps, c in f.terms.items():
        term = MultiPoly.const(f.field, f.vars, c)
        for cache, e in zip(powers, exps):
            while len(cache) <= e:
                cache.append(cache[-1] * cache[1])
            term = term * cache[e]
        out = out + term
    return out


def eval_by_expansion(f: MultiPoly, assignment):
    """f at the bound series (or scalars) of ``assignment``, exactly: the
    map k -> coefficient of t^k.

    A series is s^-m P(s) with s its variable and P a polynomial; each
    variable becomes u P(s) for a fresh variable u that stands for s^-m,
    and ``expand_substitution`` expands f at once."""
    bound = [val if isinstance(val, TruncatedSeries)
             else TruncatedSeries.constant(f.field, val)
             for val in (assignment[v] for v in f.vars)]
    names = f.vars + ("s_",) + tuple(f"u_{v}" for v in f.vars)
    shifts, images = [], {}
    for i, (v, val) in enumerate(zip(f.vars, bound)):
        coeffs = val.coeffs
        m = max(0, -min(coeffs, default=0))
        shifts.append(m)
        images[v] = MultiPoly(f.field, names, {
            (0,) * len(f.vars) + (k + m,)
            + tuple(int(j == i) for j in range(len(f.vars))): c
            for k, c in coeffs.items()})
    out = {}
    zero = f.field.zero
    expanded = expand_substitution(f.extend_vars(names), images)
    for exps, c in expanded.terms.items():
        us = exps[len(f.vars) + 1:]
        k = exps[len(f.vars)] - sum(m * e for m, e in zip(shifts, us))
        out[k] = out.get(k, zero) + c
    return {k: c for k, c in out.items() if c}


def shear_candidates_by_ratio(field, bound):
    """Every shear (lam, mu) with |lam|, mu <= bound (below p over F_p),
    identity first, then by growing |lam| + mu and ascending lam; a
    direction lam/mu met before is dropped."""
    p = field.characteristic
    limit = bound if p == 0 else min(bound, p - 1)
    pairs = [(0, 1)] + [(lam, mu) for size in range(1, 2 * limit + 1)
                        for lam in range(-limit, limit + 1)
                        for mu in range(1, limit + 1)
                        if abs(lam) + mu == size and (lam, mu) != (0, 1)]
    out = []
    for lam, mu in pairs:
        lam, mu = field.of(lam), field.of(mu)
        if all(lam * m != l * mu for l, m in out):
            out.append((lam, mu))
    return out


def in_general_position(fs: MultiPoly, gs: MultiPoly) -> bool:
    """Resultant general position: both top x-coefficients are nonzero
    constants (degree in x equals total degree) and the origin is the only
    common zero on the line y = 0, so the order of the resultant in y
    reads off the local multiplicity."""
    for h in (fs, gs):
        xv = h.vars[0]
        if not (h.degree_in(xv) == h.total_degree()
                and h.leading_coeff_in(xv).is_constant()):
            return False
    yv = fs.vars[1]
    f0, g0 = fs.coeff_of(yv, 0), gs.coeff_of(yv, 0)
    # every common zero on y = 0 must sit at the origin, i.e. the gcd of
    # the two restrictions is a pure power of x
    return len(gcd(f0, g0).terms) == 1


_RATIO_CANDIDATES = {}


def first_general_position_shear(f: MultiPoly, g: MultiPoly):
    """The first shear of ``shear_candidates_by_ratio`` that puts the pair
    ``in_general_position``, or None when none does.  The candidate list
    is made once per field."""
    if f.field not in _RATIO_CANDIDATES:
        _RATIO_CANDIDATES[f.field] = shear_candidates_by_ratio(f.field,
                                                               SHEAR_BOUND)
    for lam, mu in _RATIO_CANDIDATES[f.field]:
        if in_general_position(apply_shear(f, lam, mu),
                               apply_shear(g, lam, mu)):
            return lam, mu
    return None


def frobenius_orbit(point, k):
    """The distinct coordinate tuples (X**q, Y**q, Z**q), q = p**i for
    i < k, of a normalized point over an extension of F_p."""
    p = point.field.characteristic
    return {tuple(c ** p ** i for c in point.coords) for i in range(k)}


def sympy_compose(f: MultiPoly, substitution) -> MultiPoly:
    """f with the polynomials of ``substitution`` put in for their
    variables, multiplied out as sympy polynomials over Q and reduced into
    f's field: an element of an extension field is a polynomial in its
    generator w, the first sympy variable, and is reduced mod the field's
    modulus; coefficients are reduced mod p."""
    import sympy
    field = f.field
    ext = isinstance(field, ExtensionField)
    gens = (sympy.Symbol("w_"),) + sympy.symbols(f.vars)

    def poly(terms):
        return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens,
                                    domain=sympy.QQ)

    def rational(c):
        if field.characteristic:
            return sympy.Integer(c.val)
        return sympy.Rational(c.numerator, c.denominator)

    def lift(q):
        if not ext:
            return poly({(0,) + e: rational(c) for e, c in q.terms.items()})
        return poly({(k,) + e: sympy.Rational(n, c.den)
                     for e, c in q.terms.items() for k, n in enumerate(c.num)})

    images = [lift(substitution[v]) if v in substitution
              else poly({tuple(int(i == j) for j in range(len(gens))): 1})
              for i, v in enumerate(f.vars, start=1)]
    total = poly({})
    for exps, c in lift(f).terms():
        term = poly({(exps[0],) + (0,) * len(f.vars): c})
        for image, e in zip(images, exps[1:]):
            term = term * image ** e
        total = total + term
    if ext:  # division by a monic polynomial in the first variable
        total = total.rem(poly({(k,) + (0,) * len(f.vars): rational(c)
                                for k, c in enumerate(field.modulus)}))
    terms = {}
    for (k, *exps), c in total.terms():
        if c:
            c = Fraction(int(c.p), int(c.q))
            terms.setdefault(tuple(exps), [0] * field.degree if ext
                             else [0])[k] = c
    return MultiPoly(field, f.vars, {
        e: ExtElement(cs, field) if ext else field.of(cs[0])
        for e, cs in terms.items()})


# ------------------------------------------------ transversality reference
#
# A certificate that the deformed intersections are transverse, without
# witnesses, on exact resultants and gcds of coefficient lists.


def _coeffs_in(p: MultiPoly, name: str):
    """Ascending coefficients of a polynomial in ``name`` alone."""
    return tuple(p.coeff_of(name, k).constant_value()
                 for k in range(p.degree_in(name) + 1))


def transverse_by_evaluation(R: MultiPoly, ft: MultiPoly,
                             gt: MultiPoly) -> bool:
    """True when, at some t = tau in 1..23 (below p over F_p) where the
    eliminant R(y, t) = Res_x(ft, gt) keeps its y-degree, R(y, tau) shares
    no root with Res_x(h, J)(y, tau) for h = ft and h = gt, J the Jacobian
    of the pair: then no common zero of the pair is singular.  False when
    no candidate value shows it."""
    field = ft.field
    jac = (ft.derivative("x") * gt.derivative("y")
           - ft.derivative("y") * gt.derivative("x"))
    if jac.is_zero():
        return False
    p = field.characteristic
    for raw in range(1, 24 if p == 0 else min(24, p)):
        tau = field.of(raw)
        r0 = R.subs_values({"t": tau})
        j0 = jac.subs_values({"t": tau})
        if r0.is_zero() or r0.degree_in("y") != R.degree_in("y") \
                or j0.is_zero():
            continue
        for h in (ft, gt):
            h0 = h.subs_values({"t": tau})
            if h0.is_zero() or not h0.involves("x"):
                break
            w0 = sylvester_resultant(h0, j0, "x") if j0.involves("x") else j0
            if w0.is_zero() or len(poly_gcd(_coeffs_in(r0, "y"),
                                            _coeffs_in(w0, "y"),
                                            field.zero)) > 1:
                break
        else:
            return True
    return False


def separable_by_exact_evaluation(R: MultiPoly, name: str) -> bool:
    """The exact per-tau loop that ``algebra.separable_by_evaluation``
    answers mod q first: at tau in 1..23 (below p over F_p), R(name, tau)
    by ``subs_values``; a tau that drops R's degree is skipped, one where
    R(name, tau) is coprime to its derivative (``gcd``) proves R
    separable, and the second that shares a factor ends the search."""
    n = R.degree_in(name)
    if n < 2:
        return True
    if R.derivative(name).is_zero():
        return False
    field = R.field
    p = field.characteristic
    shared = 0
    for raw in range(1, 24 if p == 0 else min(24, p)):
        r0 = R.subs_values({"t": field.of(raw)})
        if r0.degree_in(name) != n:
            continue
        d0 = r0.derivative(name)
        if not d0.is_zero() and gcd(r0, d0).is_constant():
            return True
        shared += 1
        if shared == 2:
            return False
    return False


# ------------------------------------------------------ segment reference


def transform_segment_by_expansion(f: MultiPoly, xname: str, a: int,
                                   b: int, level: int, head, c, new_field,
                                   below=None):
    """Substitute t -> c T^b, x -> T^a (head + x) and divide by T^level
    with ``expand_substitution``: each d x^i t^j becomes d c^j
    T^(a*i + b*j - level) (head + x)^i, over new_field, t standing for T.
    Terms of T-exponent ``below`` or more are dropped before the shift."""
    xi, ti = f.vars.index(xname), f.vars.index("t")
    powers, terms = {}, {}
    for exps, coeff in f.terms.items():
        j = exps[ti]
        e = a * exps[xi] + b * j - level
        if below is not None and e >= below:
            continue
        if j not in powers:
            powers[j] = c ** j
        key = list(exps)
        key[ti] = e
        terms[tuple(key)] = new_field.of(coeff) * powers[j]
    g = MultiPoly(new_field, f.vars, terms)
    return expand_substitution(g, {
        xname: MultiPoly.var(new_field, g.vars, xname) + new_field.of(head)})


def sympy_factor_list(f: MultiPoly, name: str):
    """The irreducible factors of a univariate f over Q or F_p by sympy's
    ``factor_list``, in ``algebra.factor_univariate``'s form: monic
    (factor, multiplicity) pairs sorted by (degree, str), without the
    constant; the same errors for an input in two variables and for an
    extension field."""
    import sympy
    for v in f.vars:
        if v != name and f.involves(v):
            raise InvalidInputError("input is not univariate")
    field = f.field
    if field == QQ:
        domain = "QQ"
    elif isinstance(field, PrimeField):
        domain = sympy.GF(field.p)
    else:
        raise UnsupportedExtensionError(
            "univariate factorization only over Q or F_p")
    i = f.vars.index(name)
    dense = [0] * (f.degree_in(name) + 1)
    for e, c in f.terms.items():
        dense[e[i]] = c if field == QQ else c.val
    poly = sympy.Poly(dense[::-1], sympy.Symbol(name), domain=domain)
    out = []
    for fac, mult in poly.factor_list()[1]:
        coeffs = [field.of(Fraction(int(c.p), int(c.q)))
                  for c in fac.all_coeffs()[::-1]]
        out.append((MultiPoly(f.field, f.vars, {
            tuple(k if v == name else 0 for v in f.vars): c / coeffs[-1]
            for k, c in enumerate(coeffs) if c}), int(mult)))
    out.sort(key=lambda it: (it[0].degree_in(name), str(it[0])))
    return out


# --------------------------------------------------------------- readouts

def bench_workloads():
    """The module ``bench/workloads.py``, loaded from its file."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def evaluate(f: MultiPoly, assignment):
    """f with a field element substituted for every variable."""
    return f.subs_values({v: assignment[v] for v in f.vars}).constant_value()


def agrees_with(a: TruncatedSeries, b: TruncatedSeries, below) -> bool:
    """Coefficientwise equality of two series at all exponents < ``below``,
    which must lie within both precisions."""
    below = Fraction(below)
    if min(a.prec, b.prec) < below:
        raise InvalidInputError("comparison range exceeds precision")
    exponents = {k for s in (a, b) for k in s.coeffs}
    return all(a.coeff_at(e) == b.coeff_at(e)
               for e in exponents if e < below)


def branch_count(branches) -> int:
    """Closure solutions with multiplicity of ``newton_puiseux`` branches;
    equals ord_x F(x, 0)."""
    return sum(br.multiplicity * br.span for br in branches)


def valuation_certificate(point):
    """(val_x, val_y) of a nearby point's centred coordinates, a zero
    coordinate read at its precision; both positive for a nearby point."""
    return tuple(s.prec if s.valuation() is None else s.valuation()
                 for s in (point.x, point.y))


def branch_residual(F: MultiPoly, series: dict, scale=1,
                    B: int = 1) -> TruncatedSeries:
    """F at a parametrized point, term by term: each variable named in
    ``series`` is its series in T, and t is scale * T^B, with no Horner
    step or exponent readout.  F involves no other variable."""
    field = next(iter(series.values())).field
    F = lift_to_field(F, field)
    t = TruncatedSeries(field, {B: field.of(scale)}, INF)
    values = [t if v == "t" else series.get(v) for v in F.vars]
    total = TruncatedSeries.zero(field)
    for exps, c in F.terms.items():
        term = TruncatedSeries.constant(field, c)
        for value, e in zip(values, exps):
            if e:
                term = term * value ** e
        total = total + term
    return total


def verify_branch(F: MultiPoly, xname: str, br) -> bool:
    """Substitute the branch into F (``branch_residual``); the result must
    vanish to the branch's guaranteed precision."""
    return branch_residual(F, {xname: br.series}, br.scale,
                           br.B).valuation() is None


def bilinearity_expand(C1, C2, point):
    """(total, table): the weighted sum of pairwise component
    multiplicities sum(n_i * e_j * I(G_i, H_j, p)) with each I computed on
    the reduced factors by the length engine."""
    chart, pair = point.chart, point.affine_pair()
    hs = [(_at_origin(Hj, chart, pair), ej) for Hj, ej in C2.components()]
    table = []
    total = 0
    for Gi, ni in C1.components():
        gi0 = _at_origin(Gi, chart, pair)
        for hj0, ej in hs:
            if gi0.constant_value() or hj0.constant_value():
                continue  # this component pair misses the point
            m = mult_length(local_pair(gi0, hj0))
            table.append((ni, ej, m))
            total += ni * ej * m
    return total, table

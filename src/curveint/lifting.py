"""Root lifting in truncated series rings.

Three entry points:

* ``hensel_lift``: Newton iteration for a simple residual root of a
  polynomial with series coefficients; correct digits double each step.
* ``newton_puiseux``: all branches x(t) with x(0) = 0 of a bivariate
  polynomial, by Newton-polygon segmentation; once a segment root is
  simple, continuation switches to ``hensel_lift``.
* ``weierstrass_prepare``: effective Weierstrass division F = U * G with G
  monic in x, non-leading coefficients vanishing at y = 0, and U a local
  unit, exact in x and truncated in y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import factor_univariate, lift_to_field, squarefree_decompose
from .errors import (BudgetError, InsufficientPrecisionError, InvalidInputError,
                     NothingToPrepareError, NotRegularError, NotSimpleRootError,
                     UnsupportedExtensionError)
from .fields import ExtensionField
from .poly import MultiPoly
from .series import (INF, TruncatedSeries, eval_poly_at_series,
                     rescale_exponents, shift_exponents)


# ----------------------------------------------------------------- hensel

def _eval_series_poly(coeffs, point: TruncatedSeries) -> TruncatedSeries:
    """Horner evaluation of [c_0, c_1, ...] (series coefficients) at a series."""
    total = TruncatedSeries.zero(point.field, INF, point.varname)
    for c in reversed(coeffs):
        total = total * point + c
    return total


def series_poly_from_multipoly(f: MultiPoly, xname: str, tname: str, prec):
    """Dense coefficient list in x, each a series in t, for a poly in (x, t)."""
    for v in f.vars:
        if v not in (xname, tname) and f.involves(v):
            raise InvalidInputError(f"unexpected variable {v}")
    xi = f.vars.index(xname)
    ti = f.vars.index(tname)
    d = f.degree_in(xname)
    out = []
    for k in range(d + 1):
        coeffs = {}
        for exps, c in f.terms.items():
            if exps[xi] == k:
                coeffs[exps[ti]] = coeffs.get(exps[ti], f.field.zero) + c
        out.append(TruncatedSeries(f.field, coeffs, prec, 1, tname))
    return out


def hensel_lift(f, a0, prec) -> TruncatedSeries:
    """Lift a simple residual root a0 of f to a series root mod t^prec.

    ``f`` is a list of TruncatedSeries (ascending x powers) or a MultiPoly
    in (x, t).  Requires f(a0) = 0 and f'(a0) != 0 at t = 0; otherwise
    NotSimpleRootError.

    Newton's iteration runs at working precisions that double up to
    ``prec`` (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 9),
    with the approximant kept as an exact polynomial.  The root is returned
    only once f(root) vanishes mod t^prec, evaluated at that full
    precision; when the coefficients are not known that far, or the
    iteration does not converge, InsufficientPrecisionError.
    """
    prec = Fraction(prec)
    if isinstance(f, MultiPoly):
        xname = f.vars[0]
        tname = next(v for v in f.vars if v != xname)
        f = series_poly_from_multipoly(f, xname, tname, INF)
    if not f:
        raise InvalidInputError("empty polynomial")
    field = f[0].field
    varname = f[0].varname
    coeffs = [c.truncate(prec) if c.prec > prec else c for c in f]
    fprime = [c * k for k, c in enumerate(coeffs)][1:]
    a0 = field.of(a0)
    x = TruncatedSeries.constant(field, a0, prec, varname)
    res0 = _eval_series_poly(coeffs, x)
    if res0.constant_term():
        raise NotSimpleRootError("a0 is not a root of the residual polynomial")
    d0 = _eval_series_poly(fprime, x)
    if not d0.constant_term():
        raise NotSimpleRootError(
            "residual derivative vanishes at a0; the root is not simple")
    max_iter = 4 + math.ceil(math.log2(max(2, float(prec))))
    # a0 is correct to the valuation v0 of f(a0), and a step at working
    # precision w needs an approximant correct to w/2: so prec/2^k, ...,
    # prec/2, prec, starting from the first w with w/2 <= v0.  Between
    # steps the approximant is an exact polynomial, read at each w.
    v0 = res0.effective_valuation()
    schedule = [prec]
    while v0 > 0 and schedule[-1] / 2 > v0:
        schedule.append(schedule[-1] / 2)
    schedule.reverse()
    x = TruncatedSeries.constant(field, a0, INF, varname)
    for w in schedule + [prec] * (max_iter - 1):
        root = x.truncate(w)
        fx = _eval_series_poly([c.truncate(w) for c in coeffs], root)
        v = fx.valuation()
        if v is None:
            if w == prec:
                break
            continue
        # f(x) = O(t^v), so f'(x) is needed only mod t^(w - v)
        dfx = _eval_series_poly([c.truncate(w - v) for c in fprime],
                                x.truncate(w - v))
        step = root - fx / dfx
        x = TruncatedSeries(field, step.coeffs, INF, step.ram, varname)
    else:
        raise InsufficientPrecisionError(
            "Newton iteration failed to converge", suggested=2 * prec)
    if root.prec != prec or fx.prec < prec:
        raise InsufficientPrecisionError(
            f"lifted root is certified only mod t^{fx.prec}, not t^{prec}",
            suggested=2 * prec)
    return root


# ----------------------------------------------------------- newton-puiseux

@dataclass(frozen=True)
class Branch:
    """One solution cycle x(t) through the origin.

    ``multiplicity`` counts how often the cycle divides the input (simple
    when 1).  ``span`` is the number of algebraic-closure solutions the
    stored series represents: the ramification sheets times the degree of
    any field extension the initial coefficients needed.  ``ram`` is the
    reduced ramification index.
    """
    series: TruncatedSeries
    multiplicity: int
    span: int = 1

    @property
    def ram(self) -> int:
        return self.series.reduce_ram().ram

    @property
    def simple(self) -> bool:
        return self.multiplicity == 1

    def __str__(self):
        tag = "simple" if self.simple else f"multiplicity {self.multiplicity}"
        if self.span > 1:
            tag += f", {self.span} conjugates"
        return f"Branch({self.series}; {tag})"


def _x_adic_valuation(f: MultiPoly, xi: int) -> int:
    return min(e[xi] for e in f.terms)


def _divide_x_power(f: MultiPoly, xi: int, k: int) -> MultiPoly:
    out = {}
    for exps, c in f.terms.items():
        key = list(exps)
        key[xi] = exps[xi] - k
        out[tuple(key)] = c
    return f.clone(out)


def _lower_hull(points):
    """Lower convex hull of (i, j) points, i increasing."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) <= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_polygon_edges(f: MultiPoly, xname: str, tname: str):
    """Edges (i1, j1, i2, j2) of the origin-facing Newton polygon, with
    positive slope gamma = (j1 - j2)/(i2 - i1) for branches with val > 0."""
    xi, ti = f.vars.index(xname), f.vars.index(tname)
    support = {}
    for exps in f.terms:
        i, j = exps[xi], exps[ti]
        if i not in support or j < support[i]:
            support[i] = j
    m_zero = min((i for i, j in support.items() if j == 0), default=None)
    if m_zero is None:
        raise NotRegularError("input vanishes identically at t = 0")
    pts = [(i, j) for i, j in support.items() if i <= m_zero]
    hull = _lower_hull(pts)
    edges = []
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        if j1 > j2:
            edges.append((i1, j1, i2, j2))
    return edges


def _edge_polynomial(f: MultiPoly, xname: str, tname: str, edge):
    """Coefficients of the restriction of f to one polygon edge, as a
    univariate polynomial in the segment unknown z: returns (gamma, a, b,
    level, coeff list ascending in z)."""
    i1, j1, i2, j2 = edge
    gamma = Fraction(j1 - j2, i2 - i1)
    a, b = gamma.numerator, gamma.denominator
    level = b * j1 + a * i1
    xi, ti = f.vars.index(xname), f.vars.index(tname)
    deg = (i2 - i1) // b
    coeffs = [f.field.zero] * (deg + 1)
    for exps, c in f.terms.items():
        i, j = exps[xi], exps[ti]
        if b * j + a * i == level and (i - i1) % b == 0 and i1 <= i <= i2:
            coeffs[(i - i1) // b] = coeffs[(i - i1) // b] + c
    return gamma, a, b, level, coeffs


def _coeffs_to_unipoly(coeffs, field, name="z"):
    return MultiPoly(field, (name,), {(k,): c for k, c in enumerate(coeffs)})


def _transform_segment(f: MultiPoly, xname: str, tname: str, a: int, b: int,
                       level: int, c, new_field):
    """Substitute x -> s^a (c + x), t -> s^b and divide by s^level.

    Returns a polynomial over new_field in the same two variable slots,
    with t now standing for s: each t^j x^i becomes s^(a*i + b*j - level)
    x^i, nonnegative on the segment's side of the polygon, and then x
    shifts to c + x."""
    xi, ti = f.vars.index(xname), f.vars.index(tname)
    terms = {}
    for exps, coeff in f.terms.items():
        key = list(exps)
        key[ti] = a * exps[xi] + b * exps[ti] - level
        terms[tuple(key)] = coeff
    g = lift_to_field(f.clone(terms), new_field)
    x = MultiPoly.var(new_field, g.vars, xname)
    return g.compose({xname: x + new_field.of(c)})


def _expand_squarefree(f: MultiPoly, xname: str, tname: str, prec: Fraction,
                       depth: int):
    """All val>0 branches of a squarefree polynomial; list of series."""
    if depth > 64:
        raise BudgetError("Newton polygon recursion exceeded its depth cap")
    field = f.field
    xi = f.vars.index(xname)
    out = []  # (series, span) pairs
    k = _x_adic_valuation(f, xi)
    if k > 0:
        out.append((TruncatedSeries.zero(field, INF, tname), 1))
        f = _divide_x_power(f, xi, k)
    if f.subs_values({xname: field.zero, tname: field.zero}):
        return out
    edges = newton_polygon_edges(f, xname, tname)
    for edge in edges:
        gamma, a, b, level, coeffs = _edge_polynomial(f, xname, tname, edge)
        phi = _coeffs_to_unipoly(coeffs, field)
        roots = _segment_roots(phi, field, b)
        for c_root, mult, rfield, kappa in roots:
            g = _transform_segment(f, xname, tname, a, b, level, c_root, rfield)
            sub_prec = prec * b - a
            if sub_prec <= 0:
                raise InsufficientPrecisionError(
                    "requested precision too small for this segment",
                    suggested=2 * prec + gamma)
            if mult == 1:
                tail = _hensel_continue(g, xname, tname, sub_prec)
                out.append((_assemble(tail, c_root, a, b, rfield, tname),
                            b * kappa))
            else:
                for tail, sub_span in _expand_squarefree(
                        g, xname, tname, Fraction(sub_prec), depth + 1):
                    out.append((_assemble(tail, c_root, a, b, rfield, tname),
                                b * kappa * sub_span))
    return out


def _segment_roots(phi: MultiPoly, field, b: int):
    """Initial branch coefficients for one polygon edge of denominator b.

    phi is the compressed edge polynomial: its roots are the b-th powers of
    the true initial coefficients.  Each returned tuple is (coefficient u0,
    multiplicity, field of u0, compressed-root extension degree kappa); the
    cycle the coefficient starts accounts for b * kappa closure solutions.
    """
    out = []
    zname = phi.vars[0]
    if isinstance(field, ExtensionField):
        if phi.degree_in(zname) != 1:
            raise UnsupportedExtensionError(
                "edge polynomial does not split over the one-step extension")
        if b != 1:
            raise UnsupportedExtensionError(
                "ramified segment over an extension field needs a second step")
        c0 = phi.coeff_of(zname, 0).constant_value()
        c1 = phi.coeff_of(zname, 1).constant_value()
        return [(-c0 / c1, 1, field, 1)]
    const, facs = factor_univariate(phi, zname)
    for fac, mult in facs:
        deg = fac.degree_in(zname)
        if deg == 1:
            z0 = -fac.coeff_of(zname, 0).constant_value()
            u0, ufield = _bth_root(z0, field, b)
            out.append((u0, mult, ufield, 1))
        else:
            if b != 1:
                raise UnsupportedExtensionError(
                    "ramified segment with an irrational compressed root "
                    "needs a second extension step")
            modulus = [fac.coeff_of(zname, k).constant_value()
                       for k in range(deg + 1)]
            ext = ExtensionField(field, modulus, gen_name="w")
            out.append((ext.gen, mult, ext, deg))
    return out


def _bth_root(z0, field, b: int):
    """Some u0 with u0^b = z0, over the field or a one-step extension.

    Any choice represents the same solution cycle: the other roots are the
    ramification sheets."""
    if b == 1:
        return z0, field
    zname = "u"
    radical = MultiPoly(field, (zname,), {(b,): field.one, (0,): -z0})
    const, facs = factor_univariate(radical, zname)
    for fac, _ in facs:
        if fac.degree_in(zname) == 1:
            return -fac.coeff_of(zname, 0).constant_value(), field
    fac = facs[0][0]
    deg = fac.degree_in(zname)
    modulus = [fac.coeff_of(zname, k).constant_value() for k in range(deg + 1)]
    ext = ExtensionField(field, modulus, gen_name="w")
    return ext.gen, ext


def _hensel_continue(g: MultiPoly, xname: str, tname: str, prec) -> TruncatedSeries:
    coeffs = series_poly_from_multipoly(g, xname, tname, INF)
    coeffs = [c.truncate(prec) for c in coeffs]
    return hensel_lift(coeffs, g.field.zero, prec)


def _assemble(tail: TruncatedSeries, c_root, a: int, b: int, field,
              tname: str) -> TruncatedSeries:
    """Branch series t^(a/b) * (c + tail(t^(1/b)))."""
    out_field = tail.field  # the recursion may have extended ``field``
    inner = rescale_exponents(tail, b)
    const = TruncatedSeries.constant(out_field, out_field.of(c_root), INF, tname)
    return shift_exponents(const + inner, Fraction(a, b))


def newton_puiseux(F: MultiPoly, xname: str, tname: str, prec,
                   assume_squarefree: bool = False):
    """Every branch x(t) with x(0) = 0 of F(x, t) = 0, with multiplicities.

    Requires F(x, 0) != 0 (shear first otherwise) and F(0, 0) = 0 for a
    nonempty answer.  Branch multiplicities come from the squarefree
    decomposition; within a squarefree factor every branch is simple.
    Callers that have already certified squarefreeness in ``xname`` can
    skip the decomposition with ``assume_squarefree``.
    """
    if F.is_zero():
        raise InvalidInputError("zero polynomial")
    prec = Fraction(prec)
    if F.subs_values({tname: F.field.zero}).is_zero():
        raise NotRegularError("F(x, 0) vanishes identically; shear first")
    branches = []
    if assume_squarefree:
        from .algebra import content_in
        cont = content_in(F, xname)
        work = F.exact_divide(cont) if not cont.is_constant() else F
        pieces = [(work, 1)]
    else:
        pieces = [(fac, mult) for fac, mult in squarefree_decompose(F)
                  if fac.involves(xname)]
    for fac, mult in pieces:
        for series, span in _expand_squarefree(fac, xname, tname, prec, 0):
            branches.append(Branch(series.truncate(prec) if series.prec > prec
                                   else series, mult, span))
    branches.sort(key=lambda br: (str(br.series)))
    return branches


def branch_count(branches) -> int:
    """Closure solutions with multiplicity; equals ord_x F(x, 0)."""
    return sum(br.multiplicity * br.span for br in branches)


def _root_of_unity(field, r: int):
    """A primitive r-th root of unity, or None if the field has none."""
    if r == 1:
        return field.one
    if r == 2:
        if field.characteristic == 2:
            return None
        return field.of(-1)
    p = field.characteristic
    if p and (p ** getattr(field, "degree", 1) - 1) % r == 0:
        q = p ** getattr(field, "degree", 1)
        # scan for an element of exact order r
        candidate = field.of(2)
        for raw in range(2, min(q, 4000)):
            z = field.of(raw) ** ((q - 1) // r)
            if z != field.one and all(z ** j != field.one
                                      for j in range(1, r)) and z ** r == field.one:
                return z
    return None


def sheet_conjugates(branch: Branch):
    """Expand a ramified cycle into its sheets t^(1/r) -> zeta^j t^(1/r).

    Possible only when the coefficient field has a primitive r-th root of
    unity and the cycle needed no coefficient extension; otherwise returns
    None and the caller should keep the cycle with its span count.
    """
    s = branch.series.reduce_ram()
    r = s.ram
    if r == 1 and branch.span == 1:
        return [branch.series]
    if branch.span != r:
        return None
    zeta = _root_of_unity(s.field, r)
    if zeta is None:
        return None
    out = []
    for j in range(r):
        coeffs = {k: c * zeta ** ((k * j) % r) for k, c in s.coeffs.items()}
        out.append(TruncatedSeries(s.field, coeffs, s.prec, r, s.varname))
    return out


def verify_branch(F: MultiPoly, xname: str, tname: str, br: Branch) -> bool:
    """Substitute the branch into F; the result must vanish to the branch's
    guaranteed precision."""
    F = lift_to_field(F, br.series.field)
    t = TruncatedSeries.variable(F.field, INF, br.series.varname)
    val = eval_poly_at_series(F, {xname: br.series, tname: t})
    return val.valuation() is None


# ------------------------------------------------------------- weierstrass

class WeierstrassData:
    """Factorization F = U * G to finite y-precision.

    G = x^m + a_1(y) x^(m-1) + ... + a_m(y) with a_i(0) = 0; U is a unit at
    the origin, polynomial in x with truncated series coefficients in y.
    The congruence F - U*G = O(y^prec) holds identically in x.
    """

    def __init__(self, unit_coeffs, wpoly_coeffs, degree, prec, field,
                 xname="x", yname="y"):
        self.unit_coeffs = unit_coeffs      # list over x-powers, series in y
        self.wpoly_coeffs = wpoly_coeffs    # [a_1, ..., a_m], series in y
        self.degree = degree
        self.prec = prec
        self.field = field
        self.xname = xname
        self.yname = yname

    def unit_at_origin(self):
        return self.unit_coeffs[0].constant_term()

    def unit_poly(self, like: MultiPoly) -> MultiPoly:
        """U as a polynomial in (x, y), truncated at y^prec."""
        return _series_coeffs_to_poly(self.unit_coeffs, like, self.xname,
                                      self.yname, self.prec)

    def weierstrass_poly(self, like: MultiPoly) -> MultiPoly:
        m = self.degree
        xi = like.vars.index(self.xname)
        key = [0] * len(like.vars)
        key[xi] = m
        out = MultiPoly(like.field, like.vars, {tuple(key): like.field.one})
        series = [None] + list(self.wpoly_coeffs)  # a_i aligned to x^(m-i)
        for i in range(1, m + 1):
            coeffs = [series[i]]
            piece = _series_coeffs_to_poly(coeffs, like, self.xname,
                                           self.yname, self.prec)
            xk = MultiPoly.var(like.field, like.vars, self.xname, m - i) \
                if m - i else MultiPoly.const(like.field, like.vars, 1)
            out = out + piece * xk
        return out


def _series_coeffs_to_poly(series_list, like: MultiPoly, xname, yname, prec):
    field = like.field
    xi = like.vars.index(xname)
    yi = like.vars.index(yname)
    terms = {}
    for xpow, s in enumerate(series_list):
        if s is None:
            continue
        for k, c in s.coeffs.items():
            if Fraction(k, s.ram) >= prec:
                continue
            key = [0] * len(like.vars)
            key[xi] = xpow
            key[yi] = k // s.ram if s.ram > 1 else k
            terms[tuple(key)] = terms.get(tuple(key), field.zero) + c
    return MultiPoly(field, like.vars, terms)


def _poly_inverse_mod_xm(u: MultiPoly, xname: str, m: int) -> MultiPoly:
    """Inverse of a unit polynomial modulo x^m (coefficients in the field)."""
    field = u.field
    c = [u.coeff_of(xname, k).constant_value() for k in range(m)]
    if not c[0]:
        raise InvalidInputError("not a unit at the origin")
    inv0 = 1 / c[0]
    out = [inv0]
    for k in range(1, m):
        acc = field.zero
        for j in range(1, k + 1):
            if j < len(c) and c[j]:
                acc = acc + c[j] * out[k - j]
        out.append(-inv0 * acc)
    xi = u.vars.index(xname)
    terms = {}
    for k, val in enumerate(out):
        if val:
            key = [0] * len(u.vars)
            key[xi] = k
            terms[tuple(key)] = val
    return MultiPoly(field, u.vars, terms)


def _truncate_poly_in(f: MultiPoly, xname: str, m: int) -> MultiPoly:
    xi = f.vars.index(xname)
    return f.clone({e: c for e, c in f.terms.items() if e[xi] < m})


def weierstrass_prepare(F: MultiPoly, prec: int, xname: str = None,
                        yname: str = None) -> WeierstrassData:
    """Compute (U, G) with F = U*G + O(y^prec), G a monic degree-m
    polynomial in x whose non-leading coefficients vanish at y = 0.

    m = ord_x F(x, 0).  Raises NotRegularError when F(x, 0) = 0 and
    NothingToPrepareError when F does not vanish at the origin.
    """
    field = F.field
    xname = xname or F.vars[0]
    yname = yname or F.vars[1]
    f_x0 = F.subs_values({yname: field.zero})
    if f_x0.is_zero():
        raise NotRegularError("F(x, 0) vanishes identically; shear first")
    if F.subs_values({xname: field.zero, yname: field.zero}):
        raise NothingToPrepareError("F(0,0) != 0: F is already a local unit")
    xi = F.vars.index(xname)
    m = min(e[xi] for e in f_x0.terms)
    fk = [F.coeff_of(yname, k) for k in range(prec)]
    u0 = _divide_x_power(f_x0, xi, m)
    v0 = _poly_inverse_mod_xm(u0, xname, m) if m else None
    units = [u0]
    gs = [MultiPoly.var(field, F.vars, xname, m)]
    for k in range(1, prec):
        rhs = fk[k]
        for i in range(1, k):
            rhs = rhs - units[i] * gs[k - i]
        if m:
            gk = _truncate_poly_in(rhs * v0, xname, m)
        else:
            gk = MultiPoly.zero(field, F.vars)
        uk = _divide_x_power(rhs - units[0] * gk, xi, m) if m else rhs
        units.append(uk)
        gs.append(gk)
    # repackage as series in y
    max_xdeg = max(u.degree_in(xname) for u in units)
    unit_coeffs = []
    for xpow in range(max_xdeg + 1):
        coeffs = {}
        for k, u in enumerate(units):
            c = u.coeff_of(xname, xpow).constant_value()
            if c:
                coeffs[k] = c
        unit_coeffs.append(TruncatedSeries(field, coeffs, prec, 1, yname))
    wpoly_coeffs = []
    for i in range(1, m + 1):
        coeffs = {}
        for k, g in enumerate(gs):
            if k == 0:
                continue  # G_0 = x^m contributes no a_i
            c = g.coeff_of(xname, m - i).constant_value()
            if c:
                coeffs[k] = c
        wpoly_coeffs.append(TruncatedSeries(field, coeffs, prec, 1, yname))
    return WeierstrassData(unit_coeffs, wpoly_coeffs, m, prec, field,
                           xname, yname)

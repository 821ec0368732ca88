"""Root lifting in truncated series rings.

Every series is in the one infinitesimal t, so a polynomial handed to
``hensel_lift`` or ``newton_puiseux`` names its parameter ``t``.  Three
entry points:

* ``hensel_lift``: Newton iteration for a simple residual root of a
  polynomial with series coefficients; correct digits double each step.
* ``newton_puiseux``: all branches x(t) with x(0) = 0 of a bivariate
  polynomial, by Newton-polygon segmentation; once a segment root is
  simple, continuation switches to ``hensel_lift``.  An edge of slope a/b
  is expanded without a b-th root of its compressed root z0: t = z0^v T^b
  and x = T^a (z0^u + x1) with u*b - v*a = 1 (D. Duval, Rational Puiseux
  expansions, Compositio Math. 70, 1989), so every coefficient stays in
  the field of the edge roots, and a ``Branch`` is a series in T with
  t = scale * T^B.  Every caller reads the branches in that form.  Each
  squarefree piece is converted once to the dense list of exact series
  that ``hensel_lift`` takes (``series_poly_from_multipoly``), and the
  polygon, the edge polynomials and every segment work on that list: a
  segment (``series.segment_rows``) is the list in T, shifted to head + x
  by Ruffini's rule, both steps on the rows' int codes (no field element
  per coefficient, no series per step), and a nested level expands it as
  it is.
* ``weierstrass_prepare``: effective Weierstrass division F = U * G with G
  monic in x, non-leading coefficients vanishing at y = 0, and U a local
  unit; U and G are polynomials truncated below y^prec.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import (roots_univariate, separable_by_evaluation,
                      squarefree_decompose)
from .errors import (BudgetError, InsufficientPrecisionError, InvalidInputError,
                     NothingToPrepareError, NotRegularError, NotSimpleRootError,
                     UnsupportedExtensionError, VerificationFailureError)
from .fields import ExtensionField
from .poly import MultiPoly
from .series import (INF, TruncatedSeries, horner, positive_precision,
                     segment_rows)


# ----------------------------------------------------------------- hensel

def series_poly_from_multipoly(f: MultiPoly, xname: str):
    """Dense coefficient list in x, each an exact series in t, for a poly
    in (x, t): the one form that Newton-Puiseux and Hensel lifting take."""
    if xname == "t" or "t" not in f.vars:
        raise InvalidInputError("the series parameter must be named t")
    for v in f.vars:
        if v not in (xname, "t") and f.involves(v):
            raise InvalidInputError(f"unexpected variable {v}")
    xi = f.vars.index(xname)
    ti = f.vars.index("t")
    rows = [{} for _ in range(f.degree_in(xname) + 1)]
    for exps, c in f.terms.items():
        rows[exps[xi]][exps[ti]] = c
    return [TruncatedSeries(f.field, row, INF) for row in rows]


def hensel_lift(f, a0, prec) -> TruncatedSeries:
    """Lift a simple residual root a0 of f to a series root mod t^prec.

    ``f`` is a list of TruncatedSeries (ascending x powers) or a MultiPoly
    in x, its first variable, and t.  Requires f(a0) = 0 and f'(a0) != 0 at
    t = 0; otherwise NotSimpleRootError.

    Newton's iteration runs at working precisions that double up to
    ``prec`` (von zur Gathen and Gerhard, Modern Computer Algebra, 9.4),
    with the approximant kept as an exact polynomial, and then reads
    f(root) once more at ``prec``.  From a simple root each step doubles
    the correct digits, so that schedule is the whole iteration: the root
    is returned only once f(root) vanishes mod t^prec, evaluated at that
    full precision, and InsufficientPrecisionError otherwise (the
    coefficients are not known that far, or the iterate did not converge).
    A precision that is not positive is an InvalidInputError; one between
    integers is rounded up, since every exponent is an integer.
    """
    prec = math.ceil(positive_precision(prec))
    if isinstance(f, MultiPoly):
        f = series_poly_from_multipoly(f, f.vars[0])
    if not f:
        raise InvalidInputError("empty polynomial")
    field = f[0].field
    coeffs = [c.truncate(prec) for c in f]
    fprime = [c * k for k, c in enumerate(coeffs)][1:]
    a0 = field.of(a0)
    x = TruncatedSeries.constant(field, a0, prec)
    res0 = horner(coeffs, x)
    if res0.constant_term():
        raise NotSimpleRootError("a0 is not a root of the residual polynomial")
    d0 = horner(fprime, x)
    if not d0.constant_term():
        raise NotSimpleRootError(
            "residual derivative vanishes at a0; the root is not simple")
    # a0 is correct to the valuation v0 of f(a0), and a step at working
    # precision w needs an approximant correct to w/2: so the cutoffs of
    # prec/2^k, ..., prec/2, prec, starting from the first w with
    # w/2 <= v0.  Between steps the approximant is an exact polynomial,
    # read at each w.
    v0 = res0.effective_valuation()
    schedule = [prec]
    while v0 > 0 and -(-schedule[-1] // 2) > v0:
        schedule.append(-(-schedule[-1] // 2))
    schedule.reverse()
    x = TruncatedSeries.constant(field, a0)
    for w in schedule + [prec]:
        root = x.truncate(w)
        fx = horner([c.truncate(w) for c in coeffs], root)
        v = fx.valuation()
        if v is None:
            if w == prec:
                break
            continue
        # f(x) = O(t^v), so f'(x) is needed only mod t^(w - v)
        dfx = horner([c.truncate(w - v) for c in fprime], x.truncate(w - v))
        x = (root - fx / dfx).exact()
    else:
        raise InsufficientPrecisionError("Newton iteration failed to converge")
    if root.prec != prec or fx.prec < prec:
        raise InsufficientPrecisionError(
            f"lifted root is certified only mod t^{fx.prec}, not t^{prec}")
    return root


# ----------------------------------------------------------- newton-puiseux

class Branch(namedtuple("Branch", "series multiplicity span levels",
                        defaults=(1, ()))):
    """One solution cycle x(t) through the origin, as a series in its own
    T with t = scale * T^B.

    The series' exponents and precision are in T, so the coefficients stay
    in the field of the edge roots and no b-th root is adjoined (Duval's
    rational Puiseux expansion).  With no ramified level B and the scale
    are 1 and the series is x(t) itself.  ``multiplicity`` counts how
    often the cycle divides the input (simple when 1).  ``span`` is the
    number of algebraic-closure solutions the stored series represents:
    the ramification sheets times the degree of any field extension the
    edge roots needed.  ``levels`` holds (a, b, z0) per Newton-polygon
    level, slope a/b and compressed root z0: the one record of the
    substitutions, from which B and the scale follow."""
    __slots__ = ()

    @property
    def B(self) -> int:
        return _t_in_T(self.levels)[0]

    @property
    def scale(self):
        return self.series.field.of(_t_in_T(self.levels)[1])

    @property
    def simple(self) -> bool:
        return self.multiplicity == 1

    def __str__(self):
        tag = "simple" if self.simple else f"multiplicity {self.multiplicity}"
        if self.span > 1:
            tag += f", {self.span} conjugates"
        if self.scale != 1:
            tag += f", scale {self.scale}"
        return f"Branch({self.series.format('t', self.B)}; {tag})"


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


def newton_polygon_edges(rows):
    """Edges (i1, j1, i2, j2) of the origin-facing Newton polygon of the
    dense x-coefficient list ``rows``, with positive slope
    gamma = (j1 - j2)/(i2 - i1) for branches with val > 0.  The rows
    never all vanish at t = 0: ``newton_puiseux`` refuses F(x, 0) = 0, and
    a nested segment at T = 0 is its nonzero edge polynomial shifted."""
    support = {i: row.valuation() for i, row in enumerate(rows)
               if not row.is_zero_to_precision()}
    m_zero = min((i for i, j in support.items() if j == 0), default=None)
    if m_zero is None:
        raise VerificationFailureError(
            "Newton polygon input vanishes identically at t = 0")
    # the hull ends at (m_zero, 0), the only point kept with j = 0, so
    # every edge falls
    hull = _lower_hull([(i, j) for i, j in support.items() if i <= m_zero])
    return [(i1, j1, i2, j2) for (i1, j1), (i2, j2) in zip(hull, hull[1:])]


def _edge_polynomial(rows, edge):
    """Coefficients of the restriction of ``rows`` to one polygon edge, as
    a univariate polynomial in the segment unknown z: returns (a, b,
    level, coeff list ascending in z), where a/b is the slope gamma in
    lowest terms and the coefficient of z^k is that of x^i t^j with
    i = i1 + k*b on the edge's line b*j + a*i = level."""
    i1, j1, i2, j2 = edge
    gamma = Fraction(j1 - j2, i2 - i1)
    a, b = gamma.numerator, gamma.denominator
    level = b * j1 + a * i1
    coeffs = [rows[i].coeff_at((level - a * i) // b)
              for i in range(i1, i2 + 1, b)]
    return a, b, level, coeffs


def _bezout_pair(a: int, b: int):
    """(u, v) with u*b - v*a = 1, 0 <= v < b, for a/b in lowest terms."""
    v = -pow(a, -1, b) % b
    return (1 + v * a) // b, v


def _t_in_T(levels):
    """(B, c) with t = c T^B for a branch of these levels: the level
    t = z0^v T^b over a nested level's T = c' T'^B' gives B = b B' and
    c = z0^v c'^b."""
    B, c = 1, 1
    for a, b, z0 in reversed(levels):
        B, c = b * B, z0 ** _bezout_pair(a, b)[1] * c ** b
    return B, c


def _expand_squarefree(rows, field, prec: Fraction, depth: int):
    """All val>0 branches of a squarefree polynomial, given as its dense
    x-coefficient list over ``field``, as (levels, span, series) in
    ``Branch``'s terms.

    One rule per edge root z0: its segment (truncated below ``sub_prec``
    only when z0 is simple) must vanish at x1 = 0, since the edge terms
    sum to a power of z0 times phi(z0) = 0, so a segment that does not is
    a defect, not a Hensel failure; a simple root is then lifted by
    ``hensel_lift`` and a multiple one expanded at the next level, and the
    branch series is assembled from that tail."""
    if depth > 64:
        raise BudgetError("Newton polygon recursion exceeded its depth cap")
    out = []
    k = next(i for i, row in enumerate(rows) if not row.is_zero_to_precision())
    if k > 0:
        out.append(((), 1, TruncatedSeries.zero(field)))
        rows = rows[k:]
    if rows[0].constant_term():
        return out
    for edge in newton_polygon_edges(rows):
        a, b, level, coeffs = _edge_polynomial(rows, edge)
        phi = MultiPoly(field, ("z",),
                        {(k,): c for k, c in enumerate(coeffs)})
        u, v = _bezout_pair(a, b)
        for z0, mult, rfield, kappa in _segment_roots(phi, field):
            sub_prec = prec * b - a
            if sub_prec <= 0:
                raise InsufficientPrecisionError(
                    "requested precision too small for this segment")
            # Duval's substitution t = z0^v T^b, x = T^a (z0^u + x1): the
            # edge terms become phi(z0) z0^const, so no b-th root is needed
            head, c = z0 ** u, z0 ** v
            segment = segment_rows(rows, a, b, level, head, c, rfield,
                               sub_prec if mult == 1 else None)
            if segment[0].constant_term():
                raise VerificationFailureError(
                    "segment does not vanish at its edge root: phi(z0) != 0")
            if mult == 1:
                tails = [((), 1, hensel_lift(segment, rfield.zero, sub_prec))]
            else:
                tails = _expand_squarefree(segment, rfield, Fraction(sub_prec),
                                           depth + 1)
            for levels, sub_span, tail in tails:
                out.append((((a, b, z0),) + levels, b * kappa * sub_span,
                            _assemble(tail, head, a, *_t_in_T(levels))))
    return out


def _segment_roots(phi: MultiPoly, field):
    """The compressed roots of one edge polynomial phi: (root z0,
    multiplicity, field of z0, extension degree kappa of z0).  A root of
    an edge of slope a/b starts a cycle of b * kappa closure solutions."""
    zname = phi.vars[0]
    if isinstance(field, ExtensionField):
        if phi.degree_in(zname) != 1:
            raise UnsupportedExtensionError(
                "edge polynomial does not split over the one-step extension")
        c0 = phi.coeff_of(zname, 0).constant_value()
        c1 = phi.coeff_of(zname, 1).constant_value()
        return [(-c0 / c1, 1, field, 1)]
    return [(z0, mult, zfield, fac.degree_in(zname))
            for fac, z0, zfield, mult in roots_univariate(phi, zname, "w")]


def _assemble(tail, head, a: int, sub_B: int, sub_scale) -> TruncatedSeries:
    """The series x = T^a (head + tail) in the T of the tail: a tail of a
    nested level is a series in T' with T = sub_scale * T'^sub_B, so x is
    head + tail shifted by a * sub_B, times sub_scale^a (sub_B and
    sub_scale are 1 for a Hensel tail).  Over the tail's field (a nested
    level may have extended the field of head)."""
    field = tail.field
    s = (tail + field.of(head))._shifted(a * sub_B)
    m = field.of(sub_scale) ** a
    return s if m == field.one else s * m


def newton_puiseux(F: MultiPoly, xname: str, prec):
    """Every branch x(t) with x(0) = 0 of F(x, t) = 0, with multiplicities.

    Requires F(x, 0) != 0 (shear first otherwise) and F(0, 0) = 0 for a
    nonempty answer.  F itself is the one piece expanded when
    ``separable_by_evaluation`` proves it separable: its content in
    ``xname`` is then a unit of k[[t]], which moves no Newton polygon,
    edge root or Newton iterate.  Else the squarefree factors carry the
    multiplicities.  That fallback proves F squarefree in k[x, t], not
    separable in x: over F_p a piece with dF/dx = 0 passes with p-fold
    roots (its expansion ends at NotSimpleRootError or the depth cap), so a
    caller that needs simple branches proves F separable and calls
    ``separable_branches``.  Branches come in the order the expansion finds
    them (piece, polygon edge, then edge root in ``factor_univariate``'s
    order), which is deterministic.  A
    segment that ``prec`` is too short for raises
    InsufficientPrecisionError; the caller picks the next precision.  A
    precision that is not positive is an InvalidInputError.
    """
    prec = positive_precision(prec)
    if F.is_zero():
        raise InvalidInputError("zero polynomial")
    rows = series_poly_from_multipoly(F, xname)
    if F.coeff_of("t", 0).is_zero():
        raise NotRegularError("F(x, 0) vanishes identically; shear first")
    if separable_by_evaluation(F, xname):
        pieces = [(rows, 1)]
    else:
        pieces = [(series_poly_from_multipoly(fac, xname), mult)
                  for fac, mult in squarefree_decompose(F)
                  if fac.involves(xname)]
    return _branches(pieces, F.field, prec)


def separable_branches(F: MultiPoly, xname: str, prec):
    """``newton_puiseux`` of an F that the caller has proved separable in
    ``xname``, with F(x, 0) != 0: F is the one piece, so no proof runs
    here and every branch is simple."""
    return _branches([(series_poly_from_multipoly(F, xname), 1)], F.field,
                     positive_precision(prec))


def _branches(pieces, field, prec):
    """The branches of the squarefree pieces (series rows, multiplicity)."""
    return [Branch(series.truncate(prec * _t_in_T(levels)[0]), mult, span,
                   levels)
            for piece, mult in pieces
            for levels, span, series in _expand_squarefree(piece, field,
                                                            prec, 0)]


# ------------------------------------------------------------- weierstrass

class WeierstrassData(namedtuple("WeierstrassData",
                                 "degree unit weierstrass")):
    """F = unit * weierstrass + O(y^prec), both polynomials in (x, y)
    truncated below y^prec.

    ``weierstrass`` = x^m + a_1(y) x^(m-1) + ... + a_m(y) with a_i(0) = 0
    and m = ``degree``; ``unit`` does not vanish at the origin."""
    __slots__ = ()


def weierstrass_prepare(F: MultiPoly, prec: int) -> WeierstrassData:
    """Prepare F in its variables (x, y): U = sum u_k y^k and G = sum g_k y^k
    are solved order by order in y from F_k = sum_i u_i g_(k-i), where F_k
    is the y^k coefficient of F, g_0 = x^m and g_k has x-degree below m.

    m = ord_x F(x, 0).  Raises NotRegularError when F(x, 0) = 0 and
    NothingToPrepareError when F does not vanish at the origin.
    """
    field = F.field
    xname, second = F.vars[:2]
    f_x0 = F.coeff_of(second, 0)
    if f_x0.is_zero():
        raise NotRegularError("F(x, 0) vanishes identically; shear first")
    if F.constant_value():
        raise NothingToPrepareError("F(0,0) != 0: F is already a local unit")
    m = _x_adic_valuation(f_x0, 0)
    units = [_divide_x_power(f_x0, 0, m)]
    # u_0 is a unit mod x^m: invert it as a series in x, read back as a
    # polynomial
    inverse = TruncatedSeries(
        field, {e[0]: c for e, c in units[0].terms.items()}, m).invert_unit()
    v0 = F.clone({(k,) + (0,) * (len(F.vars) - 1): c
                  for k, c in inverse.coeffs.items()})
    gs = [MultiPoly.var(field, F.vars, xname, m)]
    for k in range(1, prec):
        rhs = F.coeff_of(second, k)
        for i in range(1, k):
            rhs = rhs - units[i] * gs[k - i]
        gk = rhs * v0
        gk = gk.clone({e: c for e, c in gk.terms.items() if e[0] < m})
        units.append(_divide_x_power(rhs - units[0] * gk, 0, m))
        gs.append(gk)
    y = MultiPoly.var(field, F.vars, second)
    unit = sum((u * y ** k for k, u in enumerate(units) if k < prec),
               MultiPoly.zero(field, F.vars))
    weierstrass = sum((g * y ** k for k, g in enumerate(gs) if k), gs[0])
    return WeierstrassData(m, unit, weierstrass)

"""Infinitesimal deformation engine.

Count the solutions of a curve pair inside the infinitesimal neighborhood
of the origin after perturbing the defining coefficients along a seeded
random direction scaled by t.  The count is certified, never assumed:

* the deformed resultant R(y, t) must be squarefree in y (nonvanishing
  discriminant as a polynomial in t),
* every witness pair must satisfy both deformed equations to working
  precision, with positive valuation in both coordinates,
* the Jacobian of the pair must be nonzero at every witness (deformed
  intersections are transverse).

Failures raise GenericityFailureError and the driver reseeds
deterministically, up to a retry budget.

The x-coordinate over a simple y-branch is recovered from the degree-one
member S1 of the subresultant chain whose degree-0 end is the resultant, so
one chain per attempt gives both: when y0 is a simple root of the
resultant, the gcd of the two specialized polynomials is linear and equals
(up to a unit) S11(y0) x + S10(y0), so x = -S10/S11 is the unique lift.

Two-scale analysis deforms one curve only, at a coarse scale t, and reads
the nearby coarse points P off the y-eliminant R = Res_x(f_t, g_t): by the
resultant form of Bezout's theorem, a root y_P of R has order I_P(f_t, g_t)
once no two coarse points share a y-coordinate (certified by the
degree-one subresultant).  I_P is the multiplicity that a further fine
deformation splits at P, so sum over P of I_P equals the count at the
origin; this is what the staged-specialization and left/right-factoring
checks consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (check_local_pair, gcd, lift_to_field, resultant,
                      resultant_of_chain, shear_to_general_position,
                      subresultant_prs)
from .errors import (GenericityFailureError, InsufficientPrecisionError,
                     InvalidInputError, SharedComponentError,
                     UnsupportedExtensionError)
from .fields import ExtensionField
from .poly import MultiPoly
from .lifting import newton_puiseux
from .series import INF, TruncatedSeries, eval_poly_at_series

VARS3 = ("x", "y", "t")


def derived_seed(seed: int, attempt: int) -> int:
    return (seed * 1000003 + 7919 * attempt + attempt * attempt) & 0x7FFFFFFF


def random_direction(rng: random.Random, field, degree: int,
                     variables=VARS3, xname="x", yname="y") -> MultiPoly:
    """A random member of the full family of degree <= ``degree`` curves,
    with small integer coefficients, not identically zero."""
    xi = variables.index(xname)
    yi = variables.index(yname)
    while True:
        terms = {}
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                c = rng.randint(-9, 9)
                if c:
                    key = [0] * len(variables)
                    key[xi] = i
                    key[yi] = j
                    terms[tuple(key)] = field.of(c)
        p = MultiPoly(field, variables, terms)
        if not p.is_zero():
            return p


def deform_polynomial(f: MultiPoly, direction: MultiPoly, tname="t",
                      power: int = 1) -> MultiPoly:
    """f + t^power * direction, in the three-variable frame."""
    if direction.is_zero():
        raise InvalidInputError("zero deformation direction")
    f3 = f if tname in f.vars else f.extend_vars(VARS3)
    d3 = direction if direction.vars == f3.vars else direction.extend_vars(f3.vars)
    tmono = MultiPoly.var(f3.field, f3.vars, tname, power)
    return f3 + tmono * d3


@dataclass(frozen=True)
class SolutionBranch:
    """One certified nearby-solution cycle of a deformed pair."""
    x: TruncatedSeries
    y: TruncatedSeries
    span: int


def _eliminant_and_s1(ft: MultiPoly, gt: MultiPoly, xname: str):
    """R = Res_x(ft, gt), exact and signed, and the degree-one member S1
    (None when the chain skips degree one), both off one subresultant
    chain of the pair."""
    chain = subresultant_prs(ft, gt, xname)
    s1 = next((m for m in reversed(chain) if m.degree_in(xname) == 1), None)
    return resultant_of_chain(ft, gt, chain, xname), s1


def _series_var(field, varname="t"):
    return TruncatedSeries.variable(field, INF, varname)


def _eval_candidates(field):
    p = field.characteristic
    limit = 24 if p == 0 else min(24, p)
    return range(1, limit)


def certify_squarefree_in(R: MultiPoly, main: str, tname: str):
    """Certify that R has no repeated factor of positive ``main``-degree.

    Evaluation shortcut: a single t-value where the specialized gcd of R
    and dR/dmain is constant proves the discriminant is not identically
    zero.  Falls back to an exact bivariate gcd when every candidate value
    is inconclusive."""
    field = R.field
    if R.degree_in(main) < 2:
        return
    dR = R.derivative(main)
    if dR.is_zero():
        raise GenericityFailureError("inseparable deformed resultant")
    lc = R.leading_coeff_in(main)
    for raw in _eval_candidates(field):
        tau = field.of(raw)
        if not lc.subs_values({tname: tau}).constant_value():
            continue
        r0 = R.subs_values({tname: tau})
        d0 = dR.subs_values({tname: tau})
        if r0.is_zero() or d0.is_zero():
            continue
        if gcd(r0, d0).is_constant():
            return
    shared = gcd(R, dR)
    if shared.degree_in(main) > 0:
        raise GenericityFailureError(
            "deformed resultant has a repeated factor")


def certified_solutions(ft: MultiPoly, gt: MultiPoly, prec,
                        xname="x", yname="y", tname="t"):
    """All solution branches of the deformed pair through the origin, with
    genericity certificates.  Raises GenericityFailureError when any
    certificate fails (caller reseeds)."""
    field = ft.field
    prec = Fraction(prec)
    R, s1 = _eliminant_and_s1(ft, gt, xname)
    R0 = R.subs_values({tname: field.zero})
    if R0.is_zero():
        raise SharedComponentError("resultant vanishes at t = 0")
    certify_squarefree_in(R, yname, tname)
    ybranches = newton_puiseux(R, yname, tname, prec, assume_squarefree=True)
    if any(not br.simple for br in ybranches):
        raise GenericityFailureError("non-simple branch after deformation")
    if s1 is None:
        raise GenericityFailureError("subresultant chain skips degree one")
    s11 = s1.coeff_of(xname, 1)
    s10 = s1.coeff_of(xname, 0)
    jac = (ft.derivative(xname) * gt.derivative(yname)
           - ft.derivative(yname) * gt.derivative(xname))
    sols = []
    for br in ybranches:
        bf = br.series.field
        lift = (lambda p: lift_to_field(p, bf)) if bf != field else (lambda p: p)
        tser = _series_var(bf, br.series.varname).truncate(prec)
        assign = {xname: bf.zero, yname: br.series, tname: tser}
        den = eval_poly_at_series(lift(s11), assign)
        if den.is_zero_to_precision():
            raise GenericityFailureError(
                "degree-one subresultant vanishes along a branch")
        num = eval_poly_at_series(lift(s10), assign)
        xser = -(num / den)
        vx = xser.valuation()
        if vx is not None and vx <= 0:
            raise GenericityFailureError(
                "branch x-coordinate does not specialize to the origin; "
                "the shear precondition is violated")
        wassign = {xname: xser, yname: br.series, tname: tser}
        for eq in (ft, gt):
            if eval_poly_at_series(lift(eq), wassign).valuation() is not None:
                raise GenericityFailureError(
                    "witness fails to satisfy a deformed equation")
        jval = eval_poly_at_series(lift(jac), wassign)
        if jval.is_zero_to_precision():
            raise GenericityFailureError(
                "deformed intersection is not transverse at a witness")
        sols.append(SolutionBranch(xser, br.series, br.span))
    return sols


def certified_count_only(ft: MultiPoly, gt: MultiPoly,
                         xname="x", yname="y", tname="t") -> int:
    """Solution count through the origin without materializing witnesses.

    Used over extension fields, where branch expansion would need a second
    extension step.  Counts Newton-polygon edge extents of the y-eliminant
    after certifying that every edge polynomial is squarefree, the deformed
    resultant has no repeated y-factor, and the deformed intersections are
    transverse.  The shear precondition (origin is the only common zero on
    y = 0, constant top x-coefficients) makes the y-side count exact."""
    from .lifting import newton_polygon_edges, _edge_polynomial, _coeffs_to_unipoly

    field = ft.field
    jac = (ft.derivative(xname) * gt.derivative(yname)
           - ft.derivative(yname) * gt.derivative(xname))
    main, other = yname, xname
    R = resultant(ft, gt, other)
    if R.subs_values({tname: field.zero}).is_zero():
        raise SharedComponentError("resultant vanishes at t = 0")
    certify_squarefree_in(R, main, tname)
    _certify_transverse_eval(R, ft, gt, jac, main, other, tname)
    total = 0
    mi = R.vars.index(main)
    k0 = min(e[mi] for e in R.terms)
    total += k0  # exact factor main^k0: solutions pinned at 0
    work = R.clone({tuple(e[i] if i != mi else e[i] - k0
                          for i in range(len(e))): c
                    for e, c in R.terms.items()}) if k0 else R
    if work.subs_values({main: field.zero, tname: field.zero}):
        return total  # no further solutions through 0
    for edge in newton_polygon_edges(work, main, tname):
        i1, j1, i2, j2 = edge
        _, _, _, _, coeffs = _edge_polynomial(work, main, tname, edge)
        phi = _coeffs_to_unipoly(coeffs, field)
        zname = phi.vars[0]
        dphi = phi.derivative(zname)
        if dphi.is_zero():
            raise GenericityFailureError("inseparable edge polynomial")
        if not gcd(phi, dphi).is_constant():
            raise GenericityFailureError("edge polynomial is not squarefree")
        total += i2 - i1
    return total


def _certify_transverse_eval(R, ft, gt, jac, main, other, tname):
    """Certify the deformed intersections are transverse without expanding
    witnesses: at some t-value the eliminant shares no root with the
    jacobian's eliminant.  A constant specialized gcd at one value is a
    proof; running out of candidate values fails the certificate."""
    field = ft.field
    if jac.is_zero():
        raise GenericityFailureError("identically singular deformed pair")
    for raw in _eval_candidates(field):
        tau = field.of(raw)
        r0 = R.subs_values({tname: tau})
        if r0.is_zero() or r0.degree_in(main) != R.degree_in(main):
            continue
        ok = True
        for h in (ft, gt):
            h0 = h.subs_values({tname: tau})
            j0 = jac.subs_values({tname: tau})
            if h0.is_zero() or j0.is_zero() or not h0.involves(other):
                ok = False
                break
            w0 = resultant(h0, j0, other) if j0.involves(other) else j0
            if w0.is_zero() or not gcd(r0, w0).is_constant():
                ok = False
                break
        if ok:
            return
    raise GenericityFailureError(
        "could not certify transversality of the deformed intersections")


def default_precision(f: MultiPoly, g: MultiPoly) -> int:
    d = max(1, f.total_degree())
    e = max(1, g.total_degree())
    return 2 * d * e + 2


@dataclass
class DeformationOutcome:
    count: int
    seed_used: int
    shear: tuple
    precision: Fraction
    solutions: list


def deformation_count(f: MultiPoly, g: MultiPoly, seed: int = 0,
                      prec=None, max_retries: int = 8,
                      xname="x", yname="y") -> DeformationOutcome:
    """The infinitesimal-neighborhood solution count of (f, g) at the origin:
    perturb every coefficient of both curves and count all nearby
    solutions."""
    check_local_pair(f, g)
    return _deformation_count(f, g, seed, prec, max_retries, xname, yname)


def _deformation_count(f: MultiPoly, g: MultiPoly, seed: int = 0,
                       prec=None, max_retries: int = 8,
                       xname="x", yname="y") -> DeformationOutcome:
    """``deformation_count`` of a pair that passed ``check_local_pair``."""
    prec = Fraction(prec if prec is not None else default_precision(f, g))
    field = f.field
    fs, gs, lam, mu = shear_to_general_position(f, g)
    d, e = fs.total_degree(), gs.total_degree()
    last_error = None
    for attempt in range(max_retries):
        rng = random.Random(derived_seed(seed, attempt))
        try:
            ft = deform_polynomial(fs.extend_vars(VARS3),
                                   random_direction(rng, field, d))
            gt = deform_polynomial(gs.extend_vars(VARS3),
                                   random_direction(rng, field, e))
            sols = None
            if not isinstance(field, ExtensionField):
                try:
                    sols = certified_solutions(ft, gt, prec, xname, yname,
                                               "t")
                except UnsupportedExtensionError:
                    pass
            count = (certified_count_only(ft, gt, xname, yname, "t")
                     if sols is None else sum(s.span for s in sols))
            return DeformationOutcome(count, derived_seed(seed, attempt),
                                      (lam, mu), prec, sols or [])
        except (GenericityFailureError, InsufficientPrecisionError) as err:
            if isinstance(err, InsufficientPrecisionError):
                prec = Fraction(err.suggested) if err.suggested else 2 * prec
            last_error = err
    raise GenericityFailureError(
        f"genericity certification failed after {max_retries} attempts "
        f"(last: {last_error})")


# ------------------------------------------------------------- two scales

@dataclass
class TwoScaleAnalysis:
    """The nearby points of a one-sided coarse deformation, grouped.

    groups: sorted (k, m) pairs, one per solution cycle of the coarse
    eliminant: k conjugate coarse points, each carrying the local
    multiplicity m that a further fine deformation splits into m simple
    points; total = sum(k * m) is the multiplicity at the origin."""
    groups: list
    total: int
    seed_used: int
    shear: tuple
    precision: Fraction


def two_scale_analysis(f: MultiPoly, g: MultiPoly, seed: int = 0,
                       coarse_side: str = "left", prec=None,
                       max_retries: int = 8,
                       xname="x", yname="y") -> TwoScaleAnalysis:
    """Deform one side at a coarse scale t and group the multiplicity at
    the origin by the nearby coarse points P it splits into.

    coarse_side "left" perturbs f, "right" perturbs g.  Each y-branch of
    R = Res_x(f_t, g_t) with multiplicity m and span k is one group (k, m):
    once every y-root carries a single coarse point, the order of R there
    is I_P(f_t, g_t), the multiplicity a fine deformation of either side
    splits at P.  The certificate is the degree-one subresultant's
    x-coefficient, nonzero along every branch; a failure reseeds.
    """
    check_local_pair(f, g)
    if coarse_side not in ("left", "right"):
        raise InvalidInputError("coarse_side must be 'left' or 'right'")
    field = f.field
    if isinstance(field, ExtensionField):
        raise UnsupportedExtensionError(
            "two-scale analysis runs over prime-type fields only")
    fs, gs, lam, mu = shear_to_general_position(f, g)
    prec = Fraction(prec if prec is not None else default_precision(fs, gs))
    f3, g3 = fs.extend_vars(VARS3), gs.extend_vars(VARS3)
    last_error = None
    for attempt in range(max_retries):
        rng = random.Random(derived_seed(seed, 101 + attempt))
        d_coarse = random_direction(
            rng, field, fs.total_degree() if coarse_side == "left"
            else gs.total_degree())
        ft = deform_polynomial(f3, d_coarse) if coarse_side == "left" else f3
        gt = deform_polynomial(g3, d_coarse) if coarse_side == "right" else g3
        try:
            R, s1 = _eliminant_and_s1(ft, gt, xname)
            R0 = R.subs_values({"t": field.zero})
            total = min(e[R0.vars.index(yname)] for e in R0.terms)
            branches = newton_puiseux(R, yname, "t", prec)
            if s1 is None:
                raise GenericityFailureError(
                    "subresultant chain skips degree one")
            s11 = s1.coeff_of(xname, 1)
            for br in branches:
                bf = br.series.field
                tser = _series_var(bf, br.series.varname).truncate(prec)
                den = eval_poly_at_series(
                    lift_to_field(s11, bf) if bf != field else s11,
                    {xname: bf.zero, yname: br.series, "t": tser})
                if den.is_zero_to_precision():
                    raise GenericityFailureError(
                        "two coarse points share a y-coordinate")
            groups = sorted((br.span, br.multiplicity) for br in branches)
            if sum(k * m for k, m in groups) != total:
                raise GenericityFailureError(
                    "coarse groups do not account for the multiplicity")
            return TwoScaleAnalysis(groups, total,
                                    derived_seed(seed, 101 + attempt),
                                    (lam, mu), prec)
        except (GenericityFailureError, InsufficientPrecisionError) as err:
            if isinstance(err, InsufficientPrecisionError):
                prec = Fraction(err.suggested) if err.suggested else 2 * prec
            last_error = err
    raise GenericityFailureError(
        f"two-scale certification failed after {max_retries} attempts "
        f"(last: {last_error})")

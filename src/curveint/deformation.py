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
member of the subresultant chain: when y0 is a simple root of the
resultant, the gcd of the two specialized polynomials is linear and equals
(up to a unit) S11(y0) x + S10(y0), so x = -S10/S11 is the unique lift.

Two-scale runs (s coarse, t fine, realized as s = tau, t = tau^E with E
chosen from exact separation bounds) expose the intermediate fiber points
of a partial deformation together with their fine-scale multiplicities;
this is what the staged-specialization and left/right-factoring checks
consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (check_local_pair, gcd, lift_to_field, resultant,
                      shear_to_general_position, squarefree_decompose,
                      subresultant_prs)
from .errors import (GenericityFailureError, InsufficientPrecisionError,
                     InvalidInputError, SharedComponentError,
                     UnsupportedExtensionError)
from .fields import ExtElement, ExtensionField
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


def _first_degree_one(chain, xname):
    for member in reversed(chain):
        if member.degree_in(xname) == 1:
            return member
    return None


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
    R = resultant(ft, gt, xname)
    R0 = R.subs_values({tname: field.zero})
    if R0.is_zero():
        raise SharedComponentError("resultant vanishes at t = 0")
    certify_squarefree_in(R, yname, tname)
    ybranches = newton_puiseux(R, yname, tname, prec, assume_squarefree=True)
    if any(not br.simple for br in ybranches):
        raise GenericityFailureError("non-simple branch after deformation")
    chain = subresultant_prs(ft, gt, xname)
    s1 = _first_degree_one(chain, xname)
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
                      prec=None, mode: str = "both", max_retries: int = 8,
                      xname="x", yname="y") -> DeformationOutcome:
    """The infinitesimal-neighborhood solution count of (f, g) at the origin.

    mode "both" perturbs every coefficient of both curves and counts all
    nearby solutions; "left"/"right" perturb a single side and count the
    distinct nearby points (cardinality, not multiplicity), via a two-scale
    run."""
    check_local_pair(f, g)
    if mode in ("left", "right"):
        analysis = two_scale_analysis(f, g, seed, coarse_side=mode,
                                      prec=prec, max_retries=max_retries,
                                      xname=xname, yname=yname)
        return DeformationOutcome(sum(k for k, _ in analysis.groups),
                                  analysis.seed_used, analysis.shear,
                                  analysis.precision, [])
    if mode != "both":
        raise InvalidInputError(f"unknown mode {mode!r}")
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
            if isinstance(field, ExtensionField):
                count = certified_count_only(ft, gt, xname, yname, "t")
                return DeformationOutcome(count, derived_seed(seed, attempt),
                                          (lam, mu), prec, [])
            try:
                sols = certified_solutions(ft, gt, prec, xname, yname, "t")
            except UnsupportedExtensionError:
                count = certified_count_only(ft, gt, xname, yname, "t")
                return DeformationOutcome(count, derived_seed(seed, attempt),
                                          (lam, mu), prec, [])
            count = sum(s.span for s in sols)
            return DeformationOutcome(count, derived_seed(seed, attempt),
                                      (lam, mu), prec, sols)
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
    """Grouped fine-scale solutions of a coarse+fine deformation.

    groups: list of (intermediate_point_count, fine_multiplicity) pairs,
    one per distinct coarse-stage solution cycle; the Bezout-style identity
    total = sum(k * m) relates them to the plain deformation count."""
    groups: list
    total: int
    seed_used: int
    shear: tuple
    precision: Fraction
    scale_exponent: int
    threshold: Fraction


def _coefficient_field_degree(series_list, theta):
    """Degree over the base field of the subfield generated by all series
    coefficients at exponents below theta (1 when every such coefficient
    is base-valued)."""
    samples = []
    field = None
    for s in series_list:
        if not isinstance(s.field, ExtensionField):
            continue
        for k, c in s.coeffs.items():
            if Fraction(k, s.ram) < theta and len(c.num) > 1:
                samples.append(c)
                field = s.field
    if not samples:
        return 1
    base = field.base
    wvars = ("z", "w")
    modulus = MultiPoly(base, wvars,
                        {(0, k): c for k, c in enumerate(field.modulus)})
    best = 1
    for mult_seed in range(1, 4):
        combo_coeffs = {}
        for idx, c in enumerate(samples):
            weight = base.of(mult_seed ** idx if mult_seed > 1 else 1)
            for k, coeff in enumerate(c.coeffs):
                combo_coeffs[k] = combo_coeffs.get(k, base.zero) + weight * coeff
        combo = MultiPoly(base, wvars,
                          {(0, k): v for k, v in combo_coeffs.items() if v})
        zpoly = MultiPoly.var(base, wvars, "z")
        target = zpoly - combo
        if not target.involves("w"):
            continue
        res = resultant(modulus, target, "w")
        dec = squarefree_decompose(res)
        deg = dec.reduced_product(res).degree_in("z")
        best = max(best, deg)
    return best


def _structural_separation(a: TruncatedSeries, b: TruncatedSeries, window):
    """First exponent below ``window`` where the two series visibly differ,
    or None if they agree on everything known below it.  Series over
    different extension fields are compared through their base-descendable
    coefficients; structurally incomparable coefficients count as a
    difference."""
    exps = set()
    for s in (a, b):
        for k in s.coeffs:
            e = Fraction(k, s.ram)
            if e < window:
                exps.add(e)
    for e in sorted(exps):
        ca = a.coeff_at(e) if e < a.prec else None
        cb = b.coeff_at(e) if e < b.prec else None
        if a.field == b.field:
            if ca != cb:
                return e
            continue
        da = _descend(ca)
        db = _descend(cb)
        if da is None or db is None or da != db:
            return e
    return None


def _descend(c):
    """Base-field value of an extension element when it has one."""
    if c is None:
        return None
    if isinstance(c, ExtElement):
        if len(c.num) == 0:
            return 0
        if len(c.num) == 1:
            return c.coeffs[0]
        return None
    return c


def _pair_separation(s1: SolutionBranch, s2: SolutionBranch, window):
    vx = _structural_separation(s1.x, s2.x, window)
    vy = _structural_separation(s1.y, s2.y, window)
    if vx is None and vy is None:
        return None
    if vx is None:
        return vy
    if vy is None:
        return vx
    return min(vx, vy)


def _self_separation(sol: SolutionBranch, window):
    """First exponent below ``window`` where a solution cycle's own
    conjugates part ways: a fractional exponent or a proper extension
    coefficient.  None when the cycle is rational and unramified there."""
    if sol.span == 1:
        return None
    found = None
    for s in (sol.x, sol.y):
        red = s.reduce_ram()
        for k, c in red.coeffs.items():
            e = Fraction(k, red.ram)
            if e >= window:
                continue
            fractional = (e.denominator > 1)
            irrational = _descend(c) is None
            if fractional or irrational:
                if found is None or e < found:
                    found = e
    return found


def two_scale_analysis(f: MultiPoly, g: MultiPoly, seed: int = 0,
                       coarse_side: str = "left", fine_side: str = None,
                       prec=None, max_retries: int = 8,
                       xname="x", yname="y") -> TwoScaleAnalysis:
    """Deform one side at a coarse scale and (by default) the other side at
    a fine scale; group the fine solutions by the coarse point they sit on.

    coarse_side "left" perturbs f, "right" perturbs g.  fine_side defaults
    to the opposite side (the left/right factoring shape); "both" gives the
    staged-specialization shape.  Returns group data (k_i, m_i): k_i
    conjugate coarse points sharing fine multiplicity m_i.

    The fine scale exponent E is chosen adaptively: any separation seen
    below E/M (M the total local multiplicity) is provably a coarse-point
    separation, so the threshold grows until no new coarse separation
    appears inside the observation window.
    """
    check_local_pair(f, g)
    if coarse_side not in ("left", "right"):
        raise InvalidInputError("coarse_side must be 'left' or 'right'")
    if fine_side is None:
        fine_side = "right" if coarse_side == "left" else "left"
    field = f.field
    if isinstance(field, ExtensionField):
        raise UnsupportedExtensionError(
            "two-scale analysis runs over prime-type fields only")
    fs, gs, lam, mu = shear_to_general_position(f, g)
    d, e = fs.total_degree(), gs.total_degree()
    f3, g3 = fs.extend_vars(VARS3), gs.extend_vars(VARS3)
    # total local multiplicity bounds the fine splitting denominator
    Ry = resultant(f3, g3, xname)
    yi = Ry.vars.index(yname)
    mult_bound = max(1, min(e2[yi] for e2 in Ry.terms))
    last_error = None
    for attempt in range(max_retries):
        rng = random.Random(derived_seed(seed, 101 + attempt))
        d_coarse = random_direction(rng, field, d if coarse_side == "left" else e)
        d_fine_f = random_direction(rng, field, d)
        d_fine_g = random_direction(rng, field, e)
        theta = Fraction(1)
        try:
            for _ in range(5):
                E = mult_bound * max(int(theta) + 1, 3) + 1
                window = Fraction(E, mult_bound)
                workprec = Fraction(E + default_precision(fs, gs))
                ft = deform_polynomial(f3, d_coarse) if coarse_side == "left" else f3
                gt = deform_polynomial(g3, d_coarse) if coarse_side == "right" else g3
                if fine_side in ("right", "both"):
                    gt = deform_polynomial(gt, d_fine_g, power=E)
                if fine_side in ("left", "both"):
                    ft = deform_polynomial(ft, d_fine_f, power=E)
                sols = certified_solutions(ft, gt, workprec,
                                           xname, yname, "t")
                coarse_seps = set()
                for i in range(len(sols)):
                    self_sep = _self_separation(sols[i], window)
                    if self_sep is not None:
                        coarse_seps.add(self_sep)
                    for j in range(i + 1, len(sols)):
                        sep = _pair_separation(sols[i], sols[j], window)
                        if sep is not None:
                            coarse_seps.add(sep)
                theta_new = (max(coarse_seps) + 1) if coarse_seps else Fraction(1)
                if theta_new <= theta:
                    # window grew and exposed no new coarse separation
                    groups = _group_solutions(sols, theta_new)
                    total = sum(s.span for s in sols)
                    if sum(k * m for k, m in groups) != total:
                        raise GenericityFailureError(
                            "group accounting failed to partition the "
                            "solutions")
                    return TwoScaleAnalysis(
                        groups, total, derived_seed(seed, 101 + attempt),
                        (lam, mu), workprec, E, theta_new)
                theta = theta_new
            raise GenericityFailureError(
                "coarse/fine scale separation did not stabilize")
        except (GenericityFailureError, InsufficientPrecisionError,
                UnsupportedExtensionError) as err:
            last_error = err
    raise GenericityFailureError(
        f"two-scale certification failed after {max_retries} attempts "
        f"(last: {last_error})")


def _truncation_key(s: TruncatedSeries, theta):
    """Canonical form of the sub-theta part of a series: descends to the
    base field when every kept coefficient is base-valued.  Returns
    (field, ((exponent, coefficient), ...))."""
    kept = {Fraction(k, s.ram): c for k, c in s.coeffs.items()
            if Fraction(k, s.ram) < theta}
    field = s.field
    if isinstance(field, ExtensionField) and \
            all(len(c.num) <= 1 for c in kept.values()):
        base = field.base
        kept = {e: (c.coeffs[0] if c.num else base.zero)
                for e, c in kept.items()}
        field = base
    return field, tuple(sorted(kept.items()))


def _truncated_ram(s: TruncatedSeries, theta) -> int:
    """Reduced ramification index of the part of s below exponent theta."""
    import math as _math
    kept = [k for k in s.coeffs if Fraction(k, s.ram) < theta]
    if not kept:
        return 1
    g = s.ram
    for k in kept:
        g = _math.gcd(g, abs(k))
    return s.ram // g if g else 1


def _group_solutions(sols, theta):
    """Group solution cycles by the coarse point they sit on: equality of
    both coordinate truncations below theta.  Returns (k, m) per group:
    k conjugate coarse points carrying fine multiplicity m each."""
    clusters = {}
    for s in sols:
        key = (_truncation_key(s.x, theta), _truncation_key(s.y, theta))
        clusters.setdefault(key, []).append(s)
    groups = []
    for members in clusters.values():
        finals = sum(s.span for s in members)
        series_pool = [s.x for s in members] + [s.y for s in members]
        kappa = _coefficient_field_degree(series_pool, theta)
        import math as _math
        rams = 1
        for s in members:
            rams = _math.lcm(rams, _truncated_ram(s.x, theta),
                             _truncated_ram(s.y, theta))
        # the sheet and field conjugations may act identically on the
        # truncated data; a cycle never covers more coarse points than it
        # has closure solutions
        k = min(kappa * rams, min(s.span for s in members))
        if finals % k:
            raise GenericityFailureError(
                "conjugate coarse points do not divide the group evenly")
        groups.append((k, finals // k))
    groups.sort()
    return groups

"""Infinitesimal deformation engine.

Count the solutions of a curve pair inside the infinitesimal neighborhood
of given points after deforming each curve by t times a seeded random line
a + b x + c y of its family (``random_direction``, the one rule of the
deformation count and the two-scale readout).  The count is certified,
never assumed.

Everything runs in one frame (x, y, t) of the one shear search
(``algebra.shear_to_general_position``): both top x-coefficients are
constants, and each point counted at is the only common zero on its line
y = y0.  ``deformation_count`` counts at the origin of the sheared pair of
a ``LocalPair`` (``algebra.local_pair``), searched for the origin's fiber
the first time an engine asks, so the deformation count, the two-scale
readout and the resultant engine share one search and its chain.
``deformation_counts`` counts at every common point of a projective pair
at once, in the frame of ``intersect._frames`` (every root of the
eliminant); the deformation count is it at (0, 0).  Failures raise
GenericityFailureError, and one attempt loop (``_attempts``), shared by
the counts and the two-scale readout, reseeds deterministically up to a
retry budget.

Each attempt (one seed) builds one subresultant chain of (f_t, g_t) in x
(``_eliminant_and_s1``), the only source of R = Res_x(f_t, g_t) and of
its degree-one member S1, and runs one readout on them at every point.
Each readout proves what it reads: that R is separable in y, so the
nearby points are distinct and transverse.  The count is fixed by R
alone; the working precision of the series only has to let the checks
decide.  So the readout starts at precision 2 and, where it failed only
for want of precision (InsufficientPrecisionError, or S11 or the Jacobian
zero to precision along a branch: ZeroToPrecisionError), reruns on the
same R at double the precision, up to the cap ``default_precision`` =
2de + 2.  A failure at the cap fails the attempt: the next seed runs,
after an InsufficientPrecisionError under double the cap.  That is the one
precision rule: no certificate suggests a precision of its own.  An
explicit precision is both start and cap.  The outcome's ``precision`` is
the precision the witnesses were certified at; count-only expands no
series and reports the precision at which the witnesses gave way to it
(the start, over an extension field).

* witnesses (``certified_solutions``, at points over Q and F_p, on the
  pair translated to the point): every y-branch of R through the point
  is expanded as a Puiseux series and must be simple, and its
  x-coordinate is read off S1: when S11(y0) != 0 at a root y0 of R, the
  gcd of the two specialized polynomials is S11(y0) x + S10(y0) up to a
  unit, so x = -S10/S11 is the unique lift.  ``_points_along`` is the one
  readout of the point over each y-branch, and
  ``infinitesimal.nearby_intersections`` uses it too; the two-scale
  readout, which reads no x, takes only its certificate that S11 is
  nonzero along every branch (``_s11_along``).  Each witness must
  satisfy f_t and g_t to working precision, specialize to the origin, and
  have a nonzero Jacobian.  These check every point against the deformed
  pair itself, where the count-only readout rests on R alone.
* count-only (``certified_count_only``, at points over an extension
  field, and where an edge factor does not split over the one-step
  extension): once ``certify_squarefree_in`` proves R separable over the
  pair's field, the order of R(y, 0) at y0.  This equals that of
  Res_x(fs, gs), the resultant engine's value, so where this readout runs
  the engine is not independent of the resultant engine.

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
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (LocalPair, gcd, lift_to_field, resultant_and_s1,
                      separable_by_evaluation, translate_to_origin)
from .errors import (GenericityFailureError, InsufficientPrecisionError,
                     InvalidInputError, UnsupportedExtensionError,
                     VerificationFailureError, ZeroToPrecisionError)
from .fields import ExtensionField
from .poly import MultiPoly
from .lifting import _x_adic_valuation, newton_puiseux, separable_branches
from .series import TruncatedSeries, eval_poly_at_series, positive_precision

VARS3 = ("x", "y", "t")


def derived_seed(seed: int, attempt: int) -> int:
    return (seed * 1000003 + 7919 * attempt + attempt * attempt) & 0x7FFFFFFF


def random_direction(rng: random.Random, field) -> MultiPoly:
    """A random line a + b x + c y of the family, in the frame (x, y, t),
    with small integer coefficients, not identically zero.

    Any member of the full family serves as a direction: once the
    certificates pass (R separable in y, every witness specializing to the
    origin), conservation of number (Fulton, *Intersection Theory*,
    ch. 10) makes the count of nearby solutions I_P, the count at a
    generic member and so the Zariski multiplicity.  The draw only makes
    certification likely.  A line keeps t in the x^0 and x^1 coefficients
    of the deformed pair, so the trivariate chain stays small.  Constant
    directions are not enough: on y - x^2 vs y - 2x^2, f + at and g + a't
    put both nearby points at one y, so R has a double factor at every
    seed."""
    while True:
        terms = {}
        for mono in ((0, 0, 0), (0, 1, 0), (1, 0, 0)):
            c = rng.randint(-9, 9)
            if c:
                terms[mono] = field.of(c)
        p = MultiPoly(field, VARS3, terms)
        if not p.is_zero():
            return p


def deform_polynomial(f: MultiPoly, direction: MultiPoly) -> MultiPoly:
    """f + t * direction, in the three-variable frame."""
    if direction.is_zero():
        raise InvalidInputError("zero deformation direction")
    f3 = f if "t" in f.vars else f.extend_vars(VARS3)
    d3 = direction if direction.vars == f3.vars else direction.extend_vars(f3.vars)
    return f3 + MultiPoly.var(f3.field, f3.vars, "t") * d3


@dataclass(frozen=True)
class SolutionBranch:
    """One certified nearby-solution cycle of a deformed pair, its x and y
    series in the T of its y-branch (t = scale * T^B, ``lifting.Branch``)."""
    x: TruncatedSeries
    y: TruncatedSeries
    span: int


def _eliminant_and_s1(ft: MultiPoly, gt: MultiPoly):
    """R = Res_x(ft, gt), exact and signed, and the degree-one member S1
    (None when the chain skips degree one), both off one subresultant
    chain of the pair.  Every caller deforms a pair proved coprime (a
    ``LocalPair``, or the forms of ``intersect._frames``), whose constant
    top x-coefficients make R(y, 0) its resultant: R(y, 0) = 0 is a
    defect, not bad input."""
    R, s1 = resultant_and_s1(ft, gt, "x")
    if R.coeff_of("t", 0).is_zero():
        raise VerificationFailureError(
            "deformed eliminant of coprime curves vanishes at t = 0")
    return R, s1


def _jacobian(ft: MultiPoly, gt: MultiPoly) -> MultiPoly:
    return (ft.derivative("x") * gt.derivative("y")
            - ft.derivative("y") * gt.derivative("x"))


def _along(br, prec):
    """at(p, x) = p(x, y, t) along the y-branch ``br`` at precision prec
    (in t), over the branch's field, as a series in the branch's T: y is
    the branch's series and t the monomial scale * T^B + O(T^(prec B)).
    Valuations and precisions read in T are B times those in t; x = 0
    unless a series is given."""
    bf = br.series.field
    tser = TruncatedSeries(bf, {br.B: bf.of(br.scale)}, prec * br.B)
    return lambda p, x=bf.zero: eval_poly_at_series(
        lift_to_field(p, bf), {"x": x, "y": br.series, "t": tser})


def _s11_along(s1, ybranches, prec, vanishing: str):
    """Certifies that the degree-one subresultant S1 = S11 x + S10 exists
    and that S11 is nonzero along every y-branch of R (else
    ZeroToPrecisionError, with the message ``vanishing``): then the
    specialized pair has one common root x over the branch's y, of the
    branch's order in R.
    Yields (branch, _along(branch), S11 along it) one branch at a time, so
    a caller's own certificates on a branch run before the next branch is
    checked."""
    if s1 is None:
        raise GenericityFailureError("subresultant chain skips degree one")
    s11 = s1.coeff_of("x", 1)
    for br in ybranches:
        at = _along(br, prec)
        den = at(s11)
        if den.is_zero_to_precision():
            raise ZeroToPrecisionError(vanishing)
        yield br, at, den


def _points_along(s1, ybranches, prec, vanishing: str):
    """The one point over each y-branch of R, read off the degree-one
    subresultant: x = -S10/S11 along the branch, under the certificate of
    ``_s11_along``.  Yields (branch, _along(branch), x)."""
    s10 = s1.coeff_of("x", 0) if s1 is not None else None
    for br, at, den in _s11_along(s1, ybranches, prec, vanishing):
        yield br, at, -(at(s10) / den)


def certify_squarefree_in(R: MultiPoly):
    """Certify that R(y, t) has no repeated factor of positive y-degree:
    by ``algebra.separable_by_evaluation``, or else by an exact bivariate
    gcd."""
    if separable_by_evaluation(R, "y"):
        return
    dR = R.derivative("y")
    if dR.is_zero():
        raise GenericityFailureError("inseparable deformed resultant")
    shared = gcd(R, dR)
    if shared.degree_in("y") > 0:
        raise GenericityFailureError(
            "deformed resultant has a repeated factor")


def certified_solutions(ft: MultiPoly, gt: MultiPoly, ybranches, s1,
                        prec):
    """All solution branches of the deformed pair through the origin, with
    witness certificates, read off the y-branches of the pair's eliminant
    R through the origin (``newton_puiseux`` of R, or
    ``separable_branches`` once R is proved separable) and its degree-one
    subresultant S1 (``_eliminant_and_s1``).  Every y-branch must be
    simple (R has no repeated factor along a branch); then each witness
    must satisfy f_t and g_t, specialize to the origin and have a nonzero
    Jacobian.  Separability of R already proves every point transverse;
    the Jacobian is the one witness check made against the deformed pair
    rather than against R, so it stays.  The sheared pair is in general
    position, so x along every branch tends to the origin: a witness that
    does not is a defect (VerificationFailureError).  Raises
    GenericityFailureError when another certificate fails (caller
    reseeds), and
    InsufficientPrecisionError or ZeroToPrecisionError when a check could
    not decide at ``prec`` (caller escalates); no check passes on a value
    known only to O(t^0)."""
    prec = Fraction(prec)
    if any(br.multiplicity > 1 for br in ybranches):
        raise GenericityFailureError(
            "deformed resultant has a repeated factor")
    jac = _jacobian(ft, gt)
    sols = []
    for br, at, xser in _points_along(
            s1, ybranches, prec,
            "degree-one subresultant vanishes along a branch"):
        vx = xser.valuation()
        if vx is not None and vx <= 0:
            raise VerificationFailureError(
                "branch x-coordinate does not specialize to the origin, "
                "though the sheared pair is in general position")
        if vx is None and xser.prec <= 0:
            raise InsufficientPrecisionError(
                "branch x-coordinate is known only to "
                f"O(t^{Fraction(xser.prec, br.B)})")
        for eq in (ft, gt):
            residual = at(eq, xser)
            if residual.valuation() is not None:
                raise GenericityFailureError(
                    "witness fails to satisfy a deformed equation")
            if residual.prec <= 0:
                raise InsufficientPrecisionError(
                    "witness residual is known only to "
                    f"O(t^{Fraction(residual.prec, br.B)})")
        if at(jac, xser).is_zero_to_precision():
            raise ZeroToPrecisionError(
                "deformed intersection is not transverse at a witness")
        sols.append(SolutionBranch(xser, br.series, br.span))
    return sols


def certified_count_only(R: MultiPoly, ys) -> list:
    """Solution counts without witnesses at the fibers y = y0 of ``ys``,
    each over its own field: ord_(y - y0) R(y, 0) of the eliminant
    R = Res_x(f_t, g_t), which the caller has proved separable in y over
    its own field by ``certify_squarefree_in`` (a proof that holds over
    every extension).

    Proof.  The general position of the pair at each point (constant top
    x-coefficients, the point the only common zero on its fiber y = y0)
    keeps the x-coordinates over a y-root near y0 bounded, so every such
    root is the y-coordinate of a nearby point, and every nearby point
    has one.  The order of R at a y-root is the sum of the multiplicities
    of the points over it; separability makes that order 1, so each such
    point is single and transverse.  This is also the multiplicity of the
    fiber in Res_x(fs, gs), the resultant engine's value, so the count is
    not independent of that engine."""
    R0 = R.coeff_of("t", 0)
    return [_x_adic_valuation(translate_to_origin(R0, (0, y0)), 1)
            for y0 in ys]


def default_precision(f: MultiPoly, g: MultiPoly) -> int:
    """2de + 2: the cap of the adaptive schedule."""
    d = max(1, f.total_degree())
    e = max(1, g.total_degree())
    return 2 * d * e + 2


START_PRECISION = Fraction(2)


def _attempts(build, readout, seed: int, first: int, prec, cap,
              max_retries: int, what: str):
    """(readout(built, p), seed used, p) at the first of the derived seeds
    of attempts first, first + 1, ... that certifies, where built =
    build(rng) is made once per seed.

    Within a seed the readout runs at START_PRECISION and, on a failure
    that more precision may mend (InsufficientPrecisionError,
    ZeroToPrecisionError), again at double the precision, up to ``cap``.
    A failure at the cap fails the attempt: any genericity failure
    reseeds, and an InsufficientPrecisionError also doubles the cap for
    the seeds after it.  An explicit ``prec`` (not None) is both the start
    and the cap, so it runs once per seed; one that is not positive is an
    InvalidInputError, raised before any attempt."""
    cap = Fraction(cap) if prec is None else positive_precision(prec)
    last_error = None
    for attempt in range(first, first + max_retries):
        seed_used = derived_seed(seed, attempt)
        work = cap if prec is not None else min(START_PRECISION, cap)
        try:
            built = build(random.Random(seed_used))
            while True:
                try:
                    return readout(built, work), seed_used, work
                except (InsufficientPrecisionError, ZeroToPrecisionError):
                    if work >= cap:
                        raise
                    work = min(2 * work, cap)
        except (GenericityFailureError, InsufficientPrecisionError) as err:
            if isinstance(err, InsufficientPrecisionError):
                cap = 2 * cap
            last_error = err
    raise GenericityFailureError(
        f"{what} certification failed after {max_retries} attempts "
        f"(last: {last_error})")


@dataclass
class DeformationOutcome:
    count: int
    seed_used: int
    shear: tuple
    precision: Fraction


def deformation_counts(fs: MultiPoly, gs: MultiPoly, points, seed: int,
                       prec, max_retries: int):
    """(counts, seed used, precision): the certified number of nearby
    solutions at each of ``points`` of the pair (fs, gs), deformed along
    random lines of its family, in one attempt loop for all of them.

    The pair and its points (x0, y0), over the field of y0, are a frame
    and its sites of ``algebra.shear_to_general_position``.  At a point
    over Q or F_p, the pair's field, the witnesses run on f_t, g_t, R and
    S1 translated there; elsewhere, and where an edge factor does not
    split, ``certified_count_only`` counts.  Each readout proves R separable
    once: over the ground field by ``certify_squarefree_in`` before any
    point is read when there are several, and at the one point by
    ``newton_puiseux`` (before count-only, by ``certify_squarefree_in``)
    when there is one, so the origin of ``deformation_count`` gets no
    extra proof."""
    field = fs.field
    several = len(points) > 1

    def build(rng):
        ft = deform_polynomial(fs, random_direction(rng, field))
        gt = deform_polynomial(gs, random_direction(rng, field))
        return (ft, gt) + _eliminant_and_s1(ft, gt)

    def readout(built, prec):
        R = built[2]
        if several:
            certify_squarefree_in(R)
        counts = [None] * len(points)
        for k, point in enumerate(points):
            if not isinstance(field, ExtensionField) and \
                    field.is_element(point[1]):
                ft, gt, Rp, s1 = (h and translate_to_origin(h, point)
                                  for h in built)
                expand = separable_branches if several else newton_puiseux
                with suppress(UnsupportedExtensionError):
                    counts[k] = sum(s.span for s in certified_solutions(
                        ft, gt, expand(Rp, "y", prec), s1, prec))
        rest = [k for k, count in enumerate(counts) if count is None]
        if rest:
            if not several:
                certify_squarefree_in(R)
            for k, count in zip(rest, certified_count_only(
                    R, [points[k][1] for k in rest])):
                counts[k] = count
        return counts

    return _attempts(build, readout, seed, 0, prec,
                     default_precision(fs, gs), max_retries, "genericity")


def deformation_count(pair: LocalPair, seed: int = 0, prec=None,
                      max_retries: int = 8) -> DeformationOutcome:
    """The infinitesimal-neighborhood solution count of the pair at the
    origin: ``deformation_counts`` on the sheared pair at the one point
    (0, 0)."""
    fs, gs, lam, mu, _, _, [(origin, *_)] = pair.sheared
    [count], seed_used, prec = deformation_counts(
        fs, gs, [origin], seed, prec, max_retries)
    return DeformationOutcome(count, seed_used, (lam, mu), prec)


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


def two_scale_analysis(pair: LocalPair, seed: int = 0,
                       coarse_side: str = "left", prec=None,
                       max_retries: int = 8) -> TwoScaleAnalysis:
    """Deform one side at a coarse scale t and group the multiplicity at
    the origin by the nearby coarse points P it splits into.

    coarse_side "left" perturbs f, "right" perturbs g, along a random line
    of the family (``random_direction``).  Each y-branch of
    R = Res_x(f_t, g_t) with multiplicity m and span k is one group (k, m):
    once every y-root carries a single coarse point, the order of R there
    is I_P(f_t, g_t), the multiplicity a fine deformation of either side
    splits at P.  The certificate is the degree-one subresultant's
    x-coefficient, nonzero along every branch (``_s11_along``); a failure
    reseeds.  The groups must account for ord_y R(y, 0), which is the
    order the shear search read off the undeformed chain.
    """
    if coarse_side not in ("left", "right"):
        raise InvalidInputError("coarse_side must be 'left' or 'right'")
    fs, gs, lam, mu, _, _, [(_, total, _, _)] = pair.sheared
    field = fs.field
    if isinstance(field, ExtensionField):
        raise UnsupportedExtensionError(
            "two-scale analysis runs over prime-type fields only")
    f3, g3 = fs.extend_vars(VARS3), gs.extend_vars(VARS3)

    def build(rng):
        d_coarse = random_direction(rng, field)
        ft = deform_polynomial(f3, d_coarse) if coarse_side == "left" else f3
        gt = deform_polynomial(g3, d_coarse) if coarse_side == "right" else g3
        return _eliminant_and_s1(ft, gt)

    def readout(built, prec):
        R, s1 = built
        branches = newton_puiseux(R, "y", prec)
        groups = sorted(
            (br.span, br.multiplicity) for br, _, _ in _s11_along(
                s1, branches, prec, "two coarse points share a y-coordinate"))
        if sum(k * m for k, m in groups) != total:
            raise GenericityFailureError(
                "coarse groups do not account for the multiplicity")
        return groups

    groups, seed_used, prec = _attempts(
        build, readout, seed, 101, prec, default_precision(fs, gs),
        max_retries, "two-scale")
    return TwoScaleAnalysis(groups, total, seed_used, (lam, mu), prec)

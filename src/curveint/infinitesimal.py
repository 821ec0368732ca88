"""Infinitesimal deformations of curves, the specialization map, nearby
points, and the staged-specialization and left/right-factoring identities.

Specialization is concrete: set every infinitesimal parameter to zero and
read off the constant term.  A nearby point is one solution cycle: a pair
of coordinate series of positive valuation in Duval's rational form, series
in a T with t = scale * T^B (``lifting.Branch``).  ``nearby_intersections``
reads the points the way the deformation engine reads its witnesses: y off
the branches of the eliminant Res_x(f_t, g_t), and x off the degree-one
subresultant (``deformation._points_along``), at a shear that the rule
of every shear search (``algebra.isolating_shear``) accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (LocalPair, apply_shear, first_shear, gcd,
                      isolating_shear, local_pair, resultant_and_s1,
                      translate_to_origin)
from .deformation import (VARS3, _points_along, deform_polynomial,
                          default_precision, deformation_count,
                          two_scale_analysis)
from .errors import (InsufficientPrecisionError, InvalidInputError,
                     SharedComponentError, VerificationFailureError)
from .intersect import mult_length
from .lifting import newton_puiseux
from .poly import MultiPoly
from .series import INF, TruncatedSeries, positive_precision


@dataclass
class DeformedCurve:
    """A curve with every coefficient moved along ``direction`` at scale
    t: the result specializes back to the base at t = 0."""
    base: MultiPoly
    direction: MultiPoly
    result: MultiPoly

    def specialize(self) -> MultiPoly:
        return self.result.coeff_of("t", 0).drop_vars(["t"])


@dataclass
class NearbyPoint:
    """One solution cycle in the infinitesimal neighborhood of ``target``.

    ``x`` and ``y`` are the coordinates less the target's, as series in the
    T of the cycle's eliminant branch, with t = scale * T^B, as in
    ``lifting.Branch``: their exponents, precisions and valuations are in
    T.  The cycle stands for ``span`` points over the algebraic closure
    (its conjugates under the B choices of T and under the field extension
    of its coefficients), each counted ``multiplicity`` times."""
    x: TruncatedSeries
    y: TruncatedSeries
    target: tuple
    span: int = 1
    multiplicity: int = 1
    scale: object = 1
    B: int = 1

    @property
    def count(self) -> int:
        return self.span * self.multiplicity

    def specialize(self):
        """The point at T = 0: the target."""
        tx, ty = self.target
        return (self.x.specialize() + tx, self.y.specialize() + ty)

    def __str__(self):
        """(x, y) -> target.  With scale 1, T^B = t and the point prints
        in t; otherwise it prints in T, followed by t = scale * T^B."""
        tx, ty = self.target
        if self.scale == 1:
            return (f"({self.x.format('t', self.B)}, "
                    f"{self.y.format('t', self.B)}) -> ({tx}, {ty})")
        t = TruncatedSeries(self.x.field, {self.B: self.scale}, INF)
        return (f"({self.x.format('T')}, {self.y.format('T')}) -> "
                f"({tx}, {ty}), t = {t.format('T')}")


def deform(base: MultiPoly, direction: MultiPoly) -> DeformedCurve:
    """Move every coefficient of the affine curve ``base`` along
    ``direction`` scaled by the infinitesimal: u_ij becomes
    u_ij + t * direction_ij."""
    if direction.is_zero():
        raise InvalidInputError("zero deformation direction")
    if direction.total_degree() > max(base.total_degree(), 0):
        raise InvalidInputError("direction leaves the curve's family")
    return DeformedCurve(base, direction, deform_polynomial(base, direction))


def specialize(value):
    """Send every infinitesimal to zero.

    TruncatedSeries -> constant term (negative valuation raises);
    NearbyPoint -> its target point; DeformedCurve -> its base curve.
    """
    if isinstance(value, TruncatedSeries):
        return value.specialize()
    if isinstance(value, NearbyPoint):
        return value.specialize()
    if isinstance(value, DeformedCurve):
        return value.specialize()
    raise InvalidInputError(f"cannot specialize {value!r}")


def _as_deformed_poly(obj) -> tuple[MultiPoly, MultiPoly]:
    """A deformed curve's working polynomial and its base curve; undeformed
    inputs embed as trivially deformed."""
    if isinstance(obj, DeformedCurve):
        return obj.result, obj.base
    if isinstance(obj, MultiPoly):
        return (obj if "t" in obj.vars else obj.extend_vars(VARS3)), obj
    raise InvalidInputError(f"not a curve or deformed curve: {obj!r}")


def _nearby_points(ft: MultiPoly, gt: MultiPoly, base, prec):
    """(x, y, branch) for the point over each y-branch of R = Res_x(f_t,
    g_t), under the first shear that ``algebra.isolating_shear`` accepts
    for the coprime base pair (t = 0) and the origin's fiber, and that
    lets ``_points_along`` read x along every branch: one point per
    solution cycle, in the branch's T (``newton_puiseux``, as the
    deformation engine expands them).

    Every point lies over the origin: the branches of R start at y = 0,
    and R(y, 0) != 0 leaves a top x-coefficient a unit, so x stays
    bounded and tends to the base pair's one common zero on y = 0."""
    def attempt(lam, mu):
        if isolating_shear(*base, "origin", lam, mu) is None:
            return None
        R, s1 = resultant_and_s1(apply_shear(ft, lam, mu),
                                 apply_shear(gt, lam, mu), "x")
        if R.coeff_of("t", 0).is_zero():  # the user's curves
            raise SharedComponentError("resultant vanishes at t = 0")
        return [(x, (br.series - x * lam) * (ft.field.one / mu), br)
                for br, _, x in _points_along(
                    s1, newton_puiseux(R, "y", prec), prec,
                    "two nearby points share a y-coordinate")]
    return first_shear(ft.field, attempt, "separated the nearby points")


def nearby_intersections(C1t, C2t, target=(0, 0), prec=None):
    """The points of the infinitesimal neighborhood of ``target`` on the
    intersection of the two (possibly trivially) deformed curves, one
    ``NearbyPoint`` per solution cycle.

    Each y-branch of the eliminant carries one point, read off the
    degree-one subresultant as in the deformation engine.  Every
    coordinate is returned to O(t^prec); InsufficientPrecisionError when
    one is known to less.  When the base curves (t = 0) meet at ``target``
    with finite multiplicity, the points' counts must add up to it, the
    length engine's value there; VerificationFailureError otherwise.  A
    target that is not a point of the plane, or a precision that is not
    positive, is an InvalidInputError; base curves that share a component
    are a SharedComponentError."""
    ft, base1 = _as_deformed_poly(C1t)
    gt, base2 = _as_deformed_poly(C2t)
    field = ft.field
    try:
        tx, ty = (field.of(c) for c in target)
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"target {target!r} is not a point (x, y)") from None
    prec = default_precision(base1, base2) + 2 if prec is None \
        else positive_precision(prec)
    if tx or ty:
        ft = translate_to_origin(ft, (tx, ty))
        gt = translate_to_origin(gt, (tx, ty))
    base = [h.coeff_of("t", 0).drop_vars(["t"]) for h in (ft, gt)]
    # the user's curves share a component (all of the plane when both are
    # 0); a curve that is 0 meets the other, a nonzero constant, nowhere
    if gcd(*base).total_degree() != 0:
        raise SharedComponentError("resultant vanishes at t = 0")
    if any(h.is_zero() for h in base):
        return []
    points = _nearby_points(ft, gt, base, prec)
    # x = -S10/S11 loses the valuation of S11 along the branch: expand once
    # more with that shortfall added, and keep only what prec asked for;
    # precisions compare in t, B times less than in the branch's T
    short = max((prec - Fraction(min(xs.prec, ys.prec), br.B)
                 for xs, ys, br in points), default=0)
    if short > 0:
        points = _nearby_points(ft, gt, base, prec + short)
    out = []
    for xs, ys, br in points:
        known = Fraction(min(xs.prec, ys.prec), br.B)
        if known < prec:
            raise InsufficientPrecisionError(
                f"a nearby point is known only to O(t^{known}), not "
                f"O(t^{prec})")
        out.append(NearbyPoint(xs.truncate(prec * br.B),
                               ys.truncate(prec * br.B), (tx, ty), br.span,
                               br.multiplicity, br.scale, br.B))
    out.sort(key=lambda np_: (str(np_.y), str(np_.x)))
    if any(h.constant_value() for h in base):
        return out  # the base curves do not meet there
    expected = mult_length(LocalPair(*base))
    found = sum(p.count for p in out)
    if found != expected:
        raise VerificationFailureError(
            f"nearby points at {target} account for {found} of the "
            f"multiplicity {expected}")
    return out


def staged_specialization_check(f: MultiPoly, g: MultiPoly,
                                seed: int = 0) -> bool:
    """Two-stage deformation identity: the undeformed solution count equals
    the sum, over the intermediate fiber points of a coarse deformation, of
    their fine-scale local multiplicities."""
    pair = local_pair(f, g)
    total = deformation_count(pair, seed=seed).count
    analysis = two_scale_analysis(pair, seed, "right")
    staged_sum = sum(k * m for k, m in analysis.groups)
    return staged_sum == total


def left_right_factoring_check(f: MultiPoly, g: MultiPoly,
                               seed: int = 0) -> bool:
    """One-sided factoring identity, both orientations: the joint count
    equals the sum of right multiplicities over the left-deformed fiber
    points, and symmetrically."""
    pair = local_pair(f, g)
    total = deformation_count(pair, seed=seed).count
    left = two_scale_analysis(pair, seed, "left")
    if sum(k * m for k, m in left.groups) != total:
        return False
    right = two_scale_analysis(pair, seed, "right")
    return sum(k * m for k, m in right.groups) == total

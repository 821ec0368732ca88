"""Infinitesimal deformations of curves, the specialization map, nearby
points, and the staged-specialization and left/right-factoring identities.

Specialization is concrete: set every infinitesimal parameter to zero and
read off the constant term.  A nearby point is a pair of coordinate series
of positive valuation.  ``nearby_intersections`` reads the points the way
the deformation engine reads its witnesses: y off the branches of the
eliminant Res_x(f_t, g_t), and x off the degree-one subresultant
(``deformation._points_along``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (apply_shear, first_shear, in_general_position,
                      local_pair, translate_to_origin)
from .deformation import (VARS3, _eliminant_and_s1, _points_along,
                          deform_polynomial, default_precision,
                          deformation_count, two_scale_analysis)
from .errors import (InfiniteMultiplicityError, InsufficientPrecisionError,
                     InvalidInputError, VerificationFailureError)
from .intersect import mult_length
from .lifting import Branch, newton_puiseux_in_t, sheet_conjugates
from .poly import MultiPoly
from .series import TruncatedSeries


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
    """A witness in the infinitesimal neighborhood of ``target``."""
    x: TruncatedSeries
    y: TruncatedSeries
    target: tuple
    count: int = 1

    def specialize(self):
        tx, ty = self.target
        return (self.x.specialize() + tx, self.y.specialize() + ty)

    def __str__(self):
        return f"({self.x}, {self.y}) -> {self.target}"


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
    """(x, y, count) for each point over a y-branch of R = Res_x(f_t, g_t),
    under the first shear that puts the base pair (t = 0) in general
    position and lets ``_points_along`` read x along every branch, each
    read as a series in t (``newton_puiseux_in_t``).  A ramified branch
    splits into its sheets where the field has the roots of unity for it,
    and otherwise stays one point that counts for all.

    Every point lies over the origin: the branches of R start at y = 0,
    and R(y, 0) != 0 leaves a top x-coefficient a unit, so x stays
    bounded and tends to the base pair's one common zero on y = 0."""
    def attempt(lam, mu):
        if not in_general_position(*(apply_shear(h, lam, mu) for h in base)):
            return None
        R, s1 = _eliminant_and_s1(apply_shear(ft, lam, mu),
                                  apply_shear(gt, lam, mu))
        branches = []
        for br in newton_puiseux_in_t(R, "y", prec):
            sheets = sheet_conjugates(br)
            branches += [br] if sheets is None else [
                Branch(s, br.multiplicity) for s in sheets]
        return [(x, (br.series - x * lam) * (ft.field.one / mu),
                 br.span * br.multiplicity)
                for br, _, x in _points_along(
                    s1, branches, prec,
                    "two nearby points share a y-coordinate")]
    return first_shear(ft.field, attempt, "separated the nearby points")


def nearby_intersections(C1t, C2t, target=(0, 0), prec=None):
    """The points of the infinitesimal neighborhood of ``target`` on the
    intersection of the two (possibly trivially) deformed curves.

    Each y-branch of the eliminant carries one point, read off the
    degree-one subresultant as in the deformation engine.  Every
    coordinate is returned to O(t^prec); InsufficientPrecisionError when
    one is known to less.  When the base curves (t = 0) meet at ``target``
    with finite multiplicity, the points' counts must add up to it, the
    length engine's value there; VerificationFailureError otherwise."""
    ft, base1 = _as_deformed_poly(C1t)
    gt, base2 = _as_deformed_poly(C2t)
    field = ft.field
    tx, ty = (field.of(c) for c in target)
    if tx or ty:
        ft = translate_to_origin(ft, (tx, ty))
        gt = translate_to_origin(gt, (tx, ty))
    if prec is None:
        prec = default_precision(base1, base2) + 2
    base = [h.coeff_of("t", 0).drop_vars(["t"]) for h in (ft, gt)]
    points = _nearby_points(ft, gt, base, prec)
    # x = -S10/S11 loses the valuation of S11 along the branch: expand once
    # more with that shortfall added, and keep only what prec asked for
    short = max((prec - min(xs.prec, ys.prec) for xs, ys, _ in points),
                default=0)
    if short > 0:
        points = _nearby_points(ft, gt, base, prec + short)
    out = []
    for xs, ys, count in points:
        known = min(xs.prec, ys.prec)
        if known < prec:
            raise InsufficientPrecisionError(
                f"a nearby point is known only to O(t^{known}), not "
                f"O(t^{prec})")
        out.append(NearbyPoint(xs.truncate(prec), ys.truncate(prec),
                               (tx, ty), count))
    out.sort(key=lambda np_: (str(np_.y), str(np_.x)))
    try:
        expected = mult_length(local_pair(*base))
    except (InvalidInputError, InfiniteMultiplicityError):
        return out  # the base curves do not meet there, or share a component
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

"""Infinitesimal deformations of curves, the specialization map, nearby
points, and the staged-specialization and left/right-factoring identities.

Specialization is concrete: set every infinitesimal parameter to zero and
read off the constant term.  A nearby point is a pair of coordinate series
of positive valuation; two nearby points that agree to working precision
are never silently merged (the comparison raises instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (check_local_pair, shear_to_general_position,
                      translate_to_origin)
from .deformation import (VARS3, _deformation_count, _two_scale,
                          deform_polynomial, default_precision)
from .errors import (InfiniteMultiplicityError, InvalidInputError,
                     VerificationFailureError)
from .intersect import Curve, mult_length
from .lifting import newton_puiseux, sheet_conjugates
from .poly import MultiPoly
from .series import INF, TruncatedSeries, eval_poly_at_series


@dataclass
class DeformedCurve:
    """A curve with every coefficient moved along ``direction`` at scale
    t^power: the result specializes back to the base at t = 0."""
    base: MultiPoly
    direction: MultiPoly
    tname: str
    power: int
    result: MultiPoly

    def specialize(self) -> MultiPoly:
        zero = self.result.field.zero
        out = self.result.subs_values({self.tname: zero})
        return out.drop_vars([self.tname])


@dataclass
class NearbyPoint:
    """A witness in the infinitesimal neighborhood of ``target``."""
    x: TruncatedSeries
    y: TruncatedSeries
    target: tuple
    count: int = 1

    def valuation_certificate(self):
        """(val_x, val_y) of the centered coordinates; both positive."""
        vx = self.x.valuation()
        vy = self.y.valuation()
        return (vx if vx is not None else self.x.prec,
                vy if vy is not None else self.y.prec)

    def specialize(self):
        tx, ty = self.target
        return (self.x.specialize() + tx, self.y.specialize() + ty)

    def __str__(self):
        return f"({self.x}, {self.y}) -> {self.target}"


def deform(C, direction: MultiPoly, tname: str = "t",
           power: int = 1) -> DeformedCurve:
    """Move every coefficient of the family along ``direction`` scaled by
    the infinitesimal: u_ij becomes u_ij + t^power * direction_ij."""
    base = C.affine("Z") if isinstance(C, Curve) else C
    if direction.is_zero():
        raise InvalidInputError("zero deformation direction")
    if direction.total_degree() > max(base.total_degree(), 0):
        raise InvalidInputError("direction leaves the curve's family")
    result = deform_polynomial(base, direction, tname=tname, power=power)
    return DeformedCurve(base, direction, tname, power, result)


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


def _branch_pairs(ft: MultiPoly, gt: MultiPoly, prec):
    """All (x(t), y(t)) solution pairs with positive valuation of the pair
    of deformed equations, by expanding both eliminants and keeping the
    combinations on which both equations vanish to precision."""
    from .algebra import resultant

    field = ft.field
    prec = Fraction(prec)
    Ry = resultant(ft, gt, "x")
    Rx = resultant(ft, gt, "y")
    ybr = newton_puiseux(Ry, "y", "t", prec)
    xbr = newton_puiseux(Rx, "x", "t", prec)

    def expand(branches):
        out = []
        for br in branches:
            sheets = sheet_conjugates(br)
            if sheets is None:
                out.append((br.series, br.span * br.multiplicity))
            else:
                out.extend((s, br.multiplicity) for s in sheets)
        return out

    pairs = []
    for xs, xcount in expand(xbr):
        for ys, ycount in expand(ybr):
            if xs.field != ys.field and not (
                    xs.field == field or ys.field == field):
                continue
            try:
                tser = TruncatedSeries.variable(field, INF, "t").truncate(prec)
                assign = {"x": xs, "y": ys, "t": tser}
                ok = True
                for eq in (ft, gt):
                    p = eq
                    target = xs.field if xs.field != field else ys.field
                    if target != field:
                        from .algebra import lift_to_field
                        p = lift_to_field(eq, target)
                        assign = {"x": _lift_series(xs, target),
                                  "y": _lift_series(ys, target),
                                  "t": TruncatedSeries.variable(
                                      target, INF, "t").truncate(prec)}
                    if eval_poly_at_series(p, assign).valuation() is not None:
                        ok = False
                        break
                if ok:
                    pairs.append((xs, ys, min(xcount, ycount)))
            except InvalidInputError:
                continue
    return pairs


def _lift_series(s: TruncatedSeries, target):
    if s.field == target:
        return s
    return TruncatedSeries(target, {k: target.of(c) for k, c in s.coeffs.items()},
                           s.prec, s.ram, s.varname)


def _as_deformed_poly(obj) -> MultiPoly:
    """A deformed curve's working polynomial; undeformed inputs embed as
    trivially deformed."""
    if isinstance(obj, DeformedCurve):
        return obj.result, obj.base
    if isinstance(obj, Curve):
        base = obj.affine("Z")
        return base.extend_vars(VARS3), base
    if isinstance(obj, MultiPoly):
        base = obj
        if "t" not in obj.vars:
            return obj.extend_vars(VARS3), base
        return obj, obj
    raise InvalidInputError(f"not a curve or deformed curve: {obj!r}")


def nearby_intersections(C1t, C2t, target=(0, 0), prec=None):
    """The points of the infinitesimal neighborhood of ``target`` on the
    intersection of the two (possibly trivially) deformed curves.

    When the base curves (t = 0) meet at ``target`` with finite
    multiplicity, the points' counts must add up to it, the length
    engine's value there; VerificationFailureError otherwise, since the
    pairing of x- and y-branches can miss points."""
    ft, base1 = _as_deformed_poly(C1t)
    gt, base2 = _as_deformed_poly(C2t)
    field = ft.field
    tx, ty = (field.of(c) for c in target)
    if tx or ty:
        ft = translate_to_origin(ft, (tx, ty))
        gt = translate_to_origin(gt, (tx, ty))
    if prec is None:
        prec = default_precision(base1, base2) + 2
    pairs = _branch_pairs(ft, gt, prec)
    out = []
    for xs, ys, count in pairs:
        vx = xs.valuation()
        vy = ys.valuation()
        if vx is not None and vx <= 0:
            continue
        if vy is not None and vy <= 0:
            continue
        out.append(NearbyPoint(xs, ys, (tx, ty), count))
    out.sort(key=lambda np_: (str(np_.y), str(np_.x)))
    base = [h.subs_values({"t": field.zero}).drop_vars(["t"])
            for h in (ft, gt)]
    try:
        expected = mult_length(*base)
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
    check_local_pair(f, g)
    sheared = shear_to_general_position(f, g)
    total = _deformation_count(*sheared, seed=seed).count
    analysis = _two_scale(*sheared, seed, "right")
    staged_sum = sum(k * m for k, m in analysis.groups)
    return staged_sum == total


def left_right_factoring_check(f: MultiPoly, g: MultiPoly,
                               seed: int = 0) -> bool:
    """One-sided factoring identity, both orientations: the joint count
    equals the sum of right multiplicities over the left-deformed fiber
    points, and symmetrically."""
    check_local_pair(f, g)
    sheared = shear_to_general_position(f, g)
    total = _deformation_count(*sheared, seed=seed).count
    left = _two_scale(*sheared, seed, "left")
    if sum(k * m for k, m in left.groups) != total:
        return False
    right = _two_scale(*sheared, seed, "right")
    return sum(k * m for k, m in right.groups) == total

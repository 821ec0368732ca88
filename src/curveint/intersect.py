"""Intersection multiplicities of plane projective curves, three ways.

* ``mult_length``: dimension of the local quotient ring at the origin,
  by exact linear algebra on truncations, stabilized in the cutoff.
* ``mult_resultant_order``: order of vanishing of the x-eliminant at the
  origin's fiber, on the pair sheared to resultant general position.
* ``deformation.deformation_count``: certified infinitesimal solution
  count.

Each engine takes a ``LocalPair`` (``algebra.local_pair``): the pair is
checked once when it is built (under ``bezout_sum``, once for the whole
pair of curves) and sheared at most once, by whichever engine first asks
for the sheared pair.

``bezout_sum`` enumerates every intersection point of two curves across
all three charts, as rational points and Galois orbits (``PointCluster``:
Frobenius orbits over F_p, exact clusters over Q).  It runs the three
engines once per rational point and once per orbit, demands exact
agreement, and checks the weighted total against the product of the
degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import (PROJECTIVE_VARS, LocalPair, _dense,
                      _strongly_regular_in_x, apply_shear, dehomogenize,
                      first_shear, gcd, is_homogeneous, lift_to_field,
                      local_pair, resultant, resultant_and_s1,
                      roots_univariate, squarefree_decompose,
                      translate_to_origin)
from .deformation import deformation_count
from .errors import (BudgetError, GeneralPositionError, InvalidInputError,
                     SharedComponentError, VerificationFailureError)
from .poly import MultiPoly


# ----------------------------------------------------------------- curves

class Curve:
    """A plane projective curve: homogeneous nonzero form in X, Y, Z.
    ``components()`` lists its squarefree factors with multiplicities;
    a multiplicity above 1 is a non-reduced component."""

    def __init__(self, form: MultiPoly):
        if form.is_zero():
            raise InvalidInputError("curve form must be nonzero")
        if tuple(form.vars) != PROJECTIVE_VARS:
            form = form.rename_vars(PROJECTIVE_VARS) if len(form.vars) == 3 \
                else form
        if not is_homogeneous(form):
            raise InvalidInputError("curve form must be homogeneous")
        self.form = form
        self.degree = form.total_degree()
        self.field = form.field

    def affine(self, chart: str = "Z") -> MultiPoly:
        return dehomogenize(self.form, chart)

    def components(self):
        """(reduced factor, multiplicity) pairs of the defining form, as
        ``squarefree_decompose`` lists them."""
        return squarefree_decompose(self.form)

    def __str__(self):
        return str(self.form)

    def __repr__(self):
        return f"Curve({self.form}, degree={self.degree})"


class ProjectivePoint:
    """Normalized homogeneous coordinates; the first nonzero one is 1."""

    def __init__(self, coords, field):
        coords = [field.of(c) for c in coords]
        if all(not c for c in coords):
            raise InvalidInputError("all projective coordinates vanish")
        pivot = next(c for c in coords if c)
        self.coords = tuple(c / pivot for c in coords)
        self.field = field

    @property
    def chart(self) -> str:
        # the standard chart this point is finite in
        if self.coords[2]:
            return "Z"
        if self.coords[1]:
            return "Y"
        return "X"

    def affine_pair(self):
        """The two affine coordinates in this point's chart."""
        X, Y, Z = self.coords
        if self.chart == "Z":
            return (X / Z, Y / Z)
        if self.chart == "Y":
            return (X / Y, Z / Y)
        return (Y / X, Z / X)

    def __eq__(self, other):
        return (isinstance(other, ProjectivePoint)
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"ProjectivePoint({self})"


@dataclass
class PointCluster:
    """A Galois orbit of irrational intersection points, carried as one.

    ``minpoly`` is an irreducible factor of the (sheared) eliminant; the
    orbit has ``degree`` conjugate points, all of the local multiplicity
    the engines compute at ``representative``, a point over
    ``K[r]/(minpoly)``.  Over F_p, ``conjugates`` lists the ``degree``
    points, the representative first and each the p-th power of the one
    before.  Over Q it is None: a non-normal extension cannot hold its
    conjugates, and the cluster contributes degree * multiplicity to the
    Bezout total as one.
    """
    minpoly: MultiPoly
    degree: int
    chart: str
    representative: ProjectivePoint = None
    conjugates: list = None

    def __str__(self):
        return (f"cluster[deg {self.degree}, chart {self.chart}, "
                f"minpoly {self.minpoly}]")


@dataclass
class MultiplicityReport:
    point: object
    mult_length: int
    mult_resultant: int
    mult_deformation: int
    transversal: bool
    shear: tuple
    precision: object
    weight: int  # its share of the Bezout total

    @property
    def agreed(self) -> bool:
        return self.mult_length == self.mult_resultant == self.mult_deformation

    @property
    def multiplicity(self) -> int:
        return self.mult_length

    def to_dict(self):
        lam, mu = self.shear
        return {
            "point": str(self.point),
            "mult_length": self.mult_length,
            "mult_resultant": self.mult_resultant,
            "mult_deformation": self.mult_deformation,
            "transversal": self.transversal,
            "shear": [str(lam), str(mu)],
            "weight": self.weight,
        }


# ------------------------------------------------------------ the engines

def mult_length(pair: LocalPair) -> int:
    """Dimension over the base field of the local ring at the origin modulo
    (f, g): the stabilized dimension of polynomials of degree < N modulo
    (f, g, all monomials of degree >= N).  Works in the given frame and
    never shears."""
    f, g = pair.f, pair.g
    d = max(1, f.total_degree())
    e = max(1, g.total_degree())
    cutoff_cap = 2 * d * e + 4
    prev = None
    for N in range(1, cutoff_cap + 1):
        cur = _local_dim(f, g, N)
        if prev is not None and cur == prev:
            return cur
        prev = cur
    raise BudgetError(f"local dimension did not stabilize below N={cutoff_cap}")


def _local_dim(f: MultiPoly, g: MultiPoly, N: int) -> int:
    field = f.field
    monos = [(i, j) for i in range(N) for j in range(N) if i + j < N]
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for h in (f, g):
        items = list(h.terms.items())
        for a in range(N):
            for b in range(N - a):
                row = [field.zero] * len(monos)
                nonzero = False
                for (i, j), c in items:
                    i2, j2 = i + a, j + b
                    if i2 + j2 < N:
                        k = index[(i2, j2)]
                        row[k] = row[k] + c
                        nonzero = True
                if nonzero:
                    rows.append(row)
    return len(monos) - _rank(rows, field)


def _rank(rows, field) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] * inv
                rows[i] = [ci - factor * cr
                           for ci, cr in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def mult_resultant_order(pair: LocalPair) -> int:
    """ord_y Res_x(fs, gs) of the sheared pair, which is in resultant
    general position (constant top x-coefficients, origin the only common
    zero on the line y = 0); equals the local intersection multiplicity
    there."""
    fs, gs, _, _ = pair.sheared
    xv, yv = fs.vars[0], fs.vars[1]
    R = resultant(fs, gs, xv)
    if R.is_zero():  # a LocalPair is coprime: a defect, not bad input
        raise VerificationFailureError(
            "identically vanishing resultant of a coprime local pair")
    yi = R.vars.index(yv)
    return min(e[yi] for e in R.terms)


def transversality_check(f: MultiPoly, g: MultiPoly) -> bool:
    """True iff both curves are nonsingular at the origin and meet with
    independent tangents (nonzero Jacobian determinant), read off the
    constant and linear terms of f and g in their first two variables."""
    zero, rest = f.field.zero, (0,) * (len(f.vars) - 2)
    const, ex, ey = (0, 0) + rest, (1, 0) + rest, (0, 1) + rest
    if f.terms.get(const, zero) or g.terms.get(const, zero):
        raise InvalidInputError("both curves must vanish at the origin")
    fx, fy, gx, gy = (h.terms.get(e, zero) for h in (f, g) for e in (ex, ey))
    if (not fx and not fy) or (not gx and not gy):
        return False
    return bool(fx * gy - fy * gx)


# ------------------------------------------------------ point enumeration

def _fiber_point(f: MultiPoly, g: MultiPoly, yval, lam, mu):
    """The common zero of a sheared pair over y = yval, back in the original
    frame, by the gcd of the two specialized polynomials: the fallback of
    ``_s1_point`` where S11(yval) = 0 or the chain skips degree one.
    Raises GeneralPositionError when the fiber does not hold exactly one
    distinct common zero (the shear is rejected)."""
    field = f.field
    xv, yv = f.vars[0], f.vars[1]
    factors = squarefree_decompose(
        gcd(f.subs_values({yv: yval}), g.subs_values({yv: yval})))
    if len(factors) != 1 or factors[0][0].degree_in(xv) != 1:
        raise GeneralPositionError("a fiber held two distinct common zeros")
    h = factors[0][0]
    x0 = -h.coeff_of(xv, 0).constant_value() / \
        h.coeff_of(xv, 1).constant_value()
    return _unsheared(x0, yval, lam, mu, field)


def _unsheared(x0, yval, lam, mu, field) -> ProjectivePoint:
    """The point (x0, yval) of the sheared frame in the original one."""
    y0 = (yval - field.of(lam) * x0) / field.of(mu)
    return ProjectivePoint((x0, y0, field.one), field)


def _s1_point(s1, yval, field, lam, mu):
    """The common zero of a sheared pair over a root yval of its eliminant,
    read off the chain's degree-one member S1 = S11(y) x + S10(y):
    x0 = -S10(yval)/S11(yval), by Horner's rule over the root's field,
    back in the original frame.  S1 lies in the ideal of the pair and both
    top x-coefficients are constants, so when S11(yval) != 0 the fiber
    holds exactly one common zero, the one ``_fiber_point`` finds.  None
    when S11(yval) = 0 or the chain skips degree one (S1 is None)."""
    if s1 is None:
        return None
    xv, yv = s1.vars[0], s1.vars[1]
    s10, s11 = (_horner(_dense(s1.coeff_of(xv, k), yv), yval, field)
                for k in (0, 1))
    return _unsheared(-s10 / s11, yval, lam, mu, field) if s11 else None


def _horner(coeffs, value, field):
    """sum(coeffs[k] * value^k) over ``field``, by Horner's rule."""
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * value + c
    return acc


def _orbit(minpoly: MultiPoly, chart: str,
           rep: ProjectivePoint) -> PointCluster:
    """The Galois orbit of ``rep``, a point over the root r of an
    irreducible ``minpoly`` (``roots_univariate``).  The orbit's k
    Frobenius conjugates are distinct because r, the sheared y-coordinate
    (or X/Y at infinity), generates the extension."""
    ext = rep.field
    k = ext.degree
    conjugates = None
    p = ext.characteristic
    if p:
        conjugates = [rep]
        for _ in range(k - 1):
            conjugates.append(ProjectivePoint(
                [c.frobenius() for c in conjugates[-1].coords], ext))
    return PointCluster(minpoly, k, chart, rep, conjugates)


def intersection_points(C1: Curve, C2: Curve):
    """Every common point of two curves, each exactly once.

    Affine points come from the Z chart after a joint shear that gives
    distinct points distinct y-coordinates; points at infinity from the
    Z = 0 line.  Returns (rational points, clusters): each irrational
    Galois orbit is one PointCluster, which over F_p lists its conjugate
    points.
    """
    if C1.field != C2.field:
        raise InvalidInputError("curves over different fields")
    common = gcd(C1.form, C2.form)
    if not common.is_constant():
        raise SharedComponentError("curves share a component")
    points, clusters = _affine_points(C1, C2)
    inf_points, inf_clusters = _infinity_points(C1, C2)
    return points + inf_points, clusters + inf_clusters


def _affine_points(C1: Curve, C2: Curve):
    f = C1.affine("Z")
    g = C2.affine("Z")
    if f.is_constant() or g.is_constant():
        return [], []  # a curve with no affine part in this chart
    xv, yv = f.vars[0], f.vars[1]

    def attempt(lam, mu):
        fs = apply_shear(f, lam, mu)
        gs = apply_shear(g, lam, mu)
        if not (_strongly_regular_in_x(fs) and _strongly_regular_in_x(gs)):
            return None
        R, s1 = resultant_and_s1(fs, gs, xv)
        if R.is_zero():  # the forms are coprime: a defect, not bad input
            raise VerificationFailureError(
                "identically vanishing eliminant of coprime curves")
        points, clusters = [], []
        if not R.involves(yv):
            return points, clusters  # no affine intersections
        for m, y0, yfield, _ in roots_univariate(R, yv, "r"):
            point = _s1_point(s1, y0, yfield, lam, mu) or _fiber_point(
                lift_to_field(fs, yfield), lift_to_field(gs, yfield), y0,
                lam, mu)
            if yfield == f.field:
                points.append(point)
            else:
                clusters.append(_orbit(m, "Z", point))
        return points, clusters
    return first_shear(f.field, attempt, "separated the affine points")


def _infinity_points(C1: Curve, C2: Curve):
    """The common points on Z = 0 of two curves with no common component:
    the zeros of H = gcd(C1(X, Y, 0), C2(X, Y, 0)), a binary form (a curve
    that contains Z = 0 restricts to 0, and gcd(0, B) is B)."""
    field = C1.field
    H = gcd(C1.form.coeff_of("Z", 0), C2.form.coeff_of("Z", 0))
    points = []
    # [1:0:0] is a zero of H iff H's X^deg coefficient vanishes
    if H.degree_in("X") < H.total_degree():
        points.append(ProjectivePoint((field.one, field.zero, field.zero),
                                      field))
    # the others are [x:1:0]
    h = H.subs_values({"Y": field.one})
    if h.is_constant():
        return points, []
    clusters = []
    for m, x0, xfield, _ in roots_univariate(h, "X", "r"):
        point = ProjectivePoint((x0, xfield.one, xfield.zero), xfield)
        if xfield == field:
            points.append(point)
        else:
            clusters.append(_orbit(m, "Y", point))
    return points, clusters


# --------------------------------------------------------------- reports

def _at_origin(F: MultiPoly, chart: str, pair) -> MultiPoly:
    """The form F in ``chart``, with the point of affine coordinates
    ``pair`` there moved to the origin.  The chart coordinates are renamed
    to (x, y) so every engine sees the standard frame."""
    f = dehomogenize(F, chart).rename_vars(("x", "y"))
    return translate_to_origin(f, pair)


def _local_pair_at(C1: Curve, C2: Curve, point: ProjectivePoint,
                   coprime: bool) -> LocalPair:
    """Both curves with the point at the affine origin, as a ``LocalPair``.
    Both must vanish there.  The pair is checked by ``local_pair`` unless
    ``coprime`` says the forms are proved to share no component: then so
    do their translates in any chart, and no gcd is run.  ``coprime`` comes
    only with a point the enumeration found, so there a curve that does not
    vanish is a defect, not bad input."""
    chart, (px, py) = point.chart, point.affine_pair()
    f0, g0 = (_at_origin(C.form, chart, (px, py)) for C in (C1, C2))
    if f0.constant_value() or g0.constant_value():
        where = f"({px},{py})" if chart == "Z" else str(point)
        if coprime:
            raise VerificationFailureError(
                f"enumerated point {where} is not a common zero of the "
                "curves")
        raise InvalidInputError(f"both curves must vanish at {where}")
    return LocalPair(f0, g0) if coprime else local_pair(f0, g0)


def multiplicities_at(C1: Curve, C2: Curve, point: ProjectivePoint,
                      seed: int = 0, prec=None, max_retries: int = 8, *,
                      coprime: bool = False) -> MultiplicityReport:
    """All three engines at one point, with exact agreement enforced.  The
    pair is checked once (a shear keeps what the check proves), or not at
    all when ``coprime`` passes on the proof that the curves share no
    component (``bezout_sum`` has it from ``intersection_points``).  It is
    sheared once, by the deformation engine: the resultant engine reads
    the same sheared pair."""
    pair = _local_pair_at(C1, C2, point, coprime)
    m_len = mult_length(pair)
    outcome = deformation_count(pair, seed=seed, prec=prec,
                                max_retries=max_retries)
    m_res = mult_resultant_order(pair)
    trans = transversality_check(pair.f, pair.g)
    report = MultiplicityReport(
        point=point, mult_length=m_len, mult_resultant=m_res,
        mult_deformation=outcome.count, transversal=trans,
        shear=outcome.shear, precision=outcome.precision, weight=m_len)
    if not report.agreed:
        raise VerificationFailureError(
            f"engine disagreement at {point}: length={m_len} "
            f"resultant={m_res} deformation={outcome.count}", report=report)
    if trans and report.multiplicity != 1:
        raise VerificationFailureError(
            f"transverse point with multiplicity != 1 at {point}",
            report=report)
    return report


@dataclass
class BezoutResult:
    total: int
    expected: int
    reports: list


def bezout_sum(C1: Curve, C2: Curve, seed: int = 0, prec=None,
               max_retries: int = 8) -> BezoutResult:
    """Sum the local multiplicities over every intersection point and check
    the total against degree(C1) * degree(C2).

    The engines run once per rational point and once per Galois orbit, at
    its representative.  Each point over F_p, rational or a Frobenius
    conjugate, gets one report line, sorted by chart and point; each
    cluster over Q follows as one line of weight degree * multiplicity."""
    points, clusters = intersection_points(C1, C2)

    def certify(pt):
        return multiplicities_at(C1, C2, pt, seed=seed, prec=prec,
                                 max_retries=max_retries, coprime=True)

    reports = [certify(pt) for pt in points]
    cluster_reports = []
    for cl in sorted(clusters, key=lambda c: (c.chart, str(c.minpoly))):
        rep = certify(cl.representative)
        if cl.conjugates:
            reports += [replace(rep, point=pt) for pt in cl.conjugates]
        else:
            cluster_reports.append(replace(
                rep, point=cl, weight=cl.degree * rep.multiplicity))
    reports.sort(key=lambda r: (r.point.chart, str(r.point)))
    reports += cluster_reports
    total = sum(rep.weight for rep in reports)
    expected = C1.degree * C2.degree
    result = BezoutResult(total, expected, reports)
    if total != expected:
        raise VerificationFailureError(
            f"Bezout total {total} != {expected}", report=result)
    return result


# ------------------------------------------------------------ bilinearity

def bilinearity_expand(C1: Curve, C2: Curve, point: ProjectivePoint):
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

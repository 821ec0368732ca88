"""Intersection multiplicities of plane projective curves, three ways.

* ``mult_length``: dimension of the local quotient ring at the origin,
  by exact linear algebra on truncations, stabilized in the cutoff.
* ``mult_resultant_order``: order of vanishing of the x-eliminant at the
  origin's fiber, on the pair sheared to resultant general position.
* ``deformation.deformation_count``: certified infinitesimal solution
  count.

Every frame comes from one search, ``algebra.shear_to_general_position``,
for the fibers of the eliminant R its caller names.  Each engine takes a
``LocalPair`` (``algebra.local_pair``), checked once when it is built and
sheared at most once, by the search for the origin's fiber, whose chain
the resultant engine reads; ``multiplicities_at`` runs the three at one
point.

``bezout_sum`` works in one frame for the whole pair of curves: the chart
of a line Z + aX + bY that misses every common point, sheared by the
search for every root of R (``_frames``).  There a
point's factor in R has the resultant engine's multiplicity, and one
attempt loop deforms the pair and counts the nearby solutions at every
point at once.  Over a small F_p the common points can meet every line;
then a second frame finds the points on the first frame's line at
infinity, and the attempt loop runs once per frame.  Points come as
rational points and Galois orbits
(``PointCluster``: Frobenius orbits over F_p, exact clusters over Q), in
the input's coordinates, and each orbit is certified once.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import (PROJECTIVE_VARS, LocalPair, _shift, dehomogenize, gcd,
                      is_homogeneous, local_pair, shear_bound,
                      shear_to_general_position, small_pairs,
                      squarefree_decompose, translate_to_origin)
from .deformation import deformation_count, deformation_counts
from .errors import (BudgetError, GeneralPositionError, InvalidInputError,
                     SharedComponentError, VerificationFailureError)
from .poly import MultiPoly, _poly


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


class PointCluster(namedtuple(
        "PointCluster", "minpoly degree chart representative conjugates",
        defaults=(None, None))):
    """A Galois orbit of irrational intersection points, carried as one.

    ``minpoly`` is an irreducible factor of the eliminant in the frame
    that found the orbit (``_frames``); the orbit has ``degree`` conjugate
    points, all of the local multiplicity the engines compute at
    ``representative``, a point over ``K[r]/(minpoly)`` in the input's
    coordinates, and ``chart`` is that point's standard chart.  Over F_p,
    ``conjugates`` lists the ``degree``
    points, the representative first and each the p-th power of the one
    before.  Over Q it is None: a non-normal extension cannot hold its
    conjugates, and the cluster contributes degree * multiplicity to the
    Bezout total as one.
    """
    __slots__ = ()

    def __str__(self):
        return (f"cluster[deg {self.degree}, chart {self.chart}, "
                f"minpoly {self.minpoly}]")


class MultiplicityReport(namedtuple(
        "MultiplicityReport", "point mult_length mult_resultant "
        "mult_deformation transversal shear precision weight")):
    """The three engines' values at one point (or one cluster), the
    transversality law's verdict, the shear and precision that certified
    the deformation engine, and ``weight``, the point's share of the
    Bezout total."""
    __slots__ = ()

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
    """ord_y Res_x(fs, gs) of the sheared pair, read off the chain of the
    search that sheared it (``LocalPair.sheared``), where the origin is
    alone on its fiber y = 0: the local intersection multiplicity."""
    *_, [(_, order, _, _)] = pair.sheared
    return order


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

def _orbit(minpoly: MultiPoly, rep: ProjectivePoint) -> PointCluster:
    """The Galois orbit of ``rep``, a point over the root r of an
    irreducible ``minpoly`` (``roots_univariate``).  The orbit's k
    Frobenius conjugates are distinct because r, the point's y in the
    sheared frame, generates the extension."""
    ext = rep.field
    k = ext.degree
    conjugates = None
    p = ext.characteristic
    if p:
        conjugates = [rep]
        for _ in range(k - 1):
            conjugates.append(ProjectivePoint(
                [c.frobenius() for c in conjugates[-1].coords], ext))
    return PointCluster(minpoly, k, rep.chart, rep, conjugates)


def _line_candidates(field):
    """(a, b) of the lines Z + aX + bY tried as the line at infinity:
    Z = 0 first, then by growing |a| + |b| (``algebra.small_pairs``), each
    line once over F_p."""
    def line(a, b):
        return field.of(a), field.of(b)
    return (line(a, b) for a, b in small_pairs(field, line))


def _moved(F: MultiPoly, a, b) -> MultiPoly:
    """The form F in the coordinates (X, Y, Z + aX + bY), that is
    F(X, Y, Z - aX - bY).  Z -> Z - aX is the shift z -> z - a of
    F(1, y, z), by Ruffini's rule (``algebra._shift``) on the terms keyed
    by their Y and Z exponents, and Z -> Z - bY that of F(x, 1, z); the
    degree of the form gives back the exponent of the coordinate set to
    1."""
    n, terms, zero = F.total_degree(), F.terms, F.field.zero
    for i, c in ((0, a), (1, b)):
        if c:
            shifted = _shift({e[:i] + e[i + 1:]: v for e, v in terms.items()},
                             1, -c, zero)
            terms = {e[:i] + (n - sum(e),) + e[i:]: v
                     for e, v in shifted.items()}
    return _poly(F.field, F.vars, terms)


def _frames(C1: Curve, C2: Curve):
    """[(fs, gs, lam, mu, sites)]: both curves in one frame, or in two,
    and every common point in them, each once.

    A frame is the chart of a line Z + aX + bY of ``_line_candidates``
    with the shear (lam, mu) that ``algebra.shear_to_general_position``
    finds for every root of R = Res_x(fs, gs).  The one frame
    is that of the first line that misses every common point and has such
    a shear.  The ``_moved`` forms F1, F2 meet Z = 0 at [x:1:0] for each
    common root x of b_i = F_i(x, 1, 0), so the univariate gcd of b1 and
    b2 must be a nonzero constant (a curve that contains the line gives
    b = 0, gcd(0, b) is b and gcd(0, 0) is 0), and at [1:0:0] when both
    lack their X^degree term.  A common component meets every line
    (Fulton, *Algebraic Curves*, 5.3), so a first line Z = 0 that misses
    every common point proves the curves coprime, and the gcd of the two
    forms runs only when Z = 0 meets a common point.  Over a small
    F_p the common points can meet every line (all p + 1 points of one
    line, say); then, and only then, the first line L with such a shear
    gives the points off L, and the first other line that meets L at no
    common point and has one gives the points on L, each line's shear
    searched at most once.  When no line or pair of lines serves, the
    last shear search's GeneralPositionError is raised.  One site per
    irreducible factor of R kept, as ``_placed`` builds it.  Curves of
    degree 0 meet nowhere, in no frame."""
    if C1.field != C2.field:
        raise InvalidInputError("curves over different fields")
    if not (C1.degree and C2.degree):
        return []
    field = C1.field
    last = GeneralPositionError(
        f"no line Z + aX + bY with |a|, |b| <= {shear_bound(field)} "
        "misses every common point")
    forms, charts = {}, {}

    def moved(line):
        if line not in forms:
            forms[line] = [_moved(C.form, *line) for C in (C1, C2)]
        return forms[line]

    def chart(line):
        nonlocal last
        if line not in charts:
            f, g = (dehomogenize(F, "Z") for F in moved(line))
            try:
                charts[line] = _placed(line, *shear_to_general_position(
                    f, g, "every root"))
            except GeneralPositionError as err:
                charts[line], last = None, err
        return charts[line]

    blocked = True  # every line meets a common point
    for k, line in enumerate(_line_candidates(field)):
        b1, b2 = (dehomogenize(F, "Y").coeff_of("z", 0) for F in moved(line))
        if gcd(b1, b2).total_degree() == 0 and (
                b1.degree_in("x") == C1.degree
                or b2.degree_in("x") == C2.degree):
            blocked = False
            if chart(line):
                return [charts[line]]
        elif not k and not gcd(C1.form, C2.form).is_constant():  # Z = 0
            raise SharedComponentError("curves share a component")
    for outer in _line_candidates(field) if blocked else ():
        if not chart(outer):
            continue
        for inner in _line_candidates(field):
            if inner != outer and not _meet_is_common(C1, C2, outer, inner) \
                    and chart(inner):
                fs, gs, lam, mu, sites = charts[inner]
                return [charts[outer], (fs, gs, lam, mu, [
                    site for site in sites if _on(outer, site[2])])]
    raise last


def _placed(line, fs, gs, lam, mu, R, s1, sites):
    """(fs, gs, lam, mu, sites) of the search in the chart of the line
    Z + aX + bY of (a, b) = line, a site as (at, multiplicity, point,
    cluster): ``at`` = (x0, y0) in the sheared chart over the field of one
    root y0, the multiplicity in R of y0's factor, the ProjectivePoint in
    the input's coordinates, and its PointCluster, or None for a rational
    point."""
    out = []
    for (x0, y0), mult, m, yfield in sites:
        (a, b), of = line, yfield.of
        # unsheared, then at Z + aX + bY = 1 in the input's coordinates
        y = (y0 - of(lam) * x0) / of(mu)
        point = ProjectivePoint((x0, y, yfield.one - of(a) * x0 - of(b) * y),
                                yfield)
        out.append(((x0, y0), mult, point,
                    None if yfield == fs.field else _orbit(m, point)))
    return fs, gs, lam, mu, out


def _meet_is_common(C1: Curve, C2: Curve, line1, line2) -> bool:
    """Whether the lines Z + aX + bY of (a, b) = line1 and line2 meet at a
    common point of the curves."""
    (a1, b1), (a2, b2) = line1, line2
    meet = dict(zip(PROJECTIVE_VARS, (b1 - b2, a2 - a1, a1 * b2 - a2 * b1)))
    return all(C.form.subs_values(meet).is_zero() for C in (C1, C2))


def _on(line, point: ProjectivePoint) -> bool:
    """Whether ``point`` lies on the line Z + aX + bY of (a, b) = line."""
    (a, b), (X, Y, Z) = line, point.coords
    return not Z + point.field.of(a) * X + point.field.of(b) * Y


def intersection_points(C1: Curve, C2: Curve):
    """Every common point of two curves, each exactly once, in the input's
    coordinates, found in the frames of ``_frames``.  Returns (rational
    points, clusters): each irrational Galois orbit is one PointCluster,
    which over F_p lists its conjugate points."""
    sites = [site for *_, frame_sites in _frames(C1, C2)
             for site in frame_sites]
    return ([point for _, _, point, cluster in sites if cluster is None],
            [cluster for *_, cluster in sites if cluster is not None])


# --------------------------------------------------------------- reports

def _at_origin(F: MultiPoly, chart: str, pair) -> MultiPoly:
    """The form F in ``chart``, with the point of affine coordinates
    ``pair`` there moved to the origin.  The chart coordinates are renamed
    to (x, y) so every engine sees the standard frame."""
    f = dehomogenize(F, chart).rename_vars(("x", "y"))
    return translate_to_origin(f, pair)


def _checked(report: MultiplicityReport) -> MultiplicityReport:
    """The report, once its three engines agree and a transverse point has
    multiplicity 1; VerificationFailureError otherwise."""
    if not report.agreed:
        raise VerificationFailureError(
            f"engine disagreement at {report.point}: "
            f"length={report.mult_length} resultant={report.mult_resultant} "
            f"deformation={report.mult_deformation}", report=report)
    if report.transversal and report.multiplicity != 1:
        raise VerificationFailureError(
            f"transverse point with multiplicity != 1 at {report.point}",
            report=report)
    return report


def multiplicities_at(C1: Curve, C2: Curve, point: ProjectivePoint,
                      seed: int = 0, prec=None,
                      max_retries: int = 8) -> MultiplicityReport:
    """All three engines at one point, with exact agreement enforced.  The
    point is moved to the origin of its chart and the pair checked once by
    ``local_pair`` (a shear keeps what the check proves).  It is sheared
    once, by the deformation engine: the resultant engine reads the order
    of that search's own chain."""
    chart, (px, py) = point.chart, point.affine_pair()
    f0, g0 = (_at_origin(C.form, chart, (px, py)) for C in (C1, C2))
    if f0.constant_value() or g0.constant_value():
        where = f"({px},{py})" if chart == "Z" else str(point)
        raise InvalidInputError(f"both curves must vanish at {where}")
    pair = local_pair(f0, g0)
    m_len = mult_length(pair)
    outcome = deformation_count(pair, seed=seed, prec=prec,
                                max_retries=max_retries)
    return _checked(MultiplicityReport(
        point=point, mult_length=m_len,
        mult_resultant=mult_resultant_order(pair),
        mult_deformation=outcome.count,
        transversal=transversality_check(pair.f, pair.g),
        shear=outcome.shear, precision=outcome.precision, weight=m_len))


class BezoutResult(namedtuple("BezoutResult", "total expected reports")):
    """The Bezout total, d * e, and the report of each point or cluster."""
    __slots__ = ()


def bezout_sum(C1: Curve, C2: Curve, seed: int = 0, prec=None,
               max_retries: int = 8) -> BezoutResult:
    """Sum the local multiplicities over every intersection point and check
    the total against degree(C1) * degree(C2).

    Everything runs in the frame of ``_frames``, or in its two frames
    when no line misses every common point.  There the resultant engine's
    value at a point or orbit is its factor's multiplicity in R, and
    ``deformation.deformation_counts`` deforms the frame's pair once per
    seed: its counts, weighted by orbit size, must sum to d * e over all
    frames before any report is built.  A report's shear is that of the
    frame that found its point.  The length engine and the transversality
    law run per point, on the frame pair translated there, with no gcd.
    Each point over F_p, rational or a Frobenius conjugate, gets one
    report line, sorted by chart and point; each cluster over Q follows as
    one line of weight degree * multiplicity."""
    expected = C1.degree * C2.degree
    found = []
    for fs, gs, lam, mu, sites in _frames(C1, C2):
        pairs = []
        for at, _, point, _ in sites:
            pair = LocalPair(*(translate_to_origin(h, at) for h in (fs, gs)))
            if pair.f.constant_value() or pair.g.constant_value():
                raise VerificationFailureError(
                    f"enumerated point {point} is not a common zero of the "
                    "curves")
            pairs.append(pair)
        if sites:
            counts, _, precision = deformation_counts(
                fs, gs, [site[0] for site in sites], seed, prec, max_retries)
            found += [(pair, count, site, (lam, mu), precision)
                      for pair, count, site in zip(pairs, counts, sites)]
    nearby = sum(count * (cluster.degree if cluster else 1)
                 for _, count, (*_, cluster), _, _ in found)
    if nearby != expected:
        raise VerificationFailureError(
            f"the deformed pair has {nearby} nearby solutions, not "
            f"{expected}")
    reports, cluster_reports = [], []
    for pair, count, (_, m_res, point, cluster), shear, precision in found:
        m_len = mult_length(pair)
        rep = _checked(MultiplicityReport(
            point=point, mult_length=m_len, mult_resultant=m_res,
            mult_deformation=count,
            transversal=transversality_check(pair.f, pair.g),
            shear=shear, precision=precision, weight=m_len))
        if cluster is None:
            reports.append(rep)
        elif cluster.conjugates:
            reports += [rep._replace(point=pt) for pt in cluster.conjugates]
        else:
            cluster_reports.append(rep._replace(
                point=cluster, weight=cluster.degree * m_len))
    reports.sort(key=lambda r: (r.point.chart, str(r.point)))
    cluster_reports.sort(key=lambda r: (r.point.chart, str(r.point.minpoly)))
    reports += cluster_reports
    total = sum(rep.weight for rep in reports)
    result = BezoutResult(total, expected, reports)
    if total != expected:
        raise VerificationFailureError(
            f"Bezout total {total} != {expected}", report=result)
    return result

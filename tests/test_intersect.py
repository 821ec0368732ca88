import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import curveint.algebra as algebra
import curveint.deformation as deformation
import curveint.infinitesimal as infinitesimal
import curveint.intersect as intersect
import curveint.lifting as lifting
from curveint.algebra import (_shear_candidates, _strongly_regular_in_x,
                              apply_shear, homogenize, lift_to_field,
                              local_pair, resultant_and_s1, roots_univariate,
                              shear_to_general_position)
from curveint.cli import (EXIT_INPUT, EXIT_OK, Job, parse_curve,
                          parse_field, parse_poly, run_job)
from curveint.corpus import affine_instances, corpus_manifest
from curveint.deformation import deformation_count
from curveint.errors import (GeneralPositionError, InfiniteMultiplicityError,
                             SharedComponentError)
from curveint.fields import QQ, ExtElement, ExtensionField, PrimeField
from curveint.infinitesimal import nearby_intersections
from curveint.intersect import (Curve, PointCluster, ProjectivePoint,
                                bezout_sum, intersection_points, mult_length,
                                mult_resultant_order, multiplicities_at,
                                transversality_check)
from curveint.poly import MultiPoly

from oracles import (bench_workloads, bilinearity_expand, evaluate,
                     frobenius_orbit, fulton_intersection_number,
                     random_poly, rank_by_elimination)

V = ("x", "y")
P3 = ("X", "Y", "Z")


def xy(field=QQ):
    return (MultiPoly.var(field, V, "x"), MultiPoly.var(field, V, "y"))


def curve(f, d=None):
    return Curve(homogenize(f, d if d is not None else f.total_degree()))


# -------------------------------------------------------- projective points

@pytest.mark.parametrize("field", [
    QQ, PrimeField(101), ExtensionField(QQ, [-2, 0, 1], "w"),
    ExtensionField(PrimeField(7), [-3, 0, 1], "w")],
    ids=["Q", "F101", "Q[w]/(w^2-2)", "F7[w]/(w^2-3)"])
def test_projective_point_inverts_one_coordinate(field, monkeypatch):
    """A point's coordinates are the quotients by its first nonzero one,
    and its affine pair the quotients by its chart's coordinate, as they
    print; over an extension, building the point and reading its affine
    pair each invert at most one element."""
    rng = random.Random(79)
    extension = isinstance(field, ExtensionField)
    inverses = []
    inverse = ExtElement.inverse
    monkeypatch.setattr(ExtElement, "inverse",
                        lambda self: inverses.append(self) or inverse(self))

    def coordinate():
        if rng.random() < 0.4:
            return field.zero
        c = field.of(rng.randint(-5, 5)) / rng.randint(1, 4)
        return c + field.gen * rng.randint(-5, 5) if extension else c
    charts = set()
    for _ in range(60):
        coords = [coordinate() for _ in range(3)]
        if not any(coords):
            continue
        del inverses[:]
        point = ProjectivePoint(coords, field)
        assert len(inverses) <= 1, coords
        pivot = next(c for c in coords if c)
        assert ([str(c) for c in point.coords]
                == [str(c / pivot) for c in coords]), coords
        X, Y, Z = point.coords
        u, v, w = {"Z": (X, Y, Z), "Y": (X, Z, Y),
                   "X": (Y, Z, X)}[point.chart]
        del inverses[:]
        pair = point.affine_pair()
        assert len(inverses) <= 1, coords
        assert [str(c) for c in pair] == [str(u / w), str(v / w)], coords
        charts.add(point.chart)
    assert charts == {"X", "Y", "Z"}


# ------------------------------------------------------------- mult_length

def test_length_transverse_lines():
    x, y = xy()
    assert mult_length(local_pair(x, y)) == 1


def test_length_cusp_against_axes():
    x, y = xy()
    assert mult_length(local_pair(x * x - y ** 3, y)) == 2
    assert mult_length(local_pair(x * x - y ** 3, x)) == 3


def test_length_matches_independent_oracle():
    x, y = xy()
    for f, g in [(x * x - y, x * x - 2 * y),
                 ((y - x * x) ** 2, x),
                 (x * y, x - y),
                 (x ** 3 - y ** 3, x + y)]:
        assert mult_length(local_pair(f, g)) == \
            fulton_intersection_number(f, g)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)],
                         ids=str)
def test_length_matches_fulton_on_random_pairs(field):
    """Seeded random pairs through the origin, some sharing a factor: the
    length engine and Fulton's algorithm agree, on finite multiplicities
    and on which pairs have none."""
    rng = random.Random(3301)
    x, y = xy(field)
    seen = set()
    for _ in range(40):
        f, g = (random_poly(rng, field, V, rng.randint(2, 4), 3,
                            force_origin=True) for _ in range(2))
        if rng.random() < 0.6:  # singular at the origin, or tangent there
            f = f.clone({e: c for e, c in f.terms.items() if sum(e) > 1})
        if rng.random() < 0.3:
            g = g.clone({e: c for e, c in g.terms.items() if sum(e) > 1})
        if rng.random() < 0.15:
            common = x - y * field.of(rng.randint(-2, 2))
            f, g = f * common, g * common
        if f.is_zero() or g.is_zero():
            continue
        try:
            expected = fulton_intersection_number(f, g)
        except ValueError:
            with pytest.raises(InfiniteMultiplicityError):
                mult_length(local_pair(f, g))
            continue
        assert mult_length(local_pair(f, g)) == expected, (str(f), str(g))
        seen.add(expected)
    assert len(seen) >= 3  # the draws reach beyond transverse pairs


def test_length_never_shears():
    """Over F2 no shear puts (xy, x + y) in general position, and the
    length engine, which works in the given frame, still answers."""
    x, y = xy(PrimeField(2))
    pair = local_pair(x * y, x + y)
    assert mult_length(pair) == 2
    with pytest.raises(GeneralPositionError):
        pair.sheared


def _local_pair_gcds(monkeypatch):
    """The arguments of every gcd that ``local_pair`` itself runs, as a
    spy on ``algebra.gcd`` records them."""
    calls, real = [], algebra.gcd
    code = algebra.local_pair.__code__

    def spy(f, g):
        if sys._getframe(1).f_code is code:
            calls.append((f, g))
        return real(f, g)
    monkeypatch.setattr(algebra, "gcd", spy)
    return calls


def test_local_pair_runs_no_gcd_where_a_shear_exists(monkeypatch):
    """The pair's shear search for the origin's fiber proves the curves
    coprime (R != 0 with constant top x-coefficients), so ``local_pair``
    runs no gcd on any mult job of the corpus or the stress workload, nor
    on any two-scale identity, and each of them builds a local pair."""
    calls = _local_pair_gcds(monkeypatch)
    built = []
    for module in (intersect, infinitesimal):
        real = module.local_pair
        monkeypatch.setattr(module, "local_pair",
                            lambda f, g, real=real: built.append(f) or
                            real(f, g))
    workloads = bench_workloads()
    jobs = [job for name in ("corpus", "stress")
            for job in workloads.build(name, 1) if job["kind"] == "mult"]
    for job in jobs:
        _, code = run_job(Job(command="mult", curves=tuple(job["curves"]),
                              field=job["field"]))
        assert code == EXIT_OK, job["name"]
    checks = {"staged": infinitesimal.staged_specialization_check,
              "leftright": infinitesimal.left_right_factoring_check}
    texts = {name: (f, g, field) for name, f, g, field
             in affine_instances()}
    identities = [(name, check) for name, check in workloads.TWO_SCALE
                  if (name, check) != ("tacnode-pair-vs-axis", "leftright")]
    for name, check in identities:
        f, g, field = texts[name]
        field = parse_field(field)[0]
        assert checks[check](*(parse_curve(text, field).affine("Z")
                               for text in (f, g)),
                             seed=workloads.TWO_SCALE_SEED)
    assert len(built) >= len(jobs) + len(identities)
    assert calls == []


@pytest.mark.parametrize("field,f,g,error", [
    (QQ, "x*y", "x*(x+y)", InfiniteMultiplicityError),
    (QQ, "x*(y-1)", "y*(y-1)", SharedComponentError),
    (PrimeField(7), "x*y", "x*(x+y)", InfiniteMultiplicityError),
    (PrimeField(7), "x*(y-1)", "y*(y-1)", SharedComponentError),
    (PrimeField(2), "x*y", "x+y", None),
    (QQ, "0", "x", InfiniteMultiplicityError),
    (QQ, "0", "0", InfiniteMultiplicityError),
    (PrimeField(7), "0", "0", InfiniteMultiplicityError)],
    ids=["Q-through-origin", "Q-away", "F7-through-origin", "F7-away",
         "F2-no-shear", "Q-zero-curve", "Q-two-zero-curves",
         "F7-two-zero-curves"])
def test_local_pair_runs_one_gcd_where_the_search_proves_nothing(
        monkeypatch, field, f, g, error):
    """Where the first strongly regular shear finds R = 0, one gcd of the
    pair names the shared component, through the origin or away from it;
    where no shear exists at all (x*y, x + y over F2), one gcd proves the
    curves coprime and the pair is built.  A zero curve gets no shear
    search, and the gcd names the component it shares with the other
    curve, all of it when both are 0 (gcd(0, 0) = 0)."""
    calls = _local_pair_gcds(monkeypatch)
    f, g = (parse_poly(text, field, V) for text in (f, g))
    if error is None:
        assert mult_length(local_pair(f, g)) == 2
    else:
        with pytest.raises(error):
            local_pair(f, g)
    assert calls == [(f, g)]


F7_PAIR = ("-5*X^2 - 4*X*Y + 5*X*Z + 4*Y^2 - 2*Y*Z - 3*Z^2",
           "-5*X^3 - 3*X^2*Y - 3*X^2*Z + X*Y^2 - 2*X*Y*Z + 5*X*Z^2 + 3*Y^3 "
           "+ 2*Y^2*Z - Y*Z^2 + 4*Z^3")


def test_shear_searches_over_f2_name_the_bound_they_tried(monkeypatch):
    """Over F2 only |lam|, mu <= 1 is tried, and the local, affine and
    nearby shear searches all say so in one wording and list every shear
    they tried.  Over F7, in the chart of Z = 0 alone, the affine search
    tries all 7 directions, each with a fiber holding two common zeros,
    and names that last reason."""
    monkeypatch.setattr(intersect, "_line_candidates",
                        lambda field: iter([(field.zero, field.zero)]))
    F2, F7 = PrimeField(2), PrimeField(7)
    x, y = xy(F2)
    f7_pair = [parse_curve(text, F7) for text in F7_PAIR]
    cases = [
        (F2, lambda: local_pair(x * y, x + y).sheared,
         "<= 1 put the pair in general position"),
        (F2, lambda: bezout_sum(curve(y * y + x * y), curve(x * x + y + 1)),
         "<= 1 separated the affine points"),
        (F2, lambda: nearby_intersections(x * y, x + y),
         "<= 1 separated the nearby points"),
        (F7, lambda: bezout_sum(*f7_pair),
         "<= 6 separated the affine points "
         "(last: a fiber held two distinct common zeros)"),
    ]
    for field, run, outcome in cases:
        with pytest.raises(GeneralPositionError) as info:
            run()
        assert str(info.value) == f"no shear with |lam|, mu {outcome}"
        assert info.value.tried == list(_shear_candidates(field))
    assert len(info.value.tried) == 7


def test_a_line_whose_chart_separates_the_points_gives_the_frame():
    """No shear of the chart of Z = 0 separates the common points of the
    F7 pair above (a fiber holds two of them at every one of the 7
    directions), so the frame moves to the next line Z + aX + bY that
    misses them: four rational points, checked by hand, and one orbit of
    two, each transverse, total 6."""
    F7 = PrimeField(7)
    res = bezout_sum(*(parse_curve(text, F7) for text in F7_PAIR), seed=1)
    assert res.total == res.expected == 6
    assert all(r.weight == 1 and r.transversal for r in res.reports)
    rational = {str(r.point) for r in res.reports if "r" not in str(r.point)}
    assert rational == {"[1:2:2]", "[1:4:3]", "[1:5:4]", "[1:6:1]"}


@pytest.mark.parametrize("p,form", [(7, "X^7*Z - X*Z^7 + Y^8"),
                                    (2, "X^2*Z + X*Z^2 + Y^3")])
def test_points_on_every_line_are_found_in_two_frames(p, form):
    """Every point of Y = 0 over F_p is a common point, so every line over
    F_p meets one and no one chart holds them all: the chart of Z = 0
    gives the p affine points, and the chart of a second line, which
    meets Z = 0 at no common point, gives [1:0:0].  Each is transverse,
    total p + 1."""
    F = PrimeField(p)
    C1, C2 = parse_curve("Y", F), parse_curve(form, F)
    assert len(intersect._frames(C1, C2)) == 2
    res = bezout_sum(C1, C2)
    assert res.total == res.expected == p + 1
    assert {str(r.point) for r in res.reports} == \
        {"[1:0:0]", "[0:0:1]"} | {f"[1:0:{z}]" for z in range(1, p)}
    assert all(r.weight == 1 and r.transversal for r in res.reports)


@pytest.mark.parametrize("field", [
    QQ, PrimeField(2), PrimeField(7), PrimeField(101),
    ExtensionField(QQ, [-2, 0, 1], "w")],
    ids=["Q", "F2", "F7", "F101", "Q[w]/(w^2-2)"])
def test_rank_on_codes_matches_elimination_on_elements(field):
    """``intersect._rank`` on codes (over Q each row cleared of its
    denominators and eliminated fraction-free, over F_p residues, over an
    extension the elements) equals the element-wise elimination of
    ``oracles.rank_by_elimination``: seeded matrices up to 8 x 8 of rank
    up to the smaller side, sparse, most of them rank-deficient (each row
    a random combination of fewer rows), some with zero columns that hold
    no pivot, and the empty matrix."""
    rng = random.Random(83)
    extension = isinstance(field, ExtensionField)

    def entry():  # zero about half the time, as in the local-ring rows
        if rng.random() < 0.5:
            return field.zero
        c = field.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     if field == QQ or extension else rng.randint(-9, 9))
        return c + field.gen * rng.randint(-2, 2) if extension else c

    def codes(row):
        if extension:
            return list(row)
        if field.characteristic:
            return [c.val for c in row]
        den = math.lcm(*(c.denominator for c in row))
        return [c.numerator * (den // c.denominator) for c in row]
    ranks = set()
    for k in range(80):
        nrows, ncols = (rng.randint(1, 8) if k else 0), rng.randint(1, 8)
        basis = [[entry() for _ in range(ncols)]
                 for _ in range(rng.randint(0, min(nrows, ncols)))]
        empty = set(rng.sample(range(ncols), rng.randint(0, ncols // 2)))
        rows = []
        for _ in range(nrows):
            row = [field.zero] * ncols
            for b in basis:
                c = field.of(rng.choice((0, 0, 0, 1, -1, 2, -3)))
                row = [x + c * y for x, y in zip(row, b)]
            rows.append([field.zero if j in empty else x
                         for j, x in enumerate(row)])
        want = rank_by_elimination(rows)
        assert intersect._rank([codes(row) for row in rows], field) == want
        ranks.add((want, want < min(nrows, ncols)))
    assert {deficient for _, deficient in ranks} == {False, True}


def test_length_shared_component_through_origin():
    x, y = xy()
    with pytest.raises(InfiniteMultiplicityError):
        mult_length(local_pair(x * y, x * (x + y)))


# ---------------------------------------------------- mult_resultant_order

def test_resultant_order_conic_pair():
    x, y = xy()
    assert mult_resultant_order(local_pair(x * x - y, x * x - 2 * y)) == 2


def test_resultant_order_transverse():
    x, y = xy()
    assert mult_resultant_order(local_pair(x, y)) == 1


def test_resultant_order_shears_a_non_regular_pair():
    # y vanishes on the x-axis; the engine reads the sheared pair
    x, y = xy()
    pair = local_pair(y, y - x)
    assert mult_resultant_order(pair) == mult_length(pair) == 1


def test_resultant_order_leaves_no_second_zero_on_the_axis():
    # unsheared, Res_x(x^2 - x + y, y) = y^2 also counts the common zero
    # (1, 0); the sheared pair has the origin alone on its axis
    x, y = xy()
    pair = local_pair(x * x - x + y, y)
    assert mult_resultant_order(pair) == mult_length(pair) == 1


def test_resultant_order_after_shear_matches_length():
    x, y = xy()
    f, g = x * x - y ** 3, y - x
    fs, gs, _, _, _, _, _ = shear_to_general_position(f, g, "origin")
    assert mult_resultant_order(local_pair(fs, gs)) == \
        mult_length(local_pair(f, g)) == 2


# --------------------------------------------------------- transversality

def test_transversality_examples():
    """The law's verdict is the oracle's: the Jacobian determinant of the
    pair, evaluated at the origin, is nonzero.  On the classical examples
    and on random local pairs over Q and F101, tangent and singular ones
    included."""
    x, y = xy()
    assert transversality_check(x, y) is True
    assert transversality_check(y - x * x, y) is False  # tangent
    assert transversality_check(x * x - y ** 3, x) is False  # singular
    rng = random.Random(5153)
    seen = Counter()
    for field in (QQ, PrimeField(101)):
        origin = {"x": field.zero, "y": field.zero}
        for _ in range(80):
            f, g = (random_poly(rng, field, V, rng.randint(1, 3), 3,
                                force_origin=True) for _ in range(2))
            shape = rng.choice(["generic", "singular", "tangent"])
            if shape == "singular":  # no linear terms in one curve
                f = f.clone({e: c for e, c in f.terms.items() if sum(e) > 1})
            elif shape == "tangent":  # g's linear part a multiple of f's
                linear = f.clone({e: c for e, c in f.terms.items()
                                  if sum(e) == 1})
                g = g.clone({e: c for e, c in g.terms.items()
                             if sum(e) > 1}) + linear * rng.randint(-3, 3)
            jac = (f.derivative("x") * g.derivative("y")
                   - f.derivative("y") * g.derivative("x"))
            expected = bool(evaluate(jac, origin))
            assert transversality_check(f, g) is expected, (str(f), str(g))
            seen[field, shape, expected] += 1
    assert all(seen[field, "generic", True] and seen[field, "singular", False]
               and seen[field, "tangent", False]
               for field in (QQ, PrimeField(101)))


def test_transversality_implies_unit_multiplicity():
    x, y = xy()
    pairs = [(x, y), (x + y, x - y), (y - x * x, x + y),
             (x + 2 * y + y * y, y + x * x)]
    for f, g in pairs:
        if transversality_check(f, g):
            assert mult_length(local_pair(f, g)) == 1
            assert deformation_count(local_pair(f, g), seed=5).count == 1


# ------------------------------------------------------------ shear effect

def test_shear_preserves_all_three_multiplicities():
    x, y = xy()
    f, g = x * x - y ** 3, y - x
    lam, mu = QQ.of(2), QQ.of(1)
    fsh, gsh = apply_shear(f, lam, mu), apply_shear(g, lam, mu)
    assert mult_length(local_pair(f, g)) == mult_length(local_pair(fsh, gsh))
    assert deformation_count(local_pair(f, g), seed=7).count == \
        deformation_count(local_pair(fsh, gsh), seed=7).count
    assert mult_resultant_order(local_pair(f, g)) == \
        mult_resultant_order(local_pair(fsh, gsh))


def test_shear_invariance_across_corpus_pairs():
    from curveint.cli import parse_field, parse_poly
    from curveint.corpus import affine_instances
    lam, mu = 3, 2
    for name, ftext, gtext, fieldname in affine_instances():
        field, _ = parse_field(fieldname)
        f = parse_poly(ftext, field, V)
        g = parse_poly(gtext, field, V)
        fsh = apply_shear(f, field.of(lam), field.of(mu))
        gsh = apply_shear(g, field.of(lam), field.of(mu))
        assert mult_length(local_pair(f, g)) == \
            mult_length(local_pair(fsh, gsh)), name


# ------------------------------------------------------------------ points

def test_points_two_lines():
    CX = Curve(MultiPoly.var(QQ, P3, "X"))
    CY = Curve(MultiPoly.var(QQ, P3, "Y"))
    pts, cls = intersection_points(CX, CY)
    assert [str(p) for p in pts] == ["[0:0:1]"] and not cls


def test_points_cusp_vs_infinity_line():
    x, y = xy()
    cusp = curve(x * x - y ** 3)
    CY = Curve(MultiPoly.var(QQ, P3, "Y"))
    pts, cls = intersection_points(cusp, CY)
    assert sorted(str(p) for p in pts) == ["[0:0:1]", "[1:0:0]"]
    assert not cls


def test_points_conic_vs_far_line_cluster():
    x, y = xy()
    conic = curve(x * x + y * y - 1)
    line = curve(x - 3)
    pts, cls = intersection_points(conic, line)
    assert not pts and len(cls) == 1
    cl = cls[0]
    assert cl.degree == 2
    yv = cl.minpoly.vars[1]
    assert cl.minpoly == MultiPoly.var(QQ, cl.minpoly.vars, yv) ** 2 + 8


def test_points_shared_component_rejected():
    x, y = xy()
    a = curve(x * y, 2)
    b = curve(x * (x + y), 2)
    with pytest.raises(SharedComponentError):
        intersection_points(a, b)


@pytest.mark.parametrize("f,g,field", [
    ("4*Z^2 - X*Z", "4*Y*Z", "Q"),  # both curves contain Z = 0
    ("X*Z", "Y*Z", "F2"),
    ("(X+Y+Z)*(X^2+Y*Z)", "(X+Y+Z)*Y", "F2"),
    ("x^2+y^2+1", "(x^2+y^2+1)*x", "F2"),
])
def test_bezout_shared_component_is_input_error(monkeypatch, f, g, field):
    """A shared component meets every line, so the first line ``_frames``
    tries, Z = 0, is blocked and the gcd of the two forms refuses the pair
    with exit 2 before any other line is moved, also where both curves
    contain Z = 0 (the gcd of their restrictions to it is 0, which proves
    nothing)."""
    moved = []
    real = intersect._moved
    monkeypatch.setattr(intersect, "_moved",
                        lambda *a: moved.append(a[1:]) or real(*a))
    report, code = run_job(Job(command="bezout", curves=(f, g), field=field))
    assert code == EXIT_INPUT
    assert report["error"] == "curves share a component"
    assert len(moved) == 2 and not any(any(ab) for ab in moved)


def test_bezout_frame_proves_the_curves_coprime_by_its_line(monkeypatch):
    """A line Z = 0 that misses every common point proves the curves
    coprime: no gcd of the two forms runs, and a squarefree eliminant of
    the frame is split with no ``squarefree_decompose``.  The F7
    concentric conics meet Z = 0 in an orbit, so that line is blocked:
    the gcd of the forms runs once, and they still make one frame
    search."""
    gcds, splits, searches = [], [], []
    real_gcd, real_split = algebra.gcd, algebra.squarefree_decompose
    real_search = intersect.shear_to_general_position

    def counting(f, g):
        gcds.append((f, g))
        return real_gcd(f, g)
    for module in (algebra, intersect):
        monkeypatch.setattr(module, "gcd", counting)
    monkeypatch.setattr(algebra, "squarefree_decompose",
                        lambda f: splits.append(f) or real_split(f))
    monkeypatch.setattr(intersect, "shear_to_general_position",
                        lambda *a: searches.append(a) or real_search(*a))
    for p, f, g, blocked in ((0, "x^2 + y^2 - 1", "x - 3", False),
                             (101, "x^2 + y^2 - 1", "x - 3", False),
                             (7, "x^2 + y^2 - 1", "x^2 + y^2 - 2", True)):
        field = PrimeField(p) if p else QQ
        C1, C2 = parse_curve(f, field), parse_curve(g, field)
        del gcds[:], splits[:], searches[:]
        res = bezout_sum(C1, C2, seed=1)
        assert res.total == res.expected
        assert gcds.count((C1.form, C2.form)) == blocked
        assert len(searches) == 1
        assert bool(splits) == blocked  # the conics' R has double roots


def test_frames_move_each_line_once(monkeypatch):
    """The line test and the chart of a line read one pair of moved
    forms: the F7 concentric conics are blocked on Z = 0 and framed on
    Z + 6X, and each line's two forms are moved once."""
    moved = Counter()
    real = intersect._moved
    monkeypatch.setattr(intersect, "_moved",
                        lambda *a: moved.update([a[1:]]) or real(*a))
    F7 = PrimeField(7)
    intersection_points(parse_curve("x^2 + y^2 - 1", F7),
                        parse_curve("x^2 + y^2 - 2", F7))
    assert moved == {(F7.of(a), F7.of(b)): 2 for a, b in ((0, 0), (6, 0))}


def test_points_fp_conjugates_materialized():
    F = PrimeField(7)
    x, y = xy(F)
    conic = Curve(homogenize(x * x + y * y - 1, 2))
    line = Curve(homogenize(x - 3, 1))
    pts, cls = intersection_points(conic, line)
    assert not pts and len(cls) == 1
    cl = cls[0]
    assert cl.degree == 2 and len(cl.conjugates) == 2
    assert cl.conjugates[0] == cl.representative
    assert all(isinstance(p.field, ExtensionField) for p in cl.conjugates)


# (p, f, g) meeting in one irrational Frobenius orbit: affine of degree 2,
# 3 and 4, and of degree 2 at infinity
FP_ORBIT_PAIRS = [
    (101, lambda x, y: x * x + y * y - 1, lambda x, y: x - 3),
    (7, lambda x, y: x ** 3 - 2, lambda x, y: y - x),
    (7, lambda x, y: x * x + y * y - 1, lambda x, y: x * x + y * y - 2),
    (5, lambda x, y: x ** 4 + y ** 4 - 3, lambda x, y: x + 2 * y - 1),
]


@pytest.mark.parametrize("p,f,g", FP_ORBIT_PAIRS)
def test_points_fp_conjugates_match_frobenius_oracle(p, f, g):
    x, y = xy(PrimeField(p))
    pts, cls = intersection_points(curve(f(x, y)), curve(g(x, y)))
    assert not pts and len(cls) == 1
    cl = cls[0]
    coords = [pt.coords for pt in cl.conjugates]
    assert len(coords) == cl.degree == len(set(coords))
    assert set(coords) == frobenius_orbit(cl.representative, cl.degree)


@pytest.mark.parametrize("p,f,g", FP_ORBIT_PAIRS)
def test_bezout_conjugate_lines_copy_the_representative(p, f, g):
    """Each pair meets in one Frobenius orbit: ``bezout_sum`` gives one
    line per conjugate, each the representative's report in every field
    but ``point``."""
    x, y = xy(PrimeField(p))
    C1, C2 = curve(f(x, y)), curve(g(x, y))
    [cluster] = intersection_points(C1, C2)[1]
    reports = bezout_sum(C1, C2, seed=1).reports
    assert sorted(str(r.point) for r in reports) == \
        sorted(str(pt) for pt in cluster.conjugates)
    [rep] = [r for r in reports if r.point == cluster.representative]
    for r in reports:
        assert r._replace(point=rep.point) == rep


@pytest.mark.parametrize("field", [QQ, PrimeField(101), PrimeField(7)],
                         ids=str)
def test_s1_reading_is_the_gcd_reading(field):
    """Wherever S11(y0) != 0 at a root y0 of a sheared eliminant, the point
    read off S1 is the one the gcd of the fiber gives, over the root's
    field (rational roots and generators of K[r]/(m) alike, among them
    the orbit of degree 3 of x^3 + x + 1 = y - x^2 = 0 over Q and F101)."""
    rng = random.Random(3401)
    checked, degrees = 0, set()
    x, y = xy(field)
    pairs = [[random_poly(rng, field, V, rng.randint(2, 3))
              for _ in range(2)] for _ in range(10)]
    for f, g in pairs + [(x ** 3 + x + 1, y - x * x)]:
        for lam, mu in ((0, 1), (1, 1), (-2, 1)):
            lam, mu = field.of(lam), field.of(mu)
            fs, gs = apply_shear(f, lam, mu), apply_shear(g, lam, mu)
            if not (_strongly_regular_in_x(fs)
                    and _strongly_regular_in_x(gs)):
                continue
            R, s1 = resultant_and_s1(fs, gs, "x")
            if not R.involves("y"):
                continue
            for _, y0, yfield, _ in roots_univariate(R, "y", "r"):
                x0 = algebra._s1_x(s1, y0, yfield)
                if x0 is not None:
                    assert x0 == algebra._fiber_x(
                        lift_to_field(fs, yfield), lift_to_field(gs, yfield),
                        y0)
                    checked += 1
                    degrees.add(getattr(yfield, "degree", 1))
    assert checked >= 20
    assert field.characteristic == 7 or max(degrees) >= 3


def test_gcd_fallback_runs_only_where_s1_cannot_read_the_point(monkeypatch):
    """The two corpus pairs whose chains skip degree one take the gcd of
    the fiber; no affine point of the seed-1 bezout-random pairs does."""
    calls = []
    fiber = algebra._fiber_x
    monkeypatch.setattr(algebra, "_fiber_x",
                        lambda *a: calls.append(a) or fiber(*a))

    def points(f, g, field):
        field = parse_field(field)[0]
        del calls[:]
        intersection_points(parse_curve(f, field), parse_curve(g, field))
        return len(calls)
    jobs = {e["name"]: e["job"] for e in corpus_manifest()}
    for name in ("two-conics-quartic-cluster", "tangent-conics-projective"):
        assert points(*jobs[name]["curves"], jobs[name]["field"]), name
    for job in bench_workloads().build("bezout-random", 1):
        assert not points(*job["curves"], job["field"]), job["name"]


# ------------------------------------------------------------------ bezout

def test_bezout_two_lines():
    CX = Curve(MultiPoly.var(QQ, P3, "X"))
    CY = Curve(MultiPoly.var(QQ, P3, "Y"))
    res = bezout_sum(CX, CY, seed=1)
    assert res.total == res.expected == 1


def test_bezout_cusp_vs_infinity_line():
    x, y = xy()
    res = bezout_sum(curve(x * x - y ** 3),
                     Curve(MultiPoly.var(QQ, P3, "Y")), seed=1)
    assert res.total == res.expected == 3
    weights = {str(r.point): r.weight for r in res.reports}
    assert weights == {"[0:0:1]": 2, "[1:0:0]": 1}


def test_bezout_double_line():
    x, y = xy()
    res = bezout_sum(curve((x - y) ** 2), curve(x), seed=1)
    assert res.total == res.expected == 2
    assert len(res.reports) == 1 and res.reports[0].weight == 2


def test_bezout_cluster_weighting():
    x, y = xy()
    res = bezout_sum(curve(x * x + y * y - 1), curve(x - 3), seed=1)
    assert res.total == res.expected == 2
    rep = res.reports[0]
    assert isinstance(rep.point, PointCluster)
    assert rep.weight == 2 and rep.multiplicity == 1


WHOLE_PAIRS = FP_ORBIT_PAIRS + [
    (0, lambda x, y: x * x + y * y - 1, lambda x, y: x - 3),
    (0, lambda x, y: x * x - y ** 3, lambda x, y: y - x),
    (0, lambda x, y: x * y - 1, lambda x, y: x)]


@pytest.mark.parametrize("p,f,g", WHOLE_PAIRS)
def test_bezout_runs_one_frame_for_the_whole_pair(monkeypatch, p, f, g):
    """One shear search per line tried, each for every root of R, one
    enumeration chain for the pair, one deformed chain per attempt for
    all its points and orbits, and no per-point shear search, resultant
    engine, deformation count or ``multiplicities_at``."""
    chains = {"enumeration": 0, "deformed": 0, "directions": 0}
    searches = []

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            chains[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def refused(*args, **kwargs):
        raise AssertionError("per-point work under bezout")

    real_search = intersect.shear_to_general_position

    def search(f, g, fibers):
        searches.append((str(f), str(g), fibers))
        return real_search(f, g, fibers)

    counting(algebra, "resultant_and_s1", "enumeration")
    counting(deformation, "resultant_and_s1", "deformed")
    counting(deformation, "random_direction", "directions")
    monkeypatch.setattr(intersect, "shear_to_general_position", search)
    monkeypatch.setattr(algebra, "shear_to_general_position", refused)
    for name in ("deformation_count", "mult_resultant_order",
                 "multiplicities_at"):
        monkeypatch.setattr(intersect, name, refused)
    x, y = xy(PrimeField(p) if p else QQ)
    res = bezout_sum(curve(f(x, y)), curve(g(x, y)), seed=1)
    assert res.total == res.expected
    assert len(searches) == 1 and searches[0][2] == "every root"
    assert chains["enumeration"] == 1
    assert 1 <= chains["deformed"] == chains["directions"] // 2


def test_mult_and_bezout_prove_the_eliminant_separable_once_per_seed(
        monkeypatch):
    """Over F7 no evaluation proves the deformed eliminant R separable,
    and the proof is a gcd.  ``mult`` and ``bezout`` read every point by
    one rule: each seed proves R separable once, where R is built, and
    then expands R at each rational point with no second proof; nothing
    under either command calls ``newton_puiseux``."""
    events = []

    def recorded(module, name, tag):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: events.append(tag)
                            or real(*a))

    recorded(deformation, "certify_squarefree_in", "P")
    recorded(deformation, "separable_branches", "E")
    for module in (deformation, infinitesimal, lifting):
        recorded(module, "newton_puiseux", "N")

    def seeds(points):
        attempts = "".join(events).split("P")
        assert attempts[0] == "" and len(attempts) > 1
        assert all(len(a) <= points and set(a) <= {"E"}
                   for a in attempts[1:])
        events.clear()

    F7 = PrimeField(7)
    res = bezout_sum(parse_curve("X^2*Z - Y^3", F7), parse_curve("Y", F7))
    assert res.total == 3 and len(res.reports) == 2
    seeds(2)
    report, code = run_job(Job(command="mult", curves=("y - x^2",
                                                       "y - 2*x^2"),
                               field="F7"))
    assert code == EXIT_OK and report["results"][0]["mult_deformation"] == 2
    seeds(1)


def test_bezout_runs_no_gcd_per_point(monkeypatch):
    """``intersection_points`` proves the curves coprime once, so no point
    re-proves it with a gcd of its translated pair; ``mult`` on raw input
    proves it by its pair's shear search, with no gcd either, and still
    refuses a component through the point, by the one gcd that names
    it."""
    calls = []
    real = algebra.gcd

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(algebra, "gcd", counting)
    monkeypatch.setattr(intersect, "gcd", counting)
    x, y = xy()
    C1, C2 = curve(x * x - y ** 3), curve(y - x)
    res = bezout_sum(C1, C2, seed=1)
    assert res.total == res.expected == 3
    pairs = [tuple(intersect._at_origin(C.form, r.point.chart,
                                        r.point.affine_pair())
                   for C in (C1, C2)) for r in res.reports]
    assert len(pairs) == 2  # the cusp (multiplicity 2) and (1, 1)
    assert not [c for c in calls if c in pairs]
    calls.clear()
    multiplicities_at(C1, C2, res.reports[0].point, seed=1)
    assert pairs[0] not in calls
    with pytest.raises(InfiniteMultiplicityError):
        multiplicities_at(curve(x * y), curve(x * (x + y)),
                          ProjectivePoint((0, 0, 1), QQ))
    assert (x * y, x * (x + y)) in calls


@pytest.mark.parametrize("entry", [
    e for e in corpus_manifest() if e["kind"] == "bezout"],
    ids=lambda e: e["name"])
def test_mult_and_bezout_report_the_same_values_at_a_rational_point(entry):
    """At every rational point that ``bezout`` reports on a corpus job,
    over Q and over F_p, ``multiplicities_at`` gives the same three
    multiplicities and the same transversality verdict."""
    job = entry["job"]
    field = parse_field(job["field"])[0]
    C1, C2 = (parse_curve(text, field) for text in job["curves"])
    res = bezout_sum(C1, C2, seed=job["seed"])
    keys = ("mult_length", "mult_resultant", "mult_deformation",
            "transversal")
    for rep in res.reports:
        if not isinstance(rep.point, ProjectivePoint) or \
                rep.point.field != field:
            continue  # a cluster, or a conjugate of a Frobenius orbit
        at = multiplicities_at(C1, C2, rep.point, seed=job["seed"])
        assert [getattr(at, k) for k in keys] == \
            [getattr(rep, k) for k in keys], (entry["name"], str(rep.point))


def test_bezout_fp_total():
    F = PrimeField(101)
    x, y = xy(F)
    res = bezout_sum(Curve(homogenize(x * x - y ** 3, 3)),
                     Curve(homogenize(y - x, 1)), seed=1)
    assert res.total == res.expected == 3


# ------------------------------------------------------------- bilinearity

def test_bilinearity_double_parabola():
    x, y = xy()
    C1 = curve((y - x * x) ** 2)
    C2 = curve(x)
    origin = ProjectivePoint((0, 0, 1), QQ)
    total, table = bilinearity_expand(C1, C2, origin)
    assert total == 2
    assert table == [(2, 1, 1)]
    assert total == mult_length(local_pair((y - x * x) ** 2, x))


def test_bilinearity_mixed_components():
    x, y = xy()
    C1 = curve(x * x * y, 3)
    C2 = curve(x + y)
    origin = ProjectivePoint((0, 0, 1), QQ)
    total, table = bilinearity_expand(C1, C2, origin)
    assert total == 3
    assert sorted(table) == [(1, 1, 1), (2, 1, 1)]
    assert total == mult_length(local_pair(x * x * y, x + y))


def test_bilinearity_reduced_equals_length():
    x, y = xy()
    C1 = curve(x * x - y ** 3)
    C2 = curve(y - x)
    origin = ProjectivePoint((0, 0, 1), QQ)
    total, _ = bilinearity_expand(C1, C2, origin)
    assert total == mult_length(local_pair(x * x - y ** 3, y - x))


# ------------------------------------------------------------- per-point

def test_multiplicities_at_detects_agreement():
    x, y = xy()
    C1 = curve(x * x - y ** 3)
    C2 = curve(y - x)
    rep = multiplicities_at(C1, C2, ProjectivePoint((0, 0, 1), QQ), seed=2)
    assert rep.agreed and rep.multiplicity == 2
    rep1 = multiplicities_at(C1, C2, ProjectivePoint((1, 1, 1), QQ), seed=2)
    assert rep1.agreed and rep1.multiplicity == 1 and rep1.transversal


def test_multiplicities_at_shears_once(monkeypatch):
    """One shear search per point, made by the point's ``LocalPair``, and
    its sheared pair is the one both the deformation and the resultant
    engines read: no shear outside the search.  ``mult`` builds one
    undeformed chain, in the search, which engine 2 reads, and the search
    runs no gcd."""
    searches, shears, chains, gcds = [], [], [], []
    inside = []  # one entry per search running
    real_search = shear_to_general_position
    real_chain, real_gcd = algebra.resultant_and_s1, algebra.gcd

    def search(f, g, fibers):
        searches.append(fibers)
        inside.append(fibers)
        try:
            return real_search(f, g, fibers)
        finally:
            inside.pop()

    def shear(f, lam, mu):
        if not inside:
            shears.append((f, lam, mu))
        return apply_shear(f, lam, mu)

    def chain(f, g, name):
        if len(f.vars) == 2:
            chains.append((f, g))
        return real_chain(f, g, name)

    def counted_gcd(f, g):
        if inside:
            gcds.append((f, g))
        return real_gcd(f, g)

    monkeypatch.setattr(algebra, "shear_to_general_position", search)
    monkeypatch.setattr(algebra, "apply_shear", shear)
    monkeypatch.setattr(algebra, "resultant_and_s1", chain)
    monkeypatch.setattr(algebra, "gcd", counted_gcd)
    x, y = xy()
    C1, C2 = curve(x * x - y ** 3), curve(y - x)
    rep = multiplicities_at(C1, C2, ProjectivePoint((0, 0, 1), QQ), seed=2)
    assert rep.agreed and rep.multiplicity == 2
    assert searches == ["origin"]
    assert shears == []
    del searches[:], chains[:]
    report, code = run_job(Job(command="mult", curves=("x^2 - y^3", "y")))
    assert code == EXIT_OK and report["results"][0]["mult_resultant"] == 2
    assert searches == ["origin"]
    assert len(chains) == 1 and gcds == []

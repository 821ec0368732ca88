import random
from itertools import combinations, product
from math import prod

import pytest
from fractions import Fraction
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curveint.algebra import separable_by_evaluation
from curveint.errors import (InsufficientPrecisionError, InvalidInputError,
                             NothingToPrepareError, NotRegularError,
                             NotSimpleRootError)
from curveint.fields import QQ, ExtensionField, PrimeField
from curveint import lifting
from curveint.lifting import (hensel_lift, newton_puiseux,
                              series_poly_from_multipoly, weierstrass_prepare)
from curveint.poly import MultiPoly
from curveint.series import INF, TruncatedSeries, eval_poly_at_series

from oracles import (branch_count, branch_residual, random_poly,
                     transform_segment_by_expansion, verify_branch)

XT = ("x", "t")
XY = ("x", "y")


def xt(field=QQ):
    return (MultiPoly.var(field, XT, "x"), MultiPoly.var(field, XT, "t"))


# -------------------------------------------------------------------- hensel

def test_hensel_linear():
    x, t = xt()
    root = hensel_lift(x - t, 0, 4)
    assert root.coeff_at(1) == 1 and root.coeff_at(0) == 0
    assert root.prec == 4


def test_hensel_square_root_of_one_plus_t():
    x, t = xt()
    one = MultiPoly.const(QQ, XT, 1)
    root = hensel_lift(x * x - one - t, 1, 3)
    assert root.coeff_at(0) == 1
    assert root.coeff_at(1) == Fraction(1, 2)
    assert root.coeff_at(2) == Fraction(-1, 8)


def test_hensel_not_simple_root():
    x, t = xt()
    with pytest.raises(NotSimpleRootError):
        hensel_lift(x * x - t, 0, 4)


def test_hensel_not_a_root():
    x, t = xt()
    with pytest.raises(NotSimpleRootError):
        hensel_lift(x - t - 1, 0, 4)


def test_polynomial_input_names_its_parameter_t():
    # x is the first variable of a polynomial handed to hensel_lift
    for names in [("x", "s"), ("t", "x")]:
        x, s = (MultiPoly.var(QQ, names, v) for v in names)
        with pytest.raises(InvalidInputError):
            hensel_lift(x * x - 1 - s, 1, 3)
    x, s = (MultiPoly.var(QQ, ("x", "s"), v) for v in "xs")
    with pytest.raises(InvalidInputError):
        newton_puiseux(x * x - s, "x", 4)


def test_hensel_idempotence():
    # lifting, truncating, and re-lifting reproduces the same series
    x, t = xt()
    f = x ** 3 - x - t  # simple root at x = 0 of the residual? f(0)=0, f'(0)=-1
    full = hensel_lift(f, 0, 8)
    short = hensel_lift(f, 0, 3)
    assert full.truncate(3) == short


def test_hensel_random_instances_vanish_mod_t16():
    rng = random.Random(2024)
    done = 0
    while done < 20:
        a0 = Fraction(rng.randint(-4, 4))
        g = random_poly(rng, QQ, XT, 3, 4)
        x, t = xt()
        base = random_poly(rng, QQ, ("x",), 3, 4)
        if base.is_zero() or base.degree_in("x") < 1:
            continue
        basex = base.extend_vars(XT)
        shift = basex.subs_values({"x": QQ.of(a0)}).constant_value()
        f = basex - MultiPoly.const(QQ, XT, shift) + t * g
        deriv = f.derivative("x").subs_values(
            {"x": QQ.of(a0), "t": QQ.zero}).constant_value()
        if not deriv:
            continue
        root = hensel_lift(f, a0, 16)
        val = eval_poly_at_series(f, {"x": root,
                                      "t": TruncatedSeries.variable(QQ).truncate(16)})
        assert val.valuation() is None  # zero mod t^16
        done += 1


def test_hensel_returns_requested_precision_on_criterion_8_instances():
    # the generator of acceptance criterion 8; the residual must vanish to
    # precision 16 exactly, not merely to whatever precision came back
    rng = random.Random(80808)
    done = 0
    t16 = TruncatedSeries.variable(QQ).truncate(16)
    while done < 50:
        a0 = Fraction(rng.randint(-3, 3))
        coeffs = {}
        for i in range(4):
            for j in range(3):
                c = rng.randint(-4, 4)
                if c:
                    coeffs[(i, j)] = QQ.of(c)
        base = MultiPoly(QQ, XT, coeffs)
        if base.is_zero():
            continue
        shift = base.subs_values({"x": QQ.of(a0), "t": QQ.zero})
        f = base - MultiPoly.const(QQ, XT, shift.constant_value())
        if not f.derivative("x").subs_values(
                {"x": QQ.of(a0), "t": QQ.zero}).constant_value():
            continue
        root = hensel_lift(f, a0, 16)
        assert root.prec == 16, str(f)
        val = eval_poly_at_series(f, {"x": root, "t": t16})
        assert val.prec == 16 and val.valuation() is None, str(f)
        done += 1


def test_hensel_ramified_coefficients_fractional_precision():
    # x^2 - (1 + t): the root is the binomial series of (1 + t)^(1/2),
    # read here to the precision t^(5/2) between integers, i.e. t^0 .. t^2
    prec = Fraction(5, 2)
    f = [-TruncatedSeries(QQ, {0: 1, 1: 1}, INF),
         TruncatedSeries.zero(QQ),
         TruncatedSeries.constant(QQ, 1)]
    root = hensel_lift(f, 1, prec)
    assert root.prec == 3  # the cutoff of 5/2
    binom = Fraction(1)
    for k in range(3):
        assert root.coeff_at(k) == binom
        binom = binom * (Fraction(1, 2) - k) / (k + 1)
    resid = root * root + f[0]
    assert resid.prec == 3 and resid.valuation() is None


def test_hensel_rejects_coefficients_short_of_the_precision():
    # the constant coefficient is known only mod t^3, so no root can be
    # certified mod t^8
    f = [TruncatedSeries(QQ, {0: -1, 1: -1}, 3),
         TruncatedSeries.zero(QQ),
         TruncatedSeries.constant(QQ, 1)]
    with pytest.raises(InsufficientPrecisionError):
        hensel_lift(f, 1, 8)
    assert hensel_lift(f, 1, 3).prec == 3


# ------------------------------------------------------------ newton-puiseux

def test_puiseux_splitting_pair():
    x, t = xt()
    brs = newton_puiseux(x * x - t * t, "x", 5)
    series = sorted(str(b.series) for b in brs)
    assert len(brs) == 2 and branch_count(brs) == 2
    assert all(b.simple and b.B == 1 for b in brs)


def test_puiseux_ramified_pair():
    x, t = xt()
    brs = newton_puiseux(x * x - t, "x", 4)
    assert len(brs) == 1 and brs[0].B == 2 and branch_count(brs) == 2
    # the series is in T with t = T^2, to O(T^8); it prints in t
    assert brs[0].series.format("T") == "T + O(T^8)"
    assert str(brs[0]) == "Branch(t^(1/2) + O(t^4); simple, 2 conjugates)"


def test_puiseux_refuses_a_precision_too_small_for_a_segment():
    """An edge of slope a/b needs prec * b > a, so the edge of x - t^3
    needs prec > 3.  The double edge root 2 of (x - 2t)^2 - t^5 leaves a
    segment of slope 3/2 to O(T^(prec - 1)), which needs prec > 5/2: at
    prec 2 the refusal comes after the sibling root 1 is lifted."""
    x, t = xt()
    pair = (x - t) * (x - t ** 3)
    for prec in (2, 3):
        with pytest.raises(InsufficientPrecisionError,
                           match="requested precision too small for this "
                                 "segment"):
            newton_puiseux(pair, "x", prec)
    assert [str(b.series) for b in newton_puiseux(pair, "x", 4)] == [
        "t^3 + O(t^4)", "t + O(t^4)"]
    nested = (x - t) * ((x - 2 * t) ** 2 - t ** 5)
    with pytest.raises(InsufficientPrecisionError,
                       match="requested precision too small for this "
                             "segment"):
        newton_puiseux(nested, "x", 2)
    assert [str(b) for b in newton_puiseux(nested, "x", 4)] == [
        "Branch(t + O(t^4); simple)",
        "Branch(2*t + t^(5/2) + O(t^4); simple, 2 conjugates)"]


def test_puiseux_branch_through_origin_only():
    x, t = xt()
    brs = newton_puiseux(x * x - x, "x", 5)
    assert len(brs) == 1
    assert brs[0].series.is_zero_to_precision() or \
        brs[0].series.valuation() is None


def test_puiseux_not_regular():
    x, t = xt()
    with pytest.raises(NotRegularError):
        newton_puiseux(t * (x - t), "x", 4)


def test_puiseux_branch_count_matches_x_order():
    rng = random.Random(99)
    x, t = xt()
    samples = [
        x * x - t ** 3,
        (x - t) ** 2 * (x + t),
        (x * x - t) * (x - t - t * t),
        x ** 3 - t,
        x ** 3 - t * t,
        (x * x - t * t) * (x * x - t),
        x ** 2 * (x - t) - t ** 5,
        (1 + t) * (x * x - t),
    ]
    for F in samples:
        m = min(e[0] for e in
                F.subs_values({"t": QQ.zero}).terms)
        brs = newton_puiseux(F, "x", 6)
        assert branch_count(brs) == m, str(F)
        for b in brs:
            assert verify_branch(F, "x", b), (str(F), str(b))


def test_puiseux_substitution_check_over_fp():
    F7 = PrimeField(7)
    x, t = xt(F7)
    brs = newton_puiseux(x ** 3 - t, "x", 4)
    assert branch_count(brs) == 3
    for b in brs:
        assert verify_branch(x ** 3 - t, "x", b)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("shape", ["ramified", "irrational"])
@pytest.mark.parametrize("unit", ["1 + t", "2 - t^3"])
def test_puiseux_ignores_a_unit_content(field, shape, unit):
    """F(x, 0) != 0 makes F's content c(t) in x a unit of k[[t]]: the
    branches of c*P are those of P, in the same order (2 is no square in
    Q or F_101, so x^2 - 2t^2 needs an extension)."""
    x, t = xt(field)
    P = x * x - t ** 3 if shape == "ramified" else x * x - 2 * t * t
    c = 1 + t if unit == "1 + t" else 2 - t ** 3
    assert separable_by_evaluation(c * P, "x")  # c*P is expanded as given
    mine, base = newton_puiseux(c * P, "x", 6), newton_puiseux(P, "x", 6)
    assert mine == base
    assert [b.series.field for b in mine] == [b.series.field for b in base]


def test_ramified_branch_needs_no_bth_root():
    """x^2 - 2t: the compressed root 2 is no square in Q, so the branch is
    the series 2T with t = 2 T^2 (u = v = 1), over Q itself."""
    x, t = xt()
    [br] = newton_puiseux(x * x - 2 * t, "x", 4)
    assert br.series.field == QQ and br.scale == 2 and br.span == 2
    assert br.B == 2 and br.series.format("T") == "2*T + O(T^8)"
    assert str(br) == \
        "Branch(2*t^(1/2) + O(t^4); simple, 2 conjugates, scale 2)"
    assert br.levels == ((1, 2, 2),)
    assert verify_branch(x * x - 2 * t, "x", br)


def test_nested_ramified_branch_composes_its_scale():
    """(x^2 - 2t^3)^2 - x t^5 has a double root on its first edge (slope
    3/2) and a ramified second level: t = c T^4 with c = z0^v c'^b, and
    the tail carries c'^a."""
    x, t = xt()
    F = (x * x - 2 * t ** 3) ** 2 - x * t ** 5
    [br] = newton_puiseux(F, "x", 4)
    assert br.series.field == QQ and br.span == 4
    assert [(a, b) for a, b, _ in br.levels] == [(3, 2), (1, 2)]
    (_, _, z0), (_, _, z1) = br.levels
    assert br.scale == z0 * z1 ** 2 and br.B == 4
    residual = branch_residual(F, {"x": br.series}, br.scale, br.B)
    assert residual.valuation() is None and residual.prec >= 4 * br.B


FIELDS = [QQ, PrimeField(7), PrimeField(101)]
SLOPES = [(1, 2), (3, 2), (1, 3), (2, 3), (5, 2), (3, 4)]


@st.composite
def puiseux_inputs(draw):
    """F(x, t): a product of one or two factors x^b - c t^a, some of them
    nested as (x^b - c t^a)^2 - d x^i t^j past the first edge, times an
    optional unit; c ranges over 2, 3, 5, -1, no b-th powers in Q."""
    field = draw(st.sampled_from(FIELDS))
    x, t = xt(field)
    F = MultiPoly.const(field, XT, 1)
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(st.sampled_from(SLOPES))
        c = draw(st.sampled_from([2, 3, 5, -1]))
        factor = x ** b - c * t ** a
        if draw(st.booleans()):
            i = draw(st.integers(0, b - 1))
            # past the edge of factor^2: b*j + a*i > 2ab
            j = (2 * a * b - a * i) // b + 1 + draw(st.integers(0, 1))
            factor = factor ** 2 - draw(st.sampled_from([1, 2, -3])) \
                * x ** i * t ** j
        F = F * factor
    if draw(st.booleans()):
        F = F * (1 + t)
    return F


@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(puiseux_inputs())
def test_rational_puiseux_branches_satisfy_F(F):
    """Every branch satisfies F at (series, t = scale * T^B) to the
    requested precision; its field is the base field or the one extension
    that an edge factor needs (degree span / B, so no b-th root is
    adjoined); and the branches account for ord_x F(x, 0), with the spans
    alone doing so when F is squarefree."""
    prec = 5
    brs = newton_puiseux(F, "x", prec)
    for br in brs:
        assert br.B == prod(b for _, b, _ in br.levels)
        residual = branch_residual(F, {"x": br.series}, br.scale, br.B)
        assert residual.valuation() is None \
            and residual.prec >= prec * br.B, (str(F), str(br))
        field = br.series.field
        degree = field.degree if isinstance(field, ExtensionField) else 1
        assert degree * br.B == br.span, (str(F), str(br))
        if isinstance(field, ExtensionField):
            assert field.base == F.field
    order = min(e[0] for e in F.coeff_of("t", 0).terms)
    assert branch_count(brs) == order
    if all(br.simple for br in brs):
        assert sum(br.span for br in brs) == order


QW2 = ExtensionField(QQ, [-2, 0, 1], "w")


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101), QW2],
                         ids=["Q", "F7", "F101", "Q[w]/(w^2-2)"])
def test_segment_shift_matches_compose(field):
    """The segment list ``lifting._segment`` builds from f's dense list of
    series, with x -> head + x by Ruffini's rule on series, equals the
    term-by-term expansion of ``oracles.transform_segment_by_expansion``,
    read as series in T: random f of degree <= 6, slopes with b = 1 and
    b > 1, head 0 and nonzero, with no bound and with an int or Fraction
    truncation bound."""
    rng = random.Random(81)
    for b_kind, head_kind, below_kind in product((1, 2), (0, 1), (0, 1, 2)):
        for _ in range(3):
            f = random_poly(rng, field, XT, rng.randint(1, 6))
            if isinstance(field, ExtensionField):
                f = f + random_poly(rng, field, XT, 3).scale(field.gen)
            if not f.involves("x"):
                continue
            a, b = rng.choice([(1, 1), (2, 1)] if b_kind == 1
                              else [(1, 2), (3, 2), (2, 3)])
            level = min(a * e[0] + b * e[1] for e in f.terms)
            c = field.of(rng.randint(1, 5))
            head = field.zero
            if head_kind:
                head = field.of(rng.randint(1, 5))
                if isinstance(field, ExtensionField):
                    head, c = head + field.gen, c - field.gen
            below = (None, rng.randint(1, 9),
                     Fraction(rng.randint(3, 19), 2))[below_kind]
            want = series_poly_from_multipoly(transform_segment_by_expansion(
                f, "x", a, b, level, head, c, field, below), "x")
            rows = series_poly_from_multipoly(f, "x")
            assert lifting._segment(rows, a, b, level, head, c, field,
                                    below) == want, str(f)


def _edges_by_brute_force(F):
    """The origin-facing Newton polygon's edges of F(x, t), from its
    exponents alone: the support points with i up to m = ord_x F(x, 0),
    and every falling segment (i, j)-(k, l) between two of them with no
    support point below its line, taken between the outermost support
    points on that line."""
    pts = list(F.terms)
    m = min(i for i, j in pts if j == 0)
    pts = [p for p in pts if p[0] <= m]
    edges = []
    for (i, j), (k, l) in combinations(sorted(pts), 2):
        if i == k or j <= l:
            continue
        height = [(q - j) * (k - i) - (l - j) * (p - i) for p, q in pts]
        on_line = [p for (p, _), h in zip(pts, height) if h == 0]
        if min(height) >= 0 and (min(on_line), max(on_line)) == (i, k):
            edges.append((i, j, k, l))
    return sorted(edges)


@pytest.mark.parametrize("field", [QQ, PrimeField(101), QW2],
                         ids=["Q", "F101", "Q[w]/(w^2-2)"])
def test_newton_polygon_edges_match_brute_force_hull(field):
    """``newton_polygon_edges`` on the dense list of series equals the
    edges found by testing every pair of support points of sparse random
    F(x, t) with F(x, 0) != 0, about half of them through the origin."""
    rng = random.Random(37)
    for _ in range(60):
        terms = {(i, j): field.of(rng.choice([-3, -2, -1, 1, 2, 3]))
                 for i in range(7) for j in range(7) if rng.random() < 0.2}
        terms[(rng.randint(1, 6), 0)] = field.one
        if rng.random() < 0.5:
            terms.pop((0, 0), None)
        if isinstance(field, ExtensionField):
            terms = {e: c + field.gen for e, c in terms.items()}
        F = MultiPoly(field, XT, terms)
        rows = series_poly_from_multipoly(F, "x")
        assert lifting.newton_polygon_edges(rows) \
            == _edges_by_brute_force(F), str(F)


# -------------------------------------------------------------- weierstrass

def test_weierstrass_unit_times_x():
    x = MultiPoly.var(QQ, XY, "x")
    y = MultiPoly.var(QQ, XY, "y")
    one = MultiPoly.const(QQ, XY, 1)
    F = x * (one + y)
    data = weierstrass_prepare(F, 6)
    assert data.degree == 1
    assert data.unit == one + y
    assert data.weierstrass == x


def test_weierstrass_defining_congruence():
    x = MultiPoly.var(QQ, XY, "x")
    y = MultiPoly.var(QQ, XY, "y")
    F = x * x + x ** 3 + y
    data = weierstrass_prepare(F, 6)
    assert data.degree == 2
    resid = F - data.unit * data.weierstrass
    assert all(e[1] >= 6 for e in resid.terms)
    assert data.weierstrass.subs_values({"y": QQ.zero}) == x * x
    assert data.unit.subs_values({"x": QQ.zero, "y": QQ.zero})


def test_weierstrass_not_regular():
    y = MultiPoly.var(QQ, XY, "y")
    with pytest.raises(NotRegularError):
        weierstrass_prepare(y, 4)


def test_weierstrass_unit_input_rejected():
    x = MultiPoly.var(QQ, XY, "x")
    with pytest.raises(NothingToPrepareError):
        weierstrass_prepare(x + 1, 4)

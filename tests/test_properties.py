"""Properties of intersection multiplicity that the paper's theorem covers,
checked on seeded random pairs over Q and F_101 (Fulton, Algebraic Curves,
section 3.3): singular points, non-reduced components, symmetry,
adding a multiple of one curve to the other and invariance under affine
changes of coordinates; the exit codes of ``mult`` on random local pairs
over Q, F_7 and F_101; and Bezout's theorem itself on random projective
pairs over Q, F_5, F_7 and F_101.

Every pair runs through ``multiplicities_at``, which enforces that its three
engines agree, at the default (adaptive) working precision, and its value
is compared with ``oracles.fulton_intersection_number``.  Hypothesis draws
the seeds with ``derandomize=True``, so every run checks the same pairs; a
failure names its seed and prints the pair.
"""

import random

import sympy
from hypothesis import given, settings, strategies as st

from curveint.algebra import homogenize
from curveint.cli import EXIT_OK, Job, run_job
from curveint.fields import QQ, PrimeField
from curveint.intersect import Curve, ProjectivePoint, multiplicities_at
from curveint.poly import MultiPoly

from oracles import (bareiss_determinant, fulton_intersection_number,
                     sympy_compose)

V = ("x", "y")
FIELDS = {"Q": QQ, "F101": PrimeField(101)}
SETTINGS = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)


def _form(rng, field, coeffs):
    """sum c_k x^(d-k) y^k for the descending coefficient list coeffs."""
    d = len(coeffs) - 1
    return MultiPoly(field, V, {(d - k, k): field.of(c)
                                for k, c in enumerate(coeffs) if c})


def _random_coeffs(rng, degree):
    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(degree + 1)]
        if any(coeffs):
            return coeffs


def _times_linear(coeffs, a, b):
    """The descending coefficients of (a x + b y) * form(coeffs)."""
    out = [0] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k] += a * c
        out[k + 1] += b * c
    return out


def _higher_terms(rng, field, low, high):
    """Random terms of total degree low .. high."""
    terms = {}
    for d in range(low, high + 1):
        for i in range(d + 1):
            c = rng.randint(-3, 3)
            if c:
                terms[(i, d - i)] = field.of(c)
    return MultiPoly(field, V, terms)


def _forms_share_a_line(fc, gc, field):
    """Whether two binary forms, given by descending coefficients, share a
    linear factor over the algebraic closure: their resultant, the
    determinant of the Sylvester matrix of the coefficient lists, is 0."""
    r, s = len(fc) - 1, len(gc) - 1
    const = [MultiPoly.const(field, ("u",), c) for c in fc + gc]
    fk, gk = const[:r + 1], const[r + 1:]
    zero = MultiPoly.zero(field, ("u",))
    rows = [[zero] * i + fk + [zero] * (s - 1 - i) for i in range(s)]
    rows += [[zero] * i + gk + [zero] * (r - 1 - i) for i in range(r)]
    return bareiss_determinant(rows).is_zero()


def _engines(f, g, field):
    """The multiplicity at the origin from all three engines (which
    ``multiplicities_at`` requires to agree), at the default precision."""
    curves = [Curve(homogenize(h, h.total_degree())) for h in (f, g)]
    origin = ProjectivePoint((0, 0, 1), field)
    return multiplicities_at(*curves, origin).multiplicity


@SETTINGS
@given(seed=st.integers(0, 10 ** 6), fieldname=st.sampled_from(sorted(FIELDS)),
       r=st.integers(1, 3), s=st.integers(1, 3), share=st.booleans())
def test_singular_point_of_order_r_s(seed, fieldname, r, s, share):
    """A point of orders (r, s) on the two curves has I >= r*s, with
    equality exactly when the tangent cones share no line."""
    field = FIELDS[fieldname]
    rng = random.Random(seed)
    fc, gc = _random_coeffs(rng, r), _random_coeffs(rng, s)
    if share:
        a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, -2), (2, 3)])
        fc = _times_linear(_random_coeffs(rng, r - 1), a, b)
        gc = _times_linear(_random_coeffs(rng, s - 1), a, b)
    fr, gs = _form(rng, field, fc), _form(rng, field, gc)
    f = fr + _higher_terms(rng, field, r + 1, r + 1)
    g = gs + _higher_terms(rng, field, s + 1, s + 1)
    pair = f"seed {seed} over {fieldname}: f = {f}, g = {g}"
    try:
        expected = fulton_intersection_number(f, g)
    except ValueError:
        return  # a shared component: no finite multiplicity to test
    assert _engines(f, g, field) == expected, pair
    assert expected >= r * s, pair
    assert (expected == r * s) == (not _forms_share_a_line(fc, gc, field)), \
        pair


@SETTINGS
@given(seed=st.integers(0, 10 ** 6), fieldname=st.sampled_from(sorted(FIELDS)),
       k=st.integers(2, 3))
def test_non_reduced_component(seed, fieldname, k):
    """I(F^k * G, H) = k * I(F, H) + I(G, H)."""
    field = FIELDS[fieldname]
    rng = random.Random(seed)
    # F and H through the origin, each singular there half the time
    F, H = (_higher_terms(rng, field, 1 + (rng.random() < 0.5), 2)
            for _ in range(2))
    G = _higher_terms(rng, field, 0, 1)
    if F.is_zero() or G.is_zero() or H.is_zero():
        return
    pair = (f"seed {seed} over {fieldname}: F = {F}, G = {G}, H = {H}, "
            f"k = {k}")
    try:
        parts = (fulton_intersection_number(F, H),
                 fulton_intersection_number(G, H))
    except ValueError:
        return  # a shared component
    expected = k * parts[0] + parts[1]
    assert fulton_intersection_number(F ** k * G, H) == expected, pair
    assert _engines(F ** k * G, H, field) == expected, pair


@SETTINGS
@given(seed=st.integers(0, 10 ** 6), fieldname=st.sampled_from(sorted(FIELDS)))
def test_symmetry_and_adding_a_multiple(seed, fieldname):
    """I(F, G) = I(G, F) and I(F, G + A*F) = I(F, G)."""
    field = FIELDS[fieldname]
    rng = random.Random(seed)
    # F and G through the origin, each singular there half the time
    F, G = (_higher_terms(rng, field, 1 + (rng.random() < 0.5), 2)
            for _ in range(2))
    A = _higher_terms(rng, field, 0, 2)
    if F.is_zero() or G.is_zero():
        return
    pair = f"seed {seed} over {fieldname}: F = {F}, G = {G}, A = {A}"
    try:
        expected = fulton_intersection_number(F, G)
    except ValueError:
        return  # a shared component
    assert fulton_intersection_number(G, F) == expected, pair
    assert fulton_intersection_number(F, G + A * F) == expected, pair
    assert _engines(F, G, field) == _engines(G, F, field) == expected, pair
    assert _engines(F, G + A * F, field) == expected, pair


@SETTINGS
@given(seed=st.integers(0, 10 ** 6), fieldname=st.sampled_from(sorted(FIELDS)))
def test_invariance_under_affine_changes_of_coordinates(seed, fieldname):
    """I_P(F, G) = I_0(f, g) for F = f(a(x - p) + b(y - q), c(x - p) +
    d(y - q)), G the same from g, ad - bc != 0 and P = (p, q).  F and G
    are expanded by sympy (``oracles.sympy_compose``), not by the
    translation and shear under test."""
    field = FIELDS[fieldname]
    rng = random.Random(seed)
    # f and g through the origin, each singular there half the time
    f, g = (_higher_terms(rng, field, 1 + (rng.random() < 0.5), 2)
            for _ in range(2))
    a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
    p, q = rng.randint(-3, 3), rng.randint(-3, 3)
    if f.is_zero() or g.is_zero() or a * d == b * c:
        return
    pair = (f"seed {seed} over {fieldname}: f = {f}, g = {g}, "
            f"(a, b, c, d) = {(a, b, c, d)}, P = {(p, q)}")
    try:
        expected = fulton_intersection_number(f, g)
    except ValueError:
        return  # a shared component
    x, y = (MultiPoly.var(field, V, name) for name in V)
    dx, dy = x - p, y - q
    images = {"x": dx.scale(a) + dy.scale(b), "y": dx.scale(c) + dy.scale(d)}
    F, G = (sympy_compose(h, images) for h in (f, g))
    curves = [Curve(homogenize(h, h.total_degree())) for h in (F, G)]
    point = ProjectivePoint((p, q, 1), field)
    assert multiplicities_at(*curves, point).multiplicity == expected, pair


MULT_FIELDS = {"Q": QQ, "F7": PrimeField(7), "F101": PrimeField(101)}


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6),
       fieldname=st.sampled_from(sorted(MULT_FIELDS)),
       shape=st.sampled_from(["random", "product", "square", "shared line"]),
       job_seed=st.integers(0, 5))
def test_mult_exit_codes_on_random_local_pairs(seed, fieldname, shape,
                                               job_seed):
    """``mult`` at the origin of two random curves through it, of their
    products with random curves, of a square, or of two curves sharing a
    line through it: ``run_job`` returns (it never raises), the exit is 0,
    2 (a shared component) or 3 (a budget), never 1, and on exit 0 all
    three engines give ``oracles.fulton_intersection_number``."""
    field = MULT_FIELDS[fieldname]
    rng = random.Random(seed)
    f, g = (_higher_terms(rng, field, 1, 2) for _ in range(2))
    if shape == "product":
        f, g = (h * _higher_terms(rng, field, 0, 1) for h in (f, g))
    elif shape == "square":
        f = f * f
    elif shape == "shared line":
        a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, -2), (2, 3)])
        line = _form(rng, field, [a, b])
        f, g = f * line, g * line
    if f.is_zero() or g.is_zero():
        return
    curves = (str(f), str(g))
    report, code = run_job(Job(command="mult", curves=curves,
                               field=fieldname, seed=job_seed))
    pair = f"seed {seed} over {fieldname}, job seed {job_seed}: {curves}"
    assert code in (0, 2, 3), (pair, report)
    if code == EXIT_OK:
        [result] = report["results"]
        expected = fulton_intersection_number(f, g)
        assert [result[k] for k in ("mult_length", "mult_resultant",
                                    "mult_deformation")] == [expected] * 3, \
            pair


BEZOUT_FIELDS = ["Q", "F5", "F7", "F101"]


def _projective_form(rng, degree, through_x_point):
    """A random nonzero form of the given degree in X, Y, Z, as text, with
    coefficients in -4 .. 4 (none of them 0 mod 5, 7 or 101 unless 0).
    With ``through_x_point`` its X^degree coefficient is 0, so the curve
    passes through [1:0:0], a point on Z = 0."""
    while True:
        terms = [f"({c})*X^{i}*Y^{j}*Z^{degree - i - j}"
                 for i in range(degree + 1) for j in range(degree + 1 - i)
                 for c in [rng.randint(-4, 4) if rng.random() < 0.6 else 0]
                 if c and not (through_x_point and i == degree)]
        if terms:
            return " + ".join(terms)


def _common_zero(curves, point, fieldname):
    """The rational point printed as [a:b:c] is a zero of both input forms,
    by sympy, modulo p over F_p."""
    X, Y, Z = sympy.symbols("X Y Z")
    coords = dict(zip((X, Y, Z), map(sympy.Rational,
                                     point.strip("[]").split(":"))))
    p = 0 if fieldname == "Q" else int(fieldname[1:])
    for text in curves:
        value = sympy.Rational(sympy.sympify(text.replace("^", "**"))
                               .subs(coords))
        if (value.p % p if p else value.p) != 0:
            return False
    return True


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), fieldname=st.sampled_from(BEZOUT_FIELDS))
def test_bezout_total_on_random_projective_pairs(seed, fieldname):
    """Two random forms of degrees d, e in 1 .. 3, and the same draw with
    both X^d and X^e coefficients 0, so both curves pass through [1:0:0]
    on Z = 0 and the frame's line at infinity must move: ``run_job``
    returns (it never raises), the exit is 0, 2 (a shared component) or 3
    (a budget), never 1, and on exit 0 the points' total is d * e, as
    Bezout's theorem says and as the report's own expected total says,
    every line's three engines agree, and every rational point printed is
    a common zero of the input forms."""
    for through_x_point in (False, True):
        rng = random.Random(seed)
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        curves = tuple(_projective_form(rng, n, through_x_point)
                       for n in (d, e))
        report, code = run_job(Job(command="bezout", curves=curves,
                                   field=fieldname))
        pair = f"seed {seed} over {fieldname}: {curves}"
        assert code in (0, 2, 3), (pair, report)
        if code != EXIT_OK:
            continue
        assert report["total"] == report["expected_total"] == d * e, pair
        for line in report["results"]:
            assert line["mult_length"] == line["mult_resultant"] \
                == line["mult_deformation"], (pair, line)
            point = line["point"]
            if point.startswith("[") and "r" not in point:
                assert _common_zero(curves, point, fieldname), (pair, line)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([3, 5, 7]))
def test_bezout_finds_common_points_on_every_line(seed, p):
    """The line Y = 0 and X^p Z - X Z^p + Y H, H a random form of degree
    p, meet transversally at the p + 1 points of Y = 0 over F_p, so every
    line over F_p meets a common point and no one chart holds them all:
    the exit is 0, with one line of weight 1 at each of those points."""
    H = _projective_form(random.Random(seed), p, False)
    curves = ("Y", f"X^{p}*Z - X*Z^{p} + Y*({H})")
    report, code = run_job(Job(command="bezout", curves=curves,
                               field=f"F{p}", fmt="json"))
    assert code == EXIT_OK, (curves, report)
    assert report["total"] == report["expected_total"] == p + 1
    assert sorted(line["point"] for line in report["results"]) == sorted(
        ["[1:0:0]", "[0:0:1]"] + [f"[1:0:{z}]" for z in range(1, p)])
    assert {line["weight"] for line in report["results"]} == {1}

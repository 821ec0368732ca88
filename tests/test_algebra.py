import random

import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from curveint import algebra
from curveint.algebra import (SHEAR_BOUND, _shear_candidates, content_in,
                              dehomogenize, gcd, homogenize,
                              is_homogeneous, lift_to_field, pseudo_rem,
                              resultant, apply_shear, roots_univariate,
                              shear_to_general_position, squarefree_decompose,
                              subresultant_prs, translate_to_origin)
from curveint.cli import EXIT_OK, Job, parse_poly, run_job
from curveint.errors import (GeneralPositionError, InvalidDegreeError,
                             InvalidInputError, UnsupportedExtensionError)
from curveint.factor import _gcd
from curveint.fields import QQ, ExtensionField, PrimeField
from curveint.intersect import mult_resultant_order
from curveint.poly import MultiPoly

from oracles import (evaluate, first_general_position_shear,
                     fulton_intersection_number, pseudo_rem_by_products,
                     random_poly, separable_by_exact_evaluation,
                     shear_candidates_by_ratio, sylvester_resultant,
                     sympy_compose)

V = ("x", "y")


def xy(field=QQ):
    return (MultiPoly.var(field, V, "x"), MultiPoly.var(field, V, "y"))


# ---------------------------------------------------------------- resultant

def test_resultant_linear_vs_quadratic():
    x, y = xy()
    one = MultiPoly.const(QQ, V, 1)
    assert resultant(x - one, x * x + one, "x") == 2


def test_resultant_common_factor_vanishes():
    x, y = xy()
    one = MultiPoly.const(QQ, V, 1)
    assert resultant(x * x + one, x * x + one, "x").is_zero()


def test_resultant_conic_pair_sylvester_value():
    # frozen from the 4x4 Sylvester determinant with f's rows first
    x, y = xy()
    r = resultant(x * x - y, x * x - 2 * y, "x")
    assert r == y * y


XYT = ("x", "y", "t")
QW = ExtensionField(QQ, [3, 0, 1], "w")                  # Q[w]/(w^2+3)
F101W = ExtensionField(PrimeField(101), [-2, 0, 1], "w")  # 2: no square mod 101


def _random_in(rng, field, variables, max_degree):
    """random_poly, with a w-part when the field is an extension."""
    f = random_poly(rng, field, variables, max_degree)
    if isinstance(field, ExtensionField):
        f = f + random_poly(rng, field, variables, max_degree).scale(field.gen)
    return f


def _resultant_case(rng, field, variables, shape):
    """One (f, g) pair of the given shape:
    dense   -- two random polynomials (total degree <= 3 in three
               variables);
    content -- both carry the same factor free of x;
    scaled  -- f and g carry different factors free of x, coprime because
               the second is the first times a third plus a nonzero
               constant;
    drop    -- the remainder of f by g (monic, x-degree 3) has x-degree at
               most 1, so the chain drops by 2 or more after g;
    const   -- g is free of x."""
    def free_of_x(d):
        return _random_in(rng, field, variables, d).subs_values(
            {"x": field.zero})

    x = MultiPoly.var(field, variables, "x")
    if shape == "dense":
        top = 4 if len(variables) == 2 else 3
        return (_random_in(rng, field, variables, rng.randint(1, top)),
                _random_in(rng, field, variables, rng.randint(1, top)))
    if shape == "content":
        c = free_of_x(rng.randint(1, 2))
        return (c * _random_in(rng, field, variables, rng.randint(1, 2)),
                c * _random_in(rng, field, variables, rng.randint(1, 2)))
    if shape == "scaled":
        cf = free_of_x(rng.randint(1, 2))
        cg = cf * free_of_x(1) + field.of(rng.randint(1, 9))
        return (cf * _random_in(rng, field, variables, rng.randint(1, 2)),
                cg * _random_in(rng, field, variables, rng.randint(1, 2)))
    if shape == "drop":
        g = x ** 3 + _random_in(rng, field, variables, 2)
        q = x + free_of_x(1)
        return q * g + _random_in(rng, field, variables, 1), g
    assert shape == "const"
    return _random_in(rng, field, variables, rng.randint(1, 3)), free_of_x(2)


RESULTANT_CASES = [  # (field, variables, shape, trials, seed)
    (PrimeField(101), V, "dense", 100, 12345),
    (QQ, V, "dense", 20, 1),
    (PrimeField(7), V, "dense", 20, 2),
    (QW, V, "dense", 10, 3),
    (F101W, V, "dense", 10, 4),
    (QQ, XYT, "dense", 10, 5),
    (PrimeField(7), XYT, "dense", 10, 6),
    (QQ, XYT, "content", 10, 7),
    (F101W, V, "content", 10, 8),
    (QQ, V, "drop", 10, 9),
    (PrimeField(101), XYT, "drop", 10, 10),
    (QQ, XYT, "const", 10, 11),
    (QW, V, "const", 5, 12),
    (QQ, XYT, "scaled", 10, 13),
    (PrimeField(101), V, "scaled", 10, 14),
    (F101W, V, "scaled", 10, 15),
]


def test_resultant_agrees_with_sylvester_100_random_trials():
    """resultant against the Sylvester determinant, and the chain's
    degree-0 last member against the same determinant: the chain signs
    S_0 itself, also when it puts g first with deg f * deg g odd."""
    odd_swaps = 0
    for field, variables, shape, trials, seed in RESULTANT_CASES:
        rng = random.Random(seed)
        done = drops = 0
        while done < trials:
            f, g = _resultant_case(rng, field, variables, shape)
            if f.is_zero() or g.is_zero():
                continue
            if not f.involves("x") and not g.involves("x"):
                continue
            s0 = sylvester_resultant(f, g, "x")
            assert resultant(f, g, "x") == s0
            chain = subresultant_prs(f, g, "x")
            degs = [p.degree_in("x") for p in chain]
            if degs[-1] == 0:
                assert chain[-1] == s0
                df, dg = f.degree_in("x"), g.degree_in("x")
                odd_swaps += df < dg and df * dg % 2 == 1
            drops += max((d - e for d, e in zip(degs[1:], degs[2:])),
                         default=0) >= 2
            done += 1
        if shape == "drop":
            assert drops == trials
    assert odd_swaps


def test_content_in(monkeypatch):
    """The content in x; 1 at once, with no gcd run, when a coefficient
    is a nonzero constant."""
    x, y = xy()
    one = MultiPoly.const(QQ, V, 1)
    assert content_in((2 * y + 2) * x * x - (y + 1) * (y - 2), "x") == y + 1
    assert content_in(MultiPoly.zero(QQ, V), "x").is_zero()

    def no_gcd(f, g):
        raise AssertionError("content_in ran a gcd")

    monkeypatch.setattr(algebra, "gcd", no_gcd)
    assert content_in((y + 1) * x * x + 3 * x + (y * y - 1), "x") == one
    assert content_in((y - 2) * x ** 3 - 5, "x") == one


def test_resultant_multiplicative():
    rng = random.Random(777)
    done = 0
    while done < 30:
        f = random_poly(rng, QQ, V, rng.randint(1, 3), 5)
        g = random_poly(rng, QQ, V, rng.randint(1, 3), 5)
        h = random_poly(rng, QQ, V, rng.randint(1, 2), 5)
        if any(p.is_zero() or not p.involves("x") for p in (f, g, h)):
            continue
        assert resultant(f * g, h, "x") == \
            resultant(f, h, "x") * resultant(g, h, "x")
        done += 1


def test_resultant_rejects_bad_input():
    x, y = xy()
    with pytest.raises(InvalidInputError):
        resultant(MultiPoly.zero(QQ, V), MultiPoly.zero(QQ, V), "x")
    with pytest.raises(InvalidInputError):
        resultant(y, y + 1, "x")  # x absent from both


def test_subresultant_chain_ends_at_gcd_degree():
    x, y = xy()
    f = (x - y) * (x * x + 1)
    g = (x - y) * (x + 2)
    chain = subresultant_prs(f, g, "x")
    assert chain[-1].degree_in("x") == 1  # proportional to x - y


def _in_degree(rng, field, name, degree):
    """A random trivariate polynomial of degree exactly ``degree`` in
    ``name``, with coefficients of degree at most 2 in the other two
    variables (and a w-part over an extension field)."""
    unit = MultiPoly.var(field, XYT, name)
    f = MultiPoly.zero(field, XYT)
    for k in range(degree + 1):
        c = MultiPoly.zero(field, XYT)
        while c.is_zero():
            c = _random_in(rng, field, XYT, 2)
            c = c.clone({e: v for e, v in c.terms.items()
                         if e[XYT.index(name)] == 0})
        f = f + c * unit ** k
    return f


def _sympy_prem(f, g, name):
    """sympy's pseudo-remainder in ``name`` of two polynomials over Q."""
    import sympy

    order = (name,) + tuple(v for v in XYT if v != name)
    gens = sympy.symbols(order)
    perm = [XYT.index(v) for v in order]
    a, b = (sympy.Poly.from_dict(
        {tuple(e[i] for i in perm): sympy.Rational(c.numerator,
                                                   c.denominator)
         for e, c in p.terms.items()}, gens, domain=sympy.QQ)
        for p in (f, g))
    back = [order.index(v) for v in XYT]
    return MultiPoly(QQ, XYT, {
        tuple(e[i] for i in back): Fraction(int(c.numerator),
                                            int(c.denominator))
        for e, c in a.prem(b).terms() if c})


@pytest.mark.parametrize("field", [
    QQ, PrimeField(7), PrimeField(32003),
    ExtensionField(PrimeField(7), [-3, 0, 1], "w"),
    ExtensionField(QQ, [-2, 0, 1], "w")],
    ids=["Q", "F7", "F32003", "F7[w]/(w^2-3)", "Q[w]/(w^2-2)"])
def test_pseudo_rem_matches_oracle(field):
    """lc^e * f = q*g + r with deg r < deg g, e = max(df - dg + 1, 0), in
    each variable: equal to the step-by-products reference, lc^e * f - r
    divisible by g, and over Q equal to sympy's prem.  Degree gaps 0, 1
    and 2 to 3, g free of the variable, df < dg, exact multiples, and a
    step that drops the degree by two."""
    rng = random.Random(28)
    cases = []
    for name in XYT:
        for df, dg in ((2, 2), (3, 2), (4, 2), (4, 1), (3, 0), (1, 2)):
            cases.append((name, _in_degree(rng, field, name, df),
                          _in_degree(rng, field, name, dg)))
        g = _in_degree(rng, field, name, 2)
        cases.append((name, _in_degree(rng, field, name, 1) * g, g))
        # no middle terms: the first step drops r from degree 4 to 2, so
        # the last step leaves lc^1 to multiply in
        i = XYT.index(name)
        f, g = (p.clone({e: c for e, c in p.terms.items() if e[i] in (0, d)})
                for p, d in ((_in_degree(rng, field, name, 4), 4), (g, 2)))
        cases.append((name, f, g))
    for name, f, g in cases:
        r = pseudo_rem(f, g, name)
        assert r.terms == pseudo_rem_by_products(f, g, name).terms
        df, dg = f.degree_in(name), g.degree_in(name)
        assert r.degree_in(name) < dg
        if df < dg:
            assert r == f
        lead = g.leading_coeff_in(name)
        (lead ** max(df - dg + 1, 0) * f - r).exact_divide(g)
        if field == QQ:
            assert r == _sympy_prem(f, g, name)
    multiples = cases[6::8]
    assert all(pseudo_rem(f, g, name).is_zero() for name, f, g in multiples)


def _sympy_poly(f):
    """f as a sympy Poly over QQ or GF(p), and the map from sympy's
    coefficients back to f's field."""
    import sympy

    gens = sympy.symbols(f.vars)
    if f.field == QQ:
        domain, to_sym = sympy.QQ, lambda c: sympy.Rational(c.numerator,
                                                            c.denominator)
        of_sym = lambda c: Fraction(int(c.numerator), int(c.denominator))
    else:
        domain, to_sym = sympy.GF(f.field.p), lambda c: int(c.val)
        of_sym = lambda c: int(c) % f.field.p
    poly = sympy.Poly.from_dict({e: to_sym(c) for e, c in f.terms.items()},
                                gens, domain=domain)
    return poly, of_sym


def _from_sympy(h, like, of_sym):
    """A sympy Poly scaled to graded-lex leading coefficient 1, read back
    as a MultiPoly in the variables and field of ``like``."""
    h = h.exquo_ground(h.LC(order="grlex"))
    return MultiPoly(like.field, like.vars,
                     {e: like.field.of(of_sym(c)) for e, c in h.terms()})


def _sympy_gcd(f, g):
    """gcd(f, g) computed by sympy, scaled to graded-lex leading
    coefficient 1 and read back as a MultiPoly."""
    (a, of_sym), (b, _) = _sympy_poly(f), _sympy_poly(g)
    return _from_sympy(a.gcd(b), f, of_sym)


def test_gcd_agrees_with_sympy_on_planted_factors():
    for field, seed in ((QQ, 21), (PrimeField(101), 22)):
        rng = random.Random(seed)
        done = 0
        while done < 10:
            c, a, b = (random_poly(rng, field, XYT, rng.randint(1, 2))
                       for _ in range(3))
            if c.is_constant() or a.is_zero() or b.is_zero():
                continue
            f, g = c * a, c * b
            assert gcd(f, g) == _sympy_gcd(f, g)
            done += 1


def test_gcd_skips_the_gcd_of_trivial_contents(monkeypatch):
    """x^2 - y has content 1 in x, so the gcd of the two contents is 1
    with no recursive call."""
    calls = []
    real = algebra.gcd
    monkeypatch.setattr(algebra, "gcd",
                        lambda f, g: calls.append((f, g)) or real(f, g))
    f, g = (parse_poly(text, QQ, ("x", "y"))
            for text in ("x^2 - y", "x - y - 1"))
    assert algebra.gcd(f, g).is_constant()
    assert len(calls) == 1


# ----------------------------------------------------------------- squarefree

def _expand(factors, like):
    """The product of factor ** multiplicity, formed here."""
    out = MultiPoly.const(like.field, like.vars, 1)
    for fac, mult in factors:
        for _ in range(mult):
            out = out * fac
    return out


def _times_constant(f, factors):
    """f is a nonzero constant times the product of the factors."""
    prod = _expand(factors, f)
    return f == prod.scale(f.leading_coefficient()
                           / prod.leading_coefficient())


def test_squarefree_given_factored_form():
    x, y = xy()
    f = (y - x * x) ** 2 * x
    factors = squarefree_decompose(f)
    assert _times_constant(f, factors)
    assert sorted(m for _, m in factors) == [1, 2]
    for fac, _ in factors:
        assert gcd(fac, fac.derivative("x")).is_constant() or \
            gcd(fac, fac.derivative("y")).is_constant()


def test_squarefree_of_squarefree_input():
    x, y = xy()
    f = x * x - y ** 3
    factors = squarefree_decompose(f)
    assert len(factors) == 1 and factors[0][1] == 1
    g = gcd(gcd(f, f.derivative("x")), f.derivative("y"))
    assert g.is_constant()  # independent oracle for squarefreeness


def test_squarefree_content():
    x, y = xy()
    f = ((x + y) ** 3).scale(4)
    assert squarefree_decompose(f) == [(x + y, 3)]
    assert squarefree_decompose(MultiPoly.const(QQ, V, 4)) == []


def test_squarefree_reconstruction_random():
    rng = random.Random(31)
    done = 0
    while done < 20:
        a = random_poly(rng, QQ, V, 2, 3)
        b = random_poly(rng, QQ, V, 1, 3)
        if a.is_zero() or b.is_zero() or a.is_constant() or b.is_constant():
            continue
        f = a * b * b
        factors = squarefree_decompose(f)
        assert _times_constant(f, factors)
        for fac, mult in factors:
            for fac2, _ in factors:
                if fac is not fac2:
                    assert gcd(fac, fac2).is_constant()
        done += 1


def test_squarefree_matches_sympy_sqf_list():
    """The factors, up to a nonzero constant, and their multiplicities
    agree with sympy's sqf_list: seeded random bivariate products over Q, and
    univariate products over F5 and F101, where multiplicities reach p
    (sympy refuses multivariate input over a finite field)."""
    cases = []
    rng = random.Random(29)
    while len(cases) < 12:
        parts = [(random_poly(rng, QQ, V, rng.randint(1, 2), 4),
                  rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        if all(not a.is_constant() for a, _ in parts):
            cases.append(_expand(parts, parts[0][0]).scale(rng.randint(1, 9)))
    for p in (5, 101):
        F = PrimeField(p)
        rng = random.Random(p)
        for _ in range(10):
            parts = [(random_poly(rng, F, ("x",), rng.randint(1, 3)),
                      rng.choice((1, 2, 3, p, p + 1)))
                     for _ in range(rng.randint(1, 3))]
            parts = [(a, m) for a, m in parts if not a.is_constant()]
            if parts:
                cases.append(_expand(parts, parts[0][0]))
    assert len(cases) >= 25
    for f in cases:
        poly, of_sym = _sympy_poly(f)
        _, expected = poly.sqf_list()
        expected = [(_from_sympy(h, f, of_sym), m) for h, m in expected]
        by_mult = lambda factors: sorted(factors, key=lambda it: it[1])
        assert by_mult(squarefree_decompose(f)) == by_mult(expected), str(f)


def test_squarefree_char_p_pth_power():
    F = PrimeField(7)
    x, y = xy(F)
    f = (x - y) ** 7
    factors = squarefree_decompose(f)
    assert factors == [(x - y, 7)]
    assert _times_constant(f, factors)


def test_squarefree_char_p_mixed():
    F = PrimeField(7)
    x, y = xy(F)
    f = (x - y) ** 7 * (x + y) ** 2
    factors = squarefree_decompose(f)
    assert _times_constant(f, factors)
    assert sorted(m for _, m in factors) == [2, 7]


def test_squarefree_zero_rejected():
    with pytest.raises(InvalidInputError):
        squarefree_decompose(MultiPoly.zero(QQ, V))


def _random_in_y(rng, field, degree, top_at_1):
    """A random R(y, t) of y-degree ``degree`` and t-degree at most 2; its
    top coefficient is a multiple of t - 1 when ``top_at_1``."""
    YT = ("y", "t")
    t = MultiPoly.var(field, YT, "t")
    while True:
        terms = {(i, j): field.of(rng.randint(-3, 3))
                 for i in range(degree + 1) for j in range(3)}
        R = MultiPoly(field, YT, {e: c for e, c in terms.items() if c})
        top = R.coeff_of("y", degree)
        if top.is_zero():
            continue
        if top_at_1:  # top + top * (t - 2) = top * (t - 1)
            R = R + top * MultiPoly.var(field, YT, "y", degree) * (t - 2)
        return R


def _sympy_discriminant(R):
    """sympy's discriminant of R(y, t) in y, over Q or GF(p)."""
    import sympy

    y, t = sympy.symbols("y t")
    if R.field == QQ:
        domain, to_sym = sympy.QQ, lambda c: sympy.Rational(c.numerator,
                                                            c.denominator)
    else:
        domain, to_sym = sympy.GF(R.field.p), lambda c: int(c.val)
    expr = sum(to_sym(c) * y ** i * t ** j for (i, j), c in R.terms.items())
    return sympy.Poly(expr, y, t, domain=domain).discriminant()


@pytest.mark.parametrize("field,seed", [(QQ, 61), (PrimeField(5), 62),
                                        (PrimeField(101), 63)],
                         ids=["Q", "F5", "F101"])
def test_separable_by_evaluation_implies_a_nonzero_discriminant(field, seed):
    """Whenever ``separable_by_evaluation`` proves R(y, t) separable in y,
    sympy's discriminant of R in y is not the zero polynomial in t.  R is
    A^m * B for random A and B, some with a top coefficient that vanishes
    at tau = 1, where R(y, 1) drops degree and proves nothing."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(80):
        a_top, b_top = rng.random() < 0.5, rng.random() < 0.3
        A = _random_in_y(rng, field, rng.randint(1, 2), a_top)
        B = _random_in_y(rng, field, rng.randint(0, 2), b_top)
        R = A ** rng.randint(1, 2) * B
        if R.degree_in("y") < 2:
            continue
        proved = algebra.separable_by_evaluation(R, "y")
        if proved:
            assert not _sympy_discriminant(R).is_zero, str(R)
        seen.add((proved, a_top or b_top))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def _count_specializations(monkeypatch):
    """The taus ``separable_by_evaluation`` reads R at: one
    ``algebra._specialize_mod`` call per tau."""
    calls = []
    specialize = algebra._specialize_mod

    def counted(image, tau):
        calls.append(tau)
        return specialize(image, tau)
    monkeypatch.setattr(algebra, "_specialize_mod", counted)
    return calls


def _count_exact_checks(monkeypatch):
    """The taus decided by the exact check: one ``subs_values`` each."""
    calls = []
    subs = MultiPoly.subs_values

    def counted(self, values):
        calls.append(values)
        return subs(self, values)
    monkeypatch.setattr(MultiPoly, "subs_values", counted)
    return calls


def _root_field(f):
    """The field of the root of an irreducible univariate f over Q, as
    ``roots_univariate`` builds it: the fields that have an image mod q."""
    [(_, _, field, _)] = roots_univariate(f, "y", "w")
    return field


QW2 = _root_field(parse_poly("y^2 - 2", QQ, ("y",)))       # Q[w]/(w^2 - 2)
QW3 = _root_field(parse_poly("y^3 - y - 1", QQ, ("y",)))   # Q[w]/(w^3 - w - 1)


def _with_w_part(rng, field, A):
    """A plus w times a random polynomial of lower y-degree, over an
    extension; A itself otherwise."""
    n = A.degree_in("y")
    if not isinstance(field, ExtensionField) or n < 1:
        return A
    return A + _random_in_y(rng, field, rng.randint(0, n - 1),
                            False).scale(field.gen)


def _trap(rng, field, R, q):
    """R with one coefficient the proof mod q cannot read, over Q and
    Q[w]: the top y-coefficient times q, or a term over the denominator
    q; R itself over F_p, where the image is exact."""
    if field.characteristic:
        return R, False
    y = MultiPoly.var(field, R.vars, "y")
    t = MultiPoly.var(field, R.vars, "t")
    if rng.random() < 0.5:
        top = R.coeff_of("y", R.degree_in("y"))
        return R + (top * y ** R.degree_in("y")).scale(q - 1), True
    return R + (t * y).scale(Fraction(1, q)), True


def _discriminant_is_nonzero(R):
    """Res_y(R, dR/dy) is not the zero polynomial in t: it is nonzero at
    some t0 in -3..3 where R keeps its y-degree.  There it is the
    Sylvester determinant of R(y, t0) and its derivative, up to a power of
    the nonzero top coefficient."""
    n = R.degree_in("y")
    for t0 in range(-3, 4):
        r = R.subs_values({"t": R.field.of(t0)})
        d = r.derivative("y")
        if r.degree_in("y") == n and not d.is_zero() \
                and not sylvester_resultant(r, d, "y").is_zero():
            return True
    return False


@pytest.mark.parametrize("field,seed", [(QQ, 71), (PrimeField(5), 72),
                                        (PrimeField(101), 73), (QW2, 74),
                                        (QW3, 75)],
                         ids=["Q", "F5", "F101", "Q[w]/(w^2-2)",
                              "Q[w]/(w^3-w-1)"])
def test_separable_by_evaluation_matches_the_exact_loop(field, seed,
                                                        monkeypatch):
    """R = A^m * B, random, some with a top coefficient that vanishes at
    tau = 1, and over Q and Q[w] some with a top coefficient or a
    denominator divisible by the image's prime q, where every tau takes
    the exact check: the proof mod q returns the exact loop's bool
    (``oracles.separable_by_exact_evaluation``), and every True has a
    nonzero Sylvester discriminant Res_y(R, dR/dy), read at one t0."""
    rng = random.Random(seed)
    q = (field.root_mod_q[0] if isinstance(field, ExtensionField)
         else field.characteristic or algebra.PRIME_Q)
    exact = _count_exact_checks(monkeypatch)
    seen = set()
    for _ in range(40):
        A = _with_w_part(rng, field, _random_in_y(
            rng, field, rng.randint(1, 2), rng.random() < 0.5))
        B = _with_w_part(rng, field, _random_in_y(
            rng, field, rng.randint(0, 2), rng.random() < 0.3))
        R, trapped = A ** rng.randint(1, 2) * B, False
        if R.degree_in("y") < 2:
            continue
        if rng.random() < 0.3:
            R, trapped = _trap(rng, field, R, q)
        del exact[:]
        proved = algebra.separable_by_evaluation(R, "y")
        if trapped:
            assert exact, str(R)
        assert proved == separable_by_exact_evaluation(R, "y"), str(R)
        if proved:
            assert _discriminant_is_nonzero(R), str(R)
        seen.add((proved, trapped))
    assert {True, False} <= {proved for proved, _ in seen}
    if not field.characteristic:
        assert (True, True) in seen


# pair A's cluster: one orbit of 12 points of the pair in ROADMAP.md
PAIR_A_MINPOLY = (
    "y^12 - 30767/10865*y^11 + 308821/76055*y^10 - 109769/76055*y^9"
    " - 234091/76055*y^8 + 340486/76055*y^7 + 13766/76055*y^6"
    " - 334267/76055*y^5 + 317267/76055*y^4 - 50544/76055*y^3"
    " - 9588/15211*y^2 + 15536/76055*y + 21136/76055")


def _eisenstein(rng, degree):
    """A random integer polynomial of the given degree, irreducible over
    Q by Eisenstein's criterion at 2."""
    return ([2 * rng.choice([-3, -1, 1, 3])]
            + [2 * rng.randint(-4, 4) for _ in range(degree - 1)]
            + [rng.choice([-3, -1, 1, 3])])


def test_root_mod_q_is_a_simple_root_mod_q():
    """For the root fields of moduli of degree 2-12 and of pair A's
    degree-12 minimal polynomial, the cached (q, r) has m(r) = 0 mod q, q
    prime to the lead of the integer modulus, and m squarefree mod q."""
    rng = random.Random(76)
    fields = [_root_field(MultiPoly(QQ, ("y",), {
        (k,): c for k, c in enumerate(_eisenstein(rng, d))}))
        for d in range(2, 13)]
    fields.append(_root_field(parse_poly(PAIR_A_MINPOLY, QQ, ("y",))))
    found = 0
    for E in fields:
        if E.root_mod_q is None:
            continue
        found += 1
        q, r = E.root_mod_q
        mod, scale = E.int_modulus
        assert scale % q
        assert sum(c * pow(r, k, q) for k, c in enumerate(mod)) % q == 0
        m_q = [c % q for c in mod]
        dm_q = [k * c % q for k, c in enumerate(m_q)][1:]
        assert len(_gcd(m_q, dm_q, q)) == 1
    assert fields[-1].root_mod_q is not None
    assert found >= 11


def test_roots_univariate_fields_skip_the_irreducibility_proof():
    """A field that ``roots_univariate`` builds from an irreducible factor
    of ``factor_univariate`` finds its root mod q with no proof that its
    modulus is irreducible; the same field built directly has no image,
    so its separability proofs take the exact path."""
    y = MultiPoly.var(QQ, ("y",), "y")
    [(_, r, E, _)] = roots_univariate(y ** 4 - 2 * y + 2, "y", "r")
    assert E.root_mod_q is not None and r == E.gen
    direct = ExtensionField(QQ, E.modulus, "r")
    assert direct == E and direct.root_mod_q is None
    yt = MultiPoly.var(direct, ("y", "t"), "y")
    assert algebra._image_mod_q(yt * yt - direct.gen, "y") is None


def test_reducible_modulus_takes_the_exact_path(monkeypatch):
    """Over Q[w]/(w^2 - 1), squarefree but reducible, a root mod q sees
    one factor of the ring only: there is no image, and every tau takes
    the exact check, with the exact loop's answer."""
    E = ExtensionField(QQ, [-1, 0, 1], "w")
    assert E.root_mod_q is None
    y, t = (MultiPoly.var(E, ("y", "t"), v) for v in ("y", "t"))
    exact = _count_exact_checks(monkeypatch)
    for R in (y * y - t - 1, (y - t) ** 2 * (y + 1)):
        assert algebra._image_mod_q(R, "y") is None
        del exact[:]
        assert (algebra.separable_by_evaluation(R, "y")
                == separable_by_exact_evaluation(R, "y"))
        assert exact


def test_extensions_of_f_p_take_the_exact_path():
    assert F101W.root_mod_q is None


def test_separable_by_evaluation_gives_up_after_two_shared_factors(
        monkeypatch):
    """(y - t)^2 (y + 1) keeps its degree at every tau and shares y - tau
    with its derivative there: the search stops after two taus."""
    y, t = (MultiPoly.var(QQ, ("y", "t"), v) for v in ("y", "t"))
    calls = _count_specializations(monkeypatch)
    assert not algebra.separable_by_evaluation((y - t) ** 2 * (y + 1), "y")
    assert len(calls) <= 2


def test_separable_by_evaluation_proves_after_one_shared_factor(
        monkeypatch):
    """y^2 - t + 1 is y^2 at tau = 1, which shares y with its derivative,
    and y^2 - 1 at tau = 2, which proves it separable."""
    y, t = (MultiPoly.var(QQ, ("y", "t"), v) for v in ("y", "t"))
    calls = _count_specializations(monkeypatch)
    assert algebra.separable_by_evaluation(y * y - t + 1, "y")
    assert len(calls) == 2


# ----------------------------------------------------------------- translate

def test_translate_line():
    x, y = xy()
    assert translate_to_origin(x - 1, (QQ.of(1), QQ.of(0))) == x


def test_translate_identity():
    x, y = xy()
    f = x * x + y * y
    assert translate_to_origin(f, (QQ.zero, QQ.zero)) == f


def test_translate_parabola():
    x, y = xy()
    f = y - x * x
    assert translate_to_origin(f, (QQ.of(1), QQ.of(1))) == y - 2 * x - x * x


def test_translate_into_extension():
    E = ExtensionField(QQ, [-2, 0, 1])
    x, y = xy()
    f = x * x - 2
    g = translate_to_origin(f, (E.gen, E.zero))
    assert g.field == E
    assert not g.subs_values({"x": E.zero, "y": E.zero}).constant_value()


TRANSLATE_FIELDS = [QQ, PrimeField(101), QW, F101W]


def _coordinate(rng, field):
    """A random nonzero coordinate; over an extension, one off the base."""
    if isinstance(field, ExtensionField):
        return field.of(rng.randint(-9, 9)) + field.gen * rng.randint(1, 9)
    return field.of(Fraction(rng.randint(1, 9), rng.randint(1, 4))
                    if field == QQ else rng.randint(1, 100))


@pytest.mark.parametrize("field", TRANSLATE_FIELDS,
                         ids=["Q", "F101", "Qw", "F101w"])
@pytest.mark.parametrize("variables", [V, XYT], ids=["xy", "xyt"])
def test_translate_agrees_with_sympy(field, variables):
    """Ruffini's rule on each coordinate against a sympy expansion of
    f(x + p_x, y + p_y), over the point's field: t passes through, a zero
    coordinate on either side shifts nothing, and (0, 0) gives f back."""
    rng = random.Random(len(variables))
    base = field.base if isinstance(field, ExtensionField) else field
    zero = field.zero
    for _ in range(3):
        f = random_poly(rng, base, variables, 3)
        g = lift_to_field(f, field)
        px, py = _coordinate(rng, field), _coordinate(rng, field)
        for point in ((zero, zero), (px, zero), (zero, py), (px, py)):
            subs = {v: MultiPoly.var(field, variables, v)
                    + MultiPoly.const(field, variables, c)
                    for v, c in zip(variables, point)}
            got = translate_to_origin(f, point)
            assert got.field == field
            assert got == sympy_compose(g, subs)
        assert translate_to_origin(f, (zero, zero)) == g


def test_translate_unrepresentable_coordinate():
    x, y = xy()
    with pytest.raises(UnsupportedExtensionError):
        translate_to_origin(x, ("not a number", 0))


# --------------------------------------------------------------------- shear

def test_shear_identity_accepted_for_transverse_lines():
    x, y = xy()
    fs, gs, lam, mu, _, _, _ = shear_to_general_position(x - y, x + y,
                                                         "origin")
    assert (lam, mu) == (QQ.zero, QQ.one)
    assert fs == x - y and gs == x + y


def test_shear_regularizes_horizontal_line():
    x, y = xy()
    fs, gs, lam, mu, _, _, _ = shear_to_general_position(y, x, "origin")
    assert not fs.subs_values({"y": QQ.zero}).is_zero()
    assert not gs.subs_values({"y": QQ.zero}).is_zero()
    assert mu != 0


def test_shear_cusp_pair_postcondition():
    x, y = xy()
    f = x * x - y ** 3
    g = x - y
    fs, gs, lam, mu, _, _, _ = shear_to_general_position(f, g, "origin")
    f0 = fs.subs_values({"y": QQ.zero})
    g0 = gs.subs_values({"y": QQ.zero})
    assert not f0.is_zero() and not g0.is_zero()
    assert len(gcd(f0, g0).terms) == 1  # pure power of x
    assert fs.leading_coeff_in("x").is_constant()
    assert gs.leading_coeff_in("x").is_constant()


def test_shear_budget_exhaustion_reports_tried_pairs():
    # over F_2 the only shears have |lam|, mu <= 1; y*(x + y) vs
    # y*(x + y + 1) cannot be regularized in the required strong sense
    # within them
    F = PrimeField(2)
    x, y = xy(F)
    with pytest.raises(GeneralPositionError) as info:
        shear_to_general_position(y * (x + y), y * x + y * y + y,
                                  "origin")
    assert info.value.tried


REFERENCE_FIELDS = {"Q": QQ, "F2": PrimeField(2), "F3": PrimeField(3),
                    "F7": PrimeField(7), "F101": PrimeField(101)}


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 10 ** 6),
       fieldname=st.sampled_from(sorted(REFERENCE_FIELDS)),
       misses=st.booleans())
def test_origin_search_picks_the_gcd_rules_first_shear(seed, fieldname,
                                                      misses):
    """On random coprime pairs through the origin, and on pairs whose
    first curve misses it (as a ``nearby_intersections`` target can), the
    search for the origin's fiber accepts the first shear that the gcd
    rule ``oracles.in_general_position`` accepts, or both refuse.  Where
    ``mult`` exits 0, the resultant engine's order, read off the search's
    own chain, is Fulton's intersection number."""
    field = REFERENCE_FIELDS[fieldname]
    rng = random.Random(seed)
    f, g = (random_poly(rng, field, V, rng.randint(1, 3), 4, True)
            for _ in range(2))
    if misses:
        f = f + MultiPoly.const(field, V, 1)
    assume(not f.is_constant() and not g.is_constant()
           and gcd(f, g).is_constant())
    expected = first_general_position_shear(f, g)
    try:
        found = shear_to_general_position(f, g, "origin")[2:4]
    except GeneralPositionError:
        found = None
    assert found == expected, (str(f), str(g))
    if misses:
        return
    _, code = run_job(Job(command="mult", curves=(str(f), str(g)),
                          field=fieldname))
    if code == EXIT_OK:
        assert mult_resultant_order(algebra.local_pair(f, g)) == \
            fulton_intersection_number(f, g), (str(f), str(g))


@pytest.mark.parametrize("field, count", [
    (PrimeField(2), 2), (PrimeField(7), 7), (PrimeField(101), 101),
    (QQ, 511)], ids=["F2", "F7", "F101", "Q"])
def test_shear_candidates_try_each_direction_once(field, count):
    # the full search order with each repeated direction lam/mu dropped
    got = list(_shear_candidates(field))
    assert got == shear_candidates_by_ratio(field, SHEAR_BOUND)
    assert len(got) == count and got[0] == (0, 1)


def test_shear_preserves_point_membership():
    x, y = xy()
    f = x * x - y ** 3
    sheared = apply_shear(f, QQ.of(2), QQ.of(3))
    # (x, lam x + mu y) maps zeros of f to zeros of sheared
    for px, py in [(Fraction(1), Fraction(1)), (Fraction(8), Fraction(4))]:
        assert evaluate(f, {"x": px, "y": py}) == 0
        assert evaluate(sheared, {"x": px, "y": 2 * px + 3 * py}) == 0


# ------------------------------------------------------- univariate roots

@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_roots_univariate_adjoins_one_root_per_factor(field):
    """(y - 2) (y + 1)^2 (y^2 + 1)^2, with y^2 + 1 irreducible over Q and
    over F7 (7 = 3 mod 4): the factors by degree, then by how they print,
    each with its multiplicity and one root, which lies in the base field
    exactly when its factor is linear."""
    y = MultiPoly.var(field, ("y",), "y")
    one = MultiPoly.const(field, ("y",), 1)
    factors = [(y + one, 2), (y - 2 * one, 1), (y * y + one, 2)]
    f = one
    for fac, mult in factors:
        f = f * fac ** mult
    got = roots_univariate(f, "y", "r")
    assert [(fac, mult) for fac, _, _, mult in got] == factors
    for fac, root, rfield, _ in got:
        linear = fac.degree_in("y") == 1
        assert (rfield == field) == linear
        if not linear:
            assert isinstance(rfield, ExtensionField)
            assert rfield.base == field and rfield.gen_name == "r"
            assert rfield.degree == fac.degree_in("y")
        assert evaluate(lift_to_field(fac, rfield), {"y": root}) == 0


# ---------------------------------------------------------------- homogenize

def test_homogenize_cusp():
    x, y = xy()
    F = homogenize(x * x - y ** 3, 3)
    assert str(F) == "X^2*Z - Y^3"
    assert is_homogeneous(F)


def test_dehomogenize_chart_x():
    x, y = xy()
    F = homogenize(x * x - y ** 3, 3)
    g = dehomogenize(F, "X")
    assert str(g) == "-y^3 + z"


def test_homogenize_roundtrip():
    x, y = xy()
    f = x * x - y ** 3 + x * y - 7
    assert dehomogenize(homogenize(f, 5), "Z") == f


def test_homogenize_zero():
    z = MultiPoly.zero(QQ, V)
    assert homogenize(z, 4).is_zero()


def test_homogenize_degree_too_small():
    x, y = xy()
    with pytest.raises(InvalidDegreeError):
        homogenize(x ** 3, 2)

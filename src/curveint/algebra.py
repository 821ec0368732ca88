"""Polynomial algebra: gcd, subresultant remainder sequences, resultants,
squarefree decomposition, and the coordinate changes used to put curve
pairs in general position.  Both changes, a point moved to the origin and
a shear, are one kernel (``_shift``): Ruffini's rule on rows of scalars.

Resultant convention
--------------------
``resultant(f, g, x)`` equals the determinant of the Sylvester matrix built
with f's coefficient rows first (deg g rows of f above deg f rows of g,
coefficients in descending powers of x).  The determinant is kept as a test
oracle only.  ``subresultant_prs`` is the one remainder loop: one chain
gives the resultant (its last member when that has degree 0, signed by
the chain itself), the gcd (the primitive part of its last member) and
the degree-one subresultant S1 that the point enumeration and the
deformation engine read x-coordinates off (``resultant_and_s1``).  Its
pseudo-remainders (``pseudo_rem``) take one sparse pass of plain int
products per step, on packed exponent keys and one
``Field.product_codec`` encoding, and never form the top terms that
cancel.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain

from .errors import (GeneralPositionError, GenericityFailureError,
                     InfiniteMultiplicityError, InvalidDegreeError,
                     InvalidInputError, SharedComponentError,
                     UnsupportedExtensionError, VerificationFailureError)
from .factor import PRIME_Q, _gcd, _trim, factor_mod_p, factor_over_q
from .fields import QQ, ExtensionField, PrimeField, pth_root_scalar
from .poly import MultiPoly, _exponent_codec, _poly


# --------------------------------------------------------------------- gcd

def _normalize(f: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1."""
    if f.is_zero():
        return f
    return f.scale(1 / f.leading_coefficient())


def content_in(f: MultiPoly, name: str) -> MultiPoly:
    """gcd of the coefficients of f viewed as a polynomial in ``name``,
    normalized; 1 with no gcd run when some coefficient is a nonzero
    constant."""
    coeffs = [c for c in f.coeffs_in(name) if not c.is_zero()]
    if not coeffs:
        return f.clone({})
    if any(c.is_constant() for c in coeffs):
        return MultiPoly.const(f.field, f.vars, 1)
    g = coeffs[0]
    for c in coeffs[1:]:
        g = gcd(g, c)
        if g.is_constant():
            break
    return _normalize(g)


def pseudo_rem(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """r with lc_g^(df-dg+1) * f = q*g + r and deg_name r < deg_name g.

    g splits once into lead, its top coefficient in ``name``, and rest,
    its terms below, negated.  A step of degree dr splits r into low, its
    terms below dr, and top, its terms of degree dr shifted down by dg, and
    forms r*lead - top*g = low*lead + top*rest: the top terms cancel, so
    they are never formed.  Both products run in one pass of plain int
    products (one ``Field.product_codec`` call on the pair
    (low + top, lead + rest)), summed per exponent key of
    ``poly._exponent_codec`` and decoded once per step; the keys stay
    packed from step to step, with name's slot read by shift and mask.
    """
    df, dg = f.degree_in(name), g.degree_in(name)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if df < dg:
        return f
    e = df - dg + 1
    # Each of the at most e steps raises r's exponents by at most g's.
    pack, unpack, width = _exponent_codec(
        max(chain.from_iterable(f.terms))
        + e * max(chain.from_iterable(g.terms)), len(f.vars))
    shift = width * f.vars.index(name)
    mask = (1 << width) - 1
    down = dg << shift
    lead_keys, lead, rest_keys, rest = [], [], [], []
    for x, c in g.terms.items():
        k = pack(x)
        if k >> shift & mask == dg:
            lead_keys.append(k - down)
            lead.append(c)
        else:
            rest_keys.append(k)
            rest.append(-c)
    n = len(lead)
    r = {pack(x): c for x, c in f.terms.items()}
    while r:
        dr = max(k >> shift & mask for k in r)
        if dr < dg:
            break
        low_keys, low, top_keys, top = [], [], [], []
        for k, c in r.items():
            if k >> shift & mask == dr:
                top_keys.append(k - down)
                top.append(c)
            else:
                low_keys.append(k)
                low.append(c)
        # One codec call is exact for both products: an output key sums at
        # most min(|low|, |lead|) products from low*lead and at most
        # min(|top|, |rest|) from top*rest, together at most
        # min(|low| + |top|, |lead| + |rest|), the codec's bound.
        ai, bi, decode = f.field.product_codec(low + top, lead + rest)
        m = len(low)
        sums = {}
        for a_keys, a, b_keys, b in ((low_keys, ai[:m], lead_keys, bi[:n]),
                                     (top_keys, ai[m:], rest_keys, bi[n:])):
            b_terms = list(zip(b_keys, b))
            for ka, x in zip(a_keys, a):
                for kb, y in b_terms:
                    k = ka + kb
                    sums[k] = sums.get(k, 0) + x * y
        r = decode(sums)
        e -= 1
    r = _poly(f.field, f.vars, {unpack(k): c for k, c in r.items()})
    return r * g.leading_coeff_in(name) ** e if e else r


def _involved(f: MultiPoly, g: MultiPoly):
    return [v for v in f.vars if f.involves(v) or g.involves(v)]


def _dense(f: MultiPoly, name: str):
    """The scalar coefficients of f in ``name``, ascending; f involves no
    other variable."""
    i = f.vars.index(name)
    out = [f.field.zero] * (f.degree_in(name) + 1)
    for e, c in f.terms.items():
        out[e[i]] = c
    return out


def _monic(coeffs, like: MultiPoly, name: str) -> MultiPoly:
    """The monic polynomial in ``name`` with the ascending coefficients
    ``coeffs`` (the top one nonzero), in the variables of ``like``."""
    inv = 1 / coeffs[-1]
    return like.clone({tuple(k if v == name else 0 for v in like.vars):
                       c * inv for k, c in enumerate(coeffs) if c})


def _univar_gcd(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Monic Euclid on dense coefficient lists (single-variable inputs)."""
    a, b = _dense(f, name), _dense(g, name)
    while b:
        inv = 1 / b[-1]
        bm = [c * inv for c in b]
        r = a[:]
        for k in range(len(r) - 1, len(bm) - 2, -1):
            c = r[k]
            if c:
                off = k - (len(bm) - 1)
                for i2, cb in enumerate(bm):
                    r[off + i2] = r[off + i2] - c * cb
        del r[len(bm) - 1:]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    return _monic(a, f, name)


def gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Multivariate gcd over a field, normalized to leading coefficient 1.

    Single-variable pairs take a dense monic-Euclid path.  Otherwise the
    contents in the first variable involved split off recursively, and the
    gcd of the primitive parts is the primitive part of the last member of
    their subresultant chain (1 when that member has degree 0).
    """
    if f.is_zero():
        return _normalize(g)
    if g.is_zero():
        return _normalize(f)
    if f.is_constant() or g.is_constant():
        return MultiPoly.const(f.field, f.vars, 1)
    involved = _involved(f, g)
    if len(involved) == 1:
        return _univar_gcd(f, g, involved[0])
    name = involved[0]
    if not f.involves(name):
        return gcd(f, content_in(g, name))
    if not g.involves(name):
        return gcd(content_in(f, name), g)
    cf, cg = content_in(f, name), content_in(g, name)
    c = gcd(cf, cg)
    last = subresultant_prs(f.exact_divide(cf), g.exact_divide(cg), name)[-1]
    if last.degree_in(name) == 0:
        return _normalize(c)
    return _normalize(c * last.exact_divide(content_in(last, name)))


# ------------------------------------------------------- subresultant PRS

def subresultant_prs(f: MultiPoly, g: MultiPoly, name: str):
    """The subresultant polynomial remainder sequence of (f, g) in ``name``.

    Returns the list [f, g, r_1, r_2, ...]: the inputs, larger degree in
    ``name`` first, then the remainders down to the last nonzero one.
    Exact divisions keep coefficient growth polynomial.  A last member of
    positive degree is a gcd of f and g up to a factor free of ``name``.
    A last member of degree 0 is Res_name(f, g) of the inputs as given,
    in place of the degree-0 remainder (or of g, when g has degree 0):
    S_0, the h-recurrence's last value, times the sign
    (-1)^(sum d_i*d_{i+1}) over the members' degrees d_i, and times
    (-1)^(deg f * deg g) when g came first.
    """
    da, db = f.degree_in(name), g.degree_in(name)
    odd = 0
    if da < db:
        f, g, da, db = g, f, db, da
        odd = da * db
    seq = [f, g]
    one = MultiPoly.const(f.field, f.vars, 1)
    gg, h = one, one
    while True:
        a, b = seq[-2], seq[-1]
        odd += da * db
        delta = da - db
        if db != 0:
            r = pseudo_rem(a, b, name)
            if r.is_zero():
                return seq
            r = r.exact_divide(gg * h ** delta)
        gg = b.leading_coeff_in(name)
        if delta >= 1:
            h = (gg ** delta).exact_divide(h ** (delta - 1))
        if db == 0:
            seq[-1] = -h if odd % 2 else h
            return seq
        seq.append(r)
        da, db = db, r.degree_in(name)


def resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Res_name(f, g) as a polynomial in the remaining variables.

    The last member of the subresultant chain of f and g as given, or 0
    when that member has positive degree: the chain's signed S_0 is the
    resultant over any integral domain (Collins 1967, Brown & Traub
    1971), so no content splits off.  Agrees exactly with the Sylvester
    determinant (f's rows first).
    """
    if f.is_zero() and g.is_zero():
        raise InvalidInputError("resultant of two zero polynomials")
    if not f.involves(name) and not g.involves(name):
        raise InvalidInputError(f"neither input involves {name}")
    if f.is_zero() or g.is_zero():
        return f.clone({})
    return resultant_and_s1(f, g, name)[0]


def resultant_and_s1(f: MultiPoly, g: MultiPoly, name: str):
    """(R, S1) off one subresultant chain of nonzero f and g in ``name``:
    R = Res_name(f, g) as ``resultant`` reads it (0 when the last member
    has positive degree), and S1, the member of degree one in ``name``
    (None when the chain skips degree one).  S1 lies in the ideal (f, g)."""
    chain = subresultant_prs(f, g, name)
    last = chain[-1]
    R = last.clone({}) if last.degree_in(name) > 0 else last
    return R, next((m for m in reversed(chain) if m.degree_in(name) == 1),
                   None)


# ------------------------------------------------------ squarefree factors

def _pth_root_poly(f: MultiPoly) -> MultiPoly:
    p = f.field.characteristic
    out = {}
    for exps, c in f.terms.items():
        if any(e % p for e in exps):
            raise InvalidInputError("not a p-th power")
        key = tuple(e // p for e in exps)
        out[key] = pth_root_scalar(c, f.field)
    return f.clone(out)


def _sqf_recurse(f: MultiPoly):
    """Multiplicity map {factor: mult} for a nonconstant f, any characteristic."""
    p = f.field.characteristic
    partials = [f.derivative(v) for v in f.vars if f.involves(v)]
    if p > 0 and all(d.is_zero() for d in partials):
        root = _pth_root_poly(f)
        if root.is_constant():
            return {}
        return {fac: p * m for fac, m in _sqf_recurse(root).items()}
    g = f
    for d in partials:
        if not d.is_zero():
            g = gcd(g, d)
        if g.is_constant():
            break
    if g.is_constant():
        return {_normalize(f): 1}
    w = _normalize(f).exact_divide(g)  # product of factors with p-coprime mult
    result = {}
    leftover = w
    for fac, m in _sqf_recurse(g).items():
        c = gcd(fac, leftover)
        if c.is_constant():
            result[fac] = result.get(fac, 0) + m
        else:
            rest = fac.exact_divide(c)
            if not rest.is_constant():
                result[_normalize(rest)] = result.get(_normalize(rest), 0) + m
            cn = _normalize(c)
            result[cn] = result.get(cn, 0) + m + 1
            leftover = leftover.exact_divide(c)
    if not leftover.is_constant():
        ln = _normalize(leftover)
        result[ln] = result.get(ln, 0) + 1
    return result


def squarefree_decompose(f: MultiPoly):
    """The squarefree factors of a nonzero f as [(factor, multiplicity),
    ...]: pairwise coprime, squarefree, each with graded-lex leading
    coefficient 1, and f is a nonzero constant times the product of
    factor ** multiplicity.  Sorted by multiplicity, total degree, then
    printed form; a constant f gives [].  Over F_p a polynomial whose
    partials all vanish is decomposed through its p-th root."""
    if f.is_zero():
        raise InvalidInputError("squarefree decomposition of zero")
    if f.is_constant():
        return []
    factors = sorted(_sqf_recurse(f).items(),
                     key=lambda it: (it[1], it[0].total_degree(), str(it[0])))
    prod = MultiPoly.const(f.field, f.vars, 1)
    for fac, m in factors:
        prod = prod * fac ** m
    if not f.exact_divide(prod).is_constant():
        raise VerificationFailureError(
            "squarefree decomposition failed to reconstruct f")
    return factors


def _image_mod_q(R: MultiPoly, name: str):
    """(q, n, [(i, j, c), ...]): R's terms with exponent i in ``name`` and
    j in t, and coefficient image c mod q, n = deg_name R.  Over F_p q = p
    and the image is exact; over Q q = 2^31 - 1; over Q[w]/(m) w -> r for
    the field's ``root_mod_q``, a prime below 2^15.  None over F_p[w],
    when the field has no ``root_mod_q`` and when q divides a
    coefficient's denominator."""
    field = R.field
    coeffs = R.terms.values()
    if isinstance(field, ExtensionField):
        if field.root_mod_q is None:
            return None
        q, root = field.root_mod_q
        powers = [pow(root, k, q) for k in range(field.degree)]
        parts = [(sum(x * w for x, w in zip(c.num, powers)), c.den)
                 for c in coeffs]
    elif field.characteristic:
        q = field.p
        parts = [(c.val, 1) for c in coeffs]
    else:
        q = PRIME_Q
        parts = [(c.numerator, c.denominator) for c in coeffs]
    inverse = {}
    for _, den in parts:
        if den not in inverse:
            if den % q == 0:
                return None
            inverse[den] = pow(den, -1, q)
    i, j = R.vars.index(name), R.vars.index("t")
    return q, R.degree_in(name), [
        (e[i], e[j], num * inverse[den] % q)
        for e, (num, den) in zip(R.terms, parts)]


def _specialize_mod(image, tau: int):
    """R(name, tau) mod q from R's ``_image_mod_q``: the dense ascending
    list of its n + 1 residues, the top one possibly 0."""
    q, n, terms = image
    out = [0] * (n + 1)
    powers = [1]
    for i, j, c in terms:
        while len(powers) <= j:
            powers.append(powers[-1] * tau % q)
        out[i] += c * powers[j]
    return [c % q for c in out]


def separable_by_evaluation(R: MultiPoly, name: str) -> bool:
    """The one evaluation proof that R(name, t) is separable in ``name``:
    for some tau in 1..23 (cut to p - 1 over F_p) the top coefficient does
    not vanish at tau and R(name, tau) is coprime to its derivative.
    False means only that no tau proved it (a degree below 2 is separable
    outright).  The search stops at the second tau that keeps R's degree
    but leaves R(name, tau) sharing a factor with its derivative: a
    repeated factor of R shows at every such tau, and False is always
    safe, since the caller then takes its exact path.

    Each tau is read mod q first (``_image_mod_q``): an image of degree n
    coprime to its derivative mod q proves it.  Over F_p the image is
    R(name, tau) itself.  Over Q, R(name, tau) lies in Z_(q)[name] with a
    unit top coefficient, so by Gauss's lemma a common factor with its
    derivative of positive degree would reduce to one mod q.  Over
    Q[w]/(m), m irreducible, q prime to lc(m) and m squarefree mod q, the
    same holds in the discrete valuation ring of Z_(q)[w]/(m) at
    (q, w - r).  The exact check (``subs_values`` and ``gcd``) decides a
    tau whose image drops the top coefficient or shares a factor, over Q
    and Q[w]/(m), and every tau with no image: the answer is the exact
    check's, only sooner."""
    n = R.degree_in(name)
    if n < 2:
        return True
    field = R.field
    p = field.characteristic
    i = R.vars.index(name)
    if p and not any(e[i] % p for e in R.terms):  # d/d name of R is 0
        return False
    image = _image_mod_q(R, name)
    shared = 0
    for raw in range(1, 24 if p == 0 else min(24, p)):
        r = _specialize_mod(image, raw) if image else None
        if r is not None and r[-1]:
            q = image[0]
            dr = _trim([k * c % q for k, c in enumerate(r)][1:])
            if len(_gcd(r, dr, q)) == 1:
                return True
        if r is None or not p:  # the image is not R(name, tau) itself
            r0 = R.subs_values({"t": field.of(raw)})
            if r0.degree_in(name) != n:
                continue
            d0 = r0.derivative(name)
            if not d0.is_zero() and gcd(r0, d0).is_constant():
                return True
        elif not r[-1]:
            continue
        shared += 1
        if shared == 2:
            return False
    return False


# ------------------------------------------------- univariate factorization

def factor_univariate(f: MultiPoly, name: str):
    """Irreducible factorization of a univariate polynomial over Q or F_p.

    Returns [(factor, multiplicity), ...] with monic factors in a
    deterministic order, by degree first; the constant factor is dropped.
    ``squarefree_decompose`` gives the multiplicities, and ``factor``
    splits each squarefree factor on dense int lists: over F_p by
    distinct- and equal-degree factorization, over Q as a primitive
    integer polynomial by Hensel lifting and Zassenhaus recombination.
    Its random choices come from a ``random.Random`` seeded anew on every
    call.
    """
    for v in f.vars:
        if v != name and f.involves(v):
            raise InvalidInputError("input is not univariate")
    field = f.field
    if field != QQ and not isinstance(field, PrimeField):
        raise UnsupportedExtensionError(
            "univariate factorization only over Q or F_p")
    coeffs = _dense(f, name)
    if len(coeffs) < 3:  # zero, a constant or a linear polynomial
        return [(_monic(coeffs, f, name), 1)] if len(coeffs) == 2 else []
    rng = random.Random(0)
    out = []
    for fac, mult in squarefree_decompose(f):
        coeffs = _dense(fac, name)
        pieces = (factor_over_q(coeffs, rng) if field == QQ else
                  factor_mod_p([c.val for c in coeffs], field.p, rng))
        out += [(_monic([field.of(c) for c in piece], f, name), mult)
                for piece in pieces]
    out.sort(key=lambda it: (it[0].degree_in(name), str(it[0])))
    return out


def roots_univariate(f: MultiPoly, name: str, gen_name: str):
    """One root of each irreducible factor of a univariate f over Q or F_p:
    (factor, root, field of the root, multiplicity) in
    ``factor_univariate``'s order.  The root of a linear factor lies in
    f's field; that of a nonlinear one is the generator of
    K[gen_name]/(factor), the only place a root is adjoined."""
    out = []
    for fac, mult in factor_univariate(f, name):
        coeffs = _dense(fac, name)
        if len(coeffs) == 2:  # monic linear: y + c has the root -c
            out.append((fac, -coeffs[0], f.field, mult))
        else:
            ext = ExtensionField(f.field, coeffs, gen_name=gen_name)
            ext._irreducible = True  # a factor of factor_univariate
            out.append((fac, ext.gen, ext, mult))
    return out


# ----------------------------------------------------- coordinate changes

def lift_to_field(f: MultiPoly, new_field) -> MultiPoly:
    """Embed a polynomial over the base field into an extension."""
    if f.field == new_field:
        return f
    if isinstance(new_field, ExtensionField) and new_field.base == f.field:
        return f.map_coefficients(new_field, new_field.of)
    raise UnsupportedExtensionError(
        f"cannot lift coefficients from {f.field!r} to {new_field!r}")


def translate_to_origin(f: MultiPoly, point) -> MultiPoly:
    """f(x + p_x, y + p_y): vanishes at the origin iff f vanishes at p.

    The point may live in a one-step extension of f's field, in which case
    the result is over that extension.  Each nonzero coordinate shifts its
    variable by Ruffini's rule on scalars (``_shift``); any further
    variable (t, in ``infinitesimal``'s frame) passes through, and the
    point (0, 0) returns f, lifted to the point's field if need be.
    """
    px, py = point
    field = f.field
    for c in (px, py):
        if field.is_element(c) or isinstance(c, (int, Fraction)):
            continue
        cf = getattr(c, "field", None)
        if isinstance(cf, ExtensionField) and (cf.base == f.field or cf == f.field):
            field = cf
        else:
            raise UnsupportedExtensionError(
                "translation point not representable over the polynomial's "
                "field or a one-step extension of it")
    g = lift_to_field(f, field)
    for i, c in enumerate((px, py)):
        c = field.of(c)
        if c:
            g = _poly(field, g.vars, _shift(g.terms, i, c, field.zero))
    return g


def _shift(terms, i, c, zero):
    """The terms of a polynomial with its variable i replaced by that
    variable plus the nonzero scalar c: Ruffini's rule (synthetic division
    by the variable minus c, repeated on each quotient; von zur Gathen and
    Gerhard, Modern Computer Algebra, section 5) on the dense row of
    coefficients in variable i, one row per choice of the other
    exponents."""
    rows = {}
    for e, v in terms.items():
        rows.setdefault(e[:i] + e[i + 1:], {})[e[i]] = v
    out = {}
    for rest, row in rows.items():
        n = max(row)
        a = [row.get(k, zero) for k in range(n + 1)]
        for k in range(n):
            for j in range(n - 1, k - 1, -1):
                if a[j + 1]:
                    a[j] = a[j] + c * a[j + 1]
        for k, v in enumerate(a):
            if v:
                out[rest[:i] + (k,) + rest[i:]] = v
    return out


def apply_shear(f: MultiPoly, lam, mu) -> MultiPoly:
    """Rewrite f in the coordinates (x' = x, y' = lam*x + mu*y).

    Substitutes y -> (y - lam*x)/mu, so the new polynomial vanishes on the
    image of the old zero set.  The origin is fixed, and the identity
    shear (0, 1) returns f itself.

    f(x, (y - lam*x)/mu) is g(x, y - lam*x) for g(x, y) = f(x, y/mu), and
    x^i (y - lam*x)^j = x^(i+j) (u - lam)^j in u = y/x: each term, scaled
    by mu^-j, is keyed by i + j in the x slot, u -> u - lam is the Taylor
    shift ``_shift`` of the y slot on each row of fixed i + j (any further
    variable stays in the row key), and a term u^j' of row i + j reads
    back as x^(i+j-j') y^j'.
    """
    field = f.field
    lam, mu = field.of(lam), field.of(mu)
    if not mu:
        raise InvalidInputError("shear requires mu != 0")
    if not lam and mu == field.one:
        return f
    powers = [field.one, 1 / mu]
    keyed = {}
    for e, c in f.terms.items():
        j = e[1]
        while len(powers) <= j:
            powers.append(powers[-1] * powers[1])
        keyed[(e[0] + j,) + e[1:]] = c * powers[j] if j else c
    if lam:
        keyed = _shift(keyed, 1, -lam, field.zero)
    return _poly(field, f.vars,
                 {(e[0] - e[1],) + e[1:]: c for e, c in keyed.items()})


PROJECTIVE_VARS = ("X", "Y", "Z")


def homogenize(f: MultiPoly, degree: int) -> MultiPoly:
    """Affine f(x, y) to the homogeneous form of the given total degree.

    Term x^i y^j becomes X^i Y^j Z^(degree-i-j)."""
    if f.total_degree() > degree:
        raise InvalidDegreeError(
            f"total degree {f.total_degree()} exceeds target {degree}")
    out = {}
    for (i, j), c in f.terms.items():
        out[(i, j, degree - i - j)] = c
    return MultiPoly(f.field, PROJECTIVE_VARS, out)


def dehomogenize(F: MultiPoly, chart: str) -> MultiPoly:
    """Restrict a homogeneous form to an affine chart (one of X, Y, Z = 1).

    The two remaining coordinates keep their projective order and are
    renamed to lowercase."""
    if chart not in PROJECTIVE_VARS:
        raise InvalidInputError(f"unknown chart {chart!r}")
    i = PROJECTIVE_VARS.index(chart)
    keep = [k for k in range(3) if k != i]
    out = {}
    zero = F.field.zero
    for exps, c in F.terms.items():
        key = tuple(exps[k] for k in keep)
        s = out.get(key, zero) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    names = tuple(PROJECTIVE_VARS[k].lower() for k in keep)
    return MultiPoly(F.field, names, out)


def is_homogeneous(F: MultiPoly) -> bool:
    if F.is_zero():
        return True
    degs = {sum(e) for e in F.terms}
    return len(degs) == 1


def _strongly_regular_in_x(f: MultiPoly) -> bool:
    """deg_x f equals the total degree and the top coefficient is constant."""
    xv = f.vars[0]
    return (f.degree_in(xv) == f.total_degree()
            and f.leading_coeff_in(xv).is_constant())


# |lam| and mu of the shears every shear search tries
SHEAR_BOUND = 20


def shear_bound(field) -> int:
    """The bound on |lam| and mu of the shears tried over ``field``:
    SHEAR_BOUND, cut to p - 1 over F_p."""
    p = field.characteristic
    return SHEAR_BOUND if p == 0 else min(SHEAR_BOUND, p - 1)


def small_pairs(field, key):
    """Int pairs (i, j) with |i|, |j| <= ``shear_bound(field)``, by growing
    |i| + |j|, then i, then j, each value of ``key(i, j)`` once; a pair
    whose key is None is skipped.  The one enumeration of the shear and
    frame-line searches."""
    bound = shear_bound(field)
    seen = set()
    for size in range(2 * bound + 1):
        for i in range(-min(size, bound), min(size, bound) + 1):
            for j in sorted({size - abs(i), abs(i) - size}):
                k = key(i, j) if abs(j) <= bound else None
                if k is not None and k not in seen:
                    seen.add(k)
                    yield i, j


def _shear_candidates(field):
    """Shears (lam, mu) with mu >= 1 by growing |lam| + mu, the identity
    first.  Each direction lam/mu comes once: scaling (lam, mu) only
    rescales the sheared y, so every acceptor gives the same answer.  The
    direction is kept in the prime field, on ints."""
    p = field.characteristic

    def direction(lam, mu):
        if mu >= 1:
            return Fraction(lam, mu) if p == 0 else lam * pow(mu, -1, p) % p
    return ((field.of(lam), field.of(mu))
            for lam, mu in small_pairs(field, direction))


def first_shear(field, attempt, outcome: str):
    """The first value ``attempt(lam, mu)`` gives over the shears of
    ``_shear_candidates``, the one loop over them; every attempt runs
    ``isolating_shear``.  An attempt rejects its shear by returning None
    or by raising GeneralPositionError or GenericityFailureError.  Once
    every shear is rejected, raises GeneralPositionError "no shear with
    |lam|, mu <= B <outcome>", with the last rejection's reason when one
    raised, and ``tried`` listing every shear."""
    tried, last = [], None
    for lam, mu in _shear_candidates(field):
        tried.append((lam, mu))
        try:
            found = attempt(lam, mu)
        except (GeneralPositionError, GenericityFailureError) as exc:
            last = exc
            continue
        if found is not None:
            return found
    reason = "" if last is None else f" (last: {last})"
    raise GeneralPositionError(
        f"no shear with |lam|, mu <= {shear_bound(field)} {outcome}{reason}",
        tried=tried)


def _fiber_x(fs: MultiPoly, gs: MultiPoly, yval):
    """The x of the one common zero of a sheared pair over y = yval, by the
    gcd of the two specialized polynomials: the fallback of ``_s1_x``
    where S11(yval) = 0 or the chain skips degree one.  None when the
    fiber does not hold exactly one distinct common zero."""
    xv, yv = fs.vars[0], fs.vars[1]
    factors = squarefree_decompose(
        gcd(fs.subs_values({yv: yval}), gs.subs_values({yv: yval})))
    if len(factors) != 1 or factors[0][0].degree_in(xv) != 1:
        return None
    h = factors[0][0]
    return -h.coeff_of(xv, 0).constant_value() / \
        h.coeff_of(xv, 1).constant_value()


def _s1_x(s1, yval, field):
    """The x of the common zero of a sheared pair over a root yval of its
    eliminant, read off the chain's degree-one member
    S1 = S11(y) x + S10(y): x0 = -S10(yval)/S11(yval), over the root's
    field.  S1 lies in the ideal of the pair and both top x-coefficients
    are constants, so when S11(yval) != 0 the fiber holds exactly one
    common zero, the one ``_fiber_x`` finds.  None when S11(yval) = 0 or
    the chain skips degree one (S1 is None)."""
    if s1 is None:
        return None
    xv, yv = s1.vars[0], s1.vars[1]
    s10, s11 = (lift_to_field(s1.coeff_of(xv, k), field).subs_values(
        {yv: yval}).constant_value() for k in (0, 1))
    return -s10 / s11 if s11 else None


def isolating_shear(f: MultiPoly, g: MultiPoly, fibers: str, lam, mu):
    """The one rule on a shear (lam, mu): (fs, gs, lam, mu, R, S1, sites)
    when both sheared curves are strongly regular in x and, on the one
    chain ``resultant_and_s1(fs, gs, x)``, each fiber y = y0 of R that
    ``fibers`` names holds one common zero (x0 by ``_s1_x``, else
    ``_fiber_x``), so ord_(y0) R is its I_P (Fulton, *Algebraic Curves*,
    1.6); else None.  "every root" names one root of each irreducible
    factor of R and raises GeneralPositionError at a fiber with two zeros;
    "origin" names y = 0 and refuses the shear unless y = 0 is no root of
    R or its one zero is the origin.  A site is ((x0, y0), the
    multiplicity in R of y0's factor, that factor, y0's field).  Every
    caller proves the curves coprime, so R = 0 is a defect."""
    fs, gs = apply_shear(f, lam, mu), apply_shear(g, lam, mu)
    if not (_strongly_regular_in_x(fs) and _strongly_regular_in_x(gs)):
        return None
    xv, yv = fs.vars[0], fs.vars[1]
    R, s1 = resultant_and_s1(fs, gs, xv)
    if R.is_zero():
        raise VerificationFailureError(
            "identically vanishing eliminant of coprime curves")
    if fibers == "origin":  # y = 0, of multiplicity ord_y R
        order = min(e[1] for e in R.terms)
        roots = [(MultiPoly.var(R.field, R.vars, yv), R.field.zero, R.field,
                  order)] if order else []
    else:
        roots = roots_univariate(R, yv, "r")
    sites = []
    for m, y0, yfield, mult in roots:
        x0 = _s1_x(s1, y0, yfield)
        if x0 is None:
            x0 = _fiber_x(lift_to_field(fs, yfield),
                          lift_to_field(gs, yfield), y0)
        if fibers == "origin" and (x0 is None or x0):
            return None
        if x0 is None:
            raise GeneralPositionError(
                "a fiber held two distinct common zeros")
        sites.append(((x0, y0), mult, m, yfield))
    return fs, gs, lam, mu, R, s1, sites


def shear_to_general_position(f: MultiPoly, g: MultiPoly, fibers: str):
    """The one isolating-shear search: the first shear that
    ``isolating_shear`` accepts for ``fibers`` ("origin" or "every root"),
    and what it returns."""
    return first_shear(f.field, partial(isolating_shear, f, g, fibers),
                       "put the pair in general position" if fibers == "origin"
                       else "separated the affine points")


# ------------------------------------------------------------ local pairs

class LocalPair:
    """Two curves through the origin that share no component there: the
    input of every local engine, built by ``local_pair``.

    ``sheared`` is the pair in general position, found by the search for
    the origin's fiber (``shear_to_general_position``) the first time an
    engine asks and kept: a pair is sheared at most once, the resultant
    engine reads that search's chain, and an engine that works in the
    given frame never shears."""

    def __init__(self, f: MultiPoly, g: MultiPoly):
        self.f, self.g = f, g

    @cached_property
    def sheared(self):
        """(fs, gs, lam, mu, R, S1, [origin site]), as
        ``shear_to_general_position`` returns them for "origin"."""
        return shear_to_general_position(self.f, self.g, "origin")


def local_pair(f: MultiPoly, g: MultiPoly) -> LocalPair:
    """The input check of every local engine: both curves pass through the
    origin and share no component there (finite multiplicity)."""
    if f.constant_value() or g.constant_value():
        raise InvalidInputError("both curves must vanish at the origin")
    d = gcd(f, g)
    if not d.is_constant():
        if not d.constant_value():
            raise InfiniteMultiplicityError(
                "curves share a component through the origin")
        raise SharedComponentError("curves share a component")
    return LocalPair(f, g)

"""Irreducible factors of squarefree univariate polynomials over F_p and Z.

Polynomials are dense lists of Python ints: ascending coefficients, no
trailing zeros.  Arithmetic mod m takes any modulus m > 1, because Hensel
lifting computes mod prime powers.  ``fields`` computes in extensions of
F_p with this long division, gcd and extended gcd, and puts Fractions over
a common denominator with ``_over_lcm``.

Over F_p: distinct-degree factorization, then an equal-degree split,
Cantor-Zassenhaus for odd p and the trace map for p = 2 (von zur Gathen
and Gerhard, *Modern Computer Algebra*, sections 14.2-14.3).  Over Z:
factor mod the smallest prime that keeps the polynomial's degree and
squarefreeness, lift the factors by multifactor Hensel lifting past the
Mignotte bound, and recombine subsets of increasing size (Zassenhaus,
MCA section 15.6).  The split draws from a ``random.Random`` the caller
passes, so a caller that seeds it gets the same factors every run.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt, lcm


# The prime of the images of Q mod q.
PRIME_Q = 2 ** 31 - 1


def is_prime(n: int) -> bool:
    if n < 4:
        return n > 1
    return n % 2 == 1 and all(n % i for i in range(3, isqrt(n) + 1, 2))


def _over_lcm(fracs):
    """(numerators, den): Fractions as integer numerators over den, the
    lcm of their denominators (1 for none)."""
    den = lcm(*(c.denominator for c in fracs))
    return [c.numerator * (den // c.denominator) for c in fracs], den


# ------------------------------------------------- arithmetic mod m

def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] += c
    return _trim([c % m for c in out])


def _sub(a, b, m):
    return _add(a, [-c for c in b], m)


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _prod(polys, m):
    out = [1]
    for u in polys:
        out = _mul(out, u, m)
    return out


def _divmod(a, b, m):
    """Quotient and remainder of a by b mod m; b's top coefficient is a
    unit mod m; each remainder coefficient is taken mod m once, when it is
    read or returned."""
    r = list(a)
    n = len(b) - 1
    if len(r) <= n:
        return [], _trim([c % m for c in r])
    inv = pow(b[-1], -1, m)
    q = [0] * (len(r) - n)
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k] * inv % m
        if c:
            q[k - n] = c
            for i in range(n):
                r[k - n + i] -= c * b[i]
    return _trim(q), _trim([c % m for c in r[:n]])


def _rem(a, b, m):
    return _divmod(a, b, m)[1]


def _monic(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd(a, b, p):
    """Monic gcd mod a prime p."""
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p) if a else a


def _xgcd(a, b, p):
    """(g, s) with g the monic gcd of a and b mod a prime p, s*a = g mod b
    and deg s < deg b - deg g, for b nonzero (MCA Algorithm 3.14, keeping
    only the cofactor of a)."""
    r0, r1, s0, s1 = b, _rem(a, b, p), [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in r0], [c * inv % p for c in s0]


def _powmod(a, e, f, p):
    """a^e mod f, mod p."""
    out = [1]
    a = _rem(a, f, p)
    while e:
        if e & 1:
            out = _rem(_mul(out, a, p), f, p)
        e >>= 1
        if e:
            a = _rem(_mul(a, a, p), f, p)
    return out


# ------------------------------------------------------------ over F_p

def _distinct_degree(f, p):
    """[(g, d), ...]: g the product of the irreducible factors of degree d
    of a monic squarefree f mod p (MCA Algorithm 14.3)."""
    out, x, h, d = [], [0, 1], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """The monic irreducible factors of f mod p, a monic squarefree
    product of factors of degree d (MCA Algorithm 14.8; for p = 2 the
    trace a + a^2 + ... + a^(2^(d-1)), Exercise 14.16)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if p == 2:
            b, t = a, a
            for _ in range(d - 1):
                t = _rem(_mul(t, t, p), f, p)
                b = _add(b, t, p)
        else:
            b = _sub(_powmod(a, (p ** d - 1) // 2, f, p), [1], p)
        g = _gcd(f, b, p)
        if 1 < len(g) < len(f):
            return (_equal_degree(g, d, p, rng)
                    + _equal_degree(_divmod(f, g, p)[0], d, p, rng))


def factor_mod_p(f, p, rng):
    """The monic irreducible factors mod a prime p of a monic squarefree
    f (coefficients in [0, p))."""
    return [u for g, d in _distinct_degree(f, p)
            for u in _equal_degree(g, d, p, rng)]


# ---------------------------------------------------------- over Q and Z

def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 mod m, h monic, the same four
    mod m^2 (MCA Algorithm 15.10)."""
    mm = m * m
    e = _sub(f, _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    s = _sub(s, d, mm)
    t = _sub(t, _add(_mul(t, b, mm), _mul(c, g, mm), mm), mm)
    return g, h, s, t


def _hensel_lift(f, us, p, big):
    """Monic u_i* = u_i mod p with f = lc(f) * prod(u_i*) mod big, for
    monic u_i mod p with f = lc(f) * prod(u_i) mod p and big = p^(2^k):
    the factors split in two halves, lifted as one pair and then each half
    on its own (MCA Algorithm 15.17)."""
    if len(us) == 1:
        return [_monic([c % big for c in f], big)]
    k = len(us) // 2
    g = [c * f[-1] % p for c in _prod(us[:k], p)]
    h = _prod(us[k:], p)
    s = _xgcd(g, h, p)[1]  # s*g = 1 mod h, as g and h are coprime mod p
    t = _divmod(_sub([1], _mul(s, g, p), p), h, p)[0]  # deg t < deg g
    m = p
    while m < big:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, us[:k], p, big) + _hensel_lift(h, us[k:], p, big)


def _exact_quotient(f, g):
    """f / g in Z[x] when g divides f there, else None."""
    r = f[:]
    n = len(g) - 1
    q = [0] * (len(r) - n)
    for k in range(len(r) - 1, n - 1, -1):
        c, rest = divmod(r[k], g[-1])
        if rest:
            return None
        q[k - n] = c
        for i in range(n):
            r[k - n + i] -= c * g[i]
    return None if any(r[:n]) else q


def factor_over_q(coeffs, rng):
    """The irreducible factors over Q of a squarefree polynomial of degree
    >= 1 with Fraction coefficients: primitive integer polynomials with
    positive top coefficients."""
    ints = _over_lcm(coeffs)[0]
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return _zassenhaus([c // content for c in ints], rng)


def squarefree_mod_p(f, p):
    """Whether f keeps its degree mod the prime p and is coprime to its
    derivative there.  Then f is squarefree over F_p, and over Q too: a
    square h^2 dividing f in Z[x] (Gauss's lemma) would reduce to one of
    the same positive degree mod p (MCA section 15.6)."""
    df = [k * c for k, c in enumerate(f)][1:]
    return f[-1] % p != 0 and len(_gcd(df, f, p)) == 1


def _good_primes(f):
    """The primes that keep the degree and squarefreeness of f mod p, in
    increasing order."""
    p = 1
    while True:
        p += 1
        if is_prime(p) and squarefree_mod_p(f, p):
            yield p


def _zassenhaus(f, rng):
    """The irreducible factors in Z[x] of a primitive squarefree f of
    degree >= 1 with a positive top coefficient: primitive, each with a
    positive top coefficient, and their product is f."""
    lc, n = f[-1], len(f) - 1
    p = next(_good_primes(f))
    us = factor_mod_p(_monic([c % p for c in f], p), p, rng)
    if len(us) == 1:
        return [f]
    # Mignotte: a factor g of f has |g|_inf <= 2^n |f|_2, so no coefficient
    # of lc(f)*g/lc(g) passes bound, and big > 2*bound reads it exactly
    # off its symmetric residue.
    bound = lc * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    big = p
    while big <= 2 * bound:
        big *= big
    us = _hensel_lift(f, us, p, big)
    out, s = [], 1
    while 2 * s <= len(us):
        for subset in combinations(range(len(us)), s):
            g = [c - big if 2 * c > big else c
                 for c in _prod([[f[-1]]] + [us[i] for i in subset], big)]
            content = gcd(*g)
            g = [c // content for c in g]
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                us = [u for i, u in enumerate(us) if i not in subset]
                break
        else:
            s += 1
    return out + [f]

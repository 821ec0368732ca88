"""The four workloads: job lists made from a seed, with expected values that
do not come from curveint.

A job is a dict with the job strings the program receives (``curves``,
``field``) and what the bench checks its verdict against:

* ``mult`` jobs carry a multiplicity derived by hand (corpus: the
  manifest's constants; stress: the derivation beside each instance);
* ``bezout`` jobs carry the degree product ``d*e``, computed in this module
  with sympy from the input text;
* ``staged`` and ``leftright`` jobs must return True.

Each workload has a per-instance limit.  The instances below the limit were
chosen so that their time stays well away from it (about half of it or
less, traced), so ``decided_frac`` repeats exactly; the two instances above
it are there by design and are stopped every time (see README.md).
"""

import random

import sympy

# Seconds a single job may run before the bench stops it.
LIMITS = {"corpus": 20.0, "stress": 4.0, "bezout-random": 10.0,
          "two-scale": 4.0}

# Seconds one pass over the list takes on a 2-core VM (Python 3.11),
# reference kernel included; a run makes as many passes as fit in
# --seconds.
PASS_S = {"corpus": 9.5, "stress": 11.0, "bezout-random": 12.0,
          "two-scale": 9.0}

# The seed of the two-scale identities, as in the acceptance suite.
TWO_SCALE_SEED = 6

# (f, g, field, multiplicity at the origin, derivation).  Each derivation
# parametrizes the branches of one curve and reads the order of the other
# curve along them; none of these values comes from curveint.
STRESS = [
    ("y^3-x^4", "y-x", "Q", 3, "y=x: x^3-x^4, order 3"),
    ("x*y*(x+y)", "x-y", "Q", 3, "x=y: 2*y^3, order 3"),
    ("x^3-y^4", "y", "F101", 3, "y=0: x^3, order 3"),
    ("y^2-x^5", "y", "F32003", 5, "y=0: -x^5, order 5"),
    ("y^2-x^3", "y-x^2", "F101", 3, "y=x^2: x^4-x^3, order 3"),
    ("x^2*y^2-x^3-y^3", "x+y", "F32003", 4,
     "y=-x: x^4-x^3+x^3 = x^4, order 4"),
    ("(x^2-y^3)*(x-y)", "x+2*y", "F101", 3,
     "x=-2*y: (4*y^2-y^3)*(-3*y), order 3"),
    ("y^2-x^4", "y", "F32003", 4, "y=0: -x^4, order 4"),
    ("x^3-y^4", "x", "F32003", 4, "x=0: -y^4, order 4"),
    ("y^3-x^4", "y-x", "F7", 3, "y=x: x^3-x^4, order 3"),
    ("x*y*(x+y)", "x-y", "F32003", 3, "x=y: 2*y^3, order 3"),
    # The pair from the roadmap; stopped at the limit until the deformation
    # engine's hot path is fixed (over Q it runs for about 210 s).
    ("x^4-y^5", "x^3-y^2+x*y", "Q", 8,
     "g = x^3+y*(x-y) has two smooth branches, y=-x^2+... and y=x+x^2+...;"
     " f = x^4-y^5 has order 4 along each, 4+4"),
]

# (corpus instance, identity) pairs of the two-scale workload: the checks
# that run in under 1 s on a 2-core VM, and the left/right
# factoring of tacnode-pair-vs-axis (over 30 s there), which no other
# instance comes close to and which is stopped at the limit by design.
TWO_SCALE = [
    ("transverse-lines", "staged"), ("transverse-lines", "leftright"),
    ("node-vs-line", "staged"), ("node-vs-line", "leftright"),
    ("point-pair-conic", "staged"), ("point-pair-conic", "leftright"),
    ("double-line-vs-line", "staged"), ("double-line-vs-line", "leftright"),
    ("smooth-conic-pair", "staged"), ("smooth-conic-pair", "leftright"),
    ("f7-cusp-vs-horizontal", "staged"),
    ("f7-cusp-vs-horizontal", "leftright"),
    ("tacnode-pair-vs-axis", "leftright"),
]

# (field, degree of F, degree of G, pairs per pass) of bezout-random.
BEZOUT_MIX = [("Q", 2, 2, 16), ("F101", 2, 2, 5), ("F32003", 2, 2, 5),
              ("F7", 2, 3, 3), ("F101", 2, 3, 3), ("F32003", 2, 3, 2)]


def degree(text):
    """Total degree of a curve's input text, by sympy."""
    expr = sympy.sympify(text.replace("^", "**"))
    return sympy.Poly(expr, *sorted(expr.free_symbols, key=str)).total_degree()


def dense_form(rng, d):
    """A dense form of degree ``d`` in X, Y, Z with nonzero coefficients in
    [-5, 5].  A negative coefficient is written as a subtraction: the parser
    rejects ``a + -3*X``."""
    text = ""
    for i in range(d, -1, -1):
        for j in range(d - i, -1, -1):
            c = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
            mono = "*".join(v if e == 1 else f"{v}^{e}"
                            for v, e in zip("XYZ", (i, j, d - i - j)) if e)
            term = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not text:
                text = term if c > 0 else f"-{term}"
            else:
                text += f" {'-' if c < 0 else '+'} {term}"
    return text


def _cli_job(name, kind, f, g, field, expected):
    return {"name": name, "kind": kind, "curves": [f, g], "field": field,
            "expected": expected}


def corpus(rng):
    """The 33 bundled jobs, the traffic of acceptance criterion 1: many
    short jobs, so per-job fixed costs show.  The seed fixes their order."""
    from curveint.corpus import corpus_manifest
    jobs = []
    for entry in corpus_manifest():
        f, g = entry["job"]["curves"]
        field = entry["job"]["field"]
        if entry["kind"] == "mult":
            expected = entry["expected_mult"]
        else:
            expected = degree(f) * degree(g)
        jobs.append(_cli_job(entry["name"], entry["kind"], f, g, field,
                             expected))
    rng.shuffle(jobs)
    return jobs


def stress(rng):
    """Deeper singular points, where Hensel lifting, witness evaluation and
    reseeds dominate.  The seed fixes the order."""
    jobs = [_cli_job(f"{f} | {g} over {field}", "mult", f, g, field, m)
            for f, g, field, m, _ in STRESS]
    rng.shuffle(jobs)
    return jobs


def bezout_random(rng):
    """Seeded random dense projective pairs: many mostly transverse points
    in irrational clusters over Q and Frobenius orbits over F_p, so algebra
    and field arithmetic dominate, not Hensel lifting."""
    jobs = []
    for field, d, e, count in BEZOUT_MIX:
        for k in range(count):
            jobs.append(_cli_job(f"{field}-{d}x{e}-{k}", "bezout",
                                 dense_form(rng, d), dense_form(rng, e),
                                 field, d * e))
    rng.shuffle(jobs)
    return jobs


def two_scale(rng):
    """The staged-specialization and left/right-factoring identities: the
    only callers of two_scale_analysis.  The seed fixes the order."""
    from curveint.corpus import affine_instances
    texts = {name: (f, g, field) for name, f, g, field in affine_instances()}
    jobs = []
    for name, check in TWO_SCALE:
        f, g, field = texts[name]
        jobs.append({"name": f"{name} {check}", "kind": check,
                     "curves": [f, g], "field": field, "expected": True})
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"corpus": corpus, "stress": stress,
            "bezout-random": bezout_random, "two-scale": two_scale}


def build(workload, seed):
    return BUILDERS[workload](random.Random(seed))

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from curveint import deformation
from curveint.algebra import (local_pair, resultant,
                              shear_to_general_position)
from curveint.cli import parse_field, parse_poly
from curveint.corpus import affine_instances
from curveint.deformation import (VARS3, deform_polynomial, deformation_count,
                                  derived_seed, random_direction,
                                  two_scale_analysis)
from curveint.errors import (GenericityFailureError, InfiniteMultiplicityError,
                             InsufficientPrecisionError, InvalidInputError,
                             UnsupportedExtensionError, ZeroToPrecisionError)
from curveint.fields import QQ, ExtensionField, PrimeField
from curveint.lifting import newton_puiseux
from curveint.poly import MultiPoly
from curveint.series import TruncatedSeries

from oracles import (bench_workloads, fulton_intersection_number,
                     sylvester_resultant, transverse_by_evaluation)

V = ("x", "y")


def xy(field=QQ):
    return (MultiPoly.var(field, V, "x"), MultiPoly.var(field, V, "y"))


CLASSICAL = [
    ("transverse lines", lambda x, y: (x, y), 1),
    ("tangent conics", lambda x, y: (x * x - y, x * x - 2 * y), 2),
    ("cusp vs horizontal", lambda x, y: (x * x - y ** 3, y), 2),
    ("cusp vs vertical", lambda x, y: (x * x - y ** 3, x), 3),
    ("double parabola vs line", lambda x, y: ((y - x * x) ** 2, x), 2),
    ("nonreduced vs transverse", lambda x, y: (x * x * y, x + y), 3),
]


@pytest.mark.parametrize("label,make,expected", CLASSICAL)
def test_classical_counts(label, make, expected):
    x, y = xy()
    f, g = make(x, y)
    assert deformation_count(local_pair(f, g), seed=42).count == expected


def test_seed_invariance():
    x, y = xy()
    f, g = x * x - y ** 3, y - x
    pair = local_pair(f, g)
    counts = {deformation_count(pair, seed=s).count for s in (0, 1, 7, 123)}
    assert counts == {2}


def test_precision_invariance():
    # doubled precision, same count
    x, y = xy()
    f, g = x * x - y, x * x - 2 * y
    pair = local_pair(f, g)
    base = deformation_count(pair, seed=4)
    doubled = deformation_count(pair, seed=4, prec=2 * base.precision)
    assert base.count == doubled.count


def _stress_pairs():
    """(name, f, g, field) of every pair of the bench's stress workload."""
    return [(f"{f} | {g} over {field}", f, g, field)
            for f, g, field, _, _ in bench_workloads().STRESS]


ADAPTIVE_PAIRS = affine_instances() + _stress_pairs()


@pytest.mark.parametrize("name,ftext,gtext,fieldname", ADAPTIVE_PAIRS,
                         ids=[row[0] for row in ADAPTIVE_PAIRS])
def test_adaptive_precision_keeps_counts_and_seeds(name, ftext, gtext,
                                                   fieldname):
    """The adaptive schedule certifies what the fixed cap 2de + 2 does, on
    the same seed, at a precision no higher; two-scale groups and seeds
    match on both sides."""
    field, _ = parse_field(fieldname)
    pair = local_pair(parse_poly(ftext, field, V), parse_poly(gtext, field, V))
    fs, gs, *_ = pair.sheared
    cap = deformation.default_precision(fs, gs)
    adaptive, fixed = deformation_count(pair), deformation_count(pair, prec=cap)
    assert (adaptive.count, adaptive.seed_used) == (fixed.count,
                                                    fixed.seed_used)
    assert adaptive.precision <= fixed.precision == cap
    if isinstance(field, ExtensionField):
        return
    for side in ("left", "right"):
        a, b = (two_scale_analysis(pair, coarse_side=side, prec=prec)
                for prec in (None, cap))
        assert (a.groups, a.seed_used) == (b.groups, b.seed_used), side
        assert a.precision <= b.precision


WITNESS_PAIRS = [("x^4-y^5", "x^3-y^2+x*y", 8),
                 ("(y-x^2)*(y+x^2)", "y-2*x^2", 4)]


@pytest.mark.parametrize("ftext,gtext,expected", WITNESS_PAIRS,
                         ids=["roadmap-pair", "parabola-pair"])
def test_ramified_pairs_certify_by_witnesses(monkeypatch, ftext, gtext,
                                             expected):
    """Both pairs' eliminants have nested ramified edges whose compressed
    roots are no squares in Q (the roadmap pair's also a slope-1/4 edge);
    the witnesses expand them over Q itself, so count-only never runs, at
    seeds 0-9."""
    def count_only(R, ys):
        raise AssertionError("count-only readout ran")

    monkeypatch.setattr(deformation, "certified_count_only", count_only)
    pair = local_pair(parse_poly(ftext, QQ, V), parse_poly(gtext, QQ, V))
    for seed in range(10):
        assert deformation_count(pair, seed=seed).count == expected, seed


@pytest.mark.parametrize("seed", [0, 1, 6])
def test_two_scale_expands_a_nested_ramified_eliminant(seed):
    """The coarse eliminant's branch has two nested ramified levels whose
    compressed roots are no squares in Q; expanded without a square root,
    its groups account for the multiplicity 4."""
    x, y = xy()
    a = two_scale_analysis(
        local_pair(x * x - y, x ** 3 - x * y + x * y * y + y * y), seed=seed,
        coarse_side="right")
    assert a.total == 4
    assert sum(k * m for k, m in a.groups) == 4


def test_precision_escalates_within_the_first_seed(monkeypatch):
    """From start precision 1, the tangent parabolas' witnesses cannot
    decide; the readout reruns at 2 on the same eliminant, so seed 0's
    first attempt certifies and builds one chain."""
    monkeypatch.setattr(deformation, "START_PRECISION", Fraction(1))
    precisions, chains = [], []
    expand, build = deformation.newton_puiseux, deformation._eliminant_and_s1
    monkeypatch.setattr(deformation, "newton_puiseux",
                        lambda *a: precisions.append(a[-1]) or expand(*a))
    monkeypatch.setattr(deformation, "_eliminant_and_s1",
                        lambda ft, gt: chains.append(ft) or build(ft, gt))
    x, y = xy()
    outcome = deformation_count(local_pair(y - x * x, y - 2 * x * x))
    assert outcome.count == 2
    assert outcome.seed_used == derived_seed(0, 0)
    assert outcome.precision == 2
    assert precisions == [1, 2]
    assert len(chains) == 1


def test_explicit_precision_runs_once_per_seed(monkeypatch):
    precisions = []
    readout = deformation.certified_solutions
    monkeypatch.setattr(deformation, "certified_solutions",
                        lambda *a: precisions.append(a[-1]) or readout(*a))
    x, y = xy()
    outcome = deformation_count(local_pair(y - x * x, y - 2 * x * x), prec=3)
    assert outcome.precision == 3
    assert set(precisions) == {3}


def _ladder(prec, cap, fails):
    """Run ``_attempts`` (seed 5, up to 8 attempts) on a fake build and
    readout.  ``fails(attempt, p)`` is the error class the readout raises
    at attempt 0, 1, ... and precision p, or None to certify.  Returns the
    (attempt, precision) pairs tried and the outcome."""
    tried, attempts = [], iter(range(8))

    def readout(attempt, p):
        tried.append((attempt, p))
        error = fails(attempt, p)
        if error:
            raise error("fake")
        return "done"

    out = deformation._attempts(lambda rng: next(attempts), readout, 5, 0,
                                prec, cap, 8, "fake")
    return tried, out


def test_attempts_double_the_cap_after_a_precision_failure():
    """Within a seed the precision doubles from START_PRECISION up to the
    cap; an InsufficientPrecisionError at the cap reseeds under double the
    cap.  No certificate chooses a precision of its own."""
    tried, out = _ladder(None, 10, lambda k, p: (
        InsufficientPrecisionError if k == 0 or p < 20 else None))
    assert tried == [(0, 2), (0, 4), (0, 8), (0, 10),
                     (1, 2), (1, 4), (1, 8), (1, 16), (1, 20)]
    assert out == ("done", derived_seed(5, 1), 20)


def test_attempts_keep_the_cap_after_a_genericity_failure():
    """ZeroToPrecisionError escalates within the seed but reseeds at the
    cap, like any genericity failure, under the same cap."""
    tried, out = _ladder(None, 8, lambda k, p: (
        ZeroToPrecisionError if k == 0 or (k == 2 and p < 8) else
        GenericityFailureError if k == 1 else None))
    assert tried == [(0, 2), (0, 4), (0, 8), (1, 2),
                     (2, 2), (2, 4), (2, 8)]
    assert out == ("done", derived_seed(5, 2), 8)


def test_attempts_explicit_precision_doubles_per_seed():
    """An explicit precision is start and cap: once per seed, at p and,
    after a precision failure, at 2p."""
    tried, out = _ladder(3, 10, lambda k, p: (
        InsufficientPrecisionError if k < 2 else None))
    assert tried == [(0, 3), (1, 6), (2, 12)]
    assert out == ("done", derived_seed(5, 2), 12)


def test_attempts_report_the_last_failure():
    with pytest.raises(GenericityFailureError,
                       match=r"^fake certification failed after 8 attempts "
                             r"\(last: fake\)$"):
        _ladder(4, 4, lambda k, p: InsufficientPrecisionError)


@pytest.mark.parametrize("shortfall,message", [
    ("x", r"^branch x-coordinate is known only to O\(t\^0\)$"),
    ("residual", r"^witness residual is known only to O\(t\^0\)$")],
    ids=["x", "residual"])
def test_witness_known_to_no_order_escalates(monkeypatch, shortfall, message):
    """A witness x, or a residual of a deformed equation, known only to
    O(t^0) proves nothing: InsufficientPrecisionError, not a pass."""
    points = deformation._points_along

    def short(s1, ybranches, prec, vanishing):
        for br, at, xser in points(s1, ybranches, prec, vanishing):
            if shortfall == "x":
                yield br, at, TruncatedSeries.zero(xser.field, 0)
            else:
                yield br, (lambda p, x=None: TruncatedSeries.zero(
                    xser.field, 0)), xser

    monkeypatch.setattr(deformation, "_points_along", short)
    x, y = xy()
    ft, gt = (deform_polynomial(h.extend_vars(VARS3),
                                MultiPoly.var(QQ, VARS3, "x"))
              for h in (x - y, x + y))
    R, s1 = deformation._eliminant_and_s1(ft, gt)
    with pytest.raises(InsufficientPrecisionError, match=message):
        deformation.certified_solutions(
            ft, gt, newton_puiseux(R, "y", 4), s1, 4)


def test_counts_over_prime_fields():
    for p in (7, 101):
        F = PrimeField(p)
        x, y = xy(F)
        for f, g in ((x * x - y ** 3, y), (x * x - y, x * x - 2 * y)):
            assert deformation_count(local_pair(f, g), seed=3).count == 2


def test_shared_component_through_origin():
    x, y = xy()
    with pytest.raises(InfiniteMultiplicityError):
        deformation_count(local_pair(x * (y - x), x * (y + x)), seed=1)


def test_both_must_vanish_at_origin():
    x, y = xy()
    with pytest.raises(InvalidInputError):
        deformation_count(local_pair(x + 1, y), seed=1)


def test_deform_polynomial_structure():
    x, y = xy()
    rng_dir = MultiPoly.const(QQ, V, 1)
    out = deform_polynomial(x * x - y, rng_dir)
    assert out.vars == ("x", "y", "t")
    assert out.subs_values({"t": QQ.zero}).drop_vars(["t"]) == x * x - y


def test_zero_direction_rejected():
    x, y = xy()
    with pytest.raises(InvalidInputError):
        deform_polynomial(x, MultiPoly.zero(QQ, V))


def _point_count(f, g, seed, coarse_side):
    groups = two_scale_analysis(local_pair(f, g), seed=seed,
                                coarse_side=coarse_side).groups
    return sum(k for k, _ in groups)


def test_one_sided_counts_are_cardinalities():
    x, y = xy()
    # deforming the doubled curve splits it: two distinct nearby points
    assert _point_count((y - x * x) ** 2, x, 3, "left") == 2
    # deforming only the line leaves one (doubly covered) nearby point
    assert _point_count((y - x * x) ** 2, x, 3, "right") == 1


def test_two_scale_group_structure():
    x, y = xy()
    a = two_scale_analysis(local_pair(x * x - y, x * x - 2 * y), seed=5,
                           coarse_side="left")
    assert sum(k * m for k, m in a.groups) == 2
    assert a.groups == [(2, 1)]  # two conjugate coarse points, simple fine
    b = two_scale_analysis(local_pair((y - x * x) ** 2, x), seed=5,
                           coarse_side="right")
    assert b.groups == [(1, 2)]  # one coarse point of fine multiplicity 2


TWO_SCALE_PINS = json.loads(
    (Path(__file__).parent / "data" / "two_scale_groups.json").read_text())


@pytest.mark.parametrize("name,ftext,gtext,fieldname", affine_instances(),
                         ids=[row[0] for row in affine_instances()])
def test_two_scale_groups_match_pins(name, ftext, gtext, fieldname):
    """Groups and seeds of every affine corpus instance at seed 6, as the
    series-grouping implementation (fine deformation, clustered witness
    series) computed them; staged ran coarse right with a fine deformation
    of both sides."""
    field, _ = parse_field(fieldname)
    f, g = parse_poly(ftext, field, V), parse_poly(gtext, field, V)
    pins = TWO_SCALE_PINS[name]
    for shape, side in (("staged", "right"), ("left", "left"),
                        ("right", "right")):
        a = two_scale_analysis(local_pair(f, g), seed=6, coarse_side=side)
        assert [list(p) for p in a.groups] == pins[shape]["groups"], shape
        assert a.seed_used == pins[shape]["seed_used"], shape


def _force_direction(monkeypatch, make, forced_calls):
    """Replace the first ``forced_calls`` drawn directions by
    ``make(field)``; later draws are the seeded random ones."""
    calls = []

    def direction(rng, field):
        calls.append(field)
        if len(calls) <= forced_calls:
            return make(field)
        return random_direction(rng, field)

    monkeypatch.setattr(deformation, "random_direction", direction)
    return calls


def _minus_one(field):
    # x^2 - 2y - t meets x^2 - y at (+-sqrt(-t), -t): two coarse points on
    # one y-root of the eliminant, which reads as [(1, 2)] uncertified
    return MultiPoly.const(field, VARS3, -1)


def test_two_scale_certificate_rejects_shared_y(monkeypatch):
    x, y = xy()
    _force_direction(monkeypatch, _minus_one, forced_calls=10 ** 6)
    with pytest.raises(GenericityFailureError,
                       match=r"^two-scale certification failed after 8 "
                             r"attempts \(last: subresultant chain skips "
                             r"degree one\)$"):
        two_scale_analysis(local_pair(x * x - y, x * x - 2 * y), seed=1,
                           coarse_side="right")


def test_two_scale_reseeds_past_shared_y(monkeypatch):
    x, y = xy()
    calls = _force_direction(monkeypatch, _minus_one, forced_calls=1)
    a = two_scale_analysis(local_pair(x * x - y, x * x - 2 * y), seed=1,
                           coarse_side="right")
    assert len(calls) > 1
    assert a.seed_used != derived_seed(1, 101)
    # two simple coarse points, not one point of multiplicity 2
    assert sum(k * m for k, m in a.groups) == 2
    assert a.groups == [(2, 1)]


def test_two_scale_certificate_evaluates_along_branches(monkeypatch):
    # g - t(x + 1) leaves (y^2 - t)(x + 1) modulo f: the degree-one
    # subresultant exists but vanishes on y = +-sqrt(t), where the four
    # coarse points (+-t^(1/4), +-sqrt(t)) pair up on two y-roots
    x, y = xy()
    _force_direction(monkeypatch,
                     lambda F: -MultiPoly.var(F, VARS3, "x")
                     - MultiPoly.const(F, VARS3, 1),
                     forced_calls=10 ** 6)
    precisions = []
    expand = deformation.newton_puiseux
    monkeypatch.setattr(deformation, "newton_puiseux",
                        lambda R, v, p: precisions.append(p) or expand(R, v, p))
    pair = local_pair(x * x - y, x ** 3 - x * y + x * y * y + y * y)
    with pytest.raises(GenericityFailureError, match="share a y-coordinate"):
        two_scale_analysis(pair, seed=1, coarse_side="right")
    # S11 is zero at every precision: each of the 8 seeds escalates from
    # 2 to the cap 2de + 2 = 14 before it fails
    assert deformation.default_precision(*pair.sheared[:2]) == 14
    assert precisions == [2, 4, 8, 14] * 8


def test_two_scale_structural_limit_fails_fast(monkeypatch):
    calls = []

    def unsupported(*args, **kwargs):
        calls.append(args)
        raise UnsupportedExtensionError("needs a second extension step")

    monkeypatch.setattr(deformation, "newton_puiseux", unsupported)
    x, y = xy()
    with pytest.raises(UnsupportedExtensionError):
        two_scale_analysis(local_pair(x * x - y, x * x - 2 * y), seed=1)
    assert len(calls) == 1


def _eliminant_seen(monkeypatch, consumer):
    """The R that one attempt of the engine hands to ``consumer``, on a
    pair with deg_x f_t = 1 < deg_x g_t = 3: the chain starts at g_t, and
    the odd degrees make the swap flip the sign of Res_x(f_t, g_t).  The
    pair is in general position as given, so its shear is the identity."""
    x, y = xy()
    f, g = x - y, x ** 3 - y * y
    rng = random.Random(3)
    directions = [random_direction(rng, QQ), random_direction(rng, QQ)]
    ft, gt = (deform_polynomial(h.extend_vars(VARS3), d)
              for h, d in zip((f, g), directions))
    assert (ft.degree_in("x"), gt.degree_in("x")) == (1, 3)
    monkeypatch.setattr(deformation, "random_direction",
                        lambda *args, **kwargs: directions.pop(0))
    seen = []

    def record(R, *args, **kwargs):
        seen.append(R)
        raise GenericityFailureError("recorded")

    monkeypatch.setattr(deformation, consumer, record)
    with pytest.raises(GenericityFailureError, match="recorded"):
        deformation_count(local_pair(f, g), max_retries=1)
    assert seen == [resultant(ft, gt, "x")]
    assert seen == [sylvester_resultant(ft, gt, "x")]


def test_certified_solutions_eliminant_is_the_resultant(monkeypatch):
    _eliminant_seen(monkeypatch, "newton_puiseux")


def test_certified_count_only_eliminant_is_the_resultant(monkeypatch):
    def unsupported(*args, **kwargs):
        raise UnsupportedExtensionError("needs a second extension step")

    monkeypatch.setattr(deformation, "certified_solutions", unsupported)
    _eliminant_seen(monkeypatch, "certified_count_only")


QW = ExtensionField(QQ, [3, 0, 1], "w")                  # Q[w]/(w^2+3)
F101W = ExtensionField(PrimeField(101), [-2, 0, 1], "w")  # 2: no square mod 101


def _deformed(field, make, attempts=4):
    """The classical pair over ``field``, sheared, and its deformations
    along the directions of the first attempts at seed 5."""
    x, y = xy(field)
    fs, gs, *_ = shear_to_general_position(*make(x, y), "origin")
    for attempt in range(attempts):
        rng = random.Random(derived_seed(5, attempt))
        yield tuple(deform_polynomial(h.extend_vars(VARS3),
                                      random_direction(rng, field))
                    for h in (fs, gs))


@pytest.mark.parametrize("field", [QQ, PrimeField(101), QW, F101W],
                         ids=["Q", "F101", "QW", "F101W"])
@pytest.mark.parametrize("label,make,expected", CLASSICAL)
def test_count_only_agrees_with_witnesses(field, label, make, expected):
    """On the directions of the first attempts, a separable eliminant
    passes the reference transversality certificate, and count-only reads
    the multiplicity off it; where the witness certificates hold too, the
    witness count agrees."""
    counts, witnessed = [], []
    for ft, gt in _deformed(field, make):
        R, s1 = deformation._eliminant_and_s1(ft, gt)
        try:
            deformation.certify_squarefree_in(R)
        except GenericityFailureError:
            continue
        assert transverse_by_evaluation(R, ft, gt)
        counts.append(deformation.certified_count_only(R, [0])[0])
        if isinstance(field, ExtensionField):
            continue
        prec = deformation.default_precision(ft, gt)
        try:
            sols = deformation.certified_solutions(
                ft, gt, newton_puiseux(R, "y", prec), s1, prec)
        except GenericityFailureError:
            continue
        witnessed.append(sum(s.span for s in sols))
    assert counts and set(counts) == {expected}
    assert isinstance(field, ExtensionField) or witnessed
    assert set(witnessed) <= {expected}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
def test_count_only_certifies_tangent_branches(field):
    """The tangent conics' nearby points share a leading coefficient, so an
    edge polynomial of R has a repeated root on each of these 4
    directions; R itself is separable on all 4, which is what proves the
    points distinct."""
    counts = []
    for ft, gt in _deformed(field, lambda x, y: (x * x - y, x * x - 2 * y)):
        R, _ = deformation._eliminant_and_s1(ft, gt)
        deformation.certify_squarefree_in(R)
        counts.append(deformation.certified_count_only(R, [0])[0])
    assert counts == [2, 2, 2, 2]


def test_tangent_deformed_pair_is_rejected():
    # y - x^2 and y - 2t*x + t^2 are tangent at (t, t^2)
    x, y, t = (MultiPoly.var(QQ, VARS3, v) for v in VARS3)
    R, _ = deformation._eliminant_and_s1(y - x * x, y - 2 * t * x + t * t)
    assert R == -(y - t * t) ** 2
    with pytest.raises(GenericityFailureError, match="repeated factor"):
        deformation.certify_squarefree_in(R)


def test_witness_readout_rejects_a_repeated_factor():
    # certified_solutions proves what it reads: the double branch y = t^2
    # is refused before any witness check runs
    x, y, t = (MultiPoly.var(QQ, VARS3, v) for v in VARS3)
    ft, gt = y - x * x, y - 2 * t * x + t * t
    R, s1 = deformation._eliminant_and_s1(ft, gt)
    with pytest.raises(GenericityFailureError, match="repeated factor"):
        deformation.certified_solutions(
            ft, gt, newton_puiseux(R, "y", 6), s1, 6)


def test_roadmap_pair_builds_one_chain(monkeypatch):
    # the witnesses certify the count off the first attempt's one chain
    from curveint.cli import EXIT_OK, Job, run_job
    chains = []
    build = deformation._eliminant_and_s1
    monkeypatch.setattr(deformation, "_eliminant_and_s1",
                        lambda ft, gt: chains.append(ft) or build(ft, gt))
    _, code = run_job(Job(command="mult", curves=("x^4-y^5", "x^3-y^2+x*y")))
    assert code == EXIT_OK
    assert len(chains) == 1


def test_derived_seed_deterministic():
    assert derived_seed(42, 3) == derived_seed(42, 3)
    assert derived_seed(42, 3) != derived_seed(42, 4)


def test_random_direction_is_a_line():
    """Each draw is a nonzero a + b x + c y, so t enters the deformed curve
    only in its x^0 and x^1 coefficients."""
    for field in (QQ, PrimeField(7), PrimeField(101)):
        x, y = xy(field)
        f3 = (x ** 3 - y * y + x * y).extend_vars(VARS3)
        rng = random.Random(0)
        for _ in range(50):
            d = random_direction(rng, field)
            assert not d.is_zero()
            assert d.total_degree() <= 1
            ft = deform_polynomial(f3, d)
            assert {i for (i, _, k) in ft.terms if k} <= {0, 1}


@pytest.mark.parametrize("seed", range(4))
def test_constant_directions_fail_on_tangent_parabolas(monkeypatch, seed):
    """Why the draw has linear terms: f + a t and g + a' t put both nearby
    points of y - x^2 and y - 2x^2 at one y, so R has a double factor,
    whatever the constants."""
    rng = random.Random(seed)
    _force_direction(monkeypatch,
                     lambda F: MultiPoly.const(F, VARS3, rng.randint(1, 9)),
                     forced_calls=10 ** 6)
    x, y = xy()
    with pytest.raises(GenericityFailureError,
                       match=r"^genericity certification failed after 8 "
                             r"attempts \(last: deformed resultant has a "
                             r"repeated factor\)$"):
        deformation_count(local_pair(y - x * x, y - 2 * x * x), seed=seed)


def _full_family(field, rng, degree):
    """A draw over every monomial of total degree <= ``degree``."""
    while True:
        terms = {}
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                c = rng.randint(-9, 9)
                if c:
                    terms[(i, j, 0)] = field.of(c)
        p = MultiPoly(field, VARS3, terms)
        if not p.is_zero():
            return p


CHEAP_LOCAL = [row for row in affine_instances() if row[3] in ("Q", "F101")]


@pytest.mark.parametrize("name,ftext,gtext,fieldname", CHEAP_LOCAL,
                         ids=[row[0] for row in CHEAP_LOCAL])
def test_line_directions_count_as_the_full_family(monkeypatch, name, ftext,
                                                  gtext, fieldname):
    """Conservation of number: a certified count is I_P whichever member
    of the family the pair is deformed to, so full-family directions, the
    line rule and Fulton's algorithm agree."""
    field, _ = parse_field(fieldname)
    f, g = parse_poly(ftext, field, V), parse_poly(gtext, field, V)
    expected = fulton_intersection_number(f, g)
    assert deformation_count(local_pair(f, g)).count == expected
    rng = random.Random(name)
    degrees = itertools.cycle((f.total_degree(), g.total_degree()))
    calls = _force_direction(monkeypatch,
                             lambda F: _full_family(F, rng, next(degrees)),
                             forced_calls=10 ** 6)
    assert deformation_count(local_pair(f, g)).count == expected
    assert calls

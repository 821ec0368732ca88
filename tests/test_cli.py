import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import curveint.algebra
import curveint.cli
import curveint.deformation
import curveint.infinitesimal
import curveint.intersect
import curveint.lifting
from curveint.cli import (EXIT_BUDGET, EXIT_INPUT, EXIT_OK,
                          EXIT_VERIFICATION, Job, main, parse_curve,
                          parse_field, parse_point, parse_poly,
                          render_report, run_job)
from curveint.corpus import corpus_manifest
from curveint.errors import (BudgetError, DegreeMixError, InvalidInputError,
                             NotSimpleRootError, ParseError)
from curveint.fields import QQ, PrimeField
from curveint.poly import MultiPoly
from oracles import fulton_intersection_number


# ------------------------------------------------------------------ parsing

def test_parse_cusp_affine():
    C = parse_curve("x^2 - y^3", QQ)
    assert C.degree == 3
    assert str(C.form) == "X^2*Z - Y^3"


def test_parse_homogeneous_cusp():
    C = parse_curve("X^2*Z - Y^3", QQ)
    assert C.degree == 3
    assert str(C.form) == "X^2*Z - Y^3"


def test_parse_degree_mix_error():
    with pytest.raises(DegreeMixError):
        parse_curve("x^2 - y^3 + Z", QQ)


def test_parse_inhomogeneous_declared_homogeneous():
    with pytest.raises(DegreeMixError):
        parse_curve("X^2 - Y^3", QQ)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_poly("x^2 + $", QQ, ("x", "y"))
    assert info.value.position == 6


def test_parse_rational_literals_and_parens():
    f = parse_poly("1/2*x^2 - (y - 3)*y", QQ, ("x", "y"))
    x = MultiPoly.var(QQ, ("x", "y"), "x")
    y = MultiPoly.var(QQ, ("x", "y"), "y")
    assert f == x * x * QQ.of(Fraction(1, 2)) - (y - 3) * y


@st.composite
def curve_texts(draw, names, depth=0):
    """(text, sympy text) of a random expression in ``names``: one to three
    signed terms of one or two factors, each an integer or rational
    literal, a variable or a parenthesised expression (two levels deep at
    most), maybe to a power 0-2, with random spaces.  Its degree stays
    within MAX_DEGREE.  The sympy text puts ** for ^ and parenthesises
    each rational literal, which binds tighter than ^ in the grammar."""
    def space():
        return draw(st.sampled_from(["", "", " "]))
    kinds = ["int", "ratio", "var", "var"] + (["paren"] if depth < 2 else [])
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 2))):
            kind = draw(st.sampled_from(kinds))
            if kind == "int":
                a = b = str(draw(st.integers(0, 30)))
            elif kind == "ratio":
                a = f"{draw(st.integers(0, 30))}/{draw(st.integers(1, 6))}"
                b = f"({a})"
            elif kind == "var":
                a = b = draw(st.sampled_from(names))
            else:
                a, b = draw(curve_texts(names, depth + 1))
                a, b = f"({space()}{a}{space()})", f"({b})"
            if draw(st.booleans()):
                n = draw(st.integers(0, 2))
                a, b = f"{a}{space()}^{space()}{n}", f"{b}**{n}"
            factors.append((a, b))
        times = f"{space()}*{space()}"
        terms.append((times.join(a for a, _ in factors),
                      "*".join(b for _, b in factors)))
    sign = draw(st.sampled_from(["", "-", "+"]))
    text, stext = sign + terms[0][0], sign + terms[0][1]
    for a, b in terms[1:]:
        op = draw(st.sampled_from("+-"))
        text, stext = f"{text}{space()}{op}{space()}{a}", f"{stext}{op}{b}"
    return text, stext


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from([QQ, PrimeField(7), PrimeField(101)]),
       st.sampled_from([("x", "y"), ("X", "Y", "Z")]).flatmap(
           lambda names: st.tuples(st.just(names), curve_texts(names))))
def test_parse_matches_sympy_expansion(field, drawn):
    """Random curve texts parse to sympy's expansion of the same text,
    reduced into the field."""
    import sympy
    names, (text, stext) = drawn
    symbols = sympy.symbols(names)
    expanded = sympy.Poly(sympy.sympify(stext), *symbols, domain=sympy.QQ)
    expected = MultiPoly(field, names, {
        e: field.of(Fraction(int(c.p), int(c.q)))
        for e, c in expanded.terms()})
    assert parse_poly(text, field, names) == expected, text


def test_parse_roundtrip_canonical_print():
    for text in ["x^2 - y^3", "x*y - 1", "3*x^2*y - 1/2*y + 4"]:
        f = parse_poly(text, QQ, ("x", "y"))
        again = parse_poly(str(f), QQ, ("x", "y"))
        assert f == again


def test_parse_field_specs():
    assert parse_field("Q")[0] == QQ
    F, warning = parse_field("F101")
    assert F == PrimeField(101) and warning is None
    F2, warning2 = parse_field("F5")
    assert F2 == PrimeField(5) and warning2  # accepted with a warning
    with pytest.raises(InvalidInputError):
        parse_field("R")


def test_parse_point():
    assert parse_point("0,0", QQ) == (0, 0)
    assert parse_point("(1/2, -3)", QQ) == (Fraction(1, 2), Fraction(-3))
    with pytest.raises(InvalidInputError):
        parse_point("1", QQ)


# ------------------------------------------------------------------- jobs

def test_job_roundtrip():
    """A job takes its flags by keyword, with the CLI's defaults; it
    serializes "fmt" as "format", round-trips through its dict, and equals
    another job exactly when every flag does."""
    job = Job(command="mult")
    assert job.to_dict() == {
        "command": "mult", "curves": [], "field": "Q", "point": None,
        "seed": 0, "precision": None, "a0": None, "max_retries": 8,
        "format": "text"}
    assert Job.from_dict(job.to_dict()) == job
    mult = Job(command="mult", curves=("x^2 - y^3", "y"), field="Q",
               point="0,0", seed=7, precision=None, fmt="json")
    assert Job.from_dict(mult.to_dict()) == mult
    full = Job(command="hensel", curves=("x^2 - t",), field="F7",
               point="1,2", seed=3, precision=5, fmt="json", a0="1",
               max_retries=2)
    assert Job.from_dict(full.to_dict()) == full
    assert full != job and full != full.to_dict()
    other = Job.from_dict(full.to_dict())
    other.seed = 4  # jobs are mutable: the corpus fills in its flags
    assert other != full


def test_manifest_entries_reserialize_identically():
    for entry in corpus_manifest():
        job = Job.from_dict(entry["job"])
        assert Job.from_dict(job.to_dict()) == job


def test_manifest_has_at_least_25_instances():
    manifest = corpus_manifest()
    assert len(manifest) >= 25
    names = [e["name"] for e in manifest]
    assert len(set(names)) == len(names)
    assert "tangent-conics" in names
    fields = {e["job"]["field"] for e in manifest}
    assert {"Q", "F7", "F101", "F32003"} <= fields
    assert not any(f in ("F2", "F3", "F5") for f in fields)


# ---------------------------------------------------------------- records

def test_records_take_keywords_and_defaults():
    point = curveint.infinitesimal.NearbyPoint(x="x", y="y", target=(0, 0),
                                               multiplicity=3)
    assert (point.span, point.multiplicity, point.scale, point.B) == \
        (1, 3, 1, 1)
    assert point.count == 3
    branch = curveint.lifting.Branch(series="s", multiplicity=2)
    assert (branch.span, branch.levels, branch.simple) == (1, (), False)
    cluster = curveint.intersect.PointCluster(minpoly="m", degree=2,
                                              chart="Z")
    assert cluster.representative is None and cluster.conjugates is None


RECORDS = [curveint.deformation.SolutionBranch,
           curveint.deformation.DeformationOutcome,
           curveint.deformation.TwoScaleAnalysis,
           curveint.infinitesimal.DeformedCurve,
           curveint.infinitesimal.NearbyPoint,
           curveint.intersect.PointCluster,
           curveint.intersect.MultiplicityReport,
           curveint.intersect.BezoutResult,
           curveint.lifting.Branch,
           curveint.lifting.WeierstrassData]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_read_only(cls):
    """The library's result records are never assigned once built: a
    field, or any new attribute, refuses assignment."""
    record = cls(*range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_import_loads_no_front_end_modules():
    """A fresh interpreter, without site packages, imports the CLI module
    and the identities without loading dataclasses or inspect, which no
    part of curveint needs, or argparse and json, which only ``main`` and
    JSON rendering need."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import curveint.cli, curveint.infinitesimal; "
            "print(*[m for m in sys.argv[2:] if m in sys.modules])")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src), "dataclasses",
         "inspect", "argparse", "json"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# --------------------------------------------------------------- commands

def test_mult_command_exit_zero():
    job = Job(command="mult", curves=("x^2 - y^3", "y"), point="0,0")
    report, code = run_job(job)
    assert code == EXIT_OK
    entry = report["results"][0]
    assert entry["mult_length"] == entry["mult_resultant"] == \
        entry["mult_deformation"] == 2


def test_bezout_command_cusp():
    job = Job(command="bezout", curves=("X^2*Z - Y^3", "Y"))
    report, code = run_job(job)
    assert code == EXIT_OK
    assert report["total"] == 3 and report["expected_total"] == 3


def test_shared_component_is_input_error():
    job = Job(command="bezout", curves=("X*Y", "X*Z"))
    report, code = run_job(job)
    assert code == EXIT_INPUT
    assert report["status"] == "input-error"


def test_syntax_error_is_input_error():
    job = Job(command="mult", curves=("x^^2", "y"), point="0,0")
    report, code = run_job(job)
    assert code == EXIT_INPUT


def test_weierstrass_command():
    job = Job(command="weierstrass", curves=("x^2 + x^3 + y",), precision=6)
    report, code = run_job(job)
    assert code == EXIT_OK
    assert report["results"][0]["degree"] == 2


def test_hensel_command():
    job = Job(command="hensel", curves=("x^2 - (1 + t)",), a0="1",
              precision=3)
    report, code = run_job(job)
    assert code == EXIT_OK
    assert report["results"][0]["root"] == "1 + 1/2*t - 1/8*t^2 + O(t^3)"


@pytest.mark.parametrize("argv, small", [
    (["hensel", "x^2 - (1 + t)", "--a0", "1"], "F3"),
    (["weierstrass", "x^2 + x^3 + y"], "F5"),
    (["mult", "x^2 - y^3", "y"], "F5"),
], ids=["hensel", "weierstrass", "mult"])
def test_small_characteristic_warning_on_every_command(argv, small, capsys):
    for field, warned in ((small, True), ("F101", False)):
        assert main(argv + ["--field", field, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert ("warning" in report) is warned


def test_json_output_byte_identical():
    job = Job(command="bezout", curves=("x^2 - y", "x^2 - 2*y"), seed=5,
              fmt="json")
    r1, c1 = run_job(job)
    r2, c2 = run_job(job)
    assert c1 == c2 == EXIT_OK
    assert render_report(r1, "json") == render_report(r2, "json")


def test_main_text_output(capsys):
    code = main(["mult", "x^2-y^3", "y", "--point", "0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mult_length=2" in out


def test_main_exit_code_for_bad_input(capsys):
    code = main(["mult", "x^2 - y^3 + Z", "y"])
    assert code == EXIT_INPUT


def test_corpus_command_passes(capsys):
    code = main(["corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: ok" in out


def test_corpus_passes_precision_and_retries_to_every_instance():
    # one attempt at precision 1 is too little for some bundled instances;
    # each of them exits 3, so the flags reached the sub-jobs
    report, code = run_job(Job(command="corpus", precision=1, max_retries=1))
    assert code == EXIT_BUDGET
    exits = [line["exit"] for line in report["results"]]
    assert EXIT_BUDGET in exits and set(exits) <= {EXIT_OK, EXIT_BUDGET}
    # over F7 the seed-0 lines give the tangent conics' eliminant a
    # repeated factor; the second seed certifies
    report, code = run_job(Job(command="corpus", max_retries=1))
    assert code == EXIT_BUDGET
    assert [line["name"] for line in report["results"]
            if line["exit"] != EXIT_OK] == ["f7-tangent-conics"]
    report, code = run_job(Job(command="corpus", max_retries=2))
    assert code == EXIT_OK


def test_engine_root_not_simple_in_small_characteristic_is_budget_exit(
        monkeypatch):
    # an engine's residual root that is not simple is exit 3, not exit 2:
    # over F_2, mult's deformed eliminant is separable in y, yet an edge of
    # its Newton polygon leaves a root Hensel's lemma cannot lift
    job = Job(command="mult", curves=("x*(x + y^2)", "(1 + x^3)*y + x"),
              field="F2")
    report, code = run_job(job)
    assert code == EXIT_BUDGET
    assert report["status"] == "budget-exhausted"
    assert report["error_kind"] == "NotSimpleRootError"

    def not_simple(*args):
        raise NotSimpleRootError("residual derivative vanishes at a0")
    monkeypatch.setattr(curveint.lifting, "hensel_lift", not_simple)
    report, code = run_job(Job(command="bezout",
                               curves=("x^2+y^2-5", "x*y-2")))
    assert code == EXIT_BUDGET
    assert report["error_kind"] == "NotSimpleRootError"


def test_inseparable_eliminant_in_characteristic_two_reseeds():
    """Over F_2, x^2 + y^2 + 1 = (x + y + 1)^2 meets x at (0, 1) only,
    twice.  The first seeds' deformed eliminants are polynomials in y^2,
    refused where they are built; a later seed certifies the total on all
    three engines, and Fulton's algorithm on the pair translated to (0, 1)
    gives the same multiplicity."""
    report, code = run_job(Job(command="bezout", curves=("x^2+y^2+1", "x"),
                               field="F2"))
    assert code == EXIT_OK
    assert report["total"] == report["expected_total"] == 2
    [point] = report["results"]
    assert point["point"] == "[0:1:1]"
    F2 = PrimeField(2)
    x, y = (MultiPoly.var(F2, ("x", "y"), v) for v in ("x", "y"))
    expected = fulton_intersection_number(x * x + (y + 1) ** 2 + 1, x)
    assert expected == 2
    assert {point[k] for k in ("mult_length", "mult_resultant",
                               "mult_deformation")} == {expected}


def test_hensel_user_root_not_simple_is_input_error():
    job = Job(command="hensel", curves=("x^2 - t",), a0="0", precision=4)
    report, code = run_job(job)
    assert code == EXIT_INPUT
    assert report["error_kind"] == "NotSimpleRootError"


def test_mult_point_off_the_curves_is_named(capsys):
    code = main(["mult", "x^2-y^3", "y", "--point", "2,3", "--format",
                 "json"])
    out = capsys.readouterr().out
    assert code == EXIT_INPUT
    assert "both curves must vanish at (2,3)" in out


# ------------------------------------------ one per-point pipeline

def test_mult_and_bezout_share_one_pipeline(monkeypatch):
    length = curveint.intersect.mult_length
    monkeypatch.setattr(curveint.intersect, "mult_length",
                        lambda pair: length(pair) + 1)
    for job in (Job(command="mult", curves=("x^2 - y^3", "y")),
                Job(command="bezout", curves=("X^2*Z - Y^3", "Y"))):
        report, code = run_job(job)
        assert code == EXIT_VERIFICATION, job.command
        assert report["status"] == "verification-failure", job.command


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_every_caller_runs_the_public_engines(monkeypatch):
    """A point's report runs each public engine once, and both identities
    run the public two-scale readout: no caller has a private twin."""
    calls = {}
    for name in ("mult_length", "mult_resultant_order",
                 "deformation_count"):
        _count_calls(monkeypatch, curveint.intersect, name, calls)
    _, code = run_job(Job(command="mult", curves=("x^2 - y^3", "y")))
    assert code == EXIT_OK
    assert calls == {"mult_length": 1, "mult_resultant_order": 1,
                     "deformation_count": 1}
    x = MultiPoly.var(QQ, ("x", "y"), "x")
    y = MultiPoly.var(QQ, ("x", "y"), "y")
    _count_calls(monkeypatch, curveint.infinitesimal, "two_scale_analysis",
                 calls)
    # the staged check reads one side, the left/right check both
    for check, runs in ((curveint.infinitesimal.staged_specialization_check,
                         1),
                        (curveint.infinitesimal.left_right_factoring_check,
                         2)):
        calls.clear()
        assert check(x * x - y, x * x - 2 * y, seed=1)
        assert calls == {"two_scale_analysis": runs}, check.__name__


def test_mult_enforces_transverse_implies_one(monkeypatch):
    monkeypatch.setattr(curveint.intersect, "transversality_check",
                        lambda f, g: True)
    report, code = run_job(Job(command="mult", curves=("x^2 - y", "y")))
    assert code == EXIT_VERIFICATION
    assert "transverse" in report["error"]


# ----------------------------------------- defects in computed values
#
# A check on a value the program made itself is an invariant: a failure
# there is a defect (exit 1), not bad input (exit 2) nor a budget (exit 3).
# Each mutant below breaks one kernel and must surface as exit 1.

def test_an_enumerated_point_off_a_curve_is_a_defect(monkeypatch):
    """x0 read with the wrong sign puts bezout's own point off a curve."""
    real = curveint.algebra._s1_x

    def flipped(s1, yval, field):
        x0 = real(s1, yval, field)
        return None if x0 is None else -x0
    monkeypatch.setattr(curveint.algebra, "_s1_x", flipped)
    report, code = run_job(Job(command="bezout",
                               curves=("x^2+y^2-5", "x*y-2")))
    assert code == EXIT_VERIFICATION
    assert "is not a common zero of the curves" in report["error"]


def test_a_segment_off_its_edge_root_is_a_defect(monkeypatch):
    """An off-by-one in Duval's exponents (u*b - v*a = 1) leaves the
    segment nonzero at its root x1 = 0, which phi(z0) = 0 rules out."""
    real = curveint.lifting._bezout_pair
    monkeypatch.setattr(curveint.lifting, "_bezout_pair",
                        lambda a, b: (real(a, b)[0] + 1, real(a, b)[1]))
    [entry] = [e for e in corpus_manifest()
               if e["name"] == "cusp-vs-horizontal"]
    report, code = run_job(Job.from_dict(entry["job"]))
    assert code == EXIT_VERIFICATION
    assert "phi(z0) != 0" in report["error"]


def test_a_nested_segment_off_its_edge_root_is_a_defect(monkeypatch):
    """The segment of a multiple edge root, expanded at the next level
    rather than lifted, must vanish at x1 = 0 as well: one off its root is
    named as the kernel's fault, not left to show as an engine
    disagreement."""
    real = curveint.lifting.segment_rows

    def off(rows, a, b, level, head, c, field, below=None):
        segment = real(rows, a, b, level, head, c, field, below)
        if below is None:
            segment[0] = segment[0] + field.one
        return segment
    monkeypatch.setattr(curveint.lifting, "segment_rows", off)
    report, code = run_job(Job(command="mult",
                               curves=("x^4-y^5", "x^3-y^2+x*y")))
    assert code == EXIT_VERIFICATION
    assert "phi(z0) != 0" in report["error"]


def test_a_squarefree_decomposition_short_of_f_is_a_defect(monkeypatch):
    """A factor lost in ``_sqf_recurse`` leaves the product of the factors
    short of the polynomial the program decomposed."""
    real = curveint.algebra._sqf_recurse

    def dropped(f):
        factors = real(f)
        factors.pop(next(iter(factors)))
        return factors
    monkeypatch.setattr(curveint.algebra, "_sqf_recurse", dropped)
    report, code = run_job(Job(command="bezout",
                               curves=("x^2+y^2-5", "x*y-2")))
    assert code == EXIT_VERIFICATION
    assert "failed to reconstruct" in report["error"]


def test_a_witness_off_the_origin_is_a_defect(monkeypatch):
    """The sheared pair is in general position and the top x-coefficients
    of f_t and g_t are units of k[[t]], so x along every branch tends to
    the origin: a witness that does not is the kernel's fault, not a
    genericity failure to reseed."""
    real = curveint.deformation._points_along

    def moved(*args):
        for br, at, x in real(*args):
            yield br, at, x + 1
    monkeypatch.setattr(curveint.deformation, "_points_along", moved)
    report, code = run_job(Job(command="mult", curves=("x*y", "x+y")))
    assert code == EXIT_VERIFICATION
    assert "does not specialize to the origin" in report["error"]


def test_a_segment_vanishing_at_its_origin_is_a_defect(monkeypatch):
    """``newton_puiseux`` refuses F(x, 0) = 0, and a nested segment at
    T = 0 is its nonzero edge polynomial shifted, so a Newton polygon
    whose rows all vanish at the origin is the kernel's fault, not bad
    input."""
    real = curveint.lifting.segment_rows
    monkeypatch.setattr(curveint.lifting, "segment_rows",
                        lambda *args, **kwargs: [
                            r._shifted(1) for r in real(*args, **kwargs)])
    report, code = run_job(Job(command="mult",
                               curves=("y - x^2", "y - 2*x^2")))
    assert code == EXIT_VERIFICATION
    assert "vanishes identically at t = 0" in report["error"]


@pytest.mark.parametrize("module,name,command,curves,error", [
    pytest.param("algebra", "resultant_and_s1", "mult", ("x", "y"),
                 "identically vanishing eliminant of coprime curves",
                 id="eliminant-mult"),
    pytest.param("algebra", "resultant_and_s1", "bezout",
                 ("x^2+y^2-5", "x*y-2"),
                 "identically vanishing eliminant of coprime curves",
                 id="resultant_and_s1-bezout-curves1-eliminant of coprime "
                    "curves"),
    pytest.param("deformation", "resultant_and_s1", "mult", ("x", "y"),
                 "deformed eliminant of coprime curves vanishes at t = 0",
                 id="deformed-eliminant-mult"),
    pytest.param("deformation", "resultant_and_s1", "bezout",
                 ("x^2+y^2-5", "x*y-2"),
                 "deformed eliminant of coprime curves vanishes at t = 0",
                 id="deformed-eliminant-bezout")])
def test_a_zero_eliminant_of_coprime_curves_is_a_defect(monkeypatch, module,
                                                        name, command,
                                                        curves, error):
    """``bezout``'s line (or gcd of the forms) proves the curves coprime
    before any resultant is taken, and where the shear search of
    ``local_pair`` finds an eliminant that vanishes identically, a gcd of
    1 proves them coprime, so that eliminant, or a deformed eliminant
    R(y, t) of the deformation engine that vanishes at t = 0, is the
    kernel's fault, not the input's."""
    def zero(f, g, xv):
        return MultiPoly.zero(f.field, f.vars), None
    monkeypatch.setattr(getattr(curveint, module), name, zero)
    report, code = run_job(Job(command=command, curves=curves))
    assert code == EXIT_VERIFICATION
    assert report["error"] == error


def test_mult_off_origin_matches_bezout_line():
    curves = ("x^2+y^2-2", "x-y")
    mult, code = run_job(Job(command="mult", curves=curves, point="1,1"))
    assert code == EXIT_OK
    bezout, code = run_job(Job(command="bezout", curves=curves))
    assert code == EXIT_OK
    line = next(r for r in bezout["results"] if r["point"] == "[1:1:1]")
    keys = ("mult_length", "mult_resultant", "mult_deformation")
    assert [mult["results"][0][k] for k in keys] == [line[k] for k in keys]


# Compact texts that parse and texts that are refused, each refusal at a
# position; whitespace may go between their tokens, never inside a run of
# digits.
_COMPACT = ["x^2-y^3", "3*x^2*y-1/2*y+4", "-(x-2/3*y)^2*(x+10)",
            "((x))^0+7*y", "x^2+$", "x^-2", "(x+y", "x+", "1/0*x", "x^",
            "x*z", "\u00b2*x", "x)", "x12", "x^65", "(x^8)^8*y"]
_SPACES = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"


def _spaced(text, rng):
    """text with random whitespace before each token and after the last,
    and where each position of text went (its end included)."""
    out, where = "", []
    for i, ch in enumerate(text):
        if not (ch.isdecimal() and i and text[i - 1].isdecimal()):
            out += "".join(rng.choices(_SPACES, k=rng.randrange(4)))
        where.append(len(out))
        out += ch
    out += " \t"
    return out, where + [len(out)]


def _parsed(text):
    try:
        return parse_poly(text, QQ, ("x", "y")).terms, None
    except (ParseError, BudgetError) as err:
        return None, err


def test_whitespace_changes_neither_terms_nor_error_positions():
    """Whitespace between tokens, of every kind str.isspace knows, gives
    the compact text's term dict, or its error at the same token: the
    error's position, in its message too, is where that token went."""
    rng = random.Random(45)
    for text in _COMPACT:
        terms, err = _parsed(text)
        for _ in range(20):
            spaced, where = _spaced(text, rng)
            got, got_err = _parsed(spaced)
            assert got == terms, repr(spaced)
            if err is None:
                assert got_err is None, repr(spaced)
                continue
            assert type(got_err) is type(err), repr(spaced)
            assert str(got_err) == re.sub(
                r"position (\d+)", lambda m: f"position {where[int(m[1])]}",
                str(err)), repr(spaced)
            if isinstance(err, ParseError):
                assert got_err.position == where[err.position]


# ------------------------------------------------------------ input bounds
#
# Exponents and total degrees past 64 are refused while parsing, before
# anything is expanded, so nesting cannot get past the check.

@pytest.mark.parametrize("text", [
    "(x+y)^100000",        # one huge exponent
    "x^65",                # an exponent just past the limit
    "((x+y)^60)^60",       # each exponent allowed, the power is not
    "(x^8)^8*x",           # a product just past the limit
    "x^40*y^30 - 1",       # degree 70 from a product of allowed powers
])
def test_parse_bounds_exit_budget_fast(text):
    start = time.perf_counter()
    report, code = run_job(Job(command="mult", curves=(text, "x")))
    assert code == EXIT_BUDGET
    assert report["error_kind"] == "BudgetError"
    assert "limit of 64" in report["error"]
    assert time.perf_counter() - start < 1


def test_parse_bounds_accept_the_limit():
    f = parse_poly("(x^8)^8 - y^64 + (x*y)^32", QQ, ("x", "y"))
    assert f.total_degree() == 64
    with pytest.raises(BudgetError):
        parse_poly("(x^8)^8 * y", QQ, ("x", "y"))


def test_cli_huge_power_exits_3_within_a_second(capsys):
    start = time.perf_counter()
    assert main(["mult", "(x+y)^100000", "x"]) == EXIT_BUDGET
    assert time.perf_counter() - start < 1
    assert "exponent 100000" in capsys.readouterr().out


def test_high_degree_transverse_point_is_fast():
    # x^7*y^7 - y meets x transversally at the origin; the deformed pair's
    # resultant and degree-one subresultant come off one remainder chain
    start = time.perf_counter()
    report, code = run_job(Job(command="mult", curves=("x^7*y^7-y", "x")))
    assert code == EXIT_OK
    keys = ("mult_length", "mult_resultant", "mult_deformation")
    assert [report["results"][0][k] for k in keys] == [1, 1, 1]
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("curves,expected", [
    # the roadmap pair and the parabolas once took the count-only readout;
    # their ramified edges now expand over Q, without a b-th root
    (("x^4-y^5", "x^3-y^2+x*y"), 8),
    # at y = 2*x^2 the first curve is 3*x^4
    (("(y-x^2)*(y+x^2)", "y-2*x^2"), 4),
], ids=["roadmap-pair", "tangent-parabolas-vs-parabola"])
def test_count_only_points_certify_in_the_default_budget(curves, expected):
    start = time.perf_counter()
    report, code = run_job(Job(command="mult", curves=curves))
    assert code == EXIT_OK
    keys = ("mult_length", "mult_resultant", "mult_deformation")
    assert [report["results"][0][k] for k in keys] == [expected] * 3
    assert time.perf_counter() - start < 10


def test_precision_bound():
    report, code = run_job(Job(command="mult", curves=("x", "y"),
                               precision=257, fmt="json"))
    assert code == EXIT_BUDGET
    assert report["error"] == "precision 257 exceeds the limit of 256"
    assert main(["hensel", "x^2 - (1 + t)", "--a0", "1",
                 "--precision", "1000"]) == EXIT_BUDGET
    _, code = run_job(Job(command="mult", curves=("x", "y"), precision=256))
    assert code == EXIT_OK


@pytest.mark.parametrize("precision", [0, -1])
@pytest.mark.parametrize("command,curves,a0", [
    ("mult", ("x^2-y^3", "y"), None),
    ("weierstrass", ("x^2 + x^3 + y",), None),
    ("hensel", ("x^2 - (1 + t)",), "1")])
def test_nonpositive_precision_is_bad_input(command, curves, a0, precision):
    report, code = run_job(Job(command=command, curves=curves, a0=a0,
                               precision=precision))
    assert code == EXIT_INPUT
    assert report["error"] == f"precision {precision} is not positive"


def _no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the job started work on bad input")
    for name in ("parse_field", "parse_curve", "parse_poly"):
        monkeypatch.setattr(curveint.cli, name, refuse)


@pytest.mark.parametrize("argv,error", [
    (["mult", "x^2-y"], "mult takes 2 curves, got 1"),
    (["mult", "x", "y", "x+y"], "mult takes 2 curves, got 3"),
    (["bezout", "x"], "bezout takes 2 curves, got 1"),
    (["bezout"], "bezout takes 2 curves, got 0"),
    (["weierstrass"], "weierstrass takes 1 curve, got 0"),
    (["weierstrass", "x^2 + y", "y"], "weierstrass takes 1 curve, got 2"),
    (["hensel", "--a0", "0"], "hensel takes 1 curve, got 0")])
def test_wrong_number_of_curves_is_bad_input(monkeypatch, capsys, argv,
                                             error):
    _no_work(monkeypatch)
    assert main(argv + ["--format", "json"]) == EXIT_INPUT
    report = json.loads(capsys.readouterr().out)
    assert report["error_kind"] == "InvalidInputError"
    assert report["error"] == error


@pytest.mark.parametrize("retries", [0, -1])
def test_nonpositive_max_retries_is_bad_input(monkeypatch, retries):
    _no_work(monkeypatch)
    report, code = run_job(Job(command="mult", curves=("x^2-y^3", "y"),
                               max_retries=retries))
    assert code == EXIT_INPUT
    assert report["error"] == f"max-retries {retries} is not positive"


# Hostile input: each case exits 2 or 3 with a report within a second, not
# with a traceback or an unbounded run.  A coefficient just inside the
# literal limit is no error: its series coefficients are past the limit
# for printing, and the report gives multiplicity 1 (kind None).  Where a
# computed value (a root, a unit, a coordinate) grows past that limit and
# is needed as text, the job is refused with exit 3.
_LONG = "1" * 5000  # past Python's 4300-digit limit for int()
_WIDE = "1" + "0" * 4000  # within it
_HALF = "1" + "0" * 3000  # its square is not


@pytest.mark.parametrize("argv,code,kind", [
    (["mult", "x + 1/7", "y", "--field", "F7"], EXIT_INPUT, "ParseError"),
    (["mult", "²", "y"], EXIT_INPUT, "ParseError"),
    (["mult", "x", "y", "--field", "F²"], EXIT_INPUT,
     "InvalidInputError"),
    (["mult", _LONG + "*x", "y"], EXIT_BUDGET, "BudgetError"),
    (["mult", _WIDE + "*x", "y"], EXIT_OK, None),
    (["mult", "x^" + _LONG, "y"], EXIT_BUDGET, "BudgetError"),
    (["mult", "x", "y", "--field", "F" + _LONG], EXIT_BUDGET, "BudgetError"),
    (["mult", "(" * 250 + "x" + ")" * 250, "y"], EXIT_BUDGET, "BudgetError"),
    (["mult", "x", "y", "--field", "F2305843009213693951"], EXIT_BUDGET,
     "BudgetError"),
    (["hensel", "x^2 - (1 + t)", "--a0", "1/0"], EXIT_INPUT,
     "InvalidInputError"),
    (["hensel", "x^2 - (1 + t)", "--a0", "abc"], EXIT_INPUT,
     "InvalidInputError"),
    (["mult", "x", "y", "--point", "1e5000,0"], EXIT_BUDGET, "BudgetError"),
    (["mult", "x", "y", "--point", "0,1e-1000000000"], EXIT_BUDGET,
     "BudgetError"),
    (["hensel", "x^2 - (1 + t)", "--a0", "1e5000"], EXIT_BUDGET,
     "BudgetError"),
    (["hensel", f"x^2 + x - {_WIDE}*t", "--a0", "0", "--precision", "3"],
     EXIT_BUDGET, "BudgetError"),
    (["weierstrass", f"x^2 + x^3 + {_WIDE}*y", "--precision", "3"],
     EXIT_BUDGET, "BudgetError"),
    (["bezout", f"x - {_HALF}*{_HALF}", "y"], EXIT_BUDGET, "BudgetError"),
], ids=["denominator-zero-mod-p", "superscript-digit", "superscript-field",
        "long-coefficient", "wide-coefficient", "long-exponent",
        "long-characteristic", "deep-nesting", "large-prime",
        "a0-zero-denominator", "a0-not-a-number", "huge-point",
        "huge-exponent", "huge-a0", "wide-root", "wide-unit",
        "wide-coordinate"])
def test_hostile_input_exits_with_a_report(capsys, argv, code, kind):
    start = time.perf_counter()
    assert main(argv + ["--format", "json"]) == code
    assert time.perf_counter() - start < 1
    report = json.loads(capsys.readouterr().out)
    if kind is None:
        assert report["status"] == "ok"
        assert [line["mult_length"] for line in report["results"]] == [1]
        return
    assert report["error_kind"] == kind
    assert report["status"] == ("input-error" if code == EXIT_INPUT
                                else "budget-exhausted")


# ------------------------------------------------------ runtime without sympy

_RUN_MAIN = "from curveint.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("argv", [
    ["bezout", "X^2 - 2*Z^2", "Y"],
    ["bezout", "X^2 - 3*Z^2", "Y", "--field", "F7"],
    ["corpus", "--format", "json"],
], ids=["orbit-over-Q", "orbit-over-F7", "corpus"])
def test_main_runs_without_sympy(argv):
    """With sympy unimportable, each job exits 0 and prints, byte for byte,
    what it prints with sympy importable: no run imports it.  Both orbits
    are of degree 2 (3 is not a square mod 7)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    runs = [subprocess.run(
        [sys.executable, "-c", "import sys; " + block + _RUN_MAIN, *argv],
        capture_output=True, env=env, timeout=120)
        for block in ("sys.modules['sympy'] = None; ", "")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout

"""Command-line front end.

Commands: ``mult`` (three-engine local multiplicity at a point), ``bezout``
(all intersection points with the degree-product check), ``weierstrass``,
``hensel``, and ``corpus`` (the bundled acceptance instances).

Exit codes: 0 all checks passed, 1 verification failure (engine
disagreement or Bezout mismatch), 2 input error, 3 genericity or precision
budget exhausted.  Reports are deterministic: the same job with the same
seed produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebra import homogenize, is_homogeneous
from .errors import (BudgetError, CurveIntError, DegreeMixError,
                     GeneralPositionError, GenericityFailureError,
                     InfiniteMultiplicityError, InsufficientPrecisionError,
                     InvalidInputError, NotAUnitError, NothingToPrepareError,
                     NotRegularError, NotSimpleRootError,
                     NotSpecializableError, ParseError,
                     VerificationFailureError)
from .fields import QQ, PrimeField
from .intersect import Curve, ProjectivePoint, bezout_sum, multiplicities_at
from .lifting import hensel_lift, weierstrass_prepare
from .poly import MultiPoly

AFFINE = ("x", "y")
PROJECTIVE = ("X", "Y", "Z")

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# Input bounds: a larger exponent or total degree is refused while parsing,
# before anything is expanded, and a larger --precision before any work (a
# --precision or --max-retries below 1 is bad input).
MAX_DEGREE = 64
MAX_PRECISION = 256

# The number of curves each command takes (``corpus`` takes none and
# ignores any given).
ARITY = {"mult": 2, "bezout": 2, "weierstrass": 1, "hensel": 1}

_INPUT_ERRORS = (InvalidInputError, InfiniteMultiplicityError,
                 NotSimpleRootError, NotRegularError, NothingToPrepareError,
                 NotAUnitError, NotSpecializableError)
_BUDGET_ERRORS = (GenericityFailureError, InsufficientPrecisionError,
                  GeneralPositionError, BudgetError)


# ------------------------------------------------------------------ parse

class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take(self):
        ch, pos = self.peek()
        if ch is not None:
            self.pos += 1
        return ch, pos

    def take_int(self):
        ch, pos = self.peek()
        if ch is None or not ch.isdigit():
            raise ParseError("expected an integer", pos)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos]), start


def parse_poly(text: str, field, variables) -> MultiPoly:
    """Recursive-descent parser for the curve grammar: integer or rational
    literals, the allowed variables, + - * ^ and parentheses.

    Raises BudgetError, before expanding, when an exponent or the total
    degree of a product or power would pass MAX_DEGREE."""
    lx = _Lexer(text)
    varset = tuple(variables)

    def check_degree(degree, pos):
        if degree > MAX_DEGREE:
            raise BudgetError(f"total degree {degree} at position {pos} "
                              f"exceeds the limit of {MAX_DEGREE}")

    def parse_expr():
        ch, _ = lx.peek()
        negate = False
        if ch in ("+", "-"):
            lx.take()
            negate = ch == "-"
        node = parse_term()
        if negate:
            node = -node
        while True:
            ch, _ = lx.peek()
            if ch == "+":
                lx.take()
                node = node + parse_term()
            elif ch == "-":
                lx.take()
                node = node - parse_term()
            else:
                return node

    def parse_term():
        node = parse_factor()
        while True:
            ch, pos = lx.peek()
            if ch == "*":
                lx.take()
                rhs = parse_factor()
                check_degree(node.total_degree() + rhs.total_degree(), pos)
                node = node * rhs
            else:
                return node

    def parse_factor():
        node = parse_atom()
        ch, _ = lx.peek()
        if ch == "^":
            lx.take()
            n, pos = lx.take_int()
            if n > MAX_DEGREE:
                raise BudgetError(f"exponent {n} at position {pos} exceeds "
                                  f"the limit of {MAX_DEGREE}")
            check_degree(node.total_degree() * n, pos)
            node = node ** n
        return node

    def parse_atom():
        ch, pos = lx.peek()
        if ch is None:
            raise ParseError("unexpected end of input", pos)
        if ch == "(":
            lx.take()
            node = parse_expr()
            ch2, pos2 = lx.peek()
            if ch2 != ")":
                raise ParseError("expected ')'", pos2)
            lx.take()
            return node
        if ch.isdigit():
            num, _ = lx.take_int()
            ch2, _ = lx.peek()
            if ch2 == "/":
                lx.take()
                den, dpos = lx.take_int()
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                return MultiPoly.const(field, varset,
                                       field.of(Fraction(num, den)))
            return MultiPoly.const(field, varset, num)
        if ch.isalpha():
            lx.take()
            if ch not in varset:
                raise ParseError(f"unknown variable {ch!r}", pos)
            return MultiPoly.var(field, varset, ch)
        raise ParseError(f"unexpected character {ch!r}", pos)

    node = parse_expr()
    ch, pos = lx.peek()
    if ch is not None:
        raise ParseError(f"trailing input {ch!r}", pos)
    return node


def parse_curve(text: str, field) -> Curve:
    """Parse a curve: affine input (x, y) is homogenized to its total
    degree; homogeneous input (X, Y, Z) is validated for homogeneity."""
    letters = {c for c in text if c.isalpha()}
    affine = letters & set(AFFINE)
    proj = letters & set(PROJECTIVE)
    if affine and proj:
        raise DegreeMixError("affine and homogeneous variables mixed")
    if proj:
        form = parse_poly(text, field, PROJECTIVE)
        if form.is_zero():
            raise InvalidInputError("zero curve")
        if not is_homogeneous(form):
            raise DegreeMixError("inhomogeneous input declared homogeneous")
        return Curve(form)
    f = parse_poly(text, field, AFFINE)
    if f.is_zero():
        raise InvalidInputError("zero curve")
    return Curve(homogenize(f, f.total_degree()))


def parse_field(spec: str):
    spec = spec.strip()
    if spec in ("Q", "QQ", "q"):
        return QQ, None
    if spec and spec[0] in ("F", "f") and spec[1:].isdigit():
        p = int(spec[1:])
        fieldobj = PrimeField(p)
        warning = None
        if p in (2, 3, 5):
            warning = (f"characteristic {p} is outside the default corpus "
                       "(wild ramification risk); results are certified "
                       "per-run or fail loudly")
        return fieldobj, warning
    raise InvalidInputError(f"unknown field spec {spec!r} (use Q or F<p>)")


def parse_point(spec: str, field):
    parts = spec.strip().lstrip("(").rstrip(")").split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"point spec {spec!r} is not 'a,b'")
    out = []
    for part in parts:
        part = part.strip()
        try:
            out.append(field.of(Fraction(part)))
        except (ValueError, ZeroDivisionError) as err:
            raise InvalidInputError(f"bad coordinate {part!r}: {err}")
    return tuple(out)


# -------------------------------------------------------------------- job

@dataclass
class Job:
    command: str
    curves: tuple = ()
    field: str = "Q"
    point: str = None
    seed: int = 0
    precision: int = None
    fmt: str = "text"
    a0: str = None
    max_retries: int = 8

    def to_dict(self):
        return {
            "command": self.command,
            "curves": list(self.curves),
            "field": self.field,
            "point": self.point,
            "seed": self.seed,
            "precision": self.precision,
            "format": self.fmt,
            "a0": self.a0,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(command=d["command"], curves=tuple(d.get("curves", ())),
                   field=d.get("field", "Q"), point=d.get("point"),
                   seed=d.get("seed", 0), precision=d.get("precision"),
                   fmt=d.get("format", "text"), a0=d.get("a0"),
                   max_retries=d.get("max_retries", 8))


def _report_skeleton(job: Job, warning=None):
    report = {
        "command": job.command,
        "inputs": list(job.curves),
        "field": job.field,
        "seed": job.seed,
        "precision": job.precision,
        "results": [],
        "total": None,
        "expected_total": None,
        "status": "ok",
    }
    if warning:
        report["warning"] = warning
    return report


def _run_mult(job: Job):
    field, warning = parse_field(job.field)
    C1 = parse_curve(job.curves[0], field)
    C2 = parse_curve(job.curves[1], field)
    a, b = parse_point(job.point or "0,0", field)
    rep = multiplicities_at(C1, C2, ProjectivePoint((a, b, 1), field),
                            seed=job.seed, prec=job.precision,
                            max_retries=job.max_retries)
    report = _report_skeleton(job, warning)
    entry = rep.to_dict()
    entry["point"] = f"({a},{b})"
    del entry["weight"]
    report["results"].append(entry)
    report["precision"] = str(rep.precision)
    return report, EXIT_OK


def _run_bezout(job: Job):
    field, warning = parse_field(job.field)
    C1 = parse_curve(job.curves[0], field)
    C2 = parse_curve(job.curves[1], field)
    report = _report_skeleton(job, warning)
    try:
        result = bezout_sum(C1, C2, seed=job.seed, prec=job.precision,
                            max_retries=job.max_retries)
    except VerificationFailureError as err:
        report["status"] = "verification-failure"
        report["error"] = str(err)
        return report, EXIT_VERIFICATION
    for rep in result.reports:
        report["results"].append(rep.to_dict())
    report["total"] = result.total
    report["expected_total"] = result.expected
    return report, EXIT_OK


def _run_weierstrass(job: Job):
    field, warning = parse_field(job.field)
    F = parse_poly(job.curves[0], field, AFFINE)
    prec = job.precision or 8
    data = weierstrass_prepare(F, prec)
    report = _report_skeleton(job, warning)
    report["precision"] = prec
    report["results"].append({
        "degree": data.degree,
        "unit": str(data.unit),
        "weierstrass_polynomial": str(data.weierstrass),
    })
    return report, EXIT_OK


def _run_hensel(job: Job):
    field, warning = parse_field(job.field)
    F = parse_poly(job.curves[0], field, ("x", "t"))
    prec = job.precision or 8
    a0 = field.of(Fraction(job.a0 or "0"))
    series = hensel_lift(F, a0, prec)
    report = _report_skeleton(job, warning)
    report["precision"] = prec
    report["results"].append({"root": str(series)})
    return report, EXIT_OK


def _run_corpus(job: Job):
    from .corpus import corpus_manifest
    report = _report_skeleton(job)
    worst = EXIT_OK
    for entry in corpus_manifest():
        sub = Job.from_dict(entry["job"])
        sub.seed = sub.seed or job.seed
        sub.precision = sub.precision or job.precision
        sub.max_retries = job.max_retries  # the manifest sets no budget
        subreport, code = run_job(sub)
        line = {
            "name": entry["name"],
            "status": subreport.get("status", "ok") if code == EXIT_OK
            else subreport.get("status", "error"),
            "exit": code,
        }
        expected = entry.get("expected_mult")
        if expected is not None and code == EXIT_OK:
            got = subreport["results"][0]["mult_length"]
            if got != expected:
                line["status"] = "unexpected-multiplicity"
                line["got"] = got
                line["expected"] = expected
                code = EXIT_VERIFICATION
        line["exit"] = code
        report["results"].append(line)
        if code != EXIT_OK:
            priority = {EXIT_VERIFICATION: 3, EXIT_BUDGET: 2, EXIT_INPUT: 1}
            if worst == EXIT_OK or priority.get(code, 0) > priority.get(worst, 0):
                worst = code
    report["status"] = "ok" if worst == EXIT_OK else "corpus-failure"
    return report, worst


_COMMANDS = {
    "mult": _run_mult,
    "bezout": _run_bezout,
    "weierstrass": _run_weierstrass,
    "hensel": _run_hensel,
    "corpus": _run_corpus,
}


def run_job(job: Job):
    """Execute a job; returns (report dict, exit code)."""
    handler = _COMMANDS.get(job.command)
    if handler is None:
        return {"command": job.command, "status": "unknown-command",
                "error": f"unknown command {job.command!r}"}, EXIT_INPUT
    try:
        arity = ARITY.get(job.command)
        if arity is not None and len(job.curves) != arity:
            raise InvalidInputError(
                f"{job.command} takes {arity} curve"
                f"{'s' if arity > 1 else ''}, got {len(job.curves)}")
        if job.precision is not None and job.precision < 1:
            raise InvalidInputError(f"precision {job.precision} is not "
                                    "positive")
        if job.max_retries < 1:
            raise InvalidInputError(f"max-retries {job.max_retries} is not "
                                    "positive")
        if job.precision is not None and job.precision > MAX_PRECISION:
            raise BudgetError(f"precision {job.precision} exceeds the limit "
                              f"of {MAX_PRECISION}")
        return handler(job)
    except VerificationFailureError as err:
        return {"command": job.command, "status": "verification-failure",
                "error": str(err)}, EXIT_VERIFICATION
    except _BUDGET_ERRORS as err:
        return _failure(job, err, "budget-exhausted"), EXIT_BUDGET
    except _INPUT_ERRORS as err:
        if isinstance(err, NotSimpleRootError) and \
                job.command in ("mult", "bezout"):
            # ``hensel`` lifts a root the user chose; here an engine chose
            # it, and a root that is not simple (as in small characteristic)
            # is a certification failure, not bad input.
            return _failure(job, err, "budget-exhausted"), EXIT_BUDGET
        return _failure(job, err, "input-error"), EXIT_INPUT


def _failure(job: Job, err: Exception, status: str) -> dict:
    return {"command": job.command, "status": status, "error": str(err),
            "error_kind": type(err).__name__}


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    lines = [f"command: {report.get('command')}"]
    if report.get("inputs"):
        lines.append("inputs:  " + " ; ".join(report["inputs"]))
    if report.get("warning"):
        lines.append(f"warning: {report['warning']}")
    for entry in report.get("results", []):
        parts = []
        for key, val in entry.items():
            parts.append(f"{key}={val}")
        lines.append("  " + "  ".join(parts))
    if report.get("total") is not None:
        lines.append(f"total: {report['total']} "
                     f"(expected {report['expected_total']})")
    if report.get("error"):
        lines.append(f"error: {report['error']}")
    lines.append(f"status: {report.get('status')}")
    return "\n".join(lines)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="curveint",
        description="Exact intersection multiplicities of plane curves, "
                    "three independent ways, with a Bezout verifier.")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("curves", nargs="*",
                    help="curve expressions, e.g. 'x^2 - y^3'")
    ap.add_argument("--field", default="Q", help="Q (default) or F<p>")
    ap.add_argument("--point", default=None, help="affine point 'a,b'")
    ap.add_argument("--a0", default=None, help="residual root for hensel")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--precision", type=int, default=None)
    ap.add_argument("--max-retries", type=int, default=8)
    ap.add_argument("--format", dest="fmt", choices=("text", "json"),
                    default="text")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    job = Job(command=args.command, curves=tuple(args.curves),
              field=args.field, point=args.point, seed=args.seed,
              precision=args.precision, fmt=args.fmt, a0=args.a0,
              max_retries=args.max_retries)
    try:
        report, code = run_job(job)
    except CurveIntError as err:  # safety net; run_job maps known kinds
        report, code = {"command": job.command, "status": "error",
                        "error": str(err)}, EXIT_INPUT
    print(render_report(report, job.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())

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

import re
import sys
from fractions import Fraction
from operator import add

from .algebra import homogenize, is_homogeneous
from .errors import (BudgetError, CurveIntError, DegreeMixError,
                     GeneralPositionError, GenericityFailureError,
                     InsufficientPrecisionError, InvalidInputError,
                     NotSimpleRootError, ParseError, VerificationFailureError)
from .fields import QQ, PrimeField, binary_power
from .intersect import Curve, ProjectivePoint, bezout_sum, multiplicities_at
from .lifting import hensel_lift, weierstrass_prepare
from .poly import MultiPoly, _poly

AFFINE = ("x", "y")
PROJECTIVE = ("X", "Y", "Z")

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# Input bounds: a larger exponent, total degree, nesting depth or integer
# literal (past Python's int() digit limit, in a curve, --point or --a0) is
# refused while parsing, and a larger --precision or field characteristic
# before any work (a --precision or --max-retries below 1 is bad input).
MAX_DEGREE = 64
MAX_NESTING = 64
MAX_PRECISION = 256
MAX_PRIME = 2**31 - 1

# The number of curves each command takes (``corpus`` takes none and
# ignores any given).
ARITY = {"mult": 2, "bezout": 2, "weierstrass": 1, "hensel": 1}

# run_job maps these (and an engine's NotSimpleRootError) to exit 3, and
# every other CurveIntError to exit 2.
_BUDGET_ERRORS = (GenericityFailureError, InsufficientPrecisionError,
                  GeneralPositionError, BudgetError)


# ------------------------------------------------------------------ parse

def _to_int(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # the digits are decimal: only the limit is left
        raise BudgetError(f"{what} has {len(digits)} digits, past the limit "
                          f"of {sys.get_int_max_str_digits()}") from None


# The tokens of a curve text: a run of decimal digits, or any other
# character but whitespace.
_TOKEN = re.compile(r"\d+|\S")


class _Lexer:
    """The text read once into tokens, each with its position, whitespace
    skipped; ``peek`` and ``take`` give (first character, position), and
    (None, len(text)) past the last token."""

    def __init__(self, text: str):
        found = list(_TOKEN.finditer(text))
        self.runs = [m[0] for m in found]
        self.heads = [(m[0][0], m.start()) for m in found]
        self.heads.append((None, len(text)))
        self.k = 0

    def peek(self):
        return self.heads[self.k]

    def take(self):
        head = self.heads[self.k]
        if head[0] is not None:
            self.k += 1
        return head

    def take_int(self):
        ch, pos = self.take()
        if ch is None or not ch.isdecimal():
            raise ParseError("expected an integer", pos)
        return _to_int(self.runs[self.k - 1],
                       f"integer at position {pos}"), pos


def parse_poly(text: str, field, variables) -> MultiPoly:
    """Recursive-descent parser for the curve grammar: integer or rational
    literals, the allowed variables, + - * ^ and parentheses.

    A product of literals and variables, and its powers, stays one term
    (coefficient, exponent vector) until it is added into its sum's term
    dict; only parentheses make ``MultiPoly`` products and powers.  Raises
    BudgetError, before expanding, when an exponent or the total degree of
    a product or power would pass MAX_DEGREE, and before recursing, when
    parentheses nest deeper than MAX_NESTING."""
    lx = _Lexer(text)
    varset = tuple(variables)
    depth = 0

    def degree(node):
        if isinstance(node, MultiPoly):
            return node.total_degree()
        c, e = node
        return sum(e) if c else -1

    def poly(node):
        if isinstance(node, MultiPoly):
            return node
        c, e = node
        return _poly(field, varset, {e: c} if c else {})

    def check_degree(degree, pos):
        if degree > MAX_DEGREE:
            raise BudgetError(f"total degree {degree} at position {pos} "
                              f"exceeds the limit of {MAX_DEGREE}")

    def parse_expr():
        terms, zero = {}, field.zero
        ch, _ = lx.peek()
        while True:
            if ch in ("+", "-"):
                lx.take()
            node = parse_term()
            items = (node.terms.items() if isinstance(node, MultiPoly)
                     else [(node[1], node[0])] if node[0] else ())
            for e, c in items:
                s = terms.get(e, zero) + (-c if ch == "-" else c)
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
            ch, _ = lx.peek()
            if ch not in ("+", "-"):
                return _poly(field, varset, terms)

    def parse_term():
        node = parse_factor()
        while True:
            ch, pos = lx.peek()
            if ch != "*":
                return node
            lx.take()
            rhs = parse_factor()
            check_degree(degree(node) + degree(rhs), pos)
            if isinstance(node, MultiPoly) or isinstance(rhs, MultiPoly):
                node = poly(node) * poly(rhs)
            else:
                node = node[0] * rhs[0], tuple(map(add, node[1], rhs[1]))

    def parse_factor():
        node = parse_atom()
        ch, _ = lx.peek()
        if ch == "^":
            lx.take()
            n, pos = lx.take_int()
            if n > MAX_DEGREE:
                raise BudgetError(f"exponent {n} at position {pos} exceeds "
                                  f"the limit of {MAX_DEGREE}")
            check_degree(degree(node) * n, pos)
            if isinstance(node, MultiPoly):
                node = node ** n
            else:
                node = (binary_power(node[0], n) if n else field.one,
                        tuple(k * n for k in node[1]))
        return node

    def parse_atom():
        nonlocal depth
        ch, pos = lx.peek()
        if ch is None:
            raise ParseError("unexpected end of input", pos)
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise BudgetError(f"nesting depth {depth} at position {pos} "
                                  f"exceeds the limit of {MAX_NESTING}")
            lx.take()
            node = parse_expr()
            ch2, pos2 = lx.peek()
            if ch2 != ")":
                raise ParseError("expected ')'", pos2)
            lx.take()
            depth -= 1
            return node
        if ch.isdecimal():
            num, _ = lx.take_int()
            ch2, _ = lx.peek()
            if ch2 == "/":
                lx.take()
                den, dpos = lx.take_int()
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                try:
                    return field.of(Fraction(num, den)), (0,) * len(varset)
                except ZeroDivisionError:  # p divides the denominator
                    raise ParseError(f"denominator {den} is zero in "
                                     f"{field.name}", dpos) from None
            return field.of(num), (0,) * len(varset)
        if ch.isalpha():
            lx.take()
            if ch not in varset:
                raise ParseError(f"unknown variable {ch!r}", pos)
            return field.one, tuple(int(v == ch) for v in varset)
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
    form = parse_poly(text, field, PROJECTIVE if proj else AFFINE)
    if form.is_zero():
        raise InvalidInputError("zero curve")
    if not proj:
        return Curve(homogenize(form, form.total_degree()))
    if not is_homogeneous(form):
        raise DegreeMixError("inhomogeneous input declared homogeneous")
    return Curve(form)


def parse_field(spec: str):
    """Q or F<p>, with a warning for p in (2, 3, 5).  Raises BudgetError,
    before testing primality, when p exceeds MAX_PRIME."""
    spec = spec.strip()
    if spec in ("Q", "QQ", "q"):
        return QQ, None
    if spec and spec[0] in ("F", "f") and spec[1:].isdecimal():
        p = _to_int(spec[1:], "the characteristic")
        if p > MAX_PRIME:
            raise BudgetError(f"characteristic {p} exceeds the limit of "
                              f"{MAX_PRIME}")
        fieldobj = PrimeField(p)
        warning = None
        if p in (2, 3, 5):
            warning = (f"characteristic {p} is outside the default corpus "
                       "(wild ramification risk); results are certified "
                       "per-run or fail loudly")
        return fieldobj, warning
    raise InvalidInputError(f"unknown field spec {spec!r} (use Q or F<p>)")


# An integer, rational or decimal literal, a superset of what Fraction(text)
# accepts: (whole digits, denominator, fraction digits, exponent).
_LITERAL = re.compile(r"[-+]?([\d_]*)(?:\s*/\s*([\d_]*)|(?:\.([\d_]*))?"
                      r"(?:[eE]([-+]?[\d_]*))?)\Z")


def _parse_value(text: str, field, what: str):
    """An integer, rational or decimal literal as an element of field.

    Raises BudgetError, before any number is built, when the numerator or
    denominator the literal spells out (its digits, with the power of ten
    its exponent asks for) would pass Python's int() digit limit."""
    text = text.strip()
    m = _LITERAL.match(text)
    limit = sys.get_int_max_str_digits()
    if m and limit:
        whole, den, dec, exp = ((g or "").replace("_", "") for g in m.groups())
        # a cut exponent is still past the limit, and never a huge int
        mag = int(exp.lstrip("+-").lstrip("0")[:len(str(limit)) + 1] or 0)
        e = -mag if exp.startswith("-") else mag
        for part, digits in (
                ("numerator", len(whole) + len(dec) + max(e, 0)),
                ("denominator", len(den) or 1 + len(dec) + max(-e, 0))):
            if digits > limit:
                raise BudgetError(f"{what} has a {part} past the limit of "
                                  f"{limit} digits")
    try:
        return field.of(Fraction(text))
    except (ValueError, ZeroDivisionError) as err:
        raise InvalidInputError(f"bad {what} {text!r}: {err}") from None


def parse_point(spec: str, field):
    parts = spec.strip().lstrip("(").rstrip(")").split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"point spec {spec!r} is not 'a,b'")
    return tuple(_parse_value(part, field, "coordinate") for part in parts)


# -------------------------------------------------------------------- job

class Job:
    """One command and its flags, as ``main`` parses them; ``fmt`` is
    serialized as "format".  Mutable: the corpus fills in each instance's
    seed, precision and budget."""

    FIELDS = ("command", "curves", "field", "point", "seed", "precision",
              "fmt", "a0", "max_retries")

    def __init__(self, command, curves=(), field="Q", point=None, seed=0,
                 precision=None, fmt="text", a0=None, max_retries=8):
        self.command = command
        self.curves = curves
        self.field = field
        self.point = point
        self.seed = seed
        self.precision = precision
        self.fmt = fmt
        self.a0 = a0
        self.max_retries = max_retries

    def __eq__(self, other):
        if type(other) is not Job:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.FIELDS)

    def to_dict(self):
        d = {name: getattr(self, name) for name in self.FIELDS}
        d["curves"] = list(self.curves)
        d["format"] = d.pop("fmt")
        return d

    @classmethod
    def from_dict(cls, d):
        d = {"fmt" if key == "format" else key: value
             for key, value in d.items()}
        kwargs = {name: d[name] for name in cls.FIELDS if name in d}
        kwargs["curves"] = tuple(kwargs.get("curves", ()))
        return cls(**kwargs)


# Each handler fills the report run_job built and returns an exit code only
# when it is not EXIT_OK.

def _run_mult(job: Job, field, report):
    C1, C2 = (parse_curve(text, field) for text in job.curves)
    a, b = parse_point(job.point or "0,0", field)
    rep = multiplicities_at(C1, C2, ProjectivePoint((a, b, 1), field),
                            seed=job.seed, prec=job.precision,
                            max_retries=job.max_retries)
    entry = rep.to_dict()
    entry["point"] = f"({a},{b})"
    del entry["weight"]
    report["results"].append(entry)
    report["precision"] = str(rep.precision)


def _run_bezout(job: Job, field, report):
    C1, C2 = (parse_curve(text, field) for text in job.curves)
    try:
        result = bezout_sum(C1, C2, seed=job.seed, prec=job.precision,
                            max_retries=job.max_retries)
    except VerificationFailureError as err:
        report["status"] = "verification-failure"
        report["error"] = str(err)
        return EXIT_VERIFICATION
    for rep in result.reports:
        report["results"].append(rep.to_dict())
    report["total"] = result.total
    report["expected_total"] = result.expected


def _run_weierstrass(job: Job, field, report):
    F = parse_poly(job.curves[0], field, AFFINE)
    report["precision"] = prec = job.precision or 8
    data = weierstrass_prepare(F, prec)
    report["results"].append({
        "degree": data.degree,
        "unit": str(data.unit),
        "weierstrass_polynomial": str(data.weierstrass),
    })


def _run_hensel(job: Job, field, report):
    F = parse_poly(job.curves[0], field, ("x", "t"))
    report["precision"] = prec = job.precision or 8
    a0 = _parse_value(job.a0 or "0", field, "a0")
    report["results"].append({"root": str(hensel_lift(F, a0, prec))})


# The corpus exits with its gravest sub-job exit.
_SEVERITY = {EXIT_OK: 0, EXIT_INPUT: 1, EXIT_BUDGET: 2, EXIT_VERIFICATION: 3}


def _run_corpus(job: Job, field, report):
    from .corpus import corpus_manifest
    for entry in corpus_manifest():
        sub = Job.from_dict(entry["job"])
        sub.seed = sub.seed or job.seed
        sub.precision = sub.precision or job.precision
        sub.max_retries = job.max_retries  # the manifest sets no budget
        subreport, code = run_job(sub)
        line = {"name": entry["name"], "status": subreport["status"],
                "exit": code}
        expected = entry.get("expected_mult")
        if expected is not None and code == EXIT_OK:
            got = subreport["results"][0]["mult_length"]
            if got != expected:
                line.update(status="unexpected-multiplicity",
                            exit=EXIT_VERIFICATION, got=got,
                            expected=expected)
        report["results"].append(line)
    worst = max((line["exit"] for line in report["results"]),
                key=_SEVERITY.get, default=EXIT_OK)
    if worst != EXIT_OK:
        report["status"] = "corpus-failure"
    return worst


_COMMANDS = {
    "mult": _run_mult,
    "bezout": _run_bezout,
    "weierstrass": _run_weierstrass,
    "hensel": _run_hensel,
    "corpus": _run_corpus,
}


def run_job(job: Job):
    """Execute a job; returns (report dict, exit code).

    The one input boundary: the job's flags are checked and its field is
    parsed here, once, and every CurveIntError it raises is mapped to an
    exit code here, as is a computed value too long to print (exit 3)."""
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
        # ``corpus`` has never read --field: each instance names its own.
        field, warning = ((None, None) if job.command == "corpus"
                          else parse_field(job.field))
        report = {"command": job.command, "inputs": list(job.curves),
                  "field": job.field, "seed": job.seed,
                  "precision": job.precision, "results": [], "total": None,
                  "expected_total": None, "status": "ok"}
        if warning:
            report["warning"] = warning
        return report, handler(job, field, report) or EXIT_OK
    except VerificationFailureError as err:
        return {"command": job.command, "status": "verification-failure",
                "error": str(err)}, EXIT_VERIFICATION
    except CurveIntError as err:
        # ``hensel`` lifts a root the user chose; for ``mult`` and
        # ``bezout`` an engine chose it, and a root that is not simple (as
        # in small characteristic) is a certification failure, not bad
        # input.
        if isinstance(err, _BUDGET_ERRORS) or (
                isinstance(err, NotSimpleRootError) and
                job.command in ("mult", "bezout")):
            return _failure(job, err, "budget-exhausted"), EXIT_BUDGET
        return _failure(job, err, "input-error"), EXIT_INPUT
    except ValueError as err:
        # str() of a computed int past the interpreter's digit limit
        if "integer string conversion" not in str(err):
            raise
        limit = BudgetError(f"a computed value has more than "
                            f"{sys.get_int_max_str_digits()} digits, past "
                            "the limit for printing")
        return _failure(job, limit, "budget-exhausted"), EXIT_BUDGET


def _failure(job: Job, err: Exception, status: str) -> dict:
    return {"command": job.command, "status": status, "error": str(err),
            "error_kind": type(err).__name__}


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        import json
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
    import argparse
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
    job = Job(**dict(vars(args), curves=tuple(args.curves)))
    report, code = run_job(job)
    print(render_report(report, job.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Golden reports: the ``--format json`` report and exit code of every
corpus job, plus ``mult`` away from the origin and its input errors and the
``weierstrass`` and ``hensel`` commands, must
match the files under ``tests/data/golden`` byte for byte.

Regenerate after an intended change of output with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import json
from pathlib import Path

import pytest

from curveint.cli import Job, render_report, run_job
from curveint.corpus import corpus_manifest

GOLDEN = Path(__file__).parent / "data" / "golden"


def _mult(f, g, point, field="Q"):
    return {"command": "mult", "curves": [f, g], "field": field,
            "point": point, "format": "json"}


def _bezout(f, g, field):
    return {"command": "bezout", "curves": [f, g], "field": field,
            "format": "json"}


def _weierstrass(f, precision=None, field="Q"):
    return {"command": "weierstrass", "curves": [f], "field": field,
            "precision": precision, "format": "json"}


def _hensel(f, a0, precision=None, field="Q"):
    return {"command": "hensel", "curves": [f], "field": field, "a0": a0,
            "precision": precision, "format": "json"}


EXTRA_JOBS = [
    ("mult-conic-line-at-1-1", _mult("x^2+y^2-2", "x-y", "1,1")),
    ("mult-translated-cusp", _mult("(x-1)^2-(y-2)^3", "y-2", "1,2")),
    ("mult-f7-tangent-conics-at-1-1",
     _mult("(x-1)^2-(y-1)", "(x-1)^2-2*(y-1)", "1,1", field="F7")),
    ("mult-off-curve", _mult("x^2-y^3", "y", "2,3")),
    ("mult-shared-component-through-point", _mult("x*y", "x*(x+y)", "0,0")),
    ("mult-shared-component-elsewhere",
     _mult("(x+1)*y", "(x+1)*x", "0,0")),
    ("mult-bad-point-spec", _mult("x", "y", "1")),
    # Frobenius orbits no corpus job covers: a degree-2 orbit at infinity
    # with multiplicity 2, and a degree-3 affine orbit
    ("f7-concentric-conics", _bezout("x^2+y^2-1", "x^2+y^2-2", "F7")),
    ("f7-cube-root-orbit", _bezout("x^3-2", "y-x", "F7")),
    # points at infinity when one curve is the line Z = 0: an irrational
    # pair over Q, a degree-2 orbit over F7; and [1:0:0] on a conic and a
    # line pair that contains Z = 0
    ("conic-vs-infinity-line", _bezout("X^2 - 2*Y^2", "Z", "Q")),
    ("f7-conic-vs-infinity-line", _bezout("X^2 - 3*Y^2", "Z", "F7")),
    ("conic-vs-line-pair", _bezout("Y^2 + X*Z", "Y*Z", "Q")),
    # dense conic/cubic pairs over F_p whose affine points form Frobenius
    # orbits of degree 3 (two over F7, one over F101 beside three rational
    # points) and 6 (over F32003), each fiber read off by _fiber_x
    ("f7-dense-conic-vs-cubic", _bezout(
        "-5*X^2 - 2*X*Y - 2*X*Z + 5*Y^2 + 2*Y*Z - 3*Z^2",
        "-4*X^3 + 3*X^2*Y - 3*X^2*Z - 2*X*Y^2 - 3*X*Y*Z - 4*X*Z^2 + 2*Y^3"
        " + 2*Y^2*Z + 4*Y*Z^2 - Z^3", "F7")),
    ("f32003-dense-conic-vs-cubic", _bezout(
        "-2*X^2 + 2*X*Y - 4*X*Z - Y^2 + 4*Y*Z - 4*Z^2",
        "-4*X^3 - 5*X^2*Y - 5*X^2*Z - X*Y^2 + X*Y*Z + 3*X*Z^2 + 3*Y^3"
        " - 3*Y^2*Z - 4*Y*Z^2 + 4*Z^3", "F32003")),
    ("f101-dense-conic-vs-cubic", _bezout(
        "2*X^2 - 4*X*Y - 4*X*Z + Y^2 + 5*Y*Z + 3*Z^2",
        "-4*X^3 - X^2*Y - 2*X^2*Z + 5*X*Y^2 + 4*X*Y*Z + 3*X*Z^2 + Y^3"
        " - Y^2*Z - 3*Y*Z^2 + 4*Z^3", "F101")),
    # one attempt on the roadmap pair: the witnesses certify it off the
    # attempt's separable eliminant
    ("mult-roadmap-pair-one-attempt",
     dict(_mult("x^4-y^5", "x^3-y^2+x*y", "0,0"), max_retries=1)),
    # pair A of ROADMAP.md: one orbit of 12 points over a degree-12 field,
    # certified by count-only off the frame's eliminant, proved separable
    # over Q
    ("pair-a-degree-12-orbit", _bezout(
        "3*X^3 + 4*X^2*Y + 2*X^2*Z + 2*X*Y^2 + 2*X*Y*Z + 2*X*Z^2 - 4*Y^3"
        " + 3*Y^2*Z + 2*Y*Z^2 - 5*Z^3",
        "-2*X^4 - 4*X^3*Y - 2*X^3*Z + 3*X^2*Y^2 - 3*X^2*Y*Z - 4*X^2*Z^2"
        " + X*Y^3 + 5*X*Y^2*Z - 5*X*Y*Z^2 - 4*X*Z^3 - 5*Y^4 + 5*Y^3*Z"
        " - 3*Y^2*Z^2 + 4*Y*Z^3 - 4*Z^4", "Q")),
    # the lifting layer's own commands
    ("weierstrass-unit-times-x", _weierstrass("x^2 + x^3 + y", 6)),
    ("weierstrass-f7-degree-two",
     _weierstrass("3*x^2 + x^3 + x*y - 2*y^2", 5, field="F7")),
    ("weierstrass-not-regular", _weierstrass("y")),
    ("hensel-square-root", _hensel("x^2 - (1 + t)", "1", 3)),
    ("hensel-f101-cubic", _hensel("x^3 - x - t", "0", field="F101")),
    ("hensel-not-simple", _hensel("x^2 - t", "0")),
]


def golden_jobs():
    jobs = [(entry["name"], entry["job"]) for entry in corpus_manifest()]
    return jobs + EXTRA_JOBS


def _render(job_dict):
    report, code = run_job(Job.from_dict(job_dict))
    return render_report(report, "json") + "\n", code


@pytest.mark.parametrize("name,job", golden_jobs(),
                         ids=[name for name, _ in golden_jobs()])
def test_report_matches_golden(name, job):
    text, code = _render(job)
    exits = json.loads((GOLDEN / "exits.json").read_text())
    assert code == exits[name]
    assert text == (GOLDEN / f"{name}.json").read_text()


def write_golden():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    exits = {}
    for name, job in golden_jobs():
        text, exits[name] = _render(job)
        (GOLDEN / f"{name}.json").write_text(text)
    (GOLDEN / "exits.json").write_text(
        json.dumps(exits, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    write_golden()

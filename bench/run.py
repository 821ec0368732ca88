"""Benchmark of curveint: time to a certified verdict on four workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 24 --trace 0

One process runs the workload's job list as a closed loop, one job at a
time, through the public API (``cli.run_job`` and the two identities in
``infinitesimal``), and checks every verdict against expected values that
do not come from curveint.  It repeats the list as many times as fit in
``--seconds`` at the list's usual pace (``workloads.PASS_S``), at least
once.  Times are reported at reference
speed (see refspeed.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see tracer.py) with ``trace.overhead``, their wall time over the
untraced one.  Either way the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every verdict is correct, 1 on any wrong verdict, 2
when the library sources are missing or the arguments are bad.
"""

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import refspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Fresh processes timed for setup_s; the median is reported.
SETUP_RUNS = 5

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import curveint.cli
from curveint.algebra import factor_univariate
from curveint.cli import parse_poly
from curveint.fields import QQ
factor_univariate(parse_poly("x^4 - 10*x^2 + 1", QQ, ("x",)), "x")
took = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import refspeed
print(took * refspeed.scale([refspeed.sample() for _ in range(9)]))
"""


def measure_setup():
    """Seconds a fresh interpreter takes to import curveint and make its
    first sympy factorization (sympy is imported lazily by it)."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


# ------------------------------------------------------------------ jobs

def execute(job, lib):
    """Run one job through the public API and judge its verdict.

    Returns (outcome, verdict text): outcome is ``decided``, ``budget``
    (exit 3, an honest refusal) or ``wrong``; the verdict text is what the
    program answered, byte for byte."""
    cli, infinitesimal, errors = lib
    kind = job["kind"]
    try:
        if kind in ("mult", "bezout"):
            report, code = cli.run_job(cli.Job(
                command=kind, curves=tuple(job["curves"]),
                field=job["field"], point="0,0" if kind == "mult" else None,
                fmt="json"))
            verdict = json.dumps({"exit": code, "report": report},
                                 sort_keys=True)
            if code == cli.EXIT_BUDGET:
                return "budget", verdict
            ok = code == cli.EXIT_OK and check_report(job, report)
        else:
            field, _ = cli.parse_field(job["field"])
            f, g = (cli.parse_curve(text, field).affine("Z")
                    for text in job["curves"])
            check = (infinitesimal.staged_specialization_check
                     if kind == "staged"
                     else infinitesimal.left_right_factoring_check)
            try:
                value = check(f, g, seed=workloads.TWO_SCALE_SEED)
            except (errors.GenericityFailureError,
                    errors.InsufficientPrecisionError,
                    errors.GeneralPositionError, errors.BudgetError) as err:
                return "budget", f"{type(err).__name__}: {err}"
            verdict = json.dumps({"holds": value})
            ok = value is job["expected"]
    except Exception as err:  # a crash is a wrong verdict, not a bench bug
        return "wrong", f"{type(err).__name__}: {err}"
    return ("decided" if ok else "wrong"), verdict


def check_report(job, report):
    """The report agrees with the job's independent expected value."""
    lines = report["results"]
    if not lines or any(not (line["mult_length"] == line["mult_resultant"]
                             == line["mult_deformation"] >= 1)
                        for line in lines):
        return False
    if job["kind"] == "mult":
        return lines[0]["mult_length"] == job["expected"]
    # Each line weighs its multiplicity times the points it stands for.
    if any(line["weight"] % line["mult_length"] for line in lines):
        return False
    total = sum(line["weight"] for line in lines)
    return (total == report["total"] == report["expected_total"]
            == job["expected"])


def _alarm(signum, frame):
    raise tracer.JobTimeout()


@dataclass
class Row:
    job: dict
    outcome: str        # decided, budget, wrong or timeout
    seconds: float      # measured
    scale: float        # measured seconds -> seconds at reference speed,
                        # the same for every job of a pass
    verdict: str
    record: dict        # the job's trace; None untraced or when stopped

    @property
    def ref_seconds(self):
        """The job's time at reference speed.  A stopped job ran for the
        limit in wall seconds, whatever the machine's speed."""
        return self.seconds if self.outcome == "timeout" \
            else self.seconds * self.scale


def run_pass(jobs, limit, lib, trace=None):
    """One pass over ``jobs``, each under the per-instance ``limit``, with
    the reference kernel timed after every job; the mean kernel time of
    the pass scales its jobs."""
    rows, kernel = [], []
    for job in jobs:
        if trace:
            trace.begin_job()
        began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            outcome, verdict = execute(job, lib)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except tracer.JobTimeout:
            outcome, verdict = "timeout", None
        took = time.perf_counter() - began
        record = trace.end_job() if trace and outcome != "timeout" else None
        rows.append(Row(job, outcome, took, None, verdict, record))
        kernel += refspeed.measure()
    for row in rows:
        row.scale = refspeed.scale(kernel)
    return rows


# --------------------------------------------------------------- metrics

def tail(samples):
    """(value, percentile, n): the highest percentile of ``samples`` with
    at least 10 samples beyond it, or the maximum when there are 10 or
    fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def list_wall(passes):
    """Seconds to finish the job list once: the sum over its jobs of each
    job's median time across ``passes``, so that a slow spell of the
    machine during one pass does not count as the program's time."""
    return sum(statistics.median(rows[i].ref_seconds for rows in passes)
               for i in range(len(passes[0])))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "curveint" / "__init__.py").is_file():
        print(f"bench: no curveint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_RUNS)]

    import curveint.cli
    import curveint.errors
    import curveint.infinitesimal
    lib = (curveint.cli, curveint.infinitesimal, curveint.errors)
    # Pay sympy's lazy import before the clock starts.
    curveint.cli.run_job(curveint.cli.Job(
        command="bezout", curves=("x^2 - 2", "y"), fmt="json"))

    jobs = workloads.build(args.workload, args.seed)
    limit = workloads.LIMITS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)

    # A fixed number of passes, so that every run of a workload makes the
    # same number of samples whatever the program's or the machine's speed.
    # Under --trace 1 the passes alternate untraced / traced.
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    rounds = max(1, int(args.seconds
                        // (workloads.PASS_S[args.workload] * len(kinds))))
    trace = tracer.Tracer()
    passes = {kind: [] for kind in kinds}
    for _ in range(rounds):
        passes["plain"].append(run_pass(jobs, limit, lib))
        if args.trace:
            trace.install()
            try:
                passes["traced"].append(run_pass(jobs, limit, lib, trace))
            finally:
                trace.uninstall()

    every = [rows for kind in kinds for rows in passes[kind]]
    counts = {"decided": 0, "budget": 0, "wrong": 0, "timeout": 0}
    for row in (row for rows in every for row in rows):
        counts[row.outcome] += 1
        if row.outcome in ("wrong", "budget"):
            print(f"bench: {row.outcome}: {row.job['name']}: {row.verdict}",
                  file=sys.stderr)
    timed_out = Counter(row.job["name"] for rows in every for row in rows
                        if row.outcome == "timeout")
    # The library promises byte-identical reports for the same job, and
    # tracing must not change a single verdict.
    for i, job in enumerate(jobs):
        if len({rows[i].verdict for rows in every
                if rows[i].outcome != "timeout"}) > 1:
            print(f"bench: the verdict on {job['name']} changed between "
                  "passes", file=sys.stderr)
            counts["wrong"] += 1

    attempted = sum(len(rows) for rows in every)
    if args.trace:
        per_pass = [tracer.layer_metrics(
            [(row.record, row.scale) for row in rows
             if row.record is not None]) for rows in passes["traced"]]
        metrics = {name: metric(statistics.median(m[name][0]
                                                  for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        metrics["trace.overhead"] = metric(
            list_wall(passes["traced"]) / list_wall(passes["plain"]),
            "ratio")
    else:
        times = [row.ref_seconds for rows in every for row in rows]
        tail_s, tail_pct, n = tail(times)
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(list_wall(passes["plain"]), "s"),
            "job_s.p50": metric(statistics.median(times), "s"),
            "job_s.tail": metric(tail_s, "s"),
            "decided_frac": metric(counts["decided"] / attempted, "ratio"),
            "peak_rss_mb": metric(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"bench: {args.workload} seed={args.seed} "
              f"passes={len(every)} limit={limit:g}s "
              f"slowdown={[round(1 / rows[0].scale, 3) for rows in every]}  "
              + "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                          for k, v in metrics.items())
              + f"  job_s.tail is p{tail_pct:.1f} of n={n}"
              f"  wrong_verdicts={counts['wrong']} count"
              f"  timeouts={counts['timeout']} count"
              f"  budget_exits={counts['budget']} count")
    if timed_out:
        print(f"bench: stopped at the {limit:g} s limit: "
              + "; ".join(f"{name} (x{k})" for name, k in timed_out.items()))
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": attempted,
        "failed": counts["wrong"] + counts["budget"],
        "metrics": metrics,
    }))
    return 0 if counts["wrong"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

Checks, and exits nonzero unless all hold:

1. the wrapping is complete: once the tracer is installed, no ``curveint``
   module and no traced class still holds an original function, and once
   it is removed every binding holds its original again;
2. tracing changes no result: the first jobs of every workload give
   byte-identical verdict JSON untraced and traced;
3. counts repeat exactly: every ``.calls`` and ``.failures`` count of a
   traced ``corpus`` and ``stress`` run is identical across two runs and
   across two ``PYTHONHASHSEED`` values.

It takes about three minutes on a 2-core machine.
"""

import json
import os
import signal
import subprocess
import sys

import run
import tracer
import workloads

# Jobs per workload compared untraced against traced.
SAMPLE = 8


def check_wrapping():
    import curveint.cli  # noqa: F401  (loads every traced module)
    import curveint.infinitesimal  # noqa: F401
    trace = tracer.Tracer()
    trace.install()
    originals = list(trace.originals)
    patched = {(id(owner), attr) for owner, attr in trace.patched}
    try:
        left = tracer.unwrapped_bindings(originals)
        assert not left, f"still unwrapped: {left}"
    finally:
        trace.uninstall()
    restored = {(id(owner), attr)
                for owner, attr in tracer.unwrapped_bindings(originals)}
    assert restored == patched, "uninstall left a wrapper behind"
    print(f"selftest: all {len(patched)} bindings of {len(originals)} "
          f"traced functions wrapped, and restored by uninstall")


def check_verdicts():
    import curveint.cli
    import curveint.errors
    import curveint.infinitesimal
    lib = (curveint.cli, curveint.infinitesimal, curveint.errors)
    signal.signal(signal.SIGALRM, run._alarm)
    trace = tracer.Tracer()
    compared = 0
    for name in workloads.BUILDERS:
        jobs = workloads.build(name, 1)[:SAMPLE]
        limit = workloads.LIMITS[name]
        plain = run.run_pass(jobs, limit, lib)
        trace.install()
        try:
            traced = run.run_pass(jobs, limit, lib, trace)
        finally:
            trace.uninstall()
        for a, b in zip(plain, traced):
            if "timeout" in (a.outcome, b.outcome):
                continue
            assert a.outcome == "decided", (a.job["name"], a.verdict)
            assert a.verdict == b.verdict, f"tracing changed {a.job['name']}"
            compared += 1
    print(f"selftest: {compared} verdicts byte-identical traced and untraced")


def traced_counts(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=600, check=True)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith((".calls", ".failures"))}


def check_counts():
    for workload, hash_seeds in (("corpus", (0, 0, 12345)),
                                 ("stress", (1, 7))):
        runs = [traced_counts(workload, h) for h in hash_seeds]
        for other, h in zip(runs[1:], hash_seeds[1:]):
            diff = {k: (runs[0][k], other[k]) for k in runs[0]
                    if runs[0][k] != other[k]}
            assert not diff, f"{workload} counts moved with hash seed {h}: "\
                             f"{diff}"
        print(f"selftest: {len(runs[0])} counts of {workload} identical "
              f"across PYTHONHASHSEED {hash_seeds}")


def main():
    if not (run.SRC / "curveint" / "__init__.py").is_file():
        print(f"selftest: no curveint sources under {run.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    check_wrapping()
    check_verdicts()
    check_counts()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

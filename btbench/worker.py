"""One pass process: a cold pass, then a warm pass over the same cases.

Run by ``run.py`` in a fresh interpreter, so every ``lru_cache`` starts
empty for the cold pass, as it does for a ``btlab`` command.  The warm
pass repeats the case list right after, in the same process.  The
worker prints one JSON object on stdout:

* ``ready_ns``: CLOCK_MONOTONIC when ``btlab.cli`` was imported and
  ready for the first case; the parent subtracts its spawn time;
* ``cold_s`` / ``warm_s``: wall seconds of each pass, cases only;
* ``rss_mb``: this process's peak resident set after both passes;
* ``cases``: per case its digest, times and failure reason, if any;
* ``env``: interpreter, kernel and switches, read from the program;
* ``counters`` / ``times`` when traced; ``times`` includes
  ``trace_overhead_s``, the wrappers' cost during the cold pass.

Usage: worker.py --workload NAME --seed N [--size full|tiny] [--trace]
       [--spans PATH]
       worker.py --probe          (import, report ready_ns, exit)
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import btlab.cli  # noqa: E402  (the import is what setup_s measures)

READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


CASE_TIMEOUT_S = 60.0


class CaseTimeout(BaseException):
    """Raised in the main thread when a case overruns its time limit."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def run_case(main, argv, timeout: float):
    """Run one command with stdout captured.

    Returns (exit code or None, stdout bytes, seconds, failure reason or
    None).  A case that raises, or runs past ``timeout`` seconds, fails
    instead of stopping the pass.
    """
    out = io.StringIO()
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = perf_counter()
    code, reason = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except CaseTimeout:
        reason = f"timed out after {timeout:g} s"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failing case is counted, never fatal
        reason = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    if reason is None and code != 0:
        reason = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return code, out.getvalue().encode(), elapsed, reason


def run_pass(main, cases, tracer=None, label=""):
    """Run every case in order; returns (wall seconds, per-case results)."""
    results = []
    start = perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.case = f"{label}:{case.cid}"
        results.append(run_case(main, case.argv, CASE_TIMEOUT_S))
    return perf_counter() - start, results


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "kernel": getattr(btlab.polynomials, "KERNEL_NAME", None),
        "BTLAB_PURE_PYTHON": os.environ.get("BTLAB_PURE_PYTHON"),
        "btlab_file": os.path.relpath(btlab.__file__, ROOT),
    }


def gate(cases, cold, warm, pinned):
    """Per case: digest, and failure reasons for the cold and warm runs."""
    out = []
    for case, (code, text, cold_s, reason), (wcode, wtext, warm_s, wreason) in zip(
        cases, cold, warm
    ):
        dig = checks.digest(code, text)
        want = pinned.get(checks.case_hash(case.key()))
        if reason is None and want is not None:
            # pin.py pins only outputs that passed the independent check
            if want != dig:
                reason = "output differs from the pinned digest"
        elif reason is None:
            reason = checks.independent_check(case, text.decode())
        if wreason is None and checks.digest(wcode, wtext) != dig:
            wreason = "warm output differs from cold output"
        out.append({
            "cid": case.cid, "digest": dig, "pinned": want is not None,
            "cold_s": cold_s, "warm_s": warm_s, "cold_failure": reason,
            "warm_failure": wreason,
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if not os.path.abspath(btlab.__file__).startswith(SRC + os.sep):
        print(f"error: imported btlab from {btlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"ready_ns": READY_NS}))
        return 0
    cases = workloads.build_cases(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    main_fn = btlab.cli.main
    cold_s, cold = run_pass(main_fn, cases, tracer, "cold")
    if tracer is not None:
        cold_own_ns, cold_calls = tracer.own_ns, tracer.total_calls()
    warm_s, warm = run_pass(main_fn, cases, tracer, "warm")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {
        "ready_ns": READY_NS,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "rss_mb": rss_mb,
        "output_bytes": sum(len(r[1]) for r in cold + warm),
        "env": environment(),
    }
    if tracer is not None:
        doc["counters"] = tracer.counters()
        doc["counters"]["main.output_bytes"] = doc["output_bytes"]
        doc["times"] = tracer.times()
        entry_ns = tracing.entry_cost_ns()
        doc["times"]["trace_overhead_s"] = (cold_own_ns + cold_calls * entry_ns) / 1e9
        if args.spans:
            tracer.write_spans(args.spans)
    doc["cases"] = gate(cases, cold, warm, checks.load_pinned())
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

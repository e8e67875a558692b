"""Print every metric of every workload; write or compare result files.

    python3 btbench/summary.py                      # print everything
    python3 btbench/summary.py --out results.json   # ... and keep the numbers
    python3 btbench/summary.py --runs 5 --baseline  # rewrite BASELINE.md/.json
    python3 btbench/summary.py --compare A.json B.json

For each workload this makes ``--runs`` untraced runs on consecutive
seeds (the end-to-end metrics, each with its unit, quartiles, pass count
and error rate) and one traced run (the per-layer metrics and the
tracing overhead).  Several runs spread the measurement over several
minutes, so one fast or slow spell of a shared machine moves it less.
``--compare`` refuses two result files whose polynomial kernel differs,
because the kernel alone moves the Witt timings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run as bench
import tracer
import workloads

HERE = Path(__file__).resolve().parent
BASELINE_MD = HERE / "BASELINE.md"
BASELINE_JSON = HERE / "baseline.json"
E2E_KEYS = {"wall_s": "cold_s", "warm_wall_s": "warm_s", "peak_rss_mb": "rss_mb"}


def _quartiles(values):
    return [round(v, 6) for v in bench.quartiles(values)] if values else None


def measure(seed: int, seconds: float, runs: int) -> dict:
    """Per workload: ``runs`` untraced runs on seeds seed, seed+1, ...,
    whose end-to-end metrics are the medians of the runs' medians, and
    one traced run on ``seed``."""
    out = {"seed": seed, "runs": runs, "seconds": seconds, "env": None, "workloads": {}}
    for workload in workloads.WORKLOADS:
        plains = [bench.execute(workload, seed + i, seconds, trace=False) for i in range(runs)]
        traced = bench.execute(workload, seed, seconds, trace=True)
        out["env"] = out["env"] or bench.environment(plains[0].env or traced.env or {})
        layers = bench.per_layer(traced)  # counts a counter mismatch as a failure
        everything = plains + [traced]
        attempted = sum(r.attempted for r in everything)
        failed = sum(r.failed for r in everything)
        passes = [p for r in plains for p in r.passes]
        quart = {name: _quartiles([p[key] for p in passes]) for name, key in E2E_KEYS.items()}
        quart["setup_s"] = _quartiles([t for r in plains for t in r.setup])
        per_run = [bench.end_to_end(r) for r in plains]
        totals = {}
        if traced.traced:
            for name in ("invariant_report", "a_n", "cmd_invariants", "main"):
                totals[name] = statistics.median(
                    d["times"][f"{name}.total_s"] for d in traced.traced)
        out["workloads"][workload] = {
            "end_to_end": {name: statistics.median(e[name] for e in per_run)
                           for name in bench.END_TO_END},
            "quartiles": quart,
            "passes": len(passes),
            "traced_passes": len(traced.traced),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "failures": [msg for r in everything for msg in r.problems + r.failures][:20],
            "per_layer": layers,
            "inclusive_s": totals,
        }
    return out


def render(res: dict) -> str:
    runs = res["runs"]
    seeds = f"seeds {res['seed']}-{res['seed'] + runs - 1}" if runs > 1 else f"seed {res['seed']}"
    lines = [f"{seeds}, {runs} untraced run(s) and 1 traced run per workload, "
             f"{res['seconds']:g} s per run, env " + json.dumps(res["env"], sort_keys=True), ""]
    units = dict(bench.END_TO_END, error_rate="ratio")
    head = f"{'workload':10s} {'metric':12s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
    lines += ["End to end (untraced): median over runs of each run's median;"
              " q1 and q3 over all passes", head]
    for workload, w in res["workloads"].items():
        for name, unit in units.items():
            if name == "error_rate":
                lines.append(f"{workload:10s} {name:12s} {unit:6s} {w['error_rate']:10.4f}"
                             f"   ({w['failed']}/{w['attempted']} case runs)")
                continue
            q = w["quartiles"][name] or [0.0, 0.0, 0.0]
            lines.append(f"{workload:10s} {name:12s} {unit:6s} {w['end_to_end'][name]:10.4f}"
                         f" {q[0]:10.4f} {q[2]:10.4f}")
        lines.append(f"{workload:10s} passes {w['passes']}, traced passes {w['traced_passes']}")
        lines.extend(f"{workload:10s} FAIL {msg}" for msg in w["failures"])
    units = tracer.metric_units()
    lines += ["", "Per layer (traced run; values per pass process: cold + warm pass)"]
    lines.append(f"{'metric':36s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in res["workloads"]))
    for name, unit in units.items():
        vals = [w["per_layer"][name] for w in res["workloads"].values()]
        cells = " ".join(f"{v:14.6f}" if isinstance(v, float) else f"{v:14d}"
                         for v in vals)
        lines.append(f"{name:36s} {unit:6s} {cells}")
    report = res["workloads"].get("report", {}).get("inclusive_s")
    if report:
        total = report["main"]
        lines += ["", "Split of the report workload (inclusive seconds, traced, per pass process)"]
        for name, label in (
            ("main", "btlab.cli.main, all cases"),
            ("cmd_invariants", "cmd_invariants (invariants command)"),
            ("invariant_report", "  invariant_report (orbits, scan, tables)"),
            ("a_n", "  a_n, called per level while rendering"),
        ):
            lines.append(f"{label:44s} {report[name]:9.4f} s  {report[name] / total:6.1%}")
        inv = res["workloads"]["report"]["per_layer"]
        lines.append(f"{'  cmd_invariants self (render + json.dumps)':44s} "
                     f"{inv['cmd_invariants.self_s']:9.4f} s  "
                     f"{inv['cmd_invariants.self_s'] / total:6.1%}")
    return "\n".join(lines) + "\n"


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if old["env"].get("kernel") != new["env"].get("kernel"):
        print(f"refusing to compare: kernel {old['env'].get('kernel')!r} vs "
              f"{new['env'].get('kernel')!r}", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':10s} {'metric':12s} {'old':>10s} {'new':>10s} {'change':>8s} {'bound':>6s}")
    worse = 0
    for workload, w in new["workloads"].items():
        for name, bound in bounds.items():
            a = old["workloads"][workload]["end_to_end"][name]
            b = w["end_to_end"][name]
            change = (b - a) / a if a else 0.0
            flag = "WORSE" if change > bound else ""
            worse += bool(flag)
            print(f"{workload:10s} {name:12s} {a:10.4f} {b:10.4f} {change:+8.1%} "
                  f"{bound:6.2f} {flag}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, on consecutive seeds")
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--baseline", action="store_true",
                        help="write BASELINE.md and baseline.json next to this script")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    res = measure(args.seed, args.seconds, args.runs)
    text = render(res)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(json.dumps(res, indent=1) + "\n")
    if args.baseline:
        BASELINE_JSON.write_text(json.dumps(res, indent=1) + "\n")
        BASELINE_MD.write_text(
            "# Baseline\n\nWritten by `python3 btbench/summary.py --baseline "
            f"--seed {args.seed} --runs {args.runs} --seconds {args.seconds:g}`; "
            "the same numbers are in `baseline.json`.\n\n```text\n" + text + "```\n")
    return 0 if all(w["failed"] == 0 for w in res["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

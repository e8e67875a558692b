"""btlab benchmark: cold and warm CLI passes, with an optional layer trace.

    python3 btbench/run.py --workload report --seed 1 --seconds 30 --trace 0

Each pass spawns a fresh interpreter (``worker.py``) that imports
``btlab.cli`` from ``src/``, runs the workload's case list once cold and
once warm, and checks every output.  Passes run one after another (a
closed loop with one client) until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics: the medians over passes of
``wall_s`` (cold pass), ``warm_wall_s`` (warm pass), ``setup_s`` (spawn
to ``btlab.cli`` ready, also sampled by import-only probes) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of ``tracer.py`` plus the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "warm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBES_PER_PASS = 2
MIN_PASSES = 3
MIN_TRACE_PASSES = 4  # two traced, two untraced: counters must repeat
WARMUP_S = 1.5
RUN_LIMIT_S = 170  # every run must exit within 180 s
SPAN_DIR = ROOT / ".bench_out"

def environment(worker_env: dict) -> dict:
    """What a result depends on besides the workload and seed."""
    env = dict(worker_env)
    env["nproc"] = len(os.sched_getaffinity(0))
    env["git_sha"] = _git_sha()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "btlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _spawn(args: list[str], timeout: float) -> tuple[dict | None, float, str]:
    """Run worker.py; returns (its JSON or None, setup seconds, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    # Users import from bytecode caches; let the first spawn write them.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, 0.0, f"worker killed after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, 0.0, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc, (doc["ready_ns"] - spawn_ns) / 1e9, ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Run:
    """Accumulates the passes of one run of one workload."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.n_cases = len(workloads.build_cases(workload, seed, size))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.passes: list[dict] = []  # clean untraced passes
        self.traced: list[dict] = []  # clean traced passes
        self.digests: dict[str, str] = {}
        self.env: dict | None = None
        self.failures: list[str] = []

    def probe(self, deadline: float) -> None:
        doc, setup_s, error = _spawn(["--probe"], deadline - time.monotonic())
        if doc is None:
            self.problems.append(f"setup probe failed: {error}")
        else:
            self.setup.append(setup_s)

    def one_pass(self, deadline: float, trace: bool) -> float:
        args = ["--workload", self.workload, "--seed", str(self.seed), "--size", self.size]
        if trace:
            args.append("--trace")
            if not self.traced:
                SPAN_DIR.mkdir(exist_ok=True)
                args += ["--spans", str(SPAN_DIR / f"spans-{self.workload}.jsonl")]
        start = time.monotonic()
        doc, setup_s, error = _spawn(args, deadline - start)
        self.attempted += 2 * self.n_cases
        if doc is None:
            self.failed += 2 * self.n_cases
            self.problems.append(error)
            return time.monotonic() - start
        self.setup.append(setup_s)
        self.env = self.env or doc["env"]
        bad = 0
        for case in doc["cases"]:
            for phase in ("cold", "warm"):
                reason = case[f"{phase}_failure"]
                if reason:
                    bad += 1
                    self.failures.append(f"{phase} {case['cid']}: {reason}")
            seen = self.digests.setdefault(case["cid"], case["digest"])
            if seen != case["digest"]:
                bad += 1
                self.failures.append(f"{case['cid']}: output differs between passes"
                                     f"{' (traced vs untraced)' if trace else ''}")
        self.failed += bad
        if bad == 0:
            (self.traced if trace else self.passes).append(doc)
        return time.monotonic() - start

    def pinned_share(self) -> str:
        last = (self.passes or self.traced)
        if not last:
            return "0/0"
        cases = last[-1]["cases"]
        return f"{sum(c['pinned'] for c in cases)}/{len(cases)}"


def execute(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Run:
    """Spend ``seconds`` on passes of one workload (at least MIN_PASSES)."""
    run = Run(workload, seed, size)
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    # After an idle spell this machine's CPUs run up to 25 % faster for a
    # second or two; spin that off so the first pass is not flattered.
    while time.monotonic() - t0 < WARMUP_S:
        pass
    durations: list[float] = []
    k = 0
    while True:
        elapsed = time.monotonic() - t0
        typical = statistics.median(durations) if durations else 0.0
        done = k >= (MIN_TRACE_PASSES if trace else MIN_PASSES)
        if done and elapsed + typical > seconds:
            break
        if elapsed + typical > RUN_LIMIT_S - 5 or run.problems:
            break
        # under --trace 1, traced and untraced passes alternate
        durations.append(run.one_pass(deadline, trace and k % 2 == 0))
        for _ in range(PROBES_PER_PASS):
            run.probe(deadline)
        k += 1
    return run


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    passes = run.passes
    return {
        "wall_s": _median([p["cold_s"] for p in passes]),
        "warm_wall_s": _median([p["warm_s"] for p in passes]),
        "setup_s": _median(run.setup),
        "peak_rss_mb": _median([p["rss_mb"] for p in passes]),
    }


def per_layer(run: Run) -> dict[str, float]:
    """Counters of one traced pass (checked equal across passes) and median times."""
    units = tracer.metric_units()
    if not run.traced:
        return dict.fromkeys(units, 0.0)
    counters = run.traced[0]["counters"]
    for doc in run.traced[1:]:
        if doc["counters"] != counters:
            run.failures.append("trace counters differ between traced passes")
            run.failed += 1
            break
    out: dict[str, float] = {}
    for name, unit in units.items():
        if unit == "s":
            out[name] = _median([d["times"][name] for d in run.traced])
        elif name in tracer.RATIOS:
            num, den = tracer.RATIOS[name]
            out[name] = counters[num] / counters[den] if counters[den] else 0.0
        else:
            out[name] = counters[name]
    return out


def describe(run: Run) -> list[str]:
    """Human-readable lines printed before the result line."""
    lines = [f"workload {run.workload} seed {run.seed} size {run.size}: "
             f"{len(run.passes)} clean passes, {len(run.traced)} traced, "
             f"{len(run.setup)} setup samples, pinned digests {run.pinned_share()}"]
    for key, label in (("cold_s", "wall_s"), ("warm_s", "warm_wall_s"),
                       ("rss_mb", "peak_rss_mb")):
        vals = [p[key] for p in run.passes]
        if vals:
            q1, med, q3 = quartiles(vals)
            lines.append(f"  {label:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n {len(vals)}"
                         f"  [{' '.join(f'{v:.3f}' for v in vals)}]")
    if run.setup:
        q1, med, q3 = quartiles(run.setup)
        lines.append(f"  {'setup_s':12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                     f"n {len(run.setup)}")
    rate = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"  error_rate   {rate:.4f} ({run.failed}/{run.attempted} case runs)")
    lines.extend(f"  FAIL {msg}" for msg in (run.problems + run.failures)[:20])
    if run.env is not None:
        lines.append("env " + json.dumps(environment(run.env), sort_keys=True))
    return lines


def result_line(run: Run, trace: bool) -> dict:
    if trace:
        units = tracer.metric_units()
        values = per_layer(run)
    else:
        units = END_TO_END
        values = end_to_end(run)
    correct = (run.failed == 0 and not run.problems and bool(run.passes)
               and (bool(run.traced) or not trace))
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="btlab benchmark (see btbench/README.md)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small cases for the harness self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "btlab" / "cli.py").is_file():
        print(f"error: no btlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    result = result_line(run, bool(args.trace))
    for line in describe(run):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

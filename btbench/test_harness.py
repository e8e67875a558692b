"""Self-tests of the benchmark harness.

    python3 -m pytest btbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import btlab, run_case  # noqa: E402


def _result(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_runs_have_no_errors():
    for workload in workloads.WORKLOADS:
        res = _result("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", "0", "--size", "tiny")
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == {"wall_s", "warm_wall_s", "setup_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counters_repeat_exactly():
    counts = []
    for _ in range(2):
        res = _result("--workload", "certify", "--seed", "5", "--seconds", "1",
                      "--trace", "1", "--size", "tiny")
        assert res["correct"] and res["failed"] == 0
        assert res["metrics"]["trace_overhead_s"]["value"] > 0
        counts.append({k: m["value"] for k, m in res["metrics"].items() if m["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["build_gamma_graph.calls"] > 0


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_hanging_case_is_failed_not_waited_on():
    def hang(argv):
        while True:
            pass

    start = time.monotonic()
    code, out, _, reason = run_case(hang, ["x"], timeout=0.3)
    assert time.monotonic() - start < 5
    assert code is None and "timed out" in reason


def test_raising_or_bad_exit_case_is_failed():
    def boom(argv):
        raise RuntimeError("kaput")

    assert "raised RuntimeError" in run_case(boom, ["x"], timeout=5)[3]
    assert "exit code 2" in run_case(btlab.cli.main, ["witt-eval", "--p", "4", "--len", "1",
                                                      "--lhs", "1", "--rhs", "1"], 5)[3]


def test_seed_changes_cases_but_not_shape():
    for workload in workloads.WORKLOADS:
        for size in ("full", "tiny"):
            a = workloads.build_cases(workload, 1, size)
            b = workloads.build_cases(workload, 2, size)
            assert workloads.shape(a) == workloads.shape(b)
            assert [c.key() for c in a] != [c.key() for c in b]
            assert [c.key() for c in a] == [c.key() for c in workloads.build_cases(
                workload, 1, size)]


def _output(case):
    code, out, _, reason = run_case(btlab.cli.main, case.argv, 60)
    assert reason is None
    return out.decode()


def test_independent_checks_reject_wrong_output():
    cases = {c.check: c for w in workloads.WORKLOADS
             for c in workloads.build_cases(w, 3, "tiny")}
    inv = cases["invariants-json"]
    doc = json.loads(_output(inv))
    assert checks.independent_check(inv, json.dumps(doc)) is None
    doc["gamma"][-1] += 1
    assert "gamma" in checks.independent_check(inv, json.dumps(doc))
    doc = json.loads(_output(inv))
    orbit = next(o for o in doc["orbits"] if o["segments"])
    orbit["segments"].pop()
    assert "segments" in checks.independent_check(inv, json.dumps(doc))

    table = cases["invariants-table"]
    text = _output(table)
    assert checks.independent_check(table, text) is None
    assert checks.independent_check(table, text.replace("isomorphism_number   ",
                                                        "isomorphism_number   9")) is not None

    ev = cases["witt-eval"]
    doc = json.loads(_output(ev))
    assert checks.independent_check(ev, json.dumps(doc)) is None
    doc["product"][-1] = (doc["product"][-1] + 1) % ev.data["p"]
    assert "product" in checks.independent_check(ev, json.dumps(doc))

    polys = cases["witt-polys"]
    text = _output(polys)
    assert checks.independent_check(polys, text) is None
    assert checks.independent_check(polys, text.replace("x_1", "y_1", 1)) is not None

    kraft = cases["kraft"]
    assert checks.independent_check(kraft, _output(kraft)) is None
    assert checks.independent_check(kraft, "FV") is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "report", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_kernels(tmp_path):
    other = json.loads((HERE / "baseline.json").read_text())
    other["env"]["kernel"] = "compiled"
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    proc = subprocess.run([sys.executable, str(HERE / "summary.py"), "--compare",
                           str(HERE / "baseline.json"), str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "refusing" in proc.stderr

"""Pin the output digest of every case for a range of seeds.

    python3 btbench/pin.py --seeds 0-49

Runs each distinct case once, in this process, and writes
``pinned_digests.json``: sha256(case command line) -> digest of the exit
code and stdout bytes.  A case is pinned only after it passes its
independent check.  Pin at a commit whose outputs are known good; later
commits must reproduce these bytes exactly, or the benchmark counts the
case as failed.  Seeds outside the pinned range still get the
independent checks and the cold/warm and traced/untraced agreement.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import workloads
from worker import CASE_TIMEOUT_S, btlab, run_case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-49", help="inclusive range, e.g. 0-49")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    digests: dict[str, str] = {}
    for size in ("tiny", "full"):
        for workload in workloads.WORKLOADS:
            for seed in range(lo, hi + 1):
                for case in workloads.build_cases(workload, seed, size):
                    key = checks.case_hash(case.key())
                    if key in digests:
                        continue
                    code, out, _, reason = run_case(btlab.cli.main, case.argv, CASE_TIMEOUT_S)
                    reason = reason or checks.independent_check(case, out.decode())
                    if reason:
                        print(f"not pinned: {workload} seed {seed} {case.cid}: {reason}",
                              file=sys.stderr)
                        return 1
                    digests[key] = checks.digest(code, out)
            print(f"{size} {workload}: {len(digests)} digests", file=sys.stderr)
    doc = {"seeds": f"{lo}-{hi}", "digests": dict(sorted(digests.items()))}
    checks.PINNED_PATH.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

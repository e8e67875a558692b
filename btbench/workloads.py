"""Seeded case lists for the three workloads.

A case is one ``btlab`` command line.  A pass runs its workload's cases
in order, one after another, as a single user working through a batch
would (a closed loop with one client).

The harness draws everything from its own ``random.Random`` streams,
never from ``btlab.rng``, so a change to the program cannot change the
work it is measured on.

Steadiness across seeds.  The cost of ``invariants`` and ``oracle`` on a
permutation is dominated by the cyclic segment scan, whose cost depends
on the orbit lengths and on where the -1 entries of each epsilon
sequence fall.  Over fully random permutations it varies by a factor of
three from seed to seed (measured: interquartile range 50-60 % of the
median for twelve h = 40..160 permutations), which would swamp any
regression bound.  So each permutation slot has a fixed base permutation
(drawn once from a fixed stream) and the seed draws a relabelling sigma
that maps {1..d} onto itself.  The seeded permutation
sigma * base * sigma^-1 has the same cycle type, and every pair orbit
keeps its epsilon sequence up to rotation, so the work per case is the
same for every seed while the permutation, its orbit listing and the
output bytes change.  The ``verify`` sweeps keep fixed sweep seeds for
the same reason: their cost moved by 20-40 % between sweep seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("report", "certify", "witt_laws")

# Base streams for the fixed per-slot permutations; never the run seed.
_BASE_SEED = {"report": 0x5EED_0001, "certify": 0x5EED_0002}


@dataclass(frozen=True)
class Case:
    """One command: ``argv`` for ``btlab.cli.main`` plus what its check needs."""

    cid: str
    argv: tuple[str, ...]
    check: str
    data: dict = field(default_factory=dict, compare=False)

    def key(self) -> str:
        return " ".join(self.argv)


def _base_permutation(rng: random.Random, h: int) -> tuple[int, list[int]]:
    d = rng.randint(1, h - 1)
    images = list(range(1, h + 1))
    rng.shuffle(images)
    return d, images


def _relabel(rng: random.Random, images: list[int], d: int) -> list[int]:
    """sigma * pi * sigma^-1 for a random sigma that maps {1..d} onto itself."""
    h = len(images)
    low = list(range(1, d + 1))
    high = list(range(d + 1, h + 1))
    rng.shuffle(low)
    rng.shuffle(high)
    sigma = [0] + low + high  # sigma[i] for i = 1..h
    out = [0] * h
    for i in range(1, h + 1):
        out[sigma[i] - 1] = sigma[images[i - 1]]
    return out


def _perm_cases(kind: str, seed: int, hs: tuple[int, ...]):
    """(slot, h, d, images) for each slot: fixed base, seeded relabelling."""
    base = random.Random(_BASE_SEED[kind])
    rng = random.Random(seed)
    for slot, h in enumerate(hs):
        d, images = _base_permutation(base, h)
        yield slot, h, d, _relabel(rng, images, d)


def _fmt(slot: int, first: str) -> str:
    other = "table" if first == "json" else "json"
    return first if slot % 2 == 0 else other


def _perm_args(h: int, d: int, images: list[int]) -> tuple[str, ...]:
    return ("--c", str(h - d), "--d", str(d), "--perm", ",".join(map(str, images)))


# Sizes: (permutation degrees, long-cycle h and max level) per size.
_REPORT = {
    "full": ((40, 80, 120, 160), 120, 40),
    "tiny": ((8, 11), 10, 6),
}
_CERTIFY = {
    "full": (
        (("100", "12", "6", "7"), ("15", "24", "8", "11")),
        (50, 50, 50, 50),
        ((6, 6), (7, 7), (5, 9)),
        ((2, 5), (3, 3), (7, 2), (2, 4)),
    ),
    "tiny": (
        (("20", "6", "4", "7"),),
        (7, 9),
        ((2, 2), (3, 2)),
        ((2, 2), (3, 2)),
    ),
}
_WITT = {
    # Every law here fits in a core's cache.  On a shared host, run medians
    # with the (5,4) laws (37,760 terms) or (2,6) moved by 17-38 % between
    # runs, against 5 % for cache-sized laws timed alongside.
    "full": (((13, 3), (3, 4), (7, 3)), ((11, 3), (2, 5))),
    "tiny": (((2, 3), (3, 2)), ((2, 2), (5, 2))),
}


def report_cases(seed: int, size: str = "full") -> list[Case]:
    hs, cycle_h, cycle_levels = _REPORT[size]
    cases = []
    for slot, h, d, images in _perm_cases("report", seed, hs):
        common = _perm_args(h, d, images)
        data = {"h": h, "c": h - d, "d": d, "images": images}
        fmt = _fmt(slot, "json")
        cases.append(Case(f"r{slot:02d}-invariants", ("invariants",) + common
                          + ("--format", fmt), f"invariants-{fmt}", data))
        fmt = _fmt(slot, "table")
        cases.append(Case(f"r{slot:02d}-kraft", ("kraft-type",) + common
                          + ("--format", fmt), "kraft", data))
    half = cycle_h // 2
    cycle = list(range(2, cycle_h + 1)) + [1]
    cases.append(Case(
        "r-long-cycle",
        ("invariants", "--c", str(cycle_h - half), "--d", str(half),
         "--perm", "(" + " ".join(map(str, range(1, cycle_h + 1))) + ")",
         "--max-level", str(cycle_levels), "--format", "json"),
        "invariants-json",
        {"h": cycle_h, "c": cycle_h - half, "d": half, "images": cycle},
    ))
    return cases


def certify_cases(seed: int, size: str = "full") -> list[Case]:
    sweeps, oracle_hs, signatures, witt_params = _CERTIFY[size]
    cases = []
    for k, (samples, max_h, max_level, sweep_seed) in enumerate(sweeps):
        cases.append(Case(f"c-verify{k}", (
            "verify", "--samples", samples, "--max-h", max_h,
            "--max-level", max_level, "--seed", sweep_seed, "--format", "json"),
            "verdict"))
    for slot, h, d, images in _perm_cases("certify", seed, oracle_hs):
        cases.append(Case(f"c{slot:02d}-oracle", ("oracle",) + _perm_args(h, d, images)
                          + ("--level", "8", "--format", _fmt(slot, "json")), "verdict"))
    for c, d in signatures:
        cases.append(Case(f"c-enum-{c}-{d}", (
            "enumerate-bt1", "--c", str(c), "--d", str(d), "--format", "json"),
            "enumerate", {"c": c, "d": d}))
    rng = random.Random(seed)
    for p, n in witt_params:
        cases.append(Case(f"c-wittcheck-{p}-{n}", (
            "witt-check", "--p", str(p), "--len", str(n),
            "--seed", str(rng.randrange(1 << 32)), "--format", "json"), "verdict"))
    return cases


def witt_laws_cases(seed: int, size: str = "full") -> list[Case]:
    law_params, eval_params = _WITT[size]
    cases = []
    for k, (p, n) in enumerate(law_params):
        cases.append(Case(f"w-polys-{p}-{n}", (
            "witt-polys", "--p", str(p), "--len", str(n), "--format", _fmt(k, "table")),
            "witt-polys", {"p": p, "n": n}))
    rng = random.Random(seed)
    for p, n in eval_params:
        lhs = [rng.randrange(p) for _ in range(n)]
        rhs = [rng.randrange(p) for _ in range(n)]
        cases.append(Case(f"w-eval-{p}-{n}", (
            "witt-eval", "--p", str(p), "--len", str(n),
            "--lhs", ",".join(map(str, lhs)), "--rhs", ",".join(map(str, rhs)),
            "--format", "json"), "witt-eval", {"p": p, "n": n}))
    return cases


def build_cases(workload: str, seed: int, size: str = "full") -> list[Case]:
    builders = {"report": report_cases, "certify": certify_cases,
                "witt_laws": witt_laws_cases}
    return builders[workload](seed, size)


def shape(cases: list[Case]) -> list[tuple]:
    """What a seed must not change: the case ids, commands and flag names."""
    return [(c.cid, c.argv[0], tuple(a for a in c.argv if a.startswith("--")))
            for c in cases]

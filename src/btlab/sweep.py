"""Randomized verification sweep: formulas versus the graph oracle."""

from __future__ import annotations

from typing import Iterator

from .errors import check_range
from .graph_oracle import MAX_ORACLE_VERTICES, Mismatch, cross_check
from .invariants import check_level
from .permutations import Permutation, Signature
from .rng import SplitMix64

#: Each case has a fixed cost of about 0.1 ms, which the vertex budget
#: does not see when h is small: 10,000 cases at max_h = 2 take 1.0 s.
MAX_SWEEP_SAMPLES = 10_000


def _check_sweep(samples: int, max_h: int, max_level: int) -> None:
    check_range(samples, "verify samples", 1, MAX_SWEEP_SAMPLES)
    check_range(max_h, "verify max_h", 2)
    check_level(max_level, "verify max_level")
    check_range(
        samples * max_h**2 * max_level,
        "verify graph vertices (samples * max_h^2 * max_level)",
        high=MAX_ORACLE_VERTICES,
    )


def random_cases(samples: int, max_h: int, seed: int) -> Iterator[tuple[Permutation, Signature]]:
    """Seeded stream of (permutation, signature) cases.

    Per case: h uniform in 2..max_h, d uniform in 0..h, pi by
    Fisher-Yates shuffle of the identity.  All draws come from one
    SplitMix64 stream, so the case list is a pure function of the seed.
    """
    rng = SplitMix64(seed)
    for _ in range(samples):
        h = 2 + rng.below(max_h - 1)
        d = rng.below(h + 1)
        images = list(range(1, h + 1))
        rng.shuffle(images)
        yield Permutation(tuple(images)), Signature(c=h - d, d=d)


def verification_sweep(
    samples: int, max_h: int, max_level: int, seed: int
) -> tuple[Mismatch | None, ...]:
    """Cross-check every case of the seeded stream: one entry per case,
    its first mismatch or None where the case passed."""
    _check_sweep(samples, max_h, max_level)
    return tuple(
        cross_check(p, sig, max_level) for p, sig in random_cases(samples, max_h, seed)
    )

import pytest

from btlab import sweep
from btlab.rng import SplitMix64
from btlab.errors import InputError
from btlab.sweep import random_cases, verification_sweep


def random_epsilon_sequences(samples, max_len, seed):
    """Seeded stream of cyclic epsilon-sequences over {-1, 0, +1}."""
    rng = SplitMix64(seed)
    for _ in range(samples):
        l = 1 + rng.below(max_len)
        yield tuple(rng.below(3) - 1 for _ in range(l))


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        # frozen from the standard splitmix64 constants; guards the
        # bit-exact reproducibility promise
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_masking(self):
        assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()

    def test_shuffle_deterministic(self):
        a = list(range(10))
        b = list(range(10))
        SplitMix64(99).shuffle(a)
        SplitMix64(99).shuffle(b)
        assert a == b
        assert sorted(a) == list(range(10))


class TestRandomCases:
    def test_reproducible(self):
        a = list(random_cases(25, 7, seed=7))
        b = list(random_cases(25, 7, seed=7))
        assert a == b

    def test_respects_bounds(self):
        for p, sig in random_cases(50, 5, seed=3):
            assert 2 <= p.h <= 5
            assert sig.h == p.h
            assert 0 <= sig.d <= p.h

    def test_seed_changes_stream(self):
        a = list(random_cases(25, 7, seed=1))
        b = list(random_cases(25, 7, seed=2))
        assert a != b


class TestEpsilonStream:
    def test_reproducible_and_bounded(self):
        a = list(random_epsilon_sequences(50, 12, seed=5))
        assert a == list(random_epsilon_sequences(50, 12, seed=5))
        for e in a:
            assert 1 <= len(e) <= 12
            assert set(e) <= {-1, 0, 1}


class TestVerificationSweep:
    @pytest.mark.parametrize(
        "samples,max_h,max_level",
        # the CLI default, the benchmark sweeps, the sweeps in the tests and
        # CI, h = 100 at level 14, and the exact budget of 10^6 vertices
        [(200, 7, 4), (100, 12, 6), (15, 24, 8), (50, 6, 4), (40, 6, 3), (30, 5, 4),
         (2, 80, 60), (1, 100, 14), (1, 100, 100)],
    )
    def test_guard_admits_sweeps_in_use(self, samples, max_h, max_level):
        sweep._check_sweep(samples, max_h, max_level)

    @pytest.mark.parametrize(
        # 1,152,000 and 1,010,000 vertices, and more cases than the cap
        "samples,max_h,max_level", [(3, 80, 60), (1, 100, 101), (10_001, 2, 1)]
    )
    def test_guard_refuses_oversized_sweeps(self, samples, max_h, max_level):
        with pytest.raises(InputError, match=r"^verify (samples|graph vertices .*) must be <= "):
            verification_sweep(samples, max_h, max_level, seed=0)

    @pytest.mark.parametrize(
        "samples,max_h,max_level,refusal",
        [
            (0, 7, 4, "verify samples must be >= 1, got 0"),
            (200, 1, 4, "verify max_h must be >= 2, got 1"),
            (200, 7, 0, "verify max_level must be >= 1, got 0"),
        ],
    )
    def test_guard_refuses_empty_sweeps(self, samples, max_h, max_level, refusal):
        with pytest.raises(InputError, match=refusal):
            verification_sweep(samples, max_h, max_level, seed=0)

    def test_small_sweep_passes(self):
        checks = verification_sweep(samples=40, max_h=6, max_level=3, seed=123)
        assert len(checks) == 40
        assert [c for c in checks if c is not None] == []

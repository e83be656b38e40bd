"""Unit tests for repro.utils.rng.

The SA filter and the EA operators draw through ``randbelow`` instead
of ``randrange``/``randint``/``choice``. Every candidate list, design
and content key rests on the two giving the same value and leaving the
RNG in the same state, call for call, on every Python the project
supports.
"""

import random

import pytest

from repro.utils.rng import SeedSequence, make_rng, randbelow


class TestMakeRng:
    def test_deterministic(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_different_seeds_diverge(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestSeedSequence:
    def test_same_label_same_stream(self):
        seq = SeedSequence(seed=7)
        a = seq.spawn("sa").random()
        b = SeedSequence(seed=7).spawn("sa").random()
        assert a == b

    def test_different_labels_diverge(self):
        seq = SeedSequence(seed=7)
        assert seq.spawn("sa").random() != seq.spawn("ea").random()

    def test_different_master_seeds_diverge(self):
        a = SeedSequence(seed=1).spawn("sa").random()
        b = SeedSequence(seed=2).spawn("sa").random()
        assert a != b

    def test_child_seed_memoized(self):
        seq = SeedSequence(seed=7)
        assert seq.child_seed("x") == seq.child_seed("x")

    def test_adding_consumer_does_not_perturb_existing(self):
        seq1 = SeedSequence(seed=9)
        first = seq1.child_seed("alpha")
        seq2 = SeedSequence(seed=9)
        seq2.child_seed("beta")  # new consumer registered first
        assert seq2.child_seed("alpha") == first


SEEDS = (0, 1, 7, 2024, 2**32 + 5)

#: Every n up to 1100, and the powers of two around which
#: ``n.bit_length()`` steps (k <= 31: draws up to 32 bits).
SIZES = sorted(
    set(range(1, 1101))
    | {2**k + d for k in range(1, 32) for d in (-1, 0, 1)}
)


def _pair(seed):
    """Two RNGs in one state: the reference's and the helper's."""
    return random.Random(seed), random.Random(seed)


class TestRandbelow:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_randrange(self, seed):
        reference, rng = _pair(seed)
        for n in SIZES:
            for _ in range(3):
                assert randbelow(rng, n) == reference.randrange(n)
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_plus_it_matches_randint(self, seed):
        reference, rng = _pair(seed)
        for n in SIZES:
            assert 1 + randbelow(rng, n) == reference.randint(1, n)
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_indexing_with_it_matches_choice(self, seed):
        reference, rng = _pair(seed)
        for n in SIZES:
            seq = range(100, 100 + n)  # a sequence of length n, lazily
            assert seq[randbelow(rng, len(seq))] == reference.choice(seq)
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", (0, -1, -(2**40)))
    def test_an_empty_range_raises(self, n):
        """``getrandbits(0)`` is 0, so an unguarded loop never ends."""
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError):
            randbelow(rng, n)
        assert rng.getstate() == state

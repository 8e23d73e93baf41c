"""Unit tests for the deterministic RNG."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = DeterministicRng(7), DeterministicRng(7)
        assert a.randbytes(32) == b.randbytes(32)
        assert a.randint(0, 1000) == b.randint(0, 1000)

    def test_different_seeds_differ(self):
        assert DeterministicRng(1).randbytes(16) != DeterministicRng(2).randbytes(16)

    def test_fork_is_independent(self):
        base = DeterministicRng(9)
        fork_a = base.fork("alpha")
        # Drawing from the base must not perturb the fork's stream.
        base.randbytes(100)
        fork_b = DeterministicRng(9).fork("alpha")
        assert fork_a.randbytes(16) == fork_b.randbytes(16)

    def test_fork_labels_distinguish(self):
        base = DeterministicRng(9)
        assert base.fork("a").randbytes(8) != base.fork("b").randbytes(8)

    def test_fork_is_stable_across_processes(self):
        """The derivation must not involve Python's salted hash():
        two interpreter invocations of the same seed have to agree, or
        no CLI run is reproducible.  This value is pinned forever."""
        assert DeterministicRng(7).fork("faults").seed == 64303384267892262


class TestDraws:
    def test_randbytes_length(self, rng):
        assert len(rng.randbytes(0)) == 0
        assert len(rng.randbytes(17)) == 17

    def test_randbytes_negative_raises(self, rng):
        with pytest.raises(ValueError):
            rng.randbytes(-1)

    def test_randint_bounds(self, rng):
        values = [rng.randint(3, 5) for _ in range(100)]
        assert set(values) <= {3, 4, 5}
        assert len(set(values)) > 1

    def test_chance_extremes(self, rng):
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0 - 1e-12) for _ in range(50))

    def test_chance_out_of_range(self, rng):
        with pytest.raises(ValueError):
            rng.chance(1.5)

    def test_permutation_is_permutation(self, rng):
        perm = rng.permutation(50)
        assert sorted(perm) == list(range(50))

    def test_shuffle_preserves_elements(self, rng):
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))

    def test_sample_unique(self, rng):
        picked = rng.sample(range(100), 10)
        assert len(set(picked)) == 10


class TestBulkDraws:
    """A bulk draw equals the per-call loop it stands for, value for value,
    and leaves the generator where the loop would have left it."""

    @given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_uniforms_are_random_calls(self, seed, count):
        bulk, loop = DeterministicRng(seed), DeterministicRng(seed)
        assert bulk.uniforms(count).tolist() == [loop.random() for _ in range(count)]
        assert bulk.random() == loop.random()

    @given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_coin_flips_are_randint_calls(self, seed, count):
        bulk, loop = DeterministicRng(seed), DeterministicRng(seed)
        flips = bulk.coin_flips(count)
        assert flips.tolist() == [loop.randint(0, 1) for _ in range(count)]
        assert bulk.random() == loop.random()
        flips[:1] = 1  # the caller owns a writable array

"""Tests for deterministic RNG management."""

import numpy as np
import pytest

from repro.util.rng import RandomSource, spawn_rng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_spawn_is_reproducible(self):
        a = RandomSource(7).spawn()
        b = RandomSource(7).spawn()
        assert a.random() == b.random()

    def test_spawn_independent_of_parent_consumption(self):
        a = RandomSource(7)
        a.random()
        a.random()
        child_a = a.spawn()

        b = RandomSource(7)
        child_b = b.spawn()
        assert child_a.random() == child_b.random()

    def test_successive_spawns_differ(self):
        parent = RandomSource(3)
        c1, c2 = parent.spawn(), parent.spawn()
        assert [c1.random() for _ in range(5)] != [c2.random() for _ in range(5)]

    def test_spawn_many(self):
        children = RandomSource(5).spawn_many(4)
        assert len(children) == 4
        streams = [tuple(c.random() for c in [child] * 3) for child in children]
        assert len(set(streams)) == 4


class TestBernoulli:
    def test_degenerate_probabilities(self):
        rng = RandomSource(0)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))

    def test_empirical_rate(self):
        rng = RandomSource(123)
        hits = sum(rng.bernoulli(0.3) for _ in range(20000))
        assert 0.27 < hits / 20000 < 0.33

    def test_bernoulli_array_rate(self):
        rng = RandomSource(9)
        draws = rng.bernoulli_array(0.5, 20000)
        assert draws.dtype == bool
        assert 0.47 < draws.mean() < 0.53

    def test_bernoulli_array_degenerate(self):
        rng = RandomSource(9)
        assert not rng.bernoulli_array(0.0, 100).any()
        assert rng.bernoulli_array(1.0, 100).all()

    def test_bernoulli_array_negative_size(self):
        with pytest.raises(ValueError):
            RandomSource(0).bernoulli_array(0.5, -1)


class TestGeometric:
    def test_geometric_support(self):
        rng = RandomSource(11)
        draws = [rng.geometric(0.5) for _ in range(1000)]
        assert min(draws) >= 1

    def test_geometric_mean(self):
        rng = RandomSource(11)
        draws = [rng.geometric(0.25) for _ in range(5000)]
        # E[X] = 1/p = 4
        assert 3.6 < sum(draws) / len(draws) < 4.4

    def test_geometric_certain_success(self):
        rng = RandomSource(0)
        assert all(rng.geometric(1.0) == 1 for _ in range(10))

    def test_geometric_invalid_p(self):
        with pytest.raises(ValueError):
            RandomSource(0).geometric(0.0)
        with pytest.raises(ValueError):
            RandomSource(0).geometric(1.5)


class TestBulkDraws:
    def test_bytes_array(self):
        arr = RandomSource(2).bytes_array(10000)
        assert arr.dtype == np.uint8
        assert arr.min() >= 0 and arr.max() <= 255
        # all byte values should appear in 10k draws with overwhelming prob.
        assert len(np.unique(arr)) > 250

    def test_bytes_array_reproducible(self):
        assert np.array_equal(
            RandomSource(4).bytes_array(100), RandomSource(4).bytes_array(100)
        )


class TestSpawnRng:
    def test_none_defaults_to_zero(self):
        assert spawn_rng(None).seed == 0

    def test_int_passthrough(self):
        assert spawn_rng(99).seed == 99

    def test_source_passthrough(self):
        src = RandomSource(5)
        assert spawn_rng(src) is src

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            spawn_rng("seed")  # type: ignore[arg-type]

    def test_rejects_non_int_seed_in_constructor(self):
        with pytest.raises(TypeError):
            RandomSource(1.5)  # type: ignore[arg-type]

    def test_rejects_negative_seed(self):
        # random.Random(-5) draws the stream of random.Random(5)
        with pytest.raises(ValueError, match="non-negative, got -5"):
            RandomSource(-5)
        with pytest.raises(ValueError):
            spawn_rng(-5)

    def test_rejects_bool_seed(self):
        # bool is an int subclass: True would run seed 1's stream
        with pytest.raises(TypeError, match="got bool"):
            RandomSource(True)
        with pytest.raises(TypeError, match="got bool"):
            spawn_rng(False)


class TestBoundRandom:
    def test_draws_the_stream_of_random(self):
        a, b = RandomSource(13), RandomSource(13)
        coin = a.bound_random
        assert [coin() for _ in range(5)] == [b.random() for _ in range(5)]
        assert a.random() == b.random()


class TestMiscDraws:
    def test_randint_bounds(self):
        rng = RandomSource(8)
        draws = [rng.randint(3, 7) for _ in range(200)]
        assert min(draws) >= 3 and max(draws) <= 7
        assert set(draws) == {3, 4, 5, 6, 7}

    def test_choice_and_sample(self):
        rng = RandomSource(8)
        items = list(range(10))
        assert rng.choice(items) in items
        picked = rng.sample(items, 4)
        assert len(picked) == 4 and len(set(picked)) == 4

    def test_shuffle_is_permutation(self):
        rng = RandomSource(8)
        items = list(range(20))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

"""StreamBank against random.Random, draw for draw and state for state.

Row ``v`` of a bank built from ``seeds`` must give what
``random.Random(seeds[v]).random()`` gives, whatever the order and the
subsets in which rows draw, and end in the same ``getstate()``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RandomSource, StreamBank

#: draws between two twists of one stream
_DRAWS_PER_TWIST = 312

#: seeds whose key is one 32-bit word
_ONE_WORD = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
#: seeds whose key is two
_TWO_WORDS = st.one_of(
    st.sampled_from([2**32, 2**63 - 1]), st.integers(2**32, 2**63 - 1)
)
_SEEDS = st.lists(st.one_of(_ONE_WORD, _TWO_WORDS), max_size=10)


def _bank(seeds):
    return StreamBank(np.array(seeds, dtype=np.uint64))


def _draw(bank, reference, rows):
    """One bank draw over ``rows``, checked against the reference streams."""
    got = bank.random(np.array(rows, dtype=np.int64)).tolist()
    assert got == [reference[v].random() for v in rows]


class TestStreamBankMatchesRandom:
    @settings(max_examples=60, deadline=None)
    @given(
        one_word=_ONE_WORD,
        two_words=_TWO_WORDS,
        seeds=_SEEDS,
        idle=st.one_of(_ONE_WORD, _TWO_WORDS),
        data=st.data(),
    )
    def test_ragged_draws_and_final_states(
        self, one_word, two_words, seeds, idle, data
    ):
        # row 0 has a one-word key and row 1 a two-word key; the last row
        # never draws
        seeds = [one_word, two_words] + seeds + [idle]
        drawing = len(seeds) - 1
        bank = _bank(seeds)
        reference = [random.Random(seed) for seed in seeds]
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.permutations(range(drawing)),
                    st.integers(0, drawing),
                    st.integers(1, 200),
                ),
                max_size=6,
            )
        )
        for order, count, repeats in steps:
            for _ in range(repeats):
                _draw(bank, reference, order[:count])
        # from any position, 313 more draws cross a twist of rows 0 and 1
        for _ in range(_DRAWS_PER_TWIST + 1):
            _draw(bank, reference, [1, 0])
        assert [bank.getstate(v) for v in range(len(seeds))] == [
            stream.getstate() for stream in reference
        ]

    @pytest.mark.parametrize(
        "draws",
        [0, 1, _DRAWS_PER_TWIST - 1, _DRAWS_PER_TWIST, _DRAWS_PER_TWIST + 1,
         2 * _DRAWS_PER_TWIST, 2 * _DRAWS_PER_TWIST + 1],
    )
    def test_states_on_both_sides_of_a_twist(self, draws):
        seeds = [0, 2**32 - 1, 2**32, 2**63 - 1]
        bank = _bank(seeds)
        reference = [random.Random(seed) for seed in seeds]
        for _ in range(draws):
            _draw(bank, reference, [3, 0, 2, 1])
        assert [bank.getstate(v) for v in range(4)] == [
            stream.getstate() for stream in reference
        ]

    def test_rows_past_one_seeding_chunk(self):
        """Seeding twists the rows in chunks; every chunk is the reference."""
        seeds = RandomSource(3).spawn_bank(1100).seeds.tolist()
        bank = _bank(seeds)
        reference = [random.Random(seed) for seed in seeds]
        for _ in range(3):
            _draw(bank, reference, list(range(len(seeds))))
        assert bank.getstate(1099) == reference[1099].getstate()

    def test_empty_bank_and_empty_draw(self):
        assert len(_bank([])) == 0
        assert _bank([]).random(np.array([], dtype=np.int64)).shape == (0,)
        bank = _bank([5])
        assert bank.random(np.array([], dtype=np.int64)).shape == (0,)
        assert bank.getstate(0) == random.Random(5).getstate()

    def test_seeds_must_fit_63_bits(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            _bank([2**63])
        with pytest.raises(ValueError, match="1-D"):
            StreamBank(np.zeros((2, 2), dtype=np.uint64))


class TestSpawnBank:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
    def test_rows_are_the_children_spawn_many_gives(self, seed):
        banked, listed = RandomSource(seed), RandomSource(seed)
        banked.spawn()
        listed.spawn()
        bank = banked.spawn_bank(40)
        children = listed.spawn_many(40)
        assert bank.seeds.tolist() == [child.seed for child in children]
        rows = np.arange(40, dtype=np.int64)
        assert bank.random(rows).tolist() == [child.random() for child in children]
        # the parent moved on as far: the next spawn is the same child
        assert banked.spawn().seed == listed.spawn().seed

    def test_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RandomSource(1).spawn_bank(-1)

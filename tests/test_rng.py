"""Tests for seed management and the replayable random tape."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.kernels import _pcg64_load
from repro.errors import TapeExhaustedError
from repro.rng import (
    RandomTape,
    SeedBlock,
    TapeRecorder,
    child_seed,
    make_rng,
    spawn_rngs,
    spawn_seeds,
)


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_from_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_from_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        a = make_rng(ss).random(3)
        b = make_rng(np.random.SeedSequence(7)).random(3)
        assert np.array_equal(a, b)


class TestSpawnSeeds:
    def test_count(self):
        assert len(spawn_seeds(0, 7)) == 7

    def test_children_differ(self):
        s1, s2 = spawn_seeds(0, 2)
        a = np.random.default_rng(s1).random(8)
        b = np.random.default_rng(s2).random(8)
        assert not np.array_equal(a, b)

    def test_reproducible_across_calls(self):
        a = np.random.default_rng(spawn_seeds(5, 3)[2]).random(4)
        b = np.random.default_rng(spawn_seeds(5, 3)[2]).random(4)
        assert np.array_equal(a, b)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_spawn_rngs(self):
        rngs = spawn_rngs(3, 4)
        assert len(rngs) == 4
        assert all(isinstance(r, np.random.Generator) for r in rngs)


class TestChildSeed:
    @pytest.mark.parametrize("k", [0, 1, 5, 640])
    @pytest.mark.parametrize(
        "parent",
        [np.random.SeedSequence(606), spawn_seeds(7, 3)[2],
         np.random.SeedSequence(9, pool_size=8)],
        ids=["root", "child", "pool8"],
    )
    def test_is_the_spawned_child(self, parent, k):
        fresh = np.random.SeedSequence(
            parent.entropy, spawn_key=parent.spawn_key, pool_size=parent.pool_size
        )
        want = fresh.spawn(k + 1)[k]
        got = child_seed(parent, k)
        assert got.spawn_key == want.spawn_key
        assert np.array_equal(got.generate_state(8), want.generate_state(8))
        assert parent.n_children_spawned == 0

    def test_children_differ(self):
        parent = np.random.SeedSequence(3)
        assert not np.array_equal(
            child_seed(parent, 0).generate_state(4), child_seed(parent, 1).generate_state(4)
        )


def loaded_rows(seeds) -> np.ndarray:
    """The PCG64 rows the engine copies from one Generator per seed."""
    rows = np.empty((len(seeds), 4), dtype=np.uint64)
    _pcg64_load([make_rng(s) for s in seeds], rows)
    return rows


def assert_same_seeds(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert isinstance(a, np.random.SeedSequence)
        assert a.entropy == b.entropy
        assert a.spawn_key == b.spawn_key
        assert a.pool_size == b.pool_size
        assert np.array_equal(a.generate_state(4, np.uint64), b.generate_state(4, np.uint64))


ENTROPIES = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(0, 2**256),
    st.lists(st.integers(0, 2**70), min_size=1, max_size=6),
    st.none(),
)


class TestSeedBlock:
    """A block's elements are ``SeedSequence.spawn``'s, and its PCG64
    rows are the states numpy seeds from them, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        entropy=ENTROPIES,
        pool_size=st.sampled_from([4, 8]),
        prefix=st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
        spawned=st.integers(0, 40),
        data=st.data(),
    )
    def test_matches_numpy(self, entropy, pool_size, prefix, spawned, data):
        parent = np.random.SeedSequence(
            entropy, spawn_key=prefix, pool_size=pool_size, n_children_spawned=spawned
        )
        twin = np.random.SeedSequence(
            parent.entropy, spawn_key=prefix, pool_size=pool_size,
            n_children_spawned=spawned,
        )
        n = data.draw(st.integers(0, 12), label="n")
        block, want = spawn_seeds(parent, n), twin.spawn(n)
        assert parent.n_children_spawned == twin.n_children_spawned
        k = data.draw(st.sampled_from([None, 0, 1, 2**32 - 1]), label="k")
        if k is not None:
            block, want = block.child(k), [child_seed(s, k) for s in want]
        cut = data.draw(st.slices(n), label="slice")
        block, want = block[cut], want[cut]
        assert isinstance(block, SeedBlock)
        assert_same_seeds(block, want)
        assert_same_seeds([block[i] for i in range(-len(block), len(block))], want + want)
        assert np.array_equal(block.pcg64_rows(), loaded_rows(want))

    @pytest.mark.parametrize("keys", [range(2**32 - 3, 2**32 + 3), range(2**32, 2**32 + 2)])
    def test_keys_past_one_word(self, keys):
        """Keys of two uint32 words (≥ 2³²) still match numpy: the block
        hashes each element through its own SeedSequence."""
        block = SeedBlock(2**70 + 5, (3,), 4, keys).child(1)
        want = [np.random.SeedSequence(2**70 + 5, spawn_key=(3, k, 1)) for k in keys]
        assert_same_seeds(block, want)
        assert np.array_equal(block.pcg64_rows(), loaded_rows(want))

    def test_fills_the_given_rows(self):
        block = spawn_seeds(606, 5).child(1)
        out = np.zeros((5, 4), dtype=np.uint64)
        assert block.pcg64_rows(out) is out
        assert np.array_equal(out, loaded_rows(list(block)))
        assert block[:0].pcg64_rows().shape == (0, 4)

    def test_spawn_advances_a_passed_parent_like_spawn(self):
        parent, twin = np.random.SeedSequence(11), np.random.SeedSequence(11)
        for n in (3, 4):
            block, want = spawn_seeds(parent, n), twin.spawn(n)
            assert parent.n_children_spawned == twin.n_children_spawned
            assert_same_seeds(block, want)
        assert parent.n_children_spawned == 7

    def test_pickles(self):
        block = spawn_seeds(np.random.SeedSequence([1, 2**40], pool_size=8), 640)[10:600:3]
        block = block.child(1)
        back = pickle.loads(pickle.dumps(block))
        assert back == block and isinstance(back, SeedBlock)
        assert len(pickle.dumps(block)) < 512
        assert np.array_equal(back.pcg64_rows(), block.pcg64_rows())
        assert_same_seeds(back, list(block))

    def test_rejects_bad_indices(self):
        block = spawn_seeds(5, 4)
        with pytest.raises(IndexError):
            block[4]
        with pytest.raises(ValueError):
            block.child(-1)
        with pytest.raises(ValueError):
            SeedBlock(5, (), 4, range(-1, 3))


class TestRandomTapeLive:
    def test_values_in_unit_interval(self):
        tape = RandomTape(seed=1)
        vals = tape.draw(1000)
        assert vals.min() >= 0.0 and vals.max() < 1.0

    def test_rewind_replays_identically(self):
        tape = RandomTape(seed=2)
        first = tape.draw(50).copy()
        tape.rewind()
        again = tape.draw(50)
        assert np.array_equal(first, again)

    def test_rewind_then_draw_more_extends(self):
        tape = RandomTape(seed=3)
        tape.draw(10)
        tape.rewind()
        more = tape.draw(25)
        assert more.size == 25
        assert tape.position == 25

    def test_draw_zero(self):
        tape = RandomTape(seed=4)
        assert tape.draw(0).size == 0

    def test_draw_negative_raises(self):
        with pytest.raises(ValueError):
            RandomTape(seed=0).draw(-1)

    def test_draw_one_scalar(self):
        v = RandomTape(seed=5).draw_one()
        assert isinstance(v, float) and 0.0 <= v < 1.0

    def test_fork_replays_consumed_prefix(self):
        tape = RandomTape(seed=6)
        consumed = tape.draw(30).copy()
        fork = tape.fork()
        assert np.array_equal(fork.draw(30), consumed)

    def test_position_tracks(self):
        tape = RandomTape(seed=7)
        tape.draw(4)
        tape.draw(6)
        assert tape.position == 10


class TestRandomTapeFixed:
    def test_replays_given_values(self):
        vals = np.array([0.1, 0.5, 0.9])
        tape = RandomTape(values=vals)
        assert np.array_equal(tape.draw(3), vals)

    def test_exhaustion_raises(self):
        tape = RandomTape(values=[0.1, 0.2])
        tape.draw(2)
        with pytest.raises(TapeExhaustedError):
            tape.draw(1)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            RandomTape(values=[0.5, 1.0])
        with pytest.raises(ValueError):
            RandomTape(values=[-0.1])

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError):
            RandomTape(values=np.zeros((2, 2)))

    def test_len(self):
        assert len(RandomTape(values=[0.1, 0.2, 0.3])) == 3


class TestTapeRecorder:
    def test_roundtrip(self):
        rec = TapeRecorder()
        rec.append(0.25)
        rec.append([0.5, 0.75])
        tape = rec.to_tape()
        assert np.allclose(tape.draw(3), [0.25, 0.5, 0.75])

    def test_empty(self):
        tape = TapeRecorder().to_tape()
        with pytest.raises(TapeExhaustedError):
            tape.draw(1)

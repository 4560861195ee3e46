"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, derive_seed, spawn_seed_sequences


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(as_rng(1).random(5), as_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            as_rng("not-a-seed")


class TestSpawnSeedSequences:
    @staticmethod
    def _draws(children):
        return [np.random.default_rng(child).random(4).tolist() for child in children]

    def test_count(self):
        children = spawn_seed_sequences(0, 4)
        assert len(children) == 4
        assert all(isinstance(child, np.random.SeedSequence) for child in children)

    def test_deterministic(self):
        assert self._draws(spawn_seed_sequences(3, 3)) == self._draws(spawn_seed_sequences(3, 3))

    def test_children_are_independent(self):
        first, second = self._draws(spawn_seed_sequences(0, 2))
        assert first != second

    def test_zero_children(self):
        assert spawn_seed_sequences(1, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(1, -1)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(5)
        children = spawn_seed_sequences(gen, 2)
        assert len(children) == 2
        assert self._draws(children) == self._draws(spawn_seed_sequences(np.random.default_rng(5), 2))

    @pytest.mark.parametrize(
        "make_parent",
        [
            lambda: np.random.SeedSequence(9),
            lambda: np.random.SeedSequence(9).spawn(3)[2],
            lambda: np.random.default_rng(9),
            lambda: np.random.SeedSequence(9, pool_size=8),
        ],
        ids=["plain", "spawned-child", "generator", "pool-size-8"],
    )
    def test_children_are_the_first_spawn_and_the_parent_is_not_advanced(self, make_parent):
        parent, twin = make_parent(), make_parent()
        twin_seq = twin.bit_generator.seed_seq if isinstance(twin, np.random.Generator) else twin
        expected = twin_seq.spawn(4)
        for _ in range(2):  # a second call sees the same parent
            children = spawn_seed_sequences(parent, 4)
            assert [c.spawn_key for c in children] == [e.spawn_key for e in expected]
            for child, reference in zip(children, expected):
                assert child.pool_size == reference.pool_size
                np.testing.assert_array_equal(child.generate_state(8), reference.generate_state(8))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_depends_on_names(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_depends_on_base(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_none_base_allowed(self):
        assert isinstance(derive_seed(None, "x"), int)

    def test_result_is_32bit(self):
        for name in ["alpha", "beta", "gamma"]:
            assert 0 <= derive_seed(123, name) < 2**32

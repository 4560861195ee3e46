"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, derive_seed, fused_column_draws, spawn_rngs, spawn_seed_sequences


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


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_deterministic(self):
        a = [g.random() for g in spawn_rngs(3, 3)]
        b = [g.random() for g in spawn_rngs(3, 3)]
        assert a == b

    def test_children_are_independent(self):
        children = spawn_rngs(0, 2)
        assert children[0].random(4).tolist() != children[1].random(4).tolist()

    def test_zero_children(self):
        assert spawn_rngs(1, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(5)
        assert len(spawn_rngs(gen, 2)) == 2

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


def _legacy_column_draws(rng, plans):
    """The historical per-column call pair fused_column_draws emulates."""
    out = []
    for count, cdf, highs in plans:
        cats = cdf.searchsorted(rng.random(count), side="right")
        draws = rng.integers(0, highs[cats]) if count else np.empty(0, dtype=np.int64)
        out.append((cats, draws))
    return out


def _random_plans(master, *, lo=2, singleton_every=0):
    plans = []
    for j in range(int(master.integers(1, 7))):
        count = int(master.integers(0, 150))
        width = int(master.integers(1, 25))
        probs = master.random(width) + 0.01
        highs = master.integers(lo, 60, size=width)
        if singleton_every and j % singleton_every == 0:
            highs[master.integers(0, width)] = 1
        plans.append((count, np.cumsum(probs / probs.sum()), highs.astype(np.int64)))
    return plans


class TestFusedColumnDraws:
    def test_byte_identical_values_and_state_fuzz(self):
        # The contract is absolute: same (cats, draws) arrays AND the same
        # bit-generator end state — spare half-word buffer included — as
        # the legacy per-column random()/integers() pair, across random
        # plan shapes and entry buffer parities.
        master = np.random.default_rng(20240807)
        fused_runs = 0
        for trial in range(150):
            plans = _random_plans(master)
            seed = int(master.integers(0, 2**31))
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
            if trial % 3 == 0:
                # Pre-seed a pending spare half-word in both generators.
                ra.integers(0, [7])
                rb.integers(0, [7])
            legacy = _legacy_column_draws(ra, plans)
            fused = fused_column_draws(rb, plans)
            if fused is None:  # Lemire rejection: fallback must be exact too
                for count, cdf, highs in plans:
                    cats = cdf.searchsorted(rb.random(count), side="right")
                    if count:
                        rb.integers(0, highs[cats])
                assert ra.bit_generator.state == rb.bit_generator.state
                continue
            fused_runs += 1
            for (lc, ld), (fc, fd) in zip(legacy, fused):
                np.testing.assert_array_equal(lc, fc)
                np.testing.assert_array_equal(ld, fd)
            assert ra.bit_generator.state == rb.bit_generator.state
        assert fused_runs > 100  # the fused path, not the fallback, was exercised

    def test_singleton_pool_returns_none_with_state_untouched(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        plans = [(8, np.array([0.5, 1.0]), np.array([1, 5], dtype=np.int64))]
        assert fused_column_draws(rng, plans) is None
        assert rng.bit_generator.state == before

    def test_64bit_bound_returns_none_with_state_untouched(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        plans = [(8, np.array([1.0]), np.array([2**33], dtype=np.int64))]
        assert fused_column_draws(rng, plans) is None
        assert rng.bit_generator.state == before

    def test_non_pcg64_returns_none(self):
        rng = np.random.Generator(np.random.MT19937(5))
        plans = [(8, np.array([1.0]), np.array([5], dtype=np.int64))]
        assert fused_column_draws(rng, plans) is None

    def test_lemire_rejection_returns_none_with_state_untouched(self):
        # high = 2**32 * 2/3 rejects ~1/3 of words; hunt a seed that hits
        # the rejection region and assert the exact bail-out contract.
        high = (2**32 * 2) // 3
        plans = [(16, np.array([1.0]), np.array([high], dtype=np.int64))]
        saw_rejection = False
        for seed in range(200):
            rng = np.random.default_rng(seed)
            before = rng.bit_generator.state
            if fused_column_draws(rng, plans) is None:
                saw_rejection = True
                assert rng.bit_generator.state == before
                break
        assert saw_rejection

    def test_empty_and_zero_count_plans(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert fused_column_draws(rng, []) == []
        assert rng.bit_generator.state == before
        plans = [(0, np.array([1.0]), np.array([5], dtype=np.int64)),
                 (4, np.array([1.0]), np.array([5], dtype=np.int64))]
        result = fused_column_draws(rng, plans)
        assert result is not None
        assert result[0][0].size == 0 and result[0][1].size == 0
        assert result[1][0].size == 4 and result[1][1].size == 4

    def test_prescreened_skips_screen_but_matches_legacy(self):
        master = np.random.default_rng(7)
        plans = _random_plans(master, lo=2)
        seed = 99
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        legacy = _legacy_column_draws(ra, plans)
        fused = fused_column_draws(rb, plans, prescreened=True)
        assert fused is not None
        for (lc, ld), (fc, fd) in zip(legacy, fused):
            np.testing.assert_array_equal(lc, fc)
            np.testing.assert_array_equal(ld, fd)
        assert ra.bit_generator.state == rb.bit_generator.state

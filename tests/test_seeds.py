"""The cohort seed hash against its oracle, NumPy's SeedSequence and default_rng."""

import numpy as np
import pytest

from fedsim import _seeds


class TestSeedWords:
    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("n_words", [1, 2, 4, 5, 8])
    def test_matches_seed_sequence_on_every_row(self, k, n_words):
        # rows longer than the pool of four take the extra-word path
        rng = np.random.default_rng(100 * k + n_words)
        entropy = rng.integers(0, 1 << 32, (25, k), dtype=np.uint64).astype(np.uint32)
        entropy[0] = 0
        entropy[1] = 0xFFFFFFFF
        expected = [np.random.SeedSequence(row.tolist()).generate_state(n_words) for row in entropy]
        np.testing.assert_array_equal(_seeds.seed_words(entropy.T, n_words).T, expected)

    @pytest.mark.parametrize("value", [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) + 3, 3 ** 100])
    def test_int_words_split_as_seed_sequence_splits(self, value):
        words = _seeds.int_words(value)
        assert sum(w << (32 * i) for i, w in enumerate(words)) == value
        np.testing.assert_array_equal(np.random.SeedSequence(words).generate_state(3), np.random.SeedSequence(value).generate_state(3))


class TestPcg64States:
    SEEDS = [0, 1, 12345, (1 << 32) - 1, 1 << 32, (1 << 63) - 1, 1 << 63, (1 << 63) + 987654321, (1 << 64) - 1]

    def test_match_default_rng_for_every_seed(self):
        # one entropy word below 2**32, two from there on
        states = _seeds.pcg64_states(np.array(self.SEEDS, dtype=np.uint64))
        for seed, state in zip(self.SEEDS, states):
            assert state == np.random.default_rng(seed).bit_generator.state

    def test_a_reused_generator_draws_what_default_rng_draws(self):
        rng = np.random.default_rng(2026)
        seeds = np.concatenate([rng.integers(0, 1 << 32, 20, dtype=np.uint64), rng.integers(1 << 63, (1 << 64) - 1, 20, dtype=np.uint64)])
        bit_generator = np.random.PCG64(0)
        reused = np.random.Generator(bit_generator)
        for seed, state in zip(seeds.tolist(), _seeds.pcg64_states(seeds)):
            bit_generator.state = state
            np.testing.assert_array_equal(reused.permutation(37), np.random.default_rng(seed).permutation(37))

import random

import pytest

from toruscollapse.stats import ks_two_sample


class TestKS:
    def test_identical_samples(self):
        a = [i / 100 for i in range(100)]
        d, p = ks_two_sample(a, a)
        assert d == 0.0 and p == 1.0

    def test_undersized_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([0.1] * 10, [0.2] * 100)

    def test_calibration_same_distribution(self):
        # uniform vs uniform should rarely reject
        passing = 0
        reps = 40
        for seed in range(reps):
            rng = random.Random(seed)
            a = [rng.random() for _ in range(1000)]
            b = [rng.random() for _ in range(1000)]
            _, p = ks_two_sample(a, b)
            passing += p > 0.01
        assert passing >= 0.95 * reps

    def test_shifted_distribution_detected(self):
        rng = random.Random(1)
        a = [rng.random() for _ in range(1000)]
        b = [rng.random() * 0.8 + 0.2 for _ in range(1000)]
        _, p = ks_two_sample(a, b)
        assert p < 1e-6

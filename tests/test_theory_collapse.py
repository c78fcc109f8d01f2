"""Unit tests for collapse dynamics (Theorem 5 machinery)."""



from repro.theory import (
    mean_walk_collapse_time,
    measure_collapse_time,
    simulate_defect_walk,
)


class TestAbstractWalk:
    def test_high_p_collapses_fast(self, rng):
        result = simulate_defect_walk(k=12, d=2, p=0.45, rng=rng, max_steps=200_000)
        assert result.collapsed
        assert result.steps < 200_000
        assert result.peak_defect >= result.threshold

    def test_low_p_survives(self, rng):
        result = simulate_defect_walk(k=48, d=2, p=0.01, rng=rng, max_steps=30_000)
        assert not result.collapsed
        assert result.peak_defect < 0.5

    def test_collapse_time_grows_with_k(self, rng):
        """Theorem 5 shape: mean collapse steps increase with k/d³."""
        means = []
        for k in (8, 12, 16):
            mean, _ = mean_walk_collapse_time(
                k=k, d=2, p=0.42, runs=10, rng=rng, max_steps=400_000
            )
            means.append(mean)
        assert means[0] < means[1] < means[2]

    def test_censoring_reported(self, rng):
        mean, censored = mean_walk_collapse_time(
            k=64, d=2, p=0.01, runs=3, rng=rng, max_steps=2_000
        )
        assert censored == 3
        assert mean == 2_000


class TestRealNetworkCollapse:
    def test_extreme_p_collapses_real_network(self):
        result = measure_collapse_time(
            k=8, d=2, p=0.6, seed=1, max_steps=3_000,
            defect_samples=40, threshold=0.5,
        )
        assert result.collapsed

    def test_small_p_does_not_collapse_quickly(self):
        result = measure_collapse_time(
            k=24, d=2, p=0.01, seed=2, max_steps=400, defect_samples=30,
        )
        assert not result.collapsed
        assert result.steps == 400

    def test_defaults_resolve_threshold(self):
        result = measure_collapse_time(
            k=24, d=2, p=0.02, seed=3, max_steps=100, defect_samples=20,
        )
        assert 0.5 < result.threshold <= 1.0

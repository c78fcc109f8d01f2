"""Unit tests for priority encoding transmission."""

import numpy as np
import pytest

from ext.pet import PETEncoder, PETLayer


@pytest.fixture
def layers(rng):
    return [
        PETLayer("base", threshold=2, data=bytes(rng.integers(0, 256, 100, dtype=np.uint8))),
        PETLayer("mid", threshold=4, data=bytes(rng.integers(0, 256, 300, dtype=np.uint8))),
        PETLayer("full", threshold=8, data=bytes(rng.integers(0, 256, 900, dtype=np.uint8))),
    ]


@pytest.fixture
def encoder(layers):
    return PETEncoder(layers, n=8)


class TestGeometry:
    def test_stripe_shape(self, encoder):
        stripes = encoder.encode()
        assert stripes.shape == (8, encoder.stripe_bytes)

    def test_overhead_reflects_redundancy(self, encoder, layers):
        # base layer is stored at n/m = 4x, full layer at 1x
        assert encoder.overhead > 1.0

    def test_validation(self, layers):
        with pytest.raises(ValueError):
            PETEncoder([], n=4)
        with pytest.raises(ValueError):
            PETEncoder(layers, n=4)  # threshold 8 > n
        with pytest.raises(ValueError):
            PETEncoder([layers[0], layers[0]], n=8)  # duplicate names
        with pytest.raises(ValueError):
            PETLayer("x", threshold=0, data=b"")


class TestStaircase:
    def test_decodable_layers(self, encoder):
        assert encoder.decodable_layers(1) == []
        assert encoder.decodable_layers(2) == ["base"]
        assert encoder.decodable_layers(5) == ["base", "mid"]
        assert encoder.decodable_layers(8) == ["base", "mid", "full"]

    @pytest.mark.parametrize("received,expected", [(2, 1), (4, 2), (8, 3)])
    def test_decode_staircase(self, encoder, layers, rng, received, expected):
        stripes = encoder.encode()
        indices = sorted(int(i) for i in rng.choice(8, size=received, replace=False))
        decoded = encoder.decode(indices, stripes[indices])
        recovered = [name for name, data in decoded.items() if data is not None]
        assert len(recovered) == expected
        for layer in layers:
            if layer.threshold <= received:
                assert decoded[layer.name] == layer.data
            else:
                assert decoded[layer.name] is None

    def test_any_subset_works(self, encoder, layers, rng):
        stripes = encoder.encode()
        for _ in range(10):
            indices = sorted(int(i) for i in rng.choice(8, size=4, replace=False))
            decoded = encoder.decode(indices, stripes[indices])
            assert decoded["base"] == layers[0].data
            assert decoded["mid"] == layers[1].data

    def test_one_stripe_decodes_nothing(self, encoder):
        stripes = encoder.encode()
        decoded = encoder.decode([3], stripes[[3]])
        assert all(v is None for v in decoded.values())

    def test_threshold_one_layer_always_decodes(self, rng):
        layer = PETLayer("critical", threshold=1,
                         data=bytes(rng.integers(0, 256, 40, dtype=np.uint8)))
        encoder = PETEncoder([layer], n=6)
        stripes = encoder.encode()
        decoded = encoder.decode([5], stripes[[5]])
        assert decoded["critical"] == layer.data

    def test_shape_validation(self, encoder):
        stripes = encoder.encode()
        with pytest.raises(ValueError):
            encoder.decode([0, 1], stripes[[0]])
        with pytest.raises(ValueError):
            encoder.decode([0], stripes[[0]][:, :-1])


class TestBandwidthClasses:
    def test_class_determines_quality(self, encoder, layers, rng):
        """§5's story: a DSL peer (2 threads) gets the base layer, cable
        (4) adds the middle, T1 (8) gets everything."""
        stripes = encoder.encode()
        for units, expected in ((2, {"base"}), (4, {"base", "mid"}),
                                (8, {"base", "mid", "full"})):
            indices = sorted(int(i) for i in rng.choice(8, size=units,
                                                        replace=False))
            decoded = encoder.decode(indices, stripes[indices])
            got = {name for name, data in decoded.items() if data is not None}
            assert got == expected


class TestPETProperties:
    """Property-based: the staircase holds for arbitrary geometry."""

    def test_random_geometry_staircase(self, rng):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=25, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            n=st.integers(min_value=2, max_value=12),
            layer_count=st.integers(min_value=1, max_value=3),
        )
        def inner(seed, n, layer_count):
            local = np.random.default_rng(seed)
            layer_count = min(layer_count, n)
            thresholds = sorted(
                int(t) for t in local.choice(
                    np.arange(1, n + 1), size=layer_count, replace=False
                )
            )
            layers = [
                PETLayer(
                    f"layer{i}", threshold=t,
                    data=bytes(local.integers(0, 256, size=int(local.integers(1, 80)),
                                              dtype=np.uint8)),
                )
                for i, t in enumerate(thresholds)
            ]
            encoder = PETEncoder(layers, n=n)
            stripes = encoder.encode()
            received = int(local.integers(1, n + 1))
            indices = sorted(
                int(i) for i in local.choice(n, size=received, replace=False)
            )
            decoded = encoder.decode(indices, stripes[indices])
            for layer in layers:
                if layer.threshold <= received:
                    assert decoded[layer.name] == layer.data
                else:
                    assert decoded[layer.name] is None

        inner()

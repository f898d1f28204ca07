import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toruscollapse.lattice import (
    EnumerationLimitError,
    OrderedTuple,
    PointConfig,
    TorusConfig,
    TorusInterval,
    class_label_decode,
    class_label_encode,
    discrete_excess,
    enumerate_configs,
    enumerate_label_vectors,
    validate_ordered,
)


def cfg(*sites, n):
    return TorusConfig.from_sites(n, sites)


class TestTorusInterval:
    def test_lengths(self):
        assert TorusInterval(6, 2, 2).length == 1
        assert TorusInterval(6, 0, 5).length == 6
        assert TorusInterval(6, 4, 1).length == 4

    def test_membership_rotation_consistent(self):
        iv = TorusInterval(8, 6, 2)
        inside = [x for x in range(8) if x in iv]
        assert inside == [0, 1, 2, 6, 7]
        shifted = TorusInterval(8, 7, 3)
        assert [x for x in range(8) if x in shifted] == sorted((x + 1) % 8 for x in inside)

    def test_rejects_bad_sites(self):
        with pytest.raises(ValueError):
            TorusInterval(4, 4, 0)


class TestExcess:
    def test_identical_configs_zero(self):
        e = cfg(1, 3, n=5)
        for a in range(5):
            for b in range(5):
                assert discrete_excess(e, e, TorusInterval(5, a, b)) == 0

    def test_single_site(self):
        e1 = cfg(0, 3, n=6)
        e2 = cfg(1, 2, 5, n=6)
        assert discrete_excess(e1, e2, TorusInterval(6, 0, 0)) == 1

    def test_full_ring_is_count_difference(self):
        e1 = cfg(0, 3, n=6)
        e2 = cfg(1, 2, 5, n=6)
        assert discrete_excess(e1, e2, TorusInterval(6, 0, 5)) == -1

    @given(st.data())
    def test_additivity(self, data):
        n = data.draw(st.integers(2, 10))
        bits1 = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        bits2 = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        e1, e2 = TorusConfig(bits1), TorusConfig(bits2)
        a = data.draw(st.integers(0, n - 1))
        span = data.draw(st.integers(1, n - 1))
        cut = data.draw(st.integers(0, span - 1))
        c = (a + span) % n
        b = (a + cut) % n
        whole = discrete_excess(e1, e2, TorusInterval(n, a, c))
        left = discrete_excess(e1, e2, TorusInterval(n, a, b))
        right = discrete_excess(e1, e2, TorusInterval(n, (b + 1) % n, c))
        assert whole == left + right


class TestLabels:
    def test_two_class_example(self):
        t = [TorusConfig([1, 0, 0]), TorusConfig([1, 1, 0])]
        assert class_label_encode(t) == (1, 2, 0)

    def test_one_class(self):
        assert class_label_encode([TorusConfig([0, 1])]) == (0, 1)

    def test_three_class_example(self):
        t = [
            TorusConfig([0, 0, 0, 1]),
            TorusConfig([0, 1, 0, 1]),
            TorusConfig([1, 1, 0, 1]),
        ]
        assert class_label_encode(t) == (3, 2, 0, 1)

    def test_rejects_unordered(self):
        with pytest.raises(ValueError, match="site 1"):
            class_label_encode([TorusConfig([1, 1]), TorusConfig([1, 0])])

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3)])
    def test_roundtrip_exhaustive(self, n, k):
        for labels in itertools.product(range(k + 1), repeat=n):
            parts = class_label_decode(labels, k)
            assert class_label_encode(parts) == labels


class TestTorusConfig:
    @pytest.mark.parametrize("bits", [[0, 2], [0, -1]])
    def test_rejects_non_binary_occupation(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            TorusConfig(bits)

    def test_bytes_occupation(self):
        c = TorusConfig([1, 0, 1])
        assert c.occupied == b"\x01\x00\x01" and c.count == 2
        assert c == TorusConfig(b"\x01\x00\x01") == cfg(0, 2, n=3)


class TestValidateOrdered:
    def test_configs(self):
        ok, _ = validate_ordered([TorusConfig([1, 0]), TorusConfig([1, 1])])
        assert ok
        ok, why = validate_ordered([TorusConfig([1, 1]), TorusConfig([1, 0])])
        assert not ok and "site 1" in why

    def test_points(self):
        a = PointConfig([Fraction(1, 4)])
        b = PointConfig([Fraction(1, 4), Fraction(1, 2)])
        assert validate_ordered([a, b])[0]
        assert not validate_ordered([b, a])[0]

    def test_measures(self):
        from toruscollapse.measures import TorusMeasure

        half = TorusMeasure.constant(Fraction(1, 2))
        one = TorusMeasure.lebesgue()
        assert validate_ordered([half, one])[0]
        assert not validate_ordered([one, half])[0]

    def test_ordered_tuple_rejects(self):
        with pytest.raises(ValueError):
            OrderedTuple([TorusConfig([1, 1]), TorusConfig([1, 0])])


class TestEnumeration:
    def test_config_count(self):
        assert len(list(enumerate_configs(6, 2))) == 15

    def test_label_count(self):
        # multinomial 4! / (1! 1! 2!)
        assert len(list(enumerate_label_vectors(4, (1, 1)))) == 12

    def test_refuses_large(self):
        with pytest.raises(EnumerationLimitError):
            list(enumerate_configs(13, 2))
        with pytest.raises(EnumerationLimitError):
            list(enumerate_label_vectors(13, (1,)))
        with pytest.raises(EnumerationLimitError):
            # (k+1)^N above the state cap even though N itself is allowed
            list(enumerate_label_vectors(12, (4, 4, 4)))


class TestPointConfig:
    def test_distinct_sorted(self):
        p = PointConfig([Fraction(3, 4), Fraction(1, 4)])
        assert p.points == (Fraction(1, 4), Fraction(3, 4))
        with pytest.raises(ValueError):
            PointConfig([Fraction(1, 4), Fraction(1, 4)])

    def test_range_check(self):
        with pytest.raises(ValueError):
            PointConfig([Fraction(5, 4)])

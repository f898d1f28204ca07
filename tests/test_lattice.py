import itertools
import random
from fractions import Fraction

import pytest

from toruscollapse.dynamics import had_simulate
from toruscollapse.lattice import (
    POINT_GRID,
    EnumerationLimitError,
    OrderedTuple,
    PointConfig,
    TorusConfig,
    class_label_encode,
    compositions,
    enumerate_configs,
    random_points,
)

from oracles import class_label_decode


def cfg(*sites, n):
    return TorusConfig.from_sites(n, sites)


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

    def test_rejects_empty_tuple(self):
        with pytest.raises(ValueError, match="at least one configuration"):
            class_label_encode(())

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3)])
    def test_roundtrip_exhaustive(self, n, k):
        for labels in itertools.product(range(k + 1), repeat=n):
            parts = class_label_decode(labels, k)
            assert class_label_encode(parts) == labels


class TestTorusConfig:
    @pytest.mark.parametrize("bits", [[0, 2], [0, -1], [0.7, 1.2, 1], ["1", "0"]])
    def test_rejects_non_binary_occupation(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            TorusConfig(bits)

    def test_bytes_occupation(self):
        c = TorusConfig([1, 0, 1])
        assert c.occupied == b"\x01\x00\x01" and c.count == 2
        assert c == TorusConfig(b"\x01\x00\x01") == cfg(0, 2, n=3)


class TestOrderedTuple:
    def test_configs(self):
        OrderedTuple([TorusConfig([1, 0]), TorusConfig([1, 1])])
        with pytest.raises(ValueError, match="^ordering violated: parts 0,1: site 1$"):
            OrderedTuple([TorusConfig([1, 1]), TorusConfig([1, 0])])
        with pytest.raises(ValueError, match="^ordering violated: parts 0,1: ring sizes differ$"):
            OrderedTuple([TorusConfig([1, 0]), TorusConfig([1, 0, 0])])

    def test_points(self):
        a = PointConfig([Fraction(1, 4)])
        b = PointConfig([Fraction(1, 4), Fraction(1, 2)])
        OrderedTuple([a, b])
        with pytest.raises(ValueError, match="^ordering violated: parts 0,1: point 1/2 not included$"):
            OrderedTuple([b, a])
        with pytest.raises(ValueError, match="^ordering violated: parts 0,1: point 1/3 not included$"):
            OrderedTuple([PointConfig([Fraction(1, 3)]), b])

    def test_measures(self):
        from toruscollapse.measures import TorusMeasure

        half = TorusMeasure.constant(Fraction(1, 2))
        one = TorusMeasure.constant(1)
        OrderedTuple([half, one])
        with pytest.raises(ValueError, match="^ordering violated: parts 0,1: density 1 > 1/2"):
            OrderedTuple([one, half])
        # the witness names the first violation in exact terms, whatever
        # common denominators the pair is compared over
        thirds = TorusMeasure([0, Fraction(1, 3)], [Fraction(1, 5), Fraction(3, 4)])
        fifths = TorusMeasure(
            [0, Fraction(1, 5), Fraction(2, 3)], [Fraction(1, 4), Fraction(1, 2), 1]
        )
        light = TorusMeasure([0], [0], [(Fraction(2, 7), Fraction(1, 7))])
        heavy = TorusMeasure([0], [0], [(Fraction(2, 7), Fraction(3, 7))])
        cases = [
            ([thirds, fifths], "parts 0,1: density 3/4 > 1/2 on cell starting at 1/3"),
            ([light, heavy, one.add(light)], "parts 1,2: atom at 2/7: 3/7 > 1/7"),
            ([TorusMeasure([0], [0], [(Fraction(5, 7), Fraction(1, 3))]), one], "parts 0,1: atom at 5/7: 1/3 > 0"),
        ]
        for parts, why in cases:
            with pytest.raises(ValueError) as refused:
                OrderedTuple(parts)
            assert str(refused.value) == f"ordering violated: {why}"

    def test_an_ordered_tuple_is_taken_as_it_is(self):
        # it can only be built checked, so it is not checked again
        t = OrderedTuple([TorusConfig([1, 0]), TorusConfig([1, 1])])
        assert OrderedTuple(t) is t
        assert OrderedTuple(tuple(t)) == t and OrderedTuple(tuple(t)) is not t

    def test_unsupported_part_type(self):
        with pytest.raises(TypeError, match="unsupported part type"):
            OrderedTuple([(0, 1), (1, 1)])

    # each entry point that takes an ordered tuple refuses a disordered one
    # with the message of OrderedTuple itself
    @pytest.mark.parametrize(
        "refuse, parts, why",
        [
            (OrderedTuple, [TorusConfig([1, 1]), TorusConfig([1, 0])], "site 1"),
            (class_label_encode, [TorusConfig([1, 1]), TorusConfig([1, 0])], "site 1"),
            (OrderedTuple, [PointConfig(["1/2"]), PointConfig(["1/4"])], "point 1/2 not included"),
            (
                lambda parts: had_simulate(parts, 5.0, random.Random(1)),
                [PointConfig(["1/2"]), PointConfig(["1/4"])],
                "point 1/2 not included",
            ),
        ],
        ids=["OrderedTuple-configs", "class_label_encode", "OrderedTuple-points", "had_simulate"],
    )
    def test_every_entry_point_refuses_with_one_message(self, refuse, parts, why):
        with pytest.raises(ValueError) as refused:
            refuse(parts)
        assert str(refused.value) == f"ordering violated: parts 0,1: {why}"


class TestEnumeration:
    def test_config_count(self):
        assert len(list(enumerate_configs(6, 2))) == 15

    @pytest.mark.parametrize("total,parts,cap", [(0, 1, None), (5, 1, 4), (4, 3, None), (6, 4, 2), (7, 3, 3)])
    def test_compositions_are_the_sorted_capped_tuples(self, total, parts, cap):
        top = total if cap is None else cap
        want = [c for c in itertools.product(range(top + 1), repeat=parts) if sum(c) == total]
        assert list(compositions(total, parts, cap)) == want

    def test_refuses_large(self):
        with pytest.raises(EnumerationLimitError):
            list(enumerate_configs(13, 2))


class TestPointConfig:
    def test_distinct_sorted(self):
        p = PointConfig([Fraction(3, 4), Fraction(1, 4)])
        assert p.points == (Fraction(1, 4), Fraction(3, 4))
        mixed = PointConfig(["1/2", 0, Fraction(1, 4)])
        assert mixed.points == (Fraction(0), Fraction(1, 4), Fraction(1, 2))
        assert all(type(x) is Fraction for x in mixed.points)
        for dup in ([Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 2), 0, "1/2"]):
            with pytest.raises(ValueError, match="distinct"):
                PointConfig(dup)

    def test_range_check(self):
        for bad in ([Fraction(5, 4)], [Fraction(-1, 4), Fraction(1, 2)], [Fraction(1, 4), 1]):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                PointConfig(bad)

    def test_floats_refused(self):
        # 0.1 would otherwise become 3602879701896397/2^55
        with pytest.raises(ValueError, match="is a float"):
            PointConfig([0.1])

    def test_canonical_form(self):
        half = [PointConfig(["2/4"]), PointConfig([Fraction(1, 2)]), PointConfig.on_grid(8, [4])]
        for p in half:
            assert p == half[0] and hash(p) == hash(half[0])
            assert (p.grid, p.nums) == (2, (1,))
        assert PointConfig.on_grid(6, [0, 2, 3]) == PointConfig([0, "1/3", "1/2"])
        assert PointConfig.on_grid(8, []) == PointConfig([])
        assert PointConfig([]).grid == 1

    def test_on_grid_refuses_unsorted_or_out_of_range(self):
        with pytest.raises(ValueError, match="increase"):
            PointConfig.on_grid(8, [3, 1])
        with pytest.raises(ValueError, match="distinct"):
            PointConfig.on_grid(8, [1, 1])
        for nums in ([-1, 2], [2, 8]):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                PointConfig.on_grid(8, nums)
        for grid in (0, -4):
            with pytest.raises(ValueError, match="positive"):
                PointConfig.on_grid(grid, [])

    @pytest.mark.parametrize("k,seed", [(0, 1), (1, 2), (50, 3), (400, 4)])
    def test_random_points_are_sorted_distinct_grid_draws(self, k, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        draws: set[int] = set()
        while len(draws) < k:
            draws.add(ref.getrandbits(53))
        pts = random_points(k, rng)
        assert pts.points == tuple(Fraction(d, POINT_GRID) for d in sorted(draws))
        assert rng.getrandbits(64) == ref.getrandbits(64)

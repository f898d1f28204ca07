import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toruscollapse import measures, rate
from toruscollapse.collapse import CollapseError, collapse_measure, queue_collapse
from toruscollapse.lattice import OrderedTuple
from toruscollapse.measures import (
    ClosedArc,
    TorusMeasure,
    concave_envelope,
    merge_pair,
    pair_plateaus,
    refined_cells,
)
from toruscollapse.rate import (
    DP_EXTRA_LEVELS,
    EntropyKernel,
    _cell_code,
    _envelope_integral,
    _plateau_dp_min,
    contraction_identity_check,
    lattice_measures,
    MAX_DECAY_SITES,
    ldp_decay_exact,
    minimizer_rho1,
    minimizer_rho2,
    nonconvexity_certificate,
    s1,
    s2,
    s2_oracle,
    s3_recursive,
    sk_oracle,
)
from toruscollapse.suites import random_lattice_triple, random_ordered_pair

from oracles import (
    covers,
    cumulative,
    knotted,
    on_arc,
    preimage_conditions,
    reference_s3_recursive,
    reference_sk_oracle,
)

F = Fraction


def h(x, m):
    out = 0.0
    if x > 0:
        out += x * math.log(x / m)
    if x < 1:
        out += (1 - x) * math.log((1 - x) / (1 - m))
    return out


def midpoint_integral(rho, kernel, cuts=(), keep=lambda mid: True):
    """Reference integrator: cut rho's cells at `cuts` and sum
    cell_length * kernel(density at the midpoint) over the cells whose
    midpoint `keep` accepts."""
    total = 0.0
    for lo, hi, mid in refined_cells([*rho.breakpoints, *cuts]):
        if keep(mid):
            total += float(hi - lo) * kernel(rho.density_at(mid))
    return total


def midpoint_s2(r1, r2, k1, k2):
    """(complement, plateau terms, second layer) of the two-layer rate by
    midpoint probes: each plateau's envelope is built with from_cells and
    integrated over the cells whose midpoints lie on the plateau."""
    plateau = pair_plateaus(merge_pair(r1, r2))
    cuts = [p for arc in plateau.intervals for p in (arc.lo, arc.hi)]
    complement = midpoint_integral(r1, k1, cuts, lambda mid: not covers(plateau, mid))
    terms = []
    for arc in plateau.intervals:
        knots = concave_envelope(cumulative(r1, arc)).knots
        env = TorusMeasure.from_cells(
            ((arc.lo + t0) % 1, (arc.lo + t1) % 1, (v1 - v0) / (t1 - t0))
            for (t0, v0), (t1, v1) in zip(knots, knots[1:])
        )
        terms.append(midpoint_integral(env, k1, (arc.lo, arc.hi), lambda mid, a=arc: on_arc(a, mid)))
    return complement, terms, midpoint_integral(r2, k2)


class TestKernels:
    def test_exclusion_nonnegative_zero_at_m(self):
        k = EntropyKernel("tasep", F(1, 3))
        for i in range(0, 33):
            x = F(i, 32)
            assert k(x) >= 0
            assert (k(x) == 0) == (x == F(1, 3)) or abs(k(x)) < 1e-15
        assert k(F(1, 3)) == 0.0 and k(F(1, 2)) != 0.0

    def test_exclusion_out_of_range_infinite(self):
        k = EntropyKernel("tasep", F(1, 2))
        assert k(F(3, 2)) == math.inf and k(F(-1, 2)) == math.inf

    def test_point_kernel_values(self):
        k = EntropyKernel("had", F(1, 2))
        assert k(0) == 0.0
        assert k(F(1, 2)) == 0.0
        assert k(F(1, 4)) < 0  # pointwise negative below m
        assert k(2) > 0

    def test_strict_convexity_midpoints(self):
        for fam, lo, hi in [("tasep", 0, 1), ("had", 0, 3)]:
            k = EntropyKernel(fam, F(1, 2))
            for i in range(1, 16):
                for j in range(i + 1, 17):
                    a, b = lo + (hi - lo) * F(i, 17), lo + (hi - lo) * F(j, 17)
                    assert k((a + b) / 2) < (k(a) + k(b)) / 2 + 1e-12

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            EntropyKernel("tasep", F(3, 2))
        with pytest.raises(ValueError):
            EntropyKernel("had", 0)


class TestS1:
    def test_constant_profile_zero(self):
        for fam in ("tasep", "had"):
            k = EntropyKernel(fam, F(1, 3))
            assert s1(TorusMeasure.constant(F(1, 3)), k) == 0.0

    def test_half_indicator_log2(self):
        k = EntropyKernel("tasep", F(1, 2))
        val = s1(TorusMeasure.indicator(0, F(1, 2)), k)
        assert abs(val - math.log(2)) < 1e-14

    def test_wrong_mass_infinite(self):
        k = EntropyKernel("tasep", F(1, 2))
        assert s1(TorusMeasure.constant(F(1, 4)), k) == math.inf

    def test_atoms_infinite(self):
        k = EntropyKernel("had", F(1, 2))
        assert s1(TorusMeasure.from_atoms([F(1, 4)], F(1, 2)), k) == math.inf

    def test_excluded_density_infinite(self):
        k = EntropyKernel("tasep", F(1, 2))
        rho = TorusMeasure.indicator(0, F(1, 4), 2)  # density 2 > 1
        assert s1(rho, k) == math.inf

    def test_point_family_functional_nonnegative_on_mass_shell(self):
        rng = random.Random(0)
        k = EntropyKernel("had", F(1, 2))
        for _ in range(40):
            cells = 4
            units = [rng.randint(0, 4) for _ in range(cells)]
            total = sum(units)
            if total == 0:
                continue
            dens = [F(u * cells, total * 2) for u in units]  # mass 1/2
            rho = TorusMeasure([F(i, cells) for i in range(cells)], dens)
            assert rho.total_mass == F(1, 2)
            assert s1(rho, k) >= -1e-15


PAPER_RHO1 = TorusMeasure.indicator(F(1, 4), F(1, 2))
PAPER_RHO2 = TorusMeasure.indicator(F(1, 4), 1)


class TestS2:
    def test_constant_pair_zero(self):
        res = s2(TorusMeasure.constant(F(1, 4)), TorusMeasure.constant(F(3, 4)), F(1, 4), F(3, 4))
        assert res.value == 0.0 and res.exact_zero

    def test_worked_instance_value(self):
        res = s2(PAPER_RHO1, PAPER_RHO2, F(1, 4), F(3, 4))
        expected = (
            0.25 * h(0, 0.75)
            + 0.75 * h(1, 0.75)
            + 0.5 * h(0.5, 0.25)
            + 0.5 * h(0, 0.25)
        )
        assert res.finite and abs(res.value - expected) < 1e-13
        assert res.envelope_densities[0] == TorusMeasure.indicator(0, F(1, 2), F(1, 2))

    def test_infinite_off_domain(self):
        m1, m2 = F(1, 4), F(3, 4)
        # unordered
        assert not s2(PAPER_RHO2.scale(F(1, 3)), PAPER_RHO1, F(1, 4), F(1, 4), "tasep").finite
        # atoms
        atom = TorusMeasure([0], [0], [(F(1, 8), m1)])
        assert not s2(atom, PAPER_RHO2, m1, m2).finite
        # wrong mass
        assert not s2(PAPER_RHO1, PAPER_RHO2, F(1, 3), m2).finite
        # density above one for the exclusion family
        tall = TorusMeasure.indicator(0, F(1, 8), 2)
        wide = tall.add(TorusMeasure.constant(F(1, 2)))
        assert not s2(tall, wide, tall.total_mass, wide.total_mass, "tasep").finite
        # the same pair is admissible for the point family
        assert s2(tall, wide, tall.total_mass, wide.total_mass, "had").finite

    def test_diagonal_equal_masses(self):
        rho = TorusMeasure.indicator(0, F(1, 2))
        res = s2(rho, rho, F(1, 2), F(1, 2))
        assert res.diagonal and res.finite
        assert abs(res.value - s1(rho, EntropyKernel("tasep", F(1, 2)))) < 1e-15
        other = TorusMeasure.indicator(F(1, 4), F(3, 4))
        assert not s2(rho, other, F(1, 2), F(1, 2)).finite

    def test_plateaus_build_no_measure(self, monkeypatch):
        # s2 keeps each plateau's envelope as a cumulative in ints and
        # builds no measure from Fractions; the envelope densities are built
        # from those ints on read, and are the densities of the Fraction hulls
        rng = random.Random(29)
        cases = [(fam, *random_ordered_pair(rng, family=fam)) for fam in ("tasep", "had") * 10]
        built, init = [], measures.TorusMeasure.__init__

        def counted_build(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(measures.TorusMeasure, "__init__", counted_build)
        results = [s2(r1, r2, r1.total_mass, r2.total_mass, fam) for fam, r1, r2 in cases]
        densities = [res.envelope_densities for res in results]
        assert built == []
        monkeypatch.undo()
        assert sum(len(res.envelopes) for res in results) > 20
        for res, envs in zip(results, densities):
            assert len(envs) == len(res.plateau.cumulatives)
            for Fc, env in zip(res.plateau.cumulatives, envs):
                lo, knots = Fc.base.lo, reference_concave_envelope(Fc.knots)
                assert env == TorusMeasure.from_cells(
                    ((lo + t0) % 1, (lo + t1) % 1, (v1 - v0) / (t1 - t0))
                    for (t0, v0), (t1, v1) in zip(knots, knots[1:])
                )

    def test_value_nonnegative_random(self):
        rng = random.Random(17)
        for _ in range(60):
            pair = _ordered_pair(rng)
            if pair is None:
                continue
            r1, r2 = pair
            res = s2(r1, r2, r1.total_mass, r2.total_mass)
            assert res.value >= -1e-12
            assert res.exact_zero == (
                r1 == TorusMeasure.constant(r1.total_mass)
                and r2 == TorusMeasure.constant(r2.total_mass)
            )

    def test_oracle_agreement_random(self):
        rng = random.Random(23)
        for fam in ("tasep", "had"):
            done = 0
            while done < 15:
                pair = _ordered_pair(rng, family=fam)
                if pair is None:
                    continue
                r1, r2 = pair
                closed = s2(r1, r2, r1.total_mass, r2.total_mass, fam).value
                oracle = s2_oracle(r1, r2, r1.total_mass, r2.total_mass, fam)
                assert abs(closed - oracle) <= 1e-3
                done += 1

    def test_second_layer_lower_bound(self):
        # the pair rate dominates the one-layer rate of the total profile,
        # with equality exactly at the collapsed constant first layer
        rng = random.Random(29)
        for _ in range(20):
            pair = _ordered_pair(rng)
            if pair is None:
                continue
            r1, r2 = pair
            m1, m2 = r1.total_mass, r2.total_mass
            res = s2(r1, r2, m1, m2)
            base = s1(r2, EntropyKernel("tasep", m2))
            assert res.value >= base - 1e-12

    def test_entropy_difference_depends_only_on_mass(self):
        k1 = EntropyKernel("tasep", F(1, 4))
        k2 = EntropyKernel("tasep", F(2, 3))
        rng = random.Random(31)
        # two densities with the same mass on [0, 1/2]: equal differences
        for _ in range(20):
            u = [rng.randint(0, 4) for _ in range(4)]
            tot = sum(u)
            if tot == 0:
                continue
            dens_a = [F(u_, tot) for u_ in u]   # mass 1/4 on four cells of 1/8
            rng.shuffle(u)
            dens_b = [F(u_, tot) for u_ in u]
            cells = [F(i, 8) for i in range(4)]
            diff_a = sum(F(1, 8) * F(k2(d) - k1(d)) for d in dens_a)
            diff_b = sum(F(1, 8) * F(k2(d) - k1(d)) for d in dens_b)
            assert abs(diff_a - diff_b) < 1e-12

    def test_gengivkan_split(self):
        # difference of the pair rate and the first-layer rate equals the
        # complement and envelope integrals taken with the bigger parameter
        rng = random.Random(37)
        for _ in range(15):
            pair = _ordered_pair(rng)
            if pair is None:
                continue
            r1, r2 = pair
            m1, m2 = r1.total_mass, r2.total_mass
            res = s2(r1, r2, m1, m2)
            lhs = res.value - s1(r1, EntropyKernel("tasep", m1))
            k2 = EntropyKernel("tasep", m2)
            cuts = [p for a in res.plateau.intervals for p in (a.lo, a.hi)]
            rhs = midpoint_integral(r2, k2, cuts, lambda mid: not covers(res.plateau, mid))
            for arc, env in zip(res.plateau.intervals, res.envelope_densities):
                rhs += midpoint_integral(env, k2, (arc.lo, arc.hi), lambda mid, a=arc: on_arc(a, mid))
            assert rhs >= -1e-12
            assert abs(lhs - rhs) < 1e-12


def _ordered_pair(rng, cells=8, family="tasep"):
    bps = [F(i, cells) for i in range(cells)]
    d1, d2 = [], []
    for _ in range(cells):
        a = rng.randint(0, 12) if family == "tasep" else rng.randint(0, 24)
        if rng.random() < 0.45:
            b = a
        else:
            cap = 16 - a if family == "tasep" else 12
            b = a + rng.randint(1, max(1, cap))
        d1.append(F(a, 16))
        d2.append(F(b, 16))
    r1, r2 = TorusMeasure(bps, d1), TorusMeasure(bps, d2)
    if r1.total_mass >= r2.total_mass:
        return None
    return r1, r2


@st.composite
def small_ordered_pairs(draw):
    """(family, rho1, rho2): an ordered absolutely continuous pair on at most
    six equal cells, densities in 16ths (at most 1 for the exclusion family),
    masses inside the family's kernel domain."""
    family = draw(st.sampled_from(("tasep", "had")))
    cells = draw(st.integers(1, 6))
    top = 16 if family == "tasep" else 32
    lo = draw(st.lists(st.integers(0, top), min_size=cells, max_size=cells))
    hi = [a + draw(st.integers(0, top - a)) for a in lo]
    bps = [F(i, cells) for i in range(cells)]
    r1 = TorusMeasure(bps, [F(a, 16) for a in lo])
    r2 = TorusMeasure(bps, [F(b, 16) for b in hi])
    m1, m2 = r1.total_mass, r2.total_mass
    assume(0 < m1 < m2 and (family == "had" or m2 < 1))
    return family, r1, r2


def rotated(rho, shift):
    """The density rho turned rightward by shift."""
    cells = sorted(((b + shift) % 1, d) for b, d in zip(rho.breakpoints, rho.densities))
    return TorusMeasure([b for b, _ in cells], [d for _, d in cells])


@st.composite
def rotated_ordered_pairs(draw):
    """small_ordered_pairs turned by a multiple of 1/48, so that plateaus
    may wrap through 0."""
    family, r1, r2 = draw(small_ordered_pairs())
    shift = F(draw(st.integers(0, 47)), 48)
    return family, rotated(r1, shift), rotated(r2, shift)


class TestS2Properties:
    @given(rotated_ordered_pairs())
    @example(
        (
            "tasep",  # one plateau, wrapping through 0
            TorusMeasure([F(i, 4) for i in range(4)], [F(1, 2), 0, 0, F(1, 2)]),
            TorusMeasure([F(i, 4) for i in range(4)], [F(1, 2), F(1, 4), F(1, 4), F(1, 2)]),
        )
    )
    @example(
        (
            "had",  # one plateau, [7/8, 3/8], with the origin inside it
            rotated(TorusMeasure([F(i, 4) for i in range(4)], [F(3, 2), 0, 2, F(1, 2)]), F(1, 8)),
            rotated(TorusMeasure([F(i, 4) for i in range(4)], [F(3, 2), 1, F(5, 2), F(1, 2)]), F(1, 8)),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_plateau_cumulatives_match_oracle(self, case):
        # one cumulative serves both profiles: they agree on a plateau
        _, r1, r2 = case
        for Fc in pair_plateaus(merge_pair(r1, r2)).cumulatives:
            assert Fc == cumulative(r1, Fc.base) == cumulative(r2, Fc.base)

    @given(small_ordered_pairs())
    @settings(max_examples=150, deadline=None)
    def test_value_nonnegative(self, case):
        family, r1, r2 = case
        res = s2(r1, r2, r1.total_mass, r2.total_mass, family)
        assert res.value >= 0
        # on one cell or equal densities either layer may be constant
        assert res.exact_zero == (
            r1 == TorusMeasure.constant(r1.total_mass) and r2 == TorusMeasure.constant(r2.total_mass)
        )

    @given(small_ordered_pairs())
    @example(
        (
            "tasep",  # one plateau, wrapping through 0
            TorusMeasure([F(i, 4) for i in range(4)], [F(1, 2), 0, 0, F(1, 2)]),
            TorusMeasure([F(i, 4) for i in range(4)], [F(1, 2), F(1, 4), F(1, 4), F(1, 2)]),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_midpoint_reference(self, case):
        family, r1, r2 = case
        m1, m2 = r1.total_mass, r2.total_mass
        k1, k2 = EntropyKernel(family, m1), EntropyKernel(family, m2)
        res = s2(r1, r2, m1, m2, family)
        complement, terms, second = midpoint_s2(r1, r2, k1, k2)
        assert res.plateau == pair_plateaus(merge_pair(r1, r2))
        assert abs(res.complement_integral - complement) <= 1e-12
        assert len(res.plateau_integrals) == len(terms)
        for got, want in zip(res.plateau_integrals, terms):
            assert abs(got - want) <= 1e-12
        assert abs(res.second_layer_integral - second) <= 1e-12
        assert abs(res.value - (complement + sum(terms) + second)) <= 1e-12
        for arc, env in zip(res.plateau.intervals, res.envelope_densities):
            hull = concave_envelope(cumulative(r1, arc))
            assert env.total_mass == hull.knots[-1][1]  # nothing off the arc
            for (t0, v0), (t1, v1) in zip(hull.knots, hull.knots[1:]):
                assert env.density_at(arc.lo + (t0 + t1) / 2) == (v1 - v0) / (t1 - t0)

    @given(small_ordered_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, case):
        # 1e-3: the tolerance of criterion 6 and of the benchmark's oracle check
        family, r1, r2 = case
        closed = s2(r1, r2, r1.total_mass, r2.total_mass, family).value
        oracle = s2_oracle(r1, r2, r1.total_mass, r2.total_mass, family)
        assert abs(closed - oracle) <= 1e-3


def reference_kernel(family, m, x):
    """The relative-entropy kernel in Fractions: the reference for
    EntropyKernel's int evaluation."""
    if family == "tasep":
        if x < 0 or x > 1:
            return math.inf
        out = 0.0
        if x > 0:
            out += float(x) * math.log(x / m)
        if x < 1:
            out += float(1 - x) * math.log((1 - x) / (1 - m))
        return out
    if x < 0:
        return math.inf
    if x == 0:
        return 0.0
    return float(x) * math.log(x / m)


def reference_plateau_dp_min(F_, family, m, bounded):
    """The plateau DP in Fractions, levels and slopes included: the
    reference for the int DP of _plateau_dp_min."""
    knots = F_.knots
    n = len(knots) - 1
    T = F_.knots[-1][1]
    positions = [t for t, _ in knots]
    fvals = [v for _, v in knots]
    levels = []
    for j in range(n + 1):
        vals = {fvals[j]}
        for a in range(j + 1):
            for b in range(j, n + 1):
                if positions[a] == positions[b]:
                    continue
                chord = fvals[a] + (fvals[b] - fvals[a]) * (
                    positions[j] - positions[a]
                ) / (positions[b] - positions[a])
                if fvals[j] <= chord <= T:
                    vals.add(chord)
        if T > fvals[j]:
            step = (T - fvals[j]) / DP_EXTRA_LEVELS
            for l in range(DP_EXTRA_LEVELS + 1):
                vals.add(fvals[j] + step * l)
        levels.append(sorted(vals))
    levels[0] = [F(0)]
    levels[n] = [T]
    dp = {F(0): 0.0}
    for j in range(n):
        seg = positions[j + 1] - positions[j]
        nxt = {}
        for v, cost in dp.items():
            for w in levels[j + 1]:
                if w < v:
                    continue
                slope = (w - v) / seg
                if bounded and slope > 1:
                    continue
                c = cost + float(seg) * reference_kernel(family, m, slope)
                if c < nxt.get(w, math.inf):
                    nxt[w] = c
        dp = nxt
    return dp.get(T, math.inf)


def reference_concave_envelope(knots):
    """The upper hull of a nondecreasing cumulative's (offset, value)
    knots, in Fractions: the reference for concave_envelope on ints."""
    hull = []
    for p in knots:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def reference_envelope_integral(knots, family, m):
    """The kernel integral of the slopes of a piecewise-linear cumulative,
    in Fractions: the reference for _envelope_integral on ints."""
    segs = [(t1 - t0, v1 - v0) for (t0, v0), (t1, v1) in zip(knots, knots[1:])]
    return sum((float(dt) * reference_kernel(family, m, dv / dt) for dt, dv in segs), 0.0)


# knot offsets and values over denominators that do not divide each other
MIXED = st.sampled_from([3, 7, 16, 48])


@st.composite
def plateau_cumulatives(draw):
    """(family, m, F): a nondecreasing cumulative on up to six segments with
    knots over mixed denominators, some segments flat (the last one too),
    and a kernel mass in the family's domain."""
    family = draw(st.sampled_from(("tasep", "had")))
    den = draw(MIXED)
    m = F(draw(st.integers(1, den - 1 if family == "tasep" else 2 * den)), den)
    offsets = draw(
        st.sets(MIXED.flatmap(lambda d: st.integers(1, d).map(lambda k: F(k, d))), min_size=1, max_size=6)
    )
    knots, value, prev = [(F(0), F(0))], F(0), F(0)
    for t in sorted(offsets):
        slope = draw(MIXED.flatmap(lambda d: st.integers(0, 2 * d).map(lambda k: F(k, d))))
        value += slope * (t - prev)
        knots.append((t, value))
        prev = t
    return family, m, knotted(ClosedArc(F(0), prev), knots)


class TestIntDp:
    @given(
        st.sampled_from(("tasep", "had")),
        MIXED.flatmap(lambda d: st.integers(1, d - 1).map(lambda k: F(k, d))),
        st.integers(-3, 100).flatmap(lambda k: MIXED.map(lambda d: F(k, d))),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_fraction_kernel(self, family, m, x):
        assert repr(EntropyKernel(family, m)(x)) == repr(reference_kernel(family, m, x))

    @given(plateau_cumulatives())
    @example(
        ("tasep", F(1, 3), knotted(ClosedArc(F(0), F(1, 2)), [(F(0), F(0)), (F(1, 2), F(0))])),
    )
    @example(  # a slope of exactly one is admissible for the exclusion family
        ("tasep", F(1, 3), knotted(ClosedArc(F(0), F(3, 7)), [(F(0), F(0)), (F(3, 7), F(3, 7))])),
    )
    @example(  # a slope above one cannot be avoided: infinite for the exclusion family
        ("tasep", F(1, 2), knotted(ClosedArc(F(0), F(1, 7)), [(F(0), F(0)), (F(1, 7), F(2, 7))])),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_dp_bit_for_bit(self, case):
        family, m, F_ = case
        got = _plateau_dp_min(F_, EntropyKernel(family, m))
        # the reference bounds slopes by its own rule: at most 1 for exclusion
        want = reference_plateau_dp_min(F_, family, m, bounded=(family == "tasep"))
        assert repr(got) == repr(want)

    @given(plateau_cumulatives())
    @settings(max_examples=300, deadline=None)
    def test_envelope_matches_fraction_hull_bit_for_bit(self, case):
        family, m, F_ = case
        env = concave_envelope(F_)
        want = reference_concave_envelope(F_.knots)
        assert env == knotted(F_.base, want)
        assert list(env.knots) == want
        got = _envelope_integral(env, EntropyKernel(family, m))
        assert got.hex() == reference_envelope_integral(want, family, m).hex()

    @pytest.mark.parametrize("family", ["tasep", "had"])
    def test_plateau_envelopes_match_fraction_hull_bit_for_bit(self, family):
        # the cumulatives s2 reads: one per plateau of a merged pair
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            r1, r2 = random_ordered_pair(rng, family=family)
            k1 = EntropyKernel(family, r1.total_mass)
            for F_ in pair_plateaus(merge_pair(r1, r2)).cumulatives:
                env, want = concave_envelope(F_), reference_concave_envelope(F_.knots)
                assert list(env.knots) == want
                got = _envelope_integral(env, k1)
                assert got.hex() == reference_envelope_integral(want, family, k1.m).hex()
                checked += 1
        assert checked > 100


class TestPreimage:
    def test_fixed_point_in_preimage(self):
        assert preimage_conditions(PAPER_RHO1, PAPER_RHO1, PAPER_RHO2)

    def test_envelope_patch_in_preimage(self):
        # envelope density on the plateau, the first profile elsewhere
        patched = TorusMeasure.from_cells([(0, F(1, 2), F(1, 2))])
        assert preimage_conditions(patched, PAPER_RHO1, PAPER_RHO2)
        got, _ = collapse_measure(patched, PAPER_RHO2)
        assert got == PAPER_RHO1

    def test_mass_violation_rejected(self):
        bad = TorusMeasure.constant(F(1, 3))
        assert not preimage_conditions(bad, PAPER_RHO1, PAPER_RHO2)

    def test_domination_violation_rejected(self):
        # correct masses but bunched too far right inside the plateau
        bad = TorusMeasure.indicator(F(3, 8), F(1, 2), 2)
        assert not preimage_conditions(bad, PAPER_RHO1, PAPER_RHO2)
        assert collapse_measure(bad, PAPER_RHO2)[0] != PAPER_RHO1

    def test_endpoint_mass_violation_rejected(self):
        # two plateaus; global mass is right but one plateau is underfilled
        quarters = [F(i, 4) for i in range(4)]
        rho2 = TorusMeasure(quarters, [1, F(1, 2), 1, F(1, 2)])
        rho1 = TorusMeasure(quarters, [1, 0, 1, 0])
        bad = TorusMeasure(quarters, [F(1, 2), 0, F(3, 2), 0])
        assert preimage_conditions(rho1, rho1, rho2)
        assert not preimage_conditions(bad, rho1, rho2)
        assert collapse_measure(bad, rho2)[0] != rho1

    def test_matches_collapse_on_random_candidates(self):
        rng = random.Random(41)
        checked = 0
        while checked < 30:
            pair = _ordered_pair(rng, cells=4)
            if pair is None:
                continue
            r1, r2 = pair
            units = int(r1.total_mass * 16)
            psi = rng.choice(list(lattice_measures(4, units, F(1, 16), "tasep")))
            lhs = preimage_conditions(psi, r1, r2)
            rhs = collapse_measure(psi, r2)[0] == r1
            assert lhs == rhs
            checked += 1


class TestMinimizers:
    def test_constant_total_gives_constant_first(self):
        out = minimizer_rho1(TorusMeasure.constant(F(3, 4)), F(1, 4))
        assert out == TorusMeasure.constant(F(1, 4))

    def test_first_layer_identity(self):
        rho2 = TorusMeasure.from_cells([(0, F(1, 2), F(6, 5)), (F(1, 2), 1, F(2, 5))])
        out = contraction_identity_check(rho2, "had", m_first=F(2, 5))
        assert out["first_layer_residual"] <= 1e-12

    def test_total_profile_flat_when_under(self):
        rho1 = TorusMeasure.constant(F(1, 4))
        assert minimizer_rho2(rho1, F(1, 2)) == TorusMeasure.constant(F(1, 2))

    def test_total_profile_worked_example(self):
        out = minimizer_rho2(PAPER_RHO1, F(1, 2))
        want = TorusMeasure.from_cells([(F(1, 4), F(1, 2), 1), (F(1, 2), 1, F(1, 2))])
        assert out == want

    def test_nested_stretches(self):
        rho1 = TorusMeasure.from_cells(
            [(F(3, 10), F(9, 20), 1), (F(1, 2), F(3, 5), 1)]
        )
        out = minimizer_rho2(rho1, F(11, 20))
        # the later excursion's stretch swallows the earlier one
        assert out.density_at(F(2, 10)) == 0  # first profile's value inside the stretch
        assert out.density_at(F(1, 10)) == F(11, 20)
        res = contraction_identity_check(rho1, "tasep", m_total=F(11, 20))
        assert res["total_layer_residual"] <= 1e-12

    def test_collapse_postconditions(self):
        rng = random.Random(43)
        for _ in range(15):
            pair = _ordered_pair(rng, cells=6)
            if pair is None:
                continue
            _, rho2 = pair
            m1 = rho2.total_mass / 3
            out = minimizer_rho1(rho2, m1)
            assert out.total_mass == m1
            OrderedTuple([out, rho2])  # raises unless out <= rho2

    @pytest.mark.parametrize("family", ["tasep", "had"])
    def test_total_profile_properties(self, family):
        # random profiles on coarse grids, some with an excursion through 0,
        # against total masses from just above the first-layer mass upward
        rng = random.Random(47 if family == "tasep" else 53)
        top = 12 if family == "tasep" else 36
        checked = 0
        while checked < 150:
            denom = rng.choice((7, 12, 24, 60))
            cells = rng.randint(1, min(12, denom))
            bps = sorted({0, *rng.sample(range(denom), cells - 1)})
            dens = [F(rng.randint(0, top), 12) for _ in bps]
            if rng.random() < 0.3:
                dens[0] = dens[-1] = F(top, 12)
            rho1 = TorusMeasure([F(b, denom) for b in bps], dens)
            m1 = rho1.total_mass
            cap = F(1) if family == "tasep" else m1 + 3
            if not 0 < m1 < cap - F(1, 10**6):
                continue
            step = F(1, 10**6) if rng.random() < 0.25 else (cap - m1) * F(rng.randint(1, 99), 100)
            m2 = m1 + step
            out = minimizer_rho2(rho1, m2)
            assert out.total_mass == m2
            OrderedTuple([rho1, out])  # raises unless rho1 <= out
            pair = merge_pair(rho1, out)
            m2_units = m2 * (pair.mass_den // pair.grid_den)
            assert all(d2 in (d1, m2_units) for d1, d2 in zip(pair.dens1, pair.dens2))
            res = contraction_identity_check(rho1, family, m_total=m2)
            assert res["total_layer_residual"] <= 1e-12
            checked += 1

    def test_mass_ordering_required(self):
        with pytest.raises(ValueError):
            minimizer_rho1(TorusMeasure.constant(F(1, 4)), F(1, 2))
        with pytest.raises(ValueError):
            minimizer_rho2(TorusMeasure.constant(F(1, 2)), F(1, 4))


class TestNonconvexity:
    def test_margins(self):
        cert = nonconvexity_certificate(cs=(F(0), F(9, 10), F(999, 1000), F(1)))
        assert abs(cert["margins"][F(0)]) < 1e-12
        assert abs(cert["margins"][F(1)]) < 1e-12
        assert cert["margins"][F(999, 1000)] < 0
        assert cert["limit_defect"] < 0
        # margin approaches the limiting defect from above
        assert cert["margins"][F(999, 1000)] > cert["limit_defect"]


class TestLdpDecay:
    def test_typical_profile_decays_to_zero(self):
        rows = ldp_decay_exact([F(1, 2), F(1, 2)], [100, 1000, 10000])
        assert rows[0]["rate"] == 0.0
        decays = [abs(r["decay"]) for r in rows]
        assert decays[0] > decays[1] > decays[2]

    def test_two_bin_profile(self):
        rows = ldp_decay_exact([F(1, 2), F(0)], [100, 1000, 10000])
        for r in rows:
            assert abs(r["gap"]) <= r["bound"]
        gaps = [abs(r["gap"]) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_unrealizable_profile_rejected(self):
        with pytest.raises(ValueError):
            ldp_decay_exact([F(1, 2), F(0)], [50])  # 25 sites per bin, 12.5 particles

    def test_no_bins_rejected(self):
        with pytest.raises(ValueError, match="at least one bin"):
            ldp_decay_exact([], [100])

    @pytest.mark.parametrize(
        "sizes,message",
        [
            ([MAX_DECAY_SITES + 2], "exceed the cap"),
            ([MAX_DECAY_SITES // 2 + 2] * 2, "exceed the cap"),
            # a size below one cannot lower the sum under the cap
            ([10**7, -(10**7)], "at least 1"),
        ],
    )
    def test_sizes_over_the_cap_refused_before_any_binomial(self, monkeypatch, sizes, message):
        monkeypatch.setattr(rate.math, "comb", None)
        with pytest.raises(ValueError, match=message):
            ldp_decay_exact([F(1, 2), F(0)], sizes)

    @pytest.mark.parametrize("dens", [[F(0), F(0)], [F(1)] * 3])
    def test_mean_outside_the_open_unit_refused_before_any_binomial(self, monkeypatch, dens):
        # the one-layer rate at the profile's mass exists only for 0 < m < 1
        monkeypatch.setattr(rate.math, "comb", None)
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            ldp_decay_exact(dens, [30])

    def test_sizes_summing_to_the_cap_admitted(self, monkeypatch):
        monkeypatch.setattr(rate, "MAX_DECAY_SITES", 1100)
        assert [r["n"] for r in ldp_decay_exact([F(1, 2), F(0)], [100, 1000])] == [100, 1000]
        with pytest.raises(ValueError, match="exceed the cap of 1100 sites"):
            ldp_decay_exact([F(1, 2), F(0)], [100, 1002])


def _typed(result):
    """An oracle's result with its value as the float's repr."""
    return {**result, "value": repr(result["value"])}


QUARTERS = [F(i, 4) for i in range(4)]
# the unit vectors (densities in quarters) of the benchmark's three triples
BENCH_TRIPLES = [
    [TorusMeasure(QUARTERS, [F(u, 4) for u in units]) for units in triple]
    for triple in (
        ((1, 2, 1, 2), (2, 2, 1, 2), (2, 3, 1, 2)),
        ((0, 2, 2, 1), (1, 2, 2, 2), (3, 2, 3, 2)),
        ((2, 1, 2, 2), (2, 2, 2, 4), (3, 2, 3, 4)),
    )
]


def _eighth_triples(count, seed=3):
    """Seeded random lattice triples whose cell masses are multiples of
    1/8, so each is its own preimage on the 1/8 lattice."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        *triple, _ = random_lattice_triple(rng)
        if all((2 * d).denominator == 1 for r in triple for d in r.densities):
            out.append(triple)
    return out


def _sixteenth_triples(count, seed=11):
    """The first `count` random lattice triples of a seeded generator, as
    the recursion suite draws them: their own preimages on the 1/16
    lattice."""
    rng = random.Random(seed)
    return [list(random_lattice_triple(rng)[:3]) for _ in range(count)]


def _off_grid_triples(count, seed=5):
    """Seeded triples that have a preimage on the 1/16 lattice of four
    cells by construction, with a last layer cut at eighths and so off
    that lattice's cells: random lattice layers p1 and p2 pushed through
    the collapse, [kept(kept(p1, p2), last), kept(p2, last), last].  All
    masses lie strictly between 0 and 1 and increase."""
    rng, out = random.Random(seed), []
    eighths = [F(i, 8) for i in range(8)]

    def kept(a, b):
        return collapse_measure(a, b)[0]

    while len(out) < count:
        # densities in halves on cells of eighths: a mass in sixteenths
        last = TorusMeasure(eighths, [F(rng.randint(0, 2), 2) for _ in eighths])
        m3 = int(last.total_mass * 16)
        if not 2 < m3 < 16:
            continue
        u1 = rng.randint(1, m3 - 2)
        u2 = rng.randint(u1 + 1, m3 - 1)
        p1 = rng.choice(list(lattice_measures(4, u1, F(1, 16), "tasep")))
        p2 = rng.choice(list(lattice_measures(4, u2, F(1, 16), "tasep")))
        out.append([kept(kept(p1, p2), last), kept(p2, last), last])
    return out


class TestOraclesAgainstReferences:
    """The pruned oracles give the unpruned references' whole results: a
    pin drops only candidates whose collapse cannot reproduce the target."""

    @pytest.mark.parametrize(
        "triple, quantum",
        [(t, F(1, 8)) for t in _eighth_triples(6)] + [(t, F(1, 16)) for t in BENCH_TRIPLES],
    )
    def test_whole_results_match(self, triple, quantum):
        for rhos in (triple, triple[1:], triple[::2]):
            want = reference_sk_oracle(rhos, "tasep", quantum, 4)
            assert _typed(sk_oracle(rhos, "tasep", quantum, 4)) == _typed(want)
        want = reference_s3_recursive(triple, "tasep", quantum, 4)
        assert _typed(s3_recursive(triple, "tasep", quantum, 4)) == _typed(want)

    @pytest.mark.parametrize("triple", _eighth_triples(6))
    def test_point_family_results_match(self, triple):
        quantum = F(1, 8)
        for rhos in (triple, triple[1:], triple[::2]):
            want = reference_sk_oracle(rhos, "had", quantum, 4)
            assert _typed(sk_oracle(rhos, "had", quantum, 4)) == _typed(want)
        want = reference_s3_recursive(triple, "had", quantum, 4)
        assert _typed(s3_recursive(triple, "had", quantum, 4)) == _typed(want)

    @pytest.mark.parametrize("family", ["tasep", "had"])
    @pytest.mark.parametrize("triple", _sixteenth_triples(40))
    def test_recursion_suite_triples_match(self, triple, family):
        quantum = F(1, 16)
        for rhos in (triple, triple[1:], triple[::2]):
            want = reference_sk_oracle(rhos, family, quantum, 4)
            assert _typed(sk_oracle(rhos, family, quantum, 4)) == _typed(want)
        want = reference_s3_recursive(triple, family, quantum, 4)
        assert _typed(s3_recursive(triple, family, quantum, 4)) == _typed(want)

    @pytest.mark.parametrize("family", ["tasep", "had"])
    @pytest.mark.parametrize("triple", _off_grid_triples(20))
    def test_off_grid_triples_match(self, triple, family):
        quantum = F(1, 16)
        for j, rhos in enumerate((triple, triple[1:], triple[::2])):
            got = sk_oracle(rhos, family, quantum, 4)
            assert _typed(got) == _typed(reference_sk_oracle(rhos, family, quantum, 4))
            # (p1, p2) is a preimage of the triple, and p2 of its last pair
            assert j == 2 or got["feasible_count"] >= 1
        want = reference_s3_recursive(triple, family, quantum, 4)
        assert _typed(s3_recursive(triple, family, quantum, 4)) == _typed(want)


class TestDyadicLadder:
    """The 1/16, 1/32 and 1/64 lattices nest, so every candidate of a rung
    is a candidate of the next, at the same cost: each route's value is
    non-increasing from rung to rung."""

    @pytest.mark.parametrize("family", ["tasep", "had"])
    @pytest.mark.parametrize("route", [sk_oracle, s3_recursive])
    def test_each_route_is_non_increasing(self, route, family):
        for triple in _sixteenth_triples(10):
            values = [route(triple, family, F(1, 2**j), 4)["value"] for j in (4, 5, 6)]
            assert values == sorted(values, reverse=True), values


class TestJointLadder:
    """Four cells at quantum 1/16 and eight at 1/32 both step densities by
    1/4, and eight at 1/64 by 1/8, so every candidate of a rung is one of
    the next, at the same cost: each route's value is non-increasing from
    rung to rung."""

    # the third rung takes about 2 s on triple 3 and 30 s on triple 0
    @pytest.mark.parametrize("index, depth", [pytest.param(0, 2, id="0"), pytest.param(3, 3, id="3")])
    def test_each_route_is_non_increasing(self, index, depth):
        triple = _sixteenth_triples(index + 1)[index]
        rungs = [(4, F(1, 16)), (8, F(1, 32)), (8, F(1, 64))][:depth]
        values = {
            route.__name__: [route(triple, "tasep", q, cells)["value"] for cells, q in rungs]
            for route in (sk_oracle, s3_recursive)
        }
        gaps = [abs(a - b) for a, b in zip(values["sk_oracle"], values["s3_recursive"])]
        for name, ladder in values.items():
            assert ladder == sorted(ladder, reverse=True), f"{name}: {ladder}; gap per rung {gaps}"


class TestQueueRule:
    @pytest.mark.parametrize("family", ["tasep", "had"])
    def test_cell_queue_equals_the_measure_queue(self, family):
        # lattice pairs on 1 to 12 cells, a quarter of them of equal masses:
        # the queue on cell quanta is J at every cell start, and its cell
        # code names the collapse (equal codes, equal measures, and
        # different codes, different measures) over psi and up to six
        # neighbours one moved quantum away
        rng, moves = random.Random(31), random.Random(32)
        shared = 0
        for _ in range(300):
            cells, per_cell = rng.randint(1, 12), rng.randint(1, 4)
            quantum = F(1, cells * per_cell)
            # the exclusion cap: a cell holds at most per_cell quanta
            top = per_cell if family == "tasep" else 3 * per_cell
            under = [rng.randint(0, top) for _ in range(cells)]
            units = sum(under) if rng.random() < 0.25 else rng.randint(0, sum(under))
            psi = [0] * cells
            for _ in range(units):
                psi[rng.choice([c for c in range(cells) if psi[c] < top])] += 1

            def measure(quanta):
                return TorusMeasure([F(c, cells) for c in range(cells)], [n * quantum * cells for n in quanta])

            under_m = measure(under)
            profile = collapse_measure(measure(psi), under_m)[1]
            # J at cell c's start is the queue length after cell c - 1
            lengths = queue_collapse(psi, under)[1]
            for c in range(cells):
                assert lengths[c - 1] * quantum == profile.at(F(c, cells)), (psi, under, c)
            steps = [(i, j) for i in range(cells) for j in range(cells) if psi[i] and psi[j] < top and i != j]
            others = [psi]
            for i, j in moves.sample(steps, min(6, len(steps))):
                other = list(psi)
                other[i] -= 1
                other[j] += 1
                others.append(other)
            named = {}
            for other in others:
                code = _cell_code(other, under, queue_collapse(other, under)[0])
                named.setdefault(code, set()).add(collapse_measure(measure(other), under_m)[0])
            assert all(len(kept) == 1 for kept in named.values()), (psi, under)
            assert len(set().union(*named.values())) == len(named), (psi, under)
            shared += len(others) - len(named)
        # the codes are not merely the candidates: some collapses are shared
        assert shared > 0

    @pytest.mark.parametrize("route", [sk_oracle, s3_recursive])
    def test_decreasing_masses_refused(self, route):
        # the first layer is one quantum heavier than the middle layer
        quarters = [F(i, 4) for i in range(4)]
        triple = [
            TorusMeasure(quarters, [F(u, 4) for u in units])
            for units in ((2, 2, 1, 2), (1, 2, 1, 2), (2, 3, 1, 2))
        ]
        with pytest.raises(CollapseError, match="masses must be nondecreasing"):
            route(triple, "tasep", F(1, 16), 4)
        if route is sk_oracle:
            with pytest.raises(CollapseError, match="masses must be nondecreasing"):
                route(triple[:2], "tasep", F(1, 16), 4)

    @pytest.mark.parametrize(
        "route, layers, atomic",
        [
            (sk_oracle, "r2 r3", 1),
            (sk_oracle, "r2 r2 r3", 2),
            (sk_oracle, "r3 r3", 0),
            (s3_recursive, "r2 r2 r3", 2),
            (s3_recursive, "r3 r3 r3", 0),
        ],
    )
    def test_layers_with_atoms_refused(self, route, layers, atomic):
        # r3 is r2 plus an atom: its rate is infinite, which no quantized
        # profile charges (unrefused, sk_oracle gave 0.1327 on r2 r3)
        quarters = [F(i, 4) for i in range(4)]
        dens = [F(1, 4), F(1, 4), 0, F(1, 4)]
        r = {"r2": TorusMeasure(quarters, dens), "r3": TorusMeasure(quarters, dens, [(F(1, 2), F(1, 16))])}
        assert not s2(r["r2"], r["r3"], F(3, 16), F(1, 4), "tasep").finite
        with pytest.raises(ValueError, match=rf"layer rhos\[{atomic}\] has atoms"):
            route([r[name] for name in layers.split()], "tasep", F(1, 16), 4)

    def test_equal_masses_admitted(self):
        quarters = [F(i, 4) for i in range(4)]
        first, last = (
            TorusMeasure(quarters, [F(u, 4) for u in units]) for units in ((1, 2, 1, 2), (2, 3, 1, 2))
        )
        for rhos in ([first, first, last], [first, last, last], [last, last]):
            want = reference_sk_oracle(rhos, "tasep", F(1, 16), 4)
            assert _typed(sk_oracle(rhos, "tasep", F(1, 16), 4)) == _typed(want)
        for rhos in ([first, first, last], [first, last, last]):
            want = reference_s3_recursive(rhos, "tasep", F(1, 16), 4)
            assert _typed(s3_recursive(rhos, "tasep", F(1, 16), 4)) == _typed(want)


class TestMultilayerOracle:
    def test_constant_tuple_zero(self):
        cells, q = 4, F(1, 16)
        rhos = [
            TorusMeasure.constant(F(1, 4)),
            TorusMeasure.constant(F(1, 2)),
            TorusMeasure.constant(F(3, 4)),
        ]
        out = sk_oracle(rhos, "tasep", q, cells)
        assert abs(out["value"]) < 1e-12

    def test_two_layer_matches_closed_form(self):
        cells, q = 4, F(1, 16)
        bps = [F(i, cells) for i in range(cells)]
        r1 = TorusMeasure(bps, [F(1, 2), F(1, 2), 0, 0])
        r2 = TorusMeasure(bps, [F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
        out = sk_oracle([r1, r2], "tasep", q, cells)
        closed = s2(r1, r2, r1.total_mass, r2.total_mass).value
        assert abs(out["value"] - closed) <= 1e-3

    def test_recursion_consistency(self):
        cells, q = 4, F(1, 16)
        bps = [F(i, cells) for i in range(cells)]
        r1 = TorusMeasure(bps, [F(1, 4), F(1, 2), F(1, 4), 0])
        r2 = TorusMeasure(bps, [F(1, 2), F(3, 4), F(1, 4), F(1, 2)])
        r3 = TorusMeasure(bps, [F(1, 2), 1, F(3, 4), F(3, 4)])
        direct = sk_oracle([r1, r2, r3], "tasep", q, cells)
        rec = s3_recursive([r1, r2, r3], "tasep", q, cells)
        assert abs(direct["value"] - rec["value"]) <= 1e-2
        assert direct["near_minimizers"] >= 1

    def test_known_gap_closes_under_refinement(self):
        # on this triple the two routes differ by 0.0222 at quantum 1/16,
        # more than criterion 11's 1e-2; on the finer lattice they agree
        quarters = [F(i, 4) for i in range(4)]
        triple = [
            TorusMeasure(quarters, [F(u, 4) for u in units])
            for units in ((1, 2, 1, 2), (2, 2, 1, 2), (2, 3, 1, 2))
        ]
        gaps = []
        for quantum in (F(1, 16), F(1, 32)):
            direct = sk_oracle(triple, "tasep", quantum, 4)
            gaps.append(abs(direct["value"] - s3_recursive(triple, "tasep", quantum, 4)["value"]))
        coarse, fine = gaps
        assert coarse > 1e-2
        assert fine <= coarse and fine <= 1e-2
        assert (direct["near_minimizers"], direct["feasible_count"]) == (4, 1839)

    def test_collapses_are_compared_as_forms(self, monkeypatch):
        # sk_oracle at 1/32 on the known triple runs the measure queue 545
        # times, once per distinct cell code of a middle-layer candidate's
        # collapse onto the last layer and twice per distinct cell code of
        # an intermediate, and compares the collapses on their stored ints:
        # no measure is built from Fractions
        counts = {"queue": 0, "measures": 0}
        queue, build = rate.collapse_measure, measures.TorusMeasure.__init__

        def counted_queue(*args):
            counts["queue"] += 1
            return queue(*args)

        def counted_build(self, *args):
            counts["measures"] += 1
            build(self, *args)

        triple = BENCH_TRIPLES[0]  # the known triple
        monkeypatch.setattr(rate, "collapse_measure", counted_queue)
        monkeypatch.setattr(measures.TorusMeasure, "__init__", counted_build)
        sk_oracle(triple, "tasep", F(1, 32), 4)
        assert counts["queue"] == 545
        assert counts["measures"] == 0

    @pytest.mark.parametrize(
        "route, reference, count",
        [(sk_oracle, reference_sk_oracle, 51), (s3_recursive, reference_s3_recursive, 2)],
        ids=["sk_oracle", "s3_recursive"],
    )
    def test_one_measure_collapse_per_distinct_intermediate(self, monkeypatch, route, reference, count):
        # each candidate is named by the cell code of its one cell queue
        # under the layer below it: at 1/16 on the known triple sk_oracle
        # makes 51 measure collapses, where one per candidate made 325, and
        # s3_recursive 2, one per preimage pool; no candidate runs the cell
        # queue twice
        collapses, queues = [], []
        collapse, queue = rate.collapse_measure, rate.queue_collapse

        def counted_collapse(*args):
            collapses.append(args)
            return collapse(*args)

        def counted_queue(first, second):
            queues.append((tuple(first), tuple(second)))
            return queue(first, second)

        triple = BENCH_TRIPLES[0]  # the known triple
        want = reference(triple, "tasep", F(1, 16), 4)
        monkeypatch.setattr(rate, "collapse_measure", counted_collapse)
        monkeypatch.setattr(rate, "queue_collapse", counted_queue)
        assert _typed(route(triple, "tasep", F(1, 16), 4)) == _typed(want)
        assert len(collapses) == count
        assert len(queues) == len(set(queues)) > 0

    @pytest.mark.parametrize(
        "first",
        [
            [F(1, 8), F(1, 8), 0, 0],  # half a quantum on the first two cells
            [2, 0, 0, 0],  # above the exclusion cap of four quanta
        ],
    )
    def test_unreachable_pin_empties_the_pool(self, monkeypatch, first):
        # the first layer differs from the constant last layer on a cell
        # where no candidate can hold it: no candidate is collapsed
        quarters = [F(i, 4) for i in range(4)]
        pair = [TorusMeasure(quarters, first), TorusMeasure.constant(F(3, 4))]
        want = reference_sk_oracle(pair, "tasep", F(1, 16), 4)
        monkeypatch.setattr(rate, "collapse_measure", None)
        assert _typed(sk_oracle(pair, "tasep", F(1, 16), 4)) == _typed(want)
        assert want["feasible_count"] == 0

    def test_caps(self):
        with pytest.raises(ValueError):
            sk_oracle([TorusMeasure.constant(F(1, 2))] * 4, "tasep", F(1, 8), 4)
        with pytest.raises(ValueError):
            sk_oracle(
                [TorusMeasure.constant(F(1, 4)), TorusMeasure.constant(F(1, 2))],
                "tasep",
                F(1, 8),
                16,
            )
        with pytest.raises(ValueError, match="capped at 12 cells"):
            s3_recursive(
                [TorusMeasure.constant(F(k, 26)) for k in (1, 2, 3)], "tasep", F(1, 26), 13
            )

    def test_no_cells_refused(self):
        pair = [TorusMeasure.constant(F(1, 4)), TorusMeasure.constant(F(1, 2))]
        with pytest.raises(ValueError, match="at least one cell"):
            sk_oracle(pair, "tasep", F(1, 8), 0)

    def test_zero_quantum_refused(self):
        pair = [TorusMeasure.constant(F(1, 4)), TorusMeasure.constant(F(1, 2))]
        with pytest.raises(ValueError, match="quantum must be positive"):
            sk_oracle(pair, "tasep", 0, 4)

    def test_negative_quantum_refused(self):
        triple = [TorusMeasure.constant(F(k, 8)) for k in (1, 2, 3)]
        with pytest.raises(ValueError, match="quantum must be positive"):
            s3_recursive(triple, "tasep", F(-1, 8), 4)

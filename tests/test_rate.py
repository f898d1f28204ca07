import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toruscollapse.collapse import collapse_measure
from toruscollapse.measures import (
    TorusMeasure,
    concave_envelope,
    cumulative,
    measure_leq,
    merge_pair,
    plateau_set,
    refined_cells,
)
from toruscollapse.rate import (
    EntropyKernel,
    contraction_identity_check,
    lattice_measures,
    ldp_decay_exact,
    minimizer_rho1,
    minimizer_rho2,
    nonconvexity_certificate,
    preimage_conditions,
    s1,
    s2,
    s2_oracle,
    s3_recursive,
    sk_oracle,
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
    plateau = plateau_set(r1, r2)
    cuts = [p for arc in plateau.intervals for p in (arc.lo, arc.hi)]
    complement = midpoint_integral(r1, k1, cuts, lambda mid: not plateau.covers(mid))
    terms = []
    for arc in plateau.intervals:
        knots = concave_envelope(cumulative(r1, arc)).knots
        env = TorusMeasure.from_cells(
            ((arc.lo + t0) % 1, (arc.lo + t1) % 1, (v1 - v0) / (t1 - t0))
            for (t0, v0), (t1, v1) in zip(knots, knots[1:])
        )
        terms.append(midpoint_integral(env, k1, (arc.lo, arc.hi), lambda mid, a=arc: mid in a))
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
            rhs = midpoint_integral(r2, k2, cuts, lambda mid: not res.plateau.covers(mid))
            for arc, env in zip(res.plateau.intervals, res.envelope_densities):
                rhs += midpoint_integral(env, k2, (arc.lo, arc.hi), lambda mid, a=arc: mid in a)
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


class TestS2Properties:
    @given(small_ordered_pairs())
    @settings(max_examples=150, deadline=None)
    def test_value_nonnegative(self, case):
        family, r1, r2 = case
        assert s2(r1, r2, r1.total_mass, r2.total_mass, family).value >= 0

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
        assert res.plateau == plateau_set(r1, r2)
        assert abs(res.complement_integral - complement) <= 1e-12
        assert len(res.plateau_integrals) == len(terms)
        for got, want in zip(res.plateau_integrals, terms):
            assert abs(got - want) <= 1e-12
        assert abs(res.second_layer_integral - second) <= 1e-12
        assert abs(res.value - (complement + sum(terms) + second)) <= 1e-12
        for arc, env in zip(res.plateau.intervals, res.envelope_densities):
            hull = concave_envelope(cumulative(r1, arc))
            assert env.total_mass == hull.final_value  # nothing off the arc
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
            assert measure_leq(out, rho2)

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
            assert measure_leq(rho1, out)
            pair = merge_pair(rho1, out)
            assert all(d2 in (d1, m2) for d1, d2 in zip(pair.dens1, pair.dens2))
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
        rows = ldp_decay_exact([F(1, 2), F(1, 2)], F(1, 2), [100, 1000, 10000])
        assert rows[0]["rate"] == 0.0
        decays = [abs(r["decay"]) for r in rows]
        assert decays[0] > decays[1] > decays[2]

    def test_two_bin_profile(self):
        rows = ldp_decay_exact([F(1, 2), F(0)], F(1, 4), [100, 1000, 10000])
        for r in rows:
            assert abs(r["gap"]) <= r["bound"]
        gaps = [abs(r["gap"]) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_unrealizable_profile_rejected(self):
        with pytest.raises(ValueError):
            ldp_decay_exact([F(1, 2), F(0)], F(1, 4), [50])  # 25 sites per bin, 12.5 particles

    def test_wrong_mean_rejected(self):
        with pytest.raises(ValueError):
            ldp_decay_exact([F(1, 2), F(1, 2)], F(1, 4), [100])

    def test_no_bins_rejected(self):
        with pytest.raises(ValueError, match="at least one bin"):
            ldp_decay_exact([], F(1, 4), [100])


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
            direct = sk_oracle(triple, "tasep", quantum, 4)["value"]
            gaps.append(abs(direct - s3_recursive(triple, "tasep", quantum, 4)["value"]))
        coarse, fine = gaps
        assert coarse > 1e-2
        assert fine <= coarse and fine <= 1e-2

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

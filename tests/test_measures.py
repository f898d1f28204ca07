import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from toruscollapse.lattice import OrderedTuple
from toruscollapse.measures import (
    ClosedArc,
    TorusMeasure,
    concave_envelope,
    cyclic_runs,
    envelope_density,
    frac,
    merge_pair,
    pair_plateaus,
    refined_cells,
)
from toruscollapse.rate import EntropyKernel

from oracles import arc_length, covers, cumulative, interval_mass, knotted, value_at

F = Fraction


class TestConstruction:
    def test_canonical_merges_cells(self):
        a = TorusMeasure([0, F(1, 4), F(1, 2)], [1, 1, 0])
        b = TorusMeasure([0, F(1, 2)], [1, 0])
        assert a == b

    def test_origin_always_breakpoint(self):
        a = TorusMeasure([F(1, 4), F(1, 2)], [1, 0])  # wrap cell [1/2, 1/4)
        assert a.breakpoints[0] == 0
        assert a.density_at(F(7, 8)) == 0
        assert a.density_at(F(3, 8)) == 1

    def test_total_mass(self):
        rho = TorusMeasure([0, F(1, 2)], [2, 0], [(F(3, 4), F(1, 2))])
        assert rho.total_mass == F(3, 2)

    def test_whole_torus_piece(self):
        assert TorusMeasure.indicator(0, 1) == TorusMeasure.constant(1)
        assert TorusMeasure.from_cells([(F(1, 4), F(5, 4), 2)]) == TorusMeasure.constant(2)
        wrapped = TorusMeasure([0, F(1, 4), F(3, 4)], [1, 0, 1])
        assert TorusMeasure.from_cells([(F(3, 4), F(1, 4), 1)]) == wrapped

    @pytest.mark.parametrize("piece", [(0, 2, 1), (0, F(3, 2), 1), (F(1, 2), F(-3, 4), 1)])
    def test_piece_longer_than_torus_refused(self, piece):
        lo, hi, d = piece
        with pytest.raises(ValueError, match=f"piece \\({lo}, {hi}, {d}\\) is longer than the torus"):
            TorusMeasure.from_cells([piece])

    def test_membership_flags(self):
        assert TorusMeasure.constant(2).is_absolutely_continuous
        assert not TorusMeasure.from_atoms([F(1, 2)], 1).is_absolutely_continuous

    def test_from_atoms_matches_constructor(self):
        rng = random.Random(43)
        for _ in range(50):
            count = rng.randint(0, 6)
            positions = {F(rng.randint(-40, 40), rng.choice([3, 8, 12])) for _ in range(count)}
            if len({p % 1 for p in positions}) < len(positions):
                continue
            mass = F(rng.randint(1, 9), rng.choice([1, 4, 7]))
            got = TorusMeasure.from_atoms(iter(positions), mass)
            assert got == TorusMeasure([0], [0], [(p, mass) for p in positions])
        assert TorusMeasure.from_atoms([F(5, 4), -1, F(-1, 3)], F(1, 2)).atoms == (
            (0, F(1, 2)), (F(1, 4), F(1, 2)), (F(2, 3), F(1, 2))
        )

    @pytest.mark.parametrize(
        "positions,mass,message",
        [
            ([0.5], 1, "float"),
            ([F(1, 2)], 0.5, "float"),
            ([F(1, 4), F(5, 4)], 1, "atom locations must be distinct"),
            ([F(1, 4)], 0, "atom masses must be positive"),
            ([F(1, 4)], F(-1, 2), "atom masses must be positive"),
        ],
    )
    def test_from_atoms_refusals(self, positions, mass, message):
        with pytest.raises(ValueError, match=message):
            TorusMeasure.from_atoms(positions, mass)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            TorusMeasure([0], [-1])

    def test_floats_refused(self):
        with pytest.raises(ValueError, match="float"):
            TorusMeasure.constant(0.1)
        with pytest.raises(ValueError, match="float"):
            EntropyKernel("tasep", 0.25)

    def test_json_roundtrip(self):
        rho = TorusMeasure([0, F(1, 3)], [F(1, 2), F(3, 2)], [(F(1, 7), F(2, 5))])
        assert TorusMeasure.from_json_dict(rho.to_json_dict()) == rho


def reference_canonical(breakpoints, densities, atoms=()):
    """The TorusMeasure constructor in Fractions, as it was before it ran
    on int numerators: the canonical (breakpoints, densities, atoms,
    total_mass), or the ValueError it raises."""
    bps = [frac(b) % 1 for b in breakpoints]
    dens = [frac(d) for d in densities]
    if len(bps) != len(dens):
        raise ValueError("need one density per cell")
    if len(bps) == 0:
        bps, dens = [F(0)], [F(0)]
    if sorted(set(bps)) != bps:
        raise ValueError("breakpoints must be sorted and distinct")
    if any(d < 0 for d in dens):
        raise ValueError("densities must be nonnegative")
    if bps[0] != 0:
        bps = [F(0)] + bps
        dens = [dens[-1]] + dens
    cbps, cdens = [bps[0]], [dens[0]]
    for b, d in zip(bps[1:], dens[1:]):
        if d == cdens[-1]:
            continue
        cbps.append(b)
        cdens.append(d)
    ats = sorted(((frac(p) % 1, frac(m)) for p, m in atoms), key=lambda a: a[0])
    if any(m <= 0 for _, m in ats):
        raise ValueError("atom masses must be positive")
    if len({p for p, _ in ats}) != len(ats):
        raise ValueError("atom locations must be distinct")
    edges = cbps + [F(1)]
    ac = sum((edges[i + 1] - edges[i]) * d for i, d in enumerate(cdens))
    return tuple(cbps), tuple(cdens), tuple(ats), ac + sum(m for _, m in ats)


def _form(x):
    """x as a Fraction, a "p/q" string, or an int when it is integral."""
    forms = [x, f"{x.numerator}/{x.denominator}"]
    return st.sampled_from(forms + [int(x)] if x.denominator == 1 else forms)


def _over(denominators, lo, hi):
    """n/d for d drawn from `denominators` and n from [lo * d, hi * d)."""
    return st.sampled_from(denominators).flatmap(
        lambda d: st.integers(lo * d, hi * d - 1).map(lambda n: F(n, d))
    )


PLACES, DENSITIES, MASSES = [3, 7, 48, 2**53], [1, 3, 4, 7], [5, 6, 8]


@st.composite
def constructor_inputs(draw):
    """Breakpoints, densities and atoms for TorusMeasure: about half the
    draws are valid; the rest have breakpoints outside [0, 1), unsorted or
    repeated, a density count that does not match, negative densities, or
    atom masses that are not positive or atoms that share a location."""
    if draw(st.booleans()):
        bps = sorted(draw(st.sets(_over(PLACES, 0, 1), max_size=6)))
        shift = draw(st.sampled_from([0, 0, 1, -2]))
        bps = [b + shift for b in bps]
        dens = draw(st.lists(_over(DENSITIES, 0, 3), min_size=len(bps), max_size=len(bps)))
        places = draw(st.sets(_over(PLACES, 0, 1), max_size=4))
        atoms = [(p, draw(_over(MASSES, 0, 2).filter(bool))) for p in places]
    else:
        bps = draw(st.lists(_over(PLACES, -1, 2), max_size=6))
        count = draw(st.sampled_from([len(bps)] * 4 + [len(bps) + 1]))
        dens = draw(st.lists(_over(DENSITIES, -1, 3), min_size=count, max_size=count))
        # 1/3, 4/3 and -2/3 are one place of the torus
        places = st.one_of(_over(PLACES, -1, 2), st.sampled_from([F(1, 3), F(4, 3), F(-2, 3)]))
        atoms = draw(st.lists(st.tuples(places, _over(MASSES, -1, 2)), max_size=4))
    bps = [draw(_form(b)) for b in bps]
    dens = [draw(_form(d)) for d in dens]
    atoms = [(draw(_form(p)), draw(_form(m))) for p, m in atoms]
    return bps, dens, atoms


def _outcome(build, bps, dens, atoms):
    try:
        return build(bps, dens, atoms)
    except ValueError as err:
        return ("ValueError", str(err))


class TestIntConstructorAgainstFractions:
    @given(constructor_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, inputs):
        def built(bps, dens, atoms):
            rho = TorusMeasure(bps, dens, atoms)
            return rho.breakpoints, rho.densities, tuple(map(tuple, rho.atoms)), rho.total_mass

        got, want = _outcome(built, *inputs), _outcome(reference_canonical, *inputs)
        assert got == want
        if got[0] != "ValueError":
            values = [*got[0], *got[1], *(x for a in got[2] for x in a), got[3]]
            assert all(type(v) is F for v in values)

    def test_messages(self):
        cases = [
            ([0, F(1, 2)], [1], [], "need one density per cell"),
            ([F(1, 2), F(3, 2)], [1, 2], [], "breakpoints must be sorted and distinct"),
            ([F(1, 3), F(1, 7)], [1, 2], [], "breakpoints must be sorted and distinct"),
            ([0], [F(-1, 7)], [], "densities must be nonnegative"),
            ([0], [1], [(F(1, 3), 0)], "atom masses must be positive"),
            ([0], [1], [(F(1, 3), 1), (F(4, 3), 2)], "atom locations must be distinct"),
        ]
        for *args, message in cases:
            assert _outcome(reference_canonical, *args) == ("ValueError", message)
            with pytest.raises(ValueError, match=message):
                TorusMeasure(*args)


def _stored(rho):
    return (
        rho.grid,
        rho.bp_nums,
        rho.atom_nums,
        rho.dens_den,
        rho.dens_nums,
        rho.mass_den,
        rho.mass_nums,
    )


class TestForm:
    """A measure's stored ints are its canonical form."""

    @given(constructor_inputs(), st.sampled_from([1, F(1, 2), 3]))
    @settings(max_examples=100, deadline=None)
    def test_equal_forms_exactly_when_equal_measures(self, inputs, c):
        rho = _outcome(TorusMeasure, *inputs)
        assume(isinstance(rho, TorusMeasure))
        form = _stored(rho)
        g, bps, ats, dd, dens, md, masses = form
        assert all(type(x) is int for x in (g, *bps, *ats, dd, *dens, md, *masses))
        rebuilt = TorusMeasure(rho.breakpoints, rho.densities, rho.atoms)
        assert _stored(rebuilt) == form and hash(rebuilt) == hash(rho)
        assert _stored(TorusMeasure.on_grid(g, bps, dd, dens, ats, md, masses)) == form
        for other in (rho.scale(c), rho.add(rho), rho.add(TorusMeasure.indicator(0, F(1, 3)))):
            views = [(m.breakpoints, m.densities, m.atoms) for m in (rho, other)]
            assert (form == _stored(other)) == (rho == other) == (views[0] == views[1])

    def test_layout(self):
        rho = TorusMeasure([0, F(1, 3)], [F(1, 2), F(2, 3)], [(F(3, 4), F(1, 6)), (F(1, 8), 2)])
        assert _stored(rho) == (24, (0, 8), (3, 18), 6, (3, 4), 6, (12, 1))
        assert _stored(TorusMeasure.constant(0)) == (1, (0,), (), 1, (0,), 1, ())

    def test_int_constructor_checks(self):
        cases = [
            ((4, [0, 4], 1, [1, 0]), "positions must lie in \\[0, 1\\)"),
            ((4, [0], 1, [1], [4], 1, [1]), "positions must lie in \\[0, 1\\)"),
            ((4, [2, 1], 1, [1, 0]), "breakpoints must be sorted and distinct"),
            ((0, [0], 1, [1]), "denominators must be positive ints"),
            ((4, [0], 1, [-1]), "densities must be nonnegative"),
            ((4, [0], 1, [1], [1, 1], 2, [1, 1]), "atom locations must be distinct"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                TorusMeasure.on_grid(*args)
        # the split at 0, the merge of equal neighbours and the reductions
        rho = TorusMeasure.on_grid(8, [2, 4, 6], 4, [2, 2, 6], [6, 2], 6, [3, 9])
        atoms = [(F(1, 4), F(3, 2)), (F(3, 4), F(1, 2))]
        assert rho == TorusMeasure([F(1, 4), F(3, 4)], [F(1, 2), F(3, 2)], atoms)
        assert _stored(rho) == (4, (0, 1, 3), (1, 3), 2, (3, 1, 3), 2, (3, 1))


class TestIntervalMass:
    def test_lebesgue_half(self):
        assert interval_mass(TorusMeasure.constant(1), 0, F(1, 2)) == F(1, 2)

    def test_atom_boundary_right_closed(self):
        delta = TorusMeasure.from_atoms([F(1, 2)], 1)
        assert interval_mass(delta, F(1, 4), F(1, 2)) == 1
        assert interval_mass(delta, F(1, 2), F(3, 4)) == 0

    def test_density_piece(self):
        rho = TorusMeasure.indicator(F(1, 4), F(1, 2), 2)
        assert interval_mass(rho, 0, F(3, 8)) == F(1, 4)

    def test_wrap_interval(self):
        rho = TorusMeasure.indicator(F(3, 4), F(1, 4))  # wraps through 0
        assert rho.total_mass == F(1, 2)
        assert interval_mass(rho, F(7, 8), F(1, 8)) == F(1, 4)

    def test_full_circle_convention(self):
        rho = TorusMeasure.constant(F(2, 3))
        assert interval_mass(rho, F(1, 3), F(1, 3)) == F(2, 3)


class TestOrder:
    def test_constant_ordering(self):
        OrderedTuple([TorusMeasure.constant(F(1, 2)), TorusMeasure.constant(1)])
        with pytest.raises(ValueError, match="ordering violated: parts 0,1: density 1 > 1/2"):
            OrderedTuple([TorusMeasure.constant(1), TorusMeasure.constant(F(1, 2))])

    def test_atom_ordering(self):
        small = TorusMeasure.from_atoms([F(1, 2)], 1)
        big = TorusMeasure.from_atoms([F(1, 2), F(3, 4)], 1)
        OrderedTuple([small, big])  # raises unless small <= big
        shifted = TorusMeasure.from_atoms([F(1, 3)], 1)
        with pytest.raises(ValueError, match="ordering violated: parts 0,1: atom at 1/3: 1 > 0"):
            OrderedTuple([shifted, big])  # raises unless shifted <= big


class TestPlateau:
    def test_indicator_example(self):
        r1 = TorusMeasure.indicator(F(1, 4), F(1, 2))
        r2 = TorusMeasure.indicator(F(1, 4), 1)
        dec = pair_plateaus(merge_pair(r1, r2))
        assert not dec.full_torus
        assert dec.intervals == (ClosedArc(F(0), F(1, 2)),)

    def test_equal_measures_full_torus(self):
        r = TorusMeasure.indicator(F(1, 8), F(5, 8), F(1, 3))
        assert pair_plateaus(merge_pair(r, r)).full_torus

    def test_distinct_constants_empty(self):
        pair = merge_pair(TorusMeasure.constant(F(1, 3)), TorusMeasure.constant(F(2, 3)))
        dec = pair_plateaus(pair)
        assert dec.intervals == () and not dec.full_torus

    def test_wrapping_plateau(self):
        r1 = TorusMeasure.indicator(F(1, 4), F(1, 2), 1)
        r2 = TorusMeasure.indicator(F(5, 8), F(3, 4), 1).add(r1)
        dec = pair_plateaus(merge_pair(r1, r2))
        # equal everywhere except [5/8, 3/4): one interval wrapping through 0
        assert len(dec.intervals) == 1
        arc = dec.intervals[0]
        assert arc.lo == F(3, 4) and arc.hi == F(5, 8)

    def test_symmetry_and_refinement_invariance(self):
        rng = random.Random(3)
        for _ in range(30):
            bps = sorted(rng.sample([F(i, 12) for i in range(12)], rng.randint(1, 5)))
            d1 = [F(rng.randint(0, 3), 3) for _ in bps]
            d2 = [d if rng.random() < 0.5 else F(rng.randint(0, 3), 3) for d in d1]
            r1, r2 = TorusMeasure(bps, d1), TorusMeasure(bps, d2)
            a = pair_plateaus(merge_pair(r1, r2))
            b = pair_plateaus(merge_pair(r2, r1))
            assert a == b
            # refining r1's grid must not change the decomposition
            refined = TorusMeasure(
                sorted(set(bps) | {F(1, 24)}),
                [r1.density_at(b_) for b_ in sorted(set(bps) | {F(1, 24)})],
            )
            assert pair_plateaus(merge_pair(refined, r2)) == a

    def test_eq_tol(self):
        # densities are compared exactly: a difference of 1e-9 is no plateau
        r1 = TorusMeasure.constant(F(1, 2))
        r2 = TorusMeasure.constant(F(1, 2) + F(1, 10**9))
        assert pair_plateaus(merge_pair(r1, r2)).intervals == ()

    def test_complement_arcs(self):
        quarters = [F(i, 4) for i in range(4)]
        r1 = TorusMeasure(quarters, [1, 0, 1, 0])
        r2 = TorusMeasure(quarters, [1, F(1, 2), 1, F(1, 2)])
        dec = pair_plateaus(merge_pair(r1, r2))
        assert {(a.lo, a.hi) for a in dec.intervals} == {
            (F(0), F(1, 4)),
            (F(1, 2), F(3, 4)),
        }
        # the complement is the two open gaps (1/4, 1/2) and (3/4, 1)
        assert covers(dec, F(1, 8)) and covers(dec, F(1, 4)) and covers(dec, F(1, 2))
        assert not covers(dec, F(3, 8)) and not covers(dec, F(7, 8))


def plateau_cumulatives(r1, r2):
    return pair_plateaus(merge_pair(r1, r2)).cumulatives


class TestCumulative:
    """The cumulatives pair_plateaus reads off the merged pair."""

    def test_constant_density_single_segment(self):
        rho = TorusMeasure.constant(F(2, 3))
        above = TorusMeasure.from_cells([(0, F(1, 2), F(2, 3)), (F(1, 2), 1, 1)])
        (Fc,) = plateau_cumulatives(rho, above)
        assert Fc.base == ClosedArc(F(0), F(1, 2))
        assert Fc.knots == ((F(0), F(0)), (F(1, 2), F(1, 3)))

    def test_indicator_knots(self):
        rho = TorusMeasure.indicator(F(1, 4), F(1, 2))
        above = rho.add(TorusMeasure.indicator(F(1, 2), 1))
        (Fc,) = plateau_cumulatives(rho, above)
        assert Fc.base == ClosedArc(F(0), F(1, 2))
        assert Fc.knots == ((F(0), F(0)), (F(1, 4), F(0)), (F(1, 2), F(1, 4)))

    def test_knots_match_interval_mass(self):
        rng = random.Random(5)
        for _ in range(20):
            bps = sorted(rng.sample([F(i, 16) for i in range(16)], 3))
            dens = [F(rng.randint(0, 8), 4) for _ in bps]
            rho = TorusMeasure(bps, dens)
            above = rho.add(TorusMeasure.indicator(F(rng.randrange(16), 16), F(rng.randrange(16), 16)))
            for Fc in plateau_cumulatives(rho, above):
                lo = Fc.base.lo
                assert Fc.knots[0] == (0, 0)
                for t, v in Fc.knots[1:]:
                    assert v == interval_mass(rho, lo, lo + t)

    def test_wrap_arc(self):
        rho = TorusMeasure.indicator(F(3, 4), F(1, 4))
        above = rho.add(TorusMeasure.indicator(F(3, 8), F(1, 2)))
        (Fc,) = plateau_cumulatives(rho, above)
        assert Fc.base == ClosedArc(F(1, 2), F(3, 8))
        assert Fc.knots[-1][1] == interval_mass(rho, F(1, 2), F(3, 8))


def chord_sup(knots, t):
    """Independent chord-supremum oracle for the concave envelope."""
    best = None
    for i, (ta, va) in enumerate(knots):
        for tb, vb in knots[i:]:
            if ta <= t <= tb and ta < tb:
                val = va + (vb - va) * (t - ta) / (tb - ta)
                best = val if best is None or val > best else best
            elif ta == tb == t:
                val = va
                best = val if best is None or val > best else best
    return best


class TestEnvelope:
    def test_concave_input_fixed_point(self):
        rho = TorusMeasure.from_cells([(0, F(1, 2), 1), (F(1, 2), 1, F(1, 4))])
        Fc = cumulative(rho, ClosedArc(F(0), F(0) + F(1, 2)))
        assert concave_envelope(Fc) == Fc

    def test_indicator_straightens(self):
        rho = TorusMeasure.indicator(F(1, 4), F(1, 2))
        env = envelope_density(concave_envelope(cumulative(rho, ClosedArc(F(0), F(1, 2)))))
        assert env == TorusMeasure.indicator(0, F(1, 2), F(1, 2))

    def test_chord_supremum_oracle(self):
        rng = random.Random(9)
        bps = sorted(rng.sample([F(i, 40) for i in range(40)], 20))
        dens = [F(rng.randint(0, 16), 16) for _ in bps]
        rho = TorusMeasure(bps, dens)
        arc = ClosedArc(F(0), F(39, 40))
        Fc = cumulative(rho, arc)
        env = concave_envelope(Fc)
        for i in range(1000):
            t = arc_length(arc) * F(i, 1000)
            assert value_at(env, t) == chord_sup(Fc.knots, t)

    def test_idempotent_and_slopes_nonincreasing(self):
        rng = random.Random(13)
        for _ in range(25):
            bps = sorted(rng.sample([F(i, 24) for i in range(24)], rng.randint(2, 8)))
            dens = [F(rng.randint(0, 12), 12) for _ in bps]
            rho = TorusMeasure(bps, dens)
            arc = ClosedArc(F(1, 48), F(47, 48))
            env = concave_envelope(cumulative(rho, arc))
            assert concave_envelope(env) == env
            knots = env.knots
            slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(knots, knots[1:])]
            assert all(a >= b for a, b in zip(slopes, slopes[1:]))
            assert env.knots[-1][1] == cumulative(rho, arc).knots[-1][1]
            # bounded inputs stay bounded
            if all(d <= 1 for d in dens):
                assert all(0 <= s <= 1 for s in slopes)

    def test_rejects_decreasing(self):
        knots = [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 8))]
        bad = knotted(ClosedArc(F(0), F(1, 2)), knots)
        with pytest.raises(ValueError):
            concave_envelope(bad)


class TestArithmetic:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_add_masses(self, data):
        denom = 12
        nc = data.draw(st.integers(1, 4))
        bps = sorted(data.draw(st.sets(st.integers(0, denom - 1), min_size=nc, max_size=nc)))
        dens = data.draw(st.lists(st.integers(0, 5), min_size=nc, max_size=nc))
        a = TorusMeasure([F(b, denom) for b in bps], dens)
        b = TorusMeasure.constant(F(1, 3))
        assert a.add(b).total_mass == a.total_mass + b.total_mass
        assert a.scale(F(3, 2)).total_mass == a.total_mass * F(3, 2)
        assert a.scale(0) == TorusMeasure.constant(0)


def _runs_by_definition(mask):
    """Maximal cyclic runs read off the definition: a run starts at a true
    entry whose cyclic predecessor is false and extends while entries are
    true."""
    n = len(mask)
    if all(mask):
        return [(0, n)] if n else []
    runs = []
    for i in range(n):
        if mask[i] and not mask[i - 1]:
            length = 0
            while mask[(i + length) % n]:
                length += 1
            runs.append((i, length))
    return runs


class TestSharedHelpers:
    def test_cyclic_runs_every_mask_up_to_eight(self):
        for n in range(9):
            for mask in itertools.product((False, True), repeat=n):
                assert cyclic_runs(list(mask)) == _runs_by_definition(mask), mask

    def test_cyclic_runs_edge_cases(self):
        assert cyclic_runs([True] * 5) == [(0, 5)]
        assert cyclic_runs([False] * 5) == []
        assert cyclic_runs([True, False, False, True, True]) == [(3, 3)]  # wraps through 0

    def test_refined_cells(self):
        cells = refined_cells([F(1, 2), F(1, 4), F(1, 2)])
        assert cells == [
            (F(0), F(1, 4), F(1, 8)),
            (F(1, 4), F(1, 2), F(3, 8)),
            (F(1, 2), F(1), F(3, 4)),
        ]
        assert refined_cells([]) == [(F(0), F(1), F(1, 2))]

    def test_merge_pair_matches_pointwise_queries(self):
        rng = random.Random(5)
        for _ in range(200):
            rhos = []
            for _ in range(2):
                ncells = rng.randint(1, 5)
                bps = sorted(rng.sample([F(i, 12) for i in range(12)], ncells))
                dens = [F(rng.randint(0, 8), 4) for _ in range(ncells)]
                ats = {F(rng.randint(0, 23), 24): F(rng.randint(1, 4), 4) for _ in range(rng.randint(0, 3))}
                rhos.append(TorusMeasure(bps, dens, ats.items()))
            a, b = rhos
            pair = merge_pair(a, b)
            expected = sorted(
                {*a.breakpoints, *b.breakpoints, *(x.at for x in a.atoms), *(x.at for x in b.atoms)}
            )
            per_len = pair.mass_den // pair.grid_den
            assert [F(n, pair.grid_den) for n in pair.nums] == expected
            assert [F(d, per_len) for d in pair.dens1] == [a.density_at(p) for p in expected]
            assert [F(d, per_len) for d in pair.dens2] == [b.density_at(p) for p in expected]
            assert [F(m, pair.mass_den) for m in pair.atom1] == [dict(a.atoms).get(p, 0) for p in expected]
            assert [F(m, pair.mass_den) for m in pair.atom2] == [dict(b.atoms).get(p, 0) for p in expected]
            cells = sum(d * n for d, n in zip(pair.dens1, pair.lens))
            assert F(sum(pair.atom1) + cells, pair.mass_den) == a.total_mass

"""The four benchmark workloads.

Each workload makes its inputs from the seed (`make_inputs`), runs one
round of timed calls into the program (`run_round`), and checks a round's
outputs against `refs` or against properties the method must have
(`check`, which returns the problems found and the operations of a round
whose output is wrong through a known fault of the program).  Every round
makes the same calls on the same inputs, so rounds are interchangeable and
their outputs must be identical.  `counts` derives per-layer work counts
from the outputs after timing.

`tc` is a namespace holding the package's layer modules; calls go through
`Round.call(case, module, name, ...)`, which looks the function up at call
time so that a traced round sees the span-recording wrappers.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from fractions import Fraction

import refs
import speed

F = Fraction


class Round:
    """Times each call of one round; the benchmark's own work in between
    is not counted.  `times` holds each call's time at the reference host
    speed (`speed.py`), from the probe taken just before and just after
    the call."""

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.times: list[float] = []
        self.failed = 0

    def call(self, case, module, name, *args, **kwargs):
        fn = getattr(module, name)
        self.tracer.case = case
        before = self.probe.now()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # an operation that raises counts as failed
            self.failed += 1
            traceback.print_exc()
            return None
        finally:
            self.times.append(speed.at_ref(time.perf_counter() - t0, before, self.probe.now()))


def _class_vectors(n: int, k: int):
    """Every vector of k nonnegative class counts with sum at most n."""
    if k == 0:
        return [()]
    return [(c,) + rest for c in range(n + 1) for rest in _class_vectors(n - c, k - 1)]


def _nested_ring(parts, sizes) -> bool:
    occ = [p.occupied for p in parts]
    return [sum(o) for o in occ] == list(sizes) and all(
        a <= b for lo, hi in zip(occ, occ[1:]) for a, b in zip(lo, hi)
    )


def _nested_points(parts, sizes) -> bool:
    pts = [p.points for p in parts]
    return [len(p) for p in pts] == list(sizes) and all(
        set(lo) <= set(hi) for lo, hi in zip(pts, pts[1:])
    )


def _triple(m):
    """A measure as plain (breakpoints, densities, atoms) for `refs`."""
    return m.breakpoints, m.densities, [(a.at, a.mass) for a in m.atoms]


# ---------------------------------------------------------------------------
# ring-exact
# ---------------------------------------------------------------------------


class RingExact:
    """Exact stationary law on rings of 3..6 sites, then a ladder of large
    rings.  The instance list does not depend on the seed; the ladder
    pairs and the sampler's generator do."""

    name = "ring-exact"
    LADDER = (1000, 4000, 16000)
    PAIRS_PER_SIZE = 3
    SAMPLE_N, SAMPLE_CLASSES = 16000, (4000, 4000)

    def make_inputs(self, seed, tc, tr):
        rng = random.Random(seed)
        specs = [
            tc.dynamics.ProcessSpec("tasep", counts, n=n)
            for n in (3, 4, 5, 6)
            for k in (2, 3)
            for counts in _class_vectors(n, k)
        ]
        ladder = []
        with tr.span("lattice.generate"):
            for n in self.LADDER:
                for _ in range(self.PAIRS_PER_SIZE):
                    m2 = rng.randint(n // 4, 3 * n // 4)
                    m1 = rng.randint(m2 // 4, m2)
                    ladder.append(
                        (n, tc.lattice.random_config(n, m1, rng), tc.lattice.random_config(n, m2, rng))
                    )
        sample = tc.dynamics.ProcessSpec("tasep", self.SAMPLE_CLASSES, n=self.SAMPLE_N)
        return {"specs": specs, "ladder": ladder, "sample": (sample, rng.getrandbits(64))}

    def run_round(self, inp, tc, rnd):
        push, exact = [], []
        for spec in inp["specs"]:
            case = f"n{spec.n}:{','.join(map(str, spec.class_counts))}"
            push.append(rnd.call(case, tc.dynamics, "pushforward_distribution", spec))
            exact.append(rnd.call(case, tc.dynamics, "exact_stationary", spec))
        ladder = [
            rnd.call(f"n{n}", tc.collapse, "collapse_discrete", e1, e2)
            for n, e1, e2 in inp["ladder"]
        ]
        spec, sseed = inp["sample"]
        sample = rnd.call("tasep", tc.dynamics, "sample_invariant", spec, random.Random(sseed))
        return {"push": push, "exact": exact, "ladder": ladder, "sample": sample}

    def check(self, inp, out):
        bad = []
        for spec, p, e in zip(inp["specs"], out["push"], out["exact"]):
            if p is None or e is None:
                continue
            tag = f"n={spec.n} classes={spec.class_counts}"
            holes = spec.n - sum(spec.class_counts)
            states = math.factorial(spec.n) // math.prod(
                math.factorial(c) for c in spec.class_counts + (holes,)
            )
            if p.states != e.states or p.probs != e.probs:
                bad.append(f"{tag}: pushforward differs from exact_stationary")
            if len(p.states) != states or sum(p.probs) != 1 or min(p.probs) <= 0:
                bad.append(f"{tag}: pushforward is not a positive law on all {states} states")
            res = refs.balance_residual(dict(zip(p.states, p.probs)), len(spec.class_counts))
            if any(res.values()):
                bad.append(f"{tag}: nonzero balance residual")
        for (n, e1, e2), got in zip(inp["ladder"], out["ladder"]):
            if got is None:
                continue
            if list(got.occupied) != refs.queue_collapse_ring(e1.occupied, e2.occupied):
                bad.append(f"ring n={n}: collapse differs from the queue reference")
            if any(a > b for a, b in zip(got.occupied, e2.occupied)):
                bad.append(f"ring n={n}: collapse not dominated by its second argument")
        spec, _ = inp["sample"]
        if out["sample"] is not None and not _nested_ring(out["sample"], spec.layer_sizes):
            bad.append("ring sample: layers not nested or sizes changed")
        return bad, []

    def counts(self, inp, out):
        return {
            "dynamics.pushforward.tuples": sum(
                math.prod(math.comb(s.n, m) for m in s.layer_sizes) for s in inp["specs"]
            ),
            "dynamics.exact_stationary.states": sum(len(t) for t in out["exact"] if t is not None),
        }


# ---------------------------------------------------------------------------
# torus-points
# ---------------------------------------------------------------------------


class TorusPoints:
    """Points collapse ladder, the Hammersley-type invariant sampler and a
    long run of the coupled mark process on about 200 points."""

    name = "torus-points"
    LADDER = (200, 800, 1600)
    SAMPLES = ((400, 400), (800, 800))
    HAD_SIZES = (100, 200)
    HAD_HORIZON = 2000.0

    def make_inputs(self, seed, tc, tr):
        rng = random.Random(seed)
        with tr.span("lattice.generate"):
            ladder = [
                (k, tc.lattice.random_points(k, rng), tc.lattice.random_points(2 * k, rng))
                for k in self.LADDER
            ]
            full = tc.lattice.random_points(self.HAD_SIZES[1], rng)
            first = tc.lattice.PointConfig(rng.sample(full.points, self.HAD_SIZES[0]))
        samples = [
            (tc.dynamics.ProcessSpec("had", classes), rng.getrandbits(64))
            for classes in self.SAMPLES
        ]
        return {
            "ladder": ladder,
            "samples": samples,
            "had": ([first, full], self.HAD_HORIZON, rng.getrandbits(64)),
        }

    def run_round(self, inp, tc, rnd):
        ladder = [
            rnd.call(f"k{k}", tc.collapse, "collapse_points", x, y) for k, x, y in inp["ladder"]
        ]
        samples = [
            rnd.call(f"had:k{spec.layer_sizes[0]}", tc.dynamics, "sample_invariant", spec, random.Random(s))
            for spec, s in inp["samples"]
        ]
        initial, horizon, hseed = inp["had"]
        had = rnd.call(
            "had", tc.dynamics, "had_simulate", initial, horizon, random.Random(hseed), record=True
        )
        return {"ladder": ladder, "samples": samples, "had": had}

    def check(self, inp, out):
        bad = []
        for (k, x, y), got in zip(inp["ladder"], out["ladder"]):
            if got is not None and list(got.points) != refs.queue_collapse_points(x.points, y.points):
                bad.append(f"points k={k}: collapse differs from the queue reference")
        for (spec, _), got in zip(inp["samples"], out["samples"]):
            if got is not None and not _nested_points(got, spec.layer_sizes):
                bad.append(f"had sample {spec.layer_sizes}: layers not nested or sizes changed")
        if out["had"] is not None:
            initial, horizon, _ = inp["had"]
            final, events = out["had"]
            times = [t for t, _ in events]
            if not _nested_points(final, self.HAD_SIZES):
                bad.append("had_simulate: layers not nested or sizes changed")
            elif not events or times != sorted(times) or times[-1] >= horizon:
                bad.append("had_simulate: event times not increasing within the horizon")
            else:
                try:
                    want = refs.replay_marks([p.points for p in initial], [u for _, u in events])
                except ValueError as exc:
                    bad.append(f"had_simulate: {exc}")
                else:
                    if [list(p.points) for p in final] != want:
                        bad.append("had_simulate: final state differs from replaying its marks")
        return bad, []

    def counts(self, inp, out):
        return {"dynamics.had_simulate.marks": len(out["had"][1]) if out["had"] else 0}


# ---------------------------------------------------------------------------
# measure-collapse
# ---------------------------------------------------------------------------


def _cell_measure(tc, rng, cells):
    """Piecewise-constant density on `cells` uniform cells plus about
    cells/8 atoms on the half-cell grid."""
    bps = [F(i, cells) for i in range(cells)]
    dens = [F(rng.randint(0, 12), 4) for _ in range(cells)]
    atoms = {F(rng.randrange(2 * cells), 2 * cells): F(rng.randint(1, 8), 8) for _ in range(cells // 8)}
    return tc.measures.TorusMeasure(bps, dens, atoms.items())


class MeasureCollapse:
    """The measure collapse on unit-atom encodings of point sets and on
    random piecewise-constant-plus-atoms pairs."""

    name = "measure-collapse"
    ATOMS = (50, 100, 200)
    CELLS = (64, 128, 256)
    # The cost of one unit-atom pair varies by about 17% (IQR/median) with
    # the points drawn; two pairs per size keep that from dominating the
    # spread of wall_s over seeds.
    PAIRS_PER_SIZE = 2
    LEDGER_SAMPLES = 40

    def make_inputs(self, seed, tc, tr):
        rng = random.Random(seed)
        pairs = []
        with tr.span("lattice.generate"):
            points = [
                (k, tc.lattice.random_points(k, rng), tc.lattice.random_points(2 * k, rng))
                for k in self.ATOMS
                for _ in range(self.PAIRS_PER_SIZE)
            ]
        with tr.span("measures.build"):
            for k, x, y in points:
                mx = tc.measures.TorusMeasure.from_atoms(x.points, 1)
                my = tc.measures.TorusMeasure.from_atoms(y.points, 1)
                pairs.append((f"atoms:k{k}", mx, my, (x.points, y.points)))
            for cells in self.CELLS:
                for _ in range(self.PAIRS_PER_SIZE):
                    r1, r2 = _cell_measure(tc, rng, cells), _cell_measure(tc, rng, cells)
                    if r1.total_mass > r2.total_mass:
                        r1, r2 = r2, r1
                    pairs.append((f"cells:{cells}", r1, r2, None))
        ledger = []
        for _, r1, r2, _ in pairs:
            where = sorted(
                set(r1.breakpoints) | set(r2.breakpoints) | {a.at for a in r1.atoms + r2.atoms}
            )
            where += [F(rng.getrandbits(20), 2**20) for _ in range(8)]
            ledger.append([(rng.choice(where), rng.choice(where)) for _ in range(self.LEDGER_SAMPLES)])
        return {"pairs": pairs, "ledger": ledger}

    def run_round(self, inp, tc, rnd):
        return [rnd.call(case, tc.collapse, "collapse_measure", r1, r2) for case, r1, r2, _ in inp["pairs"]]

    def check(self, inp, out):
        bad = []
        for (case, r1, r2, pts), got, sample in zip(inp["pairs"], out, inp["ledger"]):
            if got is None:
                continue
            res, prof = got
            t1, t2, tr = _triple(r1), _triple(r2), _triple(res)
            if refs.interval_mass(*tr, 0, 0) != refs.interval_mass(*t1, 0, 0):
                bad.append(f"{case}: mass not conserved")
            if not refs.dominated(tr, t2):
                bad.append(f"{case}: result not dominated by the second measure")
            if pts is not None:
                want = [(p, F(1)) for p in refs.queue_collapse_points(*pts)]
                if set(tr[1]) != {0} or tr[2] != want:
                    bad.append(f"{case}: result is not the atomic embedding of the points collapse")
            for a, b in sample:
                if refs.interval_mass(*tr, a, b) != refs.interval_mass(*t1, a, b) + prof.at(a) - prof.at(b):
                    bad.append(f"{case}: ledger identity fails on ({a}, {b}]")
                    break
        return bad, []

    def counts(self, inp, out):
        done = [g for g in out if g is not None]
        values = [
            v
            for res, prof in done
            for v in (*res.breakpoints, *res.densities, *(x for a in res.atoms for x in a), *prof.values)
        ]
        return {
            "collapse.measure.grid_cells": sum(len(prof.positions) for _, prof in done),
            "measures.max_den_bits": max((v.denominator.bit_length() for v in values), default=0),
        }


# ---------------------------------------------------------------------------
# rate-oracles
# ---------------------------------------------------------------------------


def _ordered_pair(tc, rng, cells, family, denom=16):
    """Ordered density pair on uniform cells with plateau cells forced in;
    both masses inside the kernel's domain (0 < m, and m < 1 for tasep)."""
    bps = [F(i, cells) for i in range(cells)]
    while True:
        d1, d2 = [], []
        for _ in range(cells):
            a = rng.randint(0, 12) if family == "tasep" else rng.randint(0, 24)
            if rng.random() < 0.45:
                b = a
            else:
                b = a + rng.randint(1, max(1, denom - a if family == "tasep" else 12))
            d1.append(F(a, denom))
            d2.append(F(b, denom))
        m1, m2 = sum(d1) / cells, sum(d2) / cells
        if 0 < m1 < m2 and (family == "had" or m2 < 1):
            return tc.measures.TorusMeasure(bps, d1), tc.measures.TorusMeasure(bps, d2)


def _lattice_triples(count, cells=4):
    """Unit vectors of ordered triples on 4 uniform cells, cell densities
    in quarters, with 0 < m1 < m2 < m3 < 1 and plateaus forced in.  They
    come from a fixed generator and do not depend on the seed: the
    three-layer oracle's cost varies tenfold with the shape, so shapes
    drawn from the seed would make the workload's time a property of the
    seed."""
    rng = random.Random(0)
    out = []
    while len(out) < count:
        u1, u2, u3 = [], [], []
        for _ in range(cells):
            a = rng.randint(0, 2)
            b = a if rng.random() < 0.5 else min(4, a + rng.randint(0, 2))
            c = b if rng.random() < 0.5 else min(4, b + rng.randint(0, 2))
            u1.append(a)
            u2.append(b)
            u3.append(c)
        if 0 < sum(u1) < sum(u2) < sum(u3) < 4 * cells:
            out.append((u1, u2, u3))
    return out


def _tasep_cost(m) -> float:
    """Integral of the exclusion relative-entropy kernel over a density,
    at the density's own mass."""
    mass = float(m.total_mass)
    edges = list(m.breakpoints[1:]) + [1]
    total = 0.0
    for lo, hi, d in zip(m.breakpoints, edges, m.densities):
        x = float(d)
        val = x * math.log(x / mass) if x > 0 else 0.0
        if x < 1:
            val += (1 - x) * math.log((1 - x) / (1 - mass))
        total += float(hi - lo) * val
    return total


class RateOracles:
    """Closed-form two-layer rate against its variational oracle, the
    contraction identities, and the three-layer oracle against the
    recursion through the closed form."""

    name = "rate-oracles"
    FAMILIES = ("tasep", "had")
    CELLS = (8, 16, 32)
    PAIRS = 3
    PROFILES = 3
    TRIPLES = 3
    QUANTUM = F(1, 16)
    GAP_TOL = 1e-2
    # Triples (by index) on which |sk_oracle - s3_recursive| exceeds
    # GAP_TOL through a known fault of the program: the first shape's gap
    # is 0.0222.  Its comparison counts as a failed operation in every
    # round; a gap on any other triple is a wrong result.
    KNOWN_GAPS = frozenset({0})

    def make_inputs(self, seed, tc, tr):
        rng = random.Random(seed)
        with tr.span("measures.build"):
            pairs = [
                (f"{fam}:cells{cells}", fam, *_ordered_pair(tc, rng, cells, fam))
                for fam in self.FAMILIES
                for cells in self.CELLS
                for _ in range(self.PAIRS)
            ]
            profiles = [
                (fam, _ordered_pair(tc, rng, 6, fam)[0])
                for fam in self.FAMILIES
                for _ in range(self.PROFILES)
            ]
            triples = [
                tuple(
                    tc.measures.TorusMeasure([F(i, 4) for i in range(4)], [F(u, 4) for u in us])
                    for us in units
                )
                for units in _lattice_triples(self.TRIPLES)
            ]
        return {"pairs": pairs, "profiles": profiles, "triples": triples}

    def run_round(self, inp, tc, rnd):
        s2, oracle = [], []
        for case, fam, r1, r2 in inp["pairs"]:
            m1, m2 = r1.total_mass, r2.total_mass
            s2.append(rnd.call(case, tc.rate, "s2", r1, r2, m1, m2, fam))
            oracle.append(rnd.call(case, tc.rate, "s2_oracle", r1, r2, m1, m2, fam))
        contraction = []
        for fam, rho in inp["profiles"]:
            m = rho.total_mass
            m_total = (m + 1) / 2 if fam == "tasep" else 2 * m
            contraction.append(
                rnd.call(fam, tc.rate, "contraction_identity_check", rho, fam, m_first=m / 2, m_total=m_total)
            )
        sk, s3 = [], []
        for triple in inp["triples"]:
            sk.append(rnd.call("triple", tc.rate, "sk_oracle", list(triple), "tasep", self.QUANTUM, 4))
            s3.append(rnd.call("triple", tc.rate, "s3_recursive", list(triple), "tasep", self.QUANTUM, 4))
        return {"s2": s2, "oracle": oracle, "contraction": contraction, "sk": sk, "s3": s3}

    def check(self, inp, out):
        bad = []
        for (case, *_), closed, oracle in zip(inp["pairs"], out["s2"], out["oracle"]):
            if closed is None or oracle is None:
                continue
            if not (closed.finite and closed.value >= 0 and abs(closed.value - oracle) <= 1e-3):
                bad.append(f"s2 {case}: closed form {closed.value} vs oracle {oracle}")
        for (fam, _), res in zip(inp["profiles"], out["contraction"]):
            if res is not None and (len(res) != 2 or max(res.values()) > 1e-12):
                bad.append(f"contraction {fam}: residuals {res}")
        faulty = []
        for idx, (triple, sk, s3) in enumerate(zip(inp["triples"], out["sk"], out["s3"])):
            if sk is None or s3 is None:
                continue
            # the target triple is its own quantized preimage, so both
            # minima are at most its product-law cost
            bound = sum(_tasep_cost(m) for m in triple) + 1e-9
            for tag, r in (("sk_oracle", sk), ("s3_recursive", s3)):
                if not (r["feasible_count"] >= 1 and 0 <= r["value"] <= bound):
                    bad.append(f"{tag}: value {r['value']} outside [0, {bound}]")
            gap = abs(sk["value"] - s3["value"])
            if gap > self.GAP_TOL:
                msg = f"triple {idx}: |sk_oracle - s3_recursive| = {gap:.4g} > {self.GAP_TOL}"
                (faulty if idx in self.KNOWN_GAPS else bad).append(msg)
        return bad, faulty

    def counts(self, inp, out):
        return {}


WORKLOADS = {w.name: w for w in (RingExact(), TorusPoints(), MeasureCollapse(), RateOracles())}

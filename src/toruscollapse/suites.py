"""Batch verification suites: every checkable claim, re-runnable from a
seeded config with byte-identical results (modulo platform log evaluation).

A suite function reads its overrides and returns its checks unrun, as
(check id, threshold, body) triples, so an override key that no suite reads
is refused before any body runs, as is a count below 1 or an empty list
(a check over no instances would pass having tested nothing) and a size
the routes of its checks refuse (_refusing).  Suites continue past
failures and aggregate; the report says which checks failed and by how much.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import __version__
from .collapse import (
    collapse_discrete_algorithmic,
    collapse_k,
    collapse_measure,
    collapse_measure_representation,
    commutation_check,
    discrete_flux_direct,
    flux_values_direct,
    queue_collapse,
)
from .dynamics import (
    ProcessSpec,
    check_draws,
    check_horizon,
    check_solvable,
    exact_stationary,
    had_sample_chain,
    pushforward_distribution,
    sample_invariant,
)
from .lattice import OrderedTuple, compositions, random_config, random_points
from .measures import (
    TorusMeasure,
    json_rationals,
    numerators,
    rescale,
)
from .rate import (
    check_decay_profile,
    contraction_identity_check,
    ldp_decay_exact,
    lattice_measures,
    nonconvexity_certificate,
    s2,
    s2_oracle,
    s3_recursive,
    sk_oracle,
)
from .serialize import rows_to_csv, to_json
from .stats import KS_MIN_SAMPLES, ks_two_sample

# acceptance thresholds: fixed here, never read from the overrides, so no
# run can loosen a criterion
S2_ORACLE_TOL = 1e-3  # |closed form - variational oracle| of s2
CONTRACTION_TOL = 1e-12  # residuals of the contraction identities
THREE_LAYER_TOL = 1e-2  # |min over the middle layer of S3 - S2|
HAD_P_THRESHOLD = 0.01  # KS p-value a had-invariance seed must pass
RECURSION_TOL = 1e-2  # |three-layer oracle - recursion|


def _is_count(n, low) -> bool:
    return not isinstance(n, bool) and isinstance(n, int) and n >= low


@dataclass(frozen=True)
class SuiteConfig:
    """Everything that determines a suite run, byte for byte."""

    suite: str
    seed: int = 0
    out_dir: str | None = None
    overrides: dict = field(default_factory=dict)
    # override keys the suite has asked for, so run_suites can refuse the rest
    read: set = field(default_factory=set, init=False, repr=False, compare=False)

    def get(self, key, default):
        self.read.add(key)
        return self.overrides.get(key, default)

    def count(self, key, default, low=1) -> int:
        """A count override, refused unless an int of at least `low`."""
        n = self.get(key, default)
        if not _is_count(n, low):
            raise ValueError(f"override {key!r} must be a count of at least {low}, not {n!r}")
        return n

    def duration(self, key, default) -> float:
        """A time override, refused unless a finite number of at least 0."""
        t = self.get(key, default)
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 <= t < math.inf:
            raise ValueError(f"override {key!r} must be a finite time of at least 0, not {t!r}")
        return t

    def nonempty(self, key, default):
        """A list override, refused unless a nonempty list."""
        items = self.get(key, default)
        if not isinstance(items, (list, tuple)) or not items:
            raise ValueError(f"override {key!r} must be a nonempty list, not {items!r}")
        return items

    def counts(self, key, default, low=1) -> list:
        """A list override, refused unless a nonempty list of counts, each
        an int of at least `low`."""
        items = self.nonempty(key, default)
        if not all(_is_count(n, low) for n in items):
            raise ValueError(
                f"override {key!r} must be a list of counts of at least {low}, not {items!r}"
            )
        return items

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "overrides": dict(self.overrides),
            "version": __version__,
        }


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    statistic: str
    threshold: str
    runtime: float
    details: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    config: dict
    checks: list[CheckResult]
    runtime: float
    invocation: str
    content_hash: str

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "config": self.config,
            "invocation": self.invocation,
            "content_hash": self.content_hash,
            "runtime_seconds": round(self.runtime, 3),
            "checks": [
                {
                    "id": c.check_id,
                    "passed": c.passed,
                    "statistic": c.statistic,
                    "threshold": c.threshold,
                    "runtime_seconds": round(c.runtime, 3),
                    "details": c.details,
                }
                for c in self.checks
            ],
        }


def derive_seed(base: int, tag: str) -> int:
    digest = hashlib.sha256(f"{base}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# a check not yet run: (check id, threshold, body), the body returning
# (passed, statistic, details)
Check = tuple[str, str, Callable[[], tuple[bool, str, dict]]]


def _timed(check_id, threshold, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        passed, statistic, details = fn()
    except Exception as exc:  # a crashed check is a failed check
        return CheckResult(
            check_id, False, f"exception: {exc!r}", threshold, time.perf_counter() - t0
        )
    return CheckResult(
        check_id, passed, statistic, threshold, time.perf_counter() - t0, details
    )


def _refusing(what: str, check, *args) -> None:
    """Run a route's own refusal on what the overrides ask, naming them."""
    try:
        check(*args)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


# ---------------------------------------------------------------------------
# random generators shared by suites
# ---------------------------------------------------------------------------


def random_measure(rng, max_cells=6, max_atoms=2, denom=24, dmax=3) -> TorusMeasure:
    ncells = rng.randint(1, max_cells)
    bps = sorted(rng.sample([Fraction(i, denom) for i in range(denom)], ncells))
    dens = [Fraction(rng.randint(0, dmax * 4), 4) for _ in range(ncells)]
    atoms = {}
    for _ in range(rng.randint(0, max_atoms)):
        at = Fraction(rng.randint(0, 2 * denom - 1), 2 * denom)
        if at not in atoms:
            atoms[at] = Fraction(rng.randint(1, 8), 8)
    return TorusMeasure(bps, dens, atoms.items())


def random_ordered_pair(rng, cells=8, family="tasep"):
    """Ordered absolutely continuous pair with plateau cells forced in;
    densities are multiples of 1/16, at most 1 for the exclusion family.
    Pairs whose first mass is not below the second are drawn again."""
    bps = [Fraction(i, cells) for i in range(cells)]
    while True:
        d1, d2 = [], []
        for _ in range(cells):
            a = rng.randint(0, 12) if family == "tasep" else rng.randint(0, 24)
            if rng.random() < 0.45:
                b = a
            else:
                cap = 16 - a if family == "tasep" else 12
                b = a + rng.randint(1, max(1, cap))
            d1.append(Fraction(a, 16))
            d2.append(Fraction(b, 16))
        r1, r2 = TorusMeasure(bps, d1), TorusMeasure(bps, d2)
        if r1.total_mass < r2.total_mass:
            return r1, r2


def random_lattice_triple(rng):
    """Ordered triple on the four quarter cells with densities u/4, so every
    cell mass is a multiple of the returned quantum 1/16, and with plateaus;
    every mass lies strictly between 0 and 1, as the exclusion kernel needs."""
    quarters = [Fraction(i, 4) for i in range(4)]
    while True:
        u1, u2, u3 = [], [], []
        for _ in range(4):
            a = rng.randint(0, 2)
            b = a if rng.random() < 0.5 else min(4, a + rng.randint(0, 2))
            c = b if rng.random() < 0.5 else min(4, b + rng.randint(0, 2))
            u1.append(a)
            u2.append(b)
            u3.append(c)
        if 0 < sum(u1) < sum(u2) < sum(u3) < 16:
            mk = lambda us: TorusMeasure(quarters, [Fraction(u, 4) for u in us])
            return mk(u1), mk(u2), mk(u3), Fraction(1, 16)


# ---------------------------------------------------------------------------
# suite bodies
# ---------------------------------------------------------------------------


def _stationarity_unit(spec) -> Fraction:
    return exact_stationary(spec).tv_distance(pushforward_distribution(spec))


def suite_stationarity(cfg: SuiteConfig) -> list[Check]:
    ns = cfg.counts("ns", (3, 4, 5, 6, 7, 8), low=2)
    ks = cfg.counts("ks", (2, 3))
    # class counts: the compositions of n into k classes and holes
    specs = [
        ProcessSpec("tasep", c[:-1], n=n) for n in ns for k in ks for c in compositions(n, k + 1)
    ]
    for spec in specs:
        what = f"overrides 'ns' and 'ks': classes {spec.class_counts} on N={spec.n}"
        _refusing(what, check_solvable, spec)

    def body():
        tvs = [_stationarity_unit(spec) for spec in specs]
        bad = [(spec.n, spec.class_counts) for spec, tv in zip(specs, tvs) if tv]
        return (
            not bad,
            f"max TV = {max(tvs, default=Fraction(0))} over {len(tvs)} instances",
            {"instances": len(tvs), "failures": bad[:10]},
        )

    return [("stationarity.pushforward_equals_linear_solve", "TV == 0 exactly", body)]


def suite_flux_equivalence(cfg: SuiteConfig) -> list[Check]:
    pairs = cfg.count("pairs", 10**4)
    nmax = cfg.count("nmax", 64, low=2)
    direct_pairs = cfg.count("direct_pairs", 500)
    rng = random.Random(derive_seed(cfg.seed, "flux"))

    def body():
        mismatches = 0
        ledger_bad = 0
        direct_bad = 0
        for t in range(pairs):
            n = rng.randint(2, nmax)
            m2 = rng.randint(0, n)
            m1 = rng.randint(0, m2)
            e1 = random_config(n, m1, rng)
            e2 = random_config(n, m2, rng)
            res_a = collapse_discrete_algorithmic(e1, e2)
            res_f, J = queue_collapse(e1.occupied, e2.occupied)
            if res_a.occupied != bytes(res_f):
                mismatches += 1
            for x in range(n):
                if res_f[x] != e1[x] + J[(x - 1) % n] - J[x]:
                    ledger_bad += 1
                    break
            for _ in range(5):
                a, b = rng.randrange(n), rng.randrange(n)
                iv_sum = sum(res_f[(a + i) % n] for i in range((b - a) % n + 1))
                e1_sum = sum(e1[(a + i) % n] for i in range((b - a) % n + 1))
                if iv_sum != e1_sum + J[(a - 1) % n] - J[b]:
                    ledger_bad += 1
                    break
            if t < direct_pairs and tuple(J) != discrete_flux_direct(e1, e2):
                direct_bad += 1
        ok = mismatches == 0 and ledger_bad == 0 and direct_bad == 0
        return ok, (
            f"{pairs} pairs: {mismatches} route mismatches, "
            f"{ledger_bad} ledger violations, {direct_bad} supremum mismatches"
        ), {}

    return [("flux.algorithmic_vs_formula_vs_ledger", "0 mismatches", body)]


def suite_order_independence(cfg: SuiteConfig) -> list[Check]:
    pairs = cfg.count("pairs", 10**3)
    orders = cfg.count("orders", 10)
    nmax = cfg.count("nmax", 32, low=2)
    rng = random.Random(derive_seed(cfg.seed, "order"))

    def body():
        bad = 0
        for _ in range(pairs):
            n = rng.randint(2, nmax)
            m2 = rng.randint(0, n)
            m1 = rng.randint(0, m2)
            e1 = random_config(n, m1, rng)
            e2 = random_config(n, m2, rng)
            ref = collapse_discrete_algorithmic(e1, e2)
            for _ in range(orders):
                order = list(e1.sites())
                rng.shuffle(order)
                if collapse_discrete_algorithmic(e1, e2, order) != ref:
                    bad += 1
                    break
        return bad == 0, f"{pairs} pairs x {orders} orders: {bad} mismatches", {}

    return [("order.permutation_invariance", "identical outputs", body)]


def suite_commutation(cfg: SuiteConfig) -> list[Check]:
    per_regime = cfg.count("inputs", 10**3)
    nmax = cfg.count("nmax", 32, low=2)
    rng = random.Random(derive_seed(cfg.seed, "commutation"))
    checks = []

    def discrete_body():
        bad = 0
        for _ in range(per_regime):
            n = rng.randint(2, nmax)
            k = rng.choice((2, 3))
            ms = sorted(rng.randint(0, n) for _ in range(k))
            parts = [random_config(n, m, rng) for m in ms]
            if not commutation_check(parts, n):
                bad += 1
        return bad == 0, f"{per_regime} inputs: {bad} failures", {}

    def points_body():
        bad = 0
        for _ in range(per_regime):
            k = rng.choice((2, 3))
            sizes = sorted(rng.randint(0, 8) for _ in range(k))
            parts = [random_points(s, rng) for s in sizes]
            if not commutation_check(parts, 7):
                bad += 1
        return bad == 0, f"{per_regime} inputs: {bad} failures", {}

    checks.append(("commutation.discrete", "exact equality", discrete_body))
    checks.append(("commutation.points", "exact equality", points_body))
    return checks


def _prefix_masses(rho: TorusMeasure, grid) -> list[Fraction]:
    """P(g) = rho((0, g]) at every position g of a sorted grid that starts
    at 0, by one sweep over rho's cells and atoms, then rho's total mass."""
    bps, dens = rho.breakpoints, rho.densities
    edges = [*bps[1:], 1]
    atoms = [a for a in rho.atoms if a.at > 0]
    out, i, k, cells, ats = [], 0, 0, Fraction(0), Fraction(0)
    for g in grid:
        while edges[i] <= g:
            cells += (edges[i] - bps[i]) * dens[i]
            i += 1
        while k < len(atoms) and atoms[k].at <= g:
            ats += atoms[k].mass
            k += 1
        out.append(cells + (g - bps[i]) * dens[i] + ats)
    return out + [rho.total_mass]


def suite_measure_collapse(cfg: SuiteConfig) -> list[Check]:
    n_pairs = cfg.count("pairs", 10**3)
    rng = random.Random(derive_seed(cfg.seed, "measure"))

    def body():
        bad = []
        for t in range(n_pairs):
            r1 = random_measure(rng)
            r2 = random_measure(rng)
            if r1.total_mass > r2.total_mass:
                r1, r2 = r2, r1
            c, prof = collapse_measure(r1, r2)
            if prof.values != flux_values_direct(r1, r2):
                bad.append((t, "flux paths differ"))
                continue
            # the prefix masses of c, r1 and r2 at the grid positions, each
            # followed by its total mass, and J there: ints over one denominator
            n = len(prof.positions)
            sums = [_prefix_masses(m, prof.positions) for m in (c, r1, r2)]
            _, nums = numerators([*sums[0], *sums[1], *sums[2], *prof.values])
            pc, p1, p2, J = (nums[i : i + n + 1] for i in range(0, 4 * n + 4, n + 1))
            # the mass of (a, b] for grid positions a, b; (a, a] is the torus
            spans = [(a, b) for a in range(n) for b in range(n)]
            mass_c, mass_1, mass_2 = (
                [p[b] - p[a] + (p[n] if b <= a else 0) for a, b in spans] for p in (pc, p1, p2)
            )
            if any(x != y + J[a] - J[b] for x, y, (a, b) in zip(mass_c, mass_1, spans)):
                bad.append((t, "ledger identity"))
                continue
            if c.total_mass != r1.total_mass:
                bad.append((t, "mass"))
                continue
            try:
                OrderedTuple([c, r2])
            except ValueError as exc:
                bad.append((t, f"domination: {exc}"))
                continue
            if any(x > y for x, y in zip(mass_c, mass_2)):
                bad.append((t, "interval domination"))
                continue
            if not prof.full_torus:
                if collapse_measure_representation(r1, r2, prof) != c:
                    bad.append((t, "representation"))
                if any(iv.mass_delta < 0 for iv in prof.intervals):
                    bad.append((t, "negative interval excess"))
        return not bad, f"{n_pairs} pairs: {len(bad)} failures", {"failures": bad[:10]}

    return [("measure.ledger_representation_domination", "exact", body)]


def suite_s2_oracle(cfg: SuiteConfig) -> list[Check]:
    per_family = cfg.count("instances", 50)
    rng = random.Random(derive_seed(cfg.seed, "s2"))
    checks = []
    for family in ("tasep", "had"):

        def body(family=family):
            worst = 0.0
            slow = 0.0
            for _ in range(per_family):
                r1, r2 = random_ordered_pair(rng, family=family)
                t0 = time.perf_counter()
                closed = s2(r1, r2, r1.total_mass, r2.total_mass, family).value
                oracle = s2_oracle(r1, r2, r1.total_mass, r2.total_mass, family)
                slow = max(slow, time.perf_counter() - t0)
                worst = max(worst, abs(closed - oracle))
            return worst <= S2_ORACLE_TOL and slow < 10.0, (
                f"{per_family} instances: worst |closed - oracle| = {worst:.2e}"
            ), {}

        checks.append(
            (f"s2.closed_vs_variational.{family}", f"<= {S2_ORACLE_TOL}", body)
        )
    return checks


def suite_minimizers(cfg: SuiteConfig) -> list[Check]:
    per_family = cfg.count("instances", 20)
    rng = random.Random(derive_seed(cfg.seed, "minimizers"))
    checks = []
    for family in ("tasep", "had"):

        def body(family=family):
            worst = 0.0
            done = 0
            while done < per_family:
                rho, _ = random_ordered_pair(rng, cells=6, family=family)
                mass = rho.total_mass
                if mass == 0:
                    continue
                res = contraction_identity_check(
                    rho,
                    family,
                    m_first=mass / 2,
                    m_total=(mass + 1) / 2 if family == "tasep" else mass * 2,
                )
                worst = max(worst, *res.values())
                done += 1
            stat = f"{per_family} instances: worst residual {worst:.2e}"
            return worst <= CONTRACTION_TOL, stat, {}

        checks.append((f"minimizers.contraction.{family}", f"<= {CONTRACTION_TOL}", body))

    def nested_body():
        rho1 = TorusMeasure.from_cells(
            [(Fraction(3, 10), Fraction(9, 20), 1), (Fraction(1, 2), Fraction(3, 5), 1)]
        )
        res = contraction_identity_check(rho1, "tasep", m_total=Fraction(11, 20))
        worst = res["total_layer_residual"]
        return worst <= CONTRACTION_TOL, f"nested stretches residual {worst:.2e}", {}

    checks.append(("minimizers.nested_stretches", f"<= {CONTRACTION_TOL}", nested_body))

    def contrall_body():
        # three-layer contraction: minimizing out the middle layer recovers
        # the two-layer rate of the outer pair
        cells, denom = 4, 8
        bps = [Fraction(i, cells) for i in range(cells)]
        rho1 = TorusMeasure(bps, [Fraction(1, 2), Fraction(1, 2), 0, 0])
        rho3 = TorusMeasure(bps, [Fraction(1, 2), 1, Fraction(1, 2), 1])
        quantum = Fraction(1, denom)
        m1, m3 = rho1.total_mass, rho3.total_mass
        m2 = Fraction(1, 2)
        best = math.inf
        for rho2 in lattice_measures(cells, int(m2 / quantum), quantum, "tasep"):
            try:
                OrderedTuple([rho1, rho2, rho3])
            except ValueError:
                continue  # not a middle layer between rho1 and rho3
            val = sk_oracle([rho1, rho2, rho3], "tasep", quantum, cells)["value"]
            best = min(best, val)
        target = s2(rho1, rho3, m1, m3, "tasep").value
        gap = abs(best - target)
        return gap <= THREE_LAYER_TOL, f"|min_rho2 S3 - S2| = {gap:.2e}", {}

    checks.append(("minimizers.three_layer_contraction", f"<= {THREE_LAYER_TOL}", contrall_body))
    return checks


def suite_nonconvexity(cfg: SuiteConfig) -> list[Check]:
    checks = []

    def margin_body():
        cert = nonconvexity_certificate()
        margin = cert["margins"][Fraction(999, 1000)]
        return margin < 0, f"margin at c=0.999: {margin:.6f} (limit {cert['limit_defect']:.6f})", {}

    checks.append(("nonconvexity.two_layer_margin", "< 0", margin_body))

    def triple_body():
        eps = Fraction(1, 10)
        psi = [
            TorusMeasure.indicator(Fraction(1, 8), Fraction(1, 8) + eps, 2),
            TorusMeasure.indicator(0, eps, 4).add(
                TorusMeasure.indicator(Fraction(7, 8), Fraction(7, 8) + eps, 4)
            ),
            TorusMeasure.indicator(Fraction(1, 4), Fraction(1, 4) + eps, 4).add(
                TorusMeasure.indicator(Fraction(1, 2), Fraction(1, 2) + eps, 8)
            ),
        ]
        tpsi = [
            TorusMeasure.indicator(Fraction(5, 8), Fraction(5, 8) + eps, 2),
            TorusMeasure.indicator(Fraction(3, 8), Fraction(3, 8) + eps, 4).add(
                TorusMeasure.indicator(Fraction(3, 4), Fraction(3, 4) + eps, 4)
            ),
            psi[2],
        ]
        rho = [
            TorusMeasure.indicator(Fraction(1, 4), Fraction(1, 4) + eps / 2, 4),
            TorusMeasure.indicator(Fraction(1, 4), Fraction(1, 4) + eps, 4).add(
                TorusMeasure.indicator(Fraction(1, 2), Fraction(1, 2) + eps / 2, 8)
            ),
            psi[2],
        ]
        a = list(collapse_k(psi)) == rho
        b = list(collapse_k(tpsi)) == rho
        mid = [p.scale(Fraction(1, 2)).add(q.scale(Fraction(1, 2))) for p, q in zip(psi, tpsi)]
        c = list(collapse_k(mid)) != rho
        return a and b and c, f"triples reproduce: {a}, {b}; midpoint differs: {c}", {}

    checks.append(("nonconvexity.preimage_set", "exact", triple_body))
    return checks


def suite_ldp_decay(cfg: SuiteConfig) -> list[Check]:
    sizes = cfg.counts("sizes", (100, 1000, 10000))
    given = cfg.nonempty("profiles", [["1/2", "0"], ["3/5", "2/5", "1/5", "4/5"]])
    profiles = [json_rationals(p, "each of override 'profiles'") for p in given]
    # one check per bin count, named by it, and each profile one that
    # ldp_decay_exact takes at these sizes, so a failed check is a failed
    # criterion, never a malformed profile
    for g, p in zip(given, profiles):
        if not p or any(not 0 <= d <= 1 for d in p) or [len(q) for q in profiles].count(len(p)) > 1:
            raise ValueError(
                f"override 'profiles' must be density lists in [0, 1] of distinct lengths, not {g!r}"
            )
        what = f"overrides 'profiles' and 'sizes': {g!r} at sizes {sizes!r}"
        _refusing(what, check_decay_profile, p, sizes)
    checks = []
    for dens in profiles:
        b = len(dens)

        def body(dens=dens, b=b):
            rows = ldp_decay_exact(dens, sizes)
            gaps = [abs(r["gap"]) for r in rows]
            bounded = all(abs(r["gap"]) <= r["bound"] for r in rows)
            decreasing = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
            stat = ", ".join(f"N={r['n']}: gap {r['gap']:.2e}" for r in rows)
            return bounded and decreasing, stat, {"rows": rows}

        checks.append(
            (f"ldp.decay_b{b}", "|gap| <= B(1+log(N+1))/N, decreasing", body)
        )
    return checks


def _had_statistics(state) -> tuple[float, float]:
    """Per-draw scalar statistics of a two-layer point state: the largest
    gap of the full layer, and the total length of full-layer gaps lying
    immediately to the right of a first-layer point."""
    grid, (first, pts) = rescale([(state[0].grid, state[0].nums), (state[1].grid, state[1].nums)])
    n = len(pts)
    # int / int is correctly rounded, so each gap is the float of the exact gap
    gaps = [((pts[(i + 1) % n] - pts[i]) % grid) / grid for i in range(n)]
    in_first = set(first)
    owned = sum(g for p, g in zip(pts, gaps) if p in in_first)
    return max(gaps), owned


def _had_unit(seed, spec, samples, gap, burn) -> tuple[float, float]:
    """KS p-values of the largest and the owned gap, direct draws against
    a simulated chain, from one seed."""
    rng = random.Random(seed)
    direct = [
        _had_statistics(sample_invariant(spec, rng)) for _ in range(samples)
    ]
    start = sample_invariant(spec, rng)
    chain = had_sample_chain(list(start), rng, samples, gap, burn)
    simulated = [_had_statistics(s) for s in chain]
    _, p_max = ks_two_sample([d[0] for d in direct], [s[0] for s in simulated])
    _, p_owned = ks_two_sample([d[1] for d in direct], [s[1] for s in simulated])
    return p_max, p_owned


def suite_had_invariance(cfg: SuiteConfig) -> list[Check]:
    n1 = cfg.count("n1", 8, low=0)
    n2 = cfg.count("n2", 16, low=max(n1, 1))
    samples = cfg.count("samples", 10**3, low=KS_MIN_SAMPLES)
    gap = cfg.duration("sample_gap", 40.0)
    burn = cfg.duration("burn_in", 100.0)
    seeds = cfg.counts("seeds", tuple(range(1, 9)), low=0)
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"override 'seeds' must be a list of distinct seeds, not {seeds!r}")
    need = -(-7 * len(seeds) // 8)  # seven in eight, rounded up
    # each seed draws samples direct states and one to start the chain from
    spec = ProcessSpec("had", (n1, n2 - n1))
    _refusing("overrides 'n1', 'n2' and 'samples'", check_draws, spec, samples + 1)
    _refusing("override 'burn_in'", check_horizon, burn, 1)
    _refusing("override 'sample_gap'", check_horizon, gap, 1)

    def body():
        results = [
            _had_unit(derive_seed(cfg.seed, f"had:{s}"), spec, samples, gap, burn) for s in seeds
        ]
        passing = sum(1 for p1, p2 in results if min(p1, p2) > HAD_P_THRESHOLD)
        detail = {
            f"seed_{s}": {"p_max_gap": round(p1, 4), "p_owned_gap": round(p2, 4)}
            for s, (p1, p2) in zip(seeds, results)
        }
        stat = f"{passing}/{len(seeds)} seeds with both p > {HAD_P_THRESHOLD}"
        return passing >= need, stat, detail

    return [("had.sampler_vs_simulation_ks", f">= {need} of {len(seeds)} seeds", body)]


def suite_recursion(cfg: SuiteConfig) -> list[Check]:
    instances = cfg.count("instances", 10)
    rng = random.Random(derive_seed(cfg.seed, "recursion"))

    def body():
        worst = 0.0
        rows = []
        for i in range(instances):
            r1, r2, r3, quantum = random_lattice_triple(rng)
            direct = sk_oracle([r1, r2, r3], "tasep", quantum, 4)
            rec = s3_recursive([r1, r2, r3], "tasep", quantum, 4)
            gap = abs(direct["value"] - rec["value"])
            worst = max(worst, gap)
            rows.append(
                {
                    "instance": i,
                    "direct": direct["value"],
                    "recursive": rec["value"],
                    "gap": gap,
                    "near_minimizers": direct["near_minimizers"],
                }
            )
        stat = f"{instances} instances: worst gap {worst:.2e}"
        return worst <= RECURSION_TOL, stat, {"rows": rows}

    return [("recursion.direct_vs_two_layer", f"<= {RECURSION_TOL}", body)]


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

SUITES = {
    "stationarity": suite_stationarity,
    "flux-equivalence": suite_flux_equivalence,
    "order-independence": suite_order_independence,
    "commutation": suite_commutation,
    "measure-collapse": suite_measure_collapse,
    "s2-oracle": suite_s2_oracle,
    "minimizers": suite_minimizers,
    "nonconvexity": suite_nonconvexity,
    "ldp-decay": suite_ldp_decay,
    "had-invariance": suite_had_invariance,
    "recursion": suite_recursion,
}


def run_suites(configs: list[SuiteConfig]) -> list[SuiteReport]:
    """Build the checks of every config, which reads its overrides; raise
    ValueError naming an unknown suite, or any override key that none of
    them read, before any check runs; then run each suite's checks and
    report them."""
    for config in configs:
        if config.suite not in SUITES:
            raise ValueError(f"unknown suite {config.suite!r}; known: {sorted(SUITES)}")
    pending = [SUITES[config.suite](config) for config in configs]
    unread = set().union(*(c.overrides for c in configs)) - set().union(*(c.read for c in configs))
    if unread:
        scope = configs[0].suite if len(configs) == 1 else "all"
        raise ValueError(f"suite {scope} reads no override {', '.join(sorted(map(repr, unread)))}")
    return [_report(config, checks) for config, checks in zip(configs, pending)]


def _report(config: SuiteConfig, pending: list[Check]) -> SuiteReport:
    t0 = time.perf_counter()
    checks = sorted([_timed(*check) for check in pending], key=lambda c: c.check_id)
    cfg_json = config.to_json_dict()
    # the hash covers what a rerun must reproduce, never runtimes or the
    # invocation
    results = [(c.check_id, c.passed, c.statistic, c.threshold, c.details) for c in checks]
    content_hash = hashlib.sha256(
        to_json([cfg_json, results], sort_keys=True).encode()
    ).hexdigest()[:16]
    report = SuiteReport(
        suite=config.suite,
        config=cfg_json,
        checks=checks,
        runtime=time.perf_counter() - t0,
        invocation=" ".join(sys.argv),
        content_hash=content_hash,
    )
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        path = os.path.join(config.out_dir, f"{config.suite}.report.json")
        with open(path, "w") as fh:
            fh.write(to_json(report.to_json_dict(), indent=2) + "\n")
        for check in report.checks:
            rows = check.details.get("rows")
            if rows:
                csv_path = os.path.join(config.out_dir, f"{check.check_id}.csv")
                with open(csv_path, "w") as fh:
                    fh.write(rows_to_csv(rows))
    return report

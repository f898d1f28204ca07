"""Acceptance criteria, one test per criterion.

Every criterion runs at its stated scale and tolerance through the
verification suites; each emits one PASS/FAIL line (visible with -s or in
captured output on failure).
"""

from toruscollapse.suites import SuiteConfig, run_suites


def _run(name, criterion, overrides=None, max_runtime=None):
    report = run_suites([SuiteConfig(suite=name, seed=0, overrides=overrides or {})])[0]
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"[{mark}] {criterion} / {check.check_id}: {check.statistic}"
              f" (target {check.threshold})")
    if max_runtime is not None:
        ok = report.runtime < max_runtime
        print(
            f"[{'PASS' if ok else 'FAIL'}] {criterion} / runtime: "
            f"{report.runtime:.1f}s (target < {max_runtime}s)"
        )
        assert ok, f"runtime {report.runtime:.1f}s over budget"
    assert report.passed, [c.check_id for c in report.checks if not c.passed]
    return report


def test_criterion_01_stationarity_at_desk_scale():
    # every ring size 3..8, two and three classes, all class-count vectors:
    # exact pushforward equals exact linear-solve table, total variation 0
    _run("stationarity", "criterion 1", max_runtime=300.0)


def test_criterion_02_flux_ledger_equivalence():
    # 10^4 random pairs up to N=64: algorithmic route, flux route and the
    # interval ledger agree bit-exactly
    _run("flux-equivalence", "criterion 2")


def test_criterion_03_order_independence():
    # 10^3 pairs x 10 particle orders give identical collapses
    _run("order-independence", "criterion 3")


def test_criterion_04_commutation():
    # 10^3 multiclass inputs per regime: embed-then-collapse equals
    # collapse-then-embed exactly
    _run("commutation", "criterion 4")


def test_criterion_05_measure_collapse_representation():
    # 10^3 piecewise+atomic pairs: interval ledger output equals the
    # restriction-plus-atoms representation; mass is conserved;
    # domination verified on the full grid
    _run("measure-collapse", "criterion 5")


def test_criterion_06_closed_form_vs_variational():
    # 50 random 8-cell instances per family within 1e-3, under 10 s each
    _run("s2-oracle", "criterion 6")


def test_criterion_07_minimizer_identities():
    # contraction identities at 1e-12 on 20 instances per family, plus the
    # nested-stretch instance and the three-layer contraction
    _run("minimizers", "criterion 7")


def test_criterion_08_nonconvexity_certificates():
    # strictly negative convexity margin at c = 0.999; the three-layer
    # preimage example reproduces exactly and its midpoint does not
    _run("nonconvexity", "criterion 8")


def test_criterion_09_ldp_decay():
    # exact decay approaches the rate with gap within B(1+log(N+1))/N,
    # strictly shrinking over N in {100, 1000, 10000}, for 2 and 4 bins
    _run("ldp-decay", "criterion 9")


def test_criterion_10_had_statistical_invariance():
    # sampler vs long-horizon simulation statistics: KS p > 0.01 for both
    # statistics in at least 7 of 8 fixed seeds
    _run("had-invariance", "criterion 10")


def test_criterion_11_recursive_relation():
    # direct three-layer oracle vs recursion through the two-layer closed
    # form within 1e-2 on 10 coarse instances
    _run("recursion", "criterion 11")

import json
import math
import random
import re
from fractions import Fraction

import pytest

from toruscollapse import suites
from toruscollapse.dynamics import ProcessSpec, pushforward_distribution
from toruscollapse.suites import (
    SUITES,
    SuiteConfig,
    derive_seed,
    random_lattice_triple,
    random_measure,
    run_suites,
)

from oracles import interval_mass


class TestSuiteHarness:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites([SuiteConfig(suite="nope")])

    @pytest.mark.parametrize(
        "suite,overrides",
        [
            ("nonconvexity", {"bogus_key": 1}),
            ("measure-collapse", {"pair": 5}),
            # acceptance thresholds are constants, never overrides
            ("recursion", {"tol": 1}),
            ("had-invariance", {"min_passing": 1}),
        ],
    )
    def test_unread_override_key_refused(self, suite, overrides):
        (key,) = overrides
        with pytest.raises(ValueError, match=f"suite {suite} reads no override '{key}'"):
            run_suites([SuiteConfig(suite=suite, overrides=overrides)])

    @pytest.mark.parametrize("value", [0, -1, []])
    @pytest.mark.parametrize(
        "suite,key",
        [
            ("stationarity", "ns"),
            ("stationarity", "ks"),
            ("flux-equivalence", "pairs"),
            ("flux-equivalence", "direct_pairs"),
            ("order-independence", "pairs"),
            ("order-independence", "orders"),
            ("commutation", "inputs"),
            ("measure-collapse", "pairs"),
            ("s2-oracle", "instances"),
            ("minimizers", "instances"),
            ("ldp-decay", "sizes"),
            ("ldp-decay", "profiles"),
            ("had-invariance", "seeds"),
            ("had-invariance", "samples"),
            ("recursion", "instances"),
        ],
    )
    def test_override_that_tests_nothing_refused(self, monkeypatch, suite, key, value):
        # refused while the checks are built: no check body runs
        monkeypatch.setattr(suites, "_timed", None)
        with pytest.raises(ValueError, match=f"override '{key}' must be a"):
            run_suites([SuiteConfig(suite=suite, overrides={key: value})])

    @pytest.mark.parametrize(
        "suite,overrides,key",
        [
            *[
                (suite, {"nmax": value}, "nmax")
                for suite in ("flux-equivalence", "order-independence", "commutation")
                for value in (1, 0, "8", 8.0, True, None)
            ],
            ("had-invariance", {"n1": -1}, "n1"),
            ("had-invariance", {"n1": "8"}, "n1"),
            ("had-invariance", {"n1": 8.0}, "n1"),
            ("had-invariance", {"n1": 0, "n2": 0}, "n2"),
            ("had-invariance", {"n1": 9, "n2": 8}, "n2"),
            ("had-invariance", {"n1": 17}, "n2"),
            ("had-invariance", {"burn_in": 0, "sample_gap": math.nan}, "sample_gap"),
            # the elements of a list of sizes
            ("stationarity", {"ns": ["a"]}, "ns"),
            ("stationarity", {"ns": [1]}, "ns"),
            ("stationarity", {"ns": [3, 4.0]}, "ns"),
            ("stationarity", {"ks": [0]}, "ks"),
            ("stationarity", {"ks": [True]}, "ks"),
            ("ldp-decay", {"sizes": ["a"]}, "sizes"),
            ("ldp-decay", {"sizes": [0]}, "sizes"),
            ("ldp-decay", {"sizes": [100, None]}, "sizes"),
            *[
                ("had-invariance", {key: value}, key)
                for key in ("sample_gap", "burn_in")
                for value in (-1, -0.5, math.inf, math.nan, "40", None, True)
            ],
        ],
    )
    def test_malformed_size_refused(self, monkeypatch, suite, overrides, key):
        # refused while the checks are built, as a domain error, rather than
        # failing inside a check body
        monkeypatch.setattr(suites, "_timed", None)
        with pytest.raises(ValueError, match=f"override '{key}' must be a"):
            run_suites([SuiteConfig(suite=suite, overrides=overrides)])

    @pytest.mark.parametrize(
        "suite,overrides,content_hash",
        [
            ("measure-collapse", {}, "51e479754b7cff45"),
            ("stationarity", {"ns": [3, 4, 5, 6], "ks": [2, 3]}, "ac5cc0134aea42ef"),
            ("commutation", {"inputs": 200}, "dc6668a551d4a684"),
            ("flux-equivalence", {"pairs": 500}, "2aecd5d1cbab399c"),
            ("order-independence", {"pairs": 200}, "42a29140c1b2ad50"),
        ],
    )
    def test_exact_suites_keep_their_hash(self, suite, overrides, content_hash):
        # these suites take no log and no float, so their seed-0 reports are
        # fixed bit for bit: any change to a verdict, statistic or detail shows
        report = run_suites([SuiteConfig(suite=suite, overrides=overrides)])[0]
        assert report.passed and report.content_hash == content_hash

    def test_rerun_identical(self):
        cfg = SuiteConfig(suite="measure-collapse", seed=3, overrides={"pairs": 40})
        a = run_suites([cfg])[0]
        b = run_suites([cfg])[0]
        assert [c.statistic for c in a.checks] == [c.statistic for c in b.checks]
        assert a.content_hash == b.content_hash

    def test_hash_covers_results_not_runtimes(self, monkeypatch):
        # a report's hash changes with a check's statistic, verdict or
        # details, and not with its runtime or the invocation
        result = {"passed": True, "statistic": "1 of 2", "details": {"rows": [1]}}

        def one_check(cfg):
            return [("fake.check", "exact", lambda: tuple(result.values()))]

        monkeypatch.setitem(SUITES, "fake", one_check)
        hashes = [run_suites([SuiteConfig(suite="fake")])[0].content_hash]
        monkeypatch.setattr(suites.sys, "argv", ["elsewhere"])
        hashes.append(run_suites([SuiteConfig(suite="fake")])[0].content_hash)
        for key, value in (("statistic", "2 of 2"), ("passed", False), ("details", {"rows": [2]})):
            result[key] = value
            hashes.append(run_suites([SuiteConfig(suite="fake")])[0].content_hash)
        assert hashes[0] == hashes[1]
        assert len(set(hashes)) == 4

    def test_failure_aggregation(self, monkeypatch):
        # a seed whose p-values are all 0 must fail the check without raising
        monkeypatch.setattr(suites, "_had_unit", lambda seed, spec, samples, gap, burn: (0.0, 0.0))
        cfg = SuiteConfig(suite="had-invariance", seed=0, overrides={"seeds": (1,)})
        report = run_suites([cfg])[0]
        assert not report.passed
        assert report.checks[0].statistic.startswith("0/1")
        assert report.checks[0].threshold == ">= 1 of 1 seeds"

    @pytest.mark.parametrize(
        "suite,unit,overrides",
        [
            ("stationarity", "_stationarity_unit", {"ns": (3,), "ks": (2,)}),
            ("had-invariance", "_had_unit", {"samples": 50, "seeds": (1,)}),
        ],
    )
    def test_unit_exception_is_a_failed_check(self, monkeypatch, suite, unit, overrides):
        def boom(*args):
            raise RuntimeError("unit failed")

        monkeypatch.setattr(suites, unit, boom)
        (check,) = run_suites([SuiteConfig(suite=suite, overrides=overrides)])[0].checks
        assert not check.passed
        assert "unit failed" in check.statistic

    def test_s2_statistic_holds_no_timing(self):
        cfg = SuiteConfig(suite="s2-oracle", overrides={"instances": 3})
        a, b = run_suites([cfg])[0], run_suites([cfg])[0]
        assert [c.statistic for c in a.checks] == [c.statistic for c in b.checks]
        pattern = r"3 instances: worst \|closed - oracle\| = \S+"
        assert all(re.fullmatch(pattern, c.statistic) for c in a.checks)

    def test_prefix_masses_match_interval_mass(self):
        rng = random.Random(5)
        for _ in range(100):
            rho = random_measure(rng, max_atoms=3)
            extra = {Fraction(rng.randrange(48), 48) for _ in range(4)}
            grid = sorted({Fraction(0), *rho.breakpoints, *(a.at for a in rho.atoms)} | extra)
            *prefix, total = suites._prefix_masses(rho, grid)
            assert total == rho.total_mass
            P = dict(zip(grid, prefix))
            for a in grid:
                for b in grid:
                    assert P[b] - P[a] + (total if b <= a else 0) == interval_mass(rho, a, b)

    def test_report_written(self, tmp_path):
        cfg = SuiteConfig(suite="ldp-decay", out_dir=str(tmp_path))
        run_suites([cfg])
        data = json.loads((tmp_path / "ldp-decay.report.json").read_text())
        assert data["passed"] and data["config"]["suite"] == "ldp-decay"
        # tabular artifacts land next to the report
        csv_text = (tmp_path / "ldp.decay_b2.csv").read_text()
        assert csv_text.splitlines()[0].startswith("n,decay,rate,gap")

    def test_report_is_standard_json(self, monkeypatch, tmp_path):
        # an infinite value in a check's rows is written as the string "inf"
        def one_check(cfg):
            return [("fake.check", "exact", lambda: (True, "ok", {"rows": [{"value": -math.inf}]}))]

        def refuse(token):
            raise ValueError(f"{token} is not standard JSON")

        monkeypatch.setitem(SUITES, "fake", one_check)
        run_suites([SuiteConfig(suite="fake", out_dir=str(tmp_path))])
        data = json.loads((tmp_path / "fake.report.json").read_text(), parse_constant=refuse)
        assert data["checks"][0]["details"] == {"rows": [{"value": "-inf"}]}

    def test_derive_seed_stable(self):
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_registry_names(self):
        assert set(SUITES) == {
            "stationarity",
            "flux-equivalence",
            "order-independence",
            "commutation",
            "measure-collapse",
            "s2-oracle",
            "minimizers",
            "nonconvexity",
            "ldp-decay",
            "had-invariance",
            "recursion",
        }


class TestPushforwardEdge:
    def test_single_class_pushforward_uniform(self):
        tab = pushforward_distribution(ProcessSpec("tasep", (2,), n=5))
        assert all(p == Fraction(1, 10) for p in tab.probs)


def test_lattice_triples_keep_masses_inside_the_unit_interval():
    # the 4th draw of this stream used to be a triple with a massless first layer
    rng = random.Random(11)
    for _ in range(60):
        r1, r2, r3, _ = random_lattice_triple(rng)
        assert 0 < r1.total_mass < r2.total_mass < r3.total_mass < 1

import argparse
import ast
import inspect
import json
import shlex
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from toruscollapse import cli, rate
from toruscollapse.cli import build_parser, main
from toruscollapse.measures import TorusMeasure
from toruscollapse.collapse import collapse_k, collapse_measure
from toruscollapse.serialize import flux_to_json, part_from_json, part_to_json
from toruscollapse.lattice import PointConfig, TorusConfig
from toruscollapse.suites import SUITES

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _refuse(token):
    raise ValueError(f"{token} is not standard JSON")


def loads(text):
    """Parse CLI output as standard JSON: NaN, Infinity and -Infinity are
    refused, as a strict parser such as JavaScript's JSON.parse does."""
    return json.loads(text, parse_constant=_refuse)


class TestSerialize:
    def test_part_roundtrips(self):
        for part in (
            TorusConfig([1, 0, 1]),
            PointConfig([F(1, 3), F(2, 3)]),
            TorusMeasure([0, F(1, 2)], [1, 0], [(F(3, 4), F(1, 5))]),
        ):
            assert part_from_json(part_to_json(part)) == part

    def test_points_strings(self):
        p = PointConfig([F(1, 7)])
        assert part_to_json(p) == {"type": "points", "data": ["1/7"]}
        assert part_from_json({"type": "points", "data": ["1/7"]}) == p


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_stationary_json(self, capsys):
        code, out = run_cli(
            capsys, "stationary", "--n", "3", "--classes", "1,1", "--compare-pushforward"
        )
        assert code == 0
        data = loads(out)
        assert data["pushforward_tv_distance"] == "0"
        assert len(data["states"]) == 6

    def test_stationary_seven_sites(self, capsys):
        code, out = run_cli(
            capsys, "stationary", "--n", "7", "--classes", "2,2,2", "--compare-pushforward"
        )
        assert code == 0
        data = loads(out)
        assert data["pushforward_tv_distance"] == "0"
        assert len(data["states"]) == 630

    def test_stationary_csv(self, capsys):
        code, out = run_cli(
            capsys, "stationary", "--n", "3", "--classes", "1,1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "state,probability"

    def test_collapse_measures(self, capsys, tmp_path):
        payload = {
            "parts": [
                {
                    "type": "measure",
                    "data": {
                        "breakpoints": ["0"],
                        "densities": ["0"],
                        "atoms": [{"at": "51/100", "mass": "1"}],
                    },
                },
                {
                    "type": "measure",
                    "data": {
                        "breakpoints": ["0"],
                        "densities": ["0"],
                        "atoms": [{"at": "1/2", "mass": "1"}, {"at": "3/4", "mass": "1"}],
                    },
                },
            ]
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "collapse", str(path))
        assert code == 0
        data = loads(out)
        got = TorusMeasure.from_json_dict(data["parts"][0]["data"])
        assert got == TorusMeasure.from_atoms([F(3, 4)], 1)
        assert data["flux"]["intervals"][0]["lo"] == "51/100"

    def test_collapse_measures_runs_the_queue_once(self, capsys, tmp_path, monkeypatch):
        parts = [
            TorusMeasure([0, F(1, 4)], [F(1, 2), 0], [(F(3, 4), F(1, 8))]),
            TorusMeasure([0, F(1, 2)], [F(1, 4), F(3, 4)], [(F(1, 8), F(1, 4))]),
        ]
        want = {
            "parts": [part_to_json(p) for p in collapse_k(parts)],
            "flux": flux_to_json(collapse_measure(*parts)[1]),
        }
        runs = []
        queue = cli.collapse_measure

        def counted(*args):
            runs.append(args)
            return queue(*args)

        monkeypatch.setattr(cli, "collapse_measure", counted)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"parts": [part_to_json(p) for p in parts]}))
        code, out = run_cli(capsys, "collapse", str(path))
        assert code == 0
        assert len(runs) == 1
        assert out == json.dumps(want, indent=2) + "\n"

    def test_collapse_discrete(self, capsys, tmp_path):
        payload = {
            "parts": [
                {"type": "config", "data": [1, 0, 0, 1, 0, 0]},
                {"type": "config", "data": [0, 1, 1, 0, 0, 1]},
            ]
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "collapse", str(path))
        assert code == 0
        data = loads(out)
        assert data["parts"][0]["data"] == [0, 1, 0, 0, 0, 1]
        # the flux of the unit-atom encodings: at x/6 it is the queue
        # length after site x, (1, 0, 0, 1, 1, 0)
        flux = data["flux"]
        assert "domain" not in flux
        assert flux["positions"] == ["0", "1/6", "1/3", "1/2", "5/6"]
        assert flux["values"] == ["1", "0", "0", "1", "0"]

    def test_collapse_points(self, capsys, tmp_path):
        payload = {
            "parts": [
                part_to_json(PointConfig([F(1, 10), F(3, 10)])),
                part_to_json(PointConfig([F(1, 5), F(3, 10), F(7, 10)])),
            ]
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "collapse", str(path))
        assert code == 0
        data = loads(out)
        assert data["parts"][0]["data"] == ["1/5", "3/10"]
        assert data["flux"]["positions"] == ["0", "1/10", "1/5", "3/10", "7/10"]
        assert data["flux"]["values"] == ["0", "1", "0", "0", "0"]

    def test_simulate_seeded_reproducible(self, capsys):
        args = [
            "simulate", "--model", "tasep", "--n", "5", "--classes", "1,1",
            "--horizon", "3", "--seed", "11", "--record",
        ]
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("model", ["tasep", "had"])
    def test_simulate_record_changes_only_the_events(self, capsys, model):
        # without --record the same run is reported, its events counted
        args = ["simulate", "--model", model, "--classes", "2,2", "--horizon", "3", "--seed", "5"]
        args += ["--n", "6"] if model == "tasep" else []
        code1, plain = run_cli(capsys, *args)
        code2, recorded = run_cli(capsys, *args, "--record")
        assert code1 == code2 == 0
        data = loads(recorded)
        assert len(data["events"]) > 0
        assert plain == json.dumps({**data, "events": len(data["events"])}, indent=2) + "\n"

    def test_simulate_had(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--model", "had", "--classes", "2,2",
            "--horizon", "2", "--seed", "3",
        )
        assert code == 0
        data = loads(out)
        assert len(data["final_layers"]) == 2

    def test_sample_invariant(self, capsys):
        code, out = run_cli(
            capsys, "sample-invariant", "--model", "tasep", "--n", "6",
            "--classes", "1,2", "--samples", "4", "--seed", "9",
        )
        assert code == 0
        data = loads(out)
        assert len(data["samples"]) == 4
        for s in data["samples"]:
            assert sorted(s) == sorted("120200"[:0] + s)  # labels only
            assert s.count("1") == 1 and s.count("2") == 2

    @pytest.mark.parametrize("samples", ["0", "1", "3"])
    @pytest.mark.parametrize("model", ["--model tasep --n 6 --classes 1,2", "--model had --classes 0,2,1"])
    def test_sample_invariant_streams_the_json_document(self, capsys, tmp_path, model, samples):
        # written sample by sample, the text is the one json.dumps gives
        argv = ["sample-invariant", *model.split(), "--samples", samples, "--seed", "5"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        data = loads(out)
        assert len(data["samples"]) == int(samples)
        assert out == json.dumps(data, indent=2) + "\n"
        code, path = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 0 and Path(path.strip()).read_text() == out

    def test_rate_eval(self, capsys, tmp_path):
        rho1 = tmp_path / "rho1.json"
        rho2 = tmp_path / "rho2.json"
        rho1.write_text(
            json.dumps(TorusMeasure.indicator(F(1, 4), F(1, 2)).to_json_dict())
        )
        rho2.write_text(
            json.dumps(TorusMeasure.indicator(F(1, 4), 1).to_json_dict())
        )
        code, out = run_cli(
            capsys, "rate-eval", "--rho1", str(rho1), "--rho2", str(rho2),
            "--m1", "1/4", "--m2", "3/4",
        )
        assert code == 0
        data = loads(out)
        assert data["finite"] and abs(data["value"] - 0.7780966989576439) < 1e-12
        assert data["plateaus"] == [{"lo": "0", "hi": "1/2"}]

    def test_rate_eval_csv_knots(self, capsys, tmp_path):
        rho1 = tmp_path / "rho1.json"
        rho2 = tmp_path / "rho2.json"
        rho1.write_text(json.dumps(TorusMeasure.indicator(F(1, 4), F(1, 2)).to_json_dict()))
        rho2.write_text(json.dumps(TorusMeasure.indicator(F(1, 4), 1).to_json_dict()))
        code, out = run_cli(
            capsys, "rate-eval", "--rho1", str(rho1), "--rho2", str(rho2),
            "--m1", "1/4", "--m2", "3/4", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "interval_start,kind,offset,value"
        assert any("envelope" in l for l in lines)

    def test_rate_eval_wrapping_plateau(self, capsys, tmp_path):
        # one plateau, [7/8, 1/8], whose cumulative turns convex at the
        # origin; the envelope straightens it
        eighths = [F(i, 8) for i in range(8)]
        rho1 = tmp_path / "rho1.json"
        rho2 = tmp_path / "rho2.json"
        rho1.write_text(json.dumps(TorusMeasure(eighths, [F(3, 4), 0, 0, F(1, 4), 0, 0, 0, F(1, 4)]).to_json_dict()))
        rho2.write_text(json.dumps(TorusMeasure(eighths, [F(3, 4)] + [F(1, 2)] * 6 + [F(1, 4)]).to_json_dict()))
        argv = ["rate-eval", "--rho1", str(rho1), "--rho2", str(rho2), "--m1", "5/32", "--m2", "1/2"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert loads(out) == {
            "value": 0.22252319405869256,
            "finite": True,
            "exact_zero": False,
            "diagonal": False,
            "complement_integral": 0.10983235181826667,
            "plateau_integrals": [0.07998783325514162],
            "second_layer_integral": 0.03270300898528424,
            "plateaus": [{"lo": "7/8", "hi": "1/8"}],
            "envelope_densities": [
                {"breakpoints": ["0", "1/8", "7/8"], "densities": ["1/2", "0", "1/2"], "atoms": []}
            ],
        }
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = [
            "interval_start,kind,offset,value",
            "7/8,cumulative,0,0",
            "7/8,cumulative,1/8,1/32",
            "7/8,cumulative,1/4,1/8",
            "7/8,envelope,0,0",
            "7/8,envelope,1/4,1/8",
        ]
        assert out == "".join(r + "\r\n" for r in rows) + "\n"

    def test_infinite_values_are_written_as_strings(self, capsys, tmp_path):
        # density 1 on half the torus at mass 1/4 has an infinite one-layer
        # rate, and two distinct layers of equal mass are inadmissible (only
        # the diagonal is): both rates are written as "inf"
        half, flat = tmp_path / "half.json", tmp_path / "flat.json"
        half.write_text(json.dumps(TorusMeasure.indicator(0, F(1, 2)).to_json_dict()))
        flat.write_text(json.dumps(TorusMeasure.constant(F(1, 2)).to_json_dict()))
        code, out = run_cli(capsys, "rate-eval", "--rho1", str(half), "--m1", "1/4")
        assert code == 0 and loads(out) == {"s1": "inf"}
        argv = ["rate-eval", "--rho1", str(flat), "--rho2", str(half), "--m1", "1/2", "--m2", "1/2"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        data = loads(out)
        assert data["value"] == "inf" and data["finite"] is False
        with pytest.raises(ValueError, match="Infinity is not standard JSON"):
            loads(json.dumps({"s1": float("inf")}))

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "tasep", "--n", "5", "--classes", "1,1", "--horizon", "1"],
            ["rate-eval", "--rho1", "RHO", "--m1", "1/2"],
        ],
    )
    def test_csv_without_table_is_one_line_exit_two(self, capsys, tmp_path, argv):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(TorusMeasure.constant(F(1, 2)).to_json_dict()))
        argv = [str(rho) if a == "RHO" else a for a in argv]
        code = main(argv + ["--format", "csv", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"toruscollapse {argv[0]}: error: this command has no table to write as CSV"
        ]
        assert not (tmp_path / "out").exists()

    def test_csv_empty_table(self, capsys, tmp_path):
        # the diagonal pair has no plateau intervals, so no knots
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(TorusMeasure.constant(F(1, 2)).to_json_dict()))
        code, out = run_cli(
            capsys, "rate-eval", "--rho1", str(rho), "--rho2", str(rho),
            "--m1", "1/2", "--m2", "1/2", "--format", "csv",
        )
        assert code == 0
        assert out.strip() == ""

    def test_minimizer(self, capsys, tmp_path):
        prof = tmp_path / "rho.json"
        prof.write_text(json.dumps(TorusMeasure.constant(F(3, 4)).to_json_dict()))
        code, out = run_cli(
            capsys, "minimizer", "--which", "first", "--profile", str(prof), "--mass", "1/4"
        )
        assert code == 0
        assert TorusMeasure.from_json_dict(loads(out)) == TorusMeasure.constant(F(1, 4))

    def test_ldp_decay_csv(self, capsys):
        code, out = run_cli(
            capsys, "ldp-decay", "--bins", "1/2,0",
            "--sizes", "100,1000", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("n,decay,rate,gap")

    def test_certify_nonconvex(self, capsys):
        code, out = run_cli(capsys, "certify-nonconvex")
        assert code == 0
        assert loads(out)["nonconvex"] is True

    def test_suite_exit_codes(self, capsys):
        code, out = run_cli(
            capsys, "suite", "ldp-decay",
        )
        assert code == 0
        assert "[PASS]" in out

    def test_suite_writes_report(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "suite", "nonconvexity", "--out", str(tmp_path),
        )
        assert code == 0
        report = loads((tmp_path / "nonconvexity.report.json").read_text())
        assert report["passed"] is True
        assert report["config"]["suite"] == "nonconvexity"
        assert "invocation" in report and "content_hash" in report

    def test_suite_all_runs_every_suite_in_order(self, capsys, tmp_path):
        overrides = {
            "ns": [3, 4], "ks": [2], "pairs": 20, "inputs": 10, "instances": 2,
            "samples": 50, "seeds": [1], "sizes": [100, 1000],
        }
        code, out = run_cli(
            capsys, "suite", "all", "--overrides", json.dumps(overrides), "--out", str(tmp_path),
        )
        assert code == 0
        reports = [loads((tmp_path / f"{name}.report.json").read_text()) for name in SUITES]
        assert len(list(tmp_path.glob("*.report.json"))) == len(SUITES) == 11
        assert [r["config"]["suite"] for r in reports] == list(SUITES)
        ids = [c["id"] for r in reports for c in r["checks"]]
        lines = out.splitlines()
        assert len(lines) == len(ids) == 18
        assert all(line.startswith(f"[PASS] {i}: ") for line, i in zip(lines, ids))

    @pytest.mark.parametrize("name, key", [("measure-collapse", "pair"), ("all", "bogus")])
    def test_suite_unread_override_is_one_line_exit_two(self, capsys, name, key):
        code = main(["suite", name, "--overrides", json.dumps({key: 5})])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"toruscollapse suite: error: suite {name} reads no override '{key}'"
        ]

    @pytest.mark.parametrize(
        "name, overrides, message",
        [
            ("stationarity", '{"ns": []}', "override 'ns' must be a nonempty list, not []"),
            ("recursion", '{"instances": -1}', "override 'instances' must be a count of at least 1, not -1"),
            ("stationarity", '{"ns": ["a"]}', "override 'ns' must be a list of counts of at least 2, not ['a']"),
            # malformed decay profiles, and two profiles sharing one check id
            ("ldp-decay", '{"profiles": [["1/2", "0"]], "sizes": [10]}', "overrides 'profiles' and 'sizes': ['1/2', '0'] at sizes [10]: profile not realizable at size 10"),
            ("ldp-decay", '{"profiles": [["1/2", "0"]], "sizes": [9]}', "overrides 'profiles' and 'sizes': ['1/2', '0'] at sizes [9]: bin count 2 must divide the ring size 9"),
            ("ldp-decay", '{"profiles": [["3/2", "0"]]}', "override 'profiles' must be density lists in [0, 1] of distinct lengths, not ['3/2', '0']"),
            ("ldp-decay", '{"profiles": [["-1/2", "0"]]}', "override 'profiles' must be density lists in [0, 1] of distinct lengths, not ['-1/2', '0']"),
            ("ldp-decay", '{"profiles": [[]]}', "override 'profiles' must be density lists in [0, 1] of distinct lengths, not []"),
            ("ldp-decay", '{"profiles": [["1/2", "0"], ["0", "1/2"]]}', "override 'profiles' must be density lists in [0, 1] of distinct lengths, not ['1/2', '0']"),
            ("ldp-decay", '{"profiles": [["a"]]}', "each of override 'profiles': Invalid literal for Fraction: 'a'"),
            ("ldp-decay", '{"profiles": [["1/2", "1/0"]]}', "each of override 'profiles': '1/0' has a zero denominator"),
            ("ldp-decay", '{"profiles": [[0.5, 0]]}', "each of override 'profiles' must be a list of 'p/q' strings or integers"),
            ("ldp-decay", '{"profiles": ["1/2"]}', "each of override 'profiles' must be a list of 'p/q' strings or integers"),
            # sizes the suite's own routes refuse, refused before any check runs
            ("ldp-decay", '{"sizes": [600000]}', "overrides 'profiles' and 'sizes': ['1/2', '0'] at sizes [600000]: ring sizes summing to 600000 exceed the cap of 500000 sites"),
            ("ldp-decay", '{"profiles": [["0", "0"]], "sizes": [10]}', "overrides 'profiles' and 'sizes': ['0', '0'] at sizes [10]: mean density 0 must lie strictly between 0 and 1"),
            ("ldp-decay", '{"profiles": [["1", "1", "1"]], "sizes": [30]}', "overrides 'profiles' and 'sizes': ['1', '1', '1'] at sizes [30]: mean density 1 must lie strictly between 0 and 1"),
            ("stationarity", '{"ns": [13], "ks": [2]}', "overrides 'ns' and 'ks': classes (0, 0) on N=13: refusing exhaustive enumeration for N=13 > 12"),
            ("stationarity", '{"ns": [12], "ks": [3]}', "overrides 'ns' and 'ks': classes (0, 2, 4) on N=12: state space too large for an exact solve"),
            ("had-invariance", '{"samples": 10, "seeds": [1]}', "override 'samples' must be a count of at least 50, not 10"),
            ("had-invariance", '{"n1": 2000000, "n2": 4000000, "seeds": [1]}', "overrides 'n1', 'n2' and 'samples': a draw would walk 4000000 points in each of 3 walks, charged 12000030 with 10 more per walk, more than the cap of 3000000"),
            ("had-invariance", '{"burn_in": 2000000, "seeds": [1]}', "override 'burn_in': horizon 2000000 expects about 2e+06 events, more than the cap of 1000000"),
            ("had-invariance", '{"sample_gap": 2000000, "seeds": [1], "samples": 50, "burn_in": 0}', "override 'sample_gap': horizon 2000000 expects about 2e+06 events, more than the cap of 1000000"),
            # a repeated seed would count twice toward the seven-in-eight rule
            ("had-invariance", '{"seeds": [1, 1, 1, 1, 1, 1, 1, 2]}', "override 'seeds' must be a list of distinct seeds, not [1, 1, 1, 1, 1, 1, 1, 2]"),
            ("had-invariance", '{"seeds": ["1", 1]}', "override 'seeds' must be a list of counts of at least 0, not ['1', 1]"),
            ("had-invariance", '{"seeds": [-1]}', "override 'seeds' must be a list of counts of at least 0, not [-1]"),
            ("had-invariance", '{"seeds": [1.0]}', "override 'seeds' must be a list of counts of at least 0, not [1.0]"),
        ],
    )
    def test_suite_override_testing_nothing_is_one_line_exit_two(self, capsys, name, overrides, message):
        code = main(["suite", name, "--overrides", overrides])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"toruscollapse suite: error: {message}"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "had-invariance", "--threads", "2"],
            ["suite", "all", "--threads", "2"],
            ["ldp-decay", "--bins", "1/2,0", "--m", "1/4"],
        ],
    )
    def test_removed_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "nope"])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["stationary", "--n", "3", "--classes", "5"], "class counts exceed ring size"),
            # the point model has no ring, so a ring size is refused, not ignored
            (["simulate", "--model", "had", "--n", "5", "--classes", "1,1"], "the point model takes no ring size n"),
            (["sample-invariant", "--model", "had", "--n", "5", "--classes", "1"], "the point model takes no ring size n"),
            # an empty class list: a traceback from simulate and sample-invariant,
            # a one-state table from stationary, before it was refused
            (["simulate", "--model", "tasep", "--n", "4", "--classes", ","], "at least one class count is required"),
            (["simulate", "--model", "had", "--classes", ","], "at least one class count is required"),
            (["sample-invariant", "--model", "tasep", "--n", "4", "--classes", ","], "at least one class count is required"),
            (["sample-invariant", "--model", "had", "--classes", ","], "at least one class count is required"),
            (["stationary", "--n", "4", "--classes", ","], "at least one class count is required"),
        ],
    )
    def test_domain_error_is_one_line_exit_two(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"toruscollapse {argv[0]}: error: {message}"]

    @pytest.mark.parametrize(
        "parts",
        [
            # a heavier first part of two and a heavier middle part of three
            [TorusConfig([1, 1, 0, 1]), TorusConfig([1, 0, 0, 0])],
            [TorusConfig([1, 0, 0, 0]), TorusConfig([1, 1, 1, 0]), TorusConfig([0, 1, 0, 1])],
            [PointConfig([F(1, 3), F(1, 2)]), PointConfig([0])],
            [PointConfig([F(1, 7)]), PointConfig([F(1, 3), F(1, 2), F(3, 4)]), PointConfig([0, F(1, 4)])],
            [TorusMeasure.constant(1), TorusMeasure.constant(F(1, 2))],
            [TorusMeasure.constant(F(1, 4)), TorusMeasure.constant(1), TorusMeasure.constant(F(1, 2))],
        ],
        ids=["configs-pair", "configs-triple", "points-pair", "points-triple", "measures-pair", "measures-triple"],
    )
    def test_collapse_error_is_one_line_exit_two(self, capsys, tmp_path, parts):
        path = tmp_path / "parts.json"
        path.write_text(json.dumps({"parts": [part_to_json(p) for p in parts]}))
        code = main(["collapse", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["toruscollapse collapse: error: masses must be nondecreasing"]

    def test_rate_eval_without_m2_is_one_line_exit_two(self, capsys, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(TorusMeasure.constant(F(1, 2)).to_json_dict()))
        code = main(["rate-eval", "--rho1", str(rho), "--rho2", str(rho), "--m1", "1/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == ["toruscollapse rate-eval: error: --rho2 needs --m2"]

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_ldp_decay_size_below_one_is_one_line_exit_two(self, capsys, size):
        code = main(["ldp-decay", "--bins", "1/2,0", "--sizes", size])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"toruscollapse ldp-decay: error: ring size {size} must be at least 1"
        ]

    def test_ldp_decay_over_the_cap_is_one_line_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(rate.math, "comb", None)  # refused before any binomial
        code = main(["ldp-decay", "--bins", "1/2,0", "--sizes", "10000000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "toruscollapse ldp-decay: error: ring sizes summing to 10000000 exceed the cap "
            f"of {rate.MAX_DECAY_SITES} sites"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate-eval", "--rho1", "{profile}", "--m1", "1/0"],
            ["rate-eval", "--rho1", "{profile}", "--rho2", "{profile}", "--m1", "1/4", "--m2", "1/0"],
            ["ldp-decay", "--bins", "1/0,0"],
            ["minimizer", "--which", "first", "--profile", "{profile}", "--mass", "1/0"],
        ],
    )
    def test_zero_denominator_argument_is_one_line_exit_two(self, capsys, tmp_path, argv):
        profile = tmp_path / "rho.json"
        profile.write_text(json.dumps(TorusMeasure.constant(Fraction(1, 2)).to_json_dict()))
        code = main([arg.format(profile=profile) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"toruscollapse {argv[0]}: error: {argv[-2]}: '1/0' has a zero denominator"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stationary", "--n", "4", "--classes", "1,a"], "--classes: invalid literal for int() with base 10: 'a'"),
            (["sample-invariant", "--model", "had", "--classes", "1/2"], "--classes: invalid literal for int() with base 10: '1/2'"),
            (["ldp-decay", "--bins", "1/2,0", "--sizes", "10,b"], "--sizes: invalid literal for int() with base 10: 'b'"),
            (["ldp-decay", "--bins", "1/2,x"], "--bins: Invalid literal for Fraction: 'x'"),
            (["ldp-decay", "--bins", "1/2,0", "--sizes", ""], "--sizes: invalid literal for int() with base 10: ''"),
            (["minimizer", "--which", "total", "--profile", "{profile}", "--mass", "half"], "--mass: Invalid literal for Fraction: 'half'"),
            (["rate-eval", "--rho1", "{profile}", "--m1", "1/2/3"], "--m1: Invalid literal for Fraction: '1/2/3'"),
        ],
    )
    def test_unreadable_number_names_its_flag_one_line_exit_two(self, capsys, tmp_path, argv, message):
        profile = tmp_path / "rho.json"
        profile.write_text(json.dumps(TorusMeasure.constant(Fraction(1, 2)).to_json_dict()))
        code = main([arg.format(profile=profile) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"toruscollapse {argv[0]}: error: {message}"]

    def test_unreadable_measure_field_is_named_one_line_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        measure = {"breakpoints": ["a"], "densities": ["1"]}
        path.write_text(json.dumps({"parts": [{"type": "measure", "data": measure}]}))
        code = main(["collapse", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "toruscollapse collapse: error: a measure's 'breakpoints': Invalid literal for Fraction: 'a'"
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            {"pieces": []},
            [],
            {"parts": [{"data": [1, 0]}]},
            {"parts": [{"type": "config"}]},
            {"parts": [{"type": "measure", "data": {}}]},
            {"parts": [{"type": "measure", "data": {"breakpoints": ["1/0"], "densities": ["1"]}}]},
            {"parts": [{"type": "config", "data": [1, 0]}, {"type": "points", "data": ["1/2"]}]},
            {"parts": [{"type": "points", "data": [None]}]},
            {"parts": [{"type": "config", "data": 5}]},
            {"parts": [{"type": "points", "data": {}}]},
            {"parts": [{"type": "points", "data": [0.5]}, {"type": "points", "data": ["1/4", "1/2"]}]},
            {"parts": 5},
            {"parts": None},
        ],
    )
    def test_malformed_collapse_input_is_one_line_exit_two(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main(["collapse", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("toruscollapse collapse: error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["collapse", "{missing}"],
            ["rate-eval", "--rho1", "{missing}", "--m1", "1/2"],
            ["minimizer", "--which", "total", "--profile", "{missing}", "--mass", "1/2"],
            ["certify-nonconvex", "--out", "{file}"],
        ],
    )
    def test_unreadable_file_is_one_line_exit_two(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("{}")
        paths = {"missing": tmp_path / "missing.json", "file": tmp_path / "file"}
        code = main([a.format(**paths) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"toruscollapse {argv[0]}: error: ")

    @pytest.mark.parametrize(
        "argv,shown",
        [
            (["--model", "tasep", "--n", "4", "--classes", "1,1", "--horizon", "nan"], "nan"),
            (["--model", "had", "--classes", "1,1", "--horizon", "inf"], "inf"),
            (["--model", "had", "--classes", "1,1", "--horizon", "-1"], "-1.0"),
        ],
    )
    def test_simulate_unreachable_horizon_is_one_line_exit_two(
        self, capsys, monkeypatch, no_clock_random, argv, shown
    ):
        monkeypatch.setattr(cli, "random", SimpleNamespace(Random=no_clock_random))
        code = main(["simulate", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            f"toruscollapse simulate: error: horizon must be finite and nonnegative, got {shown}"
        ]

    @pytest.mark.parametrize(
        "argv,shown",
        [
            (["--model", "tasep", "--n", "4", "--horizon", "1e12"], "1000000000000.0 expects about 4e+12"),
            (["--model", "had", "--horizon", "2e6"], "2000000.0 expects about 2e+06"),
        ],
    )
    def test_simulate_horizon_over_the_event_cap_is_one_line_exit_two(
        self, capsys, monkeypatch, no_clock_random, argv, shown
    ):
        # finite, but the run would not end in seconds: refused before any event
        monkeypatch.setattr(cli, "random", SimpleNamespace(Random=no_clock_random))
        code = main(["simulate", "--classes", "1,1", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            f"toruscollapse simulate: error: horizon {shown} events, more than the cap of 1000000"
        ]

    def test_negative_sample_count_is_one_line_exit_two(self, capsys):
        code = main(["sample-invariant", "--model", "had", "--classes", "1", "--samples", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "toruscollapse sample-invariant: error: --samples must be nonnegative"
        ]

    def test_oversized_sample_is_one_line_exit_two(self, capsys):
        code = main(["sample-invariant", "--model", "tasep", "--n", "100000000", "--classes", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "toruscollapse sample-invariant: error: a draw would walk 100000000 sites in each "
            "of 1 walks, charged 100000010 with 10 more per walk, more than the cap of 3000000"
        ]

    def test_oversized_sample_count_is_one_line_exit_two(self, capsys):
        argv = "--model tasep --n 1000 --classes 500 --samples 100000000"
        code = main(["sample-invariant", *argv.split()])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "toruscollapse sample-invariant: error: 100000000 draws would be charged "
            "101000000000 sites (1010 each), more than the cap of 5000000"
        ]

    def test_minimizer_non_measure_profile_is_one_line_exit_two(self, capsys, tmp_path):
        prof = tmp_path / "rho.json"
        prof.write_text("[1]")
        code = main(["minimizer", "--which", "total", "--profile", str(prof), "--mass", "1/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "toruscollapse minimizer: error: a measure must be a JSON object"
        ]

    def test_readme_commands_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [l for l in block.splitlines() if l.startswith("toruscollapse ")]
        assert len(commands) >= 10
        parser = build_parser()
        for line in commands:
            parser.parse_args(shlex.split(line)[1:])


def test_every_option_is_read_by_its_command():
    """Each option's dest occurs as args.<dest> in its subcommand's fn.
    --out may be read through _emit or _write instead, --format through
    _emit, and --format is allowed only where fn passes rows to _emit."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, parser in commands.choices.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(parser.get_default("fn"))))
        read = {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
        }
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
        emits = [n for n in calls if n.func.id == "_emit"]
        if any(n.func.id in ("_emit", "_write") for n in calls):
            read.add("out")
        if any(len(call.args) + len(call.keywords) > 2 for call in emits):
            read.add("format")
        unread += [
            f"{name} {action.dest}"
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction) and action.dest not in read
        ]
    assert unread == []

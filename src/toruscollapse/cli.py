"""Command-line interface.

Subcommands: collapse, simulate, stationary, sample-invariant, rate-eval,
minimizer, ldp-decay, certify-nonconvex, suite.  Rationals are accepted and
emitted as "p/q" strings; every stochastic command takes an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from .collapse import atomic_measure, collapse_k, collapse_measure
from .dynamics import (
    ProcessSpec,
    bond_update,
    check_draws,
    exact_stationary,
    had_simulate,
    pushforward_distribution,
    sample_invariant,
    tasep_simulate,
)
from .lattice import OrderedTuple, class_label_encode
from .measures import TorusMeasure, read_field
from .rate import (
    EntropyKernel,
    ldp_decay_exact,
    minimizer_rho1,
    minimizer_rho2,
    nonconvexity_certificate,
    s1,
    s2,
)
from .serialize import flux_to_json, part_from_json, part_to_json, rows_to_csv, to_json
from .suites import SUITES, SuiteConfig, run_suites


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(args, obj, rows=None):
    """Write obj as JSON to --out or stdout.  Under --format csv write the
    table `rows` instead (no rows make an empty CSV); a command or option
    combination with no table (rows None) raises ValueError."""
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        if rows is None:
            raise ValueError("this command has no table to write as CSV")
        text = rows_to_csv(rows)
    else:
        text = to_json(obj, indent=2)
    _write(args, fmt, [text])


def _write(args, fmt: str, chunks):
    """Write the text chunks as they come, to stdout with a newline, or to
    the command's file under --out, ending in one newline, printing its path."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.command}.{fmt}")
        with open(path, "w") as fh:
            last = ""
            for last in chunks:
                fh.write(last)
            if not last.endswith("\n"):
                fh.write("\n")
        print(path)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")


def _parse_classes(text: str) -> tuple[int, ...]:
    return tuple(read_field("--classes", c, int) for c in text.split(",") if c != "")


def cmd_collapse(args) -> int:
    payload = _read_json(args.input)
    if not isinstance(payload, dict) or not isinstance(payload.get("parts"), list):
        raise ValueError("input must be a JSON object with a 'parts' list")
    parts = [part_from_json(p) for p in payload["parts"]]
    flux = None
    measures = len(parts) == 2 and all(isinstance(p, TorusMeasure) for p in parts)
    if measures and parts[0].total_mass <= parts[1].total_mass:
        # one queue run gives an ordered measure pair's collapse and its
        # flux; OrderedTuple refuses a disordered result, as in collapse_k
        kept, flux = collapse_measure(*parts)
        out = OrderedTuple([kept, parts[1]])
    else:
        # collapse_k refuses mixed types and decreasing masses
        out = collapse_k(parts)
        if len(parts) == 2:
            # configurations and point sets report the flux of their
            # unit-atom encodings, the integer flux's values at their sites
            flux = collapse_measure(*[atomic_measure(p, 1) for p in parts])[1]
    result = {"parts": [part_to_json(p) for p in out]}
    if flux is not None:
        result["flux"] = flux_to_json(flux)
    _emit(args, result)
    return 0


def cmd_simulate(args) -> int:
    """Run one model from an invariant state: the events are kept and
    written only under --record, otherwise only their count."""
    rng = random.Random(args.seed)
    spec = ProcessSpec(args.model, _parse_classes(args.classes), n=args.n)
    if args.model == "tasep":
        labels = class_label_encode(list(sample_invariant(spec, rng)))
        final, events = tasep_simulate(labels, args.horizon, rng, record=args.record)
        obj = {"model": "tasep", "final_labels": list(final)}
        rows = []
        # the labels after each recorded event, by replaying its bond
        for t, x in events if args.record else ():
            labels = bond_update(labels, x)
            rows.append({"time": f"{t:.6f}", "event": x, "labels": "".join(map(str, labels))})
    else:
        start = list(sample_invariant(spec, rng))
        final, events = had_simulate(start, args.horizon, rng, record=args.record)
        obj = {"model": "had", "final_layers": [[str(p) for p in layer.points] for layer in final]}
        rows = [
            {"time": f"{t:.6f}", "event": str(u), "labels": ""}
            for t, u in (events if args.record else ())
        ]
    obj["events"] = rows if args.record else events
    _emit(args, obj, rows if args.record else None)
    return 0


def cmd_stationary(args) -> int:
    spec = ProcessSpec("tasep", _parse_classes(args.classes), n=args.n)
    table = exact_stationary(spec)
    obj = table.to_json_dict()
    if args.compare_pushforward:
        push = pushforward_distribution(spec)
        obj["pushforward_tv_distance"] = str(table.tv_distance(push))
    rows = [
        {"state": "".join(map(str, s)), "probability": str(p)}
        for s, p in table.items()
    ]
    _emit(args, obj, rows)
    return 0


def cmd_sample_invariant(args) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    rng = random.Random(args.seed)
    spec = ProcessSpec(args.model, _parse_classes(args.classes), n=args.n)
    check_draws(spec, args.samples)

    def chunks():
        # the text json.dumps(..., indent=2) gives the whole document, with
        # each sample written as soon as it is drawn
        yield f'{{\n  "model": {json.dumps(args.model)},\n  "samples": ['
        for i in range(args.samples):
            drawn = sample_invariant(spec, rng)
            if args.model == "tasep":
                sample = "".join(map(str, class_label_encode(list(drawn))))
            else:
                sample = [[str(p) for p in layer.points] for layer in drawn]
            text = json.dumps(sample, indent=2).replace("\n", "\n    ")
            yield f"{',' if i else ''}\n    {text}"
        yield "\n  ]\n}" if args.samples else "]\n}"

    _write(args, "json", chunks())
    return 0


def cmd_rate_eval(args) -> int:
    if args.rho2 is None:
        rho = TorusMeasure.from_json_dict(_read_json(args.rho1))
        kernel = EntropyKernel(args.family, read_field("--m1", args.m1))
        _emit(args, {"s1": s1(rho, kernel)})
        return 0
    if args.m2 is None:
        raise ValueError("--rho2 needs --m2")
    rho1 = TorusMeasure.from_json_dict(_read_json(args.rho1))
    rho2 = TorusMeasure.from_json_dict(_read_json(args.rho2))
    res = s2(rho1, rho2, read_field("--m1", args.m1), read_field("--m2", args.m2), args.family)
    obj = {
        "value": res.value,
        "finite": res.finite,
        "exact_zero": res.exact_zero,
        "diagonal": res.diagonal,
        "complement_integral": res.complement_integral,
        "plateau_integrals": list(res.plateau_integrals),
        "second_layer_integral": res.second_layer_integral,
        "plateaus": [{"lo": str(a.lo), "hi": str(a.hi)} for a in res.plateau.intervals]
        if res.plateau
        else None,
        "envelope_densities": [e.to_json_dict() for e in res.envelope_densities],
    }
    # knots of the plateau cumulative (rho1's, which is rho2's there) and
    # of its envelope on every plateau interval; none for an infinite or
    # diagonal rate
    rows = []
    for F, env in zip(res.plateau.cumulatives if res.plateau else (), res.envelopes):
        start = str(F.base.lo)
        for kind, knots in (("cumulative", F.knots), ("envelope", env.knots)):
            rows += [
                {"interval_start": start, "kind": kind, "offset": str(t), "value": str(v)}
                for t, v in knots
            ]
    _emit(args, obj, rows)
    return 0


def cmd_minimizer(args) -> int:
    rho = TorusMeasure.from_json_dict(_read_json(args.profile))
    mass = read_field("--mass", args.mass)
    out = minimizer_rho1(rho, mass) if args.which == "first" else minimizer_rho2(rho, mass)
    _emit(args, out.to_json_dict())
    return 0


def cmd_ldp_decay(args) -> int:
    dens = [read_field("--bins", x) for x in args.bins.split(",")]
    sizes = [read_field("--sizes", x, int) for x in args.sizes.split(",")]
    rows = ldp_decay_exact(dens, sizes)
    _emit(args, {"rows": rows}, rows)
    return 0


def cmd_certify_nonconvex(args) -> int:
    cert = nonconvexity_certificate()
    obj = {
        "margins": {str(c): v for c, v in cert["margins"].items()},
        "most_negative": cert["most_negative"],
        "limit_defect": cert["limit_defect"],
        "nonconvex": cert["most_negative"] < 0,
    }
    _emit(args, obj)
    return 0


def cmd_suite(args) -> int:
    overrides = json.loads(args.overrides) if args.overrides else {}
    if not isinstance(overrides, dict):
        raise ValueError("--overrides must be a JSON object")
    names = list(SUITES) if args.name == "all" else [args.name]
    reports = run_suites([SuiteConfig(name, args.seed, args.out, overrides) for name in names])
    failed = 0
    for rep in reports:
        for c in rep.checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"[{mark}] {c.check_id}: {c.statistic} (target {c.threshold})")
            failed += not c.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toruscollapse",
        description="Collapsing constructions and rate functionals on the torus",
    )
    p.add_argument("--version", action="version", version=__version__)
    # each subcommand takes only the shared flags it reads: --out on all,
    # --format where there is a table, --seed where there is randomness
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output directory")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("collapse", parents=[out], help="collapse a JSON tuple")
    c.add_argument("input", help="JSON file with {'parts': [...]} or - for stdin")
    c.set_defaults(fn=cmd_collapse)

    c = sub.add_parser("simulate", parents=[out, fmt, seed], help="run the dynamics")
    c.add_argument("--model", choices=("tasep", "had"), required=True)
    c.add_argument("--n", type=int, default=None, help="ring size (tasep)")
    c.add_argument("--classes", required=True, help="comma list of class counts")
    c.add_argument("--horizon", type=float, default=10.0)
    c.add_argument("--record", action="store_true")
    c.set_defaults(fn=cmd_simulate)

    c = sub.add_parser("stationary", parents=[out, fmt], help="exact stationary table")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--classes", required=True)
    c.add_argument("--compare-pushforward", action="store_true")
    c.set_defaults(fn=cmd_stationary)

    c = sub.add_parser("sample-invariant", parents=[out, seed], help="draw invariant states")
    c.add_argument("--model", choices=("tasep", "had"), required=True)
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--classes", required=True)
    c.add_argument("--samples", type=int, default=1)
    c.set_defaults(fn=cmd_sample_invariant)

    c = sub.add_parser("rate-eval", parents=[out, fmt], help="evaluate rate functionals")
    c.add_argument("--family", choices=("tasep", "had"), default="tasep")
    c.add_argument("--rho1", required=True, help="measure JSON file")
    c.add_argument("--rho2", default=None, help="optional second measure JSON file")
    c.add_argument("--m1", required=True)
    c.add_argument("--m2", default=None)
    c.set_defaults(fn=cmd_rate_eval)

    c = sub.add_parser("minimizer", parents=[out], help="explicit rate minimizers")
    c.add_argument("--which", choices=("first", "total"), required=True)
    c.add_argument("--profile", required=True, help="measure JSON file")
    c.add_argument("--mass", required=True)
    c.set_defaults(fn=cmd_minimizer)

    c = sub.add_parser("ldp-decay", parents=[out, fmt], help="exact decay vs rate")
    c.add_argument("--bins", required=True, help="comma list of bin densities")
    c.add_argument("--sizes", default="100,1000,10000")
    c.set_defaults(fn=cmd_ldp_decay)

    c = sub.add_parser("certify-nonconvex", parents=[out], help="convexity margins")
    c.set_defaults(fn=cmd_certify_nonconvex)

    c = sub.add_parser("suite", parents=[out, seed], help="run a verification suite")
    c.add_argument("name", choices=sorted(SUITES) + ["all"])
    c.add_argument("--overrides", default=None, help="JSON dict of size overrides")
    c.set_defaults(fn=cmd_suite)
    return p


def main(argv=None) -> int:
    """Run one subcommand; a domain error (ValueError, which covers
    CollapseError and EnumerationLimitError) or a file that cannot be read
    or written (OSError) ends it with one line on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"toruscollapse {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload ring-exact --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/` and nowhere else.  With `--trace 0` the result holds the
end-to-end metrics (setup_s, wall_s, peak_rss_mib); with `--trace 1` the
rounds alternate untraced and traced, the result holds the per-layer
metrics, and the spans go to `bench/out/trace-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = ("lattice", "measures", "collapse", "dynamics", "rate")
SETUP_REPEATS = 21

sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402

IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    + "; ".join(f"import toruscollapse.{m}" for m in LAYERS)
    + "; print(time.perf_counter() - t)"
)


def import_package():
    """The layer modules, imported from this checkout's src/ only."""
    if not os.path.isdir(os.path.join(SRC, "toruscollapse")):
        raise ImportError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    mods = {m: importlib.import_module(f"toruscollapse.{m}") for m in LAYERS}
    for mod in mods.values():
        if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
            raise ImportError(f"{mod.__name__} was imported from {mod.__file__}")
    return types.SimpleNamespace(**mods)


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_seconds() -> float:
    """Package import time in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, SRC],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip())


def measure_setup(workload, seed, tc):
    """Median of several set-ups, each a fresh-interpreter import plus
    input generation, scaled to the reference host speed by the probe
    taken just before and just after it.  Returns the median and the last
    inputs made."""
    totals = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe_s()
        imp = import_seconds()
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed, tc, tracing.NullTracer())
        totals.append(speed.at_ref(imp + time.perf_counter() - t0, before, speed.probe_s()))
    return statistics.median(totals), inputs


def run_rounds(workload, inputs, tc, seconds, tracer):
    """Whole rounds until the next one would end past `seconds`; with a
    tracer, each untraced round is followed by a traced one.  Returns the
    rounds as (traced, Round) pairs, the first round's outputs, and whether
    every later round gave the same outputs."""
    rounds, first, same = [], None, True
    probe = speed.SpeedProbe()
    start = time.perf_counter()
    while True:
        passes = [(False, Round(tracing.NullTracer(), probe))]
        if tracer is not None:
            passes.append((True, Round(tracer, probe)))
        for traced, rnd in passes:
            if traced:
                tracer.round = len(rounds)
            with tracer.patched() if traced else contextlib.nullcontext():
                out = workload.run_round(inputs, tc, rnd)
            rounds.append((traced, rnd))
            if first is None:
                first = out
            else:
                same = same and out == first
        elapsed = time.perf_counter() - start
        if elapsed * (1 + len(passes) / len(rounds)) > seconds:
            return rounds, first, same


def wall_seconds(rounds) -> float:
    """Sum over a round's calls of each call's median time across the
    untraced rounds, at the reference host speed."""
    times = [r.times for traced, r in rounds if not traced]
    return sum(statistics.median(call) for call in zip(*times))


def layer_metrics(workload, tracer, rounds, inputs, outputs):
    """Per-layer figures: medians over traced rounds of span-derived times,
    plus counts derived from the outputs."""
    per_round = []
    for idx, (traced, _) in enumerate(rounds):
        if not traced:
            continue
        v = tracing.SpanView(tracer.spans, idx)
        per_round.append(
            {
                "collapse.discrete.calls": v.calls("collapse.discrete"),
                "collapse.discrete.busy_s": v.busy_s("collapse.discrete"),
                "collapse.discrete.n1000_ms": v.case_ms("collapse.discrete", "n1000"),
                "collapse.discrete.n4000_ms": v.case_ms("collapse.discrete", "n4000"),
                "collapse.discrete.n16000_ms": v.case_ms("collapse.discrete", "n16000"),
                "dynamics.pushforward.busy_s": v.busy_s("dynamics.pushforward"),
                "dynamics.exact_stationary.busy_s": v.busy_s("dynamics.exact_stationary"),
                "collapse.points.busy_s": v.busy_s("collapse.points"),
                "collapse.points.k200_ms": v.case_ms("collapse.points", "k200"),
                "collapse.points.k800_ms": v.case_ms("collapse.points", "k800"),
                "collapse.points.k1600_ms": v.case_ms("collapse.points", "k1600"),
                "dynamics.sample_invariant.tasep_busy_s": v.busy_s("dynamics.sample_invariant", "tasep"),
                "dynamics.sample_invariant.had_busy_s": v.busy_s(
                    "dynamics.sample_invariant", "had:k400", "had:k800"
                ),
                "dynamics.sample_invariant.had_k800_ms": v.case_ms("dynamics.sample_invariant", "had:k800"),
                "dynamics.had_simulate.busy_s": v.busy_s("dynamics.had_simulate"),
                "collapse.measure.calls": v.calls("collapse.measure"),
                "collapse.measure.busy_s": v.busy_s("collapse.measure"),
                "collapse.measure.atoms_k50_ms": v.case_ms("collapse.measure", "atoms:k50"),
                "collapse.measure.atoms_k100_ms": v.case_ms("collapse.measure", "atoms:k100"),
                "collapse.measure.atoms_k200_ms": v.case_ms("collapse.measure", "atoms:k200"),
                "rate.s2.busy_s": v.busy_s("rate.s2"),
                "rate.s2_oracle.busy_s": v.busy_s("rate.s2_oracle"),
                "rate.contraction.busy_s": v.busy_s("rate.contraction"),
                "rate.sk_oracle.busy_s": v.busy_s("rate.sk_oracle"),
                "rate.s3_recursive.busy_s": v.busy_s("rate.s3_recursive"),
                "rate.s2.cells8_ms": v.case_ms("rate.s2", "tasep:cells8", "had:cells8"),
                "rate.s2.cells32_ms": v.case_ms("rate.s2", "tasep:cells32", "had:cells32"),
            }
        )
    metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    metrics |= COUNT_DEFAULTS | workload.counts(inputs, outputs)
    had_busy = metrics["dynamics.had_simulate.busy_s"]
    metrics["dynamics.had_simulate.marks_per_s"] = (
        metrics["dynamics.had_simulate.marks"] / had_busy if had_busy else 0.0
    )
    setup = tracing.SpanView(tracer.spans, -1)
    metrics["lattice.generate.busy_s"] = setup.busy_s("lattice.generate")
    metrics["measures.build.busy_s"] = setup.busy_s("measures.build")
    metrics["trace.overhead_s"] = statistics.median(
        sum(traced.times) - sum(plain.times)
        for (_, plain), (_, traced) in zip(rounds[0::2], rounds[1::2])
    )
    return metrics


COUNT_DEFAULTS = {
    "dynamics.pushforward.tuples": 0,
    "dynamics.exact_stationary.states": 0,
    "dynamics.had_simulate.marks": 0,
    "collapse.measure.grid_cells": 0,
    "measures.max_den_bits": 0,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    origin = time.perf_counter()
    try:
        tc = import_package()
    except ImportError as exc:
        print(f"bench: cannot import the package: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        inputs = workload.make_inputs(args.seed, tc, tracer)
    else:
        setup_s, inputs = measure_setup(workload, args.seed, tc)
    rounds, outputs, same = run_rounds(workload, inputs, tc, args.seconds, tracer)

    problems, faulty = workload.check(inputs, outputs)
    if not same:
        problems.append("rounds on the same inputs gave different outputs")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for p in faulty:
        print(f"KNOWN FAULT, counted as failed in every round: {p}", file=sys.stderr)

    if tracer is not None:
        metrics = layer_metrics(workload, tracer, rounds, inputs, outputs)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(out_dir, f"trace-{args.workload}.jsonl"), origin)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_seconds(rounds),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(
        f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
        f"{len(problems)} check failures",
    )
    units = metric_units()
    result = {
        "correct": not problems,
        "attempted": sum(len(r.times) for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds) + len(faulty) * len(rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

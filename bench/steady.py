"""Steadiness of the benchmark: run one workload on several seeds and
summarise each end-to-end metric by its median and quartiles.

    python3 bench/steady.py --workload torus-points --runs 10 --save a.json
    python3 bench/steady.py --workload torus-points --runs 10 --first-seed 101 --compare a.json

Each run is a separate process, as the benchmark is run for real, with
the run length from BENCHMARK.json.  The spread of a metric is the
distance between its first and third quartile as a share of its median;
it must stay below a third of the metric's bound.  `--compare` reads an
earlier set saved with `--save` and reports, for every metric, by what
share this set's median is worse than that one's, against the bound, and
whether the failed share agrees exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec, workload, seed) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results, bounds, better) -> dict:
    rows = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rows[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "bound": bounds[name],
            "better": better.get(name),
            "values": vals,
        }
    return rows


def worse_share(new, old, better) -> float:
    """By what share `new` is worse than `old` (negative: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write the runs and summary to this JSON file")
    ap.add_argument("--compare", help="an earlier --save file to compare medians against")
    args = ap.parse_args(argv)

    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(spec, args.workload, seed)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)
    rows = summarise(results, bounds, better)
    shares = {r["failed"] / r["attempted"] for r in results}
    ok = all(r["correct"] for r in results) and len(shares) == 1

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, row in rows.items():
        steady = row["spread"] < row["bound"] / 3
        ok &= row["spread"] <= row["bound"]
        print(
            f"{name:44} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
            f"{row['spread']:8.2%} {row['bound']:>6} {'steady' if steady else 'UNSTEADY'}"
        )
    print(f"failed share(s): {sorted(shares)}")

    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
        print(f"\nagainst {args.compare}:")
        for name, row in rows.items():
            if name not in old["summary"]:
                continue
            share = worse_share(row["median"], old["summary"][name]["median"], row["better"])
            agree = share <= row["bound"]
            ok &= agree
            print(f"{name:44} worse by {share:8.2%} (bound {row['bound']:.0%}) {'ok' if agree else 'WORSE'}")
        same = shares == set(old["failed_shares"])
        ok &= same
        print(f"failed share agrees: {same}")

    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "runs": results, "summary": rows,
                       "failed_shares": sorted(shares)}, fh, indent=1)
    print("\nOK" if ok else "\nNOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

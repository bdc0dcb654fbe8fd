#!/usr/bin/env python3
"""Measures one commit with the layer-ledger benchmark and appends the
figures to the bench trajectory.

Run from the repository root:

    python3 ledgerbench/trajectory.py --commit <sha> [--runs 10] [--traced 3]

For every workload in BENCHMARK.json it runs the benchmark --runs times
with seeds 1..runs (--trace 0) and --traced times with --trace 1, then
prints, per metric, the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median next to the metric's bound. With --append it adds one
JSON line with those figures and the runs' provenance stamp to
ledgerbench/trajectory.jsonl. It exits 1 when a run fails, when an
end-to-end spread (setup_s excepted) exceeds its bound, or when runs of
one seed disagree on their digest or an exact count differs across seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Per-layer metrics that are exact counts and must repeat across seeds.
EXACT = ("vm.steps", "minipy.ops", "minipy.reg_ops", "counters.ops",
         "counters.l1_mpki", "counters.l2_mpki", "counters.tlb_mpki",
         "counters.branch_mpki", "harness.cache_hits", "harness.cache_misses")


def run_once(spec, commit, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--commit", commit,
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    res = json.loads(lines[-1])
    stamp = next(json.loads(l[len("stamp "):]) for l in lines if l.startswith("stamp "))
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return res, stamp, digest


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=3)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    entry = {"commit": args.commit, "run_seconds": spec["run_seconds"], "workloads": {}}
    bad = []
    for w in names:
        figures, digests, exact = {}, {}, {}
        for trace, count in ((0, args.runs), (1, args.traced)):
            values = {}
            for seed in range(1, count + 1):
                res, stamp, digest = run_once(spec, args.commit, w, seed, trace)
                entry.setdefault("stamp", stamp)
                if not res["correct"]:
                    bad.append(f"{w} seed {seed}: incorrect")
                if digests.setdefault(seed, digest) != digest:
                    bad.append(f"{w} seed {seed}: digest {digest} != {digests[seed]}")
                for k, m in res["metrics"].items():
                    values.setdefault(k, []).append(m["value"])
                    figures.setdefault(k, {"unit": m["unit"]})
                    if k in EXACT and exact.setdefault(k, m["value"]) != m["value"]:
                        bad.append(f"{w} seed {seed}: {k} {m['value']} != {exact[k]}")
                shown = bounds if trace == 0 else ("trace.unattributed_frac", "vm.steps")
                print(f"{w} seed {seed} trace {trace}: " + " ".join(
                    f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items())
                    if k in shown), flush=True)
            for k, xs in values.items():
                if len(xs) >= 2:
                    figures[k].update(summarize(xs))
        entry["workloads"][w] = figures
        for k, b in sorted(bounds.items()):
            f = figures[k]
            print(f"{w:13} {k:14} median {f['median']:.6g} q1 {f['q1']:.6g} q3 {f['q3']:.6g} "
                  f"spread {f['spread']:.4f} bound {b}")
            if k != "setup_s" and f["spread"] > b:
                bad.append(f"{w} {k}: spread {f['spread']:.4f} above bound {b}")
    for b in bad:
        print("FAIL", b)
    if args.append:
        with open(os.path.join(HERE, "trajectory.jsonl"), "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

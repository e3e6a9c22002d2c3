#!/usr/bin/env python3
"""Steadiness record for perfbench.

Runs the benchmark in two sets on the same tree, each set RUNS runs of
every workload with a different seed per run, alternating workloads run by run.
For every end-to-end metric it records each set's median, quartiles and
IQR as a share of the median, checks the spread against the metric's
bound in BENCHMARK.json (setup_s included), and checks that the second set's median is not
worse than the first's by more than the bound. With --traced it also
makes one traced run per workload and keeps its per-layer metrics.

Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10 --traced --out perfbench/STEADINESS.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    took = time.time() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[0])["record"]
    return result, record, took


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="window per run (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    sets, env = [], {}
    for s in range(SETS):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in workloads:  # alternate workloads run by run
                res, rec, took = run_once(w, seed, seconds, 0)
                env = {k: rec[k] for k in ("nproc", "gomaxprocs", "go_version", "store_fs")}
                runs[w].append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                                "failed": res["failed"], "wall_s": round(took, 2),
                                "host_steal_share": rec["host_steal_share"],
                                "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                                "wall_clock": {k: v["value"] for k, v in rec["wall_clock"].items()},
                                "runtime": {k: v["value"] for k, v in rec["runtime"].items()}})
                print(f"set {s + 1} seed {seed} {w}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        sets.append(runs)

    summary, ok = {}, True
    for w in workloads:
        summary[w] = {}
        for name, m in e2e.items():
            per_set = [spread([r["metrics"][name] for r in st[w]]) for st in sets]
            entry = {"bound": m["bound"], "sets": per_set}
            entry["spread_ok"] = all(p["iqr_share"] <= m["bound"] for p in per_set)
            entry["spread_below_third_of_bound"] = all(p["iqr_share"] < m["bound"] / 3 for p in per_set)
            a, b = per_set[0]["median"], per_set[1]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            entry["second_vs_first_worse_share"] = worse
            entry["medians_ok"] = worse <= m["bound"]
            ok = ok and entry["spread_ok"] and entry["medians_ok"]
            summary[w][name] = entry
        for name in sets[0][w][0]["wall_clock"]:
            summary[w]["wall_clock." + name] = {"bound": None, "sets": [
                spread([r["wall_clock"][name] for r in st[w]]) for st in sets]}
        summary[w]["host_steal_share"] = {"bound": None, "sets": [
            spread([r["host_steal_share"] for r in st[w]]) for st in sets]}
        failed = sum(r["failed"] for st in sets for r in st[w])
        attempted = sum(r["attempted"] for st in sets for r in st[w])
        summary[w]["failed_share"] = failed / attempted
        ok = ok and failed == 0 and all(r["correct"] for st in sets for r in st[w])

    traced = {}
    if args.traced:
        for w in workloads:
            res, rec, _ = run_once(w, 1000, seconds, 1)
            traced[w] = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                         "traced_ops": rec["traced_ops"], "accounted": rec.get("accounted", ""),
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}}

    doc = {
        "what": "perfbench steadiness record: sets of runs on one tree, seeds 1..N (set 1) and N+1..2N (set 2), "
                "workloads alternating run by run; spreads are IQR/median as statistics.quantiles(n=4) gives them; "
                "wall_clock.* and host_steal_share are recorded without a bound",
        "seconds_per_run": seconds, "runs_per_set": args.runs, "sets": SETS,
        "host": {**env, "machine": platform.machine(), "python": platform.python_version(),
                 "cpu_count": os.cpu_count()},
        "workloads": workloads, "dropped_workloads": {},
        "accepted": ok, "summary": summary, "traced": traced,
        "runs": [{w: st[w] for w in workloads} for st in sets],
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    for w in workloads:
        for name, e in summary[w].items():
            if name == "failed_share":
                continue
            print(f"{w:13s} {name:20s} " + " ".join(
                f"med={p['median']:.4g} iqr={p['iqr_share'] or 0:.3f}" for p in e["sets"]) +
                  (f" worse={e['second_vs_first_worse_share']:+.3f}" if "second_vs_first_worse_share" in e else "") +
                  ("" if e.get("spread_ok", True) else "  SPREAD OVER BOUND"))
    print("accepted:", ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

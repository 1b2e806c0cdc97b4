#!/usr/bin/env python3
"""Steadiness test for the benchmark defined in BENCHMARK.json.

Runs the benchmark command from the repository root, as

    python3 perfbench/steady.py

with every workload of BENCHMARK.json, its run_seconds, 10 runs (one
seed each) per set and two sets, and checks, for every workload:

- every run exits 0 with correct=true and failed=0;
- within each set, the spread of every end-to-end metric -- the
  distance between the first and third quartile as a share of the
  median -- stays within its bound; spreads above a third of the bound
  are flagged as "loose";
- the second set's median is not worse than the first set's by more
  than the bound;
- two traced runs at one seed pass, with byte-identical modeled figures
  and layer spans covering at least 90% of the timed wall clock.

Results go to perfbench/out/steady.json.  Exit code 1 on any failure.
"""

import json
import os
import statistics
import subprocess
import sys

# Per-layer figures that are exact for a seed: counts and the modeled
# cost of the workload, never host time.
MODELED = {
    "modeled_cycles_geomean", "modeled_energy_geomean_uj", "serve_p99_virtual_ms",
    "serve_deadline_miss_rate", "fg.solve_macs", "isa.instructions",
    "sim.stall_operand_cycles", "sim.stall_structural_cycles", "serve.cache_hit_ratio",
    "serve.mean_batch_size", "serve.queue_depth_max", "serve.fleet_util_mean",
    "hw.dse_candidates_evaluated", "hw.dse_cache_hit_ratio", "error_rate",
} | {
    f"{p}.{m}" for p in ("smoother", "window")
    for m in ("tick_macs_p50", "tick_macs_p95", "affected_fraction_p50", "relin_passes",
              "tick_to_batch_macs_max")
} | {"window.marginalized"}


RUNS = 10
SETS = 2


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result, p.stderr[-2000:]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    failures = []
    report = {"seconds": seconds, "workloads": {}}

    for w in names:
        sets = []
        for s in range(SETS):
            values = {m: [] for m in e2e}
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                code, res, err = run(bench, w, seed, seconds, 0)
                if code != 0 or res is None or not res["correct"] or res["failed"] != 0:
                    failures.append(f"{w} seed {seed}: exit {code}, result {res}, stderr {err}")
                    continue
                for m in e2e:
                    values[m].append(res["metrics"][m]["value"])
                print(w, "set", s, "seed", seed,
                      " ".join(f"{m}={values[m][-1]:.6g}" for m in e2e), flush=True)
            stats = {}
            for m, vs in values.items():
                if len(vs) < 4:
                    continue
                sp, med = spread(vs)
                bound = e2e[m]["bound"]
                status = "ok" if sp <= bound / 3 else ("loose" if sp <= bound else "FAIL")
                if status == "FAIL":
                    failures.append(f"{w} set {s}: {m} spread {sp:.3f} > bound {bound}")
                stats[m] = {"median": med, "spread": sp, "bound": bound, "status": status,
                            "values": vs}
                print(f"  {w} set {s} {m}: median {med:.6g} spread {sp:.4f} "
                      f"(bound {bound}) {status}", flush=True)
            sets.append(stats)
        for s in range(1, len(sets)):
            for m, st in sets[s].items():
                if m not in sets[0]:
                    continue
                m0, m1 = sets[0][m]["median"], st["median"]
                worse = (m1 - m0) / m0 if e2e[m]["better"] == "lower" else (m0 - m1) / m0
                if worse > e2e[m]["bound"]:
                    failures.append(f"{w}: {m} median of set {s} worse by {worse:.3f}")
                print(f"  {w} {m}: set {s} median vs set 0 worse by {worse:+.4f}", flush=True)
        entry = {"sets": sets}

        traced = []
        for _ in range(2):
            code, res, err = run(bench, w, 1, seconds, 1)
            if code != 0 or res is None or not res["correct"]:
                failures.append(f"{w} traced: exit {code}, result {res}, stderr {err}")
                break
            traced.append(res["metrics"])
        if len(traced) == 2:
            for m in MODELED & layer_names:
                a, b = traced[0][m]["value"], traced[1][m]["value"]
                if a != b:
                    failures.append(f"{w}: modeled {m} differs across runs: {a} vs {b}")
            cov = traced[0]["obs.span_coverage"]["value"]
            if cov < 0.9:
                failures.append(f"{w}: span coverage {cov} < 0.9")
            entry["traced"] = traced[0]
            print(f"  {w} traced: coverage {cov:.4f}, overhead "
                  f"{traced[0]['obs.overhead_ratio']['value']:.4f}", flush=True)
        report["workloads"][w] = entry

    report["failures"] = failures
    os.makedirs("perfbench/out", exist_ok=True)
    with open("perfbench/out/steady.json", "w") as f:
        json.dump(report, f, indent=1)
    for line in failures:
        print("FAIL", line)
    print("steady: ok" if not failures else f"steady: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

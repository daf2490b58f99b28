"""Steadiness evidence: two sets of runs of the same checkout per workload.

Run from the root of a source checkout:

    python3 perfbench/steady.py --runs 10

Each set runs ``perfbench/run.py`` once per seed on every workload (set 1
uses seeds 1..runs, set 2 the next runs seeds), one run at a time. For
every end-to-end metric it prints the median and quartiles of each set
(``statistics.quantiles(values, n=4)``), the spread (distance between the
quartiles as a share of the median), the drift of the second median from
the first, and the metric's bound from BENCHMARK.json. The raw results go
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for k in range(args.runs):
                seed = s * args.runs + k + 1
                res = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: wall {res['wall_s']:.1f} s, "
                      f"correct {res['correct']}, {res['failed']}/{res['attempted']} failed",
                      file=sys.stderr)

    os.makedirs(os.path.join("perfbench", "results"), exist_ok=True)
    path = os.path.join("perfbench", "results", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)

    print("| workload | metric | bound | " + " | ".join(
        f"set {s + 1} median [q1, q3] (spread)" for s in range(SETS)) + " | drift | failed share |")
    print("|---|---|---|" + "---|" * SETS + "---|---|")
    for w in workloads:
        ratios = {r["failed"] / r["attempted"] for rs in results[w] for r in rs}
        share = f"{ratios.pop():.4f}" if len(ratios) == 1 else f"DIFFERS: {sorted(ratios)}"
        for name, bound in bounds.items():
            cells, medians = [], []
            for s in range(SETS):
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results[w][s]])
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({spread * 100:.1f} %)")
            better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
            drift = (medians[1] - medians[0]) / medians[0]
            worse = drift if better == "lower" else -drift
            print(f"| {w} | {name} | {bound * 100:g} % | " + " | ".join(cells)
                  + f" | {worse * 100:+.1f} % worse | {share} |")
    print(f"raw results: {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

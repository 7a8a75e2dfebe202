"""Run the benchmark as two sets of runs and report whether they agree.

    python3 perfbench/compare.py --seeds 1-10 --sets 2
    python3 perfbench/compare.py --workloads loop --seeds 1-5 --sets 1 --traced 0

For each set, every workload runs once per seed (one process at a time,
nothing alongside). Per workload and end-to-end metric it prints each set's
median and spread (first-to-third quartile distance over the median), and
whether the spread stays within the metric's bound in BENCHMARK.json and
the second set's median is not worse than the first's by more than the
bound. `setup_s` is held only to the second rule. It also compares the
share of failed runs between sets, and reports the tracing overhead: the
median `trace.run_s` of traced runs on the first `--traced` seeds minus the
median untraced `run_s` on the same seeds. Raw results go to
`.perfbench/compare-<time>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--traced", type=int, default=3, help="seeds (from the first) that also get a traced run")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    raw: Dict[str, dict] = {"seeds": seeds, "seconds": args.seconds, "sets": [], "traced": {}}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    out_path = os.path.join(ROOT, ".perfbench", time.strftime("compare-%Y%m%d-%H%M%S.json"))
    for _ in range(args.sets):
        runs = {w: [] for w in workloads}
        raw["sets"].append(runs)
        for w in workloads:
            for seed in seeds:
                runs[w].append(run_once(w, seed, args.seconds, 0))
                with open(out_path, "w", encoding="utf-8") as fh:
                    json.dump(raw, fh)
    for w in workloads:
        raw["traced"][w] = [run_once(w, seed, args.seconds, 1) for seed in seeds[: args.traced]]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)

    ok = True
    for w in workloads:
        sets = [s[w] for s in raw["sets"]]
        print(f"== {w}: {len(seeds)} seeds x {len(sets)} sets")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len(set(shares)) == 1
        ok &= correct and same_share
        print(f"   correct in every run: {correct}; failed share per set: {shares} ({'same' if same_share else 'DIFFERS'})")
        for name, m in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in vals]
            worse = [worsening(meds[0], med, m["better"]) for med in meds[1:]]
            agree = all(x <= m["bound"] for x in worse) and (name == "setup_s" or all(s <= m["bound"] for s in spreads))
            ok &= agree
            print(
                f"   {name:16s} {m['unit']:12s} bound {m['bound']:.2f}  medians "
                + " ".join(f"{x:.4g}" for x in meds)
                + "  spreads "
                + " ".join(f"{x:.3f}" for x in spreads)
                + ("  worse " + " ".join(f"{x:+.3f}" for x in worse) if worse else "")
                + ("  ok" if agree else "  OUTSIDE BOUND")
            )
        traced = raw["traced"].get(w)
        if traced:
            untraced = [r["metrics"]["run_s"]["value"] for r in sets[0][: len(traced)]]
            t_run = statistics.median(r["metrics"]["trace.run_s"]["value"] for r in traced)
            u_run = statistics.median(untraced)
            print(f"   tracing overhead: traced run_s {t_run:.4f} - untraced {u_run:.4f} = {t_run - u_run:+.4f} s ({(t_run - u_run) / u_run:+.1%})")
    print(f"raw results: {os.path.relpath(out_path, ROOT)}")
    print("ALL AGREE" if ok else "SOME METRICS DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

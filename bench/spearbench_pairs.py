#!/usr/bin/env python3
"""Runs spearbench on two checkouts in alternating pairs and compares them.

    python3 bench/spearbench_pairs.py --parent <dir> --change <dir> \\
        --workload offline_leaf --seeds 931-940 [--seconds 20] [--out f.json]

Each seed is one pair: both checkouts run `spearbench/run.py --workload W
--seed S --seconds T --trace 0` from their own root, one after the other.
The side that runs first alternates from pair to pair (the parent leads
the first pair), so a drift in machine speed over the pairs does not
favour one side.  The first run of a checkout builds its .bench_build/
before the timed run starts.

For each side the output gives the median and quartiles of the normalized
jobs/s (the result object's `jobs_per_s`) and of the raw jobs/s (from the
run's `# machine slowdown` note).  It counts the pairs the change wins on
each, and says whether `makespan_ratio` and `jct_slowdown` were equal on
every seed.  Every run's figures are kept under "pairs".  Seeds take a
comma list of numbers and ranges (`931-935,941`).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
RAW_NOTE = re.compile(r"^# machine slowdown ([0-9.eE+-]+); raw (.*)$")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(root, workload, seed, seconds):
    """One spearbench run: the result metrics, the raw note and the probe."""
    cmd = [sys.executable, os.path.join("spearbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run failed for seed {seed}")
    result = json.loads(lines[-1])
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run["failed"] = result["failed"]
    run["correct"] = result["correct"]
    for line in lines:
        match = RAW_NOTE.match(line)
        if match:
            run["machine_slowdown"] = float(match.group(1))
            for item in match.group(2).split(","):
                name, value = item.split()
                run["raw_" + name] = float(value)
    return run


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, metric):
    """Each side's spread of `metric` and the pairs the change wins."""
    out = {side: spread([p[side][metric] for p in pairs]) for side in SIDES}
    out["change_wins"] = sum(p["change"][metric] > p["parent"][metric]
                             for p in pairs)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 931-940,951")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", help="write the JSON here (default stdout)")
    args = parser.parse_args()
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    pairs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(roots[side], args.workload, seed,
                                  args.seconds)
        pairs.append(pair)
        print(f"seed {seed}: jobs/s parent "
              f"{pair['parent']['jobs_per_s']:.2f} change "
              f"{pair['change']['jobs_per_s']:.2f} (raw "
              f"{pair['parent'].get('raw_jobs_per_s', 0):.2f} / "
              f"{pair['change'].get('raw_jobs_per_s', 0):.2f})",
              file=sys.stderr, flush=True)

    report = {
        "command": (f"bench/spearbench_pairs.py --workload {args.workload} "
                    f"--seeds {args.seeds} --seconds {args.seconds}"),
        "workload": args.workload,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "jobs_per_s": summarize(pairs, "jobs_per_s"),
        "raw_jobs_per_s": summarize(pairs, "raw_jobs_per_s"),
        "makespans_equal": all(
            p["parent"][m] == p["change"][m]
            for p in pairs for m in ("makespan_ratio", "jct_slowdown")),
        "failed": {side: sum(p[side]["failed"] for p in pairs)
                   for side in SIDES},
        "pairs": pairs,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()

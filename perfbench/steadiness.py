#!/usr/bin/env python3
"""Steadiness check for the end-to-end metrics of perfbench/run.py.

    python3 perfbench/steadiness.py [--out perfbench/steadiness]

Runs every workload of BENCHMARK.json once per seed (1 to 10) and set
(two of them), untraced, with the run length BENCHMARK.json fixes. The
sets are interleaved: for each seed, both sets run before the next seed
starts, and the order of the sets alternates from one seed to the next.
Host drift therefore reaches both sets alike.

For each set, workload and metric it reports the median, the quartiles
from statistics.quantiles(values, n=4), the spread (Q3 - Q1) / median
and the sample count. For each set after the first it also reports how
far that set's median moved from the first set's, against the metric's
bound. Metrics printed beside the result line (op_failure_rate,
latency_p90_ms, write_p50_us) are covered as well. Prints the table as
Markdown and writes every value to <out>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    """Returns {metric: value} of one untraced run, extra lines included."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode}): {lines[-1:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            values.setdefault(parts[1], float(parts[2]))
    return values


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "steadiness"))
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    samples = {}  # (set, workload, metric) -> [values]
    for index, seed in enumerate(SEEDS):
        order = range(SETS) if index % 2 == 0 else reversed(range(SETS))
        for set_index in order:
            for workload in workloads:
                values = run_once(workload, seed, seconds)
                print(f"set {set_index} seed {seed} {workload}: "
                      + ", ".join(f"{k}={v:.6g}" for k, v in sorted(values.items())),
                      flush=True)
                for metric, value in values.items():
                    samples.setdefault((set_index, workload, metric), []).append(value)

    report = {"run_seconds": seconds, "seeds": list(SEEDS), "sets": []}
    rows = []
    for set_index in range(SETS):
        entry = {}
        for (s, workload, metric), values in sorted(samples.items()):
            if s != set_index:
                continue
            st = stats(values)
            st["values"] = values
            if set_index > 0:
                base = statistics.median(samples[(0, workload, metric)])
                st["median_shift"] = (st["median"] - base) / base if base else 0.0
            entry.setdefault(workload, {})[metric] = st
            bound = bounds.get(metric)
            shift = st.get("median_shift")
            rows.append(
                f"| {set_index} | {workload} | {metric} | "
                f"{'' if bound is None else bound} | {st['n']} | "
                f"{st['median']:.6g} | {st['q1']:.6g} | {st['q3']:.6g} | "
                f"{st['spread']:.4f} | "
                f"{'' if shift is None else f'{shift:+.4f}'} |")
        report["sets"].append(entry)

    Path(args.out + ".json").write_text(json.dumps(report, indent=1) + "\n")
    print("| set | workload | metric | bound | n | median | Q1 | Q3 | spread "
          "| shift vs set 0 |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))


if __name__ == "__main__":
    main()

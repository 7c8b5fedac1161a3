#!/usr/bin/env python3
"""FaultyRank end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/ together
with the repository's src/ libraries into .bench_build/, generates the
workload's input from the seed in one process, and measures the workload
in another. That process sees only the generated image and its ground
truth. One client issues ops in a closed loop: the next op starts only
after the previous one completes. The first op is an untimed warm-up.

Workloads (all run without a worker pool; workloads.h says why):
  offline_aged  200k files on 1 MDS + 8 OSTs, aged two cycles at 15 %
                churn, with the 8 curated faults planted. An op is one
                run_checker without repair.
  repair_dense  20k files, the 8 curated faults and 1000 MetaFuzzer
                truncations of DIRENT, LinkEA and LOVEA arrays
                (inputs.cpp says why only these). --seed n builds the
                image of the (n % 64)-th of 64 seeds whose image is
                clean after two repair rounds with no op failing
                (inputs.cpp lists them). An op restores the
                dirty image, then runs run_checker with repairs until a
                check comes back clean.
  online_churn  25k files with the 8 faults planted before bootstrap,
                and the serial OnlineChecker. Each op is one round: 200
                namespace ops through TrafficDriver, then catch_up,
                scrub_step and check. The run is a series of epochs that
                each set up from the image three times and replay the
                same 32 rounds (workloads.cpp says why).

Each op is checked by an oracle. An op fails on any false positive (a
verifiable finding that involves no FID a planted fault touched). It
also fails on any planted fault not detected with its root cause. On
repair_dense it fails when no check is clean within 4 repair rounds. An
online round also fails when a namespace op is rejected.

With --trace 0 the last stdout line reports the end-to-end metrics:
latency_p50_ms, peak_rss_mb and setup_s. Lines above it print
op_failure_rate, and for online_churn also latency_p90_ms and
write_p50_us. With --trace 1 the run alternates traced and untraced ops.
It writes .bench_build/traces/<workload>-<seed>.trace.json (Chrome
trace-event JSON) and a .summary.json beside it, and reports the
per-layer metrics taken from that summary: those of the pfs, graph, core
and trace modules, which every workload measures, on the last line, and
those of the scanner, aggregator, checker and online modules on the lines
above it.

--files and --workers override the namespace size and set a worker
pool. The benchmark's tests use them; measured runs leave them alone.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("offline_aged", "repair_dense", "online_churn")
# Generation and measurement together end within this many seconds, so a
# run (the build aside) exits within three minutes even on a slow host.
BUDGET_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def describe(returncode):
    """How a child process ended, for the log."""
    if returncode < 0:
        return f"killed by signal {-returncode}"
    return f"exit code {returncode}"


def build():
    """Configures once, then brings the benchmark binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no FaultyRank sources under {ROOT / 'src'}; run from a checkout")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(BUILD), *generator],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--files", type=int)
    parser.add_argument("--workers", type=int)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    name = f"{args.workload}-{args.seed}"
    inputs = BUILD / "inputs"
    traces = BUILD / "traces"
    inputs.mkdir(exist_ok=True)
    traces.mkdir(exist_ok=True)
    prefix = inputs / f"{name}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    gen = [str(BINARY), "gen", *common, "--out", str(prefix)]
    if args.files is not None:
        gen += ["--files", str(args.files)]
    run = [str(BINARY), "run", *common, "--input", str(prefix),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-out", str(traces / name)]
    if args.workers is not None:
        run += ["--workers", str(args.workers)]

    deadline = time.monotonic() + BUDGET_S
    try:
        generated = subprocess.run(gen, stdout=subprocess.PIPE, text=True,
                                   timeout=BUDGET_S)
        if generated.returncode != 0:
            log(f"input generation failed ({describe(generated.returncode)})")
            return 3
        print(generated.stdout, end="")
        measured = subprocess.run(
            run, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as error:
        log(f"timed out: {error}")
        return 3
    finally:
        for suffix in (".img", ".truth", ".img.tmp"):
            Path(str(prefix) + suffix).unlink(missing_ok=True)

    lines = measured.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line ({describe(measured.returncode)})")
        return 3
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 3
    print("\n".join(lines), flush=True)
    return measured.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the MPA pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds `mpa-serve` (the repository's workspace) and the `perfbench`
harness (its own package) in release mode, then runs one workload; the
harness prints the result as the last line of standard output.

    python3 perfbench/run.py --workload W --repeat N [--seed N] --seconds S

runs the workload N times with seeds S, S+1, ... and prints each metric's
median and quartiles, and the quartile spread as a share of the median.
Without --seed a workload runs at its default seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
# The presets' seeds; outputs at these seeds are committed in fingerprints.txt.
DEFAULT_SEEDS = {"infer_paper": 0x4D504131, "study_paper": 0x4D504131, "serve_mixed": 0x4D504132}
BENCH = os.path.dirname(os.path.abspath(__file__))


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "mpa-serve", "--bin", "mpa-serve"]),
        (os.path.join(BENCH, "Cargo.toml"), []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "mpa-serve")


def run_once(harness, serve_bin, workload, seed, seconds, trace):
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--serve-bin", serve_bin, "--out-dir", os.path.join(ROOT, ".perfbench")]
    pin = None
    if workload == "serve_mixed":
        # The load generator on one CPU, and the daemon with it: a child
        # keeps its parent's CPU mask. Left to the scheduler, whether a
        # request's two wake-ups cross CPUs changes from run to run, and
        # with it the median read latency by half.
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=pin)


def repeat(harness, serve_bin, args):
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        done = run_once(harness, serve_bin, args.workload, seed, args.seconds, args.trace)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: run with seed {seed} failed (exit {done.returncode})")
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        runs.append(result["metrics"])
    print(f"{args.workload}: {len(runs)} runs")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} {runs[0][name]['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["infer_paper", "study_paper", "serve_mixed"])
    p.add_argument("--seed", type=lambda v: int(v, 16) if v.lower().startswith("0x") else int(v), default=None)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()
    harness, serve_bin = build()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.repeat:
        repeat(harness, serve_bin, args)
        return
    done = run_once(harness, serve_bin, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

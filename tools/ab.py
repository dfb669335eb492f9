#!/usr/bin/env python3
"""Paired A/B run of the pipeline benchmark: a base revision against the
working tree.

    python3 tools/ab.py --base HEAD --workload infer_paper --pairs 10 --seed 100

resolves the base revision to a commit, checks it out detached in a
`git clone` of the repository (WORK/base, reused when --work is kept, so
that an unchanged base keeps its file times and its build) and builds it
and the working tree, each into a CARGO_TARGET_DIR of its own. Nothing is
written under the repository's own .git. For pair i it then runs, on both
sides,

    python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0

with T the run length BENCHMARK.json declares (`run_seconds`), alternating
which side goes first, so that drift in the host's speed falls on both.
It prints every run as it finishes, then per metric each side's median
and quartiles, the median of the per-pair ratios (working tree / base)
and the share of pairs the working tree won (lower is better unless
BENCHMARK.json says otherwise). It exits 1 when a run fails or when
the two sides' output fingerprints (perfbench's stderr) differ at a seed.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT = re.compile(r"output fingerprint ([0-9a-f]{16})")


def load_benchmark():
    """The declared run length in seconds, and metric name -> "lower" or
    "higher", from the benchmark declaration."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    return bench["run_seconds"], better


def run(side, path, target, args, seconds, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    prints = FINGERPRINT.findall(done.stderr)
    if done.returncode != 0 or not lines or not prints:
        sys.stderr.write(done.stderr)
        sys.exit(f"ab: {side} run at seed {seed} failed (exit {done.returncode})")
    result = json.loads(lines[-1])["metrics"]
    metrics = {k: v["value"] for k, v in result.items()}
    units = {k: v["unit"] for k, v in result.items()}
    print(f"  {side:<4} seed {seed}: fingerprint {prints[-1]}, "
          + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()), flush=True)
    return metrics, units, prints[-1]


def checkout_base(base, checkout):
    """Check the commit `base` names out, detached, in a clone of the
    repository at `checkout`, cloning only when no earlier run left one
    there; returns the commit."""
    resolved = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", base + "^{commit}"],
                              stdout=subprocess.PIPE, text=True)
    if resolved.returncode != 0:
        sys.exit(f"ab: --base {base} names no commit in {ROOT}")
    commit = resolved.stdout.strip()
    if not os.path.isdir(os.path.join(checkout, ".git")):
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", ROOT, checkout], check=True)
    known = subprocess.run(["git", "-C", checkout, "cat-file", "-e", commit + "^{commit}"],
                           stderr=subprocess.DEVNULL)
    if known.returncode != 0:
        subprocess.run(["git", "-C", checkout, "fetch", "--quiet", ROOT, commit], check=True)
    # Files the commit shares with the last checkout are left untouched, so
    # cargo rebuilds only what changed.
    subprocess.run(["git", "-C", checkout, "checkout", "--quiet", "--force", "--detach", commit], check=True)
    return commit


def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [q1, med, q3]


def report(runs, units, better):
    width = max(len(name) for name in runs[0][0])
    print(f"\n{'metric':<{width}} {'unit':<11} {'base median [q1, q3]':<34} {'head median [q1, q3]':<34} "
          f"{'ratio':>7} {'won':>6}")
    for name in runs[0][0]:
        base = [b[name] for b, _ in runs]
        head = [h[name] for _, h in runs]
        ratios = [h / b for b, h in zip(base, head) if b]
        lower = better.get(name, "lower") == "lower"
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        cols = []
        for values in (base, head):
            q1, med, q3 = quartiles(values)
            cols.append(f"{med:<10.4g} [{q1:.4g}, {q3:.4g}]")
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        print(f"{name:<{width}} {units.get(name, ''):<11} {cols[0]:<34} {cols[1]:<34} {ratio:>7} "
              f"{won:>2}/{len(runs)}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, help="the revision to compare the working tree against")
    p.add_argument("--workload", required=True, choices=["infer_paper", "study_paper", "serve_mixed"])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=lambda v: int(v, 0), required=True, help="pair i runs at seed S+i")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--work", help="directory for the base clone and both builds (default: a new temporary one)")
    args = p.parse_args()

    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="mpa-ab-"))
    os.makedirs(work, exist_ok=True)
    checkout = os.path.join(work, "base")
    sides = [("base", checkout, os.path.join(work, "target-base")),
             ("head", ROOT, os.path.join(work, "target-head"))]
    seconds, better = load_benchmark()
    try:
        commit = checkout_base(args.base, checkout)
        runs, units = [], {}
        for i in range(args.pairs):
            seed = args.seed + i
            print(f"pair {i + 1}/{args.pairs}, seed {seed}", flush=True)
            order = sides if i % 2 == 0 else sides[::-1]
            out = {side: run(side, path, target, args, seconds, seed) for side, path, target in order}
            (base, units, base_print), (head, _, head_print) = out["base"], out["head"]
            if base_print != head_print:
                sys.exit(f"ab: output fingerprints differ at seed {seed}: base {base_print}, head {head_print}")
            runs.append((base, head))
        print(f"\n{args.workload}: {len(runs)} pairs, seeds {args.seed}..{args.seed + len(runs) - 1}, "
              f"base {args.base} ({commit[:12]}), fingerprints equal at every seed")
        report(runs, units, better)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()

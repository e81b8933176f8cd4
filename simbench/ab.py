#!/usr/bin/env python3
"""Interleaved A/B runner for the simulator benchmark, with an A/A control.

Exports two revisions of the repository as plain source trees, puts this
checkout's benchmark (``simbench/`` and ``BENCHMARK.json``) into both so
they are measured by identical benchmark code, builds each once, and then
runs the benchmark round by round: every round runs base (A), head (B) and
base again (A', the A/A control) on the same seed, rotating which goes
first. For every workload and metric it prints each side's median and
quartiles, B against A, and A' against A, which is the noise a build shows
against itself.

Usage (from the repository root)::

    python3 simbench/ab.py BASE [HEAD] [--pairs 10]
                           [--workloads closed_deep,grid_cello] [--trace]

BASE and HEAD are git revisions; HEAD defaults to ``.``, the working tree
including uncommitted and untracked files. Source trees and build output go
under ``.simbench-ab/`` (``--workdir`` to change it).
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Round i runs seed FIRST_SEED + i, clear of the pinned seeds 1 and 2.
FIRST_SEED = 100


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, **kw).stdout


def export(rev, dest):
    """Writes the source tree of `rev` (or the working tree for '.') to dest."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == ".":
        names = git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0")
        for name in filter(None, names):
            src = os.path.join(ROOT, name)
            if os.path.isfile(src):
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, name))
        return "worktree"
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def install_benchmark(dest):
    """Replaces dest's benchmark with this checkout's, build output aside."""
    bench = os.path.join(dest, "simbench")
    if os.path.exists(bench):
        shutil.rmtree(bench)
    shutil.copytree(
        os.path.join(ROOT, "simbench"),
        bench,
        ignore=shutil.ignore_patterns("target", "out", "__pycache__"),
    )
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(dest, "BENCHMARK.json"))


def build(dest):
    target = os.path.join(dest, ".bench_build")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(dest, "simbench", "Cargo.toml"),
         "--target-dir", target],
        check=True,
    )
    return os.path.join(target, "release", "simbench")


def run(side, workload, seed, seconds, trace):
    env = dict(os.environ, SIMBENCH_GIT_REV=side["rev"])
    out = subprocess.run(
        [side["bin"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=side["dir"], env=env, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        sys.exit(f"{side['name']} {workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {side['name']} {workload} seed {seed}: output check failed "
              f"({result['failed']} of {result['attempted']})\n{out.stderr}", file=sys.stderr)
    return result


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", default=".")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--trace", action="store_true", help="compare the per-layer metrics")
    ap.add_argument("--workdir", default=os.path.join(ROOT, ".simbench-ab"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    sides = {}
    for name, rev in (("A", args.base), ("B", args.head)):
        dest = os.path.join(args.workdir, name)
        sha = export(rev, dest)
        install_benchmark(dest)
        print(f"building {name} = {rev} ({sha})", file=sys.stderr)
        sides[name] = {"name": name, "rev": sha, "dir": dest, "bin": build(dest)}
    sides["A'"] = dict(sides["A"], name="A'")

    values = {}  # (workload, side, metric) -> [value per round]
    order = ["A", "B", "A'"]
    for workload in workloads:
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            for name in order[i % 3:] + order[:i % 3]:
                result = run(sides[name], workload, seed, seconds, args.trace)
                for metric, m in result["metrics"].items():
                    values.setdefault((workload, name, metric), []).append(m["value"])
            print(f"{workload}: round {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"A = {sides['A']['rev']}  B = {sides['B']['rev']}  "
          f"{args.pairs} rounds x {seconds} s, seeds {FIRST_SEED}..{FIRST_SEED + args.pairs - 1}")
    header = f"{'workload':14} {'metric':34} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} {'B/A-1':>8} {'wins':>6} {'A/A-1':>8}"
    print(header)
    for workload in workloads:
        metrics = sorted({k[2] for k in values if k[0] == workload})
        for metric in metrics:
            a = values[(workload, "A", metric)]
            b = values[(workload, "B", metric)]
            a2 = values[(workload, "A'", metric)]
            (am, aq1, aq3), (bm, bq1, bq3), (a2m, _, _) = summary(a), summary(b), summary(a2)
            up = better.get(metric, "higher") == "higher"
            wins = sum((y > x) if up else (y < x) for x, y in zip(a, b))
            rel = lambda x: (x / am - 1) if am else 0.0
            print(f"{workload:14} {metric:34} "
                  f"{f'{am:.5g} [{aq1:.5g}, {aq3:.5g}]':>34} {f'{bm:.5g} [{bq1:.5g}, {bq3:.5g}]':>34} "
                  f"{rel(bm):>+8.3f} {f'{wins}/{len(a)}':>6} {rel(a2m):>+8.3f}")


if __name__ == "__main__":
    main()

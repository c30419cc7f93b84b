#!/usr/bin/env python3
"""Build the benchmark from source and run it.

One workload (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload paper_point --seed 42 --seconds 35 --trace 0

Every workload, untraced then traced, with every metric and its unit and a
per-workload summary (wall_s, setup_s, peak_rss_mb, error_rate):

    python3 perfbench/run.py --all [--seed 42] [--seconds 35]

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); scratch files go to .bench_out.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sweep_vanilla", "sweep_cosched", "paper_point"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("Cargo.toml", "crates"):
        if not (ROOT / need).exists():
            fail(f"{ROOT / need} is missing; run from a full checkout of the repository")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "pa-perfbench"


def run(binary, args, capture):
    """Run the benchmark binary; returns (exit code, stdout or None)."""
    proc = subprocess.Popen(
        [str(binary), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{' '.join(args)} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def run_all(binary, seed, seconds):
    summary = []
    for w in WORKLOADS:
        row = {"workload": w}
        for trace in ("0", "1"):
            code, out = run(
                binary,
                ["--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                capture=True,
            )
            lines = out.strip().splitlines()
            print("\n".join(lines[:-1]))
            if code != 0 or not lines:
                fail(f"{w} (trace {trace}) exited with {code}")
            result = json.loads(lines[-1])
            if trace == "0":
                row.update({k: v["value"] for k, v in result["metrics"].items()})
            row[f"error_rate_trace{trace}"] = result["failed"] / result["attempted"]
        summary.append(row)
    print()
    print(f"{'workload':<15} {'wall_s (s)':>12} {'setup_s (s)':>12} {'peak_rss_mb (MB)':>17} {'error_rate (ratio)':>19}")
    for r in summary:
        err = max(r["error_rate_trace0"], r["error_rate_trace1"])
        print(f"{r['workload']:<15} {r['wall_s']:>12.4f} {r['setup_s']:>12.5f} {r['peak_rss_mb']:>17.1f} {err:>19.3f}")
    return 0 if all(max(r["error_rate_trace0"], r["error_rate_trace1"]) == 0 for r in summary) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    a = p.parse_args()
    if not a.all and a.workload is None:
        p.error("--workload or --all is required")
    binary = build()
    if a.all:
        return run_all(binary, a.seed, a.seconds)
    code, _ = run(
        binary,
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace],
        capture=False,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())

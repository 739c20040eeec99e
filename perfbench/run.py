#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the load program (perfbench/, a
cargo package of its own) twice from source: plain, and with the `stats`
feature that turns the library's probe sites into counters. The build goes
to $CARGO_TARGET_DIR (default .bench_build), one subdirectory per build.

--trace 0 runs the plain build and reports the end-to-end metrics.
--trace 1 runs the plain build for half the time, then the stats build for
the other half plus the handoff ladder, and reports the per-layer metrics:
the ungated end-to-end tails (e2e.*) from the plain half, everything else
from the stats half, and trace.overhead_ratio comparing the two halves.

The next-to-last line of standard output describes the run (host, build,
per-tenth throughput, sample counts); the last line is the result object.
Metric names and units come from BENCHMARK.json at the checkout root.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def build(stats):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target, "stats" if stats else "plain")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(PACKAGE, "Cargo.toml")]
    if stats:
        cmd += ["--features", "stats"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError("building the load program failed")
    return os.path.join(target, "release", "perfbench")


def run_program(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no record")
    return json.loads(lines[-1])


def overhead_ratio(plain, traced):
    """Traced cost over untraced cost: time per item in a closed loop,
    median latency in an open one. Above 1 means tracing slows the run."""
    if plain["detail"]["loop"] == "closed":
        return plain["metrics"]["items_per_s"] / traced["metrics"]["items_per_s"]
    return traced["metrics"]["p50_us"] / plain["metrics"]["p50_us"]


def per_layer_values(plain, traced):
    """The per-layer values of a traced run: counters, spans and the ladder
    from the stats build, the ungated end-to-end tails (`e2e.*`) from the
    plain build, which times fewer calls and has no probes."""
    values = {k: v for k, v in traced["metrics"].items() if not k.startswith("e2e.")}
    values.update((k, v) for k, v in plain["metrics"].items() if k.startswith("e2e."))
    values["trace.overhead_ratio"] = overhead_ratio(plain, traced)
    return values


def result_line(correct, attempted, failed, values, units):
    """The result object, with each metric's unit attached. `values` must
    name exactly the metrics in `units`."""
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise BenchError(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        return ""


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
            if f.endswith((".rs", ".toml")))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_identity():
    try:
        with open("/proc/cpuinfo") as f:
            vm = any(line.startswith("flags") and " hypervisor" in line for line in f)
    except OSError:
        vm = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_online": os.cpu_count(),
        "vm": vm,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "source_sha256": source_digest(),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = load_spec()
    plain_bin = build(stats=False)
    stats_bin = build(stats=True)

    if args.trace == 0:
        records = [run_program(plain_bin, args.workload, args.seed, args.seconds)]
        values = dict(records[0]["metrics"])
        metric_spec = spec["end_to_end"]
    else:
        half = args.seconds / 2
        plain = run_program(plain_bin, args.workload, args.seed, half)
        traced = run_program(stats_bin, args.workload, args.seed, half)
        records = [plain, traced]
        values = per_layer_values(plain, traced)
        metric_spec = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in metric_spec}
    # A record carries every metric; this mode reports its own set.
    values = {k: v for k, v in values.items() if k in units}

    correct = all(r["correct"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = result_line(correct, attempted, failed, values, units)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_identity(),
        "runs": [{"build": r["detail"]["build"], "correct": r["correct"],
                  "violations": r["violations"], "detail": r["detail"]}
                 for r in records],
    }))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Builds and runs the wbsn benchmark (see perfbench/README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one summary line
    python3 perfbench/run.py --self-test          # fast check of the benchmark itself

The build goes to $CARGO_TARGET_DIR (default .bench_build). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is non-zero when any output check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1", "busywait", "fig7"]
DEFAULT_SEED = "0xEC60"


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and the trace checker; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        [os.path.join(HERE, "Cargo.toml")],
        [os.path.join(ROOT, "Cargo.toml"), "-p", "wbsn-obs", "--bin", "wbsn-trace-check"],
    ]
    for manifest, *extra in steps:
        if not os.path.isfile(manifest):
            die(f"{manifest} is missing; run from a full checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        # Cargo's own output goes to stderr so stdout keeps only results.
        if subprocess.run(cmd + extra, env=env, stdout=sys.stderr).returncode != 0:
            die(f"build failed: {' '.join(cmd + extra)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "wbsn-perfbench"), os.path.join(release, "wbsn-trace-check")


def run_one(binaries, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, parsed last stdout line or None)."""
    bench, checker = binaries
    trace_out = os.path.join(target_dir(), "perfbench", f"trace-{workload}-{seed}.json")
    cmd = [
        bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--trace-out", trace_out, "--trace-check", checker, *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def parse_args(argv):
    opts = {"workload": None, "seed": DEFAULT_SEED, "seconds": "10", "trace": "0"}
    if argv == ["--self-test"]:
        return None
    it = iter(argv)
    for flag in it:
        key = flag[2:] if flag.startswith("--") else None
        if key not in opts:
            die(f"unknown option {flag!r}")
        value = next(it, None)
        if value is None:
            die(f"{flag} needs a value")
        opts[key] = value
    if opts["workload"] not in WORKLOADS + ["all"]:
        die(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    return opts


def run(opts):
    binaries = build()
    names = WORKLOADS if opts["workload"] == "all" else [opts["workload"]]
    worst, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, result, stdout = run_one(binaries, name, opts["seed"], opts["seconds"], opts["trace"])
        if result is None:
            sys.stdout.write(stdout)
            die(f"{name}: the benchmark printed no result (exit code {code})")
        worst = worst or code
        if len(names) == 1:
            sys.stdout.write(stdout)
            break
        print(json.dumps({"workload": name, **result}), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    else:
        print(json.dumps(combined))
    return worst


def self_test():
    """Every workload at a tiny duration, both trace modes: each metric
    BENCHMARK.json names is printed with its unit and all checks pass.
    Then a replay given a wrong period must fail its cell, not drop it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binaries = build()
    tiny = ["--duration", "0.2"]
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run_one(binaries, workload, DEFAULT_SEED, 0, trace, tiny)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result or not result["correct"] or result["failed"]:
                errors.append(f"{where}: exit {code}, result {result}")
                continue
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != wanted:
                errors.append(f"{where}: metrics/units {got} != {wanted}")
            for name, value in result["metrics"].items():
                if not isinstance(value.get("value"), (int, float)):
                    errors.append(f"{where}: {name} has no numeric value")
            print(f"self-test: {where}: {len(got)} metrics ok", file=sys.stderr)
    _, clean, _ = run_one(binaries, "table1", DEFAULT_SEED, 0, 0, tiny)
    print("self-test: injecting a wrong period; CHECK FAILED lines are expected", file=sys.stderr)
    code, faulty, _ = run_one(binaries, "table1", DEFAULT_SEED, 0, 0, tiny + ["--fault", "wrong-period"])
    if code == 0 or not faulty or faulty["correct"] or faulty["failed"] < 1:
        errors.append(f"wrong-period replay was not reported as a failure: exit {code}, {faulty}")
    elif clean and faulty["attempted"] != clean["attempted"]:
        errors.append(f"wrong-period run dropped cells: {faulty['attempted']} != {clean['attempted']}")
    else:
        print("self-test: wrong-period replay fails its cell", file=sys.stderr)
    for e in errors:
        print(f"self-test FAILED: {e}", file=sys.stderr)
    print("self-test " + ("failed" if errors else "ok"))
    return 1 if errors else 0


def main():
    opts = parse_args(sys.argv[1:])
    return self_test() if opts is None else run(opts)


if __name__ == "__main__":
    sys.exit(main())

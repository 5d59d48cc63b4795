#!/usr/bin/env python3
"""Repository benchmark: builds Orpheus from this checkout and measures one
workload in fresh processes.

    python3 perfbench/run.py --workload resnet18-fp32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build). Each run first calls `perfbench_driver prepare`,
which writes the workload's ONNX model and its expected outputs, then
`perfbench_driver measure`, which times the program from those bytes. The
last line of standard output is the result JSON; everything before it is
for people. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Both driver processes of one run, build excluded, must end within this.
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no Orpheus sources next to {HERE}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def run_driver(cmd, deadline):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode:
        fail(f"exit {proc.returncode}: " + " ".join(cmd))
    return proc.stdout


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args):
    driver = build("perfbench_driver")
    scratch = os.path.join(build_dir(), "runs")
    os.makedirs(scratch, exist_ok=True)
    stem = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--model", stem + ".onnx", "--reference", stem + ".ref"]
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        run_driver([driver, "prepare"] + common, deadline)
        out = run_driver([driver, "measure"] + common +
                         ["--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
    finally:
        for suffix in (".onnx", ".ref"):
            if os.path.exists(stem + suffix):
                os.remove(stem + suffix)

    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(n for n in want if n in got and got[n] != want[n])}")
    for line in lines[:-1]:
        print(line)
    for name, m in sorted(result["metrics"].items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def selftest():
    tests = build("perfbench_tests")
    sys.exit(subprocess.run([tests]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        parser.error("--workload is required")
    measure(args)


if __name__ == "__main__":
    main()

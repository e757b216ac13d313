#!/usr/bin/env python3
"""Build and run the poolnet benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the repository's libraries and the perfbench driver) as
a Release CMake package under .bench_build/ in the checkout,
then runs one workload. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. Exits
non-zero when the build fails, any answer is wrong, or the metric names do
not match BENCHMARK.json. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def checkout_env():
    """The environment for every child process, with temporary files
    (the compiler's included) kept inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the perfbench package; build output
    goes to stderr so stdout stays the benchmark's own."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=checkout_env()) != 0:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    expected = expected_metrics(args.trace)

    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".csv")]
    # Its own process group, so a timeout also stops the forked
    # measurement processes it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=checkout_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        print("perfbench: no output (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        print("perfbench: last line is not a result", file=sys.stderr)
        return 1
    if args.workload != "selftest" and got != expected:
        print("perfbench: metrics differ from BENCHMARK.json: %s" %
              sorted(set(got.items()) ^ set(expected.items())),
              file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

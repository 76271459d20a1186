#!/usr/bin/env python3
# Copyright 2026 The pkgstream Authors.
"""Entry point of the repository benchmark (see perfbench/README.md).

Builds the benchmark program from source (CMake, Release) and runs one
workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run (its
spans are written under the build directory).

    python3 perfbench/run.py --selftest

runs every workload at a tiny scale, checks that each metric listed in
BENCHMARK.json is printed with its unit, and that a deliberately corrupted
result (one dropped message, one wrong count) is reported as a failure.

The build directory is $CARGO_TARGET_DIR (default `.bench_build`), relative
to the repository root.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark program.

    Returns the program's path; exits with status 3 when the build fails.
    """
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      stdin=subprocess.DEVNULL,
                                      env=env).returncode
            except OSError as err:
                code = None
                log.write(f"{step[0]}: {err}\n")
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                sys.stderr.write(tail)
                sys.stderr.write(f"\nperfbench: build failed ({' '.join(step)})\n")
                sys.exit(3)
    return os.path.join(out, "perfbench")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark program; returns (exit code, stdout, stderr)."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        # subprocess.run has killed and reaped the program.
        return None, err.stdout or "", err.stderr or ""
    return proc.returncode, proc.stdout, proc.stderr


def result_line(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in groups.items():
            tag = f"{workload} --trace {trace}"
            code, out, err = run_binary(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
            res = result_line(out)
            check(code == 0 and res is not None and res.get("correct") is True
                  and res.get("failed") == 0 and res.get("attempted", 0) >= 1,
                  f"{tag}: exit 0 and correct (exit={code})")
            if res is None:
                sys.stderr.write(err[-2000:])
                continue
            got = res["metrics"]
            for m in wanted:
                entry = got.get(m["name"])
                check(entry is not None and entry.get("unit") == m["unit"]
                      and isinstance(entry.get("value"), (int, float))
                      and math.isfinite(entry["value"]),
                      f"{tag}: {m['name']} printed in {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            check(not extra, f"{tag}: no unlisted metrics {sorted(extra)}")
            printed = [l for l in out.splitlines() if l.startswith("# ")]
            for m in wanted:
                check(any(l.split()[1:2] == [m["name"]] and
                          l.rstrip().endswith(" " + m["unit"]) for l in printed),
                      f"{tag}: human-readable line for {m['name']}")

    first = spec["workloads"][0]["name"]
    for fault in ("drop", "count"):
        code, out, _ = run_binary(binary, [
            "--workload", first, "--seed", "7", "--seconds", "1",
            "--trace", "0", "--tiny", "--corrupt", fault])
        res = result_line(out)
        check(code == 1 and res is not None and res.get("correct") is False
              and res.get("failed", 0) >= 1,
              f"corrupt={fault}: reported as failure (exit={code})")

    code, out, _ = run_binary(binary, ["--workload", "no_such_workload",
                                       "--seed", "1", "--seconds", "1",
                                       "--trace", "0"])
    check(code == 2 and result_line(out) is None,
          "unknown workload: refused without a result")

    print(f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.isdir(os.path.join(ROOT, "src", "engine")):
        sys.stderr.write("perfbench: no pkgstream sources next to perfbench/;"
                         " run from a full checkout\n")
        return 3
    binary = build()
    if args.selftest:
        return selftest(binary)

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        bench_args += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    code, out, err = run_binary(binary, bench_args)
    sys.stderr.write(err)
    if code is None:
        sys.stdout.write("\n".join(l for l in out.splitlines()
                                   if not l.startswith("{")) + "\n")
        sys.stderr.write(f"perfbench: timed out after {RUN_TIMEOUT_S} s\n")
        return 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark and runs one workload (or all, in smoke mode).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the src/ libraries it links) into .bench_build/perfbench;
later runs rebuild only what changed. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of the uninstrumented binary.
--trace 1 spends half the budget on the uninstrumented binary and half on the
traced one (perfbench_trace), reports the per-layer metrics of the traced
run plus trace.overhead_pct (traced vs untraced mean corrected op time),
counts the ops of both runs in attempted and failed, and writes the traced
run's spans as Chrome trace-event JSON under .bench_build/traces/ (open it
in Perfetto).

--smoke runs every workload for a few ops with all correctness checks, in
both binaries, and exits non-zero if any check or op failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["chaos_random", "storm_proactive", "morph_trace", "train_step"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench", "perfbench_trace"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-30:]))
                fail("perfbench: build failed (%s)" % " ".join(step[:2]))


def run_binary(name, workload, seed, seconds, smoke=False, chrome_trace=None):
    cmd = [os.path.join(BUILD, name), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if smoke:
        cmd.append("--smoke")
    if chrome_trace:
        cmd += ["--chrome-trace", chrome_trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("perfbench: %s %s timed out" % (name, workload))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("perfbench: %s %s exited with %d" % (name, workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def smoke():
    ok = True
    for workload in WORKLOADS:
        for name in ("perfbench", "perfbench_trace"):
            result = run_binary(name, workload, 1, 0, smoke=True)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print("smoke %-16s %-16s %s (%d ops)" % (workload, name, "ok" if good else "FAILED",
                                                    result["attempted"]))
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    build()
    if args.smoke:
        smoke()

    if args.trace == 0:
        r = run_binary("perfbench", args.workload, args.seed, args.seconds)
        # Raw (uncorrected) figures and reference-kernel timings, for the A/A
        # study in README.md.
        print("# info %s" % json.dumps(r["info"]))
        print(result_line(r["correct"], r["attempted"], r["failed"], r["metrics"]))
        return

    os.makedirs(TRACES, exist_ok=True)
    chrome = os.path.join(TRACES, "%s-seed%d.json" % (args.workload, args.seed))
    plain = run_binary("perfbench", args.workload, args.seed, args.seconds / 2)
    traced = run_binary("perfbench_trace", args.workload, args.seed, args.seconds / 2,
                        chrome_trace=chrome)
    metrics = dict(traced["layers"])
    overhead = 100.0 * (traced["info"]["mean_op_ms"]["value"] /
                        plain["info"]["mean_op_ms"]["value"] - 1.0)
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    print("# chrome trace: %s" % os.path.relpath(chrome, ROOT))
    print(result_line(plain["correct"] and traced["correct"],
                      plain["attempted"] + traced["attempted"],
                      plain["failed"] + traced["failed"], metrics))


if __name__ == "__main__":
    main()

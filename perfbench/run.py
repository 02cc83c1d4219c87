#!/usr/bin/env python3
"""Loopback benchmark of mcsort: one command, run from the repository root.

    python3 perfbench/run.py --workload <tpch_warm|adhoc_cold|mixed_rw>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds mcsort_server and the benchmark client (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR (default .bench_build), then runs one workload
against a real server over loopback. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report. Traced runs leave their spans in <build>/traces/. Exits
non-zero on a wrong answer, a failed build or a failed run. --self-test runs every workload at a tiny scale and checks that every
metric named in BENCHMARK.json is emitted with its unit, and that the
correctness gate rejects a deliberately wrong expected answer.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the benchmark's own run, after the build


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the two targets; returns the build directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        jobs = str(max(1, os.cpu_count() or 1))
        steps = [
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            ["cmake", "--build", out, "--target", "perfbench", "mcsort_server",
             "-j", jobs],
        ]
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                raise SystemExit("run.py: build failed: " + " ".join(step))
    return out


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds (src/, tools/, perfbench/)."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_once(out, workload, seed, seconds, trace, extra=(), quiet=False):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    work = os.path.join(out, "work", "%s-%d" % (workload, os.getpid()))
    command = [os.path.join(out, "perfbench"),
               "--server", os.path.join(out, "tools", "mcsort_server"),
               "--work", work, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--commit", source_id(),
               "--trace-file", os.path.join(out, "traces", "%s-seed%d.jsonl" %
                                            (workload, seed))] + list(extra)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL if quiet else None,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return 3, []
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, stdout.splitlines()


def self_test(out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(condition, what):
        log(("ok   " if condition else "FAIL ") + what)
        if not condition:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_once(out, workload, 7, 1, trace,
                                   ["--size-factor", "0.05"], quiet=True)
            expect(code == 0 and lines, "%s trace=%d exits 0" %
                   (workload, trace))
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(result["correct"] and result["attempted"] >= 1,
                   "%s trace=%d answers correct" % (workload, trace))
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"] and
                       isinstance(got["value"], (int, float)),
                       "%s trace=%d emits %s [%s]" %
                       (workload, trace, metric["name"], metric["unit"]))
            expect(set(metrics) == {m["name"] for m in spec[key]},
                   "%s trace=%d emits no metric outside BENCHMARK.json" %
                   (workload, trace))
        # The gate must reject a wrong expectation: exit 1, correct=false.
        code, lines = run_once(out, workload, 7, 1, 0,
                               ["--size-factor", "0.05",
                                "--corrupt-reference"], quiet=True)
        result = json.loads(lines[-1]) if lines else {}
        expect(code == 1 and result.get("correct") is False and
               result.get("failed", 0) >= 1,
               "%s rejects a deliberately wrong expected answer" % workload)
    if failures:
        log("self-test FAILED: %d check(s)" % len(failures))
        return 1
    log("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    out = build()
    if args.self_test:
        return self_test(out)
    code, lines = run_once(out, args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark under .bench_build/ (RelWithDebInfo, the Tier-1
configuration); later runs only re-check the build.  The last line of
standard output is the benchmark's JSON result.  --self-check runs every
workload at a tiny size, untraced and traced, and checks the output
against BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["recon-256-2x2", "preview-wide-q8", "serve-mixed"]
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def step(cmd, logfile, timeout):
    """Run a build step with its output in `logfile`; exit 3 on failure."""
    with open(logfile, "w") as out:
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout).returncode
    if rc != 0:
        with open(logfile) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        log("failed: " + " ".join(cmd))
        sys.exit(3)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run from the root of a checkout with the repository sources")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             os.path.join(BUILD, "configure.log"), 600)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
         os.path.join(BUILD, "build.log"), 840)


def bench(workload, seed, seconds, trace, tiny=False):
    """Run the benchmark binary; returns (exit code, stdout)."""
    tag = "%s-s%d-t%d%s" % (workload, seed, trace, "-tiny" if tiny else "")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", os.path.join(".bench_build", "w", tag),
           "--trace-out", os.path.join(".bench_build", "traces", tag + ".json"),
           "--daemon", os.path.join(BUILD, "xct", "tools", "xct_serve")]
    if tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout also stops the serve daemon.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 124, ""
    return proc.returncode, out


# Per-layer metrics that only some workloads exercise; every other one must
# be non-zero on every workload.
ONLY_ON = {
    "codec.encode_s": ["preview-wide-q8"],
    "codec.decode_s": ["preview-wide-q8"],
    "reduce.s": ["recon-256-2x2"],
    "reduce.wait_s": ["recon-256-2x2"],
    "reduce.bytes": ["recon-256-2x2"],
    "serve.submit_s": ["serve-mixed"],
    "serve.queue_wait_p50_s": ["serve-mixed"],
    "serve.queue_wait_p90_s": ["serve-mixed"],
    "serve.run_p50_s": ["serve-mixed"],
    "serve.predicted_over_measured": ["serve-mixed"],
    "loadgen.lag_p90_s": ["serve-mixed"],
}


def self_check():
    """Tiny pass over every workload, untraced and traced."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = bench(workload, 1, 2, trace, tiny=True)
            where = "%s trace %d" % (workload, trace)
            lines = out.strip().splitlines()
            if rc != 0 or not lines:
                problems.append("%s: exit %d" % (where, rc))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if result["correct"] is not True or result["failed"] != 0:
                problems.append("%s: outputs failed their checks" % where)
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            if sorted(got) != sorted(m["name"] for m in wanted):
                problems.append("%s: metric names differ from BENCHMARK.json" % where)
            for m in wanted:
                g = got.get(m["name"])
                if g is None or g.get("unit") != m["unit"]:
                    problems.append("%s: %s missing or not in %s" % (where, m["name"], m["unit"]))
                    continue
                must = trace == 0 or workload in ONLY_ON.get(m["name"], WORKLOADS)
                if must and g["value"] == 0:
                    problems.append("%s: %s is zero" % (where, m["name"]))
            if trace:
                if got.get("trace.coverage", {}).get("value", 0) < 0.95:
                    problems.append("%s: trace.coverage below 0.95" % where)
                path = os.path.join(".bench_build", "traces",
                                    "%s-s1-t1-tiny.json" % workload)
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    spans = [e for e in events if e.get("ph") == "X"]
                    if not spans or not all("ts" in e and "dur" in e and "pid" in e
                                            for e in spans):
                        problems.append("%s: %s has no complete spans" % (where, path))
                    if not any(e.get("cat") == "perfbench" for e in spans):
                        problems.append("%s: %s has no benchmark spans" % (where, path))
                except (OSError, ValueError, KeyError) as e:
                    problems.append("%s: %s is not trace-event JSON (%s)" % (where, path, e))
            log("self-check %s done" % where)
    for p in problems:
        log("self-check: " + p)
    print(json.dumps({"self_check": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and a.workload is None:
        ap.error("--workload or --self-check is required")
    build()
    if a.self_check:
        return self_check()
    rc, out = bench(a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())

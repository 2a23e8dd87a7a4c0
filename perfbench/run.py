#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/main.exe and bin/sgr.exe from source
into .bench_build/ (the dune build directory) and runs one workload; the
last line of its standard output is the result object. The second runs
every workload of BENCHMARK.json at reduced size and checks the
benchmark itself: every metric name and unit is printed, a clean run
passes its checks, an injected fault is counted as a failure, and two
runs of one seed produce identical edge-flow digests.

Run it from anywhere: it works in the checkout that contains it and
reads and writes nothing outside that checkout.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TMP_DIR = ".perfbench_tmp"
MAIN = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SGR = os.path.join(BUILD_DIR, "default", "bin", "sgr.exe")
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "dune", "lib", "bin", "perfbench"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark and the server; dune's output goes to stderr."""
    for required in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no %s here: run from a checkout of the repository" % required)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/main.exe", "./bin/sgr.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found")
    if done.returncode != 0:
        fail("build failed", done.returncode or 2)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def run_main(args, commit):
    """Run the benchmark executable in its own process group; returns
    (exit code, stdout). A run past the timeout is killed with its
    children (the sgr serve child included)."""
    cmd = [os.path.join(".", MAIN), "--sgr", SGR, "--tmp", TMP_DIR,
           "--commit", commit] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, ""
    finally:
        tmp = os.path.join(ROOT, TMP_DIR)
        if os.path.isdir(tmp) and not os.listdir(tmp):
            os.rmdir(tmp)
    return proc.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def detail_of(out):
    for line in out.splitlines():
        if line.startswith('{"detail"'):
            return json.loads(line)["detail"]
    return {}


def smoke(commit):
    """Reduced-size self-check of the benchmark (see the module doc)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def run(workload, trace, seed=1, fault=False):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "smoke"] + (["--fault"] if fault else [])
        code, out = run_main(args, commit)
        res = result_of(out) if code == 0 else None
        label = "%s trace=%d%s" % (workload, trace, " fault" if fault else "")
        if res is None:
            problems.append("%s: exit %d, no result" % (label, code))
        return label, res, out

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            label, res, out = run(name, trace)
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append("%s: metrics differ (missing %s, extra %s, wrong unit %s)"
                                % (label, missing, extra, units))
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append("%s: clean run not correct: %s" % (label, {
                    k: res[k] for k in ("correct", "attempted", "failed")}))
            if trace == 0 and name.startswith("city-"):
                again = detail_of(run(name, 0)[2]).get("edge_flow_digests")
                if again != detail_of(out).get("edge_flow_digests"):
                    problems.append("%s: edge-flow digests differ between two runs of one seed" % label)
            label, res, _ = run(name, trace, fault=True)
            if res is not None and (res["correct"] or res["failed"] < 1):
                problems.append("%s: injected fault not counted as a failure" % label)
        print("smoke: %s done" % name, flush=True)
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="self-check at reduced size")
    a = ap.parse_args()
    if not a.smoke and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    build()
    commit = revision()
    if a.smoke:
        sys.exit(smoke(commit))
    code, out = run_main(["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace", str(a.trace)], commit)
    if code != 0:
        fail("run failed (exit %d)" % code, code)
    sys.stdout.write(out)
    sys.exit(0)


if __name__ == "__main__":
    main()

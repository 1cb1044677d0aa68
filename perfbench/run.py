#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and builds
libbaps plus baps_perfbench from source into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; later runs reuse that build. Build output
goes to stderr; the last stdout line is the run's JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.getcwd(), d) if not os.path.isabs(d) else d


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s/src; run from the "
                 "root of a full source checkout" % ROOT)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)
    return out


def metric_names():
    """Metric names and units baps_perfbench prints, by kind."""
    names = {"end_to_end": [], "per_layer": []}
    exe = os.path.join(build(["baps_perfbench"]), "baps_perfbench")
    listing = subprocess.run([exe, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout
    for line in listing.splitlines():
        kind, name, unit = line.split()
        names[kind].append((name, unit))
    return names


def self_test():
    out = build(["baps_perfbench", "perfbench_selftest"])
    work_dir = os.path.join(build_dir(), "selftest-work")
    rc = subprocess.run([os.path.join(out, "perfbench_selftest"),
                         work_dir]).returncode
    # BENCHMARK.json must name exactly the metrics baps_perfbench prints.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = metric_names()
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        same = declared == names[kind]
        print("%s BENCHMARK.json %s matches baps_perfbench's metrics"
              % ("ok  " if same else "FAIL", kind))
        rc = rc or (0 if same else 1)
    return rc


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        return self_test()
    if not a.workload:
        p.error("--workload is required")
    exe = os.path.join(build(["baps_perfbench"]), "baps_perfbench")

    def run(workload, **kw):
        return subprocess.run([
            exe, "--workload", workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--work-dir", os.path.join(build_dir(), "work"),
        ], **kw)

    if a.workload != "all":
        return run(a.workload).returncode
    # Every workload in turn, as a table: workload, metric, value, unit.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    rc = 0
    for w in workloads:
        proc = run(w, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        ok = proc.returncode == 0 and lines
        result = json.loads(lines[-1]) if ok else None
        if result is None or not result["correct"]:
            print("%-16s FAILED (exit %d)" % (w, proc.returncode))
            rc = 1
            continue
        for name, m in result["metrics"].items():
            print("%-16s %-38s %16.6g %s" % (w, name, m["value"], m["unit"]))
    return rc


if __name__ == "__main__":
    sys.exit(main())

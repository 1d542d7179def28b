#!/usr/bin/env python3
"""Builds the repository benchmark in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the perfbench binary under .bench_build/perfbench (about a
minute on four cores); later calls only check that the build is current.
Build output goes to standard error, so the last line of standard output is
the binary's JSON result. With --selftest it also checks that the binary's
per-layer metric table matches the per_layer list of BENCHMARK.json. See
perfbench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# At most four build jobs: the reference machine has four cores, and the
# benchmark never uses more threads than that either.
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources at src/; run from a full checkout\n")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", JOBS]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def layer_table_matches(binary):
    """True when the binary's --layers table equals BENCHMARK.json's per_layer."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [[m["name"], m["unit"]] for m in json.load(f)["per_layer"]]
    listed = subprocess.run([binary, "--layers"], stdout=subprocess.PIPE, text=True, check=True)
    table = [line.split() for line in listed.stdout.splitlines()]
    if table == declared:
        print("selftest per-layer table matches BENCHMARK.json")
        return True
    for row in table:
        if row not in declared:
            print("selftest per-layer %s %s: not in BENCHMARK.json" % tuple(row))
    for row in declared:
        if row not in table:
            print("selftest per-layer %s %s: not in the binary's table" % tuple(row))
    if sorted(table) == sorted(declared):
        print("selftest per-layer table: same metrics, different order")
    return False


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    code = subprocess.run([binary] + sys.argv[1:]).returncode
    if sys.argv[1:] == ["--selftest"] and not layer_table_matches(binary):
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Short self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark, then:
  1. runs each workload briefly, untraced and traced, and checks that the
     run is correct and that the metric names and units it prints are
     exactly those BENCHMARK.json declares (end_to_end when untraced,
     per_layer when traced), and that the traced run wrote a Chrome trace;
  2. runs each workload with one output deliberately corrupted (a parity
     byte, a recovered unit or a returned object byte) and checks that the
     run reports it as incorrect and exits non-zero;
  3. runs the benchmark in a directory holding only BENCHMARK.json and
     the benchmark's own files, where it must fail without a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                          + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]

    for wl in workloads:
        for trace in ("0", "1"):
            proc = run(["--workload", wl, "--seed", "7", "--seconds", SECONDS,
                        "--trace", trace])
            res = last_json(proc.stdout)
            tag = f"{wl} trace={trace}"
            check(proc.returncode == 0 and res is not None
                  and res.get("correct") is True and res.get("failed") == 0,
                  f"{tag}: runs correctly")
            if res is None:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result has exactly the four keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[trace],
                  f"{tag}: metric names and units match BENCHMARK.json")
            if trace == "1":
                path = os.path.join(ROOT, ".bench_out", f"trace-{wl}.json")
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    check(len(events) > 0, f"{tag}: Chrome trace has spans")
                except (OSError, ValueError, KeyError):
                    check(False, f"{tag}: Chrome trace readable")

    binary = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
    for wl in workloads:
        proc = subprocess.run([binary, "--workload", wl, "--seed", "7",
                               "--seconds", SECONDS, "--trace", "0",
                               "--inject-fault"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=300)
        res = last_json(proc.stdout)
        check(proc.returncode != 0 and res is not None
              and res["correct"] is False and res["failed"] >= 1,
              f"{wl}: a corrupted output is caught")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    proc = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "without the library sources the run fails with no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

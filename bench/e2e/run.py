#!/usr/bin/env python3
"""Build the end-to-end benchmark and run its workloads (see README.md).

    bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                     [--smoke] [--out DIR] [--repeat N] [--corrupt-oracle]

Run it from the repository root. It builds bench/e2e (Release) into
build-bench/, runs each selected workload in its own process, stamps every
result with the machine it ran on, and writes it to --out (default
build-bench/results/). For each workload it prints every end-to-end
metric of BENCHMARK.json with its unit; with exactly one workload selected
the last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. The result file keeps every metric the run measured.

--trace (or --trace 1) reports the per-layer metrics instead: the
wall-clock ones from an untraced run, the rest from a traced run, which
also writes a Chrome trace next to the result. The tracing overhead
compares the forward phases of the two runs.
--repeat N runs two sets of N runs each of the same code, interleaved
run by run (A B, then B A, ...) so drift of a shared machine hits both
alike, and compares them with compare.py into <out>/repeatability.md.
Every invocation also writes all its results, as a list, to <out>/all.json.

Exit codes: 0 ok, 1 build or engine error, 2 usage, 3 a recovered or read
state disagreed with the oracle.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import compare  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build-bench")
DEFAULT_SEED = 1


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the bench target; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + gen, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry configure next time
            return None
    cmd = ["cmake", "--build", BUILD, "--target", "e2e_bench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "e2e_bench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        return sha.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


class OracleMismatch(Exception):
    pass


def run_binary(binary, workload, seed, seconds, smoke, extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--smoke"] if smoke else []) + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode == 3:
        raise OracleMismatch(workload)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(binary, bench, workload, args, out_dir, name):
    """One result: an untraced run, or a traced run merged with an untraced
    one. The untraced run gives the end-to-end metrics and the wall-clock
    per-layer ones, which tracing would skew; the traced run the rest."""
    load_before = os.getloadavg()
    extra = ["--corrupt-oracle"] if args.corrupt_oracle else []
    result = run_binary(binary, workload, args.seed, args.seconds, args.smoke,
                        extra)
    declared = bench["end_to_end"]
    if args.trace:
        ref = result
        trace_file = os.path.join(out_dir, name + ".trace.json")
        result = run_binary(binary, workload, args.seed, args.seconds,
                            args.smoke, extra + ["--trace-file", trace_file])
        result["metrics"] = {**ref["metrics"], **result["metrics"]}
        result["metrics"]["trace.overhead_frac"] = {
            "value": result["info"]["fwd_wall_s"] / ref["info"]["fwd_wall_s"] - 1,
            "unit": "frac"}
        result["info"]["untraced_fwd_wall_s"] = ref["info"]["fwd_wall_s"]
        declared = bench["per_layer"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    bad = [m["name"] for m in declared if got.get(m["name"]) != m["unit"]]
    if bad:
        raise RuntimeError(f"{workload}: metrics missing or in another unit "
                           f"than BENCHMARK.json says: {bad}")
    # The result file keeps every metric measured, so compare.py can also
    # set the wall-clock per-layer metrics of two untraced sets side by side.
    result["reported"] = [m["name"] for m in declared]
    result["trace"] = bool(args.trace)
    result["environment"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": result.pop("compiler"),
        "build_type": result.pop("build_type"),
        "git_sha": git_sha(),
        "seed": args.seed,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "finished_unix_s": round(time.time(), 3),
    }
    with open(os.path.join(out_dir, name + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"== {workload} (seed {args.seed}{', traced' if args.trace else ''})")
    for key in result["reported"]:
        m = result["metrics"][key]
        print(f"  {key:42s} {m['value']:14.6g} {m['unit']}")
    return result


def write_all(out_dir, results):
    with open(os.path.join(out_dir, "all.json"), "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    # A SIGTERM becomes an exception, on which subprocess.run kills the
    # build or benchmark process it is waiting for and reaps it.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names, action="append")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default=os.path.join(BUILD, "results"))
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--corrupt-oracle", action="store_true")
    p.add_argument("--bin", help="use this e2e_bench instead of building")
    args = p.parse_args()
    args.trace = args.trace == "1"
    workloads = args.workload or names

    binary = args.bin or build()
    if binary is None:
        log("run.sh: build failed")
        return 1

    try:
        if args.repeat > 0:
            sets = {side: os.path.join(args.out, side) for side in "AB"}
            for d in sets.values():
                os.makedirs(d, exist_ok=True)
            results = []
            for i in range(args.repeat):
                for w in workloads:
                    for side in ("AB" if i % 2 == 0 else "BA"):
                        results.append(run_workload(binary, bench, w, args,
                                                    sets[side], f"{w}-{i:02d}"))
            write_all(args.out, results)
            report = compare.report(compare.load(sets["A"]),
                                    compare.load(sets["B"]), bench,
                                    "A", "B")
            with open(os.path.join(args.out, "repeatability.md"), "w") as f:
                f.write(report)
            print(report)
            return 0
        os.makedirs(args.out, exist_ok=True)
        results = []
        for w in workloads:
            suffix = ".per_layer" if args.trace else ""
            results.append(
                run_workload(binary, bench, w, args, args.out, w + suffix))
        write_all(args.out, results)
    except OracleMismatch as e:
        log(f"run.sh: {e}: recovered or read state disagrees with the oracle")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 3
    except (RuntimeError, ValueError, OSError) as e:
        log(f"run.sh: {e}")
        return 1

    if len(results) == 1:
        r = results[0]
        metrics = {k: r["metrics"][k] for k in r["reported"]}
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

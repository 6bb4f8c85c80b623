#!/usr/bin/env python3
"""Compare two google-benchmark JSON files, such as BENCH_micro.json.

Usage: scripts/micro_diff.py OLD NEW

Prints both files' contexts side by side, then one row per benchmark name
found in both: each side's real_time (in the unit OLD reports) and the
ratio NEW / OLD, so a ratio above 1 means NEW is slower. Names found on
one side only are listed after the table. It warns when the two contexts
differ in num_cpus or deutero_build_type (the engine's build, stamped by
scripts/perf_report.sh): wall-clock times from different core counts or
build types do not compare.

The output is informational: the script always exits 0, also when a file
is missing or malformed (it says so instead).
"""
import json
import sys

# Seconds per unit of google-benchmark's time_unit field.
UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
WATCHED_CONTEXT = ("num_cpus", "deutero_build_type")


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if "name" in b and "real_time" in b:
            rows[b["name"]] = b
    return doc.get("context", {}), rows


def show(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def print_contexts(old_ctx, new_ctx):
    print("context:")
    keys = list(old_ctx) + [k for k in new_ctx if k not in old_ctx]
    width = max([len(k) for k in keys] + [3])
    for k in keys:
        old = show(old_ctx[k]) if k in old_ctx else "(absent)"
        new = show(new_ctx[k]) if k in new_ctx else "(absent)"
        print(f"  {k:<{width}}  OLD {old}")
        print(f"  {'':<{width}}  NEW {new}")
    for k in WATCHED_CONTEXT:
        if old_ctx.get(k) != new_ctx.get(k):
            print(f"WARNING: {k} differs (OLD {old_ctx.get(k, '(absent)')}, "
                  f"NEW {new_ctx.get(k, '(absent)')}): the times below do "
                  "not compare")


def print_table(old_rows, new_rows):
    common = [n for n in old_rows if n in new_rows]
    width = max([len(n) for n in common] + [9])
    print(f"\n{'benchmark':<{width}}  {'OLD':>14}  {'NEW':>14}  {'NEW/OLD':>8}")
    for name in common:
        a, b = old_rows[name], new_rows[name]
        unit = a.get("time_unit", "ns")
        scale = (UNIT_SECONDS.get(b.get("time_unit", "ns"), 1e-9) /
                 UNIT_SECONDS.get(unit, 1e-9))
        old = float(a["real_time"])
        new = float(b["real_time"]) * scale
        ratio = f"{new / old:8.3f}" if old > 0 else f"{'-':>8}"
        print(f"{name:<{width}}  {old:>11.1f} {unit:<2}  {new:>11.1f} "
              f"{unit:<2}  {ratio}")
    for label, side, other in (("OLD", old_rows, new_rows),
                               ("NEW", new_rows, old_rows)):
        only = [n for n in side if n not in other]
        if only:
            print(f"\nonly in {label} ({len(only)}):")
            for n in only:
                print(f"  {n}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2])
        return 0
    try:
        old_ctx, old_rows = load(argv[1])
        new_ctx, new_rows = load(argv[2])
        print(f"OLD {argv[1]}\nNEW {argv[2]}\n")
        print_contexts(old_ctx, new_ctx)
        print_table(old_rows, new_rows)
    except Exception as e:  # informational: never fail the caller
        print(f"micro_diff: cannot compare: {e!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

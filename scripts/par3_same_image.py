#!/usr/bin/env python3
"""Partitioned recovery against one partition, on the same crash image.

    scripts/par3_same_image.py RESULT.json [RESULT.json]

Reads result files of `bench/e2e/run.sh --trace`: one workload's result,
or the all.json list of a run. Untraced results carry no par3 metrics and
are skipped. The bench's par3 recovers the last crash image at three
partitions, while its par3_speedup divides by the median over every image
at one partition, so it compares different images. This script compares
the same image instead. For each workload and method it prints:

  sim   the last image's one-partition time (the last entry of
        samples["recovery_sim_ms.<m>"]), recovery.par3_sim_ms, their
        ratio (par3 / one; above 1 means partitions are slower) and
        recovery.par3_sim_spread;
  wall  the median of the last image's timed one-partition rounds (the
        last info.recovery_rounds_per_image entries of
        samples["recovery.wall_ms.<m>"]), recovery.par3_wall_ms and their
        ratio. Both come from the traced run.

Given two files, it prints them side by side, workload by workload.
"""
import json
import statistics
import sys

METHODS = ("log0", "log1", "log2", "sql1", "sql2")


def load(path):
    """{(workload, seed): result} of the traced results in `path`."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for r in data if isinstance(data, list) else [data]:
        if "recovery.par3_sim_ms.log0" in r.get("metrics", {}):
            out[(r["workload"], r["seed"])] = r
    return out


def same_image(r, m):
    """(one_sim, par3_sim, sim ratio, spread, one_wall, par3_wall, wall
    ratio) of method `m` in result `r`."""
    metric = lambda name: r["metrics"][f"recovery.{name}.{m}"]["value"]
    rounds = int(r["info"]["recovery_rounds_per_image"])
    one_sim = r["samples"][f"recovery_sim_ms.{m}"][-1]
    one_wall = statistics.median(r["samples"][f"recovery.wall_ms.{m}"][-rounds:])
    par_sim = metric("par3_sim_ms")
    par_wall = metric("par3_wall_ms")
    return (one_sim, par_sim, par_sim / one_sim if one_sim else float("nan"),
            metric("par3_sim_spread"), one_wall, par_wall,
            par_wall / one_wall if one_wall else float("nan"))


def table(title, heads, cells, results):
    """One table: a row per method, `heads` columns per result."""
    width = 10
    side = "".join(f"{h:>{width}}" for h in heads)
    print(f"  {title:6s}" + " | ".join(side for _ in results))
    for m in METHODS:
        parts = []
        for r in results:
            if r is None:
                parts.append(" " * (width * len(heads)))
                continue
            parts.append("".join(f"{v:>{width}}" for v in cells(same_image(r, m))))
        print(f"  {m:6s}" + " | ".join(parts))


def main(argv):
    if not 2 <= len(argv) <= 3:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    files = [load(p) for p in argv[1:]]
    keys = sorted(set().union(*files), key=lambda k: (k[0], k[1]))
    if not keys:
        print("no traced results (run bench/e2e/run.sh --trace)",
              file=sys.stderr)
        return 1
    if len(files) == 2:
        print(f"A = {argv[1]}\nB = {argv[2]}")
    for key in keys:
        results = [f.get(key) for f in files]
        print(f"\n{key[0]} (seed {key[1]})"
              + ("   A | B" if len(files) == 2 else ""))
        table("sim", ("one_ms", "par3_ms", "ratio", "spread"),
              lambda c: (f"{c[0]:,.1f}", f"{c[1]:,.1f}", f"{c[2]:.3f}",
                         f"{c[3]:.3f}"), results)
        table("wall", ("one_ms", "par3_ms", "ratio"),
              lambda c: (f"{c[4]:,.1f}", f"{c[5]:,.1f}", f"{c[6]:.3f}"),
              results)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

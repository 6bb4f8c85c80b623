#!/usr/bin/env python3
"""Compare two sets of end-to-end results (see README.md, "Comparing").

    python3 bench/e2e/compare.py A B

A is the baseline set (the parent commit), B the candidate; each is a
directory of result files written by run.sh, or one file holding a result
or a list of them (run.sh's all.json, results/seed.json). For
every workload and end-to-end metric it prints each side's median and
quartiles, the share of runs B wins when the runs are paired in order, the
metric's bound from BENCHMARK.json, and a verdict:

  regression  B's median is worse than A's by more than the bound
  unresolved  A's quartile spread, as a share of its median, exceeds the
              bound, and not every run of B beats every run of A
  gain        B wins at least nine tenths of the pairs and the medians
              differ by more than A's quartile spread
  same        none of these

The per-layer metrics every run on both sides measured follow (from
untraced runs: the wall-clock ones). They have no bound, so instead of a
regression they can show a loss, the mirror image of a gain.

A verdict gains ", bit-identical" when every run on both sides read the
same value, as the simulated recovery times do at a fixed seed.

Exits 1 if any metric regressed.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))


def load(path):
    """{workload: [result, ...]} of untraced results, in file-name order."""
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path))
        if f.endswith(".json") and not f.endswith(".trace.json")
        and f != "all.json"]
    out = {}
    for name in files:
        with open(name) as f:
            loaded = json.load(f)
        for r in loaded if isinstance(loaded, list) else [loaded]:
            if isinstance(r, dict) and "workload" in r and not r.get("trace"):
                out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, metric):
    """(verdict, share of pairs B won) for one metric's two value lists. A
    per-layer metric has no bound, so it can show a gain or a loss but
    neither a regression nor an unresolved verdict."""
    lower = metric["better"] == "lower"
    bound = metric.get("bound")
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    won = lost = 0
    for x, y in zip(a, b):
        if y != x:
            if (y < x) == lower:
                won += 1
            else:
                lost += 1
    pairs = min(len(a), len(b))
    share = won / pairs if pairs else 0.0
    worse = (bm - am) if lower else (am - bm)
    spread = (a3 - a1) / abs(am) if am else 0.0
    b_beats_all = (max(b) < min(a)) if lower else (min(b) > max(a))
    if bound is not None and am and worse > bound * abs(am):
        return "regression", share
    if bound is not None and spread > bound and not b_beats_all:
        return "unresolved", share
    if share >= 0.9 and abs(bm - am) > (a3 - a1):
        return "gain", share
    if bound is None and pairs and lost / pairs >= 0.9 and worse > (a3 - a1):
        return "loss", share
    return "same", share


def fmt(v):
    return f"{v:.6g}"


def report(a_sets, b_sets, bench, a_name="A", b_name="B"):
    lines = [f"# {a_name} vs {b_name}", ""]
    any_regression = False
    for workload in sorted(set(a_sets) | set(b_sets)):
        a_runs, b_runs = a_sets.get(workload, []), b_sets.get(workload, [])
        lines.append(f"## {workload} ({len(a_runs)} vs {len(b_runs)} runs)")
        lines.append("")
        if not a_runs or not b_runs:
            lines += ["missing on one side", ""]
            continue
        env = a_runs[0].get("environment", {})
        lines.append(f"machine: {env.get('nproc')} x {env.get('cpu_model')}, "
                     f"{env.get('compiler')} {env.get('build_type')}")
        lines.append("")
        lines.append(f"| metric | unit | {a_name} median [q1, q3] | "
                     f"{b_name} median [q1, q3] | {a_name} spread | "
                     f"{b_name} won | bound | verdict |")
        lines.append("|---|---|---|---|---|---|---|---|")
        runs = a_runs + b_runs
        measured = [m for m in bench["per_layer"]
                    if all(m["name"] in r["metrics"] for r in runs)]
        for m in bench["end_to_end"] + measured:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            v, share = verdict(a, b, m)
            any_regression |= v == "regression"
            if len(set(a + b)) == 1:
                v += ", bit-identical"
            spread = (a3 - a1) / abs(am) if am else 0.0
            bound = f"{m['bound']:.0%}" if "bound" in m else "-"
            lines.append(
                f"| {m['name']} | {m['unit']} | {fmt(am)} [{fmt(a1)}, {fmt(a3)}]"
                f" | {fmt(bm)} [{fmt(b1)}, {fmt(b3)}] | {spread:.1%} | "
                f"{share:.0%} | {bound} | {v} |")
        lines.append("")
    lines.append("any regression: " + ("yes" if any_regression else "no"))
    return "\n".join(lines) + "\n"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    text = report(load(sys.argv[1]), load(sys.argv[2]), bench,
                  sys.argv[1], sys.argv[2])
    print(text, end="")
    return 1 if "any regression: yes" in text else 0


if __name__ == "__main__":
    sys.exit(main())

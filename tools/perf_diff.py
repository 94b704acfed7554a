#!/usr/bin/env python3
"""Compare two perfbench results metric by metric.

    python3 tools/perf_diff.py A B

A and B are perfbench results: a baseline file from bench/baselines/ (one
JSON object whose "result" holds the result line), or the stdout of
`python3 perfbench/run.py ...`, whose last line is the result. For every
metric the script prints A, B and the ratio B/A, and flags a metric whose
ratio lies outside [1 - BAND, 1 + BAND], or that only one side reports.
Two residuals get no ratio and no flag: `serve.overhead_ms` is a
difference of two latencies and changes sign, and `trace.stage_agreement`
is a deviation from 1 near zero.

BAND, 0.17, is the run-to-run spread that perfbench/README.md documents:
the largest IQR / median of an end-to-end metric over ten seeds (0.169,
`hot_serve` setup_s). The traced per-layer metrics spread more than that
from one run to the next: two seed-7 runs of one tree on a 4-vCPU Xeon VM
flagged 2, 0 and 8 of the 48 compared metrics on `cold_large`, `eco_warm`
and `hot_serve`. A flag points at a layer to look at; it is not a verdict,
so the exit code is 0 whenever both files parse and 2 when one does not.
Speed verdicts come from interleaved parent/change pairs.
"""

import argparse
import json
import math
import sys

BAND = 0.17
RESIDUALS = {"serve.overhead_ms", "trace.stage_agreement"}


def load_metrics(path):
    """Metric name -> value of the perfbench result stored in `path`."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"{path}: empty file")
        doc = json.loads(lines[-1])
    result = doc.get("result", doc)
    if "metrics" not in result:
        raise ValueError(f"{path}: no perfbench result with a 'metrics' object")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def ratio(a, b):
    if a == 0:
        return 1.0 if b == 0 else math.inf
    return b / a


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="reference result (baseline)")
    parser.add_argument("b", help="result to compare against the reference")
    args = parser.parse_args()
    try:
        a = load_metrics(args.a)
        b = load_metrics(args.b)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"perf_diff: {e}", file=sys.stderr)
        return 2

    flagged = 0
    names = sorted(set(a) | set(b))
    print(f"{'metric':32} {'A':>14} {'B':>14} {'B/A':>8}")
    for name in names:
        if name not in a or name not in b:
            side = "A" if name in a else "B"
            value = a.get(name, b.get(name))
            print(f"{name:32} only in {side}: {value:.6g}  FLAG")
            flagged += 1
        elif name in RESIDUALS:
            print(f"{name:32} {a[name]:14.6g} {b[name]:14.6g} {'-':>8}")
        else:
            r = ratio(a[name], b[name])
            flag = abs(r - 1.0) > BAND
            flagged += flag
            print(f"{name:32} {a[name]:14.6g} {b[name]:14.6g} {r:8.3f}"
                  + ("  FLAG" if flag else ""))
    print(f"{flagged} of {len(names)} metrics flagged: |B/A - 1| > {BAND:g} "
          "or on one side only (residuals not compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check tools/perf_diff.py on a committed baseline.

    python3 tests/perf_diff_check.py PERF_DIFF BASELINE WORKDIR

A baseline diffed against itself flags nothing. Against a copy with one
metric doubled, exactly that metric is flagged; against a copy with a
residual (`serve.overhead_ms`) doubled, nothing is. Every diff exits 0: a
flag is a pointer, not a verdict.
"""

import json
import pathlib
import subprocess
import sys


def run(script, a, b):
    done = subprocess.run([sys.executable, script, a, b], capture_output=True,
                          text=True, check=False)
    flagged = [line.split()[0] for line in done.stdout.splitlines()
               if line.endswith("FLAG")]
    return done.returncode, flagged, done.stdout + done.stderr


def doubled_copy(baseline, name, path):
    doc = json.loads(pathlib.Path(baseline).read_text(encoding="utf-8"))
    doc["result"]["metrics"][name]["value"] *= 2
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def main():
    script, baseline, workdir = sys.argv[1:4]
    work = pathlib.Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    metrics = json.loads(
        pathlib.Path(baseline).read_text(encoding="utf-8"))["result"]["metrics"]
    name = next(n for n in sorted(metrics) if metrics[n]["value"] != 0)
    residual = "serve.overhead_ms"

    cases = [("self-diff", baseline, []),
             (f"doubled {name}", doubled_copy(baseline, name, work / "doubled.json"),
              [name]),
             (f"doubled {residual}",
              doubled_copy(baseline, residual, work / "residual.json"), [])]
    for label, other, expected in cases:
        code, flagged, out = run(script, baseline, other)
        if code != 0 or flagged != expected:
            print(f"{label}: exit {code}, flagged {flagged}, expected {expected}\n{out}")
            return 1
    print(f"ok: self-diff clean; doubled {name} flagged alone; "
          f"doubled {residual} not flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/bin/sh
# End-to-end smoke test of the irf_cli tool: generate a tiny dataset, solve
# one deck, train a 1-epoch pipeline on the generated designs, analyze a
# deck with the saved model, and serve the design set through the engine.
# Registered with ctest (see tests/CMakeLists.txt).
set -e

CLI="$1"
WORK="$2"
rm -rf "$WORK"
mkdir -p "$WORK"

echo "== help (generated from the flag tables) =="
"$CLI" --help | grep -q serve-batch
"$CLI" --help | grep -q serve-load
"$CLI" serve-load --help | grep -q -- '--shards'
"$CLI" solve --help | grep -q -- '--rough-iters'
"$CLI" train --help | grep -q -- '--save-model'

echo "== generate =="
"$CLI" generate --out "$WORK/designs" --fake-designs 2 --real-designs 2 --pixels 32 --seed 5

DECK=$(find "$WORK/designs" -name netlist.sp | sort | head -1)
echo "== solve ($DECK) =="
"$CLI" solve "$DECK" --rough-iters 3 --pixels 32 --out "$WORK/rough.csv"
test -s "$WORK/rough.csv"

echo "== telemetry (--trace-out / --metrics-out) =="
"$CLI" solve "$DECK" --rough-iters 3 --pixels 32 \
  --trace-out "$WORK/trace.json" --metrics-out "$WORK/metrics.json"
test -s "$WORK/trace.json"
test -s "$WORK/metrics.json"
"$CLI" json-check "$WORK/trace.json"
"$CLI" json-check "$WORK/metrics.json"
# The trace must contain the solver spans; the metrics must count the solve.
grep -q '"name":"amg_setup"' "$WORK/trace.json"
grep -q '"name":"pcg_iterate"' "$WORK/trace.json"
grep -q '"name":"feature_extract"' "$WORK/trace.json"
grep -q '"solver.pcg.solves"' "$WORK/metrics.json"

echo "== telemetry via environment (IRF_TRACE) =="
IRF_TRACE="$WORK/env_trace.json" "$CLI" solve "$DECK" --rough-iters 3 --pixels 32
test -s "$WORK/env_trace.json"
"$CLI" json-check "$WORK/env_trace.json"
grep -q '"name":"rough_solve"' "$WORK/env_trace.json"
# Convergence telemetry always rides the solve span.
grep -q 'final_relative_residual' "$WORK/env_trace.json"

echo "== IRF_METRICS=1 collects with no automatic output =="
(cd "$WORK" && IRF_METRICS=1 "$CLI" solve "$DECK" --rough-iters 3 --pixels 32 \
  2> "$WORK/metrics_on.err")
if test -s "$WORK/metrics_on.err"; then
  echo "IRF_METRICS=1 must not write to stderr:"; cat "$WORK/metrics_on.err"; exit 1
fi
test ! -e "$WORK/1" || { echo "IRF_METRICS=1 must not be taken as a path"; exit 1; }

echo "== quiet mode =="
OUT=$(IRF_LOG_LEVEL=quiet "$CLI" solve "$DECK" --rough-iters 3 --pixels 32)
test -z "$OUT" || { echo "quiet mode must not print: $OUT"; exit 1; }

echo "== train =="
"$CLI" train --designs "$WORK/designs" --save-model "$WORK/model.bin" \
  --epochs 1 --pixels 32 --rough-iters 2 --seed 5
test -s "$WORK/model.bin"

echo "== analyze =="
"$CLI" analyze --load-model "$WORK/model.bin" "$DECK" --out "$WORK/pred.csv"
test -s "$WORK/pred.csv"

echo "== serve-batch =="
"$CLI" serve-batch --load-model "$WORK/model.bin" --designs "$WORK/designs" \
  --out-dir "$WORK/served" --batch 2 --repeat 2 \
  --metrics-out "$WORK/serve_metrics.json"
test -s "$WORK/serve_metrics.json"
"$CLI" json-check "$WORK/serve_metrics.json"
grep -q '"serve.cache.hits"' "$WORK/serve_metrics.json"
grep -q '"serve.queue.depth"' "$WORK/serve_metrics.json"
# Every design must have a served map, identical to the one-shot analyze.
for d in "$WORK/designs"/*/; do
  name=$(basename "$d")
  test -s "$WORK/served/$name.csv"
done
cmp "$WORK/pred.csv" "$WORK/served/$(basename "$(dirname "$DECK")").csv"

echo "== serve-batch without a model degrades gracefully =="
"$CLI" serve-batch --designs "$WORK/designs" --out-dir "$WORK/served_degraded" \
  --batch 2
test -s "$WORK/served_degraded/$(basename "$(dirname "$DECK")").csv"
# The queue is sized off --batch; a batch above INT_MAX / 4 must not
# overflow that size.
"$CLI" serve-batch --designs "$WORK/designs" --batch 600000000

echo "== serve-load (sharded router, open-loop) =="
"$CLI" serve-load --load-model "$WORK/model.bin" --designs "$WORK/designs" \
  --shards 2 --requests 16 --rate 50 --seed 7 \
  --metrics-out "$WORK/load_metrics.json"
test -s "$WORK/load_metrics.json"
"$CLI" json-check "$WORK/load_metrics.json"
grep -q '"serve.requests"' "$WORK/load_metrics.json"
grep -q '"serve.shard.s0.queue.depth"' "$WORK/load_metrics.json"
# Model-less serve-load degrades instead of failing, like serve-batch.
"$CLI" serve-load --designs "$WORK/designs" --shards 2 --requests 8

echo "== error handling =="
if "$CLI" bogus-subcommand; then echo "unknown subcommand must fail"; exit 1; fi
if "$CLI" generate; then echo "generate without --out must fail"; exit 1; fi
if "$CLI" solve /nonexistent.sp; then echo "missing deck must fail"; exit 1; fi
if "$CLI" analyze --load-model /nonexistent.bin "$DECK"; then
  echo "missing model must fail"; exit 1
fi
if "$CLI" solve "$DECK" --rough-iters abc; then
  echo "non-numeric --rough-iters must fail"; exit 1
fi
if "$CLI" solve "$DECK" --rough-iters 3 --pixels 0; then
  echo "--pixels 0 must fail"; exit 1
fi
if "$CLI" solve "$DECK" --rough-iters 3 --pixels -4; then
  echo "negative --pixels must fail"; exit 1
fi
if "$CLI" solve "$DECK" --rough-iters -1; then
  echo "negative --rough-iters must fail"; exit 1
fi
if "$CLI" solve "$DECK" --rough-iters ' 3'; then
  echo "a blank-led --rough-iters must fail"; exit 1
fi
# Each flag has one kebab-case spelling: --iters is an unknown flag.
if "$CLI" solve "$DECK" --iters 3 2> "$WORK/iters.err"; then
  echo "--iters must fail as an unknown flag"; exit 1
fi
grep -q 'unknown flag --iters' "$WORK/iters.err"
# Numbers go through the shared checked parsers: no hex floats, no blanks.
if "$CLI" serve-batch --designs "$WORK/designs" --timeout-seconds 0x1p-2; then
  echo "a hex-float --timeout-seconds must fail"; exit 1
fi
if "$CLI" serve-batch --designs "$WORK/designs" --timeout-seconds ' 0.5'; then
  echo "a blank-led --timeout-seconds must fail"; exit 1
fi
if "$CLI" json-check "$WORK/rough.csv"; then echo "json-check must reject CSV"; exit 1; fi
# A hostile artifact fails with exit 1 (a parse error), not a crash: a
# 100000-deep JSON array.
awk 'BEGIN { for (i = 0; i < 100000; i++) printf "[";
            for (i = 0; i < 100000; i++) printf "]" }' > "$WORK/deep.json"
rc=0; "$CLI" json-check "$WORK/deep.json" || rc=$?
test "$rc" -eq 1 || { echo "json-check on a deep array exited $rc, want 1"; exit 1; }
if "$CLI" solve "$DECK" --bogus-flag 1; then echo "unknown flag must fail"; exit 1; fi
if "$CLI" serve-batch --designs /nonexistent-dir; then
  echo "serve-batch with a bad design dir must fail"; exit 1
fi
if "$CLI" serve-batch --designs "$WORK/designs" --batch 0; then
  echo "--batch 0 must fail"; exit 1
fi

echo "CLI_SMOKE_PASS"

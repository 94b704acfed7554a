#!/bin/sh
# End-to-end smoke test of the irf_cli tool: generate a tiny dataset, solve
# one deck, train a 1-epoch pipeline on the generated designs, analyze a
# deck with the saved model, and serve the design set through the engine.
# Old flag spellings (--px, --iters, --fake, train --out, analyze --model)
# are exercised deliberately: they must keep working as deprecated aliases.
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
"$CLI" solve --help | grep -q 'deprecated alias: --iters'
"$CLI" train --help | grep -q -- '--save-model'

echo "== generate (deprecated alias spellings) =="
"$CLI" generate --out "$WORK/designs" --fake 2 --real 2 --px 32 --seed 5

DECK=$(find "$WORK/designs" -name netlist.sp | sort | head -1)
echo "== solve ($DECK) =="
"$CLI" solve "$DECK" --iters 3 --px 32 --out "$WORK/rough.csv"
test -s "$WORK/rough.csv"

echo "== solve (canonical kebab-case spellings) =="
"$CLI" solve "$DECK" --rough-iters 3 --pixels 32 --out "$WORK/rough2.csv"
cmp "$WORK/rough.csv" "$WORK/rough2.csv"  # alias and canonical are the same flag

echo "== telemetry (--trace-out / --metrics-out) =="
"$CLI" solve "$DECK" --iters 3 --px 32 \
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
IRF_TRACE="$WORK/env_trace.json" "$CLI" solve "$DECK" --iters 3 --px 32
test -s "$WORK/env_trace.json"
"$CLI" json-check "$WORK/env_trace.json"
grep -q '"name":"rough_solve"' "$WORK/env_trace.json"
# Convergence telemetry always rides the solve span; the residual curve only
# appears under the IRF_RESIDUAL_CURVES gate.
grep -q 'final_relative_residual' "$WORK/env_trace.json"
if grep -q '"r0"' "$WORK/env_trace.json"; then
  echo "residual curve captured without IRF_RESIDUAL_CURVES"; exit 1
fi
IRF_TRACE="$WORK/env_trace_curve.json" IRF_RESIDUAL_CURVES=1 \
  "$CLI" solve "$DECK" --iters 3 --px 32
"$CLI" json-check "$WORK/env_trace_curve.json"
grep -q '"r0"' "$WORK/env_trace_curve.json"
grep -q 'res_curve_stride' "$WORK/env_trace_curve.json"

echo "== prometheus exposition (--prom-out / prom-check) =="
"$CLI" solve "$DECK" --iters 3 --px 32 --prom-out "$WORK/metrics.prom"
test -s "$WORK/metrics.prom"
grep -q '^# TYPE irf_' "$WORK/metrics.prom"
grep -q 'quantile="0.99"' "$WORK/metrics.prom"
"$CLI" prom-check "$WORK/metrics.prom"
if "$CLI" prom-check "$WORK/rough.csv"; then
  echo "prom-check must reject CSV"; exit 1
fi

echo "== quiet mode =="
OUT=$(IRF_LOG_LEVEL=quiet "$CLI" solve "$DECK" --iters 3 --px 32)
test -z "$OUT" || { echo "quiet mode must not print: $OUT"; exit 1; }

echo "== train =="
"$CLI" train --designs "$WORK/designs" --out "$WORK/model.bin" \
  --epochs 1 --px 32 --iters 2 --seed 5
test -s "$WORK/model.bin"

echo "== analyze =="
"$CLI" analyze --model "$WORK/model.bin" "$DECK" --out "$WORK/pred.csv"
test -s "$WORK/pred.csv"
"$CLI" analyze --load-model "$WORK/model.bin" "$DECK" --out "$WORK/pred2.csv"
cmp "$WORK/pred.csv" "$WORK/pred2.csv"

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

echo "== serve-batch without a model degrades gracefully (+ flight dump) =="
"$CLI" serve-batch --designs "$WORK/designs" --out-dir "$WORK/served_degraded" \
  --batch 2 --flight-out "$WORK/flight.json"
test -s "$WORK/served_degraded/$(basename "$(dirname "$DECK")").csv"
# A model-less engine degrades every request; the flight dump must record it.
test -s "$WORK/flight.json"
"$CLI" json-check "$WORK/flight.json"
grep -q '"event":"degraded"' "$WORK/flight.json"
grep -q '"event":"submit"' "$WORK/flight.json"

echo "== serve-batch periodic prometheus snapshots =="
"$CLI" serve-batch --load-model "$WORK/model.bin" --designs "$WORK/designs" \
  --out-dir "$WORK/served_prom" --batch 2 \
  --prom-out "$WORK/serve.prom" --prom-every-seconds 0.05
test -s "$WORK/serve.prom"
"$CLI" prom-check "$WORK/serve.prom"
grep -q 'irf_serve_request_seconds' "$WORK/serve.prom"
if "$CLI" serve-batch --designs "$WORK/designs" --prom-every-seconds 0.05; then
  echo "--prom-every-seconds without --prom-out must fail"; exit 1
fi

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
if "$CLI" analyze --model /nonexistent.bin "$DECK"; then
  echo "missing model must fail"; exit 1
fi
if "$CLI" solve "$DECK" --iters abc; then echo "non-numeric --iters must fail"; exit 1; fi
if "$CLI" solve "$DECK" --iters 3 --px 0; then echo "--px 0 must fail"; exit 1; fi
if "$CLI" solve "$DECK" --iters 3 --px -4; then echo "negative --px must fail"; exit 1; fi
if "$CLI" solve "$DECK" --iters -1; then echo "negative --iters must fail"; exit 1; fi
if "$CLI" json-check "$WORK/rough.csv"; then echo "json-check must reject CSV"; exit 1; fi
if "$CLI" solve "$DECK" --bogus-flag 1; then echo "unknown flag must fail"; exit 1; fi
if "$CLI" serve-batch --designs /nonexistent-dir; then
  echo "serve-batch with a bad design dir must fail"; exit 1
fi
if "$CLI" serve-batch --designs "$WORK/designs" --batch 0; then
  echo "--batch 0 must fail"; exit 1
fi

echo "CLI_SMOKE_PASS"

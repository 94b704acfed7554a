#!/bin/sh
# Run the repository benchmark binary once on its shortest workload and pass
# only when it exits 0 and its last stdout line reports "correct": true.
# Usage: perfbench_smoke.sh IRF_PERFBENCH WORKDIR
set -e

BIN="$1"
WORK="$2"

rm -rf "$WORK"
mkdir -p "$WORK"
OUT=$(IRF_LOG_LEVEL=quiet "$BIN" --workload hot_serve --seed 1 --seconds 1 --trace 0 \
      --out-dir "$WORK")
LAST=$(printf '%s\n' "$OUT" | tail -n 1)
printf '%s\n' "$LAST"
case "$LAST" in
  *'"correct": true'*) exit 0 ;;
  *) echo "perfbench_smoke: the run did not report \"correct\": true"; exit 1 ;;
esac

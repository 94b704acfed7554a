#!/bin/sh
# Run the repository benchmark binary once on one workload and pass only when
# it exits 0 and its last stdout line reports "correct": true.
# Usage: perfbench_smoke.sh IRF_PERFBENCH WORKDIR WORKLOAD RUN_SECONDS
set -e

BIN="$1"
WORK="$2"
WORKLOAD="$3"
RUN_SECONDS="$4"

rm -rf "$WORK"
mkdir -p "$WORK"
OUT=$(IRF_LOG_LEVEL=quiet "$BIN" --workload "$WORKLOAD" --seed 1 --seconds "$RUN_SECONDS" \
      --trace 0 --out-dir "$WORK")
LAST=$(printf '%s\n' "$OUT" | tail -n 1)
printf '%s\n' "$LAST"
case "$LAST" in
  *'"correct": true'*) exit 0 ;;
esac
# The line before the result is the run's context; its "problems" list names
# every check that failed.
printf '%s\n' "$OUT" | tail -n 2 | head -n 1
echo "perfbench_smoke: the $WORKLOAD run did not report \"correct\": true"
exit 1

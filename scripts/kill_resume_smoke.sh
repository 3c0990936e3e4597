#!/usr/bin/env bash
# Kill-resume smoke for the sharded sweep server: a sweep interrupted by
# a worker abort (deterministic fault injection) and by a coordinator
# SIGKILL must both converge, on re-run, to merged bytes identical to an
# uninterrupted sweep. Run from the repo root; builds the release binary
# if it is missing.
#
# Set SMOKE_ARTIFACTS_DIR to keep the interrupted run's observability
# files (logs/*.jsonl, heartbeats, status.json) after the smoke — CI
# uploads them as artifacts so a failure is debuggable post-hoc.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=./target/release/sweep_server
[ -x "$BIN" ] || cargo build --release -p gcache-bench --bin sweep_server

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
FLAGS=(--quick --bench BFS,STL --jobs 2 --checkpoint-every 1200)

echo "==> clean sweep (reference bytes)"
"$BIN" --dir "$tmp/clean" "${FLAGS[@]}" > "$tmp/clean.tsv" 2>/dev/null

echo "==> worker aborted mid-point, respawned, resumed from checkpoint"
GCACHE_SWEEP_FAULT=ckpt:2 "$BIN" --dir "$tmp/wkill" "${FLAGS[@]}" \
  > "$tmp/wkill.tsv" 2> "$tmp/wkill.err"
grep -q "respawn" "$tmp/wkill.err" \
  || { echo "worker was never respawned"; cat "$tmp/wkill.err"; exit 1; }
grep -q "resuming" "$tmp/wkill.err" \
  || { echo "in-flight point was never resumed"; cat "$tmp/wkill.err"; exit 1; }
diff "$tmp/clean.tsv" "$tmp/wkill.tsv" \
  || { echo "worker kill changed the merged bytes"; exit 1; }

echo "==> coordinator SIGKILLed mid-sweep, same command re-run"
# The kill fires on observed progress, not after a fixed delay: once the
# first result is published and the merge has not happened yet, the sweep
# is provably mid-flight however fast the host is. The smoke fails if the
# coordinator exits first. One subshell so bash's "Killed" job
# notification stays out of the log.
(
  "$BIN" --dir "$tmp/ckill" "${FLAGS[@]}" >/dev/null 2>&1 & pid=$!
  until compgen -G "$tmp/ckill/results/*.result" >/dev/null \
      && [ ! -e "$tmp/ckill/merged.tsv" ]; do
    kill -0 "$pid" 2>/dev/null || exit 1
    sleep 0.001
  done
  kill -9 "$pid" 2>/dev/null || exit 1
  wait "$pid" 2>/dev/null
  [ $? -eq 137 ]
) 2>/dev/null \
  || { echo "coordinator exited before it could be killed mid-sweep"; exit 1; }
[ ! -e "$tmp/ckill/merged.tsv" ] \
  || { echo "the kill landed after the merge, not mid-sweep"; exit 1; }
"$BIN" --dir "$tmp/ckill" "${FLAGS[@]}" > "$tmp/ckill.tsv" 2>/dev/null
diff "$tmp/clean.tsv" "$tmp/ckill.tsv" \
  || { echo "coordinator kill changed the merged bytes"; exit 1; }

if [ -n "${SMOKE_ARTIFACTS_DIR:-}" ]; then
  echo "==> exporting observability artifacts to $SMOKE_ARTIFACTS_DIR"
  mkdir -p "$SMOKE_ARTIFACTS_DIR"
  for run in wkill ckill; do
    if [ -d "$tmp/$run/logs" ]; then
      mkdir -p "$SMOKE_ARTIFACTS_DIR/$run"
      cp -r "$tmp/$run/logs" "$SMOKE_ARTIFACTS_DIR/$run/"
      [ -f "$tmp/$run/status.json" ] \
        && cp "$tmp/$run/status.json" "$SMOKE_ARTIFACTS_DIR/$run/"
    fi
  done
fi

echo "==> kill-resume smoke passed"

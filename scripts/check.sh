#!/usr/bin/env bash
# Full local gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> golden-output equivalence (release binaries vs tests/golden)"
# The same byte-compare the gcache-bench integration test performs in the
# debug profile, repeated here against the release binaries: optimization
# level must never change a simulated number.
for exp in fig8_fig9 table3 fig10 ablation fig3_fig4 hierarchy; do
  diff "crates/gcache-bench/tests/golden/${exp}_quick.txt" \
       <(./target/release/"$exp" --quick --bench BFS,CFD,STL 2>/dev/null) \
    || { echo "golden mismatch: $exp"; exit 1; }
done

echo "==> ML plane-sweep golden (release mlsweep --quick vs tests/golden)"
# mlsweep runs its own GEMM/CONV/ATTN registry, so no --bench filter.
diff crates/gcache-bench/tests/golden/mlsweep_quick.txt \
     <(./target/release/mlsweep --quick 2>/dev/null) \
  || { echo "golden mismatch: mlsweep"; exit 1; }

echo "==> fast-forward differential (release, --no-fast-forward vs golden)"
# Ticking every cycle must reproduce the same bytes the fast-forwarding
# goldens were captured with. hierarchy covers the clustered L1.5 shapes;
# mlsweep covers clean copy-backs, which park memory partitions on their
# own stall branch.
for exp in fig8_fig9 hierarchy; do
  diff "crates/gcache-bench/tests/golden/${exp}_quick.txt" \
       <(./target/release/"$exp" --quick --bench BFS,CFD,STL --no-fast-forward 2>/dev/null) \
    || { echo "fast-forward divergence: $exp"; exit 1; }
done
diff crates/gcache-bench/tests/golden/mlsweep_quick.txt \
     <(./target/release/mlsweep --quick --no-fast-forward 2>/dev/null) \
  || { echo "fast-forward divergence: mlsweep"; exit 1; }

echo "==> full-grid differential (release: ff vs plain loop, serial vs 2 jobs)"
# Every registered benchmark x the six Figure 8 designs, compared by full
# SimStats; too slow for the debug tier-1 run, so it is #[ignore]d there.
cargo test -q --release -p gcache-bench --test fast_forward_differential -- --ignored \
  | sed 's/^/   /'

echo "==> perfbench self-tests (the benchmark harness builds against the public API)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml | sed 's/^/   /'

echo "==> L1 access-path microbench (packed tag probe + per-policy access loop)"
# Smoke-gates the l1 bench target: the probe line plus one access-loop
# line per policy must appear (5 policies).
l1_out=$(cargo bench -q -p gcache-bench --bench l1 2>/dev/null)
printf '%s\n' "$l1_out" | grep -q "l1/probe_hit_miss_mix" \
  || { echo "l1 microbench: probe line missing"; exit 1; }
l1_lines=$(printf '%s\n' "$l1_out" | grep -c "l1/access_loop/") || true
[ "$l1_lines" -eq 5 ] \
  || { echo "l1 microbench: expected 5 access-loop lines, got $l1_lines"; exit 1; }
printf '%s\n' "$l1_out" | sed 's/^/   /'

echo "==> NoC saturation microbench (uniform + hotspot injection sweep)"
# Smoke-gates the mesh traffic driver: the sweep must complete and report
# a latency for every pattern x rate point (8 curve lines).
noc_out=$(cargo bench -q -p gcache-bench --bench noc 2>/dev/null)
curve_lines=$(printf '%s\n' "$noc_out" | grep -c "mean-lat") || true
[ "$curve_lines" -eq 8 ] \
  || { echo "noc microbench: expected 8 saturation points, got $curve_lines"; exit 1; }
printf '%s\n' "$noc_out" | grep "mean-lat" | sed 's/^/   /'

echo "==> checkpoint round-trip (fig2 --checkpoint/--resume, release)"
# Periodic snapshotting must be passive (no output byte changes), and an
# interrupted run resumed from its checkpoints must reproduce the
# uninterrupted bytes.
ckdir=$(mktemp -d)
./target/release/fig2 --quick 2>/dev/null > "$ckdir/straight.txt"
./target/release/fig2 --quick --checkpoint "$ckdir/ck" --checkpoint-every 1500 \
  2>/dev/null > "$ckdir/hooked.txt"
diff "$ckdir/straight.txt" "$ckdir/hooked.txt" \
  || { echo "checkpoint hooks changed fig2 output"; rm -rf "$ckdir"; exit 1; }
! compgen -G "$ckdir/ck.*.ckpt" >/dev/null \
  || { echo "completed points left checkpoint files behind"; rm -rf "$ckdir"; exit 1; }
# The kill fires on observed state, not after a fixed delay: once the
# first checkpoint file exists the run is provably mid-flight however
# fast the host is. The leg fails if fig2 exits first or if no checkpoint
# survives the kill. One subshell so bash's "Killed" notice stays quiet.
(
  ./target/release/fig2 --quick --checkpoint "$ckdir/ck" --checkpoint-every 800 \
    >/dev/null 2>&1 & pid=$!
  until compgen -G "$ckdir/ck.*.ckpt" >/dev/null; do
    kill -0 "$pid" 2>/dev/null || exit 1
    sleep 0.001
  done
  kill -9 "$pid" 2>/dev/null || exit 1
  wait "$pid" 2>/dev/null
  [ $? -eq 137 ]
) 2>/dev/null \
  || { echo "fig2 exited before it could be killed mid-run"; rm -rf "$ckdir"; exit 1; }
compgen -G "$ckdir/ck.*.ckpt" >/dev/null \
  || { echo "no checkpoint file survived the kill"; rm -rf "$ckdir"; exit 1; }
./target/release/fig2 --quick --checkpoint "$ckdir/ck" --resume "$ckdir/ck" \
  2> "$ckdir/resume.err" > "$ckdir/resumed.txt"
grep -q "resuming" "$ckdir/resume.err" \
  || { echo "checkpoint files present but nothing resumed"; rm -rf "$ckdir"; exit 1; }
diff "$ckdir/straight.txt" "$ckdir/resumed.txt" \
  || { echo "resumed fig2 output diverged"; rm -rf "$ckdir"; exit 1; }
rm -rf "$ckdir"

echo "==> sweep-server kill-resume smoke (worker abort + coordinator SIGKILL)"
./scripts/kill_resume_smoke.sh | sed 's/^/   /'

echo "==> status-endpoint smoke (live /metrics + /status.json during a sweep)"
# The curl-equivalent probe lives in the observability integration test:
# it spawns the real sweep_server binary, reads the bound port from the
# startup log record, and GETs both documents while workers run.
cargo test -q -p gcache-bench --test observability status_endpoint_serves_live_sweep \
  | sed 's/^/   /'

echo "==> trace export smoke (Chrome trace_event JSON, quick BFS)"
# The emitted timeline must parse and carry G-Cache switch-flip instants
# (acceptance: viewable in ui.perfetto.dev, not just countable).
trace_json=$(mktemp)
./target/release/fig8_fig9 --quick --bench BFS --trace-out "$trace_json" >/dev/null 2>&1
python3 - "$trace_json" <<'EOF' || { rm -f "$trace_json"; exit 1; }
import json, sys
doc = json.load(open(sys.argv[1]))
flips = [e for e in doc["traceEvents"]
         if e.get("ph") == "i" and e["name"].startswith("switch ")]
assert flips, "no switch-flip instant events in the exported trace"
print(f"    {len(doc['traceEvents'])} trace events, {len(flips)} switch flips")
EOF
rm -f "$trace_json"

echo "==> telemetry smoke (per-epoch switch-on fraction, GC design)"
# BFS is contention-heavy: its G-Cache switches must open in some interval.
# STL is pure streaming with no reuse to protect: its switches stay shut.
tele_csv=$(mktemp)
./target/release/fig8_fig9 --quick --bench BFS,STL --telemetry "$tele_csv" >/dev/null 2>&1
awk -F, 'NR > 1 { if ($11 > m[$1] + 0) m[$1] = $11 }
  END {
    if (m["BFS"] + 0 <= 0) { print "telemetry: BFS switch_on_frac never nonzero"; exit 1 }
    if (m["STL"] + 0 > 0.01) { print "telemetry: STL switch_on_frac " m["STL"] " (expected ~0)"; exit 1 }
    printf "    BFS max switch_on_frac %.3f, STL %.3f\n", m["BFS"] + 0, m["STL"] + 0
  }' "$tele_csv" || { rm -f "$tele_csv"; exit 1; }
rm -f "$tele_csv"

echo "==> all checks passed"

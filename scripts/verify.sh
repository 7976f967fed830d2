#!/usr/bin/env bash
# Tier-1 verification, fully offline:
#   1. hermeticity — cargo metadata lists no package from outside the
#      tree; then static invariants — krb-lint (secrecy, constant-time,
#      flow rules) with a justified-suppression baseline
#   2. release build of every target (including benches)
#   3. clippy, warnings denied — this also enforces determinism
#      (clippy.toml's disallowed types and methods) and panic hygiene
#      (the panic lints the protocol crates' [lints] tables turn on)
#   4. full test suite
#
# Usage: scripts/verify.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hermeticity (cargo metadata) =="
# Every package cargo resolves, for the workspace and for the separate
# perfbench workspace, must come from the tree: a crates-io or git
# dependency has a non-null source (or fails offline resolution).
command -v python3 >/dev/null 2>&1 \
    || { echo "python3 not found: the hermeticity check cannot run"; exit 1; }
for manifest in Cargo.toml perfbench/Cargo.toml; do
    meta="$(cargo metadata --format-version 1 --offline --manifest-path "$manifest")" \
        || { echo "$manifest: dependencies do not resolve offline; the build must stay hermetic"; exit 1; }
    python3 -c '
import json, sys
meta = json.load(sys.stdin)
external = [p["name"] for p in meta["packages"] if p["source"] is not None]
if external:
    sys.exit("external packages in cargo metadata: %s" % ", ".join(sorted(set(external))))
' <<<"$meta" || { echo "$manifest: the build must stay hermetic (in-tree path dependencies only)"; exit 1; }
done
echo "ok: all dependencies are in-tree path dependencies"

echo "== static invariants (krb-lint) =="
# Rules S001-S004 (secrecy), C001 (constant-time compare), plus the
# flow-aware pass (S005 cross-function secret taint, D003 laundered
# clock reads, P003 truncating length casts, A001 hot-path allocations,
# E001 metric-name drift against DESIGN.md).
cargo run -q --offline -p krb-lint \
    || { echo "krb-lint gate failed — fix the findings above, or add a"
         echo "justified [[allow]] entry to lint-baseline.toml"; exit 1; }

echo "== release build (all targets) =="
cargo build --workspace --release --all-targets --offline

echo "== clippy (warnings denied) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tests =="
cargo test -q --workspace --offline

echo "== crypto bench smoke (fast-kernel equivalence + speedup) =="
# One quick pass of the E13 throughput harness: proves the fused-table
# DES kernel bit-exact against the reference (FIPS 81 + differential
# trials), fails if the fast kernel is not faster, and regenerates
# BENCH_crypto.json.
KDC_THROUGHPUT_QUICK=1 cargo run --release --offline -p bench --bin table_kdc_throughput
grep -q '"equivalence": "pass"' BENCH_crypto.json \
    || { echo "BENCH_crypto.json missing equivalence pass"; exit 1; }

echo "== trace goldens (determinism + narration) =="
# The observability layer must be purely observational: the pinned A1/V4
# JSONL trace matches its golden byte-for-byte, same-seed runs are
# byte-identical with and without a fault plan, the narrated trace reads
# in paper notation, and the metrics snapshot counts the attack.
cargo test -q -p attacks --test trace_golden --release --offline
# And the interactive narrator drives end-to-end. (Captured, not piped:
# grep -q closing the pipe early would trip pipefail.)
narration="$(scripts/trace.sh --narrate replay)"
echo "$narration" | grep -q 'c -> kdc: AS-REQ' \
    || { echo "trace.sh narration missing protocol steps"; exit 1; }

echo "== fuzz smoke (fixed seed, deterministic, panic-free) =="
# 10k mutated frames against every codec decoder: each input must yield
# Ok or a typed error (a panic fails the run), and two same-seed runs
# must be byte-identical.
scripts/fuzz.sh

echo "== gateway overload scenarios (E17) =="
# The four seeded abuse campaigns against the admission-controlled KDC
# front-end: flash crowd, preauth storm, misbehaving herd, crash-restart.
# Each is byte-replayable from its seed; the run regenerates
# BENCH_gateway.json (goodput, shed rate, p99 latency, admission ratios).
cargo run --release --offline -p bench --bin table_gateway_overload
grep -q '"preauth_storm.legit_ok"' BENCH_gateway.json \
    || { echo "BENCH_gateway.json missing preauth-storm scores"; exit 1; }

echo "== cluster scale smoke (E18, quick mode, byte-identical JSON) =="
# The sharded-cluster bench in quick mode: provisions the population,
# gates the batched 4-shard aggregate at >=2x the single-KDC baselines,
# and survives a shard-primary crash mid-workload. Runs twice: the
# deterministic report must be byte-identical across same-seed runs.
CLUSTER_SCALE_QUICK=1 cargo run --release --offline -p bench --bin table_cluster_scale
cp BENCH_cluster.json BENCH_cluster.json.run1
CLUSTER_SCALE_QUICK=1 cargo run --release --offline -p bench --bin table_cluster_scale
diff BENCH_cluster.json.run1 BENCH_cluster.json \
    || { echo "BENCH_cluster.json not byte-identical across same-seed runs"; exit 1; }
rm -f BENCH_cluster.json.run1
grep -q '"speedup_gate": "pass"' BENCH_cluster.json \
    || { echo "BENCH_cluster.json missing speedup gate pass"; exit 1; }

echo "== lint coverage (E19, byte-identical JSON) =="
# The flow-aware lint over the whole tree, twice: BENCH_lint.json holds
# only deterministic counts (findings per rule, functions, call edges,
# taint paths — the wall clock goes to stdout only), so two runs over
# the same tree must produce byte-identical reports, and the tree must
# be clean (every finding fixed or baselined with a justification).
cargo run --release --offline -p krb-lint --bin table_lint_coverage
cp BENCH_lint.json BENCH_lint.json.run1
cargo run --release --offline -p krb-lint --bin table_lint_coverage
diff BENCH_lint.json.run1 BENCH_lint.json \
    || { echo "BENCH_lint.json not byte-identical across same-tree runs"; exit 1; }
rm -f BENCH_lint.json.run1
grep -q '"clean": true' BENCH_lint.json \
    || { echo "BENCH_lint.json reports active findings"; exit 1; }

echo "== intrusion detection (E20, gates + byte-identical JSON) =="
# The default krb-ids rule set over the full attack matrix, stealth
# variants, benign and fault-heavy workloads. Twice: detection is a
# pure function of the deterministic wire, so BENCH_ids.json must be
# byte-identical across same-seed runs; then both gates (every designed
# detector pair fired with >=90% on loud variants; zero alerts on the
# zero-fault benign workload). The pinned alert-stream goldens
# ride with the test suite (alert_golden).
cargo run --release --offline -p bench --bin table_ids_matrix
cp BENCH_ids.json BENCH_ids.json.run1
cargo run --release --offline -p bench --bin table_ids_matrix
diff BENCH_ids.json.run1 BENCH_ids.json \
    || { echo "BENCH_ids.json not byte-identical across same-seed runs"; exit 1; }
rm -f BENCH_ids.json.run1
# And identical to the committed report: a detector change that moves
# any matrix row fails here instead of being silently re-blessed.
git diff --exit-code -- BENCH_ids.json \
    || { echo "BENCH_ids.json differs from the committed report"; exit 1; }
grep -q '"detection_gate": "pass"' BENCH_ids.json \
    || { echo "BENCH_ids.json missing detection gate pass"; exit 1; }
grep -q '"fp_gate": "pass"' BENCH_ids.json \
    || { echo "BENCH_ids.json missing false-positive gate pass"; exit 1; }

echo "== chaos soak (pinned fault seeds) =="
# Liveness + safety under a faulted network: ≥5 pinned seeds at ≥10%
# drop+duplicate+reorder, master-KDC crash mid-campaign, E1 verdicts
# bit-identical under faults, replay caught across server restart.
cargo test -q -p attacks --test chaos_soak --release --offline

echo "verify: OK"

#!/usr/bin/env bash
# Regenerates every result reported in EXPERIMENTS.md, in order.
# Usage: scripts/reproduce.sh [max_fig17_bound] [jobs] [timeout_secs]
#   max_fig17_bound  default 4 (5 takes ~45 min sequential)
#   jobs             worker-pool width for the sweeps, default 4
#   timeout_secs     per-query wall-clock budget, default 600
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_BOUND="${1:-4}"
JOBS="${2:-4}"
TIMEOUT="${3:-600}"

echo "== 1. Litmus-test figures (Figures 5, 6, 8, 9) =="
cargo test --release --test paper_figures --test litmus_files

echo "== 1b. Full litmus sweep (parallel harness, JSON records) =="
cargo run --release -p ptxmm-litmus --bin ptxherd -- \
    --suite --jobs "$JOBS" --timeout-secs "$TIMEOUT" --json

echo "== 2. Figure 17: mapping verification runtimes =="
BOUNDS=$(seq 2 "$MAX_BOUND" | tr '\n' ' ')
# shellcheck disable=SC2086
cargo run --release -p ptxmm-bench --bin fig17_table -- \
    $BOUNDS --jobs "$JOBS" --timeout-secs "$TIMEOUT"

echo "== 3. Figure 12: the RMW_SC .release pitfall =="
cargo test --release --test mapping_soundness
cargo run --release --example compile_and_compare

echo "== 4. Theorems 1-3 and their empirically validated theory =="
cargo test --release -p ptxmm-proof
cargo test --release --test proof_axioms_validated

echo "== 5. Oracles and differential engines =="
cargo test --release --test engines_agree --test sc_oracle --test prop_mapping_fuzz

echo "== 6. Counter gate (fig17 bounds 2-3, litmus SAT path, ptxd suite) =="
cargo run --release -p ptxmm-bench --bin benchgate

echo "All experiments regenerated."

#!/usr/bin/env bash
# Smoke check of the benchmark: unit tests of the harness, BENCHMARK.json
# in step with the catalogue in src/spec.rs, then every workload shrunk
# (untraced and traced) for schema and correctness only. No timing gates.
set -euo pipefail
cd "$(dirname "$0")/.."
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
"${run[@]}" --print-spec | diff - BENCHMARK.json
"${run[@]}" --seed 1 --smoke --trace

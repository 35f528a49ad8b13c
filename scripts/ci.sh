#!/usr/bin/env bash
# The full offline gate: the build, the test suite (every invariant, the
# source rules of tests/architecture.rs, the kill -9 smokes of the real
# binary), lint, and the scoreboard. Keep README.md "Install & build" in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# The frozen benchmark names public API under crates/: a break fails here.
cargo build --release --offline --manifest-path scoreboard/Cargo.toml
# Three runs surface a test that depends on scheduling or a shared path.
for _ in 1 2 3; do
    cargo test -q --offline --no-fail-fast
done
cargo clippy --offline --workspace --all-targets -- -D warnings
# The scoreboard's tests, then all four workloads at smoke scale, every
# answer checked against its oracle.
cargo test --release --offline --manifest-path scoreboard/Cargo.toml
cargo run --release --offline --quiet --manifest-path scoreboard/Cargo.toml -- --smoke

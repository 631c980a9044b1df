#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   ./scripts/check.sh
#
# Runs entirely offline (vendored deps; see crates/vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --release --manifest-path perfbench/Cargo.toml (benchmark builds, its tests pass)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> harness t10 (callout resilience phase tables)"
cargo run -p gridauthz-bench --bin harness --release -- t10

echo "==> harness t12 (admission control: overload sweep, shed rate, p99)"
cargo run -p gridauthz-bench --bin harness --release -- t12

echo "==> harness t13 (protocol torture: seeded adversarial storms, small sweep)"
TORTURE_SEEDS=6 cargo run -p gridauthz-bench --bin harness --release -- t13

echo "==> harness t14 (crash-point matrix smoke, recovery scaling, journal overhead)"
CRASH_SEEDS=6 cargo run -p gridauthz-bench --bin harness --release -- t14

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc -D warnings (broken or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "all checks passed"

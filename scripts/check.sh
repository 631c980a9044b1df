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

echo "==> cargo test --workspace -q (incl. the protocol-torture storms and the crash-point matrix)"
cargo test --workspace -q

echo "==> the vendored crates' own tests (outside the workspace, so --workspace skips them)"
for crate in criterion parking_lot proptest rand; do
    cargo test -q --offline --manifest-path "crates/vendor/$crate/Cargo.toml"
done

echo "==> cargo test --release --manifest-path perfbench/Cargo.toml (benchmark builds, its tests pass)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check (the vendored crates too)"
cargo fmt --all --check

echo "==> cargo doc -D warnings (broken or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "all checks passed"

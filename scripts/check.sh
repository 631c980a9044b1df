#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   ./scripts/check.sh
#
# Runs entirely offline (vendored deps; see crates/vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> every dependency a Cargo.toml names is named by a .rs file of its crate"
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    if [ "$dir" = . ]; then
        # The root package: its own sources, not the member crates'.
        roots=()
        for sub in src tests examples benches; do
            if [ -d "$sub" ]; then roots+=("$sub"); fi
        done
    else
        roots=("$dir")
    fi
    deps=$(awk '/^\[/ { on = /^\[(dev-|build-)?dependencies\]$/; next }
        on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest" | sort -u)
    for dep in $deps; do
        if ! grep -rqw --include='*.rs' "${dep//-/_}" "${roots[@]}"; then
            echo "$manifest: no .rs file names ${dep//-/_}" >&2
            unused=1
        fi
    done
done
if [ "$unused" -ne 0 ]; then
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q (incl. the protocol-torture storms and the crash-point matrix)"
cargo test --workspace -q

echo "==> every example runs to completion (each asserts its scenario's outcome)"
for example in examples/*.rs; do
    cargo run -q --release --offline --example "$(basename "$example" .rs)" > /dev/null
done

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

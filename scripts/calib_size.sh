#!/usr/bin/env bash
# Prints the size in bytes (hex, as `nm -S` gives it) of perfbench's
# host-speed reference loop, `gridauthz_perfbench::calib::serve`.
#
#   ./scripts/calib_size.sh [path/to/gridauthz-perfbench]
#
# perfbench divides served throughput by this loop's throughput, so a
# build that lays the loop out differently moves `relative_throughput`
# without any change to the served path. Compare the size printed for
# two builds (parent and change) before reading a `relative_throughput`
# difference between them as a change in the program. The binary
# defaults to the release build of the perfbench workspace:
#
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
set -euo pipefail
cd "$(dirname "$0")/.."

binary="${1:-perfbench/target/release/gridauthz-perfbench}"
if [[ ! -x "$binary" ]]; then
    echo "calib_size: no perfbench binary at $binary (build it first)" >&2
    exit 2
fi
size=$(nm -S -C "$binary" | awk '$4 == "gridauthz_perfbench::calib::serve" { print $2 }')
if [[ -z "$size" ]]; then
    echo "calib_size: gridauthz_perfbench::calib::serve not found in $binary" >&2
    exit 1
fi
printf '0x%x\n' "$((16#$size))"

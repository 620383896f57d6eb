#!/usr/bin/env bash
# Builds the nncell CLI and this benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload nn_d8 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
root=$(pwd)
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p nncell-cli 1>&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" 1>&2
exec "$target/release/perfbench" --nncell "$target/release/nncell" --workdir "$root/.bench_run" "$@"

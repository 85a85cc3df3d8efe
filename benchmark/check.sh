#!/usr/bin/env bash
# The local gate of the benchmark package (CI wiring is a later PR):
# formatting, clippy with warnings denied, the unit tests, and a smoke pass
# (1 s windows, untraced + traced, numbers not gated — only that every
# workload runs, checks its outputs and reports 0 failed items).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
manifest="$here/Cargo.toml"

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest" --release
out="$("$here/run.sh" --smoke --traced)"
grep '^{' <<<"$out"
if grep '^{' <<<"$out" | grep -qv '"correct": true'; then
  echo "check.sh: a smoke run reported failed items" >&2
  exit 1
fi
echo "check.sh: ok"

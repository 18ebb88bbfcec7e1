#!/usr/bin/env bash
# Builds covercli, coverd and the benchmark from the checkout it is run in,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid-solve-w1 --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under the build directory ($CARGO_TARGET_DIR,
# default .bench_build): the Go build cache, the binaries, per-run scratch
# files, and the stamped results and span traces.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/bin"

# Build offline with the local toolchain, caching inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/" ./cmd/covercli ./cmd/coverd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -root "$root" -out "$out" "$@"
